"""Backend registry: construct any dynamic graph structure by name.

Benchmarks, tests and examples pit the paper's structure against four
competitors on identical inputs; the registry is the single factory they
all share::

    import repro.api as api
    g = api.create("hornet", num_vertices=1_000)
    api.backend_names()          # ('btree', 'faimgraph', 'gpma', 'hornet', 'slabhash')
    api.capabilities("gpma")     # Capabilities(weighted=False, ...)

The five structures are a fixed table, imported lazily, so importing
``repro.api`` stays cheap and the package avoids import cycles: backend
modules import ``repro.api.backend`` for the ABC while the registry only
touches them on first :func:`create`.  A structure outside the table needs
no registration: wrap an instance in :class:`repro.api.Graph` directly.

Every backend inherits the :class:`~repro.api.backend.GraphBackend`
snapshot contract: mutating operations bump ``mutation_version`` and
``snapshot()`` re-serves its cached sorted-CSR view while the version is
unchanged, so registry consumers get phase-concurrent snapshot caching for
free (see the README's "Snapshots and phase-concurrency" section).

Weight defaulting is made explicit and uniform here: :func:`create` always
passes ``weighted`` (default **False** — the set variant), unlike the
legacy constructors whose defaults disagreed (``DynamicGraph``/``BTreeGraph``
/``HornetGraph`` defaulted weighted, ``FaimGraph``/``GPMAGraph`` did not).
"""

from __future__ import annotations

from importlib import import_module
from types import MappingProxyType
from typing import Any

from repro.api.capabilities import Capabilities
from repro.util.errors import ValidationError
from repro.util.validation import as_int_array

__all__ = ["create", "backend_names", "capabilities"]

#: The paper's five dynamic structures, ``name -> (module, class)``.
_BACKENDS = MappingProxyType(
    {
        # Hash-table-per-vertex dynamic graph (the paper's contribution)
        "slabhash": ("repro.core.graph", "DynamicGraph"),
        # B+-tree-per-vertex graph with natively sorted adjacency (Section VII)
        "btree": ("repro.btree.graph", "BTreeGraph"),
        # Hornet-like block-per-vertex structure (Busato et al., HPEC 2018)
        "hornet": ("repro.baselines.hornet", "HornetGraph"),
        # faimGraph-like paged adjacency lists (Winter et al., SC 2018)
        "faimgraph": ("repro.baselines.faimgraph", "FaimGraph"),
        # GPMA-like packed-memory-array edge set (Sha et al., VLDB 2017)
        "gpma": ("repro.baselines.gpma", "GPMAGraph"),
    }
)

#: Alternate lookup names (``"ours"`` is the bench harness's legacy name).
_ALIASES = MappingProxyType({"ours": "slabhash", "dynamic": "slabhash", "faim": "faimgraph"})


def _resolve(name: str) -> tuple[str, type]:
    """Canonical name and class (imported on first use) for a name or alias."""
    key = str(name).lower()
    key = _ALIASES.get(key, key)
    try:
        module, attr = _BACKENDS[key]
    except KeyError:
        known = ", ".join(sorted(_BACKENDS))
        raise ValidationError(
            f"unknown graph backend {name!r}; registered backends: {known}"
        ) from None
    return key, getattr(import_module(module), attr)


def backend_names() -> tuple[str, ...]:
    """Canonical backend names (aliases excluded), sorted."""
    return tuple(sorted(_BACKENDS))


def capabilities(name: str) -> Capabilities:
    """Class-level capability declaration of a backend."""
    return _resolve(name)[1].capabilities


def create(name: str, num_vertices: int, *, weighted: bool = False, **kwargs: Any):
    """Instantiate a backend by name.

    Parameters
    ----------
    name:
        Backend name or alias (case-insensitive).
    num_vertices:
        Vertex-id space / dictionary capacity (an integral value).
    weighted:
        Store per-edge weights.  Explicitly defaulted to **False** for
        every backend (the legacy constructors disagreed); requesting
        ``weighted=True`` from a backend without the capability raises.
    **kwargs:
        Backend-specific options passed through (``load_factor``,
        ``directed``, ``segment_size``, ...).
    """
    key, cls = _resolve(name)
    (num_vertices,) = as_int_array(num_vertices, "num_vertices").tolist()
    if weighted and not cls.capabilities.weighted:
        raise ValidationError(
            f"backend {key!r} cannot store edge weights "
            "(capability weighted=False)"
        )
    return cls(num_vertices=num_vertices, weighted=weighted, **kwargs)
