"""Capability flags every backend declares (Section II-A's operation set).

The paper compares structures that deliberately *differ* in what they can
do: Hornet has no vertex deletion, GPMA stores an unweighted edge set, only
the slab-hash structure rehashes, only sorted structures answer range
queries.  Rather than papering over the differences with ``hasattr`` probes
scattered through the harness, each backend declares a
:class:`Capabilities` record; consumers branch on flags and the contract
test suite asserts the flags match actual behavior.

Two layers of capability exist:

- the **class-level** declaration (``HornetGraph.capabilities``): what the
  implementation can ever do;
- the **instance-level** view (:meth:`GraphBackend.instance_capabilities`):
  the class capabilities narrowed by construction choices — a
  ``DynamicGraph(weighted=False)`` stores no weights even though the class
  supports them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

__all__ = ["Capabilities"]


@dataclass(frozen=True)
class Capabilities:
    """What a graph backend supports beyond the mandatory batched surface.

    Attributes
    ----------
    weighted:
        Can store a per-edge integer weight (map variant / value lanes).
    vertex_dynamic:
        Implements ``delete_vertices`` (Algorithm 2 semantics).
    sorted_neighbors:
        ``neighbors`` returns destinations in ascending order without a
        sort pass (B-tree, PMA).  Hash and list structures must pay the
        Table VIII sort to produce order.
    range_queries:
        Implements ``neighbor_range(vertex, lo, hi)`` — the query the
        paper's Section VII names as the B-tree's advantage.
    rehash:
        Implements ``rehash``/``rehash_candidates`` (chain-length
        maintenance, Section III).
    tombstone_flush:
        Implements ``flush_tombstones`` (lazy-deletion compaction,
        Section IV-C2).
    """

    weighted: bool = False
    vertex_dynamic: bool = False
    sorted_neighbors: bool = False
    range_queries: bool = False
    rehash: bool = False
    tombstone_flush: bool = False

    def narrowed(self, *, weighted: bool | None = None) -> "Capabilities":
        """This record with flags switched off by instance configuration."""
        caps = self
        if weighted is not None and not weighted and caps.weighted:
            caps = replace(caps, weighted=False)
        return caps

    def flags(self) -> dict[str, bool]:
        """Flag name -> value (for reports and the contract tests)."""
        return asdict(self)
