"""Tiered kernel dispatch: reference NumPy kernels + an optional jit tier.

The slab-hash operations (:mod:`repro.slabhash.insert` / ``search`` /
``delete`` / ``iterate``) and the snapshot delta merge
(:mod:`repro.api.snapshot`) are *drivers*: they validate, schedule the
work (probe rounds for search/delete; one chain walk, one hit pass and
one tail placement per insert launch), allocate slabs, and charge the
:mod:`repro.gpusim` device model.  The data movement over the slab pool
lives behind this dispatch layer, in one of two interchangeable tiers:

- ``reference`` — fused pure-NumPy passes (:mod:`repro.kernels.reference`),
  always available; the executable specification.
- ``jit`` — numba-compiled loop nests (:mod:`repro.kernels.jit`), selected
  automatically when numba is importable; an optional wall-clock fast path.

Both tiers implement the same pure functions over the same SoA arrays and
are required to be **bit-identical**: same mutations, same return values,
and — because all device-model charging happens in the drivers from
tier-independent quantities (pending sizes, resolve depths, hit/placement
counts) — the same :mod:`repro.gpusim` counters.  ``tests/test_kernels.py``
pins that contract.

Selection:

- ``REPRO_JIT=0`` forces the reference tier even when numba is installed;
- ``REPRO_JIT=1`` requests the jit tier (falling back to reference with a
  warning when numba is absent);
- unset: auto-detect — jit when numba imports, reference otherwise.

Programmatic control: :func:`set_tier` / :func:`use_tier`; benches stamp
:func:`kernel_tier` into their environment fingerprint so baselines never
compare jit wall-clock against reference wall-clock.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager

from repro.kernels import reference as _reference
from repro.util.errors import ValidationError

__all__ = [
    "KERNEL_TIERS",
    "available_tiers",
    "current_tier",
    "get_kernels",
    "jit_available",
    "kernel_tier",
    "set_tier",
    "use_tier",
]

#: Every tier name this dispatch layer knows about.
KERNEL_TIERS = ("reference", "jit")


def jit_available() -> bool:
    """True when numba is importable (the jit tier can actually compile)."""
    from repro.kernels import jit as _jit

    return _jit.NUMBA_AVAILABLE


def available_tiers() -> tuple:
    """Tiers that can be selected without ``force`` on this interpreter."""
    return KERNEL_TIERS if jit_available() else ("reference",)


def _tier_module(name: str):
    if name == "reference":
        return _reference
    from repro.kernels import jit as _jit

    return _jit


def _resolve_initial_tier() -> str:
    """Apply the ``REPRO_JIT`` override / auto-detection at import time."""
    raw = os.environ.get("REPRO_JIT", "").strip().lower()
    if raw in ("0", "false", "off", "no"):
        return "reference"
    if raw in ("1", "true", "on", "yes"):
        if jit_available():
            return "jit"
        warnings.warn(
            "REPRO_JIT=1 requested the jit kernel tier but numba is not "
            "installed; falling back to the reference tier "
            "(pip install 'repro-dynamic-graphs[jit]')",
            RuntimeWarning,
            stacklevel=2,
        )
        return "reference"
    if raw:
        warnings.warn(
            f"unrecognised REPRO_JIT value {raw!r} (expected 0/1); auto-detecting",
            RuntimeWarning,
            stacklevel=2,
        )
    return "jit" if jit_available() else "reference"


_ACTIVE_NAME = _resolve_initial_tier()
_ACTIVE = _tier_module(_ACTIVE_NAME)


def current_tier() -> str:
    """Name of the tier kernels currently dispatch to."""
    return _ACTIVE_NAME


def kernel_tier() -> str:
    """Alias of :func:`current_tier` for environment fingerprints."""
    return _ACTIVE_NAME


def get_kernels():
    """The active tier's kernel module (drivers call this per batch)."""
    return _ACTIVE


def set_tier(name: str, *, force: bool = False) -> str:
    """Select a kernel tier; returns the previously active tier name.

    Selecting ``"jit"`` without numba raises :class:`ValidationError`
    unless ``force=True``, which runs the jit tier's *uncompiled* Python
    loop implementations — semantically identical but slow, useful only
    for parity tests in numba-less environments.
    """
    if name not in KERNEL_TIERS:
        raise ValidationError(f"unknown kernel tier {name!r}; valid: {KERNEL_TIERS}")
    if name == "jit" and not jit_available() and not force:
        raise ValidationError(
            "kernel tier 'jit' requires numba (pip install "
            "'repro-dynamic-graphs[jit]'); pass force=True to run the "
            "uncompiled Python fallback"
        )
    global _ACTIVE_NAME, _ACTIVE
    previous = _ACTIVE_NAME
    _ACTIVE_NAME = name
    _ACTIVE = _tier_module(name)
    return previous


@contextmanager
def use_tier(name: str, *, force: bool = False):
    """Context manager: dispatch to ``name`` inside the block, then restore."""
    previous = set_tier(name, force=force)
    try:
        yield
    finally:
        set_tier(previous, force=True)
