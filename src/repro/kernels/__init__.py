"""The slab-pool and sorted-CSR kernels (:mod:`repro.kernels.reference`).

The slab-hash operations (:mod:`repro.slabhash.insert` / ``search`` /
``delete`` / ``iterate``) and the snapshot delta merge
(:mod:`repro.api.snapshot`) are *drivers*: they validate, schedule the
work (probe rounds for search/delete; one chain walk, one hit pass and
one tail placement per insert launch), allocate slabs, and charge the
:mod:`repro.gpusim` device model.  The data movement over the slab pool
is the kernels': fused pure-NumPy passes that never touch the counters.

There is one implementation.  Drivers import the module
(``from repro.kernels import reference as kern``) and look each kernel up
on it at call time, because the wall-clock tracer under
``benchmarks/wallclock/`` times kernels by patching that module's
attributes.  The two functions below exist for that harness alone.
"""

from __future__ import annotations

from repro.kernels import reference as _reference

__all__ = ["get_kernels", "kernel_tier"]


def get_kernels():
    """The kernel module.

    Kept because ``benchmarks/wallclock/tracer.py`` asks it which module to
    wrap, and a change to ``src/`` may not edit that harness around it.
    """
    return _reference


def kernel_tier() -> str:
    """Always ``"reference"``.

    Kept because ``benchmarks/wallclock/harness.py`` stamps it into every
    run's fingerprint and ``run.py --compare`` refuses runs whose values
    differ, so parent and change must agree on it.
    """
    return _reference.TIER_NAME
