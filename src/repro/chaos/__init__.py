"""Deterministic, seeded fault injection for the graph service layers.

``repro.chaos`` turns failure behavior into a tested, gated property the
same way ``repro.bench`` did for performance.  A :class:`FaultPlan` is a
seeded schedule of faults over named *fault points*; thin wrappers
(:class:`FaultyBackend` for graph backends, :class:`FaultyStore` for WAL
files) arrive at those points on every operation, so chaos needs no
changes to the code under test.  Because the schedule is a pure function
of the plan seed and the operation sequence, every chaos run is
reproducible: same seed ⇒ same fault sequence ⇒ bit-identical recovered
state, which the test suite pins across all five backends.

See ``docs/robustness.md`` for the fault model, the shard health states
it drives, and the chaos scenario guide.
"""

from repro.chaos.inject import FaultyBackend, FaultyStore
from repro.chaos.plan import FaultPlan, FaultSpec
from repro.util.errors import PermanentFault, PersistError, TransientFault

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "FaultyBackend",
    "FaultyStore",
    "TransientFault",
    "PermanentFault",
    "PersistError",
]
