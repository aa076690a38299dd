"""Kernel cost counters — the hardware-independent performance model.

Wall-clock timings of the vectorized kernels depend on the host CPU, NumPy
version, and dataset scale.  To make the *algorithmic* costs the paper
argues about visible independently of all that, every kernel in this
reproduction also increments a process-global :class:`KernelCounters`
instance:

- ``slab_reads`` / ``slab_writes`` — 128-byte slab/page transactions, the
  unit of coalesced memory traffic on the simulated device;
- ``probe_rounds`` — chain-walk iterations (one per warp-synchronous step);
- ``atomics`` — simulated atomic operations (allocation tickets, queue
  counters);
- ``slabs_allocated`` / ``slabs_freed`` — dynamic allocator traffic;
- ``sorted_elements`` — elements pushed through a sort, the dominant cost
  of list-based deduplication that the paper's hash approach avoids;
- ``scanned_elements`` — elements touched by linear scans (unsorted-list
  deduplication cost).

Benches report these alongside wall-clock so the "who wins and why" story
survives any absolute-speed differences between a TITAN V and a laptop.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

__all__ = ["get_counters", "counting"]


@dataclass
class KernelCounters:
    """Mutable bag of simulated-hardware cost counters."""

    slab_reads: int = 0
    slab_writes: int = 0
    probe_rounds: int = 0
    atomics: int = 0
    slabs_allocated: int = 0
    slabs_freed: int = 0
    sorted_elements: int = 0
    scanned_elements: int = 0
    kernel_launches: int = 0
    bytes_copied: int = 0
    _extra: dict = field(default_factory=dict, repr=False)

    def reset(self) -> None:
        """Zero every counter."""
        for name in _COUNTER_NAMES:
            setattr(self, name, 0)
        self._extra = {}

    def snapshot(self) -> dict[str, int]:
        """Immutable snapshot as a plain dict (for bench reports)."""
        out = {name: getattr(self, name) for name in _COUNTER_NAMES}
        out.update(self._extra)
        return out

    def add(self, name: str, amount: int = 1) -> None:
        """Increment a named ad-hoc counter (kept in ``_extra``)."""
        self._extra[name] = self._extra.get(name, 0) + amount

    def diff(self, before: dict[str, int]) -> dict[str, int]:
        """Delta between the current state and a prior :meth:`snapshot`."""
        now = self.snapshot()
        # Declared-field order, then ad-hoc names: a set union here would leak
        # the process's hash seed into every persisted bench result.
        return {k: now.get(k, 0) - before.get(k, 0) for k in {**now, **before}}


#: The declared counters, in declaration order — computed once, because
#: ``counting()`` snapshots the bag twice per shard attempt.
_COUNTER_NAMES = tuple(f.name for f in fields(KernelCounters) if f.name != "_extra")

_GLOBAL = KernelCounters()


def get_counters() -> KernelCounters:
    """Return the process-global counter instance."""
    return _GLOBAL


class counting:
    """Context manager yielding the counter delta accumulated inside it.

    >>> with counting() as delta:
    ...     graph.insert_edges(src, dst)
    >>> delta["slab_writes"]
    """

    def __enter__(self) -> dict[str, int]:
        self._before = _GLOBAL.snapshot()
        self._delta: dict[str, int] = {}
        return self._delta

    def __exit__(self, *exc) -> None:
        self._delta.update(_GLOBAL.diff(self._before))
