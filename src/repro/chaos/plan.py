"""Deterministic, seeded fault schedules: :class:`FaultPlan`.

A fault plan is the single source of randomness for a chaos run.  It is
a set of :class:`FaultSpec` rules — each matching one or more named
*fault points* by ``fnmatch`` pattern — plus one seeded RNG per rule.
Code under test calls :meth:`FaultPlan.arrive` every time execution
passes a fault point (``"shard0.insert_edges"``, ``"wal.write"``,
``"wal.fsync"`` ...); the plan decides, deterministically, whether that
arrival fires a fault and of which kind.

Determinism contract: each spec draws from its own RNG, seeded by
``(plan seed, spec index)``, and consumes exactly one draw per matching
arrival.  The fault schedule is therefore a pure function of the plan
seed and the per-point arrival sequence — two runs that issue the same
operations hit the same faults, which is what makes chaos runs
reproducible and recovered state pinnable bit-for-bit in tests.

Fault kinds:

- ``"transient"`` — raise :class:`~repro.util.errors.TransientFault`
  (retryable: the next attempt consults the plan again);
- ``"permanent"`` — raise :class:`~repro.util.errors.PermanentFault`
  (the resource is gone until rebuilt);
- ``"oserror"`` — raise a plain :class:`OSError` (what a disk returns;
  the WAL wraps it into :class:`~repro.util.errors.PersistError`);
- ``"torn"`` — for file fault points: write only a prefix of the buffer,
  then raise :class:`OSError` (a torn write).

Every fired fault is journaled (:attr:`FaultPlan.fired`), so a run can
report exactly which faults it absorbed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatchcase

import numpy as np

from repro.util.errors import PermanentFault, TransientFault, ValidationError

__all__ = ["FaultSpec", "FaultPlan"]

#: Every fault kind a spec may inject.
FaultKinds = ("transient", "permanent", "oserror", "torn")


@dataclass(frozen=True)
class FaultSpec:
    """One fault rule: where it applies, when it fires, and what it does.

    ``point`` is an ``fnmatch`` pattern over fault-point names.  The rule
    skips its first ``after`` matching arrivals, then fires each arrival
    with probability ``rate`` (1.0 = always) until it has fired
    ``max_fires`` times (None = unlimited).
    """

    point: str
    kind: str = "transient"
    rate: float = 1.0
    after: int = 0
    max_fires: int | None = 1
    #: Fraction of the buffer a ``"torn"`` fire lets through.
    torn_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in FaultKinds:
            raise ValidationError(f"fault kind must be one of {FaultKinds}, got {self.kind!r}")
        if not (0.0 <= self.rate <= 1.0):
            raise ValidationError("fault rate must be in [0, 1]")
        if self.after < 0:
            raise ValidationError("after must be non-negative")
        if self.max_fires is not None and self.max_fires < 0:
            raise ValidationError("max_fires must be non-negative or None")
        if not (0.0 <= self.torn_fraction < 1.0):
            raise ValidationError("torn_fraction must be in [0, 1)")


@dataclass(frozen=True)
class FireRecord:
    """One journaled fault firing (see :attr:`FaultPlan.fired`)."""

    point: str
    kind: str
    arrival: int
    spec_index: int


class _SpecState:
    """Mutable per-spec counters + the spec's own seeded RNG."""

    def __init__(self, spec: FaultSpec, seed: int, index: int) -> None:
        self.spec = spec
        self.index = index
        # Seeding on (plan seed, spec index) keeps every rule's draw
        # stream independent: arming a new rule, or arrivals at points
        # only one rule matches, never perturbs another rule's schedule.
        self.rng = np.random.default_rng([int(seed), int(index)])
        self.arrivals = 0
        self.fires = 0

    def consider(self) -> bool:
        """Consume one arrival (and exactly one draw when eligible)."""
        arrival = self.arrivals
        self.arrivals += 1
        if arrival < self.spec.after:
            return False
        if self.spec.max_fires is not None and self.fires >= self.spec.max_fires:
            return False
        if self.spec.rate < 1.0 and self.rng.random() >= self.spec.rate:
            return False
        self.fires += 1
        return True


class FaultPlan:
    """A seeded schedule of injectable faults (see module docstring)."""

    def __init__(self, seed: int = 0, specs=()) -> None:
        self.seed = int(seed)
        self._states: list[_SpecState] = []
        self._journal: list[FireRecord] = []
        self.total_arrivals = 0
        for spec in specs:
            self.add(spec)

    def add(self, spec: FaultSpec) -> FaultSpec:
        """Append one rule; its RNG is seeded by ``(plan seed, index)``."""
        self._states.append(_SpecState(spec, self.seed, len(self._states)))
        return spec

    def arm(self, point: str, **kwargs) -> FaultSpec:
        """Convenience: build and :meth:`add` a :class:`FaultSpec`."""
        return self.add(FaultSpec(point, **kwargs))

    @property
    def fired(self) -> tuple:
        """Every journaled fault fired so far, in firing order."""
        return tuple(self._journal)

    def fires_at(self, point: str) -> int:
        """Total faults fired at points matching ``point`` so far."""
        return sum(1 for r in self._journal if fnmatchcase(r.point, point))

    def arrive(self, point: str):
        """Record one arrival at ``point``; fire at most one rule.

        Returns None (no fault) or the matching :class:`FaultSpec` after
        journaling the fire.  ``"transient"`` / ``"permanent"`` specs
        raise immediately; ``"oserror"`` / ``"torn"`` return the spec so
        file wrappers can shape the failure themselves.
        """
        self.total_arrivals += 1
        for state in self._states:
            if not fnmatchcase(point, state.spec.point):
                continue
            if not state.consider():
                continue
            spec = state.spec
            self._journal.append(
                FireRecord(
                    point=point,
                    kind=spec.kind,
                    arrival=state.arrivals - 1,
                    spec_index=state.index,
                )
            )
            if spec.kind == "transient":
                raise TransientFault(f"injected transient fault at {point}", point=point)
            if spec.kind == "permanent":
                raise PermanentFault(f"injected permanent fault at {point}", point=point)
            return spec
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FaultPlan(seed={self.seed}, specs={len(self._states)}, "
            f"fired={len(self._journal)})"
        )
