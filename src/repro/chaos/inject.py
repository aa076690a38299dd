"""Thin fault-injecting wrappers: :class:`FaultyBackend` and
:class:`FaultyStore`.

Both are transparent proxies that consult a :class:`~repro.chaos.plan.
FaultPlan` *before* delegating, so a fired fault leaves the wrapped
object untouched (the operation never started).  No backend or store
code changes to become injectable:

- :class:`FaultyBackend` wraps any :class:`~repro.api.backend.
  GraphBackend` and arrives at ``"<prefix>.<op>"`` ahead of every
  protocol call (``shard0.insert_edges``, ``shard0.snapshot``, ...).
  The :class:`~repro.api.Graph` facade wraps it like a real backend.
- :class:`FaultyStore` manufactures an ``opener`` for
  :class:`~repro.persist.wal.WalWriter` whose files arrive at
  ``"<prefix>.open"`` / ``".write"`` / ``".fsync"`` / ``".close"``,
  including torn writes (a prefix of the buffer lands on disk, then
  the write raises :class:`OSError`) — exactly the failure
  ``scan_wal`` / ``repair_wal`` must stay clean under.

The wrappers fault on *entry*.  For backends that matters: the facade
publishes an event only after the backend call returns, so a faulted
mutation is never WAL-appended and never event-published — the durable
log always describes exactly the applied state, which is what makes
kill → :meth:`~repro.api.sharding.ShardedGraph.rebuild_shard` land
bit-identical to a never-faulted run.
"""

from __future__ import annotations

import os

from repro.chaos.plan import FaultPlan

__all__ = ["FaultyBackend", "FaultyStore"]

#: GraphBackend operations FaultyBackend guards with a fault point.
_GUARDED_OPS = (
    "insert_edges",
    "delete_edges",
    "delete_vertices",
    "bulk_build",
    "edge_exists",
    "edge_weights",
    "degree",
    "adjacencies",
    "neighbors",
    "num_edges",
    "export_coo",
    "sorted_adjacency",
    "snapshot",
    "rehash",
    "flush_tombstones",
    "neighbor_range",
)


def _make_guard(op: str):
    """Build one delegating method that arrives at the fault point first."""

    def guard(self, *args, **kwargs):
        self.plan.arrive(f"{self.prefix}.{op}")
        return getattr(self.inner, op)(*args, **kwargs)

    guard.__name__ = op
    guard.__doc__ = f"Arrive at ``<prefix>.{op}`` then delegate to the wrapped backend."
    return guard


class FaultyBackend:
    """A fault-injecting proxy around any graph backend.

    Every guarded operation (see ``_GUARDED_OPS``) consults the plan at
    ``"<prefix>.<op>"`` before delegating; everything else — attributes,
    capabilities, the snapshot cache — passes through untouched, so the
    :class:`~repro.api.Graph` facade cannot tell it apart from the real
    backend on the fault-free path.
    """

    def __init__(self, inner, plan: FaultPlan, prefix: str = "backend") -> None:
        self.inner = inner
        self.plan = plan
        self.prefix = str(prefix)

    # The facade reads and *writes* the snapshot cache on its backend;
    # proxy the attribute so the cache always lives on the inner backend
    # (which also maintains it from its own snapshot() path).
    @property
    def _snapshot_cache(self):
        """The wrapped backend's version-keyed snapshot cache."""
        return self.inner._snapshot_cache

    @_snapshot_cache.setter
    def _snapshot_cache(self, value) -> None:
        self.inner._snapshot_cache = value

    def __getattr__(self, name: str):
        """Delegate everything unguarded to the wrapped backend."""
        return getattr(self.inner, name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FaultyBackend({self.inner!r}, prefix={self.prefix!r})"


for _op in _GUARDED_OPS:
    setattr(FaultyBackend, _op, _make_guard(_op))
del _op


class FaultyFile:
    """A binary file proxy whose I/O entry points are fault points.

    Arrives at ``"<prefix>.write"`` / ``".fsync"`` / ``".flush"`` /
    ``".close"``.  An ``"oserror"`` spec raises :class:`OSError` before
    any bytes move; a ``"torn"`` spec writes ``torn_fraction`` of the
    buffer for real, then raises — the partially-written record the WAL
    writer must truncate away.  ``truncate`` is deliberately *not* a
    fault point: it is the writer's recovery path.
    """

    def __init__(self, fh, plan: FaultPlan, prefix: str) -> None:
        self._fh = fh
        self._plan = plan
        self._prefix = prefix

    def write(self, data) -> int:
        """Write ``data`` (possibly torn) or raise an injected OSError."""
        spec = self._plan.arrive(f"{self._prefix}.write")
        if spec is not None and spec.kind == "torn":
            keep = int(len(data) * spec.torn_fraction)
            if keep:
                self._fh.write(data[:keep])
            self._fh.flush()
            raise OSError(f"injected torn write at {self._prefix}.write ({keep}/{len(data)}B)")
        if spec is not None and spec.kind == "oserror":
            raise OSError(f"injected write failure at {self._prefix}.write")
        return self._fh.write(data)

    def flush(self) -> None:
        """Flush buffered bytes (injectable)."""
        spec = self._plan.arrive(f"{self._prefix}.flush")
        if spec is not None and spec.kind in ("oserror", "torn"):
            raise OSError(f"injected flush failure at {self._prefix}.flush")
        self._fh.flush()

    def fsync(self) -> None:
        """Durably sync (injectable — the writer's duck-typed sync seam)."""
        spec = self._plan.arrive(f"{self._prefix}.fsync")
        if spec is not None and spec.kind in ("oserror", "torn"):
            raise OSError(f"injected fsync failure at {self._prefix}.fsync")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def truncate(self, size=None) -> int:
        """Truncate (never injected: this is the recovery path)."""
        return self._fh.truncate(size)

    def tell(self) -> int:
        """Current position in the underlying file."""
        return self._fh.tell()

    def fileno(self) -> int:
        """The underlying OS file descriptor."""
        return self._fh.fileno()

    def close(self) -> None:
        """Close the underlying file (injectable)."""
        spec = self._plan.arrive(f"{self._prefix}.close")
        if spec is not None and spec.kind in ("oserror", "torn"):
            raise OSError(f"injected close failure at {self._prefix}.close")
        self._fh.close()

    @property
    def closed(self) -> bool:
        """Whether the underlying file is closed."""
        return self._fh.closed

    def __getattr__(self, name: str):
        """Delegate any other file-object attribute untouched."""
        return getattr(self._fh, name)


class FaultyStore:
    """Manufactures fault-injecting file openers for the WAL writer.

    Pass :attr:`opener` as ``WalWriter(..., opener=store.opener)``; every
    segment the writer opens arrives at ``"<prefix>.open"`` first (so a
    rotation can fail) and returns a :class:`FaultyFile` carrying the
    same prefix for write/fsync/flush/close points.
    """

    def __init__(self, plan: FaultPlan, prefix: str = "wal") -> None:
        self.plan = plan
        self.prefix = str(prefix)

    def opener(self, path, mode: str = "wb"):
        """Open ``path`` (injectable at ``"<prefix>.open"``), wrapped."""
        spec = self.plan.arrive(f"{self.prefix}.open")
        if spec is not None and spec.kind in ("oserror", "torn"):
            raise OSError(f"injected open failure at {self.prefix}.open ({path})")
        return FaultyFile(open(path, mode), self.plan, self.prefix)
