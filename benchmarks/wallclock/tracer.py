"""Span tracer that measures each layer from outside the program.

Nothing under ``src/`` is instrumented: for the duration of one traced
repetition this module wraps the public entry points of each layer —
patching the binding the caller actually resolves (a class attribute for
methods, every ``repro.*`` module global that holds the function for
module-level functions, the active tier module for kernels) — and restores
every binding on exit.

A span is ``(name, layer, start_ns, end_ns, parent, op)``; spans of one
phase of the workload share ``op``.  A layer's *self time* is its spans'
duration minus the part their child spans cover, so self times of all
layers add up to the traced wall.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

LAYERS = (
    "api.facade",
    "eventlog",
    "core",
    "slabhash",
    "kernels",
    "api.snapshot",
    "stream.incremental",
    "analytics",
    "persist",
    "api.sharding",
)


# -- hooks: counts taken at the same boundaries as the spans ------------------------------
# A hook runs after its span closes: hook(tracer, args, result, dur_ns, self_ns).


def _rows_through_normalize(tr, args, result, dur, self_ns):
    tr.counts["rows_in"] += len(args[0])
    tr.counts["rows_out"] += len(result[0])


def _event_published(tr, args, result, dur, self_ns):
    tr.counts["events_published"] += 1


def _cursor_gap(tr, args, result, dur, self_ns):
    tr.counts["cursor_gaps"] += bool(result[1])


def _tables_created(tr, args, result, dur, self_ns):
    tr.counts["tables_created"] += len(args[1])


def _kernel_round(tr, args, result, dur, self_ns):
    tr.counts["kernel_round_calls"] += 1
    tr.counts["kernel_round_rows"] += len(args[-1])


def _cold_build(tr, args, result, dur, self_ns):
    tr.flags["cold"] = True


def _merge_build(tr, args, result, dur, self_ns):
    tr.flags["merge"] = True


def _facade_snapshot(tr, args, result, dur, self_ns):
    if tr.flags.pop("cold", False):
        tr.counts["snapshot_cold"] += 1
        tr.samples["snapshot_cold"].append(dur)
    elif tr.flags.pop("merge", False):
        tr.counts["snapshot_merge"] += 1
    else:
        tr.counts["snapshot_cached"] += 1
    tr.flags.clear()


def _sample(key, self_time=False):
    def hook(tr, args, result, dur, self_ns):
        tr.samples[key].append(self_ns if self_time else dur)

    return hook


def _targets():
    """``(owner, attribute, layer, hook)`` for every wrapped entry point.

    ``owner`` is a class (methods) or a function object (module-level
    functions, patched wherever a ``repro.*`` module binds them).
    """
    from repro import kernels
    from repro.api import facade, sharding, snapshot
    from repro.api.backend import GraphBackend
    from repro.core.graph import DynamicGraph
    from repro.core.vertex_dict import VertexDictionary
    from repro.eventlog.log import EventCursor, EventLog
    from repro.persist import checkpoint, store, wal
    from repro.persist.sharded import ShardStores
    from repro.slabhash.arena import SlabArena, SlabPool
    from repro.stream import incremental

    targets = []

    def methods(cls, layer, names, hooks=None):
        for name in names:
            targets.append((cls, name, layer, (hooks or {}).get(name)))

    def functions(layer, funcs, hooks=None):
        for func in funcs:
            targets.append((func, None, layer, (hooks or {}).get(func.__name__)))

    graph_ops = (
        "insert_edges",
        "delete_edges",
        "delete_vertices",
        "bulk_build",
        "edge_exists",
        "degree",
        "adjacencies",
        "export_coo",
        "rehash",
        "flush_tombstones",
    )
    methods(facade.Graph, "api.facade", graph_ops)
    functions(
        "api.facade", [facade.normalize_batch], {"normalize_batch": _rows_through_normalize}
    )
    methods(
        EventLog,
        "eventlog",
        ("publish_edge_batch", "publish_structural"),
        {"publish_edge_batch": _event_published, "publish_structural": _event_published},
    )
    methods(EventCursor, "eventlog", ("poll", "peek"), {"poll": _cursor_gap, "peek": _cursor_gap})
    methods(
        DynamicGraph,
        "core",
        graph_ops,
        {
            "delete_vertices": _sample("vertex_delete"),
            "rehash": _sample("maintenance"),
            "flush_tombstones": _sample("maintenance"),
        },
    )
    methods(
        VertexDictionary,
        "core",
        ("ensure_tables", "add_edge_counts", "sub_edge_counts", "activate"),
    )
    methods(
        SlabArena,
        "slabhash",
        ("insert", "delete", "search", "iterate", "create_tables", "flush_tombstones"),
        {"create_tables": _tables_created},
    )
    methods(SlabPool, "slabhash", ("allocate", "allocate_contiguous"))
    tier = kernels.get_kernels()
    for name in tier.__all__:
        if callable(getattr(tier, name)):
            targets.append((tier, name, "kernels", _kernel_round if "_round" in name else None))
    methods(facade.Graph, "api.snapshot", ("snapshot",), {"snapshot": _facade_snapshot})
    methods(GraphBackend, "api.snapshot", ("snapshot",))
    methods(snapshot.CSRSnapshot, "api.snapshot", ("from_coo",), {"from_coo": _cold_build})
    functions(
        "api.snapshot",
        [snapshot.as_snapshot, snapshot.merge_event_window, snapshot.merge_csr_delta],
        {"merge_event_window": _merge_build},
    )
    methods(incremental.IncrementalConnectedComponents, "stream.incremental", ("labels",))
    methods(incremental.IncrementalPageRank, "stream.incremental", ("compute",))
    methods(incremental.IncrementalTriangleCount, "stream.incremental", ("count",))
    methods(incremental.IncrementalBFS, "stream.incremental", ("distances",))
    methods(incremental.IncrementalKCore, "stream.incremental", ("members",))
    functions(
        "analytics",
        [
            incremental.bfs,
            incremental.connected_components,
            incremental.kcore_membership,
            incremental.power_iteration,
            incremental.canonical_edge_keys,
            incremental.symmetric_csr,
            incremental.closing_wedges,
        ],
    )
    methods(wal.WalWriter, "persist", ("append", "flush"), {"append": _sample("wal_append")})
    functions(
        "persist",
        [
            checkpoint.write_checkpoint,
            checkpoint.load_checkpoint,
            wal.scan_wal,
            store.apply_event,
        ],
    )
    methods(
        ShardStores,
        "persist",
        ("checkpoint", "checkpoint_shard", "sync", "rebuild"),
        {"rebuild": _sample("recover")},
    )
    methods(
        sharding.ShardedGraph,
        "api.sharding",
        ("insert_edges", "edge_exists", "degree", "snapshot", "kill_shard", "rebuild_shard"),
        {
            "insert_edges": _sample("router", self_time=True),
            "snapshot": _sample("assembly", self_time=True),
        },
    )
    methods(sharding.Partitioner, "api.sharding", ("shard_of",))
    return targets


def _bindings(owner, attribute):
    """Every ``(namespace, name)`` through which callers resolve a target."""
    if attribute is not None:
        if isinstance(owner, type):
            # Patch the class that defines the method, so restoring is a
            # plain re-assignment of the original object.
            for klass in owner.__mro__:
                if attribute in vars(klass):
                    return [(klass, attribute)]
            raise AttributeError(f"{owner.__name__}.{attribute}")
        return [(owner, attribute)]
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            if value is owner:
                found.append((module, key))
    return found


class Tracer:
    """Records spans and per-layer self time while :meth:`installed`."""

    def __init__(self) -> None:
        self.spans = []
        self.op_id = 0
        #: Spans are recorded only inside the workload's timed calls, so the
        #: layers' self times add up to exactly the wall the timers saw.
        self.enabled = False
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.by_name = defaultdict(lambda: [0, 0])  # span name -> [calls, inclusive ns]
        self.counts = defaultdict(int)
        self.samples = defaultdict(list)
        self.flags = {}
        self._stack = []
        self._patched = []

    # -- patching ---------------------------------------------------------------------

    def _wrap(self, fn, name, layer, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        self_ns, calls, totals = self.self_ns, self.calls, self.by_name[name]

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [index, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                own = dur - frame[1]
                spans[index] = (name, layer, start, end, parent, self.op_id)
                self_ns[layer] += own
                calls[layer] += 1
                totals[0] += 1
                totals[1] += dur
                if stack:
                    stack[-1][1] += dur
            if hook is not None:
                hook(self, args, result, dur, own)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target; call :meth:`uninstall` to restore."""
        for owner, attribute, layer, hook in _targets():
            for namespace, key in _bindings(owner, attribute):
                original = vars(namespace)[key]
                # Kernel spans are named after the seam, not the tier behind it.
                label = "kernels" if layer == "kernels" else namespace.__name__.rsplit(".", 1)[-1]
                name = f"{label}.{key}" if attribute is not None else owner.__name__
                if isinstance(original, (classmethod, staticmethod)):
                    wrapped = type(original)(self._wrap(original.__func__, name, layer, hook))
                else:
                    wrapped = self._wrap(original, name, layer, hook)
                setattr(namespace, key, wrapped)
                self._patched.append((namespace, key, original))

    def uninstall(self) -> None:
        while self._patched:
            namespace, key, original = self._patched.pop()
            setattr(namespace, key, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ------------------------------------------------------------------------

    def inclusive_ms(self, *names) -> float:
        """Total inclusive milliseconds of the named spans."""
        return sum(self.by_name[n][1] for n in names if n in self.by_name) / 1e6

    def write_jsonl(self, path) -> None:
        """One span per line: name, layer, start, end, parent, op."""
        with open(path, "w") as fh:
            for index, (name, layer, start, end, parent, op) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "layer": layer,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "op": op,
                        }
                    )
                )
                fh.write("\n")

