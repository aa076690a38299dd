"""A sharded graph service: scaling updates past one structure.

Run:  python examples/sharded_service.py

A social-network ingest pipeline outgrows a single device-resident
structure, so the vertex space is hash-partitioned across four per-shard
graphs behind one :class:`repro.api.ShardedGraph` facade — a ``Graph``
whose backend routes edges to their source's owner shard.  Every batch is
normalized and published by that facade as a single graph's would be, so
the incremental analytics attach to the sharded service exactly as they
would to a single graph, and the global snapshot is bit-identical to one.
The router runs the shards one after another on the host, so the split
partitions state but does not speed inserts up; ``docs/performance.md``
gives the host-time numbers.
"""

import numpy as np

from repro.analytics import connected_components, pagerank
from repro.api import Graph, ShardedGraph
from repro.stream.incremental import IncrementalConnectedComponents


def main() -> None:
    rng = np.random.default_rng(12)
    n = 20_000
    shards = 4

    service = ShardedGraph.create("slabhash", n, num_shards=shards)
    reference = Graph.create("slabhash", num_vertices=n)  # ground truth
    cc = IncrementalConnectedComponents(service)

    # Ingest: follower batches arrive, routed to owner shards.
    total = 0
    for _ in range(12):
        src = rng.integers(0, n, 4_096, dtype=np.int64)
        dst = rng.integers(0, n, 4_096, dtype=np.int64)
        total += service.insert_edges(src, dst)
        reference.insert_edges(src, dst)
    per_shard = [g.num_edges() for g in service.shards]
    live = service.export_coo()
    cut = float(service.partitioner.cut_mask(live.src, live.dst).mean())
    print(f"ingested {total} edges across {shards} shards: {per_shard}")
    print(f"cut edges (endpoints on different shards): {cut:.0%}")

    # Global analytics run unchanged on the assembled snapshot — and
    # match a single graph holding the same edges, bit for bit.
    snap = service.snapshot()
    ref_snap = reference.snapshot()
    assert np.array_equal(snap.row_ptr, ref_snap.row_ptr)
    assert np.array_equal(snap.col_idx, ref_snap.col_idx)
    assert np.allclose(pagerank(service), pagerank(reference))
    print(f"global snapshot assembled: |E| = {snap.num_edges}, identical to single graph")

    # Incremental analytics consume the service's event log directly.
    labels = cc.labels()
    assert np.array_equal(labels, connected_components(ref_snap))
    largest = int(np.bincount(labels).max())
    print(
        f"incremental CC over the sharded service ({cc.last_mode}): "
        f"largest community has {largest} members"
    )
    print("sharded service verified exact against a single graph")


if __name__ == "__main__":
    main()
