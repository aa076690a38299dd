"""Quickstart: the unified graph API in two minutes.

Run:  python examples/quickstart.py

Walks through the five operations the paper defines for a dynamic graph
data structure (Section II-A) — adjacency retrieval, vertex insertion and
deletion, edge insertion and deletion — through the ``repro.api`` facade,
then shows the backend registry: the same code driving the paper's
structure, its competitors, and the capability flags that tell them apart.
"""

import numpy as np

import repro.api as api
from repro import COO, Graph


def main() -> None:
    # A weighted directed graph with capacity for 1,000 vertex ids,
    # constructed by backend name ("slabhash" is the paper's structure).
    g = Graph.create("slabhash", num_vertices=1_000, weighted=True, load_factor=0.7)

    # --- Edge insertion (Algorithm 1 semantics) -------------------------
    # Batches may contain duplicates; the structure keeps edges unique and
    # the most recent weight wins.  Self-loops are dropped — the facade's
    # one batch policy, the paper's (Algorithm 1 line 3).
    src = [0, 0, 0, 1, 2, 2]
    dst = [1, 2, 1, 2, 0, 2]  # (0,1) twice; (2,2) is a self loop
    w = [10, 20, 11, 30, 40, 99]
    added = g.insert_edges(src, dst, weights=w)
    print(f"inserted {added} unique edges (batch of {len(src)})")
    assert added == 4

    # --- Queries ---------------------------------------------------------
    exists = g.edge_exists([0, 0, 1], [1, 9, 0])
    print(f"edgeExist (0,1)={exists[0]}  (0,9)={exists[1]}  (1,0)={exists[2]}")
    found, weights = g.edge_weights([0], [1])
    print(f"weight of (0,1) = {int(weights[0])}  (replace semantics kept the last write)")

    dsts, ws = g.neighbors(0)
    print(f"adjacency of 0: {sorted(zip(dsts.tolist(), ws.tolist()))}")

    # --- Edge deletion ----------------------------------------------------
    removed = g.delete_edges([0, 0], [2, 7])  # (0,7) never existed
    print(f"deleted {removed} edges; degree(0) is now {int(g.degree([0])[0])}")

    # --- Vertex deletion (capability-gated, Section IV-D) -------------------
    g.insert_edges(np.full(64, 500), np.arange(64))
    removed = g.delete_vertices([500])
    print(f"vertex 500 deleted ({removed} edges removed with it)")
    assert not g.edge_exists([500], [3])[0]

    # --- Bulk build from COO (Table V workload) ------------------------------
    rng = np.random.default_rng(0)
    coo = COO(rng.integers(0, 1000, 5000), rng.integers(0, 1000, 5000), 1000)
    g2 = Graph.create("slabhash", num_vertices=1000)
    g2.bulk_build(coo)
    print(f"bulk-built |E|={g2.num_edges()} in {g2.memory_bytes()} bytes")

    # --- Snapshot for analytics ------------------------------------------------
    snapshot = g2.snapshot()
    print(f"exported snapshot: {snapshot}")

    # --- The registry: every backend through the same surface -------------------
    print(f"\nregistered backends: {', '.join(api.backend_names())}")
    for name in api.backend_names():
        b = api.create(name, num_vertices=64)
        b.insert_edges([1, 2, 3], [2, 3, 1])
        caps = b.instance_capabilities()
        tags = ",".join(k for k, v in caps.flags().items() if v) or "-"
        print(f"  {name:10s} |E|={b.num_edges()}  capabilities: {tags}")


if __name__ == "__main__":
    main()
