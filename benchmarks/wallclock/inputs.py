"""Seeded input generators and the frozen workload sizes.

The load lives here, not in ``repro.datasets``, so a later change to the
program cannot change what the benchmark feeds it.  Every workload's inputs
are plain NumPy arrays derived only from ``(workload, size, seed)``; the
program under test never sees the seed.  ``test_wallclock_smoke.py`` pins a
digest of the seed-0 inputs of every workload.
"""

from __future__ import annotations

import hashlib

import numpy as np

WORKLOADS = ("ingest-cold", "ingest-skew", "churn", "phase", "service")

#: Frozen sizes.  ``full`` is what BENCHMARK.json measures (sized so one
#: repetition takes about a second on the 2-core reference host and several
#: fit in a run); ``tiny`` is the smoke-test size, labelled in every result
#: and refused by ``--compare``.
SIZES = {
    "full": {
        "ingest-cold": {"log2_vertices": 18, "batches": 1024, "rows": 512},
        "ingest-skew": {"scale": 16, "batches": 160, "rows": 2048},
        "churn": {
            "scale": 15,
            "edge_factor": 8,
            "rounds": 96,
            "rows": 2048,
            "query_rows": 4096,
            "adjacency_rows": 64,
            "vertex_delete_every": 16,
            "vertex_delete_rows": 32,
            "maintenance_every": 48,
        },
        "phase": {
            "log2_vertices": 13,
            "mean_degree": 16,
            "phases": 26,
            "rows": 512,
            "delete_every": 13,
            "delete_rows": 128,
        },
        "service": {
            "log2_vertices": 18,
            "shards": 4,
            "warmup_batches": 16,
            "batches": 80,
            "rows": 1024,
            "snapshot_every": 8,
            "checkpoint_every": 32,
            "recoveries": 4,
        },
    },
    "tiny": {
        "ingest-cold": {"log2_vertices": 12, "batches": 24, "rows": 64},
        "ingest-skew": {"scale": 10, "batches": 12, "rows": 256},
        "churn": {
            "scale": 9,
            "edge_factor": 8,
            "rounds": 8,
            "rows": 128,
            "query_rows": 256,
            "adjacency_rows": 8,
            "vertex_delete_every": 4,
            "vertex_delete_rows": 4,
            "maintenance_every": 4,
        },
        "phase": {
            "log2_vertices": 9,
            "mean_degree": 8,
            "phases": 6,
            "rows": 32,
            "delete_every": 3,
            "delete_rows": 8,
        },
        "service": {
            "log2_vertices": 12,
            "shards": 4,
            "warmup_batches": 2,
            "batches": 12,
            "rows": 64,
            "snapshot_every": 4,
            "checkpoint_every": 8,
            "recoveries": 4,
        },
    },
}


def pack(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Composite ``(src << 32) | dst`` key — the oracle's edge identity."""
    return (src.astype(np.int64) << np.int64(32)) | dst.astype(np.int64)


def unpack(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`pack`."""
    return keys >> np.int64(32), keys & np.int64(0xFFFFFFFF)


def _no_self_loops(src, dst, num_vertices):
    loops = src == dst
    dst[loops] = (dst[loops] + 1) % num_vertices
    return src, dst


def uniform_edges(rng, num_vertices: int, rows: int):
    """``rows`` directed pairs with independent uniform endpoints."""
    src = rng.integers(0, num_vertices, size=rows, dtype=np.int64)
    dst = rng.integers(0, num_vertices, size=rows, dtype=np.int64)
    return _no_self_loops(src, dst, num_vertices)


def rmat_edges(rng, scale: int, rows: int, a: float = 0.57, b: float = 0.19, c: float = 0.19):
    """R-MAT pairs over ``2**scale`` vertices (Graph500 quadrant recursion)."""
    src = np.zeros(rows, dtype=np.int64)
    dst = np.zeros(rows, dtype=np.int64)
    for _ in range(scale):
        quadrant = rng.random(rows)
        src = (src << 1) | (quadrant >= a + b)
        dst = (dst << 1) | (((quadrant >= a) & (quadrant < a + b)) | (quadrant >= a + b + c))
    return _no_self_loops(src, dst, 1 << scale)


def _chung_lu_cdf(num_vertices: int, exponent: float) -> np.ndarray:
    weights = (np.arange(num_vertices, dtype=np.float64) + 1.0) ** (-1.0 / (exponent - 1.0))
    cdf = np.cumsum(weights)
    return cdf / cdf[-1]


def chung_lu_edges(rng, cdf: np.ndarray, undirected_edges: int):
    """Power-law pairs (endpoint ∝ expected degree), both orientations.

    Returns ``2 * undirected_edges`` directed rows: the first half and its
    mirror, so vertex 0 is the hub and the stored graph is symmetric.
    """
    n = cdf.shape[0]
    u = np.minimum(np.searchsorted(cdf, rng.random(undirected_edges)), n - 1).astype(np.int64)
    v = np.minimum(np.searchsorted(cdf, rng.random(undirected_edges)), n - 1).astype(np.int64)
    u, v = _no_self_loops(u, v, n)
    return np.concatenate([u, v]), np.concatenate([v, u])


def _rng(workload: str, seed: int):
    return np.random.default_rng([int(seed), WORKLOADS.index(workload)])


def _ingest_cold(p, rng):
    n = 1 << p["log2_vertices"]
    src, dst = uniform_edges(rng, n, p["batches"] * p["rows"])
    shape = (p["batches"], p["rows"])
    return {"num_vertices": n, "src": src.reshape(shape), "dst": dst.reshape(shape)}


def _ingest_skew(p, rng):
    src, dst = rmat_edges(rng, p["scale"], p["batches"] * p["rows"])
    shape = (p["batches"], p["rows"])
    return {"num_vertices": 1 << p["scale"], "src": src.reshape(shape), "dst": dst.reshape(shape)}


def _unique_edges(src, dst):
    keys = np.unique(pack(src, dst))
    return unpack(keys) + (keys,)


def _positions_of(sorted_keys, needles):
    """Indices into ``sorted_keys`` of the needles that occur in it."""
    pos = np.minimum(np.searchsorted(sorted_keys, needles), sorted_keys.shape[0] - 1)
    return pos[sorted_keys[pos] == needles]


def _churn(p, rng):
    n = 1 << p["scale"]
    base = rmat_edges(rng, p["scale"], n * p["edge_factor"])
    base_src, base_dst, base_keys = _unique_edges(*base)
    # ``alive`` tracks base edges nothing has removed yet, so "present"
    # query and delete rows are present by construction at their round.
    alive = np.ones(base_keys.shape[0], dtype=bool)
    half = p["rows"] // 2
    half_q = p["query_rows"] // 2
    rounds = []
    for r in range(p["rounds"]):
        ins_src, ins_dst = rmat_edges(rng, p["scale"], p["rows"])
        present = rng.choice(np.flatnonzero(alive), size=half_q, replace=False)
        miss_src, miss_dst = uniform_edges(rng, n, half_q)
        doomed = rng.choice(np.flatnonzero(alive), size=half, replace=False)
        gone_src, gone_dst = uniform_edges(rng, n, p["rows"] - half)
        del_src = np.concatenate([base_src[doomed], gone_src])
        del_dst = np.concatenate([base_dst[doomed], gone_dst])
        alive[doomed] = False
        alive[_positions_of(base_keys, pack(gone_src, gone_dst))] = False
        step = {
            "ins_src": ins_src,
            "ins_dst": ins_dst,
            "q_src": np.concatenate([base_src[present], miss_src]),
            "q_dst": np.concatenate([base_dst[present], miss_dst]),
            "q_known_present": half_q,
            "deg_v": rng.integers(0, n, size=p["query_rows"], dtype=np.int64),
            "adj_v": rng.integers(0, n, size=p["adjacency_rows"], dtype=np.int64),
            "del_src": del_src,
            "del_dst": del_dst,
            "vdel": None,
            "maintain": (r + 1) % p["maintenance_every"] == 0,
        }
        if (r + 1) % p["vertex_delete_every"] == 0:
            vids = rng.choice(n, size=p["vertex_delete_rows"], replace=False).astype(np.int64)
            alive &= ~(np.isin(base_src, vids) | np.isin(base_dst, vids))
            step["vdel"] = vids
        rounds.append(step)
    return {"num_vertices": n, "base_src": base_src, "base_dst": base_dst, "rounds": rounds}


def _phase(p, rng):
    n = 1 << p["log2_vertices"]
    cdf = _chung_lu_cdf(n, exponent=2.5)
    base = chung_lu_edges(rng, cdf, n * p["mean_degree"] // 2)
    base_src, base_dst, base_keys = _unique_edges(*base)
    alive = np.ones(base_keys.shape[0], dtype=bool)
    phases = []
    for r in range(p["phases"]):
        ins_src, ins_dst = chung_lu_edges(rng, cdf, p["rows"] // 2)
        step = {"ins_src": ins_src, "ins_dst": ins_dst, "del_src": None, "del_dst": None}
        if (r + 1) % p["delete_every"] == 0:
            # Present undirected edges: pick alive (u < v) rows, delete both
            # orientations, and retire the mirrors as well.
            forward = np.flatnonzero(alive & (base_src < base_dst))
            doomed = rng.choice(forward, size=p["delete_rows"] // 2, replace=False)
            u, v = base_src[doomed], base_dst[doomed]
            alive[doomed] = False
            alive[np.searchsorted(base_keys, pack(v, u))] = False
            step["del_src"] = np.concatenate([u, v])
            step["del_dst"] = np.concatenate([v, u])
        phases.append(step)
    return {"num_vertices": n, "base_src": base_src, "base_dst": base_dst, "phases": phases}


def _service(p, rng):
    n = 1 << p["log2_vertices"]
    total = p["warmup_batches"] + p["batches"] + 1  # +1: the unacknowledged tail batch
    src, dst = uniform_edges(rng, n, total * p["rows"])
    shape = (total, p["rows"])
    src, dst = src.reshape(shape), dst.reshape(shape)
    half = p["rows"] // 2
    miss_src, miss_dst = uniform_edges(rng, n, total * (p["rows"] - half))
    miss_src = miss_src.reshape(total, -1)
    miss_dst = miss_dst.reshape(total, -1)
    # Half of each query group is rows of the batch just acknowledged
    # (present by construction), half uniform pairs (almost surely absent).
    q_src = np.concatenate([src[:, :half], miss_src], axis=1)
    q_dst = np.concatenate([dst[:, :half], miss_dst], axis=1)
    deg_v = rng.integers(0, n, size=shape, dtype=np.int64)
    return {
        "num_vertices": n,
        "src": src,
        "dst": dst,
        "q_src": q_src,
        "q_dst": q_dst,
        "q_known_present": half,
        "deg_v": deg_v,
    }


_BUILDERS = {
    "ingest-cold": _ingest_cold,
    "ingest-skew": _ingest_skew,
    "churn": _churn,
    "phase": _phase,
    "service": _service,
}


def make_inputs(workload: str, size: str, seed: int) -> dict:
    """All inputs of one workload: the same arguments give the same arrays."""
    params = SIZES[size][workload]
    inputs = _BUILDERS[workload](params, _rng(workload, seed))
    inputs["params"] = dict(params)
    return inputs


def _feed(digest, value) -> None:
    if isinstance(value, np.ndarray):
        digest.update(str((value.dtype.str, value.shape)).encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, dict):
        for key in sorted(value):
            digest.update(key.encode())
            _feed(digest, value[key])
    elif isinstance(value, (list, tuple)):
        for item in value:
            _feed(digest, item)
    else:
        digest.update(repr(value).encode())


def inputs_digest(inputs: dict) -> str:
    """SHA-256 over every array and parameter of a workload's inputs."""
    digest = hashlib.sha256()
    _feed(digest, inputs)
    return digest.hexdigest()
