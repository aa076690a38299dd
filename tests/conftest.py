"""Shared fixtures and reference models for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.gpusim.counters import get_counters


def pytest_configure(config):
    """Register the repo's custom markers (no pytest.ini to hold them)."""
    config.addinivalue_line(
        "markers",
        "chaos: fault-injection / failover tests (CI runs them as their own "
        "lane via `pytest -m chaos`; they also run in the default suite)",
    )
    config.addinivalue_line(
        "markers",
        "slow: full-size runner / example runs (deselect with `-m 'not slow'`)",
    )


@pytest.fixture(autouse=True)
def _fresh_counters():
    """Isolate the global kernel counters per test."""
    get_counters().reset()
    yield
    get_counters().reset()


@pytest.fixture
def rng():
    return np.random.default_rng(0xD1CE)


class DictGraph:
    """Plain dict-of-dicts reference model for any directed edge structure.

    Implements the paper's semantics exactly: no self loops, replace
    semantics (last weight wins), exact counts.
    """

    def __init__(self):
        self.adj: dict[int, dict[int, int]] = {}

    def insert(self, src, dst, weights=None):
        added = 0
        ws = weights if weights is not None else [0] * len(src)
        srcs, dsts = np.asarray(src).tolist(), np.asarray(dst).tolist()
        for s, d, w in zip(srcs, dsts, np.asarray(ws).tolist()):
            if s == d:
                continue
            row = self.adj.setdefault(s, {})
            if d not in row:
                added += 1
            row[d] = w
        return added

    def delete(self, src, dst):
        removed = 0
        for s, d in zip(np.asarray(src).tolist(), np.asarray(dst).tolist()):
            row = self.adj.get(s)
            if row is not None and d in row:
                del row[d]
                removed += 1
        return removed

    def delete_vertex_undirected(self, vids):
        vids = set(np.asarray(vids).tolist())
        removed = 0
        for v in vids:
            removed += len(self.adj.pop(v, {}))
        for row in self.adj.values():
            for v in vids:
                if v in row:
                    del row[v]
                    removed += 1
        return removed

    def edges(self):
        return {(s, d): w for s, row in self.adj.items() for d, w in row.items()}

    def edge_set(self):
        return set(self.edges().keys())

    def num_edges(self):
        return sum(len(r) for r in self.adj.values())

    def degree(self, v):
        return len(self.adj.get(v, {}))


@pytest.fixture
def dict_graph():
    return DictGraph()


def structure_state(g) -> dict[tuple[int, int], int]:
    """Extract {(src, dst): weight} from any structure with export_coo."""
    coo = g.export_coo()
    ws = coo.weights if coo.weights is not None else np.zeros(coo.num_edges, np.int64)
    return {
        (int(s), int(d)): int(w)
        for s, d, w in zip(coo.src.tolist(), coo.dst.tolist(), ws.tolist())
    }


def structure_edges(g) -> set[tuple[int, int]]:
    return set(structure_state(g).keys())
