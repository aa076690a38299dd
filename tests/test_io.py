"""Tests for graph I/O (MatrixMarket, NPZ snapshots)."""

import io

import numpy as np
import pytest

from repro.coo import COO
from repro.io import (
    load_npz,
    read_matrix_market,
    save_npz,
    write_matrix_market,
)
from repro.util.errors import ValidationError


def pairs(coo):
    return sorted(zip(coo.src.tolist(), coo.dst.tolist()))


class TestMatrixMarket:
    def test_roundtrip_weighted(self, tmp_path):
        coo = COO([0, 1, 4], [2, 0, 3], num_vertices=5, weights=[7, 8, 9])
        path = tmp_path / "g.mtx"
        write_matrix_market(path, coo, comment="test graph")
        back = read_matrix_market(path)
        assert pairs(back) == pairs(coo)
        assert back.weights.tolist() == [7, 8, 9]
        assert back.num_vertices == 5

    def test_roundtrip_pattern(self, tmp_path):
        coo = COO([0, 1], [1, 0], num_vertices=3)
        path = tmp_path / "p.mtx"
        write_matrix_market(path, coo)
        back = read_matrix_market(path)
        assert back.weights is None
        assert pairs(back) == pairs(coo)

    def test_symmetric_mirroring(self):
        text = (
            "%%MatrixMarket matrix coordinate pattern symmetric\n"
            "% comment\n"
            "3 3 3\n"
            "2 1\n"
            "3 1\n"
            "2 2\n"
        )
        coo = read_matrix_market(io.StringIO(text))
        # Off-diagonal entries mirrored; the diagonal one is not.
        assert pairs(coo) == [(0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]

    def test_real_field_rounded(self):
        text = (
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 1\n"
            "1 2 3.7\n"
        )
        coo = read_matrix_market(io.StringIO(text))
        assert coo.weights.tolist() == [4]

    def test_bad_header(self):
        with pytest.raises(ValidationError):
            read_matrix_market(io.StringIO("not a header\n1 1 0\n"))

    def test_unsupported_symmetry(self):
        with pytest.raises(ValidationError):
            read_matrix_market(
                io.StringIO("%%MatrixMarket matrix coordinate real skew-symmetric\n1 1 0\n")
            )


class TestNpz:
    def test_roundtrip_weighted(self, tmp_path, rng):
        coo = COO(
            rng.integers(0, 50, 200),
            rng.integers(0, 50, 200),
            50,
            weights=rng.integers(0, 9, 200),
        )
        path = tmp_path / "snap.npz"
        save_npz(path, coo)
        back = load_npz(path)
        assert np.array_equal(back.src, coo.src)
        assert np.array_equal(back.dst, coo.dst)
        assert np.array_equal(back.weights, coo.weights)
        assert back.num_vertices == 50

    def test_roundtrip_unweighted(self, tmp_path):
        coo = COO([0], [1], num_vertices=4)
        path = tmp_path / "snap.npz"
        save_npz(path, coo)
        assert load_npz(path).weights is None

    def test_graph_checkpoint_cycle(self, tmp_path, rng):
        """Full cycle: dynamic graph -> snapshot -> disk -> rebuild."""
        from repro.core import DynamicGraph

        g = DynamicGraph(40)
        g.insert_edges(rng.integers(0, 40, 300), rng.integers(0, 40, 300), rng.integers(0, 9, 300))
        path = tmp_path / "ckpt.npz"
        save_npz(path, g.export_coo())
        g2 = DynamicGraph(40)
        g2.bulk_build(load_npz(path))
        a, b = g.export_coo(), g2.export_coo()
        assert sorted(zip(a.src.tolist(), a.dst.tolist(), a.weights.tolist())) == sorted(
            zip(b.src.tolist(), b.dst.tolist(), b.weights.tolist())
        )


class TestGzip:
    """``.gz`` paths are read and written through gzip transparently."""

    def test_matrix_market_roundtrip_gz(self, tmp_path):
        coo = COO([0, 1, 4], [2, 0, 3], num_vertices=5, weights=[7, 8, 9])
        path = tmp_path / "g.mtx.gz"
        write_matrix_market(path, coo, comment="gzipped")
        import gzip

        with gzip.open(path, "rb") as fh:  # really compressed, not renamed
            assert fh.read(2) == b"%%"
        back = read_matrix_market(path)
        assert pairs(back) == pairs(coo)
        assert back.weights.tolist() == [7, 8, 9]

    def test_gz_reads_plain_gzip_file(self, tmp_path):
        """A .gz written by something else (not our writer) also reads."""
        import gzip

        path = tmp_path / "snap.mtx.gz"
        with gzip.open(path, "wt") as fh:
            fh.write("%%MatrixMarket matrix coordinate integer general\n% c\n3 3 2\n1 2 4\n2 3 5\n")
        back = read_matrix_market(path)
        assert pairs(back) == [(0, 1), (1, 2)]

    def test_plain_paths_unaffected(self, tmp_path):
        coo = COO([0], [1], num_vertices=2)
        path = tmp_path / "plain.mtx"
        write_matrix_market(path, coo)
        assert path.read_text().startswith("%%MatrixMarket")  # not gzipped
        assert pairs(read_matrix_market(path)) == [(0, 1)]


class TestAtomicWrite:
    def test_success_leaves_no_tmp_file(self, tmp_path):
        from repro.io import atomic_write

        target = tmp_path / "out.txt"
        with atomic_write(target, "w", fsync=False) as fh:
            fh.write("hello")
        assert target.read_text() == "hello"
        assert list(tmp_path.iterdir()) == [target]

    def test_failure_keeps_previous_version_and_removes_tmp(self, tmp_path):
        from repro.io import atomic_write

        target = tmp_path / "out.txt"
        target.write_text("previous")
        with pytest.raises(RuntimeError, match="boom"):
            with atomic_write(target, "w", fsync=False) as fh:
                fh.write("partial garbage")
                raise RuntimeError("boom")
        assert target.read_text() == "previous"  # destination untouched
        assert list(tmp_path.iterdir()) == [target]  # tmp cleaned up

    def test_save_npz_appends_suffix_atomically(self, tmp_path):
        coo = COO([0, 1], [1, 2], 4)
        save_npz(tmp_path / "snap", coo)  # no .npz suffix
        back = load_npz(tmp_path / "snap.npz")
        assert pairs(back) == pairs(coo)
        assert {p.name for p in tmp_path.iterdir()} == {"snap.npz"}
