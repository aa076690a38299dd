"""Graph I/O: MatrixMarket and NPZ snapshots.

The paper's datasets come from SuiteSparse (MatrixMarket ``.mtx``); a
downstream user of this library needs to load that format and to
checkpoint dynamic graphs.  Two formats:

- :func:`read_matrix_market` / :func:`write_matrix_market` — the
  ``coordinate`` subset of MatrixMarket (pattern / integer / real values;
  ``general`` and ``symmetric`` symmetry), 1-based indices per the spec;
- :func:`save_npz` / :func:`load_npz` — lossless binary COO snapshots.

Text paths ending in ``.gz`` are read and written through gzip
transparently (SuiteSparse distributes datasets gzipped), so
``read_matrix_market("road.mtx.gz")`` works without a manual decompress.

All readers return :class:`repro.coo.COO`; weights are stored as int64
(real-valued MatrixMarket entries are rounded — this library's edge values
are 32-bit words, Section II-A footnote 1).
"""

from __future__ import annotations

import gzip
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.coo import COO
from repro.util.errors import ValidationError

__all__ = [
    "atomic_write",
    "read_matrix_market",
    "write_matrix_market",
    "save_npz",
    "load_npz",
]


@contextmanager
def atomic_write(path, mode: str = "wb", *, fsync: bool = True):
    """Write ``path`` atomically: a sibling tmp file + ``os.replace``.

    The file handle yielded writes to ``<path>.tmp.<pid>``; only after the
    body completes is the tmp file (optionally fsynced and) renamed over
    the destination, so readers never observe a truncated file — an
    interrupted writer leaves the previous version intact.  On any
    exception the tmp file is removed and the destination untouched.
    ``.gz`` paths are gzip-compressed transparently in text modes (same
    convention as the readers below).
    """
    path = str(path)
    tmp = f"{path}.tmp.{os.getpid()}"
    if path.endswith(".gz") and "b" not in mode:
        fh = gzip.open(tmp, mode + "t")
    else:
        fh = open(tmp, mode)
    try:
        yield fh
        fh.flush()
        if fsync:
            os.fsync(fh.fileno())
    except BaseException:
        fh.close()
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    fh.close()
    os.replace(tmp, path)


def _open_text(path_or_file, mode: str):
    """Open a path as text, transparently decompressing/compressing
    ``.gz`` files (SuiteSparse distributes gzipped dumps);
    already-open file objects pass through unowned."""
    if isinstance(path_or_file, (str, Path)):
        if str(path_or_file).endswith(".gz"):
            return gzip.open(path_or_file, mode + "t"), True
        return open(path_or_file, mode), True
    return path_or_file, False


@contextmanager
def _text_sink(path_or_file):
    """Yield a writable text handle: paths write through
    :func:`atomic_write` (readers never see a truncated file), already-open
    file objects pass through unowned."""
    if isinstance(path_or_file, (str, Path)):
        with atomic_write(path_or_file, "w") as fh:
            yield fh
    else:
        yield path_or_file


# ---------------------------------------------------------------------------
# MatrixMarket
# ---------------------------------------------------------------------------


def read_matrix_market(path_or_file) -> COO:
    """Read a MatrixMarket coordinate file into a COO.

    Supports ``pattern`` (unweighted), ``integer``, and ``real`` fields and
    ``general`` / ``symmetric`` symmetry (symmetric entries are mirrored,
    diagonal not duplicated).  Square and rectangular matrices both map to
    a vertex-id space of ``max(rows, cols)``.
    """
    fh, owned = _open_text(path_or_file, "r")
    try:
        header = fh.readline()
        if not header.startswith("%%MatrixMarket"):
            raise ValidationError("not a MatrixMarket file (missing %%MatrixMarket)")
        parts = header.strip().split()
        if len(parts) < 5 or parts[1] != "matrix" or parts[2] != "coordinate":
            raise ValidationError(f"unsupported MatrixMarket header: {header.strip()}")
        field, symmetry = parts[3], parts[4]
        if field not in ("pattern", "integer", "real"):
            raise ValidationError(f"unsupported field type {field!r}")
        if symmetry not in ("general", "symmetric"):
            raise ValidationError(f"unsupported symmetry {symmetry!r}")

        line = fh.readline()
        while line.startswith("%"):
            line = fh.readline()
        rows, cols, nnz = (int(x) for x in line.split())

        data = np.loadtxt(fh, ndmin=2) if nnz else np.empty((0, 2))
        if data.shape[0] != nnz:
            raise ValidationError(f"expected {nnz} entries, found {data.shape[0]}")
        src = data[:, 0].astype(np.int64) - 1
        dst = data[:, 1].astype(np.int64) - 1
        if field == "pattern":
            weights = None
        else:
            weights = np.round(data[:, 2]).astype(np.int64) if data.shape[1] > 2 else None
        n = max(rows, cols)
        coo = COO(src, dst, n, weights=weights)
        if symmetry == "symmetric":
            off_diag = src != dst
            coo = COO(
                np.concatenate([src, dst[off_diag]]),
                np.concatenate([dst, src[off_diag]]),
                n,
                weights=None
                if weights is None
                else np.concatenate([weights, weights[off_diag]]),
            )
        return coo
    finally:
        if owned:
            fh.close()


def write_matrix_market(path_or_file, coo: COO, comment: str | None = None) -> None:
    """Write a COO as a ``general`` MatrixMarket coordinate file
    (atomically when given a path — see :func:`atomic_write`)."""
    field = "pattern" if coo.weights is None else "integer"
    with _text_sink(path_or_file) as fh:
        fh.write(f"%%MatrixMarket matrix coordinate {field} general\n")
        if comment:
            for line in comment.splitlines():
                fh.write(f"% {line}\n")
        fh.write(f"{coo.num_vertices} {coo.num_vertices} {coo.num_edges}\n")
        if coo.weights is None:
            for s, d in zip(coo.src.tolist(), coo.dst.tolist()):
                fh.write(f"{s + 1} {d + 1}\n")
        else:
            for s, d, w in zip(coo.src.tolist(), coo.dst.tolist(), coo.weights.tolist()):
                fh.write(f"{s + 1} {d + 1} {w}\n")


# ---------------------------------------------------------------------------
# Binary snapshots
# ---------------------------------------------------------------------------


def save_npz(path, coo: COO) -> None:
    """Lossless binary COO snapshot (``numpy.savez_compressed``).

    Written atomically: ``savez`` streams into a tmp file that is renamed
    over ``path`` only once complete, so an interrupted save can never
    leave a truncated archive behind.
    """
    payload = {"src": coo.src, "dst": coo.dst, "num_vertices": np.int64(coo.num_vertices)}
    if coo.weights is not None:
        payload["weights"] = coo.weights
    path = str(path)
    if not path.endswith(".npz"):
        path += ".npz"  # savez appends it; replace must target the real name
    with atomic_write(path, "wb") as fh:
        np.savez_compressed(fh, **payload)


def load_npz(path) -> COO:
    """Load a :func:`save_npz` snapshot."""
    with np.load(path) as data:
        return COO(
            data["src"],
            data["dst"],
            int(data["num_vertices"]),
            weights=data["weights"] if "weights" in data else None,
        )
