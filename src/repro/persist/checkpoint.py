"""Atomic graph checkpoints: an NPZ of sorted edge keys + a JSON manifest.

A checkpoint materializes one :class:`repro.api.CSRSnapshot` so recovery
can start from it instead of replaying the whole WAL.  Two files per
checkpoint, both written atomically (tmp file + rename, see
:func:`repro.io.atomic_write`):

- ``ckpt-<seq, 20 digits>.npz`` — the snapshot as ``numpy.savez``
  members: ``keys``, the sorted unique ``(src << 32) | dst`` edge keys
  (int64, :meth:`CSRSnapshot.keys`); ``weights``, one int64 per key, only
  for a weighted graph; and ``num_vertices``.  The bytes are O(E): no
  member spans the vertex-id space, so a shard of a 2^18-vertex service
  stores its own edges and nothing else;
- ``ckpt-<seq, 20 digits>.json`` — the manifest (schema 2): the WAL seq
  the snapshot covers (recovery replays records at or after it), the
  publisher's ``mutation_version`` as provenance, the backend identity,
  edge/vertex counts, a CRC32 of the NPZ bytes, and an environment
  fingerprint.

Loading checks the CRC32, then the keys themselves — a 1-D int64 array,
strictly increasing, every source and destination in
``[0, num_vertices)``, one weight per key.  The snapshot it returns *is*
the keys it was read from, bit-identical to the one written; its
``row_ptr`` is derived on first read, never on load.
Schema 1 (a ``row_ptr`` over all of ``|V|`` plus ``col_idx``) has no
reader: its manifest is refused like any other invalid checkpoint.

The manifest is written *after* the NPZ and is the commit point: a crash
between the two leaves an orphaned NPZ that no manifest references, and
recovery never sees it.  :func:`latest_valid_checkpoint` walks manifests
newest-first and skips any that fail to load — missing or truncated NPZ,
CRC mismatch, malformed keys, unparseable JSON, an older schema — so
deleting or corrupting the newest checkpoint merely falls back to the
previous one (plus a longer WAL replay).
"""

from __future__ import annotations

import json
import platform
import zlib
from dataclasses import dataclass, fields
from io import BytesIO
from pathlib import Path

import numpy as np

from repro.api.snapshot import CSRSnapshot
from repro.io import atomic_write
from repro.util.errors import ValidationError

__all__ = [
    "CheckpointManifest",
    "write_checkpoint",
    "load_checkpoint",
    "latest_valid_checkpoint",
    "env_fingerprint",
]

MANIFEST_KIND = "repro-graph-checkpoint"
SCHEMA_VERSION = 2
_PREFIX = "ckpt-"


def env_fingerprint() -> dict:
    """The environment identity stamped into manifests and store files."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def _read_identity(path, kind: str, schema: int, required=(), expected=None) -> dict:
    """Parse one of the JSON identity documents the durable layers write
    (checkpoint manifest, ``store.json``, ``shards.json``, scenario
    progress), or raise :class:`ValidationError` naming the file and —
    where one is at fault — the field.

    The document must be an object of this ``kind`` and ``schema`` holding
    every ``required`` key; each non-None value in ``expected`` must equal
    the recorded one — persisted bytes are never silently reinterpreted
    under a different identity ("recovering" a different graph).
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
        raise ValidationError(f"unreadable {kind} file {path}: {exc}")
    if not isinstance(doc, dict) or doc.get("kind") != kind:
        raise ValidationError(f"{path} is not a {kind} file")
    if doc.get("schema_version") != schema:
        raise ValidationError(
            f"{path} has schema {doc.get('schema_version')}, this reader supports {schema}"
        )
    expected = expected or {}
    missing = [k for k in (*required, *expected) if k not in doc]
    if missing:
        raise ValidationError(f"{path} is missing fields {missing}")
    for key, value in expected.items():
        if value is not None and doc[key] != value:
            raise ValidationError(
                f"{path} records {key}={doc[key]!r} but {key}={value!r} was requested — "
                "it cannot be reinterpreted under a different identity"
            )
    return doc


def _write_identity(path, kind: str, schema: int, body: dict) -> dict:
    """Atomically write (and return) the document :func:`_read_identity`
    reads back: ``kind`` and ``schema_version`` first, then ``body``."""
    doc = {"kind": kind, "schema_version": schema, **body}
    with atomic_write(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return doc


@dataclass(frozen=True)
class CheckpointManifest:
    """Parsed manifest of one checkpoint (see module docstring)."""

    path: Path
    seq: int
    mutation_version: int | None
    backend: str
    weighted: bool
    num_vertices: int
    num_edges: int
    npz: str
    crc32: int
    environment: dict

    @property
    def npz_path(self) -> Path:
        return self.path.with_name(self.npz)


#: The manifest's keys: every field but the file's own location.
_MANIFEST_FIELDS = tuple(f.name for f in fields(CheckpointManifest) if f.name != "path")


def checkpoint_manifests(directory) -> list:
    """Manifest paths in a checkpoint directory, oldest first."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return sorted(
        p for p in directory.iterdir() if p.name.startswith(_PREFIX) and p.name.endswith(".json")
    )


def write_checkpoint(
    directory,
    snap: CSRSnapshot,
    *,
    seq: int,
    backend: str,
    weighted: bool,
    mutation_version: int | None = None,
) -> CheckpointManifest:
    """Persist ``snap`` as the checkpoint covering WAL seqs below ``seq``.

    The NPZ is serialized in memory first so its CRC32 covers exactly the
    bytes on disk; the manifest rename is the commit point.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    stem = f"{_PREFIX}{int(seq):020d}"
    payload = {"keys": snap.keys(), "num_vertices": np.int64(snap.num_vertices)}
    if snap.weights is not None:
        payload["weights"] = snap.weights
    buf = BytesIO()
    np.savez(buf, **payload)
    blob = buf.getvalue()
    with atomic_write(directory / f"{stem}.npz", "wb") as fh:
        fh.write(blob)
    manifest = {
        "seq": int(seq),
        "mutation_version": None if mutation_version is None else int(mutation_version),
        "backend": str(backend),
        "weighted": bool(weighted),
        "num_vertices": int(snap.num_vertices),
        "num_edges": int(snap.num_edges),
        "npz": f"{stem}.npz",
        "crc32": zlib.crc32(blob),
        "environment": env_fingerprint(),
    }
    path = directory / f"{stem}.json"
    _write_identity(path, MANIFEST_KIND, SCHEMA_VERSION, manifest)
    return CheckpointManifest(path=path, **{k: manifest[k] for k in _MANIFEST_FIELDS})


def load_checkpoint(manifest_path) -> tuple:
    """``(CSRSnapshot, CheckpointManifest)`` for one manifest, verifying
    the NPZ's CRC32 and then its keys.  Raises :class:`ValidationError` on any integrity
    failure (callers treat that checkpoint as nonexistent)."""
    manifest_path = Path(manifest_path)
    data = _read_identity(manifest_path, MANIFEST_KIND, SCHEMA_VERSION, _MANIFEST_FIELDS)
    manifest = CheckpointManifest(path=manifest_path, **{k: data[k] for k in _MANIFEST_FIELDS})
    try:
        blob = manifest.npz_path.read_bytes()
    except OSError as exc:
        raise ValidationError(f"checkpoint data {manifest.npz} unreadable: {exc}")
    if zlib.crc32(blob) != manifest.crc32:
        raise ValidationError(
            f"checkpoint data {manifest.npz} fails its CRC32 — corrupt or truncated"
        )
    try:
        with np.load(BytesIO(blob)) as arrays:
            keys = arrays["keys"]
            weights = arrays["weights"] if "weights" in arrays else None
            num_vertices = int(arrays["num_vertices"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ValidationError(f"checkpoint data {manifest.npz} undecodable: {exc}")
    if num_vertices != manifest.num_vertices or num_vertices < 0:
        raise ValidationError(
            f"checkpoint {manifest.npz} holds {num_vertices} vertices, "
            f"manifest claims {manifest.num_vertices}"
        )
    snap = _snapshot_from_keys(keys, weights, num_vertices, manifest.npz)
    if snap.num_edges != manifest.num_edges:
        raise ValidationError(
            f"checkpoint {manifest.npz} holds {snap.num_edges} edges, "
            f"manifest claims {manifest.num_edges}"
        )
    return snap, manifest


def _snapshot_from_keys(keys, weights, num_vertices: int, name: str) -> CSRSnapshot:
    """The :class:`CSRSnapshot` whose :meth:`~CSRSnapshot.keys` are
    ``keys``, or :class:`ValidationError` when the arrays cannot be one."""
    if keys.ndim != 1 or keys.dtype != np.int64:
        raise ValidationError(f"checkpoint {name}: keys must be a 1-D int64 array")
    if keys.size > 1 and not bool(np.all(keys[1:] > keys[:-1])):
        raise ValidationError(f"checkpoint {name}: keys are not strictly increasing")
    if weights is not None and weights.shape != keys.shape:
        raise ValidationError(
            f"checkpoint {name} holds {weights.shape} weights for {keys.shape[0]} keys"
        )
    snap = CSRSnapshot(keys, weights, num_vertices)
    # Sorted keys put the smallest source first and the largest last.
    if keys.size and (
        keys[0] < 0 or keys[-1] >> 32 >= num_vertices or snap.col_idx.max() >= num_vertices
    ):
        raise ValidationError(
            f"checkpoint {name} holds an edge endpoint outside [0, {num_vertices})"
        )
    return snap


def latest_valid_checkpoint(directory, *, min_seq: int = 0):
    """The newest loadable checkpoint with ``seq >= min_seq``, as
    ``(CSRSnapshot, CheckpointManifest)``; None when no checkpoint
    qualifies.  Invalid checkpoints (corrupt, truncated, deleted NPZ) are
    skipped, not fatal — recovery falls back to an older one.

    ``min_seq`` is the WAL's oldest on-disk seq: a checkpoint older than
    that could not have its tail replayed, so it cannot anchor recovery.
    """
    for manifest_path in reversed(checkpoint_manifests(directory)):
        try:
            snap, manifest = load_checkpoint(manifest_path)
        except ValidationError:
            continue
        if manifest.seq < min_seq:
            continue
        return snap, manifest
    return None
