"""Segmented append-only write-ahead log for graph events.

The durable half of the event-log contract: every normalized
:class:`~repro.eventlog.EdgeBatch` / :class:`~repro.eventlog.StructuralEvent`
a :class:`repro.api.Graph` publishes is framed as one length- and
CRC32-checked record and appended to a segment file.  Recovery replays
the records through the facade (:func:`repro.persist.store.apply_event`),
so a crash loses at most the tail the fsync policy allowed in flight.

On-disk format (all integers little-endian):

- **segment** ``seg-<first_seq, 20 digits>.wal``: a 16-byte header
  (``b"WSEG"``, format version, first record seq) followed by records.
  The writer rotates to a new segment once the current one exceeds
  ``segment_bytes`` — always at a record boundary, and the new segment's
  name/header seq equals the previous segment's end, so contiguity is
  checkable without reading ahead;
- **record**: ``b"WREC"`` + payload length (uint32) + CRC32 of the
  payload (uint32) + payload.  The payload re-stamps the event with its
  *durable* sequence number (the in-memory log restarts at 0 after every
  recovery; the WAL seq is monotone across process lifetimes) and keeps
  the publisher's before/after ``mutation_version`` as provenance.

A torn tail — short header, short payload, CRC mismatch, or a seq
discontinuity — marks the end of trustworthy history: :func:`scan_wal`
stops there, and everything after (including later segments, whose
prefix is now unanchored) is reported for :func:`repair_wal` to discard.

Durability knobs (``fsync=``): ``"always"`` fsyncs after every record
(each applied batch survives a crash), ``"batch"`` fsyncs on
:meth:`WalWriter.flush` / rotation / close (the default: checkpoints and
explicit syncs are durable, the OS flushes the rest), ``"never"`` leaves
flushing entirely to the OS (benchmarks, tests).
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.coo import COO
from repro.eventlog.events import EdgeBatch, StructuralEvent
from repro.util.errors import PersistError, ValidationError

__all__ = [
    "WalWriter",
    "LogFollower",
    "scan_wal",
    "repair_wal",
    "list_segments",
    "DEFAULT_SEGMENT_BYTES",
]

RECORD_MAGIC = b"WREC"
SEGMENT_MAGIC = b"WSEG"
SEGMENT_VERSION = 1

#: Segment header: magic, format version, seq of the first record.
SEGMENT_HEADER = struct.Struct("<4sIq")
#: Record header: magic, payload byte length, CRC32 of the payload.
RECORD_HEADER = struct.Struct("<4sII")

FSYNC_POLICIES = ("always", "batch", "never")
DEFAULT_SEGMENT_BYTES = 4 << 20

_KIND_EDGE_BATCH = 1
_KIND_STRUCTURAL = 2

_PAYLOAD_NONE = 0
_PAYLOAD_VERTEX_IDS = 1
_PAYLOAD_COO = 2

_FLAG_VERSIONED = 1
_FLAG_INSERT = 2
_FLAG_WEIGHTED = 4

# Common payload prefix: kind, durable seq, before/after version, flags.
_COMMON = struct.Struct("<BqqqB")
_EDGE_EXTRA = struct.Struct("<qq")  # retention rows, array length
_STRUCT_EXTRA = struct.Struct("<H")  # reason byte length
_VIDS_EXTRA = struct.Struct("<q")  # vertex-id array length
_COO_EXTRA = struct.Struct("<qqB")  # num_vertices, array length, has_weights


# ---------------------------------------------------------------------------
# Record framing
# ---------------------------------------------------------------------------


def _i64_bytes(arr) -> bytes:
    return np.ascontiguousarray(arr, dtype=np.int64).tobytes()


def _read_i64(buf: bytes, off: int, n: int):
    if n < 0 or off + 8 * n > len(buf):
        raise ValidationError("array extends past the record payload")
    return np.frombuffer(buf, dtype="<i8", count=n, offset=off).copy(), off + 8 * n


def encode_record(event, seq: int) -> bytes:
    """Frame one event as a complete WAL record (header + payload),
    re-stamped with its durable sequence number ``seq``."""
    payload = _encode_payload(event, int(seq))
    return RECORD_HEADER.pack(RECORD_MAGIC, len(payload), zlib.crc32(payload)) + payload


def _encode_payload(event, seq: int) -> bytes:
    flags, before, after = 0, 0, 0
    if event.before_version is not None and event.after_version is not None:
        flags = _FLAG_VERSIONED
        before, after = int(event.before_version), int(event.after_version)
    if isinstance(event, EdgeBatch):
        if event.is_insert:
            flags |= _FLAG_INSERT
        if event.weights is not None:
            flags |= _FLAG_WEIGHTED
        parts = [
            _COMMON.pack(_KIND_EDGE_BATCH, seq, before, after, flags),
            _EDGE_EXTRA.pack(int(event.rows), int(event.src.shape[0])),
            _i64_bytes(event.src),
            _i64_bytes(event.dst),
        ]
        if event.weights is not None:
            parts.append(_i64_bytes(event.weights))
        return b"".join(parts)
    if isinstance(event, StructuralEvent):
        reason = event.reason.encode("utf-8")
        parts = [
            _COMMON.pack(_KIND_STRUCTURAL, seq, before, after, flags),
            _STRUCT_EXTRA.pack(len(reason)),
            reason,
        ]
        payload = event.payload
        if payload is None:
            parts.append(bytes([_PAYLOAD_NONE]))
        elif isinstance(payload, COO):
            parts.append(bytes([_PAYLOAD_COO]))
            parts.append(
                _COO_EXTRA.pack(
                    int(payload.num_vertices),
                    int(payload.src.shape[0]),
                    0 if payload.weights is None else 1,
                )
            )
            parts.append(_i64_bytes(payload.src))
            parts.append(_i64_bytes(payload.dst))
            if payload.weights is not None:
                parts.append(_i64_bytes(payload.weights))
        else:
            vids = np.ascontiguousarray(payload, dtype=np.int64)
            if vids.ndim != 1:
                raise ValidationError(
                    f"structural payload of {event.reason!r} must be a 1-D "
                    "vertex-id array or a COO to be WAL-encodable"
                )
            parts.append(bytes([_PAYLOAD_VERTEX_IDS]))
            parts.append(_VIDS_EXTRA.pack(int(vids.shape[0])))
            parts.append(vids.tobytes())
        return b"".join(parts)
    raise ValidationError(f"cannot WAL-encode event of type {type(event).__name__}")


def _decode_payload(buf: bytes):
    kind, seq, before, after, flags = _COMMON.unpack_from(buf, 0)
    off = _COMMON.size
    versioned = bool(flags & _FLAG_VERSIONED)
    bv = before if versioned else None
    av = after if versioned else None
    if kind == _KIND_EDGE_BATCH:
        rows, n = _EDGE_EXTRA.unpack_from(buf, off)
        off += _EDGE_EXTRA.size
        src, off = _read_i64(buf, off, n)
        dst, off = _read_i64(buf, off, n)
        weights = None
        if flags & _FLAG_WEIGHTED:
            weights, off = _read_i64(buf, off, n)
        _check_consumed(buf, off)
        return EdgeBatch(
            seq=seq,
            before_version=bv,
            after_version=av,
            is_insert=bool(flags & _FLAG_INSERT),
            src=src,
            dst=dst,
            weights=weights,
            rows=int(rows),
        )
    if kind == _KIND_STRUCTURAL:
        (rlen,) = _STRUCT_EXTRA.unpack_from(buf, off)
        off += _STRUCT_EXTRA.size
        if off + rlen + 1 > len(buf):
            raise ValidationError("structural reason extends past the payload")
        reason = buf[off : off + rlen].decode("utf-8")
        off += rlen
        pkind = buf[off]
        off += 1
        if pkind == _PAYLOAD_NONE:
            payload = None
        elif pkind == _PAYLOAD_VERTEX_IDS:
            (n,) = _VIDS_EXTRA.unpack_from(buf, off)
            off += _VIDS_EXTRA.size
            payload, off = _read_i64(buf, off, n)
        elif pkind == _PAYLOAD_COO:
            nv, n, has_w = _COO_EXTRA.unpack_from(buf, off)
            off += _COO_EXTRA.size
            src, off = _read_i64(buf, off, n)
            dst, off = _read_i64(buf, off, n)
            w = None
            if has_w:
                w, off = _read_i64(buf, off, n)
            payload = COO(src, dst, int(nv), weights=w)
        else:
            raise ValidationError(f"unknown structural payload kind {pkind}")
        _check_consumed(buf, off)
        return StructuralEvent(
            seq=seq, before_version=bv, after_version=av, reason=reason, payload=payload
        )
    raise ValidationError(f"unknown WAL record kind {kind}")


def _check_consumed(buf: bytes, off: int) -> None:
    if off != len(buf):
        raise ValidationError(f"record payload has {len(buf) - off} trailing bytes")


def _try_record(data: bytes, offset: int, expected_seq: int):
    """``(event, end_offset, None)`` for a valid record at ``offset``, or
    ``(None, offset, why)`` when the bytes there are torn or corrupt."""
    body = offset + RECORD_HEADER.size
    if body > len(data):
        return None, offset, f"truncated record header ({len(data) - offset} bytes)"
    magic, length, crc = RECORD_HEADER.unpack_from(data, offset)
    if magic != RECORD_MAGIC:
        return None, offset, "bad record magic"
    if body + length > len(data):
        return None, offset, f"truncated payload ({len(data) - body} of {length} bytes)"
    payload = data[body : body + length]
    if zlib.crc32(payload) != crc:
        return None, offset, "payload CRC mismatch"
    try:
        event = _decode_payload(payload)
    except (ValidationError, struct.error, UnicodeDecodeError) as exc:
        return None, offset, f"undecodable payload: {exc}"
    if event.seq != expected_seq:
        return None, offset, f"seq discontinuity (record {event.seq}, expected {expected_seq})"
    return event, body + length, None


# ---------------------------------------------------------------------------
# Scanning and repair
# ---------------------------------------------------------------------------


def list_segments(directory) -> list:
    """Segment files of a WAL directory in seq order (names sort)."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return sorted(
        p for p in directory.iterdir() if p.name.startswith("seg-") and p.name.endswith(".wal")
    )


def _segment_first_seq(path: Path) -> int:
    return int(path.name[len("seg-") : -len(".wal")])


def _parse_segment_header(data: bytes):
    if len(data) < SEGMENT_HEADER.size:
        return None, "truncated segment header"
    magic, version, first_seq = SEGMENT_HEADER.unpack_from(data, 0)
    if magic != SEGMENT_MAGIC:
        return None, "bad segment magic"
    if version != SEGMENT_VERSION:
        return None, f"unsupported segment version {version}"
    return int(first_seq), None


@dataclass
class WalScan:
    """Everything :func:`scan_wal` learned about a WAL directory."""

    #: Decoded events of the valid prefix, in seq order.
    events: list = field(default_factory=list)
    #: Seq the next appended record must get (end of valid history).
    next_seq: int = 0
    #: Seq of the oldest record on disk (0 when the WAL is empty).
    start_seq: int = 0
    #: Segment holding the end of valid history (None when empty).
    tail_path: Path | None = None
    #: Valid byte length of ``tail_path`` (bytes past it are torn).
    tail_offset: int = 0
    #: True when trailing bytes or whole segments must be discarded.
    torn: bool = False
    #: Human-readable reason the scan stopped early.
    torn_detail: str | None = None
    #: Segments contributing valid records, in order.
    segments: list = field(default_factory=list)
    #: Segments wholly past the corruption point (untrustworthy history).
    dropped: list = field(default_factory=list)


def scan_wal(directory) -> WalScan:
    """Read a WAL directory's valid prefix; never modifies any file.

    Stops at the first torn or corrupt record (a partially flushed tail
    after a crash, a flipped bit) or at a segment whose header does not
    continue the previous segment's seq range.  Everything after the stop
    point — including later segments — is reported in ``dropped``: a gap
    makes any suffix unanchored history that replay must not trust.
    """
    scan = WalScan()
    segments = list_segments(directory)
    expected: int | None = None
    for i, seg in enumerate(segments):
        data = seg.read_bytes()
        first_seq, why = _parse_segment_header(data)
        if first_seq is None or (expected is not None and first_seq != expected):
            if first_seq is not None:
                why = f"starts at seq {first_seq}, expected {expected}"
            scan.torn = True
            scan.torn_detail = f"{seg.name}: {why}"
            scan.dropped = list(segments[i:])
            break
        if expected is None:
            expected = first_seq
            scan.start_seq = first_seq
        scan.segments.append(seg)
        scan.tail_path = seg
        offset = SEGMENT_HEADER.size
        stopped = False
        while offset < len(data):
            event, offset, why = _try_record(data, offset, expected)
            if event is None:
                scan.torn = True
                scan.torn_detail = f"{seg.name}@{offset}: {why}"
                stopped = True
                break
            scan.events.append(event)
            expected += 1
        scan.tail_offset = offset
        if stopped:
            scan.dropped = list(segments[i + 1 :])
            break
    scan.next_seq = expected if expected is not None else 0
    return scan


def repair_wal(scan: WalScan) -> bool:
    """Make the on-disk WAL match ``scan``'s valid prefix: truncate the
    torn tail bytes and unlink dropped segments.  Writer-side only — a
    read-only follower must never modify another process's log.  Returns
    True when anything changed."""
    changed = False
    if scan.tail_path is not None and scan.tail_path.stat().st_size > scan.tail_offset:
        with open(scan.tail_path, "r+b") as fh:
            fh.truncate(scan.tail_offset)
        changed = True
    for seg in scan.dropped:
        if seg.exists():
            seg.unlink()
            changed = True
    return changed


# ---------------------------------------------------------------------------
# Writer
# ---------------------------------------------------------------------------


def _fsync_file(fh) -> None:
    """Durably sync ``fh``: its own ``fsync()`` when it has one (the
    chaos-injection seam), else ``os.fsync`` on the descriptor."""
    sync = getattr(fh, "fsync", None)
    if callable(sync):
        sync()
    else:
        os.fsync(fh.fileno())


def _check_writer_options(fsync: str, segment_bytes: int) -> None:
    """Validate :class:`WalWriter`'s knobs; callers that create files
    before the writer exists check them first."""
    if fsync not in FSYNC_POLICIES:
        raise ValidationError(f"fsync must be one of {FSYNC_POLICIES}, got {fsync!r}")
    if segment_bytes <= SEGMENT_HEADER.size:
        raise ValidationError("segment_bytes must exceed the segment header size")


class WalWriter:
    """Appends framed events to segment files (see module docstring).

    Bound to a graph's event log by :class:`repro.persist.store.DurableGraph`,
    which counts the appends that fail.  Single-writer: the store layer
    assumes one process owns a WAL directory at a time.
    """

    def __init__(
        self,
        directory,
        *,
        start_seq: int = 0,
        fsync: str = "batch",
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        opener=open,
    ) -> None:
        _check_writer_options(fsync, segment_bytes)
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.segment_bytes = int(segment_bytes)
        #: File opener (``callable(path, mode) -> file``) — the fault
        #: seam chaos testing injects through (``FaultyStore.opener``).
        self._opener = opener
        #: Durable seq the next appended record will get.
        self.next_seq = int(start_seq)
        #: True when a failed append could not be cleaned up and the tail
        #: segment may hold a partial record (see :class:`PersistError`).
        self.broken = False
        self.records_written = 0
        self.rows_written = 0
        self._fh = None
        self._segment_size = 0
        existing = list_segments(self.directory)
        if existing:
            # Resume appending into the (already repaired) tail segment.
            tail = existing[-1]
            try:
                self._fh = self._opener(tail, "ab")
            except OSError as exc:
                raise PersistError(
                    f"cannot reopen WAL tail segment {tail.name}: {exc}", op="open"
                ) from exc
            self._segment_size = tail.stat().st_size

    # -- appending ---------------------------------------------------------------

    def append(self, event) -> int:
        """Frame and append one event; returns its durable seq.

        Failure contract: an :class:`OSError` from the write or fsync is
        wrapped in a typed :class:`PersistError`, the record's durable
        seq is *not* consumed, and any partially-written bytes are
        truncated away so the on-disk log stays ``scan_wal``-clean.
        Only when that truncation itself fails does the writer mark
        itself :attr:`broken` (``PersistError.broken`` is True) and
        refuse further appends — the on-disk tail then needs
        :func:`repair_wal` before reuse.
        """
        if self.broken:
            raise PersistError(
                "WAL writer is broken (an earlier fault could not be "
                "cleaned up); repair the log and construct a new writer",
                op="write",
                broken=True,
            )
        record = encode_record(event, self.next_seq)
        if self._fh is None or (
            self._segment_size > SEGMENT_HEADER.size
            and self._segment_size + len(record) > self.segment_bytes
        ):
            self._open_segment()
        start = self._segment_size
        try:
            self._fh.write(record)
            self._segment_size += len(record)
            if self.fsync == "always":
                self._fh.flush()
                _fsync_file(self._fh)
        except OSError as exc:
            self._rewind_tail(start, exc)  # always raises PersistError
        self.records_written += 1
        if isinstance(event, EdgeBatch):
            self.rows_written += event.rows
        seq = self.next_seq
        self.next_seq += 1
        return seq

    def _rewind_tail(self, start: int, exc: OSError) -> None:
        """Restore a scan-clean tail after a failed write/fsync, then
        raise the typed :class:`PersistError` describing the fault."""
        op = "fsync" if self._segment_size > start else "write"
        try:
            # truncate() flushes earlier buffered records first, then
            # cuts the file back to exactly the end of the last complete
            # record — discarding the partial (or unsynced) one.  The
            # seek matters: truncation does not move the position, and
            # writing past it would leave a zero-filled hole the scanner
            # would read as a torn record.
            self._fh.truncate(start)
            self._fh.seek(start)
            self._segment_size = start
        except OSError as trunc_exc:
            self.broken = True
            fh, self._fh = self._fh, None
            try:
                fh.close()
            except OSError:
                pass
            raise PersistError(
                f"WAL append failed ({exc}) and the torn tail could not "
                f"be truncated ({trunc_exc}); the log needs repair_wal()",
                op=op,
                broken=True,
            ) from exc
        raise PersistError(
            f"WAL append failed; the partial record was truncated away "
            f"and the log is still clean: {exc}",
            op=op,
        ) from exc

    def _open_segment(self) -> None:
        if self._fh is not None:
            self.flush()
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None
        path = self.directory / f"seg-{self.next_seq:020d}.wal"
        try:
            fh = self._opener(path, "wb")
        except OSError as exc:
            raise PersistError(
                f"cannot open WAL segment {path.name}: {exc}", op="open"
            ) from exc
        try:
            fh.write(SEGMENT_HEADER.pack(SEGMENT_MAGIC, SEGMENT_VERSION, self.next_seq))
            if self.fsync != "never":
                fh.flush()
                _fsync_file(fh)
        except OSError as exc:
            try:
                fh.close()
            except OSError:
                pass
            try:
                path.unlink()  # a partial header is not a valid segment
            except OSError:
                pass
            raise PersistError(
                f"cannot write WAL segment header {path.name}: {exc}", op="open"
            ) from exc
        self._fh = fh
        self._segment_size = SEGMENT_HEADER.size

    # -- durability --------------------------------------------------------------

    def flush(self) -> None:
        """Push buffered records to the OS (and to disk unless
        ``fsync="never"``).

        A no-op on a closed or broken writer — safe to call during
        teardown after a failed append.  A real flush/fsync failure on a
        live handle raises :class:`PersistError` (``op="fsync"``).
        """
        if self._fh is None:
            return
        try:
            self._fh.flush()
            if self.fsync != "never":
                _fsync_file(self._fh)
        except OSError as exc:
            raise PersistError(f"WAL flush failed: {exc}", op="fsync") from exc

    def close(self) -> None:
        """Flush (best-effort) and close the tail segment; an append
        after this opens a fresh one (what a failed shard rebuild relies on).

        Idempotent and exception-free: teardown after a fault must not
        raise a second confusing error from a broken handle — a flush or
        close failure here is swallowed (the append that caused it
        already surfaced a typed :class:`PersistError`).
        """
        fh, self._fh = self._fh, None
        if fh is None:
            return
        try:
            fh.flush()
            if self.fsync != "never":
                _fsync_file(fh)
        except OSError:
            pass
        try:
            fh.close()
        except OSError:
            pass

    def __enter__(self) -> "WalWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Follower
# ---------------------------------------------------------------------------


class LogFollower:
    """Incremental reader of a WAL directory another process writes.

    Each :meth:`poll` decodes the records appended since the last poll
    and returns those with seq >= ``start_seq``.  A partial record at the
    tail is *normal* (the writer may be mid-append) — the follower simply
    stops there and retries on the next poll; it never modifies files.
    Rotation is followed by name: a finished segment's successor is
    exactly ``seg-<next_seq>.wal``.
    """

    def __init__(self, directory, *, start_seq: int = 0) -> None:
        self.directory = Path(directory)
        self.start_seq = int(start_seq)
        #: Seq of the next record to decode (records below ``start_seq``
        #: are decoded for position but not returned).
        self.next_seq = 0
        self._segment: Path | None = None
        self._offset = 0
        self._started = False

    def poll(self) -> list:
        """All newly complete events with seq >= ``start_seq``."""
        out: list = []
        while True:
            if self._segment is None:
                candidate = (
                    self.directory / f"seg-{self.next_seq:020d}.wal"
                    if self._started
                    else self._initial_segment()
                )
                if candidate is None or not candidate.exists():
                    return out
                first_seq, _why = _parse_segment_header(candidate.read_bytes())
                if first_seq is None:
                    return out  # header not fully on disk yet — retry later
                if self._started and first_seq != self.next_seq:
                    raise ValidationError(
                        f"WAL segment {candidate.name} starts at seq {first_seq}, "
                        f"expected {self.next_seq} — the log was rewritten "
                        "underneath this follower"
                    )
                if not self._started:
                    self.next_seq = first_seq
                    self._started = True
                self._segment = candidate
                self._offset = SEGMENT_HEADER.size
            data = self._segment.read_bytes()
            while self._offset < len(data):
                event, end, _why = _try_record(data, self._offset, self.next_seq)
                if event is None:
                    break  # torn tail — the writer will complete it
                self._offset = end
                if self.next_seq >= self.start_seq:
                    out.append(event)
                self.next_seq += 1
            successor = self.directory / f"seg-{self.next_seq:020d}.wal"
            if successor.exists() and successor != self._segment:
                self._segment = None  # writer rotated past this segment
                continue
            return out

    def _initial_segment(self) -> Path | None:
        """The latest segment that can contain ``start_seq`` (or the
        earliest one, when ``start_seq`` predates the whole log)."""
        best = None
        for seg in list_segments(self.directory):
            if best is None or _segment_first_seq(seg) <= self.start_seq:
                best = seg
        return best
