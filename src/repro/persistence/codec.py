"""Versioned, deterministic serialization of engine state and log records.

Everything the durability subsystem puts on disk goes through this module:
the write-ahead log (:mod:`repro.persistence.wal`), the checkpoint files
(:mod:`repro.persistence.checkpoint`) and the shard state moved across
process boundaries all speak the same encoded form, so there is exactly one
serialization of a query, a document, a result heap or a full engine
snapshot.

The physical format is CRC-framed JSON lines:

* one *record* is one line: an 8-hex-digit CRC-32 of the payload, a space,
  the payload as canonical JSON, a newline;
* canonical JSON means sorted keys, no whitespace, ``NaN``/``Infinity``
  rejected — encoding the same state twice yields identical bytes;
* floats survive exactly: :func:`json.dumps` emits ``repr(float)``, the
  shortest string that round-trips to the same IEEE-754 double, so a
  decoded snapshot restores scores, thresholds and decay origins
  bit-for-bit.

Sparse vectors are encoded as parallel term/weight arrays in the vector's
own iteration order (scoring accumulates in that order, and float addition
is not associative); result stores are encoded as query-id-sorted
``[query_id, state]`` pairs.  :data:`CODEC_VERSION` is embedded in every
snapshot and every WAL record envelope; decoding rejects versions it does
not understand instead of misreading them.
"""

from __future__ import annotations

import importlib
import json
import struct
import sys
import zlib
from array import array
from itertools import islice
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.results import BatchUpdate, ResultEntry, ResultUpdate
from repro.documents.document import Document
from repro.exceptions import CorruptRecordError, PersistenceError
from repro.queries.query import Query

#: Version stamped into snapshots and WAL record envelopes.
CODEC_VERSION = 1

#: WAL record kinds (the event types recovery knows how to replay).
KIND_DOCUMENT = "doc"
KIND_BATCH = "batch"
KIND_REGISTER = "register"
KIND_UNREGISTER = "unregister"
KIND_RENORMALIZE = "renorm"

RECORD_KINDS = (
    KIND_DOCUMENT,
    KIND_BATCH,
    KIND_REGISTER,
    KIND_UNREGISTER,
    KIND_RENORMALIZE,
)


# ---------------------------------------------------------------------- #
# Canonical JSON + CRC framing
# ---------------------------------------------------------------------- #


def canonical_dumps(obj: object) -> str:
    """Serialize to canonical JSON: sorted keys, no whitespace, no NaN."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def pack_line(obj: object) -> bytes:
    """Frame one object as a CRC-checked JSON line (the on-disk record unit)."""
    payload = canonical_dumps(obj).encode("utf-8")
    return b"%08x " % (zlib.crc32(payload) & 0xFFFFFFFF,) + payload + b"\n"


def unpack_line(line: bytes) -> object:
    """Parse and CRC-verify one framed line; raises :class:`CorruptRecordError`.

    A truncated, bit-flipped or garbage line raises — the WAL reader treats
    that as a torn tail when (and only when) it occurs at the end of the
    last segment.
    """
    if len(line) < 10 or line[8:9] != b" ":
        raise CorruptRecordError("malformed record framing")
    try:
        expected = int(line[:8], 16)
    except ValueError as exc:
        raise CorruptRecordError("malformed record CRC field") from exc
    payload = line[9:]
    if payload.endswith(b"\n"):
        payload = payload[:-1]
    else:
        # A record without its newline was cut mid-write.
        raise CorruptRecordError("record is missing its terminating newline")
    if zlib.crc32(payload) & 0xFFFFFFFF != expected:
        raise CorruptRecordError("record CRC mismatch")
    try:
        return json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptRecordError("record payload is not valid JSON") from exc


# ---------------------------------------------------------------------- #
# Vectors, documents, queries
# ---------------------------------------------------------------------- #


# Sparse vectors are encoded as two parallel flat arrays ("t": term ids,
# "w": weights) in the vector's own iteration order.  Flat arrays serialize
# measurably faster than nested pairs (the document encode is on the hot
# ingestion path), and preserving iteration order is load-bearing: scoring
# accumulates ``sum(w_q * w_d)`` in iteration order and float addition is
# not associative, so a reordered vector could score a future document one
# ulp away from the original.  Values must be plain ints/floats (the
# library's own vectors always are); exotic numeric types fail loudly in
# ``json.dumps``.


def _decode_vector(terms: Sequence[int], weights: Sequence[float]) -> Dict[int, float]:
    return {int(term): float(weight) for term, weight in zip(terms, weights)}


def encode_document(document: Document) -> Dict[str, object]:
    """One document as a JSON-able dict (text kept when present)."""
    encoded: Dict[str, object] = {
        "i": document.doc_id,
        "a": document.arrival_time,
        "t": list(document.vector.keys()),
        "w": list(document.vector.values()),
    }
    if document.text is not None:
        encoded["x"] = document.text
    return encoded


def decode_document(encoded: Dict[str, object]) -> Document:
    arrival = encoded["a"]
    return Document(
        doc_id=int(encoded["i"]),  # type: ignore[arg-type]
        vector=_decode_vector(encoded["t"], encoded["w"]),  # type: ignore[arg-type]
        arrival_time=None if arrival is None else float(arrival),  # type: ignore[arg-type]
        text=encoded.get("x"),  # type: ignore[arg-type]
    )


def encode_query(query: Query) -> Dict[str, object]:
    """One continuous query as a JSON-able dict."""
    encoded: Dict[str, object] = {
        "i": query.query_id,
        "k": query.k,
        "t": list(query.vector.keys()),
        "w": list(query.vector.values()),
    }
    if query.user is not None:
        encoded["u"] = query.user
    return encoded


def decode_query(encoded: Dict[str, object]) -> Query:
    # Trusted construction: every encoded query was validated and
    # normalized when first registered, so decoding skips re-validation
    # (a WAL replay or checkpoint restore would otherwise re-walk every
    # vector just to re-prove normalization).
    return Query.trusted(
        query_id=int(encoded["i"]),  # type: ignore[arg-type]
        vector=_decode_vector(encoded["t"], encoded["w"]),  # type: ignore[arg-type]
        k=int(encoded["k"]),  # type: ignore[arg-type]
        user=encoded.get("u"),  # type: ignore[arg-type]
    )


# ---------------------------------------------------------------------- #
# Engine snapshots
# ---------------------------------------------------------------------- #


def _encode_result(state: Dict[str, object]) -> Dict[str, object]:
    heap = state["heap"]
    return {
        "k": int(state["k"]),  # type: ignore[arg-type]
        "heap": [[float(score), int(doc_id)] for score, doc_id in heap],  # type: ignore[union-attr]
    }


def _encode_expiration(state: Dict[str, object]) -> Dict[str, object]:
    return {
        "horizon": float(state["horizon"]),  # type: ignore[arg-type]
        "live": [encode_document(doc) for doc in state["live"]],  # type: ignore[union-attr]
    }


def _decode_expiration(encoded: Dict[str, object]) -> Dict[str, object]:
    return {
        "horizon": float(encoded["horizon"]),  # type: ignore[arg-type]
        "live": [decode_document(doc) for doc in encoded["live"]],  # type: ignore[union-attr]
    }


def encode_monitor_state(state: Dict[str, object]) -> Dict[str, object]:
    """Encode a monitor/engine snapshot dict (the PR-2 ``snapshot()`` shape).

    Accepts the capture of :meth:`ContinuousMonitor.snapshot` /
    :meth:`StreamAlgorithm.snapshot` — queries, per-query result heaps,
    decay, counters, stream clock, plus the live expiration window when
    present — and returns plain JSON-able data.  Queries and results are
    sorted by query id so the encoding is deterministic.
    """
    queries: List[Query] = state["queries"]  # type: ignore[assignment]
    results: Dict[int, Dict[str, object]] = state["results"]  # type: ignore[assignment]
    encoded: Dict[str, object] = {
        "version": CODEC_VERSION,
        "algorithm": state.get("algorithm"),
        "queries": [
            encode_query(query) for query in sorted(queries, key=lambda q: q.query_id)
        ],
        "results": [
            [int(query_id), _encode_result(result_state)]
            for query_id, result_state in sorted(results.items())
        ],
        "decay": dict(state["decay"]),  # type: ignore[arg-type]
        "counters": dict(state["counters"]),  # type: ignore[arg-type]
        "last_arrival": state["last_arrival"],
    }
    if "expiration" in state:
        encoded["expiration"] = _encode_expiration(state["expiration"])  # type: ignore[arg-type]
    if "structures" in state:
        # Algorithm-specific structure capture; already plain JSON-able by
        # the _snapshot_structures contract, embedded verbatim.
        encoded["structures"] = state["structures"]
    return encoded


def decode_monitor_state(encoded: Dict[str, object]) -> Dict[str, object]:
    """Invert :func:`encode_monitor_state` into a ``restore()``-ready dict."""
    version = encoded.get("version")
    if version != CODEC_VERSION:
        raise PersistenceError(
            f"snapshot codec version {version!r} is not supported "
            f"(this build reads version {CODEC_VERSION})"
        )
    state: Dict[str, object] = {
        "algorithm": encoded.get("algorithm"),
        "queries": [decode_query(query) for query in encoded["queries"]],  # type: ignore[union-attr]
        "results": {
            int(query_id): {
                "k": int(result_state["k"]),
                "heap": [(float(score), int(doc_id)) for score, doc_id in result_state["heap"]],
            }
            for query_id, result_state in encoded["results"]  # type: ignore[union-attr]
        },
        "decay": {key: float(value) for key, value in encoded["decay"].items()},  # type: ignore[union-attr]
        "counters": dict(encoded["counters"]),  # type: ignore[arg-type]
        "last_arrival": encoded["last_arrival"],
    }
    if "expiration" in encoded:
        state["expiration"] = _decode_expiration(encoded["expiration"])  # type: ignore[arg-type]
    if "structures" in encoded:
        state["structures"] = encoded["structures"]
    return state


# ---------------------------------------------------------------------- #
# WAL record payloads
# ---------------------------------------------------------------------- #


def document_record(document: Document) -> Tuple[str, Dict[str, object]]:
    """A WAL record for one per-event arrival."""
    return KIND_DOCUMENT, {"doc": encode_document(document)}


def batch_record(documents: Sequence[Document]) -> Tuple[str, Dict[str, object]]:
    """A WAL record for one arrival-ordered ingestion batch."""
    return KIND_BATCH, {"docs": [encode_document(doc) for doc in documents]}


def register_record(
    query: Query, shard: Optional[int] = None
) -> Tuple[str, Dict[str, object]]:
    """A WAL record for a query registration (``shard`` = routed owner)."""
    data: Dict[str, object] = {"query": encode_query(query)}
    if shard is not None:
        data["shard"] = int(shard)
    return KIND_REGISTER, data


def unregister_record(
    query_id: int, shard: Optional[int] = None
) -> Tuple[str, Dict[str, object]]:
    """A WAL record for a query unregistration."""
    data: Dict[str, object] = {"query_id": int(query_id)}
    if shard is not None:
        data["shard"] = int(shard)
    return KIND_UNREGISTER, data


def renormalize_record(new_origin: float) -> Tuple[str, Dict[str, object]]:
    """A WAL record for an *explicit* decay rebase through the facade API.

    Renormalizations triggered implicitly while processing a document are
    deterministic consequences of the event sequence and are regenerated by
    replay; only direct ``renormalize()`` calls need their own record.
    """
    return KIND_RENORMALIZE, {"origin": float(new_origin)}


# ---------------------------------------------------------------------- #
# Wire frames (worker pipes, shared-memory slots)
# ---------------------------------------------------------------------- #
#
# The process-resident shard executor speaks this codec on its worker
# pipes instead of pickle, so the bytes crossing a process boundary are
# the same family the WAL and the checkpoints store.  One *frame* is:
#
#   [u32 header length] [header: one pack_line record] [padding] [tail]
#
# The header is exactly a WAL line — CRC-framed canonical JSON — and the
# optional *tail* carries bulk numeric sections (document batches, result
# updates) as packed little-endian int64/float64 arrays that the receiver
# reads zero-copy through ``memoryview.cast``.  The padding aligns the
# tail to 8 bytes so those casts never copy.  Values inside a header are
# encoded by :func:`encode_value`: plain JSON scalars pass through, and
# containers / library objects are wrapped in small tag dicts, so one
# encoder covers the whole worker command surface.

#: Tail sections are 8-byte aligned (int64/float64 elements).
_FRAME_ALIGN = 8

_FRAME_LEN = struct.Struct(">I")


class TailWriter:
    """Accumulates the binary tail of one frame; every block stays 8-aligned."""

    __slots__ = ("_chunks", "_size")

    def __init__(self) -> None:
        self._chunks: List[bytes] = []
        self._size = 0

    def add(self, data: bytes) -> int:
        """Append one block; returns its offset from the start of the tail."""
        offset = self._size
        self._chunks.append(data)
        self._size += len(data)
        if self._size % _FRAME_ALIGN:
            pad = _FRAME_ALIGN - self._size % _FRAME_ALIGN
            self._chunks.append(b"\x00" * pad)
            self._size += pad
        return offset

    @property
    def size(self) -> int:
        return self._size

    def take(self) -> bytes:
        return b"".join(self._chunks)


def pack_frame(header: object, tail: bytes = b"") -> bytes:
    """Frame ``header`` (+ optional binary tail) as one length-prefixed record."""
    line = pack_line(header)
    pad = -(_FRAME_LEN.size + len(line)) % _FRAME_ALIGN
    return b"".join((_FRAME_LEN.pack(len(line) + pad), line, b" " * pad, tail))


def unpack_frame(data: Union[bytes, memoryview]) -> Tuple[object, memoryview]:
    """Split one frame into its decoded header and a zero-copy tail view."""
    view = memoryview(data)
    if len(view) < _FRAME_LEN.size:
        raise CorruptRecordError("frame is shorter than its length prefix")
    (header_len,) = _FRAME_LEN.unpack(view[: _FRAME_LEN.size])
    end = _FRAME_LEN.size + header_len
    if len(view) < end:
        raise CorruptRecordError("frame is shorter than its declared header")
    header = unpack_line(bytes(view[_FRAME_LEN.size : end]).rstrip(b" "))
    return header, view[end:]


# ---------------------------------------------------------------------- #
# Tagged value encoding (the worker command/reply surface)
# ---------------------------------------------------------------------- #
#
# Scalars (None/bool/int/float/str) are themselves.  Everything else is a
# ``{"_": tag, ...}`` dict; a *plain* dict is tagged too, so any dict the
# decoder sees is a tag.  Lists of the hot result types are diverted into
# binary tail sections when a :class:`TailWriter` is supplied.

_INT64 = "q"
_FLOAT64 = "d"


def _pack_array(typecode: str, values) -> bytes:
    return array(typecode, values).tobytes()


def _cast(tail: memoryview, offset: int, count: int, typecode: str) -> memoryview:
    return tail[offset : offset + 8 * count].cast(typecode)


def _encode_result_updates(updates: Sequence[ResultUpdate], tail: TailWriter) -> Dict[str, object]:
    qids = array(_INT64)
    docs = array(_INT64)
    scores = array(_FLOAT64)
    evicted = array(_INT64)
    for update in updates:
        qids.append(update[0])
        docs.append(update[1])
        scores.append(update[2])
        evicted.append(-1 if update[3] is None else update[3])
    offset = tail.add(qids.tobytes())
    tail.add(docs.tobytes())
    tail.add(scores.tobytes())
    tail.add(evicted.tobytes())
    return {"_": "rus", "o": offset, "n": len(updates)}


def _decode_result_updates(encoded: Dict[str, object], tail: memoryview) -> List[ResultUpdate]:
    offset = encoded["o"]
    n = encoded["n"]
    # .tolist() converts each packed section at C speed; per-element
    # memoryview indexing would dominate the decode otherwise.
    qids = _cast(tail, offset, n, _INT64).tolist()
    docs = _cast(tail, offset + 8 * n, n, _INT64).tolist()
    scores = _cast(tail, offset + 16 * n, n, _FLOAT64).tolist()
    evicted = _cast(tail, offset + 24 * n, n, _INT64).tolist()
    new = tuple.__new__
    update_cls = ResultUpdate
    return [
        new(update_cls, (qids[i], docs[i], scores[i], None if evicted[i] < 0 else evicted[i]))
        for i in range(n)
    ]


def _encode_batch_updates(updates: Sequence[BatchUpdate], tail: TailWriter) -> Dict[str, object]:
    qids = array(_INT64, [u[0] for u in updates])
    entry_counts = array(_INT64, [len(u[1]) for u in updates])
    entry_docs = array(_INT64, [e[0] for u in updates for e in u[1]])
    entry_scores = array(_FLOAT64, [e[1] for u in updates for e in u[1]])
    evict_counts = array(_INT64, [len(u[2]) for u in updates])
    evict_docs = array(_INT64, [d for u in updates for d in u[2]])
    offset = tail.add(qids.tobytes())
    tail.add(entry_counts.tobytes())
    tail.add(entry_docs.tobytes())
    tail.add(entry_scores.tobytes())
    tail.add(evict_counts.tobytes())
    tail.add(evict_docs.tobytes())
    return {
        "_": "bus",
        "o": offset,
        "n": len(updates),
        "e": len(entry_docs),
        "v": len(evict_docs),
    }


def _aligned(size: int) -> int:
    return size + (-size % _FRAME_ALIGN)


def _decode_batch_updates(encoded: Dict[str, object], tail: memoryview) -> List[BatchUpdate]:
    offset = encoded["o"]
    n = encoded["n"]
    total_entries = encoded["e"]
    total_evicted = encoded["v"]
    qids = _cast(tail, offset, n, _INT64).tolist()
    offset += _aligned(8 * n)
    entry_counts = _cast(tail, offset, n, _INT64).tolist()
    offset += _aligned(8 * n)
    entry_docs = _cast(tail, offset, total_entries, _INT64).tolist()
    offset += _aligned(8 * total_entries)
    entry_scores = _cast(tail, offset, total_entries, _FLOAT64).tolist()
    offset += _aligned(8 * total_entries)
    evict_counts = _cast(tail, offset, n, _INT64).tolist()
    offset += _aligned(8 * n)
    evict_docs = _cast(tail, offset, total_evicted, _INT64).tolist()
    updates: List[BatchUpdate] = []
    append = updates.append
    # ``tuple.__new__(ResultEntry, pair)`` skips the generated NamedTuple
    # ``__new__`` (a Python-level function) — with ~3-4k entries per reply
    # that construction dominates the decode otherwise.  The shared zip /
    # iter sources are carved per-update with islice, avoiding slice
    # copies of the flat sections.
    new = tuple.__new__
    entry_cls = ResultEntry
    update_cls = BatchUpdate
    entry_pairs = zip(entry_docs, entry_scores)
    evict_iter = iter(evict_docs)
    for i in range(n):
        entries = tuple([new(entry_cls, p) for p in islice(entry_pairs, entry_counts[i])])
        evicted = tuple(islice(evict_iter, evict_counts[i]))
        append(new(update_cls, (qids[i], entries, evicted)))
    return updates


def _encode_result_entries(entries: Sequence[ResultEntry], tail: TailWriter) -> Dict[str, object]:
    docs = array(_INT64)
    scores = array(_FLOAT64)
    for entry in entries:
        docs.append(entry[0])
        scores.append(entry[1])
    offset = tail.add(docs.tobytes())
    tail.add(scores.tobytes())
    return {"_": "res", "o": offset, "n": len(entries)}


def _decode_result_entries(encoded: Dict[str, object], tail: memoryview) -> List[ResultEntry]:
    offset = encoded["o"]
    n = encoded["n"]
    docs = _cast(tail, offset, n, _INT64).tolist()
    scores = _cast(tail, offset + _aligned(8 * n), n, _FLOAT64).tolist()
    new = tuple.__new__
    entry_cls = ResultEntry
    return [new(entry_cls, pair) for pair in zip(docs, scores)]


def _encode_exception(exc: BaseException) -> Dict[str, object]:
    cls = type(exc)
    encoded: Dict[str, object] = {
        "_": "x",
        "m": cls.__module__,
        "n": cls.__qualname__,
        "s": str(exc),
    }
    try:
        args = [encode_value(arg) for arg in exc.args]
        canonical_dumps(args)  # probe: every arg must survive the wire
        encoded["a"] = args
    except Exception:  # noqa: BLE001 - unencodable args fall back to str(exc)
        pass
    return encoded


def _decode_exception(encoded: Dict[str, object]) -> BaseException:
    from repro.exceptions import WorkerError

    name = encoded.get("n", "Exception")
    message = encoded.get("s", "")
    target: object = None
    try:
        module = encoded["m"]
        target = sys.modules.get(module) or importlib.import_module(module)
        for part in str(name).split("."):
            target = getattr(target, part)
    except Exception:  # noqa: BLE001 - unresolvable type falls back below
        target = None
    if not (isinstance(target, type) and issubclass(target, BaseException)):
        return WorkerError(f"{name}: {message}")
    args = encoded.get("a")
    if args is not None:
        try:
            return target(*[decode_value(arg) for arg in args])
        except Exception:  # noqa: BLE001 - signature mismatch falls back
            pass
    try:
        return target(message)
    except Exception:  # noqa: BLE001 - constructor needs args we don't have
        return WorkerError(f"{name}: {message}")


def encode_value(value: object, tail: Optional[TailWriter] = None) -> object:
    """Encode one command/reply value for the wire (see the frame docstring).

    With a :class:`TailWriter`, homogeneous lists of the hot result types
    (:class:`ResultUpdate`, :class:`BatchUpdate`, :class:`ResultEntry`)
    become packed binary tail sections — one frame per reply regardless of
    how many updates a batch produced.
    """
    kind = type(value)
    if value is None or kind is bool or kind is int or kind is float or kind is str:
        return value
    if kind is list:
        if value and tail is not None:
            first = type(value[0])
            if first is BatchUpdate and all(type(item) is BatchUpdate for item in value):
                return _encode_batch_updates(value, tail)  # type: ignore[arg-type]
            if first is ResultUpdate and all(type(item) is ResultUpdate for item in value):
                return _encode_result_updates(value, tail)  # type: ignore[arg-type]
            if first is ResultEntry and all(type(item) is ResultEntry for item in value):
                return _encode_result_entries(value, tail)  # type: ignore[arg-type]
        return [encode_value(item, tail) for item in value]
    if kind is ResultEntry:
        return {"_": "re", "v": [value[0], value[1]]}
    if kind is ResultUpdate:
        return {"_": "ru", "v": [value[0], value[1], value[2], value[3]]}
    if kind is BatchUpdate:
        return {
            "_": "bu",
            "v": [
                value[0],
                [[entry[0], entry[1]] for entry in value[1]],
                list(value[2]),
            ],
        }
    if kind is tuple:
        return {"_": "t", "v": [encode_value(item, tail) for item in value]}
    if kind is dict:
        return {
            "_": "d",
            "v": [
                [encode_value(key, tail), encode_value(item, tail)]
                for key, item in value.items()
            ],
        }
    if kind is bytes:
        return {"_": "b", "v": value.decode("latin-1")}
    if kind is Document:
        return {"_": "doc", "v": encode_document(value)}
    if kind is Query:
        return {"_": "qy", "v": encode_query(value)}
    if isinstance(value, BaseException):
        return _encode_exception(value)
    raise PersistenceError(
        f"value of type {kind.__name__} cannot cross the worker pipe"
    )


_EMPTY_TAIL = memoryview(b"")


def decode_value(encoded: object, tail: memoryview = _EMPTY_TAIL) -> object:
    """Invert :func:`encode_value` (``tail`` resolves binary sections)."""
    kind = type(encoded)
    if kind is list:
        return [decode_value(item, tail) for item in encoded]
    if kind is not dict:
        return encoded
    tag = encoded["_"]
    if tag == "bus":
        return _decode_batch_updates(encoded, tail)
    if tag == "rus":
        return _decode_result_updates(encoded, tail)
    if tag == "res":
        return _decode_result_entries(encoded, tail)
    if tag == "d":
        return {
            decode_value(key, tail): decode_value(value, tail)
            for key, value in encoded["v"]
        }
    if tag == "t":
        return tuple(decode_value(item, tail) for item in encoded["v"])
    if tag == "b":
        return encoded["v"].encode("latin-1")
    if tag == "re":
        return ResultEntry(*encoded["v"])
    if tag == "ru":
        return ResultUpdate(*encoded["v"])
    if tag == "bu":
        qid, entries, gone = encoded["v"]
        return BatchUpdate(
            qid,
            tuple(ResultEntry(doc, score) for doc, score in entries),
            tuple(gone),
        )
    if tag == "doc":
        return decode_document(encoded["v"])
    if tag == "qy":
        return decode_query(encoded["v"])
    if tag == "x":
        return _decode_exception(encoded)
    raise CorruptRecordError(f"unknown wire value tag {tag!r}")


# ---------------------------------------------------------------------- #
# Document-batch payload (the zero-copy fan-out unit)
# ---------------------------------------------------------------------- #
#
# One ingestion batch is encoded ONCE into a single frame: a small header
# plus five packed sections — doc ids (int64), arrival times (float64),
# per-document term counts (int64), flattened term ids (int64) and
# flattened weights (float64), each vector's terms in its own iteration
# order (scoring accumulates in that order; see the vector note above).
# The parent writes the frame into the shared-memory ring (or down each
# pipe on the fallback path) and every worker decodes its copy zero-copy
# through memoryview casts.  The header CRC covers only the header line;
# ``crc`` covers the tail, so a slot-reclamation bug that scribbles a
# ring slot is caught before any document reaches an engine.

_DOC_NEW = Document.__new__


def encode_document_batch(documents: Sequence[Document]) -> bytes:
    """One arrival-ordered batch as a single payload frame (encoded once)."""
    if any(document.arrival_time is None for document in documents):
        # Un-streamed documents (no arrival stamp) are rare and never on
        # the hot path; the whole batch falls back to the generic form.
        return pack_frame({"docs": [encode_document(doc) for doc in documents]})
    doc_ids = array(_INT64, [document.doc_id for document in documents])
    arrivals = array(_FLOAT64, [document.arrival_time for document in documents])
    counts = array(_INT64, [len(document.vector) for document in documents])
    terms = array(_INT64)
    weights = array(_FLOAT64)
    for document in documents:
        vector = document.vector
        terms.extend(vector.keys())
        weights.extend(vector.values())
    texts: List[List[object]] = [
        [index, document.text]
        for index, document in enumerate(documents)
        if document.text is not None
    ]
    tail = TailWriter()
    tail.add(doc_ids.tobytes())
    tail.add(arrivals.tobytes())
    tail.add(counts.tobytes())
    tail.add(terms.tobytes())
    tail.add(weights.tobytes())
    body = tail.take()
    header: Dict[str, object] = {
        "n": len(documents),
        "t": len(terms),
        "crc": zlib.crc32(body) & 0xFFFFFFFF,
    }
    if texts:
        header["x"] = texts
    return pack_frame(header, body)


def decode_document_batch(header: Dict[str, object], tail: memoryview) -> List[Document]:
    """Invert :func:`encode_document_batch` from a (possibly shared) buffer."""
    if "docs" in header:
        return [decode_document(doc) for doc in header["docs"]]  # type: ignore[union-attr]
    n = header["n"]
    total = header["t"]
    if zlib.crc32(tail) & 0xFFFFFFFF != header["crc"]:
        raise CorruptRecordError("document batch payload CRC mismatch")
    offset = 0
    doc_ids = _cast(tail, offset, n, _INT64).tolist()
    offset += _aligned(8 * n)
    arrivals = _cast(tail, offset, n, _FLOAT64).tolist()
    offset += _aligned(8 * n)
    counts = _cast(tail, offset, n, _INT64).tolist()
    offset += _aligned(8 * n)
    terms = _cast(tail, offset, total, _INT64).tolist()
    offset += _aligned(8 * total)
    weights = _cast(tail, offset, total, _FLOAT64).tolist()
    texts: Dict[int, object] = {
        int(index): text for index, text in header.get("x", ())  # type: ignore[union-attr]
    }
    documents: List[Document] = []
    append = documents.append
    texts_get = texts.get
    doc_new = _DOC_NEW
    # One zip iterator over the flat term/weight sections; islice carves
    # each vector out of it without materializing intermediate slices.
    # Field assignment goes straight into ``__dict__`` — the frozen
    # dataclass only guards ``__setattr__``, and the CRC already vouches
    # for the values, so the construction stays pure C-level dict stores.
    pairs = zip(terms, weights)
    for i in range(n):
        doc = doc_new(Document)
        fields = doc.__dict__
        fields["doc_id"] = doc_ids[i]
        fields["vector"] = dict(islice(pairs, counts[i]))
        fields["arrival_time"] = arrivals[i]
        fields["text"] = texts_get(i)
        append(doc)
    return documents
