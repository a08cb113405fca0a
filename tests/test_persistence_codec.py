"""The persistence codec: determinism, exact roundtrips, CRC framing."""

from __future__ import annotations

import pytest

from repro.core.factory import create_algorithm
from repro.documents.decay import ExponentialDecay
from repro.documents.document import Document
from repro.exceptions import CorruptRecordError, PersistenceError
from repro.persistence import codec

from tests.helpers import make_document, make_query


class TestFraming:
    def test_pack_unpack_roundtrip(self):
        obj = {"kind": "doc", "nested": [1, 2.5, None, "text"], "z": True}
        assert codec.unpack_line(codec.pack_line(obj)) == obj

    def test_pack_is_deterministic(self):
        # Same content, different key insertion order: identical bytes.
        assert codec.pack_line({"a": 1, "b": 2}) == codec.pack_line({"b": 2, "a": 1})

    def test_crc_mismatch_detected(self):
        line = bytearray(codec.pack_line({"a": 1}))
        line[12] ^= 0xFF
        with pytest.raises(CorruptRecordError):
            codec.unpack_line(bytes(line))

    def test_truncated_line_detected(self):
        line = codec.pack_line({"a": 1, "long": "x" * 50})
        with pytest.raises(CorruptRecordError):
            codec.unpack_line(line[: len(line) // 2])

    def test_missing_newline_detected(self):
        line = codec.pack_line({"a": 1})
        with pytest.raises(CorruptRecordError):
            codec.unpack_line(line.rstrip(b"\n"))

    def test_garbage_detected(self):
        with pytest.raises(CorruptRecordError):
            codec.unpack_line(b"not a record at all\n")

    def test_nan_rejected_at_encode_time(self):
        with pytest.raises(ValueError):
            codec.canonical_dumps({"x": float("nan")})


class TestDocumentAndQuery:
    def test_document_roundtrip_exact(self):
        document = make_document(7, {3: 0.4, 1: 1.1, 9: 0.77}, arrival_time=123.456)
        decoded = codec.decode_document(codec.encode_document(document))
        assert decoded == document
        # Iteration order (the summation order of scoring) survives.
        assert list(decoded.vector.items()) == list(document.vector.items())

    def test_document_text_preserved(self):
        document = Document(doc_id=1, vector={2: 1.0}, arrival_time=0.5, text="hello")
        assert codec.decode_document(codec.encode_document(document)).text == "hello"

    def test_query_roundtrip_exact(self):
        query = make_query(11, {5: 0.2, 2: 0.9}, k=4)
        decoded = codec.decode_query(codec.encode_query(query))
        assert decoded == query
        assert list(decoded.vector.items()) == list(query.vector.items())

    def test_query_user_preserved(self):
        from repro.queries.query import Query

        query = Query(query_id=0, vector={1: 1.0}, k=1, user="alice")
        assert codec.decode_query(codec.encode_query(query)).user == "alice"

    def test_decode_query_skips_revalidation(self, monkeypatch):
        """Codec-sourced vectors are trusted: they were validated when first
        registered and round-trip bit-exactly, so decode must not re-walk
        them (WAL replay and checkpoint restores decode every query)."""
        from repro.queries import query as query_module

        query = make_query(11, {5: 0.2, 2: 0.9}, k=4)
        payload = codec.encode_query(query)
        calls = []

        def counting_post_init(self):
            calls.append(self.query_id)

        monkeypatch.setattr(
            query_module.Query, "__post_init__", counting_post_init
        )
        decoded = codec.decode_query(payload)
        assert decoded == query
        assert calls == [], "decode_query re-ran __post_init__ validation"

    def test_decode_query_preserves_unnormalized_bits(self):
        """The codec must hand back exactly the bytes it was given, even for
        a vector that re-validation would reject — proof that no
        re-normalization can perturb replayed WAL state."""
        from repro.queries.query import Query

        raw = Query.trusted(query_id=3, vector={1: 0.75, 9: 2.5}, k=2)
        decoded = codec.decode_query(codec.encode_query(raw))
        assert decoded.vector == {1: 0.75, 9: 2.5}
        assert list(decoded.vector.items()) == [(1, 0.75), (9, 2.5)]


class TestMonitorState:
    def _run_engine(self):
        algorithm = create_algorithm("mrio", ExponentialDecay(lam=1e-3))
        for index in range(6):
            algorithm.register(make_query(index, {index % 3: 1.0, 5 + index: 0.5}, k=2))
        for index in range(10):
            algorithm.process(
                make_document(index, {index % 3: 1.0, 5 + index % 6: 0.8}, float(index))
            )
        return algorithm

    def test_snapshot_roundtrip_is_restorable_and_exact(self):
        algorithm = self._run_engine()
        state = algorithm.snapshot()
        decoded = codec.decode_monitor_state(codec.encode_monitor_state(state))

        fresh = create_algorithm("mrio", ExponentialDecay(lam=1e-3))
        fresh.restore(decoded)
        assert fresh.queries == algorithm.queries
        for query_id in algorithm.queries:
            assert fresh.top_k(query_id) == algorithm.top_k(query_id)
            assert fresh.threshold(query_id) == algorithm.threshold(query_id)
        assert fresh.counters.snapshot() == algorithm.counters.snapshot()
        assert fresh.decay.snapshot() == algorithm.decay.snapshot()

    def test_encoding_serializes_and_is_deterministic(self):
        state = self._run_engine().snapshot()
        first = codec.canonical_dumps(codec.encode_monitor_state(state))
        second = codec.canonical_dumps(codec.encode_monitor_state(state))
        assert first == second

    def test_unknown_version_rejected(self):
        state = self._run_engine().snapshot()
        encoded = codec.encode_monitor_state(state)
        encoded["version"] = 99
        with pytest.raises(PersistenceError):
            codec.decode_monitor_state(encoded)


class TestRecords:
    def test_document_record(self):
        document = make_document(3, {1: 1.0}, 2.0)
        kind, data = codec.document_record(document)
        assert kind == codec.KIND_DOCUMENT
        assert codec.decode_document(data["doc"]) == document

    def test_batch_record(self):
        documents = [make_document(i, {1: 1.0}, float(i)) for i in range(3)]
        kind, data = codec.batch_record(documents)
        assert kind == codec.KIND_BATCH
        assert [codec.decode_document(doc) for doc in data["docs"]] == documents

    def test_register_record_carries_shard(self):
        query = make_query(4, {2: 1.0}, k=1)
        kind, data = codec.register_record(query, shard=1)
        assert kind == codec.KIND_REGISTER
        assert data["shard"] == 1
        assert codec.decode_query(data["query"]) == query

    def test_unregister_and_renormalize_records(self):
        kind, data = codec.unregister_record(9)
        assert (kind, data) == (codec.KIND_UNREGISTER, {"query_id": 9})
        kind, data = codec.renormalize_record(1234.5)
        assert (kind, data) == (codec.KIND_RENORMALIZE, {"origin": 1234.5})


class TestWireFrames:
    """The worker-pipe wire protocol: frames, tagged values, batch payloads."""

    def test_frame_roundtrip_with_tail(self):
        tail = codec.TailWriter()
        offset = tail.add(b"0123456789")
        assert offset == 0
        assert tail.add(b"abc") == 16  # previous block padded to 8
        frame = codec.pack_frame({"c": "batch_commit", "n": 3}, tail.take())
        header, body = codec.unpack_frame(frame)
        assert header == {"c": "batch_commit", "n": 3}
        assert bytes(body[:10]) == b"0123456789"
        assert bytes(body[16:19]) == b"abc"

    def test_frames_are_length_prefixed_and_aligned(self):
        frame = codec.pack_frame({"k": 1}, b"x" * 24)
        prefix = int.from_bytes(frame[:4], "big")
        assert (4 + prefix) % 8 == 0
        assert frame[4 + prefix :] == b"x" * 24

    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            -7,
            3.25,
            "text",
            b"\x00\xffbytes",
            [1, "two", None],
            (1, (2, 3)),
            {"nested": {"d": [1.5, None]}},
            {1: "int keys", (2, 3): "tuple keys"},
        ],
        ids=["none", "bool", "int", "float", "str", "bytes", "list", "tuple", "dict", "odd-keys"],
    )
    def test_tagged_value_roundtrip_exact(self, value):
        decoded = codec.decode_value(codec.encode_value(value))
        assert decoded == value
        assert type(decoded) is type(value)

    def test_result_types_use_binary_sections(self):
        from repro.core.results import BatchUpdate, ResultEntry, ResultUpdate

        updates = [
            BatchUpdate(4, (ResultEntry(7, 0.5), ResultEntry(9, 0.25)), (3,)),
            BatchUpdate(6, (), (1, 2)),
        ]
        raw = [ResultUpdate(4, 7, 0.5, None), ResultUpdate(6, 1, 0.125, 9)]
        entries = [ResultEntry(7, 0.5)]
        for value in (updates, raw, entries):
            tail = codec.TailWriter()
            encoded = codec.encode_value(value, tail)
            decoded = codec.decode_value(encoded, memoryview(tail.take()))
            assert decoded == value
            assert type(decoded[0]) is type(value[0])

    def test_document_batch_roundtrip_exact(self):
        documents = [
            make_document(i, {i + 1: 0.8, i + 2: 0.6}, arrival_time=float(i))
            for i in range(5)
        ]
        documents[2] = Document(
            doc_id=2,
            vector=documents[2].vector,
            arrival_time=2.0,
            text="kept text",
        )
        frame = codec.encode_document_batch(documents)
        header, tail = codec.unpack_frame(frame)
        decoded = codec.decode_document_batch(header, tail)
        for want, got in zip(documents, decoded):
            assert got.doc_id == want.doc_id
            assert got.vector == want.vector
            assert list(got.vector) == list(want.vector)  # iteration order too
            assert got.arrival_time == want.arrival_time
            assert got.text == want.text

    def test_document_batch_detects_corruption(self):
        documents = [make_document(1, {3: 0.6, 4: 0.8}, arrival_time=1.0)]
        frame = bytearray(codec.encode_document_batch(documents))
        frame[-1] ^= 0xFF
        header, tail = codec.unpack_frame(bytes(frame))
        with pytest.raises(CorruptRecordError):
            codec.decode_document_batch(header, tail)

    def test_unstamped_documents_take_the_generic_form(self):
        documents = [make_document(1, {3: 0.6, 4: 0.8}, arrival_time=None)]
        frame = codec.encode_document_batch(documents)
        header, tail = codec.unpack_frame(frame)
        assert "docs" in header
        decoded = codec.decode_document_batch(header, tail)
        assert decoded[0].doc_id == 1
        assert decoded[0].arrival_time is None
        assert decoded[0].vector == documents[0].vector

    def test_exception_roundtrip_reconstructs_the_type(self):
        from repro.exceptions import StreamError, WorkerError

        decoded = codec.decode_value(
            codec.encode_value(StreamError("stale arrival 3 < 7"))
        )
        assert type(decoded) is StreamError
        assert str(decoded) == "stale arrival 3 < 7"
        # Unimportable/exotic exceptions degrade to WorkerError, never fail.
        class Local(Exception):
            pass

        degraded = codec.decode_value(codec.encode_value(Local("boom")))
        assert isinstance(degraded, WorkerError)
        assert "boom" in str(degraded)
