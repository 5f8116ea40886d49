"""Tests for persistent snapshot storage (save_snapshot/load_snapshot)."""

import json

import pytest

from repro.errors import SnapshotError
from repro.ir.analysis import Analyzer
from repro.ir.documents import Document
from repro.ir.index import InvertedIndex
from repro.ir.migrate import migrate_snapshot
from repro.ir.persist import (
    FORMAT_VERSION,
    V3_MAGIC,
    DocumentStore,
    append_collection_txn,
    build_delta_record,
    fold_delta_record,
    load_document_store,
    load_snapshot,
    open_scoring_snapshot,
    read_collection_journal,
    read_snapshot_doc_ids,
    read_snapshot_header,
    save_document_store,
    save_snapshot,
)
from repro.ir.retrieval import Searcher
from repro.ir.scoring import Bm25Scorer, TfIdfScorer

from legacy_formats import (
    append_delta_segment,
    save_snapshot_v1,
    save_snapshot_v2,
)


def build_index(bodies: dict[str, str], analyzer: Analyzer | None = None):
    index = InvertedIndex(analyzer or Analyzer(stem=False))
    for doc_id, body in bodies.items():
        index.add(Document.create(
            doc_id, {"body": body},
            metadata={"definition": f"def_{doc_id}",
                      "params": (("x", doc_id), ("y", "v"))},
        ))
    return index


BODIES = {"a": "star wars cast", "b": "star trek", "c": "ocean wars wars",
          "d": "star star wars ocean", "empty-ish": "the of"}


@pytest.fixture()
def saved(tmp_path):
    index = build_index(BODIES)
    path = tmp_path / "index.snap"
    save_snapshot(index.snapshot(), path)
    return index, path


def resign_meta(path, mutate):
    """Rewrite a v3 container with ``mutate(meta)`` applied to its meta
    blob, re-signed and re-laid-out so only the mutation is wrong."""
    import hashlib
    import struct

    raw = path.read_bytes()
    (_magic, version, meta_off, meta_len, dir_off, dir_len, cols_off,
     cols_len, _meta_sha, dir_sha) = struct.unpack_from("<12sI6Q32s32s", raw)
    meta = json.loads(raw[meta_off:meta_off + meta_len])
    mutate(meta)
    meta_blob = json.dumps(meta, separators=(",", ":")).encode("utf-8")
    dir_blob = raw[dir_off:dir_off + dir_len]
    size = struct.calcsize("<12sI6Q32s32s")
    header = struct.pack(
        "<12sI6Q32s32s", V3_MAGIC, version, size, len(meta_blob),
        size + len(meta_blob), dir_len, size + len(meta_blob) + dir_len,
        cols_len, hashlib.sha256(meta_blob).digest(), dir_sha)
    path.write_bytes(header + meta_blob + dir_blob
                     + raw[cols_off:cols_off + cols_len])


class TestRoundTrip:
    def test_statistics_survive(self, saved):
        index, path = saved
        loaded = load_snapshot(path)
        snapshot = index.snapshot()
        assert loaded.version == snapshot.version
        assert loaded.document_count == snapshot.document_count
        assert loaded.average_document_length == snapshot.average_document_length
        assert loaded.min_document_length == snapshot.min_document_length
        assert loaded.vocabulary_size == snapshot.vocabulary_size
        for term in snapshot.terms():
            assert loaded.postings(term) == snapshot.postings(term)
            assert loaded.document_frequency(term) == \
                   snapshot.document_frequency(term)

    def test_documents_survive_exactly(self, saved):
        index, path = saved
        loaded = load_snapshot(path)
        for document in index.documents():
            assert loaded.document(document.doc_id) == document

    def test_metadata_tuples_restored_as_tuples(self, saved):
        _index, path = saved
        loaded = load_snapshot(path)
        params = loaded.document("a").meta("params")
        assert params == (("x", "a"), ("y", "v"))
        assert isinstance(params, tuple)
        assert isinstance(params[0], tuple)

    def test_analyzer_config_survives(self, tmp_path):
        analyzer = Analyzer(remove_stopwords=False, stem=True,
                            min_token_length=2)
        index = build_index({"a": "star wars"}, analyzer)
        path = save_snapshot(index.snapshot(), tmp_path / "a.snap")
        loaded = load_snapshot(path)
        assert loaded.analyzer.remove_stopwords is False
        assert loaded.analyzer.stem is True
        assert loaded.analyzer.min_token_length == 2

    @pytest.mark.parametrize("scorer_factory", [Bm25Scorer, TfIdfScorer])
    def test_search_rank_identical_float_exact(self, saved, scorer_factory):
        index, path = saved
        loaded = load_snapshot(path)
        live = Searcher(index, scorer_factory())
        cold = Searcher(loaded, scorer_factory())
        for query in ("star wars", "ocean", "trek star wars", "zzz", "the"):
            expected = [(h.doc_id, h.score) for h in live.search(query, 4)]
            assert [(h.doc_id, h.score) for h in cold.search(query, 4)] == \
                   expected
            assert [(h.doc_id, h.score)
                    for h in cold.search_exhaustive(query, 4)] == expected

    def test_empty_index_round_trips(self, tmp_path):
        index = InvertedIndex(Analyzer())
        path = save_snapshot(index.snapshot(), tmp_path / "empty.snap")
        loaded = load_snapshot(path)
        assert len(loaded) == 0
        assert Searcher(loaded).search("anything") == []

    def test_save_returns_path_and_overwrites_atomically(self, saved, tmp_path):
        index, path = saved
        assert save_snapshot(index.snapshot(), path) == path
        assert not path.with_name(path.name + ".tmp").exists()
        load_snapshot(path)  # still valid after overwrite


class TestRejection:
    def test_missing_file(self, tmp_path):
        with pytest.raises(SnapshotError, match="cannot read"):
            load_snapshot(tmp_path / "nope.snap")

    def test_truncated_file(self, saved):
        _index, path = saved
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])  # the last column loses its tail
        with pytest.raises(SnapshotError, match="truncated"):
            load_snapshot(path)

    def test_truncated_mid_line(self, saved):
        # Cut inside the meta blob: the header promises bytes the file
        # no longer has, which every reader must notice up front.
        _index, path = saved
        raw = path.read_bytes()
        path.write_bytes(raw[:len(V3_MAGIC) + 4 + 48 + 64 + 7])
        for reader in (load_snapshot, read_snapshot_header,
                       open_scoring_snapshot, read_snapshot_doc_ids):
            with pytest.raises(SnapshotError, match="truncated"):
                reader(path)

    def test_corrupted_byte(self, saved):
        _index, path = saved
        raw = bytearray(path.read_bytes())
        offset = len(raw) // 2
        raw[offset] = ord("x") if raw[offset] != ord("x") else ord("y")
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError):
            load_snapshot(path)

    def test_format_version_mismatch(self, tmp_path):
        # A JSON-lines header from an unknown (future) version is not a
        # legacy file migrate could read: report the version instead.
        path = save_snapshot_v2(build_index(BODIES).snapshot(),
                                tmp_path / "index.snap")
        lines = path.read_text().splitlines(keepends=True)
        header = json.loads(lines[0])
        header["format_version"] = FORMAT_VERSION + 1
        lines[0] = json.dumps(header) + "\n"
        path.write_text("".join(lines))
        with pytest.raises(SnapshotError, match="format version") as info:
            load_snapshot(path)
        assert "migrate" not in str(info.value)

    def test_wrong_magic(self, saved):
        _index, path = saved
        path.write_text('{"magic": "something-else"}\n{"t": "end"}\n')
        with pytest.raises(SnapshotError, match="magic"):
            load_snapshot(path)

    def test_not_json(self, saved):
        _index, path = saved
        path.write_text("definitely not json\nstill not\n")
        with pytest.raises(SnapshotError, match="JSON"):
            load_snapshot(path)

    def test_checksum_valid_but_missing_header_key(self, saved):
        # A foreign writer can produce a checksummed file lacking required
        # keys; that must surface as SnapshotError, never a raw KeyError.
        _index, path = saved
        resign_meta(path, lambda meta: meta.pop("index_version"))
        with pytest.raises(SnapshotError, match="missing required key"):
            load_snapshot(path)

    def test_unserializable_metadata_rejected_cleanly(self, tmp_path):
        index = InvertedIndex(Analyzer())
        index.add(Document.create("a", {"body": "star"},
                                  metadata={"obj": object()}))
        with pytest.raises(SnapshotError, match="unserializable"):
            save_snapshot(index.snapshot(), tmp_path / "bad.snap")
        assert not (tmp_path / "bad.snap").exists()
        assert not (tmp_path / "bad.snap.tmp").exists()


class TestV3Rejection:
    """Torn writes, truncated columns, and bad checksums on the binary
    columnar container must all surface as SnapshotError — never a raw
    struct/JSON/Key/Unicode error, and never silently wrong postings."""

    def _directory_extents(self, raw: bytes) -> tuple[int, int, int, int]:
        import struct

        fields = struct.unpack_from("<12sI6Q", raw)
        (_magic, _version, meta_off, _meta_len, dir_off, dir_len,
         cols_off, cols_len) = fields
        return dir_off, dir_len, cols_off, cols_len

    def test_torn_write_header_only(self, saved):
        _index, path = saved
        raw = path.read_bytes()
        path.write_bytes(raw[:20])  # mid-struct-header torn write
        with pytest.raises(SnapshotError, match="truncated"):
            load_snapshot(path)

    def test_torn_write_mid_columns(self, saved):
        _index, path = saved
        raw = path.read_bytes()
        path.write_bytes(raw[: int(len(raw) * 0.75)])
        with pytest.raises(SnapshotError, match="truncated"):
            load_snapshot(path)

    def test_struct_version_mismatch(self, saved):
        import struct

        _index, path = saved
        raw = bytearray(path.read_bytes())
        raw[len(V3_MAGIC):len(V3_MAGIC) + 4] = struct.pack("<I", 99)
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError, match="format version"):
            load_snapshot(path)

    def test_corrupted_meta_detected(self, saved):
        _index, path = saved
        raw = bytearray(path.read_bytes())
        offset = len(V3_MAGIC) + 4 + 48 + 64  # first meta byte
        raw[offset] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError, match="checksum mismatch"):
            load_snapshot(path)

    def test_wrong_meta_magic_with_valid_checksum(self, saved):
        # The meta magic is checked once, in the shared meta read, so
        # header-only readers refuse the file as surely as full loads.
        _index, path = saved
        resign_meta(path, lambda meta: meta.update(magic="something-else"))
        for reader in (read_snapshot_header, read_snapshot_doc_ids,
                       load_snapshot, open_scoring_snapshot):
            with pytest.raises(SnapshotError, match="wrong magic"):
                reader(path)

    def test_corrupted_term_directory_detected(self, saved):
        _index, path = saved
        raw = bytearray(path.read_bytes())
        dir_off, dir_len, _cols_off, _cols_len = self._directory_extents(raw)
        raw[dir_off + dir_len // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError, match="checksum mismatch"):
            load_snapshot(path)

    def test_corrupted_column_detected_on_access(self, saved):
        # Column checksums verify lazily: the load itself only touches the
        # doc_id/length columns, but the poisoned term must refuse to
        # materialize rather than serve corrupt postings.
        _index, path = saved
        raw = bytearray(path.read_bytes())
        dir_off, dir_len, cols_off, cols_len = self._directory_extents(raw)
        directory = json.loads(bytes(raw[dir_off:dir_off + dir_len]))
        term_cols = {term: entry for term, entry
                     in directory["terms"].items()}
        # Poison every term's tf column so any access path hits one.
        for entry in term_cols.values():
            offset, _length, _sha = entry["tf"]
            raw[cols_off + offset] ^= 0xFF
        path.write_bytes(bytes(raw))
        loaded = load_snapshot(path)
        with pytest.raises(SnapshotError, match="checksum mismatch"):
            loaded.postings("star")

    def test_column_extent_past_region_detected(self, saved):
        import hashlib
        import struct

        _index, path = saved
        raw = bytearray(path.read_bytes())
        dir_off, dir_len, cols_off, cols_len = self._directory_extents(raw)
        directory = json.loads(bytes(raw[dir_off:dir_off + dir_len]))
        # Rewrite one column's extent to reach past the columns region,
        # re-sign the directory so only the extent is wrong.
        directory["terms"]["star"]["tf"][1] = cols_len + 1024
        dir_blob = json.dumps(directory, ensure_ascii=False,
                              separators=(",", ":")).encode("utf-8")
        header = struct.pack(
            "<12sI6Q32s32s", V3_MAGIC, FORMAT_VERSION,
            struct.unpack_from("<12sI6Q", raw)[2],
            struct.unpack_from("<12sI6Q", raw)[3],
            dir_off, len(dir_blob), dir_off + len(dir_blob), cols_len,
            bytes(raw[len(V3_MAGIC) + 4 + 48:len(V3_MAGIC) + 4 + 48 + 32]),
            hashlib.sha256(dir_blob).digest())
        meta_blob = bytes(raw[struct.unpack_from("<12sI6Q", raw)[2]:dir_off])
        cols = bytes(raw[cols_off:cols_off + cols_len])
        path.write_bytes(header + meta_blob + dir_blob + cols)
        loaded = load_snapshot(path)
        with pytest.raises(SnapshotError, match="columns region"):
            loaded.postings("star")

    def test_scoring_snapshot_skips_documents(self, saved):
        # The worker path: ranked (doc_id, score) pairs only, no document
        # bodies parsed or held.
        from repro.errors import IndexError_
        from repro.ir.scoring import Bm25Scorer
        from repro.ir.wand import retrieve

        index, path = saved
        view = open_scoring_snapshot(path)
        live = index.snapshot()
        scorer = Bm25Scorer()
        analyzer = live.analyzer
        for query in ("star wars", "ocean", "trek star wars", "zzz"):
            terms = analyzer.tokens(query)
            for strategy in ("maxscore", "wand", "blockmax"):
                assert retrieve(view, scorer, terms, 4, strategy=strategy) \
                    == retrieve(live, scorer, terms, 4, strategy=strategy)
        assert len(view._documents) == 0
        with pytest.raises(IndexError_):
            view.document("a")


class TestDocumentStore:
    def test_round_trip(self, tmp_path):
        index = build_index(BODIES)
        snapshot = index.snapshot()
        store = DocumentStore.from_snapshot(snapshot)
        path = save_document_store(store, tmp_path / "docs.store")
        loaded = load_document_store(path)
        assert len(loaded) == len(store)
        for doc_id in store.documents:
            assert doc_id in loaded
            assert loaded.documents[doc_id] == store.documents[doc_id]
            assert loaded.doc_lengths[doc_id] == store.doc_lengths[doc_id]
        assert loaded.analyzer == store.analyzer

    def test_corruption_detected(self, tmp_path):
        index = build_index(BODIES)
        path = save_document_store(
            DocumentStore.from_snapshot(index.snapshot()),
            tmp_path / "docs.store")
        raw = bytearray(path.read_bytes())
        offset = len(raw) // 2
        raw[offset] = ord("x") if raw[offset] != ord("x") else ord("y")
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError):
            load_document_store(path)

    def test_truncation_detected(self, tmp_path):
        index = build_index(BODIES)
        path = save_document_store(
            DocumentStore.from_snapshot(index.snapshot()),
            tmp_path / "docs.store")
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-2]))
        with pytest.raises(SnapshotError, match="truncated"):
            load_document_store(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SnapshotError, match="cannot read"):
            load_document_store(tmp_path / "nope.store")


class TestDocstoreBackedSnapshots:
    def test_ref_snapshot_round_trips_and_shares_documents(self, tmp_path):
        index = build_index(BODIES)
        snapshot = index.snapshot()
        store = DocumentStore.from_snapshot(snapshot)
        save_document_store(store, tmp_path / "docs.store")
        path = save_snapshot(snapshot, tmp_path / "index.snap",
                             docstore="docs.store")
        loaded_store = load_document_store(tmp_path / "docs.store")
        loaded = load_snapshot(path, store=loaded_store)
        for document in index.documents():
            assert loaded.document(document.doc_id) == document
            # The loaded snapshot shares the store's Document objects —
            # that sharing is the whole point of the dedup layout.
            assert loaded.document(document.doc_id) is \
                   loaded_store.documents[document.doc_id]
        for term in snapshot.terms():
            assert loaded.postings(term) == snapshot.postings(term)

    def test_ref_snapshot_is_smaller_than_inline(self, tmp_path):
        index = build_index(BODIES)
        snapshot = index.snapshot()
        save_document_store(DocumentStore.from_snapshot(snapshot),
                            tmp_path / "docs.store")
        ref_path = save_snapshot(snapshot, tmp_path / "ref.snap",
                                 docstore="docs.store")
        inline_path = save_snapshot(snapshot, tmp_path / "inline.snap")
        assert ref_path.stat().st_size < inline_path.stat().st_size

    def test_store_autoloaded_from_header(self, tmp_path):
        index = build_index(BODIES)
        snapshot = index.snapshot()
        save_document_store(DocumentStore.from_snapshot(snapshot),
                            tmp_path / "docs.store")
        path = save_snapshot(snapshot, tmp_path / "index.snap",
                             docstore="docs.store")
        loaded = load_snapshot(path)  # no explicit store
        assert loaded.document("a") == index.document("a")

    def test_missing_store_is_clean_error(self, tmp_path):
        index = build_index(BODIES)
        path = save_snapshot(index.snapshot(), tmp_path / "index.snap",
                             docstore="gone.store")
        with pytest.raises(SnapshotError, match="cannot read"):
            load_snapshot(path)

    def test_dangling_ref_is_clean_error(self, tmp_path):
        index = build_index(BODIES)
        snapshot = index.snapshot()
        partial = build_index({"a": BODIES["a"]})
        save_document_store(DocumentStore.from_snapshot(partial.snapshot()),
                            tmp_path / "docs.store")
        path = save_snapshot(snapshot, tmp_path / "index.snap",
                             docstore="docs.store")
        with pytest.raises(SnapshotError, match="not in the document store"):
            load_snapshot(path)

    def test_analyzer_mismatch_with_store_rejected(self, tmp_path):
        index = build_index(BODIES)
        other = build_index({"a": "star"}, Analyzer(stem=True))
        save_document_store(DocumentStore.from_snapshot(other.snapshot()),
                            tmp_path / "docs.store")
        path = save_snapshot(index.snapshot(), tmp_path / "index.snap",
                             docstore="docs.store")
        with pytest.raises(SnapshotError, match="mix tokenizations"):
            load_snapshot(path)

    def test_read_snapshot_header(self, tmp_path):
        index = build_index(BODIES)
        path = save_snapshot(index.snapshot(), tmp_path / "index.snap",
                             docstore="docs.store",
                             shard={"index": 1, "count": 4})
        header = read_snapshot_header(path)
        assert header["docstore"] == "docs.store"
        assert header["shard"] == {"index": 1, "count": 4}
        assert header["format_version"] == FORMAT_VERSION


def assert_serves_like(loaded, index, queries=("star wars", "ocean",
                                               "trek star wars", "zzz")):
    """``loaded`` answers like the live ``index``: same ranks, same
    floats, same documents."""
    live = Searcher(index)
    cold = Searcher(loaded)
    for query in queries:
        assert [(h.doc_id, h.score) for h in cold.search(query, 10)] == \
               [(h.doc_id, h.score) for h in live.search(query, 10)]
    for document in index.documents():
        assert loaded.document(document.doc_id) == document


class TestV1BackCompat:
    """Version-1 files no longer load directly; ``repro migrate`` turns
    them into v3 bases that serve exactly like the index that wrote
    them."""

    def test_v1_file_still_loads(self, tmp_path):
        index = build_index(BODIES)
        path = save_snapshot_v1(index.snapshot(), tmp_path / "legacy.snap")
        assert json.loads(path.read_text().splitlines()[0]
                          )["format_version"] == 1
        with pytest.raises(SnapshotError, match="repro migrate"):
            load_snapshot(path)
        assert migrate_snapshot(path) == (1, 0)
        assert_serves_like(load_snapshot(path), index)

    def test_v1_and_v2_load_identically(self, tmp_path):
        index = build_index(BODIES)
        snapshot = index.snapshot()
        v1_path = save_snapshot_v1(snapshot, tmp_path / "v1.snap")
        v2_path = save_snapshot_v2(snapshot, tmp_path / "v2.snap")
        migrate_snapshot(v1_path)
        migrate_snapshot(v2_path)
        v1, v2 = load_snapshot(v1_path), load_snapshot(v2_path)
        assert sorted(v1.terms()) == sorted(v2.terms())
        for term in v1.terms():
            assert v1.postings(term) == v2.postings(term)
        assert v1.average_document_length == v2.average_document_length

    def test_compact_upgrades_v1_to_v2(self, tmp_path):
        # Historical name: the fold-and-rewrite step is ``repro migrate``
        # now, and it always writes the current (v3) container.
        index = build_index(BODIES)
        path = save_snapshot_v1(index.snapshot(), tmp_path / "legacy.snap")
        migrate_snapshot(path)
        header = read_snapshot_header(path)
        assert header["format_version"] == FORMAT_VERSION
        loaded = load_snapshot(path)
        assert loaded.document("a") == index.document("a")


def journal_record(index, new_ids, seq, target=None):
    """One collection-journal record for ``new_ids`` (already in
    ``index``), as ``CollectionStore`` builds them."""
    snapshot = index.snapshot()
    record = build_delta_record(
        index.analyzer, index._documents, index._doc_lengths,
        index.document_frequency, new_ids, seq=seq,
        index_version=index.version, document_count=index.document_count,
        average_document_length=index.average_document_length,
        min_document_length=snapshot.min_document_length)
    record["target"] = target
    return record


def fold_records(base, records):
    """``base`` with ``records`` folded in, as a plain snapshot."""
    from repro.ir.index import IndexSnapshot

    documents = dict(base._documents)
    doc_lengths = dict(base._doc_lengths)
    postings = {term: base.postings(term) for term in base.terms()}
    doc_frequencies = {term: base.document_frequency(term)
                       for term in base.terms()}
    stats = {}
    for record in records:
        fold_delta_record(record, documents, doc_lengths, postings,
                          doc_frequencies, stats)
    return IndexSnapshot(
        version=stats["index_version"], analyzer=base.analyzer,
        documents=documents, postings=postings, doc_lengths=doc_lengths,
        doc_frequencies=doc_frequencies,
        document_count=stats["document_count"],
        average_document_length=stats["average_document_length"],
        min_document_length=stats["min_document_length"])


class TestDeltaSegments:
    """Delta records: the collection journal's appends and folds, and
    the legacy per-file segments only ``repro migrate`` still reads."""

    def test_journal_appends_instead_of_rewriting(self, tmp_path):
        path = tmp_path / "journal-g1.jrnl"
        index = build_index(BODIES)
        index.add(Document.create("z1", {"body": "fresh star ocean"}))
        size = append_collection_txn(path, "g1", 0,
                                     [journal_record(index, ["z1"], 1)])
        first = path.read_bytes()
        index.add(Document.create("z2", {"body": "fresh trek"}))
        size = append_collection_txn(path, "g1", size,
                                     [journal_record(index, ["z2"], 2)])
        raw = path.read_bytes()
        # Appends only: the first transaction's bytes are untouched; the
        # second adds one delta + one delta-end line.
        assert raw[:len(first)] == first
        assert len(raw[len(first):].decode("utf-8").splitlines()) == 2
        assert size == len(raw)
        records = read_collection_journal(path, size, generation="g1")
        assert [record["seq"] for record in records[None]] == [1, 2]

    def test_journaled_snapshot_loads_float_identical(self, tmp_path):
        index = build_index(BODIES)
        base_path = save_snapshot(index.snapshot(), tmp_path / "base.snap")
        index.add(Document.create("z1", {"body": "fresh star ocean wars"}))
        index.add(Document.create("z2", {"body": "cast fresh"}))
        path = tmp_path / "journal-g1.jrnl"
        size = append_collection_txn(
            path, "g1", 0, [journal_record(index, ["z1", "z2"], 1)])
        records = read_collection_journal(path, size, generation="g1")
        loaded = fold_records(load_snapshot(base_path), records[None])
        snapshot = index.snapshot()
        assert loaded.version == snapshot.version
        assert loaded.document_count == snapshot.document_count
        assert loaded.average_document_length == \
               snapshot.average_document_length
        assert loaded.min_document_length == snapshot.min_document_length
        for term in snapshot.terms():
            assert loaded.postings(term) == snapshot.postings(term)
            assert loaded.document_frequency(term) == \
                   snapshot.document_frequency(term)
        assert_serves_like(loaded, index,
                           ("star wars", "fresh", "cast ocean", "zzz"))

    def test_truncated_delta_detected(self, tmp_path):
        path = save_snapshot(build_index(BODIES).snapshot(),
                             tmp_path / "journal.snap")
        index = build_index(BODIES)
        index.add(Document.create("z1", {"body": "fresh star"}))
        append_delta_segment(path, index, ["z1"], seq=1)
        # Drop the delta-end line: the tail's last newline-terminated line.
        raw = path.read_bytes()
        cut = raw.rfind(b"\n", 0, len(raw) - 1) + 1
        path.write_bytes(raw[:cut])
        with pytest.raises(SnapshotError, match="repro migrate"):
            load_snapshot(path)
        with pytest.raises(SnapshotError, match="checksum line"):
            migrate_snapshot(path)

    def test_corrupted_delta_detected(self, tmp_path):
        path = save_snapshot(build_index(BODIES).snapshot(),
                             tmp_path / "journal.snap")
        index = build_index(BODIES)
        index.add(Document.create("z1", {"body": "fresh star"}))
        append_delta_segment(path, index, ["z1"], seq=1)
        # "fresh" appears only in the appended delta text, not the base.
        raw = path.read_bytes()
        assert raw.count(b"fresh")
        path.write_bytes(raw.replace(b"fresh", b"frxsh"))
        with pytest.raises(SnapshotError, match="repro migrate"):
            load_snapshot(path)
        with pytest.raises(SnapshotError, match="delta segment"):
            migrate_snapshot(path)
        assert b"frxsh" in path.read_bytes()  # never half-migrated

    def test_journal_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "journal-g1.jrnl"
        index = build_index(BODIES)
        index.add(Document.create("z1", {"body": "fresh"}))
        size = append_collection_txn(path, "g1", 0,
                                     [journal_record(index, ["z1"], 1)])
        with pytest.raises(SnapshotError, match="does not match"):
            read_collection_journal(path, size, generation="g2")

    def test_rejected_add_leaves_journal_functional(self, tmp_path):
        # Regression: a document rejected mid-add (non-positive weight)
        # must leave the index untouched — previously it stayed
        # half-registered and the next journal record carried the
        # poisoned doc_id's statistics.
        from repro.errors import IndexError_

        index = build_index(BODIES)
        base = index.snapshot()
        bad = Document.create("bad", {"body": "boom"}, {"body": 0.0})
        with pytest.raises(IndexError_):
            index.add(bad)
        assert "bad" not in index._documents
        assert index.version == base.version
        index.add(Document.create("z1", {"body": "fresh star"}))
        loaded = fold_records(base, [journal_record(index, ["z1"], 1)])
        assert "z1" in loaded
        assert "bad" not in loaded
        assert loaded.document_count == len(BODIES) + 1

    def test_compact_leaves_clean_v2_file_untouched(self, tmp_path):
        # ``repro migrate`` is the only fold step for per-file segments;
        # a clean current-format file is left byte-identical.
        path = save_snapshot(build_index(BODIES).snapshot(),
                             tmp_path / "clean.snap")
        before = path.read_bytes()
        assert migrate_snapshot(path) == (FORMAT_VERSION, 0)
        assert path.read_bytes() == before

    def test_compact_returns_folded_segment_count(self, tmp_path):
        path = save_snapshot(build_index(BODIES).snapshot(),
                             tmp_path / "journal.snap")
        index = build_index(BODIES)
        index.add(Document.create("z1", {"body": "fresh star"}))
        append_delta_segment(path, index, ["z1"], seq=1)
        index.add(Document.create("z2", {"body": "fresh trek"}))
        append_delta_segment(path, index, ["z2"], seq=2)
        assert migrate_snapshot(path) == (FORMAT_VERSION, 2)
        assert migrate_snapshot(path) == (FORMAT_VERSION, 0)

    def test_compact_snapshot_function(self, tmp_path):
        path = save_snapshot(build_index(BODIES).snapshot(),
                             tmp_path / "journal.snap")
        index = build_index(BODIES)
        index.add(Document.create("z1", {"body": "fresh star"}))
        append_delta_segment(path, index, ["z1"], seq=1)
        migrate_snapshot(path)
        after = load_snapshot(path)
        assert after.document_count == index.document_count
        for term in index.snapshot().terms():
            assert after.postings(term) == index.snapshot().postings(term)
        assert_serves_like(after, index, ("fresh star", "ocean", "zzz"))


class TestDocStorePartitionLoads:
    """The store header's doc_id -> byte-offset index must let partition
    loads fetch exactly their documents, byte-identical to a full load."""

    def make_store(self, tmp_path):
        index = build_index(BODIES)
        store = DocumentStore.from_snapshot(index.snapshot())
        path = save_document_store(store, tmp_path / "docs.store")
        return store, path

    def test_header_carries_offset_index(self, tmp_path):
        import json

        _store, path = self.make_store(tmp_path)
        header = json.loads(path.read_text().splitlines()[0])
        doc_index = header["doc_index"]
        assert sorted(doc_index) == sorted(BODIES)
        # Offsets are relative to the end of the header line and must
        # point exactly at each record's bytes.
        raw = path.read_bytes()
        base = raw.index(b"\n") + 1
        for doc_id, (offset, size) in doc_index.items():
            record = json.loads(raw[base + offset:base + offset + size])
            assert record["t"] == "doc"
            assert record["id"] == doc_id

    def test_partition_load_matches_full_load(self, tmp_path):
        from repro.ir.persist import load_document_store_partition

        store, path = self.make_store(tmp_path)
        full = load_document_store(path)
        part = load_document_store_partition(path, ["a", "c"])
        assert sorted(part.documents) == ["a", "c"]
        for doc_id in ("a", "c"):
            assert part.documents[doc_id] == full.documents[doc_id]
            assert part.doc_lengths[doc_id] == full.doc_lengths[doc_id]
        assert part.analyzer == full.analyzer

    def test_partition_load_duplicates_collapse(self, tmp_path):
        from repro.ir.persist import load_document_store_partition

        _store, path = self.make_store(tmp_path)
        part = load_document_store_partition(path, ["b", "b", "b"])
        assert sorted(part.documents) == ["b"]

    def test_partition_load_unknown_id_raises(self, tmp_path):
        from repro.ir.persist import load_document_store_partition

        _store, path = self.make_store(tmp_path)
        with pytest.raises(SnapshotError, match="doc_index"):
            load_document_store_partition(path, ["nope"])

    def test_partition_load_without_index_falls_back(self, tmp_path):
        # Stores written before the offset index existed still load (the
        # full-store fallback), so old generations stay readable.
        import json

        _store, path = self.make_store(tmp_path)
        lines = path.read_text().splitlines(keepends=True)
        header = json.loads(lines[0])
        del header["doc_index"]
        body = lines[1:-1]
        import hashlib

        header_line = json.dumps(
            header, ensure_ascii=False, separators=(",", ":")) + "\n"
        digest = hashlib.sha256()
        for line in (header_line, *body):
            digest.update(line.encode("utf-8"))
        footer = {"t": "end", "records": len(body),
                  "sha256": digest.hexdigest()}
        footer_line = json.dumps(
            footer, ensure_ascii=False, separators=(",", ":")) + "\n"
        path.write_text("".join([header_line, *body, footer_line]))

        from repro.ir.persist import load_document_store_partition

        loaded = load_document_store_partition(path, ["a"])
        assert "a" in loaded.documents  # full-store superset is fine
        assert len(loaded.documents) == len(BODIES)

    def test_tampered_record_detected(self, tmp_path):
        import json

        from repro.ir.persist import load_document_store_partition

        _store, path = self.make_store(tmp_path)
        header = json.loads(path.read_text().splitlines()[0])
        # Point one entry's offset at a different record.
        header["doc_index"]["a"] = header["doc_index"]["b"]
        lines = path.read_text().splitlines(keepends=True)
        lines[0] = json.dumps(
            header, ensure_ascii=False, separators=(",", ":")) + "\n"
        path.write_text("".join(lines))
        with pytest.raises(SnapshotError, match="points at"):
            load_document_store_partition(path, ["a"])

    def test_read_snapshot_doc_ids(self, tmp_path):
        index = build_index(BODIES)
        snapshot = index.snapshot()
        store = DocumentStore.from_snapshot(snapshot)
        save_document_store(store, tmp_path / "docs.store")
        ref_path = save_snapshot(snapshot, tmp_path / "refs.snap",
                                 docstore="docs.store")
        inline_path = save_snapshot(snapshot, tmp_path / "inline.snap")
        assert read_snapshot_doc_ids(ref_path) == sorted(BODIES)
        assert read_snapshot_doc_ids(inline_path) == sorted(BODIES)

    def test_read_snapshot_doc_ids_truncated(self, tmp_path):
        index = build_index(BODIES)
        path = save_snapshot(index.snapshot(), tmp_path / "t.snap")
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(SnapshotError, match="truncated"):
            read_snapshot_doc_ids(path)

    def test_read_snapshot_doc_ids_truncated_v2(self, tmp_path):
        # A legacy file is refused by name before any of its records are
        # read; migrating it then reports the truncation.
        index = build_index(BODIES)
        path = save_snapshot_v2(index.snapshot(), tmp_path / "t.snap")
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:2]))  # header + one record
        with pytest.raises(SnapshotError, match="repro migrate"):
            read_snapshot_doc_ids(path)
        with pytest.raises(SnapshotError, match="truncated"):
            migrate_snapshot(path)

    def test_load_shard_pins_only_its_partition(self, tmp_path):
        # The ROADMAP item this closes: a shard-local load must not parse
        # or pin the other partitions' documents.
        from repro.core import QunitCollection
        from repro.core.derivation import imdb_expert_qunits
        from repro.datasets.imdb import generate_imdb

        db = generate_imdb(scale=0.1, seed=7)
        collection = QunitCollection(db, imdb_expert_qunits(),
                                     max_instances_per_definition=30,
                                     shards=3, parallelism="serial")
        out = tmp_path / "gen"
        from repro.core.store import CollectionStore

        store = CollectionStore(out)
        store.save(collection)
        total = len(collection.global_snapshot())
        for shard_index in range(3):
            snapshot, bloom = store.load_shard(shard_index)
            assert 0 < len(snapshot) < total
            assert len(snapshot._documents) == len(snapshot)
            assert bloom is not None
            # Collection-wide statistics survive partition loading.
            assert snapshot.document_count == total
