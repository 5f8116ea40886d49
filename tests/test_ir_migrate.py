"""Tests for ``repro migrate``'s reader (repro.ir.migrate).

The serving readers accept clean v3 containers only; every legacy shape
an older build wrote must be refused by name and must migrate to a v3
base that serves rank- and score-identically (bit-exact floats) to the
index that wrote it.  The golden files under ``tests/data/legacy/`` were
written by the old build's own writers (see ``generate.py`` there).
"""

import hashlib
import json
import shutil
from pathlib import Path

import pytest

from repro.errors import SnapshotError
from repro.ir.documents import Document
from repro.ir.migrate import migrate_snapshot
from repro.ir.persist import (
    FORMAT_VERSION,
    load_snapshot,
    load_snapshot_with_header,
    open_scoring_snapshot,
    read_snapshot_doc_ids,
    read_snapshot_header,
)
from repro.ir.scoring import Bm25Scorer, TfIdfScorer
from repro.ir.shard import ShardedTopK, TermBloomFilter
from repro.ir.topk import topk_scores
from repro.ir.wand import retrieve

from legacy_formats import save_snapshot_v2
from test_ir_persist import BODIES, build_index

LEGACY_DIR = Path(__file__).parent / "data" / "legacy"
#: Documents the ``*-delta`` goldens append after the base (mirrors
#: ``DELTA_BODIES`` in ``tests/data/legacy/generate.py``).
DELTA_BODIES = {"z1": "fresh star ocean wars",
                "z2": "cast fresh zweihander"}
GOLDENS = ("v1.snap", "v2.snap", "v2-ref.snap", "v2-delta.snap",
           "v3-delta.snap")
READERS = (load_snapshot, load_snapshot_with_header, read_snapshot_header,
           open_scoring_snapshot, read_snapshot_doc_ids)
QUERIES = ("star wars", "ocean", "trek star wars", "fresh zweihander",
           "cast", "zzz", "the")


def writing_index(name: str):
    """The live index whose state the golden file ``name`` persists."""
    index = build_index(BODIES)
    if "delta" in name:
        for doc_id, body in DELTA_BODIES.items():
            index.add(Document.create(doc_id, {"body": body}))
    return index


@pytest.fixture()
def legacy_dir(tmp_path):
    """A scratch copy of the golden files (migration rewrites in place)."""
    out = tmp_path / "legacy"
    shutil.copytree(LEGACY_DIR, out)
    return out


@pytest.fixture()
def saved_v2(tmp_path):
    """A legacy JSON-lines (v2) file, for line-level corruption tests."""
    index = build_index(BODIES)
    path = tmp_path / "index.snap"
    save_snapshot_v2(index.snapshot(), path)
    return index, path


class TestGoldenLegacyFiles:
    @pytest.mark.parametrize("name", GOLDENS)
    @pytest.mark.parametrize("reader", READERS,
                             ids=lambda reader: reader.__name__)
    def test_serving_readers_refuse_and_name_migrate(self, legacy_dir,
                                                     name, reader):
        with pytest.raises(SnapshotError, match="repro migrate"):
            reader(legacy_dir / name)

    @pytest.mark.parametrize("name", GOLDENS)
    def test_migrates_rank_and_score_identical(self, legacy_dir, name):
        path = legacy_dir / name
        old_version = 3 if name.startswith("v3") else int(name[1])
        segments = 2 if "delta" in name else 0
        assert migrate_snapshot(path) == (old_version, segments)
        assert read_snapshot_header(path)["format_version"] == FORMAT_VERSION
        live = writing_index(name).snapshot()
        loaded = load_snapshot(path)
        scoring = open_scoring_snapshot(path)
        assert loaded.version == live.version
        assert loaded.document_count == live.document_count
        assert loaded.average_document_length == \
               live.average_document_length
        for document in live.documents():
            assert loaded.document(document.doc_id) == document
        for scorer in (Bm25Scorer(), TfIdfScorer()):
            term_lists = [live.analyzer.tokens(query) for query in QUERIES]
            expected = [topk_scores(live, scorer, terms, 10)
                        for terms in term_lists]
            for view in (loaded, scoring):
                for strategy in ("maxscore", "wand", "blockmax"):
                    assert [retrieve(view, scorer, terms, 10,
                                     strategy=strategy)
                            for terms in term_lists] == expected
            for shards in (2, 3):
                with ShardedTopK(loaded, shards, "serial") as sharded:
                    assert sharded.topk_many(scorer, term_lists, 10) == \
                           expected
        # Idempotent: the second run finds a clean v3 base.
        before = path.read_bytes()
        assert migrate_snapshot(path) == (FORMAT_VERSION, 0)
        assert path.read_bytes() == before

    def test_docstore_link_shard_and_bloom_kept(self, legacy_dir):
        path = legacy_dir / "v2-ref.snap"
        old = json.loads(path.read_text().splitlines()[0])
        migrate_snapshot(path)
        header = read_snapshot_header(path)
        assert header["docstore"] == "docs.store"
        assert header["shard"] == old["shard"] == {"index": 0, "count": 1}
        assert header["bloom"] == old["bloom"]
        assert read_snapshot_doc_ids(path) == sorted(BODIES)

    @pytest.mark.parametrize("name", ["v2-delta.snap", "v3-delta.snap"])
    def test_folded_tail_is_standalone_with_fresh_bloom(self, legacy_dir,
                                                        name):
        path = legacy_dir / name
        migrate_snapshot(path)
        header = read_snapshot_header(path)
        assert header["docstore"] is None
        assert sorted(read_snapshot_doc_ids(path)) == \
               sorted([*BODIES, *DELTA_BODIES])
        if name.startswith("v3"):
            # The golden's base filter predates the delta-only term; the
            # folded base's filter must route to it.
            bloom = TermBloomFilter.from_dict(header["bloom"])
            for term in ("zweihander", "fresh", "star"):
                assert term in bloom


class TestJsonLinesRejection:
    """Line-level corruption of JSON-lines files surfaces as
    SnapshotError from the migration reader — never a raw error, never a
    silently partial migration."""

    def test_truncated_file(self, saved_v2):
        _index, path = saved_v2
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-2]))  # drop a record + the footer
        with pytest.raises(SnapshotError, match="truncated"):
            migrate_snapshot(path)

    def test_truncated_mid_line(self, saved_v2):
        _index, path = saved_v2
        content = path.read_text()
        path.write_text(content[: len(content) - 7])
        with pytest.raises(SnapshotError):
            migrate_snapshot(path)
        assert path.read_text() == content[: len(content) - 7]

    def test_format_version_mismatch(self, saved_v2):
        _index, path = saved_v2
        lines = path.read_text().splitlines(keepends=True)
        header = json.loads(lines[0])
        header["format_version"] = FORMAT_VERSION + 1
        lines[0] = json.dumps(header) + "\n"
        path.write_text("".join(lines))
        with pytest.raises(SnapshotError, match="format version"):
            migrate_snapshot(path)

    def test_checksum_valid_but_missing_header_key(self, saved_v2):
        # A foreign writer can produce a checksummed file lacking required
        # keys; that must surface as SnapshotError, never a raw KeyError.
        _index, path = saved_v2
        lines = path.read_text().splitlines(keepends=True)
        header = json.loads(lines[0])
        del header["index_version"]
        lines[0] = json.dumps(header, separators=(",", ":")) + "\n"
        digest = hashlib.sha256()
        for line in lines[:-1]:
            digest.update(line.encode("utf-8"))
        footer = json.loads(lines[-1])
        footer["sha256"] = digest.hexdigest()
        lines[-1] = json.dumps(footer, separators=(",", ":")) + "\n"
        path.write_text("".join(lines))
        with pytest.raises(SnapshotError, match="missing required key"):
            migrate_snapshot(path)

    def test_wrong_magic(self, saved_v2):
        _index, path = saved_v2
        path.write_text('{"magic": "something-else"}\n{"t": "end"}\n')
        with pytest.raises(SnapshotError, match="magic"):
            migrate_snapshot(path)
