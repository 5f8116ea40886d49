"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_search_args(self):
        args = build_parser().parse_args(
            ["--scale", "0.1", "search", "star wars", "--limit", "2"])
        assert args.command == "search"
        assert args.query == "star wars"
        assert args.scale == 0.1
        assert args.limit == 2

    def test_invalid_flavor_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["search", "x", "--flavor", "bogus"])


class TestCommands:
    def test_search_prints_answers(self, capsys):
        code = main(["--scale", "0.1", "search", "star wars cast",
                     "--limit", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[movie.title] cast" in out
        assert "movie_full_credits" in out

    def test_search_no_answer_exit_code(self, capsys):
        code = main(["--scale", "0.1", "search", "zzzz qqqq"])
        assert code in (0, 1)  # empty -> 1; IR noise may return something

    def test_derive_lists_definitions(self, capsys):
        code = main(["--scale", "0.1", "derive", "--strategy", "schema_data",
                     "--k1", "2", "--k2", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "anchor=" in out

    def test_loganalysis(self, capsys):
        code = main(["--scale", "0.1", "loganalysis", "--unique", "150"])
        out = capsys.readouterr().out
        assert code == 0
        assert "single entity" in out
        assert "top templates" in out

    def test_evaluate_small(self, capsys):
        code = main(["--scale", "0.1", "evaluate", "--queries", "4",
                     "--raters", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Figure 3" in out
        assert "theoretical-max" in out


class TestExplain:
    def test_explain_prints_stage_trace(self, capsys):
        code = main(["--scale", "0.1", "search", "star wars cast",
                     "--limit", "1", "--explain"])
        out = capsys.readouterr().out
        assert code == 0
        assert "stages   :" in out
        assert "plan     :" in out
        assert "retrieval: strategy=" in out
        assert "candidates:" in out

    def test_explain_shows_rejected_candidates(self, capsys):
        code = main(["--scale", "0.1", "search", "star wars cast",
                     "--limit", "1", "--explain"])
        out = capsys.readouterr().out
        assert code == 0
        assert "rejected: below min match score" in out


class TestBatchFile:
    def test_batch_file_queries_run(self, capsys, tmp_path):
        batch = tmp_path / "queries.txt"
        batch.write_text("star wars cast\n\ngeorge clooney\n")
        code = main(["--scale", "0.1", "search", "--batch-file", str(batch),
                     "--limit", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("query   :") == 2
        assert "star wars cast" in out
        assert "george clooney" in out

    def test_batch_file_combines_with_positional(self, capsys, tmp_path):
        batch = tmp_path / "queries.txt"
        batch.write_text("george clooney\n")
        code = main(["--scale", "0.1", "search", "star wars cast",
                     "--batch-file", str(batch), "--limit", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("query   :") == 2

    def test_no_queries_at_all_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["--scale", "0.1", "search"])

    def test_load_accepts_batch_file(self, capsys, tmp_path):
        out_dir = str(tmp_path / "snap")
        assert main(["--scale", "0.1", "save", out_dir,
                     "--max-instances", "40"]) == 0
        capsys.readouterr()
        batch = tmp_path / "queries.txt"
        batch.write_text("star wars cast\ngeorge clooney\n")
        code = main(["--scale", "0.1", "load", out_dir,
                     "--batch-file", str(batch), "--limit", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("query   :") == 2


class TestBatchSearch:
    def test_multiple_queries_parse(self):
        args = build_parser().parse_args(
            ["search", "star wars", "tom hanks", "--limit", "2"])
        assert args.query == "star wars"
        assert args.more_queries == ["tom hanks"]

    def test_batch_prints_every_query_block(self, capsys):
        code = main(["--scale", "0.1", "search", "star wars cast",
                     "george clooney", "--limit", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("query   :") == 2
        assert "star wars cast" in out
        assert "george clooney" in out


class TestSaveLoad:
    def test_save_then_load_answers_queries(self, capsys, tmp_path):
        out_dir = str(tmp_path / "snap")
        code = main(["--scale", "0.1", "save", out_dir,
                     "--max-instances", "40"])
        out = capsys.readouterr().out
        assert code == 0
        assert "saved collection" in out
        assert "definitions :" in out

        code = main(["--scale", "0.1", "load", out_dir, "star wars cast",
                     "--limit", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "loaded collection" in out
        assert "star wars cast" in out
        assert "movie_full_credits" in out

    def test_load_without_queries_prints_stats(self, capsys, tmp_path):
        out_dir = str(tmp_path / "snap")
        assert main(["--scale", "0.1", "save", out_dir,
                     "--max-instances", "40"]) == 0
        capsys.readouterr()
        code = main(["--scale", "0.1", "load", out_dir])
        out = capsys.readouterr().out
        assert code == 0
        assert "documents   :" in out

    def test_load_matches_direct_search(self, capsys, tmp_path):
        out_dir = str(tmp_path / "snap")
        assert main(["--scale", "0.1", "save", out_dir,
                     "--max-instances", "150"]) == 0
        capsys.readouterr()
        assert main(["--scale", "0.1", "search", "star wars cast",
                     "--limit", "2"]) == 0
        direct = capsys.readouterr().out
        assert main(["--scale", "0.1", "load", out_dir, "star wars cast",
                     "--limit", "2"]) == 0
        loaded = capsys.readouterr().out
        # Same ranked answers, scores included (the loaded path is
        # rank-identical), modulo the load-stats preamble.
        assert direct[direct.index("query   :"):] == \
               loaded[loaded.index("query   :"):]

    def test_sharded_search_matches_serial(self, capsys):
        assert main(["--scale", "0.1", "search", "star wars cast",
                     "--limit", "2"]) == 0
        serial = capsys.readouterr().out
        assert main(["--scale", "0.1", "search", "star wars cast",
                     "--limit", "2", "--shards", "2"]) == 0
        sharded = capsys.readouterr().out
        assert serial == sharded

    def test_shard_args_parse(self):
        args = build_parser().parse_args(
            ["search", "x", "--shards", "4", "--shard-mode", "process"])
        assert args.shards == 4
        assert args.shard_mode == "process"

    def test_load_rejects_missing_directory(self, tmp_path):
        from repro.errors import SnapshotError

        with pytest.raises(SnapshotError):
            main(["--scale", "0.1", "load", str(tmp_path / "missing")])

    def test_save_with_shards_persists_partitions(self, capsys, tmp_path):
        import json

        out_dir = str(tmp_path / "sharded")
        code = main(["--scale", "0.1", "save", out_dir,
                     "--max-instances", "40", "--shards", "2"])
        assert code == 0
        assert "shards      : 2" in capsys.readouterr().out
        manifest = json.loads(
            (tmp_path / "sharded" / "collection.json").read_text())
        assert manifest["shards"]["count"] == 2
        # Loading with the same shard count restores the partitions.
        assert main(["--scale", "0.1", "load", out_dir, "star wars cast",
                     "--shards", "2", "--shard-mode", "serial"]) == 0


class TestCompactCommand:
    def test_compact_directory(self, capsys, tmp_path):
        out_dir = str(tmp_path / "snap")
        assert main(["--scale", "0.1", "save", out_dir,
                     "--max-instances", "40"]) == 0
        capsys.readouterr()
        assert main(["compact", out_dir]) == 0
        out = capsys.readouterr().out
        assert "folded 0 delta segment(s)" in out
        # The directory still loads after compaction.
        assert main(["--scale", "0.1", "load", out_dir]) == 0

    def test_compact_single_journaled_file(self, capsys, tmp_path):
        # Compaction folds collection journals only; a single file with a
        # legacy per-file tail is pointed at `repro migrate`, untouched.
        path = _tailed_snapshot(tmp_path / "journal.snap")
        before = path.read_bytes()
        assert main(["compact", str(path)]) == 1
        assert "repro migrate" in capsys.readouterr().out
        assert path.read_bytes() == before

    def test_compact_empty_directory(self, capsys, tmp_path):
        assert main(["compact", str(tmp_path)]) == 1
        assert "no snapshot files" in capsys.readouterr().out


def _tailed_snapshot(path):
    """A v3 file of document "a" followed by a legacy per-file delta
    segment adding document "b" (what the removed per-file journal
    wrote)."""
    from repro.ir.analysis import Analyzer
    from repro.ir.documents import Document
    from repro.ir.index import InvertedIndex
    from repro.ir.persist import save_snapshot

    from legacy_formats import append_delta_segment

    index = InvertedIndex(Analyzer(stem=False))
    index.add(Document.create("a", {"body": "star wars"}))
    save_snapshot(index.snapshot(), path)
    index.add(Document.create("b", {"body": "ocean"}))
    append_delta_segment(path, index, ["b"], seq=1)
    return path


def _rewrite_as_legacy(directory, version: int) -> None:
    """Rewrite a `save`d directory the way an older build wrote it:
    version-2 snapshot files against the shared document store (shard
    files and Bloom filters kept), or a version-1 generation (manifest
    v1, inline documents, no store and no shards)."""
    import json

    from repro.ir.persist import load_document_store, load_snapshot_with_header

    from legacy_formats import save_snapshot_v1, save_snapshot_v2

    manifest_path = directory / "collection.json"
    manifest = json.loads(manifest_path.read_text())
    store_path = directory / manifest["docstore"]
    store = load_document_store(store_path)
    for path in sorted(directory.glob("*.snap")):
        snapshot, header = load_snapshot_with_header(path, store=store)
        if version == 2:
            save_snapshot_v2(snapshot, path, docstore=header["docstore"],
                             shard=header["shard"], bloom=header["bloom"])
        elif path.name.startswith("shard-"):
            path.unlink()
        else:
            save_snapshot_v1(snapshot, path)
    if version == 1:
        store_path.unlink()
        manifest = {key: manifest[key] for key in (
            "magic", "analyzer", "database", "max_instances_per_definition",
            "definitions", "snapshots")}
        manifest["format_version"] = 1
        manifest_path.write_text(json.dumps(manifest))


class TestMigrateCommand:
    @pytest.mark.parametrize("version", [1, 2])
    def test_legacy_directory_migrates_and_answers_like_live(
            self, capsys, tmp_path, version):
        from repro.errors import SnapshotError

        out_dir = tmp_path / "gen"
        assert main(["--scale", "0.1", "save", str(out_dir),
                     "--max-instances", "150", "--shards", "2"]) == 0
        _rewrite_as_legacy(out_dir, version)
        capsys.readouterr()
        with pytest.raises(SnapshotError, match="repro migrate"):
            main(["--scale", "0.1", "load", str(out_dir)])

        assert main(["migrate", str(out_dir)]) == 0
        out = capsys.readouterr().out
        files = sorted(out_dir.glob("*.snap"))
        assert out.count(f"v{version} -> v3") == len(files)
        assert f"migrated {len(files)} of {len(files)} file(s)" in out
        assert main(["migrate", str(out_dir)]) == 0
        assert capsys.readouterr().out.count("already v3, skipped") == \
               len(files)

        assert main(["--scale", "0.1", "search", "star wars cast",
                     "--limit", "2"]) == 0
        live = capsys.readouterr().out
        load_args = ["--scale", "0.1", "load", str(out_dir),
                     "star wars cast", "--limit", "2"]
        if version == 2:
            load_args += ["--shards", "2", "--shard-mode", "serial"]
        assert main(load_args) == 0
        loaded = capsys.readouterr().out
        assert live[live.index("query   :"):] == \
               loaded[loaded.index("query   :"):]

    def test_v3_file_with_delta_tail_is_folded(self, capsys, tmp_path):
        from repro.ir.persist import load_snapshot

        path = _tailed_snapshot(tmp_path / "journal.snap")
        assert main(["migrate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "folded 1 delta segment(s)" in out
        assert "migrated 1 of 1 file(s)" in out
        loaded = load_snapshot(path)
        assert sorted(doc.doc_id for doc in loaded.documents()) == ["a", "b"]
        assert main(["migrate", str(path)]) == 0
        assert "already v3, skipped" in capsys.readouterr().out
