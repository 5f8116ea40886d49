"""PERF — query latency and build cost: qunits vs BANKS vs MLCA, plus the
top-k fast path against exhaustive scoring, cold start from persisted
snapshots, and sharded parallel scoring against the serial path.

Supports the paper's architectural claim (Sec. 3): once ranking is
separated from the database, query-time work is index lookups and one view
materialization — no per-query graph expansion (BANKS) or LCA computation
over the whole tree (MLCA).  Reports build + per-query costs at three
database scales, and — for the retrieval hot path itself — the speedup of
the bounded-heap/max-score fast path (``Searcher.search``) over the
exhaustive score-everything-and-sort reference
(``Searcher.search_exhaustive``) on the largest collection size.

Two persistence/scale reports ride along (``BENCH_*.json`` artifacts, the
files CI uploads):

- ``BENCH_cold_start.json`` — deriving + indexing a collection from the
  database versus restoring it from ``CollectionStore.save`` output (the
  derive-once/serve-forever split persistent snapshots exist for);
- ``BENCH_sharded_scaling.json`` — serial single-snapshot batch retrieval
  versus hash-sharded parallel retrieval on the largest collection;
- ``BENCH_snapshot_v2.json`` — the deduplicated generation layout
  (documents stored once in a shared store) versus the same snapshots
  saved standalone, and Bloom-routed sharded batch retrieval versus
  broadcasting every query to every shard;
- ``BENCH_wand.json`` — term-at-a-time max-score versus document-at-a-time
  WAND and block-max WAND across query lengths (the ``--strategy`` flag /
  ``Searcher(strategy=...)`` choice; see ``repro.ir.wand``);
- ``BENCH_pipeline.json`` — the staged query pipeline's batched serving
  path (``QunitSearchEngine.search_many``) versus the sequential
  per-query loop on a sharded process-mode collection (see
  ``repro.serve``): batching groups the whole batch's retrieval into one
  dispatch per shard per round instead of paying IPC per query.

The ``BENCH_*.json`` metrics named in ``repro.bench.regression`` are
guarded by the nightly perf-regression job
(``.github/workflows/nightly-bench.yml`` +
``benchmarks/check_regression.py``) against the committed baselines in
``benchmarks/baselines/``.
"""

import json
import os
import time

import pytest

from repro.baselines import BanksSearch, XmlMlcaSearch
from repro.core import QunitCollection
from repro.core.store import CollectionStore, LoadOptions, SaveOptions
from repro.core.derivation import imdb_expert_qunits
from repro.core.search import QunitSearchEngine
from repro.datasets.imdb import generate_imdb
from repro.graph.data_graph import DataGraph
from repro.ir.retrieval import Searcher
from repro.utils.tables import ascii_table
from repro.xmlview import build_xml_view
from repro.xmlview.index import TreeTextIndex

QUERIES = ("star wars cast", "george clooney", "tom hanks movies",
           "the terminator box office")
SCALES_FULL = (0.15, 0.3, 0.6)
SCALES_SMOKE = (0.1,)


@pytest.fixture(scope="module")
def perf_scales(bench_full):
    return SCALES_FULL if bench_full else SCALES_SMOKE


def build_systems(scale: float):
    db = generate_imdb(scale=scale, seed=7)
    timings = {}
    start = time.perf_counter()
    collection = QunitCollection(db, imdb_expert_qunits(),
                                 max_instances_per_definition=100)
    engine = QunitSearchEngine(collection, flavor="expert")
    engine.best(QUERIES[0])  # build lazy indexes
    timings["qunits build"] = time.perf_counter() - start

    start = time.perf_counter()
    banks = BanksSearch(DataGraph(db))
    timings["banks build"] = time.perf_counter() - start

    start = time.perf_counter()
    root = build_xml_view(db)
    mlca = XmlMlcaSearch(root, TreeTextIndex(root))
    timings["mlca build"] = time.perf_counter() - start
    return db, {"qunits": engine, "banks": banks, "mlca": mlca}, timings


def mean_query_seconds(system) -> float:
    start = time.perf_counter()
    for query in QUERIES:
        system.best(query)
    return (time.perf_counter() - start) / len(QUERIES)


def test_scaling_table(benchmark, write_artifact, perf_scales):
    def sweep():
        rows = []
        for scale in perf_scales:
            db, systems, timings = build_systems(scale)
            row = [f"x{scale}", db.total_rows()]
            for name in ("qunits", "banks", "mlca"):
                row.append(f"{timings[f'{name} build']:.2f}s")
                row.append(f"{mean_query_seconds(systems[name]) * 1000:.1f}ms")
            rows.append(row)
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    artifact = ascii_table(
        ("scale", "rows",
         "qunits build", "qunits query",
         "banks build", "banks query",
         "mlca build", "mlca query"),
        rows, title="PERF: build cost and mean query latency by scale",
    )
    write_artifact("perf_scaling.txt", artifact)


@pytest.mark.parametrize("system_name", ["qunits", "banks", "mlca"])
def test_query_latency(benchmark, system_name, perf_scales):
    _db, systems, _timings = build_systems(max(perf_scales))
    system = systems[system_name]
    system.best("star wars cast")  # warm
    benchmark(system.best, "star wars cast")


# -- exhaustive vs top-k fast path -----------------------------------------


def _retrieval_workload(db, per_table: int) -> list[str]:
    """Entity-heavy queries sampled deterministically from the database."""
    queries = list(QUERIES)
    for table, column, suffix in (("movie", "title", " cast"),
                                  ("person", "name", " movies")):
        rows = list(db.table(table))
        step = max(1, len(rows) // per_table)
        for row in rows[::step][:per_table]:
            queries.append(f"{row[column]}{suffix}")
    return queries


def test_topk_fastpath_speedup(benchmark, write_artifact, bench_full,
                               perf_scales):
    """Exhaustive vs fast-path retrieval on the largest collection size.

    The fast path must be rank-identical (asserted here over the whole
    workload) and faster: cold measures snapshot + bound building plus
    scoring, warm measures the steady state with contribution arrays and
    the LRU result cache populated.
    """
    scale = max(perf_scales)
    db = generate_imdb(scale=scale, seed=7)
    collection = QunitCollection(
        db, imdb_expert_qunits(),
        max_instances_per_definition=300 if bench_full else 100,
    )
    collection.global_index()  # build the index outside all timings
    searcher = collection.searcher()
    queries = _retrieval_workload(db, per_table=60 if bench_full else 15)
    limit = 10

    def measure():
        # Cold: a fresh snapshot — pays for sorting postings and building
        # the per-term contribution/bound arrays, amortized over the batch.
        start = time.perf_counter()
        searcher.search_many(queries, limit)
        fast_cold_s = time.perf_counter() - start

        # Warm: steady state, contribution arrays and LRU cache populated.
        start = time.perf_counter()
        searcher.search_many(queries, limit)
        fast_warm_s = time.perf_counter() - start

        start = time.perf_counter()
        for query in queries:
            searcher.search_exhaustive(query, limit)
        exhaustive_s = time.perf_counter() - start
        return exhaustive_s, fast_cold_s, fast_warm_s

    exhaustive_s, fast_cold_s, fast_warm_s = benchmark.pedantic(
        measure, rounds=1, iterations=1)

    for query in queries:  # rank identity on the real workload
        fast = [(h.doc_id, h.score) for h in searcher.search(query, limit)]
        slow = [(h.doc_id, h.score)
                for h in searcher.search_exhaustive(query, limit)]
        assert fast == slow
    report = {
        "scale": scale,
        "documents": searcher.index.document_count,
        "queries": len(queries),
        "limit": limit,
        "exhaustive_s": round(exhaustive_s, 6),
        "fastpath_cold_s": round(fast_cold_s, 6),
        "fastpath_warm_s": round(fast_warm_s, 6),
        "speedup_cold": round(exhaustive_s / fast_cold_s, 3),
        "speedup_warm": round(exhaustive_s / fast_warm_s, 3),
    }
    write_artifact("perf_topk_fastpath.json", json.dumps(report, indent=2))
    assert report["speedup_warm"] > 1.0


# -- retrieval strategies: max-score vs WAND vs block-max -------------------


def _strategy_workload(db, analyzer, per_bucket: int,
                       lengths=(2, 4, 6)) -> dict[int, list[str]]:
    """Entity-anchored queries bucketed by *exact* analyzed token count.

    Each query pairs an entity value (movie title / person name — the
    selective terms that drive the WAND threshold up) with attribute
    suffixes (``cast``, ``awards``, ... — the common terms whose postings
    document-at-a-time skipping avoids).  Queries land in the bucket of
    their actual post-analysis token count, so the report's "query
    length" axis is exact, not approximate.
    """
    suffixes = ("cast", "cast crew", "cast crew awards",
                "cast crew awards genre", "cast box office opening year",
                "movies", "movies filmography awards",
                "movies filmography awards genre year")
    buckets: dict[int, list[str]] = {length: [] for length in lengths}
    values: list[str] = []
    for table, column in (("movie", "title"), ("person", "name")):
        rows = list(db.table(table))
        step = max(1, len(rows) // 150)
        values.extend(row[column] for row in rows[::step][:150])
    for value in values:
        for suffix in suffixes:
            query = f"{value} {suffix}"
            bucket = buckets.get(len(analyzer.tokens(query)))
            if bucket is not None and len(bucket) < per_bucket:
                bucket.append(query)
        if all(len(bucket) >= per_bucket for bucket in buckets.values()):
            break
    return buckets


def test_wand_strategies(benchmark, write_artifact, bench_full, perf_scales):
    """Term-at-a-time max-score vs document-at-a-time WAND vs block-max.

    All three strategies answer from the same snapshot and the same
    per-term contribution caches, so the comparison is pure algorithm:
    what each one *skips*.  Rank-and-score identity across strategies is
    asserted over the whole workload (the float-exactness contract of
    ``repro.ir.wand``).  On full-scale runs, WAND must deliver at least
    max-score throughput on the 4+-term buckets — the queries the
    ``auto`` strategy routes to it.
    """
    from repro.ir.scoring import Bm25Scorer
    from repro.ir.wand import retrieve

    scale = max(perf_scales)
    db = generate_imdb(scale=scale, seed=7)
    collection = QunitCollection(
        db, imdb_expert_qunits(),
        max_instances_per_definition=300 if bench_full else 100,
    )
    snapshot = collection.global_index().snapshot()
    analyzer = snapshot.analyzer
    scorer = Bm25Scorer()
    limit = 10
    strategies = ("maxscore", "wand", "blockmax")
    buckets = _strategy_workload(db, analyzer,
                                 per_bucket=60 if bench_full else 10)
    term_buckets = {
        length: [analyzer.tokens(query) for query in queries]
        for length, queries in buckets.items() if queries
    }
    repeats = 3 if bench_full else 1

    def measure():
        # One untimed pass builds the shared contribution arrays, so the
        # timed passes compare steady-state scoring only.
        for term_lists in term_buckets.values():
            for terms in term_lists:
                retrieve(snapshot, scorer, terms, limit, "maxscore")
        timings: dict[int, dict[str, float]] = {}
        for length, term_lists in term_buckets.items():
            timings[length] = {}
            for strategy in strategies:
                best = None
                for _ in range(repeats):
                    start = time.perf_counter()
                    for terms in term_lists:
                        retrieve(snapshot, scorer, terms, limit, strategy)
                    elapsed = time.perf_counter() - start
                    best = elapsed if best is None else min(best, elapsed)
                timings[length][strategy] = best
        return timings

    timings = benchmark.pedantic(measure, rounds=1, iterations=1)

    # Rank-and-score identity across every strategy, the whole workload.
    for term_lists in term_buckets.values():
        for terms in term_lists:
            expected = retrieve(snapshot, scorer, terms, limit, "maxscore")
            for strategy in ("wand", "blockmax", "auto"):
                assert retrieve(snapshot, scorer, terms, limit,
                                strategy) == expected

    bucket_rows = []
    long_totals = {strategy: 0.0 for strategy in strategies}
    long_queries = 0
    for length in sorted(term_buckets):
        entry = {
            "terms": length,
            "queries": len(term_buckets[length]),
            **{f"{strategy}_s": round(timings[length][strategy], 6)
               for strategy in strategies},
            "wand_speedup": round(
                timings[length]["maxscore"] / timings[length]["wand"], 3),
            "blockmax_speedup": round(
                timings[length]["maxscore"] / timings[length]["blockmax"], 3),
        }
        bucket_rows.append(entry)
        if length >= 4:
            long_queries += len(term_buckets[length])
            for strategy in strategies:
                long_totals[strategy] += timings[length][strategy]
    report = {
        "scale": scale,
        "documents": snapshot.document_count,
        "limit": limit,
        "scorer": "bm25",
        "repeats": repeats,
        "buckets": bucket_rows,
        # The headline numbers the nightly regression job tracks: the
        # 4+-term buckets, where `auto` routes queries to WAND.
        "long": {
            "terms_min": 4,
            "queries": long_queries,
            **{f"{strategy}_s": round(long_totals[strategy], 6)
               for strategy in strategies},
            "wand_speedup": round(
                long_totals["maxscore"] / long_totals["wand"], 3),
            "blockmax_speedup": round(
                long_totals["maxscore"] / long_totals["blockmax"], 3),
        },
    }
    write_artifact("BENCH_wand.json", json.dumps(report, indent=2))
    if bench_full:
        # The acceptance bar for document-at-a-time pruning: on long
        # queries WAND throughput must at least match term-at-a-time
        # max-score (it skips whole posting ranges the latter walks).
        assert report["long"]["wand_speedup"] >= 1.0


# -- cold start from persisted snapshots -----------------------------------


def _rss_kib() -> int:
    """Resident set size of this process in KiB (0 where unsupported)."""
    try:
        with open("/proc/self/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def test_cold_start_from_disk(benchmark, write_artifact, bench_full,
                              perf_scales, tmp_path_factory):
    """Derive-and-index versus restore-from-disk, same queries either way.

    Persistence splits the expensive derivation phase from query serving:
    the derive path pays for instance materialization and index building,
    the cold-start path only reads snapshot files.  Both ends answer the
    probe queries rank-identically (asserted).
    """
    from repro.ir.persist import open_scoring_snapshot, save_snapshot

    scale = max(perf_scales)
    max_instances = 300 if bench_full else 100
    db = generate_imdb(scale=scale, seed=7)
    out_dir = tmp_path_factory.mktemp("snapshots") / "collection"
    format_dir = tmp_path_factory.mktemp("snapshot-formats")
    probes = QUERIES[:2]

    def build_engine():
        collection = QunitCollection(
            db, imdb_expert_qunits(),
            max_instances_per_definition=max_instances)
        return QunitSearchEngine(collection, flavor="expert")

    def measure():
        # Derive path: definitions -> instances -> indexes -> first answers.
        # The flat index is forced up front — a server must be ready for
        # arbitrary queries, and that build is exactly what the persisted
        # snapshot replaces (fully-bound probes could otherwise dodge it).
        start = time.perf_counter()
        engine = build_engine()
        engine.collection.global_index()
        derived_answers = [engine.best(query) for query in probes]
        derive_s = time.perf_counter() - start

        start = time.perf_counter()
        engine.save(out_dir)
        save_s = time.perf_counter() - start

        # Cold start: a fresh process would do exactly this — load the
        # manifest + snapshots and serve (no derivation, no indexing).
        start = time.perf_counter()
        loaded = QunitSearchEngine.load(db, out_dir, flavor="expert")
        loaded_answers = [loaded.best(query) for query in probes]
        cold_s = time.perf_counter() - start

        # Worker cold start on the flat snapshot: mmap the v3 container
        # (header + term directory only — columns fault in on demand).
        snapshot = engine.collection.global_snapshot()
        v3_path = format_dir / "global-v3.snap"
        save_snapshot(snapshot, v3_path)
        rss_before = _rss_kib()
        start = time.perf_counter()
        view = open_scoring_snapshot(v3_path)
        load_v3_s = time.perf_counter() - start
        worker_rss_delta_kib = max(_rss_kib() - rss_before, 0)
        assert len(view) == 0 or view.vocabulary_size >= 0  # touched lazily
        return (derive_s, save_s, cold_s, load_v3_s, worker_rss_delta_kib,
                derived_answers, loaded_answers)

    (derive_s, save_s, cold_s, load_v3_s, worker_rss_delta_kib,
     derived_answers, loaded_answers) = \
        benchmark.pedantic(measure, rounds=1, iterations=1)

    for derived, loaded in zip(derived_answers, loaded_answers):
        assert derived.text == loaded.text
        assert derived.score == loaded.score
    snapshot_bytes = sum(
        entry.stat().st_size for entry in out_dir.iterdir())
    report = {
        "scale": scale,
        "max_instances_per_definition": max_instances,
        "probe_queries": len(probes),
        "derive_s": round(derive_s, 6),
        "save_s": round(save_s, 6),
        "cold_start_s": round(cold_s, 6),
        "cold_start_speedup": round(derive_s / cold_s, 3),
        "snapshot_bytes": snapshot_bytes,
        "load_v3_s": round(load_v3_s, 6),
        "worker_rss_delta_kib": worker_rss_delta_kib,
    }
    write_artifact("BENCH_cold_start.json", json.dumps(report, indent=2))
    if bench_full:
        # Restoring from disk must beat re-deriving — the reason to
        # persist.  Full scale only: at smoke sizes the derive cost is
        # milliseconds and the comparison is timing noise on a busy CI box.
        assert cold_s < derive_s


# -- sharded parallel retrieval vs the serial path -------------------------


def test_sharded_vs_serial(benchmark, write_artifact, bench_full,
                           perf_scales):
    """Hash-sharded parallel batch retrieval against the serial snapshot.

    Both paths run the same entity-heavy workload with result caches off,
    so the comparison is pure scoring; rank identity is asserted over the
    whole workload.  ``cold`` includes building contribution arrays (and,
    sharded, the partition + worker pool); ``warm`` is the steady state.
    The speedup assertion only applies on full-scale runs with real
    parallelism available (>= 2 CPUs) — shards cannot beat serial on one
    core.
    """
    scale = max(perf_scales)
    db = generate_imdb(scale=scale, seed=7)
    collection = QunitCollection(
        db, imdb_expert_qunits(),
        max_instances_per_definition=300 if bench_full else 100,
    )
    snapshot = collection.global_index().snapshot()
    queries = _retrieval_workload(db, per_table=60 if bench_full else 15)
    limit = 10
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)
    shards = max(2, min(4, cpus))
    parallelism = "process" if cpus >= 2 else "serial"

    serial = Searcher(snapshot, cache_size=0)
    sharded = Searcher(snapshot, cache_size=0, shards=shards,
                       parallelism=parallelism)

    def measure():
        start = time.perf_counter()
        serial.search_many(queries, limit)
        serial_cold_s = time.perf_counter() - start
        start = time.perf_counter()
        serial.search_many(queries, limit)
        serial_warm_s = time.perf_counter() - start

        start = time.perf_counter()
        sharded.search_many(queries, limit)
        sharded_cold_s = time.perf_counter() - start
        start = time.perf_counter()
        sharded.search_many(queries, limit)
        sharded_warm_s = time.perf_counter() - start
        return (serial_cold_s, serial_warm_s, sharded_cold_s,
                sharded_warm_s)

    (serial_cold_s, serial_warm_s, sharded_cold_s, sharded_warm_s,
     ) = benchmark.pedantic(measure, rounds=1, iterations=1)

    # Rank identity over the real workload, tie-breaks included.
    serial_hits = serial.search_many(queries, limit)
    sharded_hits = sharded.search_many(queries, limit)
    assert [[(h.doc_id, h.score) for h in hits] for hits in sharded_hits] == \
           [[(h.doc_id, h.score) for h in hits] for hits in serial_hits]
    sharded.close()

    report = {
        "scale": scale,
        "documents": snapshot.document_count,
        "queries": len(queries),
        "limit": limit,
        "shards": shards,
        "parallelism": parallelism,
        "cpus": cpus,
        "serial_cold_s": round(serial_cold_s, 6),
        "serial_warm_s": round(serial_warm_s, 6),
        "sharded_cold_s": round(sharded_cold_s, 6),
        "sharded_warm_s": round(sharded_warm_s, 6),
        "speedup_cold": round(serial_cold_s / sharded_cold_s, 3),
        "speedup_warm": round(serial_warm_s / sharded_warm_s, 3),
    }
    write_artifact("BENCH_sharded_scaling.json", json.dumps(report, indent=2))
    if bench_full and cpus >= 2:
        assert sharded_warm_s < serial_warm_s


# -- staged pipeline: batched vs sequential engine serving ------------------


def _pipeline_workload(db, snapshot, per_table: int,
                       freetext: int) -> list[str]:
    """Entity-heavy queries mixed with exploratory free-text pairs.

    The entity half exercises the structural path (segmentation,
    matching, materialization); the free-text half — pairs of
    mid-frequency vocabulary terms with no structural match — always
    falls through to flat IR backfill, the sharded dispatch whose
    batching the pipeline exists to exploit.  Real traffic is exactly
    this mix: head entity lookups plus a long tail of exploratory text.
    """
    queries = _retrieval_workload(db, per_table)
    terms = sorted(term for term in snapshot.terms()
                   if 2 <= snapshot.document_frequency(term) <= 50)
    step = max(1, len(terms) // max(1, 2 * freetext))
    picked = terms[::step]
    queries.extend(f"{picked[i]} {picked[i + 1]}"
                   for i in range(0, min(2 * freetext, len(picked) - 1), 2))
    return queries


def test_pipeline_batched_vs_sequential(benchmark, write_artifact,
                                        bench_full, perf_scales):
    """Batched engine serving against the sequential per-query path.

    Both engines are identical — sharded process-mode flat retrieval over
    separate but equal collections, so snapshots, searcher pools, and
    executors are independent.  The flat searchers' result caches are
    disabled, making the comparison pure pipeline + dispatch + scoring:
    the sequential path pays a shard dispatch (process IPC round trip)
    per query, while ``search_many`` runs the whole batch through the
    staged pipeline and groups flat retrieval into one dispatch per
    shard per round.  Answers are asserted identical over the entire
    workload (the property the pipeline is built on); on full-scale
    runs the batched path must deliver at least 1.2x the sequential
    throughput.
    """
    scale = max(perf_scales)
    db = generate_imdb(scale=scale, seed=7)
    max_instances = 300 if bench_full else 100
    shards = 4
    parallelism = "process"
    limit = 5

    def build_engine():
        collection = QunitCollection(
            db, imdb_expert_qunits(),
            max_instances_per_definition=max_instances,
            shards=shards, parallelism=parallelism)
        engine = QunitSearchEngine(collection, flavor="expert")
        collection.global_index()  # index build outside all timings
        # The workload's queries are all distinct, so the LRU could only
        # flatter whichever path runs second; disabling it keeps every
        # pass an honest dispatch + scoring measurement.
        engine.pipeline.searcher_for(None).cache_size = 0
        return engine

    # A throwaway probe supplies the workload's vocabulary and warms the
    # database's lazy caches (text index, statistics), so neither
    # engine's cold pass is skewed by one-time substrate costs that
    # would otherwise land entirely on whichever path runs first.
    probe = build_engine()
    queries = _pipeline_workload(
        db, probe.collection.global_snapshot(),
        per_table=60 if bench_full else 15,
        freetext=120 if bench_full else 20)
    probe.collection.close()
    sequential_engine = build_engine()
    batched_engine = build_engine()

    repeats = 3 if bench_full else 1

    def measure():
        # Cold: first pass pays the shard partition, worker pool spawn,
        # contribution-array builds, and first-binding materializations
        # (equal on both sides).  Warm passes measure the steady state;
        # best-of-``repeats`` guards the comparison against scheduler
        # jitter on a shared box (same policy as the WAND bench).
        start = time.perf_counter()
        for query in queries:
            sequential_engine.search(query, limit)
        sequential_cold_s = time.perf_counter() - start
        sequential_warm_s = None
        for _ in range(repeats):
            start = time.perf_counter()
            for query in queries:
                sequential_engine.search(query, limit)
            elapsed = time.perf_counter() - start
            sequential_warm_s = elapsed if sequential_warm_s is None \
                else min(sequential_warm_s, elapsed)

        start = time.perf_counter()
        batched_engine.search_many(queries, limit)
        batched_cold_s = time.perf_counter() - start
        batched_warm_s = None
        for _ in range(repeats):
            start = time.perf_counter()
            batched_engine.search_many(queries, limit)
            elapsed = time.perf_counter() - start
            batched_warm_s = elapsed if batched_warm_s is None \
                else min(batched_warm_s, elapsed)
        return (sequential_cold_s, sequential_warm_s,
                batched_cold_s, batched_warm_s)

    sequential_cold_s, sequential_warm_s, batched_cold_s, batched_warm_s = \
        benchmark.pedantic(measure, rounds=1, iterations=1)

    # Answer identity over the real workload — scores included.
    sequential_answers = [sequential_engine.search(query, limit)
                          for query in queries]
    batched_answers = batched_engine.search_many(queries, limit)
    assert [[(a.meta("instance_id"), a.score) for a in answers]
            for answers in batched_answers] == \
           [[(a.meta("instance_id"), a.score) for a in answers]
            for answers in sequential_answers]
    sequential_engine.collection.close()
    batched_engine.collection.close()

    report = {
        "scale": scale,
        "documents": batched_engine.collection.global_snapshot()
                     .document_count,
        "queries": len(queries),
        "limit": limit,
        "shards": shards,
        "parallelism": parallelism,
        "sequential_cold_s": round(sequential_cold_s, 6),
        "sequential_warm_s": round(sequential_warm_s, 6),
        "batched_cold_s": round(batched_cold_s, 6),
        "batched_warm_s": round(batched_warm_s, 6),
        "speedup_cold": round(sequential_cold_s / batched_cold_s, 3),
        "speedup_warm": round(sequential_warm_s / batched_warm_s, 3),
    }
    write_artifact("BENCH_pipeline.json", json.dumps(report, indent=2))
    if bench_full:
        # The acceptance bar for the staged pipeline: batched serving
        # must beat the sequential per-query loop by >= 1.2x.
        assert report["speedup_warm"] >= 1.2


# -- snapshot v2: deduplicated storage + Bloom-routed sharding --------------


def _longtail_workload(snapshot, count: int,
                       max_df: int = 3) -> list[list[str]]:
    """Long-tail term-pair queries — where Bloom routing can prove
    non-matches.

    Terms with document frequency <= ``max_df`` (genres, years, award
    names, alternate-title vocabulary) live in at most ``max_df`` shards,
    so most shards provably cannot match them.  Head terms (entity names
    decorate many qunit instances each) appear in every shard and route
    everywhere — routing is a long-tail optimization, which this workload
    measures honestly by *being* the long tail."""
    rare = sorted(term for term in snapshot.terms()
                  if snapshot.document_frequency(term) <= max_df)
    pairs = [[rare[i], rare[(i + 1) % len(rare)]]
             for i in range(0, len(rare), 2)]
    return pairs[:count]


def test_snapshot_v2_dedup_and_bloom_routing(benchmark, write_artifact,
                                             bench_full, perf_scales,
                                             tmp_path_factory):
    """The two claims behind deduplicated snapshot storage, measured
    together.

    Dedup: a saved generation stores every decorated instance document
    once (shared document store + doc_id refs) instead of once per
    snapshot file; it is measured against the same snapshots saved
    standalone (inline documents, same format), where dedup must win
    outright.
    Routing: per-shard term Bloom filters let ``ShardedTopK`` skip
    shards that provably cannot match a query, with results
    rank-identical to broadcasting (asserted over the workload).
    """
    from repro.ir.persist import save_snapshot
    from repro.ir.shard import ShardedTopK
    from repro.ir.scoring import Bm25Scorer

    scale = max(perf_scales)
    db = generate_imdb(scale=scale, seed=7)
    collection = QunitCollection(
        db, imdb_expert_qunits(),
        max_instances_per_definition=300 if bench_full else 100,
        shards=4, parallelism="serial",
    )
    snapshot = collection.global_snapshot()
    definition_snapshots = {
        name: collection._index_for(name).snapshot()
        for name in sorted(collection.definitions)}

    # -- on-disk dedup: the current (v3) generation vs standalone saves -----
    v3_dir = tmp_path_factory.mktemp("snapshot-v3") / "generation"
    start = time.perf_counter()
    # vectors=False: this benchmark scores the document-dedup layout;
    # the standalone saves below carry no vector extents, so a
    # like-for-like byte comparison must not either.
    CollectionStore(v3_dir).save(collection, SaveOptions(vectors=False))
    save_v3_s = time.perf_counter() - start
    # Like-for-like: exclude the manifest (identical either way) and the
    # per-shard files (the standalone layout has none to compare).
    v3_bytes = sum(
        entry.stat().st_size for entry in v3_dir.iterdir()
        if entry.name != "collection.json"
        and not entry.name.startswith("shard-"))

    standalone_dir = tmp_path_factory.mktemp("snapshot-v3-standalone")
    save_snapshot(snapshot, standalone_dir / "global.snap")
    for name, definition_snapshot in definition_snapshots.items():
        save_snapshot(definition_snapshot,
                      standalone_dir / f"def-{name}.snap")
    standalone_bytes = sum(entry.stat().st_size
                           for entry in standalone_dir.iterdir())
    v3_dedup_ratio = v3_bytes / standalone_bytes

    # -- Bloom routing vs broadcast on long-tail batches --------------------
    term_lists = _longtail_workload(snapshot,
                                    count=120 if bench_full else 40)
    limit = 10
    shards = 4
    scorer = Bm25Scorer()
    # Routing saves per-shard *task dispatch* plus scoring; the saving is
    # visible where a task has real cost — process-mode IPC — while in
    # serial mode skipping a near-empty topk_scores call is a wash
    # against the Bloom probes.  Unlike the sharded-vs-serial comparison,
    # this one does not need multiple cores: fewer dispatched tasks win
    # even on one CPU.
    parallelism = "process"
    routed = ShardedTopK(snapshot, shards, parallelism)
    broadcast = ShardedTopK(snapshot, shards, parallelism, route=False)

    def measure():
        # One dispatch per query — the serving mode where routing pays
        # (each query ships only to shards that might match it).  A
        # throwaway pass warms contribution caches and the worker pools,
        # so the timed passes compare pure scoring + dispatch.
        broadcast.topk_many(scorer, term_lists, limit)
        start = time.perf_counter()
        broadcast_results = [broadcast.topk_many(scorer, [terms], limit)[0]
                             for terms in term_lists]
        broadcast_s = time.perf_counter() - start

        routed.topk_many(scorer, term_lists, limit)
        start = time.perf_counter()
        routed_results = [routed.topk_many(scorer, [terms], limit)[0]
                          for terms in term_lists]
        routed_s = time.perf_counter() - start
        return broadcast_s, routed_s, broadcast_results, routed_results

    broadcast_s, routed_s, broadcast_results, routed_results = \
        benchmark.pedantic(measure, rounds=1, iterations=1)

    assert routed_results == broadcast_results  # rank-identical, float-exact
    stats = routed.routing_stats
    routed.close()
    broadcast.close()

    # Round-trip sanity: the deduplicated generation loads and serves.
    loaded = CollectionStore(v3_dir).load(
        db, LoadOptions(shards=shards, parallelism="serial", lazy=False))
    probe = QUERIES[0]
    assert [(h.doc_id, h.score)
            for h in loaded.searcher().search(probe, limit)] == \
           [(h.doc_id, h.score)
            for h in collection.searcher().search(probe, limit)]
    loaded.close()

    report = {
        "scale": scale,
        "documents": snapshot.document_count,
        "definitions": len(collection.definitions),
        "v3_layout_bytes": v3_bytes,
        "v3_standalone_bytes": standalone_bytes,
        "v3_dedup_ratio": round(v3_dedup_ratio, 4),
        "save_v3_s": round(save_v3_s, 6),
        "routing": {
            "queries": len(term_lists),
            "limit": limit,
            "shards": shards,
            "parallelism": parallelism,
            "broadcast_s": round(broadcast_s, 6),
            "routed_s": round(routed_s, 6),
            "speedup": round(broadcast_s / routed_s, 3) if routed_s else None,
            "query_pairs": stats["query_pairs"],
            "query_pairs_skipped": stats["query_pairs_skipped"],
            "shard_tasks": stats["shard_tasks"],
            "shard_tasks_skipped": stats["shard_tasks_skipped"],
        },
    }
    write_artifact("BENCH_snapshot_v2.json", json.dumps(report, indent=2))
    # Documents stored once: a strict win for the generation over
    # inlining them per file.
    assert v3_dedup_ratio < 1.0
    # Routing must prove whole shards irrelevant for some dispatches.
    assert stats["shard_tasks_skipped"] >= 1
    if bench_full:
        # With real per-task dispatch cost, skipped tasks are time saved.
        assert routed_s < broadcast_s
