"""One benchmark run: set up, serve, load, check, report.

The run's process is the server process: it loads the collection as
``repro serve DIR`` does and serves it with
:class:`~repro.serve.server.SearchServer` on its event loop.  The
collection is derived, indexed and saved by a builder process
(:mod:`perfbench.builder`) and load comes from a load process
(:mod:`perfbench.loadgen`).  Everything the run writes goes under
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import check, reference, stats, workloads
from perfbench.loadgen import answer_signature, read_response
from perfbench.trace import (
    STAGES,
    Tracer,
    children_index,
    exclusive_times,
    layer_times,
    same_layer_time,
)

from repro.core.qunit import QunitInstance
from repro.core.search import QunitSearchEngine, SearchRequest
from repro.core.store import CollectionStore
from repro.serve.server import SearchServer, ServerConfig

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
BUILDER = Path(__file__).resolve().parent / "builder.py"
LOADGEN = Path(__file__).resolve().parent / "loadgen.py"
REFERENCE = Path(__file__).resolve().parent / "reference.py"

#: Set-ups per run; ``setup_s`` is their median.  The last of the first
#: ``SETUPS_BEFORE`` serves the timed phase; the rest run after the
#: answer check, so the median samples the machine at both ends of the
#: run.
SETUPS = 3
SETUPS_BEFORE = 1
SETUP_PARTS = ("build_s", "save_s", "load_s", "start_s")
#: Seconds of load from the load process before the timed phase, after
#: the in-process warm-up (connection open, first requests parsed).
WARMUP_S = 1.0
#: How far a timed phase may run past ``--seconds`` to collect the
#: samples its tail percentile needs (see :func:`run_phase`).
MAX_STRETCH = 3
#: ``repro serve`` defaults: 2 ms window, batches of at most 32.  The
#: engine keeps its default pipeline config, which has no result cache.
SERVER_CONFIG = ServerConfig(window=0.002, max_batch=32, queue_limit=256)
REFUSED = (429, 503, 504)

clock = time.monotonic


@dataclass
class Served:
    """A running server and what its set-up took (seconds: ``build_s``,
    ``save_s``, ``load_s``, ``start_s`` and their sum, ``setup_s``;
    empty for :func:`start_loaded`)."""

    directory: Path
    engine: QunitSearchEngine
    server: SearchServer
    timings: dict = field(default_factory=dict)


class Builder:
    """The builder process (:mod:`perfbench.builder`)."""

    def __init__(self, process) -> None:
        self.process = process

    @classmethod
    async def start(cls) -> "Builder":
        process = await asyncio.create_subprocess_exec(
            sys.executable, str(BUILDER), stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE)
        builder = cls(process)
        if (await process.stdout.readline()).strip() != b"ready":
            await builder.close()
            raise RuntimeError("builder process did not start")
        return builder

    async def build(self, directory: Path) -> dict:
        """Derive, index and save a collection into ``directory``."""
        self.process.stdin.write(f"{directory}\n".encode("utf-8"))
        await self.process.stdin.drain()
        line = await self.process.stdout.readline()
        if not line:
            raise RuntimeError("builder process failed")
        return json.loads(line)

    async def close(self) -> None:
        if self.process.returncode is None:
            self.process.stdin.close()
            try:
                await asyncio.wait_for(self.process.wait(), 10)
            except asyncio.TimeoutError:
                self.process.kill()
                await self.process.wait()


async def set_up(builder: Builder, directory: Path) -> Served:
    """Derive and index the collection and save it (in the builder
    process), load it as ``repro serve DIR`` does, and start the
    server: the span ``setup_s`` times, as the sum of its parts.
    Generating the database is input generation, not set-up."""
    timings = await builder.build(directory)
    started = clock()
    engine = QunitSearchEngine.load(workloads.database(), directory,
                                    flavor="expert")
    loaded = clock()
    server = SearchServer(engine, SERVER_CONFIG)
    await server.start()
    ready = clock()
    timings.update(load_s=loaded - started, start_s=ready - loaded)
    timings["setup_s"] = sum(timings[key] for key in SETUP_PARTS)
    return Served(directory, engine, server, timings)


async def start_loaded(directory: Path) -> Served:
    """A second server over an already saved directory (the traced
    phase of ``--trace 1``)."""
    engine = QunitSearchEngine.load(workloads.database(), directory,
                                    flavor="expert")
    server = SearchServer(engine, SERVER_CONFIG)
    await server.start()
    return Served(directory, engine, server)


# -- ingestion --------------------------------------------------------------


@dataclass
class Ingest:
    """What the writer committed, and how long each commit took."""

    commit_s: list = field(default_factory=list)
    instance_ids: list = field(default_factory=list)
    titles: list = field(default_factory=list)
    staged_bytes: int = 0
    bytes_before: int = 0
    bytes_after: int = 0
    journal_segments: int = 0


def directory_bytes(directory: Path) -> int:
    return sum(path.stat().st_size for path in directory.rglob("*")
               if path.is_file())


def ingest(served: Served, batches) -> Ingest:
    """Stage and commit ``batches``, one commit each, through one
    ``CollectionWriter`` on the served collection."""
    result = Ingest(bytes_before=directory_bytes(served.directory))
    collection = served.engine.collection
    definition = collection.definition(workloads.INGEST_DEFINITION)
    writer = CollectionStore(served.directory).writer(collection)
    for batch in batches:
        for title, summary in batch:
            instance = QunitInstance(definition, {"x": title},
                                     [{"title": title, "summary": summary}])
            writer.stage_instance(instance)
            result.instance_ids.append(instance.instance_id)
            result.titles.append(title)
            result.staged_bytes += len(instance.text().encode("utf-8"))
        started = clock()
        report = writer.commit()
        result.commit_s.append(clock() - started)
        result.journal_segments = report.journal_segments
    result.bytes_after = directory_bytes(served.directory)
    return result


def warm(served: Served, queries) -> None:
    """Replay ``queries`` in-process, 32 at a time, before any load: the
    materialization memo, lazily loaded snapshots and searchers of a
    freshly loaded collection fill the way traffic fills them in a
    long-running server."""
    execute = served.engine.execute
    queries = list(queries)
    for i in range(0, len(queries), workloads.BATCH_QUERIES):
        execute([SearchRequest(query=query, limit=workloads.RESULT_LIMIT)
                 for query in queries[i:i + workloads.BATCH_QUERIES]])


# -- the load process -------------------------------------------------------


@dataclass
class Phase:
    """One timed phase: what the load process saw and what the server
    counted."""

    records: list
    signatures: list
    t0: float
    t1: float
    stats0: dict
    stats1: dict
    counts0: dict
    counts1: dict
    lazy_loads: int
    peak_rss_mb: float


async def run_phase(inputs: workloads.Inputs, served: Served, seconds: int,
                    tracer: Tracer | None = None) -> Phase:
    """Warm ``served`` up, then drive it from the load process for
    ``WARMUP_S`` plus ``seconds``."""
    await asyncio.to_thread(warm, served, inputs.warmup)
    host, port = served.server.address
    process = await asyncio.create_subprocess_exec(
        sys.executable, str(LOADGEN), stdin=asyncio.subprocess.PIPE,
        stdout=asyncio.subprocess.PIPE, limit=1 << 28)
    try:
        job = {"host": host, "port": port, "path": workloads.PATH,
               "bodies": inputs.bodies()}
        process.stdin.write(json.dumps(job).encode("utf-8") + b"\n")
        await process.stdin.drain()
        if (await process.stdout.readline()).strip() != b"ready":
            raise RuntimeError("load process did not start")
        # Warm up for WARMUP_S and until two requests are answered, so
        # no first-request cost lands in the timed phase.
        warm_until = clock() + WARMUP_S
        served_min = 2 * inputs.workload.batch
        while clock() < warm_until or \
                served.server.stats()["served"] < served_min:
            await asyncio.sleep(0.05)
        counts = tracer.counts if tracer is not None else {}
        t0 = clock()
        stats0, counts0 = served.server.stats(), dict(counts)
        await asyncio.sleep(seconds)
        # A machine too slow to answer enough requests in ``seconds``
        # for the workload's tail percentile measures on until it has
        # (the request in flight at t0 does not count), for at most
        # MAX_STRETCH times ``seconds``.
        workload = inputs.workload
        needed = (stats.min_samples(workload.tail) + 2) * workload.batch
        deadline = t0 + seconds * MAX_STRETCH
        while served.server.stats()["served"] - stats0["served"] < needed \
                and clock() < deadline:
            await asyncio.sleep(0.1)
        t1 = clock()
        stats1, counts1 = served.server.stats(), dict(counts)
        process.stdin.write(b"stop\n")
        await process.stdin.drain()
        line = await process.stdout.readline()
        if await process.wait() != 0 or not line:
            raise RuntimeError("load process failed")
        result = json.loads(line)
    finally:
        if process.returncode is None:
            process.kill()
            await process.wait()
    return Phase(records=result["records"], signatures=result["signatures"],
                 t0=t0, t1=t1, stats0=stats0, stats1=stats1,
                 counts0=counts0, counts1=counts1,
                 lazy_loads=served.engine.collection.lazy_loads,
                 peak_rss_mb=resource.getrusage(
                     resource.RUSAGE_SELF).ru_maxrss / 1024)


# -- wire helpers -----------------------------------------------------------


async def ask_over_wire(served: Served, queries, strategy) -> dict[str, str]:
    """Each query's answer signature over ``POST /search/batch``."""
    host, port = served.server.address
    reader, writer = await asyncio.open_connection(host, port)
    answers: dict[str, str] = {}
    try:
        queries = list(queries)
        for i in range(0, len(queries), workloads.BATCH_QUERIES):
            chunk = queries[i:i + workloads.BATCH_QUERIES]
            body = json.dumps({"requests": [
                workloads.request_dict(query, strategy)
                for query in chunk]}).encode("utf-8")
            writer.write(f"POST /search/batch HTTP/1.1\r\nHost: {host}\r\n"
                         f"Content-Length: {len(body)}\r\n\r\n"
                         .encode("latin-1") + body)
            await writer.drain()
            status, payload = await read_response(reader)
            if status != 200:
                raise RuntimeError(f"check request answered {status}")
            for query, response in zip(chunk,
                                       json.loads(payload)["responses"]):
                answers[query] = answer_signature(response["answers"])
    finally:
        writer.close()
        await writer.wait_closed()
    return answers


async def reference_answers(directory: Path, queries,
                            strategy) -> dict[str, str]:
    """The reference answers (:mod:`perfbench.reference`), computed on
    two cores: every other query in a second process, the rest here."""
    queries = list(queries)
    process = await asyncio.create_subprocess_exec(
        sys.executable, str(REFERENCE), stdin=asyncio.subprocess.PIPE,
        stdout=asyncio.subprocess.PIPE, limit=1 << 28)
    try:
        process.stdin.write(json.dumps({
            "directory": str(directory), "queries": queries[1::2],
            "strategy": strategy}).encode("utf-8") + b"\n")
        await process.stdin.drain()
        process.stdin.close()
        answers = await asyncio.to_thread(
            reference.reference_answers, directory, queries[::2], strategy)
        line = await process.stdout.readline()
        if await process.wait() != 0 or not line:
            raise RuntimeError("reference process failed")
    finally:
        if process.returncode is None:
            process.kill()
            await process.wait()
    answers.update(json.loads(line))
    return answers


def missing_documents(answers: dict[str, str], ingested: Ingest) -> int:
    """Committed documents whose title query does not return them."""
    missing = 0
    for title, instance_id in zip(ingested.titles, ingested.instance_ids):
        ids = [pair[0] for pair in json.loads(answers[title])]
        missing += instance_id not in ids
    return missing


# -- the run ----------------------------------------------------------------


def _queries_of(inputs: workloads.Inputs, record) -> tuple[str, ...]:
    return inputs.requests[record[3]]


def observed_answers(inputs, phase: Phase) -> dict:
    """Per query, how often each answer signature came back in the
    timed phase."""
    observed: dict[str, Counter] = {}
    for record in timed_records(phase):
        if record[2] != 200:
            continue
        for query, signature in zip(_queries_of(inputs, record), record[4]):
            observed.setdefault(query, Counter())[
                phase.signatures[signature]] += 1
    return observed


def _sent_order(inputs, phase: Phase) -> tuple[list[str], list[str]]:
    """The queries the server saw before the timed phase (warm-up
    first), and the timed phase's, each in send order."""
    earlier: list[str] = list(inputs.warmup)
    timed: list[str] = []
    for record in sorted(phase.records, key=lambda record: record[0]):
        if record[0] < phase.t0:
            earlier.extend(_queries_of(inputs, record))
        elif record[1] <= phase.t1:
            timed.extend(_queries_of(inputs, record))
    return earlier, timed


def timed_records(phase: Phase) -> list:
    """Requests sent and answered inside the timed phase."""
    return [record for record in phase.records
            if record[0] >= phase.t0 and record[1] <= phase.t1]


def throughput(window: list, sizes: list[int]) -> float:
    """Queries per second from the first send to the last answer of the
    timed phase's requests."""
    if not window:
        raise RuntimeError("no request completed in the timed phase; "
                           "raise --seconds")
    span = max(record[1] for record in window) - \
        min(record[0] for record in window)
    return sum(sizes) / span


async def run(workload_name: str, seed: int, seconds: int, trace: bool,
              corrupt_reference: bool = False) -> dict:
    """One run; returns the result line plus the report details."""
    marks = [("start", clock())]
    workload = workloads.WORKLOADS[workload_name]
    inputs = workloads.build_inputs(workload, seed)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    setups: list[dict] = []
    served: Served | None = None
    tracer = None
    builder: Builder | None = None
    marks.append(("inputs_s", clock()))
    try:
        builder = await Builder.start()
        for i in range(SETUPS_BEFORE):
            served = await next_set_up(builder, served, work, i, setups)
        marks.append(("setups_s", clock()))
        untraced = await run_phase(inputs, served, seconds)
        if trace:
            await served.server.close()
            served = None
            tracer = Tracer()
            tracer.install()
            served = await start_loaded(work / "collection-0")
            phase = await run_phase(inputs, served, seconds, tracer)
            tracer.uninstall()
        else:
            phase = untraced
        marks.append(("phases_s", clock()))
        report = await finish(inputs, served, phase, corrupt_reference)
        marks.append(("checks_s", clock()))
        for i in range(SETUPS_BEFORE, SETUPS):
            served = await next_set_up(builder, served, work, i, setups)
        marks.append(("late_setups_s", clock()))
        report["setup"] = {key: statistics.median(
            setup[key] for setup in setups)
            for key in ("setup_s", *SETUP_PARTS)}
        report["setup"]["setup_s_all"] = [setup["setup_s"]
                                          for setup in setups]
        report["environment"]["run_s"] = {
            name: round(mark - previous, 3)
            for (_, previous), (name, mark) in zip(marks, marks[1:])}
        if trace:
            report["trace"] = trace_metrics(
                tracer, inputs, phase, report, untraced)
            tracer.write(OUT / f"spans-{workload_name}-{seed}.jsonl")
        return report
    finally:
        if tracer is not None:
            tracer.uninstall()
        if served is not None:
            await served.server.close()
        if builder is not None:
            await builder.close()
        shutil.rmtree(work, ignore_errors=True)


async def next_set_up(builder: Builder, served: Served | None, work: Path,
                      i: int, setups: list) -> Served:
    """Close ``served`` and set up the run's ``i``-th server."""
    if served is not None:
        await served.server.close()
        served = None
    gc.collect()
    served = await set_up(builder, work / f"collection-{i}")
    setups.append(served.timings)
    return served


async def finish(inputs, served: Served, phase: Phase,
                 corrupt_reference: bool) -> dict:
    """After the timed phase: check its answers against the reference,
    make the run's commits and check every committed document is found,
    and compute the end-to-end figures."""
    workload = inputs.workload
    strategy = workload.strategy
    window = timed_records(phase)
    sizes = [len(_queries_of(inputs, record)) for record in window]
    attempted = sum(sizes)
    refused = sum(size for record, size in zip(window, sizes)
                  if record[2] in REFUSED)
    failed = sum(size for record, size in zip(window, sizes)
                 if record[2] not in REFUSED and record[2] != 200)
    observed = observed_answers(inputs, phase)
    reference = await reference_answers(served.directory, sorted(observed),
                                        strategy)
    if corrupt_reference:
        reference = check.corrupt(reference)
    checked = check.compare(observed, reference)
    ingested = await asyncio.to_thread(ingest, served, inputs.ingest)
    found = await ask_over_wire(served, ingested.titles, None)
    missing = missing_documents(found, ingested)

    latencies = [(record[1] - record[0]) * 1000.0 for record in window
                 if record[2] == 200]
    tail_q, tail_ms, beyond = stats.select_tail(latencies, workload.tail)
    earlier, timed = _sent_order(inputs, phase)
    errors = failed + refused + checked.wrong
    return {
        "correct": checked.wrong == 0 and missing == 0,
        "attempted": attempted,
        "failed": errors,
        "end_to_end": {
            "queries_per_s": throughput(window, sizes),
            "latency_p50_ms": statistics.median(latencies),
            "latency_tail_ms": tail_ms,
            "ok_rate": 1.0 - errors / attempted,
            "peak_rss_mb": phase.peak_rss_mb,
        },
        "errors": {"error_rate": errors / attempted, "failed": failed,
                   "refused": refused, "wrong": checked.wrong,
                   "missing_committed": missing,
                   "examples": checked.examples},
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "scale": workloads.SCALE,
            "database_seed": workloads.DATABASE_SEED,
            "seed": inputs.seed,
            "workload": workload.name,
            "connections": 1,
            "requests": len(window),
            "queries": attempted,
            "distinct_queries_checked": checked.queries,
            "answers_checked": checked.responses,
            "tail_percentile": tail_q,
            "tail_samples": len(latencies),
            "tail_samples_beyond": beyond,
            "repetition_rate": workloads.repetition_rate(earlier, timed),
            "commits": len(ingested.commit_s),
            "timed_s": phase.t1 - phase.t0,
        },
        "ingest": ingested,
        "window": window,
        "sizes": sizes,
        "latencies": latencies,
    }


def trace_metrics(tracer: Tracer, inputs, phase: Phase, report: dict,
                  untraced: Phase) -> dict:
    """The per-layer metrics of a traced phase."""
    t0, t1 = phase.t0, phase.t1
    spans = tracer.spans
    exclusive = exclusive_times(spans)
    children = children_index(spans)
    window = [span for span in spans if t0 <= span.end <= t1]
    by_name: dict[str, list] = {}
    for span in window:
        by_name.setdefault(span.name, []).append(span)
    executes = {span.request: span for span in spans
                if span.name == "QunitSearchEngine.execute"}
    batch_of = {request: batch
                for batch, members in tracer.batch_members.items()
                for request in members}
    counts = {key: phase.counts1.get(key, 0) - phase.counts0.get(key, 0)
              for key in set(phase.counts1) | set(phase.counts0)}
    window_executes = by_name.get("QunitSearchEngine.execute", [])
    queries = sum(len(tracer.batch_members[span.request])
                  for span in window_executes)
    submits = [span for span in by_name.get("MicroBatcher.submit", [])
               if batch_of.get(span.request) in executes]
    layer_cache: dict[str, dict] = {}

    def batch_layers(batch: str) -> dict:
        if batch not in layer_cache:
            layer_cache[batch] = layer_times(executes[batch], children,
                                             exclusive)
        return layer_cache[batch]

    def per_query_ms(names) -> float:
        total = sum(same_layer_time(span, children, exclusive)
                    for name in names for span in by_name.get(name, []))
        return total / queries * 1000.0

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    # Latency ledger: each query's socket latency splits into the front
    # end outside the batcher, the wait inside it, and its batch's
    # pipeline time, which splits by layer.
    window_records = report["window"]
    sizes = report["sizes"]
    latency_q = ratio(sum((record[1] - record[0]) * size
                          for record, size in zip(window_records, sizes)
                          if record[2] == 200),
                      sum(size for record, size in zip(window_records, sizes)
                          if record[2] == 200))
    submit_q = ratio(sum(span.duration for span in submits), len(submits))
    execute_q = ratio(sum(executes[batch_of[span.request]].duration
                          for span in submits), len(submits))
    pipeline_layers: dict[str, float] = {}
    for span in submits:
        for layer, seconds in batch_layers(batch_of[span.request]).items():
            pipeline_layers[layer] = pipeline_layers.get(layer, 0.0) + seconds
    share = {layer: ratio(seconds / len(submits), latency_q)
             for layer, seconds in pipeline_layers.items()}
    share["serve.server"] = ratio(latency_q - submit_q, latency_q)
    share["serve.batcher"] = ratio(submit_q - execute_q, latency_q)

    stats0, stats1 = phase.stats0, phase.stats1
    http_requests = len(window_records)
    codec = sum(exclusive[span.id]
                for name in ("SearchRequest.from_dict",
                             "SearchResponse.to_dict")
                for span in by_name.get(name, []))
    waits = [span.duration - executes[batch_of[span.request]].duration
             for span in submits]
    ingested = report["ingest"]
    traced_qps = report["end_to_end"]["queries_per_s"]
    untraced_report_qps = _phase_qps(inputs, untraced)
    setup = report["setup"]
    metrics = {
        "serve.server.codec_ms": ratio(codec, http_requests) * 1000.0,
        "serve.server.overhead_ms":
            statistics.median(report["latencies"])
            - statistics.median(span.duration for span in submits) * 1000.0,
        "serve.server.rejected": stats1["rejected"] - stats0["rejected"],
        "serve.server.timeouts": stats1["timeouts"] - stats0["timeouts"],
        "serve.server.latency_share": share["serve.server"],
        "serve.batcher.wait_ms": statistics.median(waits) * 1000.0,
        "serve.batcher.batch_size": ratio(queries, len(window_executes)),
        "serve.batcher.batches": len(window_executes),
        "serve.batcher.latency_share": share["serve.batcher"],
        "serve.pipeline.execute_ms": ratio(
            sum(span.duration for span in window_executes),
            len(window_executes)) * 1000.0,
        "serve.pipeline.latency_share": share.get("serve.pipeline", 0.0),
        **{f"serve.stages.{stage}_ms": per_query_ms(
            [f"{stage.capitalize()}Stage.run"]) for stage in STAGES},
        "serve.stages.latency_share": share.get("serve.stages", 0.0),
        "ir.retrieval.search_ms": per_query_ms(["Searcher.search_many"]),
        "ir.retrieval.calls_per_query":
            ratio(counts.get("retrieval_queries", 0), queries),
        "ir.retrieval.cache_hit_rate": ratio(
            counts.get("retrieval_hits", 0),
            counts.get("retrieval_hits", 0)
            + counts.get("retrieval_misses", 0)),
        "ir.retrieval.repetition_rate":
            report["environment"]["repetition_rate"],
        "ir.retrieval.latency_share": share.get("ir.retrieval", 0.0),
        "ir.vector.topk_ms": per_query_ms(["VectorIndex.topk"]),
        "ir.vector.rrf_ms": per_query_ms(["reciprocal_rank_fusion"]),
        "ir.embed.query_ms": per_query_ms(["HashingEmbedder.embed_query"]),
        "ir.vector.latency_share": share.get("ir.vector", 0.0),
        "ir.analysis.tokens_calls_per_query":
            ratio(counts.get("tokens", 0), queries),
        "core.collection.build_s": setup["build_s"],
        "core.collection.materialize_calls":
            ratio(counts.get("materialize", 0), queries),
        "core.collection.lazy_loads": phase.lazy_loads,
        "core.store.save_s": setup["save_s"],
        "core.store.load_s": setup["load_s"],
        "core.store.commit_ms":
            statistics.median(ingested.commit_s) * 1000.0,
        "core.store.journal_segments": ingested.journal_segments,
        "core.store.bytes_per_ingested_byte":
            (ingested.bytes_after - ingested.bytes_before)
            / ingested.staged_bytes,
        "trace.queries_per_s": traced_qps,
        "trace.overhead_ratio": traced_qps / untraced_report_qps,
    }
    return metrics


def _phase_qps(inputs, phase: Phase) -> float:
    window = timed_records(phase)
    return throughput(window, [len(_queries_of(inputs, record))
                               for record in window])
