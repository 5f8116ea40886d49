"""The benchmark's workloads and the seeded inputs they send.

Every input is a pure function of ``(workload, seed)``: the synthetic
database is fixed (scale 0.3, database seed 7, the ``repro serve``
default) and the seed picks the traffic: which user sessions arrive, in
what order, how they are paraphrased, and what the writer ingests.

Both workloads send ``POST /search/batch`` requests over one keep-alive
connection, closed loop, to a server with the result cache off.
"""

from __future__ import annotations

import functools
import json
import random
import re
from dataclasses import dataclass

from repro.datasets.imdb import generate_imdb
from repro.datasets.querylog import SessionLogGenerator
from repro.eval.paraphrase import paraphrase_query

SCALE = 0.3
DATABASE_SEED = 7
INSTANCES_PER_DEFINITION = 150
RESULT_LIMIT = 5
PATH = "/search/batch"
#: Queries per request of ``bulk``, of the in-process warm-up and of the
#: answer checks sent over the wire.
BATCH_QUERIES = 32
#: Commits per run and documents staged per commit.  Every run makes
#: them back to back once its timed phase and answer check are over.
COMMITS = 8
DOCUMENTS_PER_COMMIT = 16
#: The definition ingested documents join.
INGEST_DEFINITION = "movie_main_page"
#: Sessions replayed in-process before the load starts.  A freshly
#: loaded collection runs SQL for every binding it materializes for the
#: first time, so on session traffic the first few thousand queries,
#: hybrid ones included, take up to three times their steady-state
#: time; a long-running server has paid that long ago.  They are drawn
#: with a seed of their own, so they share the traffic's popular
#: entities but not its exact queries.
WARMUP_SESSIONS = 1500
WARMUP_SEED_OFFSET = 1_000_003


@dataclass(frozen=True)
class Workload:
    """One traffic mix.

    Attributes:
        name: the ``--workload`` value.
        strategy: the retrieval strategy every request asks for
            (``None`` = the engine default).
        batch: queries per request.
        sessions: user sessions generated for the stream; enough that
            the connection does not run out of queries in a run.
        tail: the tail percentile reported (see
            :func:`perfbench.stats.select_tail`).
    """

    name: str
    strategy: str | None
    batch: int
    sessions: int
    tail: int


#: ``hybrid`` sends 4 queries per request, not 32: a hybrid query costs
#: about 20 ms, so 32-query requests gave only ~25 latency samples in a
#: 15 s phase, too few for a tail with ten samples beyond it.  The
#: cosine scan is per query, so the batch size does not change its work.
#: Both report p90, the percentile their bounds were tuned on; ``bulk``
#: answered 200-250 requests in 15 s, which left p95 on the edge of ten
#: samples beyond it.
WORKLOADS = {
    workload.name: workload for workload in (
        Workload(name="bulk", strategy=None, batch=BATCH_QUERIES,
                 sessions=20000, tail=90),
        Workload(name="hybrid", strategy="hybrid", batch=4,
                 sessions=4000, tail=90),
    )
}


@dataclass(frozen=True)
class Inputs:
    """Everything one run sends, generated from ``(workload, seed)``.

    Attributes:
        workload: the workload spec.
        seed: the workload seed.
        requests: the queries of each request, in send order.
        warmup: the queries replayed in-process before timing.
        ingest: :data:`COMMITS` batches of :data:`DOCUMENTS_PER_COMMIT`
            ``(title, summary)`` pairs; each title is two made-up words
            no other document contains, so a query for the title finds
            exactly that document.
    """

    workload: Workload
    seed: int
    requests: tuple[tuple[str, ...], ...]
    warmup: tuple[str, ...]
    ingest: tuple[tuple[tuple[str, str], ...], ...]

    def bodies(self) -> list[str]:
        """The request bodies as JSON text, in send order."""
        strategy = self.workload.strategy
        return [json.dumps({"requests": [request_dict(query, strategy)
                                         for query in queries]})
                for queries in self.requests]


def request_dict(query: str, strategy: str | None) -> dict:
    """One ``SearchRequest`` in wire form."""
    data = {"query": query, "limit": RESULT_LIMIT}
    if strategy is not None:
        data["strategy"] = strategy
    return data


@functools.cache
def database():
    """The fixed synthetic database every workload serves (generated
    once per process)."""
    return generate_imdb(scale=SCALE, seed=DATABASE_SEED)


def _session_queries(seed: int, sessions: int) -> list[str]:
    return [query for session in SessionLogGenerator(
                database(), seed=seed).generate(sessions)
            for query in session.queries]


def build_inputs(workload: Workload, seed: int) -> Inputs:
    """The seeded inputs of one run of ``workload``."""
    queries = _session_queries(seed, workload.sessions)
    if workload.strategy == "hybrid":
        queries = distinct_paraphrases(queries, seed)
    size = workload.batch
    requests = tuple(tuple(queries[i:i + size])
                     for i in range(0, len(queries) - size + 1, size))
    warmup = tuple(_session_queries(seed + WARMUP_SEED_OFFSET,
                                    WARMUP_SESSIONS))
    return Inputs(workload=workload, seed=seed, requests=requests,
                  warmup=warmup, ingest=ingest_documents(seed))


def _terms(query: str) -> tuple[str, ...]:
    return tuple(sorted(set(re.findall(r"[a-z0-9]+", query.lower()))))


def distinct_paraphrases(queries: list[str], seed: int) -> list[str]:
    """Seeded paraphrases of ``queries`` (:func:`repro.eval.paraphrase.
    paraphrase_query`), keeping only the first paraphrase of each term
    set, so no two requests can share a retrieval cache entry."""
    seen: set[tuple[str, ...]] = set()
    distinct = []
    for i, query in enumerate(queries):
        paraphrase = paraphrase_query(query, seed=seed * 1_000_003 + i)
        terms = _terms(paraphrase)
        if terms and terms not in seen:
            seen.add(terms)
            distinct.append(paraphrase)
    return distinct


_SYLLABLES = ("ka", "zo", "vy", "qu", "re", "mi", "tal", "dor", "pex", "wun",
              "jir", "fo", "gle", "bri", "xan", "lu")
_SUMMARY_WORDS = ("film", "story", "cast", "director", "award", "drama",
                  "comedy", "sequel", "soundtrack", "premiere", "festival",
                  "studio", "review", "character", "adventure", "mystery")


def ingest_documents(seed: int) -> tuple[tuple[tuple[str, str], ...], ...]:
    """:data:`COMMITS` batches of made-up movie pages for the writer.

    Titles are two words of four syllables each, unique within the run
    and absent from the database vocabulary; summaries use common movie
    words, so ingested pages also shift the scores of ordinary queries.
    """
    rng = random.Random(f"perfbench-ingest-{seed}")
    used: set[str] = set()

    def word() -> str:
        while True:
            candidate = "".join(rng.choice(_SYLLABLES) for _ in range(4))
            if candidate not in used:
                used.add(candidate)
                return candidate

    batches = []
    for _ in range(COMMITS):
        batch = []
        for _ in range(DOCUMENTS_PER_COMMIT):
            title = f"{word()} {word()}"
            summary = " ".join(rng.choice(_SUMMARY_WORDS) for _ in range(12))
            batch.append((title, summary))
        batches.append(tuple(batch))
    return tuple(batches)


def repetition_rate(earlier: list[str], timed: list[str]) -> float:
    """The share of ``timed`` queries the server had already seen, in
    ``earlier`` or earlier in ``timed``: the hit-rate ceiling of a
    cache keyed on the query (a query's first occurrence is not a
    repetition)."""
    seen = set(earlier)
    repeated = 0
    for query in timed:
        if query in seen:
            repeated += 1
        else:
            seen.add(query)
    return repeated / len(timed) if timed else 0.0
