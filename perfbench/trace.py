"""Spans and counts around the program's public functions.

:class:`Tracer` wraps the functions each layer is entered through, from
the outside (the program carries no tracing code of its own), and
records one span per call: id, parent, name, start, end and request
id.  Spans stay in memory until the run ends.  Counts are kept at the
same boundaries.

A span's *exclusive* time is its duration minus its children's.  A
layer's time inside a span is the exclusive time of every span of that
layer in its subtree: the attribution a flame graph makes.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

#: Layer of every traced function.  The names are the benchmark's
#: per-layer metric prefixes (see ``perfbench/README.md``).
LAYER_OF = {
    "SearchRequest.from_dict": "serve.server",
    "SearchResponse.to_dict": "serve.server",
    "MicroBatcher.submit": "serve.batcher",
    "QunitSearchEngine.execute": "serve.pipeline",
    "SegmentStage.run": "serve.stages",
    "MatchStage.run": "serve.stages",
    "PlanStage.run": "serve.stages",
    "ExecuteStage.run": "serve.stages",
    "AssembleStage.run": "serve.stages",
    "QuerySegmenter.segment_many": "serve.stages",
    "QunitMatcher.match_many": "serve.stages",
    "Searcher.search_many": "ir.retrieval",
    "VectorIndex.topk": "ir.vector",
    "reciprocal_rank_fusion": "ir.vector",
    "HashingEmbedder.embed_query": "ir.vector",
}

STAGES = ("segment", "match", "plan", "execute", "assemble")


@dataclass(frozen=True)
class Span:
    """One traced call.  ``parent`` is the enclosing span on the same
    thread or task (``None`` at the top); ``request`` is the HTTP-level
    request id (``r<n>``) for front-end spans and the batch id
    (``b<span id>``) for spans inside a pipeline batch."""

    id: int
    parent: int | None
    name: str
    start: float
    end: float
    request: str | None

    @property
    def duration(self) -> float:
        return self.end - self.start


def exclusive_times(spans) -> dict[int, float]:
    """Each span's duration minus its direct children's durations.

    Children of one span run one after another on its thread, so their
    durations do not overlap; a child that outlives its parent is
    clipped to the parent.
    """
    by_id = {span.id: span for span in spans}
    exclusive = {span.id: span.duration for span in spans}
    for span in spans:
        parent = by_id.get(span.parent)
        if parent is None:
            continue
        overlap = min(span.end, parent.end) - max(span.start, parent.start)
        exclusive[parent.id] -= max(0.0, overlap)
    return {span_id: max(0.0, value) for span_id, value in exclusive.items()}


def children_index(spans) -> dict[int | None, list[Span]]:
    """Spans grouped by parent id."""
    children: dict[int | None, list[Span]] = defaultdict(list)
    for span in spans:
        children[span.parent].append(span)
    return children


def layer_times(root: Span, children, exclusive) -> dict[str, float]:
    """Exclusive time per layer over ``root``'s subtree."""
    totals: dict[str, float] = defaultdict(float)
    stack = [root]
    while stack:
        span = stack.pop()
        totals[LAYER_OF[span.name]] += exclusive[span.id]
        stack.extend(children.get(span.id, ()))
    return dict(totals)


def same_layer_time(root: Span, children, exclusive) -> float:
    """Exclusive time of ``root`` plus its descendants in ``root``'s own
    layer, reached without leaving that layer (e.g. a stage's
    ``Stage.run`` together with the ``match_many`` it calls, but not the
    ``search_many`` below it)."""
    layer = LAYER_OF[root.name]
    total = 0.0
    stack = [root]
    while stack:
        span = stack.pop()
        total += exclusive[span.id]
        stack.extend(child for child in children.get(span.id, ())
                     if LAYER_OF[child.name] == layer)
    return total


_current: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None)
_batch: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_batch", default=None)


class Tracer:
    """Installs span and count wrappers on the program's public
    functions and keeps what they record.

    Install before the engine and server are built: the batcher binds
    ``engine.execute`` once, at construction.

    Attributes:
        spans: every recorded :class:`Span`.
        counts: counts kept inside pipeline batches —
            ``tokens`` (``Analyzer.tokens`` calls), ``materialize``
            (``QunitCollection.materialize`` calls), ``retrieval_queries``
            (queries passed to ``Searcher.search_many``),
            ``retrieval_hits``/``retrieval_misses`` (the searchers'
            ``cache_hits``/``cache_misses`` growth).
        batch_members: batch id -> request ids of the batch.
    """

    def __init__(self, clock=time.monotonic):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.batch_members: dict[str, list[str]] = {}
        self._ids = itertools.count(1)
        self._request_ids = itertools.count(1)
        self._request_of: dict[int, str] = {}
        self._response_of: dict[int, str] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _record(self, name: str, fn, request_of=None):
        tracer = self

        def wrapper(*args, **kwargs):
            span_id = next(tracer._ids)
            parent = _current.get()
            token = _current.set(span_id)
            start = tracer.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = tracer.clock()
                _current.reset(token)
                request = (request_of(args) if request_of is not None
                           else _batch.get())
                tracer.spans.append(
                    Span(span_id, parent, name, start, end, request))

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if _batch.get() is not None:
                counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _from_dict(self, fn):
        tracer = self

        def wrapper(cls, data):
            span_id = next(tracer._ids)
            parent = _current.get()
            request_id = f"r{next(tracer._request_ids)}"
            start = tracer.clock()
            try:
                request = fn(cls, data)
            finally:
                tracer.spans.append(Span(span_id, parent,
                                         "SearchRequest.from_dict", start,
                                         tracer.clock(), request_id))
            tracer._request_of[id(request)] = request_id
            return request

        wrapper.__wrapped__ = fn
        return wrapper

    def _submit(self, fn):
        tracer = self

        async def wrapper(batcher, request):
            span_id = next(tracer._ids)
            parent = _current.get()
            request_id = tracer._request_of.get(id(request))
            start = tracer.clock()
            try:
                response = await fn(batcher, request)
            finally:
                end = tracer.clock()
                tracer._request_of.pop(id(request), None)
                tracer.spans.append(Span(span_id, parent,
                                         "MicroBatcher.submit", start, end,
                                         request_id))
            tracer._response_of[id(response)] = request_id
            return response

        wrapper.__wrapped__ = fn
        return wrapper

    def _execute(self, fn):
        tracer = self

        def wrapper(engine, requests):
            span_id = next(tracer._ids)
            batch_id = f"b{span_id}"
            tracer.batch_members[batch_id] = [
                tracer._request_of.get(id(request)) for request in requests]
            batch_token = _batch.set(batch_id)
            token = _current.set(span_id)
            start = tracer.clock()
            try:
                return fn(engine, requests)
            finally:
                end = tracer.clock()
                _current.reset(token)
                _batch.reset(batch_token)
                tracer.spans.append(Span(span_id, None,
                                         "QunitSearchEngine.execute", start,
                                         end, batch_id))

        wrapper.__wrapped__ = fn
        return wrapper

    def _search_many(self, fn):
        counts = self.counts
        record = self._record("Searcher.search_many", fn)

        def wrapper(searcher, queries, *args, **kwargs):
            queries = list(queries)
            hits, misses = searcher.cache_hits, searcher.cache_misses
            try:
                return record(searcher, queries, *args, **kwargs)
            finally:
                counts["retrieval_queries"] += len(queries)
                counts["retrieval_hits"] += searcher.cache_hits - hits
                counts["retrieval_misses"] += searcher.cache_misses - misses

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attribute: str, wrapper) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, wrapper)

    def install(self) -> None:
        """Wrap every traced function (idempotence is the caller's job:
        install once, :meth:`uninstall` once)."""
        from repro.core.collection import QunitCollection
        from repro.core.search.engine import QunitSearchEngine
        from repro.core.search.matcher import QunitMatcher
        from repro.core.search.segmentation import QuerySegmenter
        from repro.ir.analysis import Analyzer
        from repro.ir.embed import HashingEmbedder
        from repro.ir.retrieval import Searcher
        from repro.ir.vector import VectorIndex, reciprocal_rank_fusion
        from repro.serve.api import SearchRequest, SearchResponse
        from repro.serve.batcher import MicroBatcher
        from repro.serve import stages

        from_dict = SearchRequest.__dict__["from_dict"].__func__
        self._patch(SearchRequest, "from_dict",
                    classmethod(self._from_dict(from_dict)))
        self._patch(SearchResponse, "to_dict", self._record(
            "SearchResponse.to_dict", SearchResponse.to_dict,
            request_of=lambda args: self._response_of.pop(id(args[0]),
                                                          None)))
        self._patch(MicroBatcher, "submit", self._submit(MicroBatcher.submit))
        self._patch(QunitSearchEngine, "execute",
                    self._execute(QunitSearchEngine.execute))
        for stage in (stages.SegmentStage, stages.MatchStage,
                      stages.PlanStage, stages.ExecuteStage,
                      stages.AssembleStage):
            self._patch(stage, "run", self._record(
                f"{stage.__name__}.run", stage.run))
        self._patch(QuerySegmenter, "segment_many", self._record(
            "QuerySegmenter.segment_many", QuerySegmenter.segment_many))
        self._patch(QunitMatcher, "match_many", self._record(
            "QunitMatcher.match_many", QunitMatcher.match_many))
        self._patch(Searcher, "search_many",
                    self._search_many(Searcher.search_many))
        self._patch(VectorIndex, "topk", self._record(
            "VectorIndex.topk", VectorIndex.topk))
        self._patch(HashingEmbedder, "embed_query", self._record(
            "HashingEmbedder.embed_query", HashingEmbedder.embed_query))
        self._patch(Analyzer, "tokens",
                    self._count("tokens", Analyzer.tokens))
        self._patch(QunitCollection, "materialize",
                    self._count("materialize", QunitCollection.materialize))
        # A module-level function is called through every module that
        # imported it by name; wrap each of those references.
        fusion = self._record("reciprocal_rank_fusion",
                              reciprocal_rank_fusion)
        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and getattr(
                    module, "reciprocal_rank_fusion", None) \
                    is reciprocal_rank_fusion:
                self._patches.append((module, "reciprocal_rank_fusion",
                                      reciprocal_rank_fusion))
                module.reciprocal_rank_fusion = fusion

    def uninstall(self) -> None:
        """Put every wrapped function back."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- output --------------------------------------------------------------

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "id": span.id, "parent": span.parent, "name": span.name,
                    "start": span.start, "end": span.end,
                    "request": span.request}) + "\n")
