import pytest

from perfbench.trace import (
    LAYER_OF,
    Span,
    Tracer,
    children_index,
    exclusive_times,
    layer_times,
    same_layer_time,
)


def _tree():
    # ExecuteStage.run [0, 10]
    #   QunitMatcher.match_many [1, 4]      same layer (serve.stages)
    #     Searcher.search_many [2, 3]       ir.retrieval
    #   VectorIndex.topk [5, 9]             ir.vector
    return [
        Span(1, None, "ExecuteStage.run", 0.0, 10.0, "b1"),
        Span(2, 1, "QunitMatcher.match_many", 1.0, 4.0, "b1"),
        Span(3, 2, "Searcher.search_many", 2.0, 3.0, "b1"),
        Span(4, 1, "VectorIndex.topk", 5.0, 9.0, "b1"),
    ]


def test_exclusive_time_subtracts_direct_children_only():
    exclusive = exclusive_times(_tree())
    assert exclusive == {1: 3.0, 2: 2.0, 3: 1.0, 4: 4.0}


def test_exclusive_time_clips_a_child_that_outlives_its_parent():
    spans = [Span(1, None, "ExecuteStage.run", 0.0, 2.0, None),
             Span(2, 1, "Searcher.search_many", 1.0, 5.0, None)]
    assert exclusive_times(spans)[1] == 1.0


def test_layer_times_partition_the_root_duration():
    spans = _tree()
    exclusive = exclusive_times(spans)
    layers = layer_times(spans[0], children_index(spans), exclusive)
    assert layers == {"serve.stages": 5.0, "ir.retrieval": 1.0,
                      "ir.vector": 4.0}
    assert sum(layers.values()) == spans[0].duration


def test_same_layer_time_stops_at_other_layers():
    spans = _tree()
    exclusive = exclusive_times(spans)
    assert same_layer_time(spans[0], children_index(spans),
                           exclusive) == 5.0


def test_every_traced_name_has_a_layer():
    assert all(layer for layer in LAYER_OF.values())


def test_install_records_codec_spans_and_uninstall_restores():
    from repro.ir.analysis import Analyzer
    from repro.serve.api import SearchRequest

    original = SearchRequest.__dict__["from_dict"]
    tracer = Tracer()
    tracer.install()
    try:
        request = SearchRequest.from_dict({"query": "star wars"})
        Analyzer().tokens("outside any batch")
    finally:
        tracer.uninstall()
    assert request.query == "star wars"
    assert [span.name for span in tracer.spans] == ["SearchRequest.from_dict"]
    assert tracer.spans[0].request == "r1"
    assert tracer.counts.get("tokens", 0) == 0
    assert SearchRequest.__dict__["from_dict"] is original


def test_install_wraps_fusion_where_it_was_imported():
    import repro.ir.retrieval as retrieval
    from repro.ir.vector import reciprocal_rank_fusion

    tracer = Tracer()
    tracer.install()
    try:
        assert retrieval.reciprocal_rank_fusion is not reciprocal_rank_fusion
        retrieval.reciprocal_rank_fusion([("a", 1.0)], [("b", 0.5)], 2)
    finally:
        tracer.uninstall()
    assert retrieval.reciprocal_rank_fusion is reciprocal_rank_fusion
    assert [span.name for span in tracer.spans] == ["reciprocal_rank_fusion"]


@pytest.mark.parametrize("name", sorted(LAYER_OF))
def test_layer_names_are_metric_prefixes(name):
    assert LAYER_OF[name].split(".")[0] in {"serve", "ir", "core"}
