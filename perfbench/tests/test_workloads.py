import json

import pytest

from perfbench import workloads
from perfbench.workloads import WORKLOADS, build_inputs


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_deterministic_per_seed(name):
    workload = WORKLOADS[name]
    first = build_inputs(workload, 3)
    again = build_inputs(workload, 3)
    assert first == again
    assert first.bodies() == again.bodies()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_differ_across_seeds(name):
    workload = WORKLOADS[name]
    first = build_inputs(workload, 3)
    other = build_inputs(workload, 4)
    assert first.requests != other.requests
    assert first.warmup != other.warmup
    assert first.ingest != other.ingest


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_request_shapes(name):
    inputs = build_inputs(WORKLOADS[name], 1)
    assert inputs.requests
    assert all(len(queries) == inputs.workload.batch
               for queries in inputs.requests)
    body = json.loads(inputs.bodies()[0])
    assert [entry["query"] for entry in body["requests"]] == \
        list(inputs.requests[0])


def test_warmup_shares_no_exact_stream_with_the_traffic():
    inputs = build_inputs(WORKLOADS["bulk"], 1)
    timed = [query for queries in inputs.requests for query in queries]
    assert inputs.warmup[:50] != tuple(timed[:50])


def test_hybrid_queries_are_distinct_paraphrases():
    inputs = build_inputs(WORKLOADS["hybrid"], 1)
    queries = [query for batch in inputs.requests for query in batch]
    term_sets = [workloads._terms(query) for query in queries]
    assert len(set(term_sets)) == len(term_sets)
    assert all(entry["strategy"] == "hybrid"
               for body in inputs.bodies()
               for entry in json.loads(body)["requests"])


def test_ingested_titles_are_unique():
    batches = workloads.ingest_documents(1)
    titles = [title for batch in batches for title, _summary in batch]
    assert len(batches) == workloads.COMMITS
    assert len(titles) == workloads.COMMITS * workloads.DOCUMENTS_PER_COMMIT
    assert len(set(titles)) == len(titles)


def test_repetition_rate_counts_repeats_of_earlier_queries():
    # "a" (seen before), "c" (new), "a", "b" (seen before).
    assert workloads.repetition_rate(["a", "b"], ["a", "c", "a", "b"]) \
        == pytest.approx(3 / 4)
    assert workloads.repetition_rate(["a"], []) == 0.0
    assert workloads.repetition_rate([], ["x", "y"]) == 0.0
