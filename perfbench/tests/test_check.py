import json
from collections import Counter

import pytest

from perfbench.check import compare, corrupt

REFERENCE = {
    "star wars cast": json.dumps([["movie_full_credits::star_wars", 0.8125],
                                  ["person_main_page::mark_hamill", 0.5]]),
    "tom hanks": json.dumps([["person_main_page::tom_hanks", 1.25]]),
    "nothing": json.dumps([]),
}


def _observed(overrides=None, repeats=3):
    observed = {query: Counter({signature: repeats})
                for query, signature in REFERENCE.items()}
    for query, signature in (overrides or {}).items():
        observed[query] = Counter({signature: 1})
    return observed


def test_identical_answers_pass():
    result = compare(_observed(), REFERENCE)
    assert result.wrong == 0
    assert result.queries == 3
    assert result.responses == 9


def test_a_single_perturbed_score_is_flagged():
    answers = json.loads(REFERENCE["star wars cast"])
    answers[1][1] = 0.5000000000000001
    result = compare(_observed({"star wars cast": json.dumps(answers)}),
                     REFERENCE)
    assert result.wrong == 1
    assert result.examples[0]["query"] == "star wars cast"


def test_a_single_perturbed_id_is_flagged():
    answers = json.loads(REFERENCE["tom hanks"])
    answers[0][0] = "person_main_page::tom_hank"
    result = compare(_observed({"tom hanks": json.dumps(answers)}),
                     REFERENCE)
    assert result.wrong == 1


def test_swapped_ranks_are_flagged():
    answers = json.loads(REFERENCE["star wars cast"])[::-1]
    result = compare(_observed({"star wars cast": json.dumps(answers)}),
                     REFERENCE)
    assert result.wrong == 1


def test_every_wrong_answer_counts():
    observed = _observed()
    observed["tom hanks"][json.dumps([])] = 4
    assert compare(observed, REFERENCE).wrong == 4


def test_corrupt_changes_exactly_one_reference_answer():
    corrupted = corrupt(REFERENCE)
    changed = [query for query in REFERENCE
               if corrupted[query] != REFERENCE[query]]
    assert len(changed) == 1
    assert compare(_observed(), corrupted).wrong == 3


def test_query_without_reference_is_an_error():
    with pytest.raises(KeyError):
        compare({"unknown": Counter({"[]": 1})}, REFERENCE)
