"""The correctness check: wire answers against the reference answers
of :mod:`perfbench.reference`, by instance id and exact score, in rank
order."""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

#: Mismatches kept for the report (the count is always complete).
MAX_EXAMPLES = 5


def signature_of(answers) -> str:
    """An in-process answer list as the same ``[[instance_id, score],
    ...]`` JSON the load process extracts from the wire."""
    return json.dumps([[dict(answer.provenance).get("instance_id"),
                        answer.score] for answer in answers])


@dataclass
class CheckResult:
    """How many received answers disagreed with the reference.

    Attributes:
        queries: distinct queries checked.
        responses: query answers checked (a query answered five times
            counts five).
        wrong: query answers that differ from the reference.
        examples: up to :data:`MAX_EXAMPLES` mismatches, for the report.
    """

    queries: int = 0
    responses: int = 0
    wrong: int = 0
    examples: list = field(default_factory=list)


def compare(observed: dict[str, Counter], reference: dict[str, str],
            ) -> CheckResult:
    """Compare every received answer with the reference answer.

    Args:
        observed: per query, how often each answer signature came back.
        reference: per query, the reference answer signature.

    Raises:
        KeyError: when a received query has no reference answer.
    """
    result = CheckResult()
    for query, received in observed.items():
        expected = json.loads(reference[query])
        result.queries += 1
        for signature, count in received.items():
            result.responses += count
            if json.loads(signature) == expected:
                continue
            result.wrong += count
            if len(result.examples) < MAX_EXAMPLES:
                result.examples.append({"query": query, "wire": signature,
                                        "reference": reference[query]})
    return result


def corrupt(reference: dict[str, str]) -> dict[str, str]:
    """A copy of ``reference`` with the first answered query's top score
    nudged by one part in a billion: the self-test that the check fails
    when it should (``run.py --corrupt-reference``)."""
    corrupted = dict(reference)
    for query in sorted(reference):
        answers = json.loads(reference[query])
        if answers:
            answers[0][1] = answers[0][1] * (1 + 1e-9) + 1e-12
            corrupted[query] = json.dumps(answers)
            return corrupted
    raise ValueError("no reference query has an answer to corrupt")
