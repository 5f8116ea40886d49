"""The reference answers the correctness check compares against.

A fresh ``CollectionStore.load`` of the served directory, an in-process
:class:`~repro.core.search.engine.QunitSearchEngine` over it with the
result cache off, asked one query at a time under the same strategy.

Also runs as its own process (``python3 perfbench/reference.py``: one
JSON object ``{"directory", "queries", "strategy"}`` on stdin, the
answers as one JSON object on stdout), so a run can check two halves of
its queries on two cores.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

if __name__ == "__main__":
    ROOT = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import check, workloads  # noqa: E402

from repro.core.search import QunitSearchEngine, SearchRequest  # noqa: E402
from repro.core.store import CollectionStore  # noqa: E402


def reference_answers(directory, queries, strategy) -> dict[str, str]:
    """Each query's reference answer signature."""
    collection = CollectionStore(directory).load(workloads.database())
    engine = QunitSearchEngine(collection, flavor="expert")
    try:
        return {query: check.signature_of(engine.execute([SearchRequest(
                    query=query, limit=workloads.RESULT_LIMIT,
                    strategy=strategy)])[0].answers)
                for query in queries}
    finally:
        collection.close()


if __name__ == "__main__":
    job = json.loads(sys.stdin.readline())
    sys.stdout.write(json.dumps(reference_answers(
        job["directory"], job["queries"], job["strategy"])) + "\n")
