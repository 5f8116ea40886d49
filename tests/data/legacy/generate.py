"""Regenerate the golden legacy snapshot files in this directory.

The files were written by the last build that still shipped the legacy
writers (``save_snapshot_v1``, ``save_snapshot_v2`` and the per-file
``SnapshotJournal``), git commit ``dc323e5``.  Current builds no longer
contain those writers, so run this script against a checkout of that
commit::

    git archive dc323e5 --prefix=old/ | tar -x -C /tmp
    PYTHONPATH=/tmp/old/src python tests/data/legacy/generate.py tests/data/legacy

Every file holds the 5-document ``BODIES`` index of
``tests/test_ir_persist.py``; the ``*-delta`` files carry two per-file
delta segments appending ``DELTA_BODIES`` after the base.
"""

import sys
from pathlib import Path

from repro.ir.analysis import Analyzer
from repro.ir.documents import Document
from repro.ir.index import InvertedIndex
from repro.ir.persist import (
    DocumentStore,
    SnapshotJournal,
    save_document_store,
    save_snapshot,
    save_snapshot_v1,
    save_snapshot_v2,
)
from repro.ir.shard import TermBloomFilter

BODIES = {"a": "star wars cast", "b": "star trek", "c": "ocean wars wars",
          "d": "star star wars ocean", "empty-ish": "the of"}
DELTA_BODIES = {"z1": "fresh star ocean wars", "z2": "cast fresh zweihander"}


def build_index():
    index = InvertedIndex(Analyzer(stem=False))
    for doc_id, body in BODIES.items():
        index.add(Document.create(
            doc_id, {"body": body},
            metadata={"definition": f"def_{doc_id}",
                      "params": (("x", doc_id), ("y", "v"))},
        ))
    return index


def add_deltas(index, path):
    SnapshotJournal(index, path, compact_threshold=99)
    for doc_id, body in DELTA_BODIES.items():
        index.add(Document.create(doc_id, {"body": body}))


def main(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    snapshot = build_index().snapshot()
    bloom = TermBloomFilter.build(snapshot.terms()).to_dict()

    save_snapshot_v1(snapshot, out / "v1.snap")
    save_snapshot_v2(snapshot, out / "v2.snap")

    save_document_store(DocumentStore.from_snapshot(snapshot),
                        out / "docs.store")
    save_snapshot_v2(snapshot, out / "v2-ref.snap", docstore="docs.store",
                     shard={"index": 0, "count": 1}, bloom=bloom)

    index = build_index()
    save_snapshot_v2(index.snapshot(), out / "v2-delta.snap")
    add_deltas(index, out / "v2-delta.snap")

    index = build_index()
    save_snapshot(index.snapshot(), out / "v3-delta.snap", bloom=bloom)
    add_deltas(index, out / "v3-delta.snap")


if __name__ == "__main__":
    main(Path(sys.argv[1]))
