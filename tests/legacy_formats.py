"""Legacy snapshot writers, kept for tests of ``repro migrate``.

Builds before the single-format cleanup wrote version-1 and version-2
JSON-lines snapshots and appended per-file delta segments to them.  The
serving readers now reject those files; :mod:`repro.ir.migrate` reads
them.  The writers below are the old ones, unchanged, so migration
tests can generate arbitrary legacy inputs; ``tests/data/legacy/`` holds
golden files the old build itself wrote.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

from repro.ir.index import IndexSnapshot, InvertedIndex
from repro.ir.persist import (
    FORMAT_MAGIC,
    _doc_record,
    _dumps,
    _write_checksummed,
    build_delta_record,
)


def save_snapshot_v2(snapshot: IndexSnapshot, path: str | os.PathLike, *,
                     docstore: str | None = None, shard: dict | None = None,
                     bloom: dict | None = None) -> Path:
    """Write ``snapshot`` to ``path`` in the version-2 JSON-lines format;
    returns the path.

    Kept for compatibility tests and for measuring what the columnar
    version-3 container buys; new code should use :func:`save_snapshot`.
    The file is written to a temporary sibling and renamed into place, so
    readers never observe a half-written snapshot.  Any delta segments a
    previous file at ``path`` carried are folded away by the rewrite.

    Args:
        snapshot: the frozen snapshot to persist.
        docstore: file name (relative to ``path``'s directory) of the
            document store the snapshot's documents live in.  When given,
            the file records only ``ref`` lines — the deduplicated layout;
            the caller is responsible for the store actually covering the
            snapshot's doc_ids.  When ``None``, documents are inlined
            (standalone layout).
        shard: optional ``{"index": i, "count": n}`` partition coordinates
            recorded in the header (see :mod:`repro.ir.shard`).
        bloom: optional serialized term Bloom filter
            (:meth:`~repro.ir.shard.TermBloomFilter.to_dict`) recorded in
            the header so routers can read it without parsing postings.

    Raises:
        SnapshotError: if a document carries unserializable metadata.
    """
    path = Path(path)
    doc_ids = sorted(snapshot._documents)
    terms = sorted(snapshot._postings)
    header = {
        "magic": FORMAT_MAGIC,
        "format_version": 2,
        "index_version": snapshot.version,
        "analyzer": snapshot.analyzer.config(),
        "document_count": snapshot.document_count,
        "average_document_length": snapshot.average_document_length,
        "min_document_length": snapshot.min_document_length,
        "stored_documents": len(doc_ids),
        "stored_terms": len(terms),
        "docstore": docstore,
        "shard": shard,
        "bloom": bloom,
    }

    # Version-2 term records intern doc_ids: postings carry the position
    # of the document in this file's (sorted) doc/ref record order, not
    # the doc_id string — qunit doc_ids are long, and repeating them per
    # (term, document) would dominate the file size.
    position = {doc_id: i for i, doc_id in enumerate(doc_ids)}

    def records():
        yield header
        for doc_id in doc_ids:
            if docstore is None:
                yield _doc_record(doc_id, snapshot._documents[doc_id],
                                  snapshot._doc_lengths[doc_id])
            else:
                yield {"t": "ref", "id": doc_id}
        for term in terms:
            yield {
                "t": "term",
                "term": term,
                "df": snapshot._doc_frequencies.get(
                    term, len(snapshot._postings[term])),
                "postings": [[position[posting.doc_id], posting.weighted_tf]
                             for posting in snapshot._postings[term]],
            }

    return _write_checksummed(path, records())


def save_snapshot_v1(snapshot: IndexSnapshot, path: str | os.PathLike) -> Path:
    """Write ``snapshot`` in the legacy version-1 layout (inline documents,
    no docstore/shard/bloom header fields, no delta support).

    Kept for compatibility tests and for measuring what the deduplicated
    version-2 layout saves; new code should use :func:`save_snapshot`.
    """
    path = Path(path)
    doc_ids = sorted(snapshot._documents)
    terms = sorted(snapshot._postings)
    header = {
        "magic": FORMAT_MAGIC,
        "format_version": 1,
        "index_version": snapshot.version,
        "analyzer": snapshot.analyzer.config(),
        "document_count": snapshot.document_count,
        "average_document_length": snapshot.average_document_length,
        "min_document_length": snapshot.min_document_length,
        "stored_documents": len(doc_ids),
        "stored_terms": len(terms),
    }

    def records():
        yield header
        for doc_id in doc_ids:
            yield _doc_record(doc_id, snapshot._documents[doc_id],
                              snapshot._doc_lengths[doc_id])
        for term in terms:
            yield {
                "t": "term",
                "term": term,
                "df": snapshot._doc_frequencies.get(
                    term, len(snapshot._postings[term])),
                "postings": [[posting.doc_id, posting.weighted_tf]
                             for posting in snapshot._postings[term]],
            }

    return _write_checksummed(path, records())


def append_delta_segment(path: str | os.PathLike, index: InvertedIndex,
                         new_ids: list[str], seq: int) -> None:
    """Append one checksummed per-file delta segment for ``new_ids``
    (already added to ``index``) to the snapshot at ``path`` — the bytes
    the removed per-file journal appended on each commit."""
    snapshot = index.snapshot()
    record = build_delta_record(
        index.analyzer, index._documents, index._doc_lengths,
        index.document_frequency, new_ids, seq=seq,
        index_version=index.version,
        document_count=index.document_count,
        average_document_length=index.average_document_length,
        min_document_length=snapshot.min_document_length,
    )
    line = _dumps(record) + "\n"
    end = {"t": "delta-end", "seq": seq,
           "sha256": hashlib.sha256(line.encode("utf-8")).hexdigest()}
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(line)
        handle.write(_dumps(end) + "\n")
