"""Migration of legacy snapshot files to the version-3 container.

The serving readers in :mod:`repro.ir.persist` read clean version-3
containers only.  Older builds wrote three other shapes, all of which
those readers reject with a :class:`~repro.errors.SnapshotError` naming
``repro migrate``:

- version-1 JSON-lines files (single snapshot, inline documents);
- version-2 JSON-lines files (standalone, or ``ref`` records into a
  document store), optionally followed by per-file delta segments;
- version-3 containers followed by per-file delta segments.

:func:`migrate_snapshot` reads any of them and rewrites the file
atomically as a clean version-3 base.  ``docs/PERSISTENCE.md`` keeps the
legacy byte layouts; this module is imported only by ``repro migrate``.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

from repro.errors import SnapshotError
from repro.ir.analysis import Analyzer
from repro.ir.documents import Document
from repro.ir.index import IndexSnapshot, Posting
from repro.ir.persist import (
    FORMAT_MAGIC,
    FORMAT_VERSION,
    V3_MAGIC,
    DocumentStore,
    _corrupt,
    _doc_from_record,
    _parse_line,
    _read_lines,
    _resolve_v3_store,
    _v3_documents,
    _V3Backing,
    fold_delta_record,
    load_document_store,
    save_snapshot,
)
from repro.ir.shard import TermBloomFilter

__all__ = ["migrate_snapshot"]


def migrate_snapshot(path: str | os.PathLike,
                     store: DocumentStore | None = None) -> tuple[int, int]:
    """Rewrite a legacy snapshot file as a clean version-3 base, in place.

    Reads a v1 file, a v2 file (with or without a per-file delta tail),
    or a v3 container with a delta tail, and rewrites ``path``
    atomically with :func:`~repro.ir.persist.save_snapshot`.  The shard
    coordinates and Bloom filter recorded in the old header are kept.
    A file without deltas keeps its document-store link; a file whose
    tail was folded is rewritten standalone (delta documents are inline
    and absent from any store), and its Bloom filter is rebuilt from the
    folded vocabulary so routing never prunes a delta-only term.  Vector
    extents of a folded v3 file are dropped (the delta documents have
    none); the hybrid strategy then falls back to lexical retrieval.
    A clean version-3 file is left untouched.

    Args:
        path: the snapshot file.
        store: optional pre-loaded document store backing the file's
            ``ref`` records, so a whole directory parses its shared store
            once instead of once per file.

    Returns:
        ``(old_format_version, folded_segments)``; ``(3, 0)`` means the
        file was already a clean v3 base and was not rewritten.

    Raises:
        SnapshotError: if the file (or any delta segment) fails
            verification.
    """
    path = Path(path)
    if _probe_magic(path) == V3_MAGIC:
        version = FORMAT_VERSION
        snapshot, header, segments = _load_v3_with_tail(path, store)
        if not segments:
            return version, 0
    else:
        lines = _read_lines(path)
        if len(lines) < 2:
            raise _corrupt(path, "missing header or footer (truncated?)")
        header = _parse_line(path, lines[0], "header")
        if header.get("magic") != FORMAT_MAGIC:
            raise _corrupt(path, "not a qunits snapshot file (bad magic)")
        version = header.get("format_version")
        if version == 1:
            snapshot, segments = _load_v1(path, lines, header), 0
        elif version == 2:
            snapshot, segments = _load_v2(path, lines, header, store)
        else:
            raise SnapshotError(
                f"snapshot file {str(path)!r} has format version "
                f"{version!r}; migration reads versions 1, 2 and 3")
    bloom = header.get("bloom")
    if bloom is not None and segments:
        # Delta documents may carry vocabulary the persisted filter has
        # never seen; routing on the old filter would skip real postings.
        bloom = TermBloomFilter.build(snapshot.terms()).to_dict()
    docstore = header.get("docstore") if segments == 0 else None
    save_snapshot(snapshot, path, docstore=docstore,
                  shard=header.get("shard"), bloom=bloom)
    return version, segments


def _probe_magic(path: Path) -> bytes:
    """The file's first ``len(V3_MAGIC)`` bytes (format sniffing)."""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(V3_MAGIC))
    except OSError as exc:
        raise SnapshotError(
            f"cannot read snapshot file {str(path)!r}: {exc}") from exc


def _verify_base_digest(path: Path, lines: list[str], footer: dict) -> None:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode("utf-8"))
    if digest.hexdigest() != footer.get("sha256"):
        raise _corrupt(path, "checksum mismatch (corrupted)")


def _load_v1(path: Path, lines: list[str], header: dict) -> IndexSnapshot:
    """The legacy single-file layout: footer last, documents inline."""
    footer_line = lines[-1]
    if not footer_line.endswith("\n"):
        raise _corrupt(path, "unterminated final line (truncated?)")
    footer = _parse_line(path, footer_line, "footer")
    if footer.get("t") != "end":
        raise _corrupt(path, "missing end-of-file footer (truncated?)")
    body = lines[1:-1]
    expected_records = header.get("stored_documents", 0) + header.get(
        "stored_terms", 0)
    if footer.get("records") != len(body) or expected_records != len(body):
        raise _corrupt(
            path,
            f"expected {expected_records} records, found {len(body)} "
            f"(truncated?)",
        )
    _verify_base_digest(path, lines[:-1], footer)

    analyzer = Analyzer.from_config(header.get("analyzer", {}))
    documents: dict[str, Document] = {}
    doc_lengths: dict[str, float] = {}
    postings: dict[str, tuple[Posting, ...]] = {}
    doc_frequencies: dict[str, int] = {}
    # A file can pass the checksum yet lack required keys (e.g. written by
    # a foreign tool); that is still a malformed snapshot, never a raw
    # KeyError escaping to the caller.
    try:
        for i, line in enumerate(body):
            record = _parse_line(path, line, f"record {i + 1}")
            kind = record.get("t")
            if kind == "doc":
                doc_id, document, length = _doc_from_record(record)
                documents[doc_id] = document
                doc_lengths[doc_id] = length
            elif kind == "term":
                term = record["term"]
                postings[term] = tuple(
                    Posting(doc_id, weighted_tf)
                    for doc_id, weighted_tf in record["postings"])
                doc_frequencies[term] = record["df"]
            else:
                raise _corrupt(path, f"record {i + 1} has unknown type {kind!r}")

        if len(documents) != header["stored_documents"]:
            raise _corrupt(path, "document record count does not match header")
        if len(postings) != header["stored_terms"]:
            raise _corrupt(path, "term record count does not match header")
        return _snapshot_from(analyzer, documents, postings, doc_lengths,
                              doc_frequencies, _stats(header))
    except KeyError as exc:
        raise _corrupt(path, f"missing required key {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise _corrupt(path, f"malformed record structure ({exc})") from exc


def _load_v2(path: Path, lines: list[str], header: dict,
             store: DocumentStore | None) -> tuple[IndexSnapshot, int]:
    """The document-store + postings-overlay layout, plus delta segments."""
    try:
        expected_records = header["stored_documents"] + header["stored_terms"]
    except KeyError as exc:
        raise _corrupt(path, f"missing required key {exc.args[0]!r}") from exc
    footer_index = 1 + expected_records
    if len(lines) <= footer_index:
        raise _corrupt(
            path,
            f"expected {expected_records} records before the footer, found "
            f"{len(lines) - 1} lines (truncated?)",
        )
    footer_line = lines[footer_index]
    if not footer_line.endswith("\n"):
        raise _corrupt(path, "unterminated footer line (truncated?)")
    footer = _parse_line(path, footer_line, "footer")
    if footer.get("t") != "end":
        raise _corrupt(path, "missing base footer (truncated?)")
    if footer.get("records") != expected_records:
        raise _corrupt(path, "footer record count does not match header")
    _verify_base_digest(path, lines[:footer_index], footer)

    docstore_name = header.get("docstore")
    if docstore_name is not None and store is None:
        store = load_document_store(path.parent / docstore_name)
    analyzer = Analyzer.from_config(header.get("analyzer", {}))
    if store is not None and store.analyzer != analyzer:
        raise SnapshotError(
            f"snapshot {str(path)!r} was built with analyzer {analyzer!r}, "
            f"but its document store uses {store.analyzer!r}; refusing to "
            f"mix tokenizations"
        )

    documents: dict[str, Document] = {}
    doc_lengths: dict[str, float] = {}
    postings: dict[str, tuple[Posting, ...]] = {}
    doc_frequencies: dict[str, int] = {}
    doc_order: list[str] = []  # record order; postings intern into it
    body = lines[1:footer_index]
    try:
        for i, line in enumerate(body):
            record = _parse_line(path, line, f"record {i + 1}")
            kind = record.get("t")
            if kind == "doc":
                doc_id, document, length = _doc_from_record(record)
                documents[doc_id] = document
                doc_lengths[doc_id] = length
                doc_order.append(doc_id)
            elif kind == "ref":
                doc_id = record["id"]
                if store is None:
                    raise _corrupt(
                        path, f"record {i + 1} references a document store "
                              f"but the header names none")
                if doc_id not in store.documents:
                    raise _corrupt(
                        path, f"document {doc_id!r} is not in the document "
                              f"store")
                documents[doc_id] = store.documents[doc_id]
                doc_lengths[doc_id] = store.doc_lengths[doc_id]
                doc_order.append(doc_id)
            elif kind == "term":
                term = record["term"]
                plist = []
                for index, weighted_tf in record["postings"]:
                    if not isinstance(index, int) or \
                            not 0 <= index < len(doc_order):
                        raise _corrupt(
                            path, f"term {term!r} references document index "
                                  f"{index!r}, outside this file's "
                                  f"{len(doc_order)} document records")
                    plist.append(Posting(doc_order[index], weighted_tf))
                postings[term] = tuple(plist)
                doc_frequencies[term] = record["df"]
            else:
                raise _corrupt(path, f"record {i + 1} has unknown type {kind!r}")
        if len(documents) != header["stored_documents"]:
            raise _corrupt(path, "document record count does not match header")
        if len(postings) != header["stored_terms"]:
            raise _corrupt(path, "term record count does not match header")

        stats = _stats(header)
        segments = _apply_deltas(path, lines[footer_index + 1:], documents,
                                 doc_lengths, postings, doc_frequencies,
                                 stats)
        return _snapshot_from(analyzer, documents, postings, doc_lengths,
                              doc_frequencies, stats), segments
    except KeyError as exc:
        raise _corrupt(path, f"missing required key {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise _corrupt(path, f"malformed record structure ({exc})") from exc


def _load_v3_with_tail(path: Path, store: DocumentStore | None,
                       ) -> tuple[IndexSnapshot | None, dict, int]:
    """A v3 container plus the delta segments trailing its columns.

    Returns ``(None, meta, 0)`` for a clean container.  Otherwise the
    columns are materialized into plain mappings (deltas mutate
    postings), the tail is folded, and the map is closed.
    """
    backing = _V3Backing.open(path, tail_ok=True)
    try:
        meta = backing.meta
        with open(path, "rb") as handle:
            handle.seek(backing.container_end)
            tail = handle.read()
        if not tail:
            return None, meta, 0
        try:
            tail_lines = tail.decode("utf-8").splitlines(keepends=True)
        except UnicodeDecodeError as exc:
            raise _corrupt(path, f"delta tail is not UTF-8 ({exc})") from exc
        store = _resolve_v3_store(path, backing, store)
        documents = dict(_v3_documents(path, backing, store))
        doc_lengths = backing.doc_lengths_mapping()
        postings = {term: backing.term_postings(term)
                    for term in backing.term_directory}
        doc_frequencies = {term: entry["df"]
                           for term, entry in backing.term_directory.items()}
        if len(documents) != meta["stored_documents"]:
            raise _corrupt(path, "document record count does not match "
                                 "header")
        if len(postings) != meta["stored_terms"]:
            raise _corrupt(path, "term record count does not match header")
        stats = _stats(meta)
        segments = _apply_deltas(path, tail_lines, documents, doc_lengths,
                                 postings, doc_frequencies, stats)
        analyzer = Analyzer.from_config(meta.get("analyzer", {}))
        return _snapshot_from(analyzer, documents, postings, doc_lengths,
                              doc_frequencies, stats), meta, segments
    except KeyError as exc:
        raise _corrupt(path, f"missing required key {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise _corrupt(path, f"malformed record structure ({exc})") from exc
    finally:
        backing.close()


def _stats(header: dict) -> dict:
    """The running collection statistics a header (or meta blob) starts
    from; delta records replace them as they fold."""
    return {key: header[key] for key in (
        "index_version", "document_count", "average_document_length",
        "min_document_length")}


def _snapshot_from(analyzer: Analyzer, documents: dict, postings: dict,
                   doc_lengths: dict, doc_frequencies: dict,
                   stats: dict) -> IndexSnapshot:
    return IndexSnapshot(
        version=stats["index_version"],
        analyzer=analyzer,
        documents=documents,
        postings=postings,
        doc_lengths=doc_lengths,
        doc_frequencies=doc_frequencies,
        document_count=stats["document_count"],
        average_document_length=stats["average_document_length"],
        min_document_length=stats["min_document_length"],
    )


def _apply_deltas(path: Path, rest: list[str], documents: dict,
                  doc_lengths: dict, postings: dict, doc_frequencies: dict,
                  stats: dict) -> int:
    """Fold trailing delta segments into the base mappings; returns the
    segment count.  Each segment is independently checksummed; a truncated
    or corrupted tail raises rather than silently migrating a prefix."""
    segments = 0
    i = 0
    while i < len(rest):
        what = f"delta segment {segments + 1}"
        delta_line = rest[i]
        if i + 1 >= len(rest) or not rest[i + 1].endswith("\n"):
            raise _corrupt(path, f"{what} is missing its checksum line "
                                 f"(truncated?)")
        record = _parse_line(path, delta_line, what)
        end = _parse_line(path, rest[i + 1], f"{what} checksum")
        if record.get("t") != "delta" or end.get("t") != "delta-end":
            raise _corrupt(path, f"{what} has malformed record types")
        if record.get("seq") != segments + 1 or end.get("seq") != segments + 1:
            raise _corrupt(path, f"{what} is out of sequence")
        if hashlib.sha256(delta_line.encode("utf-8")).hexdigest() != \
                end.get("sha256"):
            raise _corrupt(path, f"{what} checksum mismatch (corrupted)")
        fold_delta_record(record, documents, doc_lengths, postings,
                          doc_frequencies, stats, path=path, what=what)
        segments += 1
        i += 2
    return segments
