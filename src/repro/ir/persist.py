"""Persistent snapshot storage: document store + columnar snapshots.

Collections in this system are expensive to derive (schema analysis, query
logs, instance materialization) but cheap to query; persistence splits the
two across process lifetimes: :func:`save_snapshot` writes a snapshot to
disk once, :func:`load_snapshot` brings it back in a form that serves
queries with no live :class:`~repro.ir.index.InvertedIndex` behind it.

``docs/PERSISTENCE.md`` specifies the on-disk formats precisely (byte
layouts, record grammars, checksum rules, version negotiation); this
docstring is the orientation summary.

Snapshot files (format version 3)
---------------------------------

A snapshot file is a **binary columnar container** built for mmap
zero-copy loads: a fixed-size struct header, a JSON meta blob (analyzer,
collection statistics, docstore/shard/bloom), a JSON *term directory*
mapping each term to the byte extents of its columns, and a columns
region holding fixed-width little-endian arrays — u32 interned doc
positions and float64 weighted frequencies per term, float64 document
lengths, plus optional per-(scorer, term) contribution and block-max
bound columns precomputed at save time.  Every column (and the
meta/directory blobs) carries a sha256 checksum, verified lazily on first
access.  The file ends exactly where the header says its columns end.

Loading (:func:`load_snapshot`) maps the file with :mod:`mmap` and parses
only the header, meta, and directory — O(header + directory), not
O(postings) — returning a :class:`~repro.ir.index.ColumnarIndexSnapshot`
whose postings materialize per term on demand straight out of the mapped
columns.  N shard workers mapping the same file share one OS page cache
instead of N parsed heaps; :func:`open_scoring_snapshot` is the worker
entry point (documents skipped entirely).  float64 columns round-trip
bit-exactly, so a load is rank-and-score identical to the live index it
came from.

Snapshots saved with ``docstore=<name>`` store no document bodies: a
*document store* file (:func:`save_document_store`, JSON-lines with a
``doc_id -> [byte offset, length]`` header index) holds every decorated
instance document once, all snapshots of a generation share its
:class:`~repro.ir.documents.Document` objects, and a shard server reads
only its partition's documents (:func:`load_document_store_partition`).

Files written by older builds — version-1/2 JSON-lines snapshots, and
any snapshot followed by per-file delta segments — raise a
:class:`~repro.errors.SnapshotError` naming ``repro migrate``, which
rewrites them as clean version-3 bases (:mod:`repro.ir.migrate`).

The collection journal
----------------------

Incremental saves append checksummed **delta records**
(:func:`build_delta_record`) to one ``journal-<generation>.jrnl`` file per
saved collection generation (:func:`append_collection_txn`,
:func:`read_collection_journal`); loaders fold them over the bases with
:func:`fold_delta_record`.  Delta postings are recomputed with the same
per-token accumulation order as :meth:`~repro.ir.index.InvertedIndex.add`,
so journaled generations load float-identical.  ``repro.core.store`` owns
the manifest side of the protocol.

Fidelity
--------

JSON floats are serialized with :mod:`json`, whose ``repr``-based
encoding is shortest-round-trip exact.  Tuples inside document metadata
are encoded as JSON arrays and restored as tuples on load, preserving
:class:`~repro.ir.documents.Document` equality across the round trip.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import struct
import sys
from array import array
from collections.abc import Mapping
from pathlib import Path

from repro.errors import SnapshotError
from repro.ir.analysis import Analyzer
from repro.ir.documents import Document
from repro.ir.index import (
    ColumnarIndexSnapshot,
    IndexSnapshot,
    InvertedIndex,
    Posting,
    TermContributions,
)

__all__ = [
    "FORMAT_MAGIC",
    "FORMAT_VERSION",
    "V3_MAGIC",
    "STORE_MAGIC",
    "STORE_VERSION",
    "JOURNAL_MAGIC",
    "JOURNAL_VERSION",
    "DocumentStore",
    "build_delta_record",
    "fold_delta_record",
    "filter_delta_record",
    "append_collection_txn",
    "read_collection_journal",
    "save_snapshot",
    "load_snapshot",
    "load_snapshot_with_header",
    "open_scoring_snapshot",
    "save_document_store",
    "load_document_store",
    "load_document_store_partition",
    "read_snapshot_doc_ids",
    "read_snapshot_header",
]

FORMAT_MAGIC = "qunits-snapshot"
FORMAT_VERSION = 3
#: First bytes of a version-3 binary columnar container (12 bytes; the
#: trailing newline makes an accidental text-mode read fail fast).
V3_MAGIC = b"qunits-col3\n"

#: Posting-list length below which contribution/block-bound columns are
#: not persisted (lazy recomputation is cheaper than the bytes).
_PRECOMPUTE_MIN_POSTINGS = 16
#: Fixed-size v3 container header: magic, format version, then byte
#: extents of the meta blob, term directory, and columns region, then
#: raw sha256 digests of the meta and directory blobs.
_V3_HEADER = struct.Struct("<12sI6Q32s32s")
STORE_MAGIC = "qunits-docstore"
STORE_VERSION = 1
#: Header magic of a collection-level delta journal (``journal-*.jrnl``)
#: — one file per saved collection generation, holding checksummed delta
#: records for the global and per-definition snapshots appended by
#: incremental saves (see ``repro.core.store``).
JOURNAL_MAGIC = "qunits-journal"
JOURNAL_VERSION = 1


def _to_jsonable(value: object) -> object:
    """Metadata values for serialization (tuples become arrays)."""
    if isinstance(value, (list, tuple)):
        return [_to_jsonable(item) for item in value]
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    raise SnapshotError(
        f"unserializable metadata value of type {type(value).__name__}: {value!r}"
    )


def _from_jsonable(value: object) -> object:
    """Inverse of :func:`_to_jsonable` (arrays come back as tuples)."""
    if isinstance(value, list):
        return tuple(_from_jsonable(item) for item in value)
    return value


def _dumps(record: dict) -> str:
    try:
        return json.dumps(record, ensure_ascii=False, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise SnapshotError(f"unserializable snapshot record: {exc}") from exc


def _doc_record(doc_id: str, document: Document, length: float) -> dict:
    return {
        "t": "doc",
        "id": doc_id,
        "fields": [[name, text] for name, text in document.fields],
        "weights": [[name, weight] for name, weight in document.field_weights],
        "meta": [[key, _to_jsonable(value)]
                 for key, value in document.metadata],
        "length": length,
    }


def _doc_from_record(record: dict) -> tuple[str, Document, float]:
    doc_id = record["id"]
    document = Document(
        doc_id=doc_id,
        fields=tuple((name, text) for name, text in record["fields"]),
        field_weights=tuple((name, weight)
                            for name, weight in record["weights"]),
        metadata=tuple((key, _from_jsonable(value))
                       for key, value in record["meta"]),
    )
    return doc_id, document, record["length"]


def _write_checksummed(path: Path, records) -> Path:
    """Write header+body ``records`` plus a digest footer, atomically.

    The file is written to a temporary sibling and renamed into place, so
    readers never observe a half-written file.  The footer's ``records``
    count excludes the header line, matching the loaders' expectations.
    A record may be a pre-serialized line (``str`` ending in a newline)
    instead of a dict — used when the writer needed the exact bytes up
    front, e.g. to compute the document store's offset index.
    """
    digest = hashlib.sha256()
    count = -1  # the header line is not a body record
    tmp_path = path.with_name(path.name + ".tmp")
    try:
        with open(tmp_path, "w", encoding="utf-8") as handle:
            for record in records:
                line = record if isinstance(record, str) \
                    else _dumps(record) + "\n"
                digest.update(line.encode("utf-8"))
                handle.write(line)
                count += 1
            footer = {"t": "end", "records": count,
                      "sha256": digest.hexdigest()}
            handle.write(_dumps(footer) + "\n")
    except BaseException:
        tmp_path.unlink(missing_ok=True)
        raise
    os.replace(tmp_path, path)
    return path


def _corrupt(path: Path, reason: str) -> SnapshotError:
    return SnapshotError(f"snapshot file {str(path)!r} is unreadable: {reason}")


def _parse_line(path: Path, line: str, what: str) -> dict:
    try:
        record = json.loads(line)
    except ValueError as exc:
        raise _corrupt(path, f"{what} is not valid JSON ({exc})") from exc
    if not isinstance(record, dict):
        raise _corrupt(path, f"{what} is not a JSON object")
    return record


def _read_lines(path: Path) -> list[str]:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.readlines()
    except OSError as exc:
        raise SnapshotError(
            f"cannot read snapshot file {str(path)!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise _corrupt(path, f"not UTF-8 text ({exc})") from exc


# -- document store ----------------------------------------------------------


class DocumentStore:
    """The deduplicated per-generation document store.

    One store holds every decorated instance document (and its weighted
    length) exactly once; snapshot files saved against it reference
    documents by id (``ref`` records) instead of inlining them.  All
    snapshots loaded against the same store *share* its
    :class:`~repro.ir.documents.Document` objects, so a generation's
    documents are pinned in memory once no matter how many per-definition
    or per-shard snapshots reference them.
    """

    def __init__(self, analyzer: Analyzer, documents: dict[str, Document],
                 doc_lengths: dict[str, float]):
        """Wrap already-built mappings (no copies are taken).

        Args:
            analyzer: the analyzer the documents were tokenized with
                (checked against snapshots loaded from this store).
            documents: ``doc_id -> Document`` for every stored document.
            doc_lengths: ``doc_id -> weighted length``, same keys.
        """
        self.analyzer = analyzer
        self.documents = documents
        self.doc_lengths = doc_lengths

    @classmethod
    def from_snapshot(cls, snapshot: IndexSnapshot) -> "DocumentStore":
        """A store holding (copies of the mappings of) every document in
        ``snapshot`` — typically the collection-wide global snapshot, whose
        documents are a superset of every per-definition snapshot's."""
        return cls(snapshot.analyzer, dict(snapshot._documents),
                   dict(snapshot._doc_lengths))

    def __len__(self) -> int:
        return len(self.documents)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self.documents


def save_document_store(store: DocumentStore, path: str | os.PathLike) -> Path:
    """Write ``store`` to ``path`` (atomically); returns the path.

    The header carries a ``doc_index`` — ``doc_id -> [byte offset,
    length]`` of each document record, offsets relative to the end of the
    header line — so partition loads
    (:func:`load_document_store_partition`) can seek straight to their
    own documents instead of parsing the whole store.  The index has to
    live in the header (readable before any record), which is why the
    record lines are serialized up front here: their exact byte lengths
    are part of the header.

    Raises:
        SnapshotError: if a document carries unserializable metadata.
    """
    path = Path(path)
    doc_lines: list[str] = []
    doc_index: dict[str, list[int]] = {}
    offset = 0
    for doc_id in sorted(store.documents):
        line = _dumps(_doc_record(doc_id, store.documents[doc_id],
                                  store.doc_lengths[doc_id])) + "\n"
        size = len(line.encode("utf-8"))
        doc_index[doc_id] = [offset, size]
        doc_lines.append(line)
        offset += size
    header = {
        "magic": STORE_MAGIC,
        "format_version": STORE_VERSION,
        "analyzer": store.analyzer.config(),
        "stored_documents": len(store.documents),
        "doc_index": doc_index,
    }
    return _write_checksummed(path, [header, *doc_lines])


def load_document_store(path: str | os.PathLike) -> DocumentStore:
    """Read a document store saved by :func:`save_document_store`.

    Raises:
        SnapshotError: on missing/truncated files, checksum mismatches,
            and format-version mismatches.
    """
    path = Path(path)
    lines = _read_lines(path)
    if len(lines) < 2:
        raise _corrupt(path, "missing header or footer (truncated?)")
    header = _parse_line(path, lines[0], "header")
    if header.get("magic") != STORE_MAGIC:
        raise _corrupt(path, "not a qunits document store file (bad magic)")
    if header.get("format_version") != STORE_VERSION:
        raise SnapshotError(
            f"document store {str(path)!r} has format version "
            f"{header.get('format_version')!r}; this build reads version "
            f"{STORE_VERSION}"
        )
    footer_line = lines[-1]
    if not footer_line.endswith("\n"):
        raise _corrupt(path, "unterminated final line (truncated?)")
    footer = _parse_line(path, footer_line, "footer")
    if footer.get("t") != "end":
        raise _corrupt(path, "missing end-of-file footer (truncated?)")
    body = lines[1:-1]
    if footer.get("records") != len(body) or \
            header.get("stored_documents") != len(body):
        raise _corrupt(path, f"expected {header.get('stored_documents')} "
                             f"records, found {len(body)} (truncated?)")
    digest = hashlib.sha256()
    for line in lines[:-1]:
        digest.update(line.encode("utf-8"))
    if digest.hexdigest() != footer.get("sha256"):
        raise _corrupt(path, "checksum mismatch (corrupted)")

    documents: dict[str, Document] = {}
    doc_lengths: dict[str, float] = {}
    try:
        for i, line in enumerate(body):
            record = _parse_line(path, line, f"record {i + 1}")
            if record.get("t") != "doc":
                raise _corrupt(
                    path, f"record {i + 1} has unexpected type "
                          f"{record.get('t')!r}")
            doc_id, document, length = _doc_from_record(record)
            if doc_id in documents:
                raise _corrupt(path, f"duplicate document {doc_id!r}")
            documents[doc_id] = document
            doc_lengths[doc_id] = length
    except KeyError as exc:
        raise _corrupt(path, f"missing required key {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise _corrupt(path, f"malformed record structure ({exc})") from exc
    return DocumentStore(Analyzer.from_config(header.get("analyzer", {})),
                         documents, doc_lengths)


def load_document_store_partition(path: str | os.PathLike,
                                  doc_ids) -> DocumentStore:
    """Read only ``doc_ids`` from a document store — O(partition), not
    O(store).

    Uses the header's ``doc_index`` (``doc_id -> [offset, length]``) to
    seek directly to the requested records; a store written before the
    index existed falls back to a full :func:`load_document_store` (whose
    result is a superset of the partition).  Partition reads trade the
    whole-file sha256 verification for the O(partition) I/O that is their
    point; each fetched record is still verified to parse and to carry
    the expected doc_id, and a full load (which always verifies the
    checksum) remains available for auditing.

    Args:
        path: the store file written by :func:`save_document_store`.
        doc_ids: the document ids to load (an iterable; duplicates are
            read once).

    Raises:
        SnapshotError: on unreadable files, bad magic, format-version
            mismatches, ids absent from the store, or records that fail
            verification.
    """
    path = Path(path)
    try:
        handle = open(path, "rb")
    except OSError as exc:
        raise SnapshotError(
            f"cannot read snapshot file {str(path)!r}: {exc}") from exc
    with handle:
        first = handle.readline()
        if not first:
            raise _corrupt(path, "empty file")
        try:
            header = _parse_line(path, first.decode("utf-8"), "header")
        except UnicodeDecodeError as exc:
            raise _corrupt(path, f"header is not UTF-8 ({exc})") from exc
        if header.get("magic") != STORE_MAGIC:
            raise _corrupt(path, "not a qunits document store file "
                                 "(bad magic)")
        if header.get("format_version") != STORE_VERSION:
            raise SnapshotError(
                f"document store {str(path)!r} has format version "
                f"{header.get('format_version')!r}; this build reads "
                f"version {STORE_VERSION}"
            )
        doc_index = header.get("doc_index")
        if doc_index is None:
            # Pre-index store: the only way to find a record is to read
            # them all.  The full loader also verifies the checksum.
            return load_document_store(path)
        base = len(first)
        documents: dict[str, Document] = {}
        doc_lengths: dict[str, float] = {}
        for doc_id in sorted(set(doc_ids)):
            entry = doc_index.get(doc_id)
            if entry is None:
                raise _corrupt(
                    path, f"document {doc_id!r} is not in the store's "
                          f"doc_index")
            try:
                offset, size = entry
                handle.seek(base + offset)
                raw = handle.read(size).decode("utf-8")
            except (TypeError, ValueError, UnicodeDecodeError) as exc:
                raise _corrupt(
                    path, f"doc_index entry for {doc_id!r} is unusable "
                          f"({exc})") from exc
            record = _parse_line(path, raw, f"document {doc_id!r}")
            if record.get("t") != "doc" or record.get("id") != doc_id:
                raise _corrupt(
                    path, f"doc_index for {doc_id!r} points at a "
                          f"{record.get('t')!r} record for "
                          f"{record.get('id')!r}")
            try:
                _, document, length = _doc_from_record(record)
            except KeyError as exc:
                raise _corrupt(
                    path, f"missing required key {exc.args[0]!r}") from exc
            except (TypeError, ValueError) as exc:
                raise _corrupt(
                    path, f"malformed record structure ({exc})") from exc
            documents[doc_id] = document
            doc_lengths[doc_id] = length
    return DocumentStore(Analyzer.from_config(header.get("analyzer", {})),
                         documents, doc_lengths)


def read_snapshot_doc_ids(path: str | os.PathLike) -> list[str]:
    """The doc_ids of a snapshot file, in column order — without loading
    postings or resolving a document store.

    This is how a shard server discovers *which* documents its partition
    needs before fetching exactly those from the store
    (:func:`load_document_store_partition`).

    Raises:
        SnapshotError: as :func:`read_snapshot_header`.
    """
    backing = _V3Backing.open(Path(path))
    try:
        return list(backing.doc_ids)
    finally:
        backing.close()


# -- binary columns (format v3) ----------------------------------------------


def _pack_u32(values) -> bytes:
    """``values`` as a little-endian u32 array (portable across byte
    orders; falls back to :mod:`struct` on exotic ``array`` sizes)."""
    data = array("I", values)
    if data.itemsize != 4:
        return struct.pack(f"<{len(data)}I", *data)
    if sys.byteorder != "little":
        data.byteswap()
    return data.tobytes()


def _unpack_u32(buffer):
    """Inverse of :func:`_pack_u32`; returns an int sequence."""
    data = array("I")
    if data.itemsize != 4:
        return struct.unpack(f"<{len(buffer) // 4}I", bytes(buffer))
    data.frombytes(buffer)
    if sys.byteorder != "little":
        data.byteswap()
    return data


def _pack_f64(values) -> bytes:
    """``values`` as a little-endian float64 array (bit-exact)."""
    data = array("d", values)
    if sys.byteorder != "little":
        data.byteswap()
    return data.tobytes()


def _unpack_f64(buffer):
    """Inverse of :func:`_pack_f64`; returns a float sequence."""
    data = array("d")
    data.frombytes(buffer)
    if sys.byteorder != "little":
        data.byteswap()
    return data


def _default_precompute_scorers():
    """Scorers whose per-term contribution/block-bound columns
    :func:`save_snapshot` persists: the default BM25 configuration —
    what the collection layer scores with unless told otherwise.  Other
    scorers fall back to lazy computation on load (identical floats,
    just not prepaid)."""
    from repro.ir.scoring import Bm25Scorer

    return (Bm25Scorer(),)


# -- snapshot writers --------------------------------------------------------


def save_snapshot(snapshot: IndexSnapshot, path: str | os.PathLike, *,
                  docstore: str | None = None, shard: dict | None = None,
                  bloom: dict | None = None, precompute: bool = True,
                  vectors=None) -> Path:
    """Write ``snapshot`` to ``path`` in the version-3 binary columnar
    container; returns the path.

    The file is written to a temporary sibling and renamed into place, so
    readers never observe a half-written snapshot.

    Layout: the :data:`V3_MAGIC` struct header, a JSON meta blob
    (analyzer, statistics, docstore/shard/bloom), a JSON term directory
    (term → df and column extents), then the columns region — per-term u32
    interned-doc-position and float64 weighted-frequency columns, the
    float64 document-length column, the doc_id list blob, inline
    documents (standalone layout only), and per-(scorer, term)
    contribution/block-bound columns for the default scorers.  Every
    column carries a sha256, verified lazily on load.

    Args:
        snapshot: the frozen snapshot to persist.
        docstore: file name (relative to ``path``'s directory) of the
            document store the snapshot's documents live in.  When given,
            the file stores no document bodies — the deduplicated layout;
            the caller is responsible for the store actually covering the
            snapshot's doc_ids.  When ``None``, documents are inlined
            (standalone layout).
        shard: optional ``{"index": i, "count": n}`` partition coordinates
            recorded in the meta blob (see :mod:`repro.ir.shard`).
        bloom: optional serialized term Bloom filter
            (:meth:`~repro.ir.shard.TermBloomFilter.to_dict`) recorded in
            the meta blob so routers can read it without parsing postings.
        precompute: also persist contribution and block-max bound columns
            for the default scorers, so loads serve the hot path without
            recomputing them.
        vectors: optional :class:`~repro.ir.vector.VectorIndex` to
            persist as vector extents (a ``"vectors"`` directory section:
            the embedder config plus doc_id and row-major float64 matrix
            columns).  Only rows for the snapshot's own documents are
            written.  Files without this section load fine — the hybrid
            retrieval strategy then degrades to lexical with a warning
            (see :mod:`repro.ir.retrieval`).

    Raises:
        SnapshotError: if a document carries unserializable metadata, or
            ``vectors`` does not cover every snapshot document.
    """
    path = Path(path)
    doc_ids = sorted(snapshot._documents)
    terms = sorted(snapshot._postings)
    position = {doc_id: i for i, doc_id in enumerate(doc_ids)}

    columns = bytearray()

    def add_column(payload: bytes) -> list:
        offset = len(columns)
        columns.extend(payload)
        return [offset, len(payload),
                hashlib.sha256(payload).hexdigest()]

    docs_directory = {
        "doc_ids": add_column(_dumps(doc_ids).encode("utf-8")),
        "doc_lengths": add_column(_pack_f64(
            snapshot._doc_lengths[doc_id] for doc_id in doc_ids)),
        "documents": None,
    }
    if docstore is None:
        records = [_doc_record(doc_id, snapshot._documents[doc_id],
                               snapshot._doc_lengths[doc_id])
                   for doc_id in doc_ids]
        docs_directory["documents"] = add_column(
            _dumps(records).encode("utf-8"))

    terms_directory = {}
    for term in terms:
        plist = snapshot._postings[term]
        terms_directory[term] = {
            "df": snapshot._doc_frequencies.get(term, len(plist)),
            "n": len(plist),
            "pos": add_column(_pack_u32(
                position[posting.doc_id] for posting in plist)),
            "tf": add_column(_pack_f64(
                posting.weighted_tf for posting in plist)),
        }

    scorers_directory = {}
    if precompute:
        from repro.ir.wand import term_block_size

        for scorer in _default_precompute_scorers():
            per_term = {}
            for term in terms:
                plist = snapshot._postings[term]
                if len(plist) < _PRECOMPUTE_MIN_POSTINGS:
                    # Long-tail terms recompute lazily in microseconds;
                    # column + directory overhead would dominate their
                    # on-disk footprint.
                    continue
                plan = snapshot.term_contributions(scorer, term)
                if len(plan.doc_ids) != len(plist) or any(
                        doc_id != posting.doc_id for doc_id, posting
                        in zip(plan.doc_ids, plist)):
                    # The scorer's contributions do not align with the
                    # postings order; a load could not reconstruct the
                    # doc_ids, so leave this term to the lazy path.
                    continue
                block_size = term_block_size(len(plan.doc_ids))
                blocks = snapshot.term_block_bounds(scorer, term, block_size)
                per_term[term] = {
                    "contrib": add_column(_pack_f64(plan.contributions)),
                    "bound": plan.bound,
                    "block_size": block_size,
                    "blocks": add_column(_pack_f64(blocks)),
                }
            if per_term:
                scorers_directory[repr(scorer.cache_key())] = per_term

    vectors_directory = None
    if vectors is not None:
        restricted = vectors.restrict(doc_ids)
        if len(restricted) != len(doc_ids):
            missing = sorted(set(doc_ids) - set(restricted.doc_ids))
            raise SnapshotError(
                f"vector index is missing {len(missing)} snapshot "
                f"document(s) (e.g. {missing[0]!r}); refusing to persist "
                f"partial vector extents")
        vectors_directory = {
            "embedder": restricted.embedder_config,
            "dims": restricted.dims,
            "count": len(restricted),
            "doc_ids": add_column(
                _dumps(list(restricted.doc_ids)).encode("utf-8")),
            "matrix": add_column(_pack_f64(restricted.matrix)),
        }

    meta = {
        "magic": FORMAT_MAGIC,
        "format_version": FORMAT_VERSION,
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
    directory = {
        "docs": docs_directory,
        "terms": terms_directory,
        "scorers": scorers_directory,
    }
    if vectors_directory is not None:
        directory["vectors"] = vectors_directory
    meta_blob = _dumps(meta).encode("utf-8")
    dir_blob = _dumps(directory).encode("utf-8")
    meta_off = _V3_HEADER.size
    dir_off = meta_off + len(meta_blob)
    cols_off = dir_off + len(dir_blob)
    header = _V3_HEADER.pack(
        V3_MAGIC, FORMAT_VERSION, meta_off, len(meta_blob), dir_off,
        len(dir_blob), cols_off, len(columns),
        hashlib.sha256(meta_blob).digest(), hashlib.sha256(dir_blob).digest())

    tmp_path = path.with_name(path.name + ".tmp")
    try:
        with open(tmp_path, "wb") as handle:
            handle.write(header)
            handle.write(meta_blob)
            handle.write(dir_blob)
            handle.write(columns)
    except BaseException:
        tmp_path.unlink(missing_ok=True)
        raise
    os.replace(tmp_path, path)
    return path


# -- columnar container access (format v3) -----------------------------------


def _not_v3(path: Path, handle) -> SnapshotError:
    """The error for a file that does not open with :data:`V3_MAGIC`.

    A legacy JSON-lines snapshot (its first line a header carrying
    :data:`FORMAT_MAGIC`) is told to migrate; anything else is foreign.
    """
    handle.seek(0)
    try:
        header = json.loads(handle.readline())
    except ValueError:
        header = None
    if not isinstance(header, dict) or header.get("magic") != FORMAT_MAGIC:
        if handle.tell() == 0:
            return _corrupt(path, "empty file")
        return _corrupt(path, "not a qunits snapshot file (bad magic: "
                              "neither a v3 container nor a legacy "
                              "JSON-lines snapshot)")
    version = header.get("format_version")
    if version in (1, 2):
        return _legacy(path, f"is a version-{version} JSON-lines snapshot")
    return SnapshotError(
        f"snapshot file {str(path)!r} has format version {version!r}; "
        f"this build reads version {FORMAT_VERSION}")


def _legacy(path: Path, what: str) -> SnapshotError:
    return SnapshotError(
        f"snapshot file {str(path)!r} {what}, which this build no longer "
        f"serves; run `repro migrate {path}` to rewrite it as a clean "
        f"version-{FORMAT_VERSION} base")


def _read_v3_struct(path: Path, handle, *, tail_ok: bool = False) -> tuple:
    """Read and validate the fixed container header from ``handle``
    (positioned at 0); returns the unpacked extent/digest fields.

    Every v3 reader goes through here, so this is where the file size is
    held to the header's promise: a shorter file is truncated, and a
    longer one carries a legacy per-file delta tail that only
    ``repro migrate`` (``tail_ok``) may read.
    """
    raw = handle.read(_V3_HEADER.size)
    if raw[:len(V3_MAGIC)] != V3_MAGIC:
        raise _not_v3(path, handle)
    if len(raw) < _V3_HEADER.size:
        raise _corrupt(path, "truncated container header")
    (_magic, version, meta_off, meta_len, dir_off, dir_len, cols_off,
     cols_len, meta_sha, dir_sha) = _V3_HEADER.unpack(raw)
    if version != FORMAT_VERSION:
        raise SnapshotError(
            f"snapshot file {str(path)!r} has format version {version!r}; "
            f"this build reads version {FORMAT_VERSION}"
        )
    size = os.fstat(handle.fileno()).st_size
    end = cols_off + cols_len
    if size < end:
        raise _corrupt(path, f"file is {size} bytes but the header promises "
                             f"{end} (truncated?)")
    if size > end and not tail_ok:
        raise _legacy(path, f"carries {size - end} bytes of per-file delta "
                            f"segments past its columns")
    return (meta_off, meta_len, dir_off, dir_len, cols_off, cols_len,
            meta_sha, dir_sha)


def _parse_blob(path: Path, blob: bytes, what: str) -> dict:
    try:
        parsed = json.loads(blob.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise _corrupt(path, f"{what} is not valid JSON ({exc})") from exc
    if not isinstance(parsed, dict):
        raise _corrupt(path, f"{what} is not a JSON object")
    return parsed


def _parse_meta(path: Path, blob: bytes, sha: bytes) -> dict:
    """Verify and parse a v3 meta blob — the one place its checksum and
    magic are checked, shared by header-only reads and full opens."""
    if hashlib.sha256(blob).digest() != sha:
        raise _corrupt(path, "meta checksum mismatch (corrupted)")
    meta = _parse_blob(path, blob, "meta blob")
    if meta.get("magic") != FORMAT_MAGIC:
        raise _corrupt(path, "meta blob carries the wrong magic")
    return meta


def _read_v3_meta(path: Path) -> dict:
    """The meta blob of a v3 container — header-struct plus one seek;
    no term directory or column I/O (the router-cheap path)."""
    try:
        with open(path, "rb") as handle:
            (meta_off, meta_len, _dir_off, _dir_len, _cols_off, _cols_len,
             meta_sha, _dir_sha) = _read_v3_struct(path, handle)
            handle.seek(meta_off)
            meta_blob = handle.read(meta_len)
    except OSError as exc:
        raise SnapshotError(
            f"cannot read snapshot file {str(path)!r}: {exc}") from exc
    return _parse_meta(path, meta_blob, meta_sha)


class _V3Backing:
    """An open mmap over one v3 container, shared by every lazy view of
    the snapshot.

    Owns the map plus the parsed meta/directory, materializes individual
    columns on demand, and verifies each column's sha256 exactly once (on
    first touch — cold start never pays for columns it does not read).
    The mapping is read-only; it is closed explicitly by transient users
    (header/doc_id reads) and otherwise lives as long as the snapshot
    referencing it, keeping the file's inode alive even across a
    concurrent re-save/prune of the generation (POSIX semantics).
    """

    def __init__(self, path: Path, handle, view: mmap.mmap, meta: dict,
                 directory: dict, cols_off: int, cols_len: int):
        self.path = path
        self._handle = handle
        self._view = view
        self.meta = meta
        self.directory = directory
        self._cols_off = cols_off
        self._cols_len = cols_len
        self.container_end = cols_off + cols_len
        self._verified: set[tuple[int, int]] = set()
        self._term_doc_ids: dict[str, tuple[str, ...]] = {}
        try:
            docs = directory["docs"]
            self.term_directory = directory["terms"]
            self._scorer_directory = directory.get("scorers", {})
            doc_ids = json.loads(
                self.column(docs["doc_ids"]).decode("utf-8"))
        except (KeyError, TypeError) as exc:
            self.close()
            raise _corrupt(
                path, f"malformed term directory ({exc!r})") from exc
        except (ValueError, UnicodeDecodeError) as exc:
            self.close()
            raise _corrupt(
                path, f"doc_id column is not valid JSON ({exc})") from exc
        except SnapshotError:
            self.close()
            raise
        if not isinstance(doc_ids, list) or \
                not all(isinstance(doc_id, str) for doc_id in doc_ids):
            self.close()
            raise _corrupt(path, "doc_id column is not a list of strings")
        self.doc_ids: list[str] = doc_ids

    @classmethod
    def open(cls, path: Path, *, tail_ok: bool = False) -> "_V3Backing":
        try:
            handle = open(path, "rb")
        except OSError as exc:
            raise SnapshotError(
                f"cannot read snapshot file {str(path)!r}: {exc}") from exc
        try:
            (meta_off, meta_len, dir_off, dir_len, cols_off, cols_len,
             meta_sha, dir_sha) = _read_v3_struct(path, handle,
                                                  tail_ok=tail_ok)
            try:
                view = mmap.mmap(handle.fileno(), 0,
                                 access=mmap.ACCESS_READ)
            except (OSError, ValueError) as exc:
                raise _corrupt(path, f"cannot mmap ({exc})") from exc
        except BaseException:
            handle.close()
            raise
        try:
            meta = _parse_meta(path, view[meta_off:meta_off + meta_len],
                               meta_sha)
            dir_blob = view[dir_off:dir_off + dir_len]
            if hashlib.sha256(dir_blob).digest() != dir_sha:
                raise _corrupt(
                    path, "term directory checksum mismatch (corrupted)")
            directory = _parse_blob(path, dir_blob, "term directory")
        except BaseException:
            view.close()
            handle.close()
            raise
        return cls(path, handle, view, meta, directory, cols_off, cols_len)

    def close(self) -> None:
        self._view.close()
        self._handle.close()

    # -- columns -------------------------------------------------------------

    def column(self, descriptor) -> bytes:
        """The raw bytes of one column, sha256-verified on first access."""
        try:
            offset, length, sha = descriptor
            offset = int(offset)
            length = int(length)
        except (TypeError, ValueError) as exc:
            raise _corrupt(
                self.path,
                f"malformed column descriptor {descriptor!r}") from exc
        if offset < 0 or length < 0 or offset + length > self._cols_len:
            raise _corrupt(
                self.path,
                f"column [{offset}, {length}] exceeds the {self._cols_len}"
                f"-byte columns region (truncated?)")
        start = self._cols_off + offset
        payload = self._view[start:start + length]
        key = (offset, length)
        if key not in self._verified:
            if hashlib.sha256(payload).hexdigest() != sha:
                raise _corrupt(self.path,
                               "column checksum mismatch (corrupted)")
            self._verified.add(key)
        return payload

    def _term_entry(self, term: str) -> dict:
        entry = self.term_directory[term]  # KeyError = unknown term
        if not isinstance(entry, dict):
            raise _corrupt(self.path,
                           f"malformed directory entry for term {term!r}")
        return entry

    def term_doc_ids(self, term: str) -> tuple[str, ...]:
        """The term's doc_ids, resolved from its interned-position column
        (cached per term — contributions reuse the postings' resolution)."""
        cached = self._term_doc_ids.get(term)
        if cached is None:
            entry = self._term_entry(term)
            try:
                positions = _unpack_u32(self.column(entry["pos"]))
            except KeyError as exc:
                raise _corrupt(
                    self.path, f"term {term!r} directory entry is missing "
                               f"its {exc.args[0]!r} column") from exc
            doc_ids = self.doc_ids
            try:
                cached = tuple(doc_ids[i] for i in positions)
            except IndexError:
                raise _corrupt(
                    self.path,
                    f"term {term!r} references a document position outside "
                    f"this file's {len(doc_ids)} document records") from None
            self._term_doc_ids[term] = cached
        return cached

    def term_postings(self, term: str) -> tuple[Posting, ...]:
        """Materialize one term's postings tuple from its columns.

        Raises ``KeyError`` for a term the directory does not hold (the
        lazy postings mapping's contract) and ``SnapshotError`` for
        malformed or corrupted columns.
        """
        entry = self._term_entry(term)
        doc_ids = self.term_doc_ids(term)
        try:
            tfs = _unpack_f64(self.column(entry["tf"]))
        except KeyError as exc:
            raise _corrupt(
                self.path, f"term {term!r} directory entry is missing its "
                           f"{exc.args[0]!r} column") from exc
        if len(tfs) != len(doc_ids):
            raise _corrupt(
                self.path, f"term {term!r} has {len(doc_ids)} positions "
                           f"but {len(tfs)} frequencies")
        return tuple(Posting(doc_id, tf)
                     for doc_id, tf in zip(doc_ids, tfs))

    def term_contributions(self, scorer_key, term: str):
        """The persisted :class:`~repro.ir.index.TermContributions` for
        ``(scorer_key, term)``, or ``None`` when none was saved."""
        per_term = self._scorer_directory.get(repr(scorer_key))
        entry = per_term.get(term) if isinstance(per_term, dict) else None
        if entry is None or term not in self.term_directory:
            return None
        try:
            contributions = tuple(_unpack_f64(self.column(entry["contrib"])))
            bound = entry["bound"]
        except (TypeError, KeyError) as exc:
            raise _corrupt(
                self.path, f"malformed contribution entry for term "
                           f"{term!r} ({exc!r})") from exc
        doc_ids = self.term_doc_ids(term)
        if len(contributions) != len(doc_ids):
            raise _corrupt(
                self.path, f"term {term!r} has {len(doc_ids)} postings but "
                           f"{len(contributions)} persisted contributions")
        return TermContributions(doc_ids, contributions, bound)

    def term_block_bounds(self, scorer_key, term: str, block_size: int):
        """The persisted block-max bounds for ``(scorer_key, term)`` at
        exactly ``block_size``, or ``None`` when none match."""
        per_term = self._scorer_directory.get(repr(scorer_key))
        entry = per_term.get(term) if isinstance(per_term, dict) else None
        if entry is None or not isinstance(entry, dict) or \
                entry.get("block_size") != block_size:
            return None
        try:
            blocks = tuple(_unpack_f64(self.column(entry["blocks"])))
        except KeyError as exc:
            raise _corrupt(
                self.path, f"malformed block-bound entry for term "
                           f"{term!r} ({exc!r})") from exc
        n = len(self.term_doc_ids(term))
        if len(blocks) != -(-n // block_size):
            raise _corrupt(
                self.path, f"term {term!r} has {len(blocks)} block bounds "
                           f"for {n} postings at block size {block_size}")
        return blocks

    # -- vectors -------------------------------------------------------------

    def vector_index(self):
        """The persisted :class:`~repro.ir.vector.VectorIndex`, or
        ``None`` when this container carries no vector extents (files
        written before the hybrid backend, migrated v1/v2 files, or
        saves with ``vectors=None`` — the graceful-degradation case the
        hybrid strategy falls back to lexical on)."""
        entry = self.directory.get("vectors")
        if entry is None:
            return None
        from repro.ir.vector import VectorIndex

        try:
            doc_ids = json.loads(
                self.column(entry["doc_ids"]).decode("utf-8"))
            matrix = _unpack_f64(self.column(entry["matrix"]))
            dims = int(entry["dims"])
            config = entry["embedder"]
        except (KeyError, TypeError, ValueError,
                UnicodeDecodeError) as exc:
            raise _corrupt(
                self.path,
                f"malformed vector extents ({exc!r})") from exc
        if not isinstance(doc_ids, list) or not isinstance(config, dict):
            raise _corrupt(self.path, "malformed vector extents")
        try:
            return VectorIndex(tuple(doc_ids), matrix, dims, config)
        except ValueError as exc:
            raise _corrupt(
                self.path, f"vector extents are inconsistent "
                           f"({exc})") from exc

    # -- documents -----------------------------------------------------------

    def doc_lengths_mapping(self) -> dict[str, float]:
        """``doc_id -> weighted length`` from the length column."""
        try:
            lengths = _unpack_f64(
                self.column(self.directory["docs"]["doc_lengths"]))
        except (TypeError, KeyError) as exc:
            raise _corrupt(self.path,
                           "missing document length column") from exc
        if len(lengths) != len(self.doc_ids):
            raise _corrupt(
                self.path, f"{len(self.doc_ids)} documents but "
                           f"{len(lengths)} stored lengths")
        return dict(zip(self.doc_ids, lengths))

    def inline_documents(self) -> dict[str, Document]:
        """Parse the standalone layout's inline document blob (one whole-
        blob parse, on first document access)."""
        descriptor = self.directory["docs"].get("documents")
        if descriptor is None:
            raise _corrupt(
                self.path, "snapshot is docstore-backed but was asked for "
                           "inline documents")
        try:
            records = json.loads(self.column(descriptor).decode("utf-8"))
            documents = {}
            for record in records:
                doc_id, document, _length = _doc_from_record(record)
                documents[doc_id] = document
        except (KeyError, TypeError, ValueError,
                UnicodeDecodeError) as exc:
            raise _corrupt(
                self.path, f"malformed document blob ({exc!r})") from exc
        if set(documents) != set(self.doc_ids):
            raise _corrupt(self.path,
                           "document blob does not match the doc_id column")
        return documents


class _LazyPostings(Mapping):
    """``term -> tuple[Posting, ...]`` materialized per term from the
    mmap'd columns, cached after first touch.  Pickles as a plain dict
    (materializing everything) — mmap handles do not cross processes."""

    __slots__ = ("_backing", "_cache")

    def __init__(self, backing: _V3Backing):
        self._backing = backing
        self._cache: dict[str, tuple[Posting, ...]] = {}

    def __getitem__(self, term: str) -> tuple[Posting, ...]:
        try:
            return self._cache[term]
        except KeyError:
            pass
        plist = self._backing.term_postings(term)
        self._cache[term] = plist
        return plist

    def __iter__(self):
        return iter(self._backing.term_directory)

    def __len__(self) -> int:
        return len(self._backing.term_directory)

    def __contains__(self, term) -> bool:
        return term in self._backing.term_directory

    def __reduce__(self):
        return (dict, (dict(self),))


class _LazyDocuments(Mapping):
    """``doc_id -> Document`` for the standalone layout: keys come from
    the (eagerly loaded) doc_id column, bodies from one whole-blob parse
    deferred until the first document access.  Pickles as a plain dict."""

    __slots__ = ("_backing", "_documents", "_ids")

    def __init__(self, backing: _V3Backing):
        self._backing = backing
        self._documents: dict[str, Document] | None = None
        self._ids: frozenset[str] | None = None

    def _materialized(self) -> dict[str, Document]:
        if self._documents is None:
            self._documents = self._backing.inline_documents()
        return self._documents

    def __getitem__(self, doc_id: str) -> Document:
        return self._materialized()[doc_id]

    def __iter__(self):
        return iter(self._backing.doc_ids)

    def __len__(self) -> int:
        return len(self._backing.doc_ids)

    def __contains__(self, doc_id) -> bool:
        if self._ids is None:
            self._ids = frozenset(self._backing.doc_ids)
        return doc_id in self._ids

    def __reduce__(self):
        return (dict, (dict(self),))


# -- snapshot readers --------------------------------------------------------


def read_snapshot_header(path: str | os.PathLike) -> dict:
    """The parsed meta blob of a snapshot file (magic/version checked).

    Cheap enough for routers that need a shard file's Bloom filter or
    partition coordinates without its postings: the fixed struct header
    plus the meta blob (the term directory and columns are not touched).

    Raises:
        SnapshotError: on unreadable or truncated files, bad magic, an
            unsupported format version, or a file written by an older
            build (v1/v2, or a trailing delta tail) — the message then
            names ``repro migrate``.
    """
    return _read_v3_meta(Path(path))


def load_snapshot(path: str | os.PathLike,
                  store: DocumentStore | None = None) -> IndexSnapshot:
    """Read a snapshot saved by :func:`save_snapshot`.

    Args:
        path: the snapshot file.
        store: the document store backing the file's ``ref`` records.
            When ``None`` and the header names a docstore, the store is
            loaded from the sibling file automatically; pass a pre-loaded
            store to share one copy of the documents across many snapshot
            loads (what :meth:`~repro.core.store.CollectionStore.load`
            does).

    Returns:
        A fully self-contained snapshot: it answers searches (and hands
        out documents) without any live index.  Documents resolved through
        a store are *shared* with it, not copied.

    Raises:
        SnapshotError: on missing/truncated files, checksum mismatches,
            format-version mismatches, files written by an older build
            (named ``repro migrate`` in the message), dangling document
            references, and analyzer disagreements with the store.
    """
    snapshot, _meta = _load_v3(Path(path), store)
    return snapshot


def load_snapshot_with_header(path: str | os.PathLike,
                              store: DocumentStore | None = None,
                              ) -> tuple[IndexSnapshot, dict]:
    """Like :func:`load_snapshot`, but also returning the parsed header.

    One file read serves callers that need header fields (shard
    coordinates, a Bloom filter) alongside the snapshot — re-reading
    the header through :func:`read_snapshot_header` would open and
    parse the file a second time, a cost
    :meth:`~repro.core.store.CollectionStore.load` pays once per
    definition on the cold-start path.
    """
    return _load_v3(Path(path), store)


def _resolve_v3_store(path: Path, backing: _V3Backing,
                      store: DocumentStore | None) -> DocumentStore | None:
    """Resolve (and analyzer-check) the document store a v3 container's
    meta names, mirroring the v2 ``ref`` resolution rules."""
    docstore_name = backing.meta.get("docstore")
    if docstore_name is not None and store is None:
        store = load_document_store(path.parent / docstore_name)
    if store is not None:
        analyzer = Analyzer.from_config(backing.meta.get("analyzer", {}))
        if store.analyzer != analyzer:
            raise SnapshotError(
                f"snapshot {str(path)!r} was built with analyzer "
                f"{analyzer!r}, but its document store uses "
                f"{store.analyzer!r}; refusing to mix tokenizations"
            )
    return store


def _v3_documents(path: Path, backing: _V3Backing,
                  store: DocumentStore | None):
    """The documents mapping for a v3 load: store-shared dict for the
    docstore layout, a lazily parsed view for the standalone layout."""
    if backing.meta.get("docstore") is not None:
        if store is None:
            raise _corrupt(
                path, "snapshot references a document store but the meta "
                      "blob names none")
        documents: dict[str, Document] = {}
        for doc_id in backing.doc_ids:
            if doc_id not in store.documents:
                raise _corrupt(
                    path, f"document {doc_id!r} is not in the document "
                          f"store")
            documents[doc_id] = store.documents[doc_id]
        return documents
    return _LazyDocuments(backing)


def _columnar_snapshot(path: Path, backing: _V3Backing,
                       documents) -> ColumnarIndexSnapshot:
    """Assemble the lazy column-backed snapshot over an open backing."""
    meta = backing.meta
    try:
        if len(backing.doc_ids) != meta["stored_documents"]:
            raise _corrupt(path, "document record count does not match "
                                 "header")
        if len(backing.term_directory) != meta["stored_terms"]:
            raise _corrupt(path, "term record count does not match header")
        doc_frequencies: dict[str, int] = {}
        for term, entry in backing.term_directory.items():
            doc_frequencies[term] = entry["df"]
        return ColumnarIndexSnapshot(
            backing=backing,
            mmap_path=path,
            version=meta["index_version"],
            analyzer=Analyzer.from_config(meta.get("analyzer", {})),
            documents=documents,
            postings=_LazyPostings(backing),
            doc_lengths=backing.doc_lengths_mapping(),
            doc_frequencies=doc_frequencies,
            document_count=meta["document_count"],
            average_document_length=meta["average_document_length"],
            min_document_length=meta["min_document_length"],
        )
    except KeyError as exc:
        raise _corrupt(path, f"missing required key {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise _corrupt(path, f"malformed record structure ({exc})") from exc


def _load_v3(path: Path, store: DocumentStore | None,
             ) -> tuple[ColumnarIndexSnapshot, dict]:
    """The binary columnar container (mmap-backed, columns on demand):
    a :class:`ColumnarIndexSnapshot` whose postings/contributions
    materialize per term from the map — the O(header + term directory)
    cold-start path — plus the parsed meta blob."""
    backing = _V3Backing.open(path)
    try:
        store = _resolve_v3_store(path, backing, store)
        documents = _v3_documents(path, backing, store)
        return _columnar_snapshot(path, backing, documents), backing.meta
    except BaseException:
        backing.close()
        raise


def open_scoring_snapshot(path: str | os.PathLike) -> IndexSnapshot:
    """Open a snapshot for scoring only, skipping document bodies.

    The zero-copy worker path: the columns are mmap'd, no document store
    is opened, no document blob is parsed, and postings materialize per
    queried term — what a process-mode shard worker calls instead of
    receiving a pickled snapshot over the fork boundary (N workers then
    share one OS page cache).

    Raises:
        SnapshotError: as :func:`load_snapshot`.
    """
    path = Path(path)
    backing = _V3Backing.open(path)
    try:
        return _columnar_snapshot(path, backing, documents={})
    except BaseException:
        backing.close()
        raise


def fold_delta_record(record: dict, documents: dict, doc_lengths: dict,
                      postings: dict, doc_frequencies: dict, stats: dict,
                      *, path: Path | None = None,
                      what: str = "delta record") -> None:
    """Fold one verified delta record into base index mappings, in place.

    Used by collection-journal readers (:func:`read_collection_journal`
    consumers) and by ``repro migrate`` for legacy per-file tails: the
    record's documents and posting additions are merged and the running
    statistics in ``stats`` (``index_version``, ``document_count``,
    ``average_document_length``, ``min_document_length``) replaced with
    the record's.  A term entry with no surviving additions (a record
    narrowed by :func:`filter_delta_record`) still refreshes the term's
    document frequency when the term exists locally — shard snapshots
    carry collection-wide statistics — but never creates an empty
    postings list.

    Raises:
        SnapshotError: if the record re-adds a document already present.
    """
    for doc_record in record["docs"]:
        doc_id, document, length = _doc_from_record(doc_record)
        if doc_id in documents:
            raise _corrupt(path or Path("<journal>"),
                           f"{what} re-adds document {doc_id!r}")
        documents[doc_id] = document
        doc_lengths[doc_id] = length
    for term, df, additions in record["terms"]:
        if not additions:
            if term in postings:
                doc_frequencies[term] = df
            continue
        merged = list(postings.get(term, ()))
        merged.extend(Posting(doc_id, weighted_tf)
                      for doc_id, weighted_tf in additions)
        merged.sort(key=lambda posting: posting.doc_id)
        postings[term] = tuple(merged)
        doc_frequencies[term] = df
    stats["index_version"] = record["index_version"]
    stats["document_count"] = record["document_count"]
    stats["average_document_length"] = record["average_document_length"]
    stats["min_document_length"] = record["min_document_length"]


def build_delta_record(analyzer, documents, doc_lengths, document_frequency,
                       new_ids, *, seq: int, index_version: int,
                       document_count: int, average_document_length: float,
                       min_document_length: float) -> dict:
    """Serialize ``new_ids`` as one delta record (sans checksum line).

    Per-term weighted frequencies are recomputed by re-tokenizing each
    document with the same accumulation order as
    :meth:`~repro.ir.index.InvertedIndex.add`, so the floats in the
    record are bit-identical to live postings — O(new documents' text),
    never a scan of the index.  ``document_frequency`` must report the
    post-addition (current) collection-wide df for a term; the trailing
    statistics describe the post-addition index state.

    The payload of every collection-journal record
    (:func:`append_collection_txn`).
    """
    docs_records = []
    term_additions: dict[str, list[tuple[str, float]]] = {}
    for doc_id in new_ids:
        document = documents[doc_id]
        length = doc_lengths[doc_id]
        docs_records.append(_doc_record(doc_id, document, length))
        weighted_tfs: dict[str, float] = {}
        for field_name, text in document.fields:
            weight = document.weight(field_name)
            for token in analyzer.tokens(text):
                weighted_tfs[token] = weighted_tfs.get(token, 0.0) + weight
        for term, weighted_tf in weighted_tfs.items():
            term_additions.setdefault(term, []).append(
                (doc_id, weighted_tf))
    terms_payload = [
        [term, document_frequency(term), sorted(additions)]
        for term, additions in sorted(term_additions.items())
    ]
    return {
        "t": "delta",
        "seq": seq,
        "index_version": index_version,
        "document_count": document_count,
        "average_document_length": average_document_length,
        "min_document_length": min_document_length,
        "docs": docs_records,
        "terms": terms_payload,
    }


def filter_delta_record(record: dict, keep) -> dict:
    """A copy of a delta record narrowed to documents where ``keep(doc_id)``
    is true — how a collection journal's global records are projected onto
    one hash shard.  Collection-wide statistics (document counts, per-term
    document frequencies, average/min length, index version) are preserved
    verbatim: shard snapshots carry global statistics by design, so scores
    stay float-identical to the unsharded path."""
    return {
        **record,
        "docs": [doc_record for doc_record in record["docs"]
                 if keep(doc_record["id"])],
        "terms": [[term, df,
                   [addition for addition in additions if keep(addition[0])]]
                  for term, df, additions in record["terms"]],
    }


# -- collection-level journal -------------------------------------------------


def append_collection_txn(path: str | os.PathLike, generation: str,
                          committed_bytes: int, records: list[dict]) -> int:
    """Append one transaction of delta records to a collection journal.

    Each record is a :func:`build_delta_record` payload carrying an extra
    ``"target"`` key (``None`` for the global snapshot, else a definition
    name) and a per-target ``seq``; it is written as a ``delta`` line
    followed by a ``delta-end`` checksum line (sha256 of the full delta
    line, target included).  The file is created with its header line
    when ``committed_bytes`` is 0; otherwise the file is truncated back
    to ``committed_bytes`` first, so a torn tail from an earlier crashed
    append can never corrupt the new transaction.  The write is fsynced.

    Returns the new committed byte size — the caller must record it in
    the collection manifest (atomically) to commit the transaction;
    until that swap lands, readers ignore everything past the manifest's
    ``committed_bytes`` and keep serving the previous state.

    Raises:
        SnapshotError: if the journal cannot be written.
    """
    path = Path(path)
    chunks = []
    for record in records:
        line = _dumps(record) + "\n"
        end = {
            "t": "delta-end",
            "seq": record["seq"],
            "target": record.get("target"),
            "sha256": hashlib.sha256(line.encode("utf-8")).hexdigest(),
        }
        chunks.append(line)
        chunks.append(_dumps(end) + "\n")
    payload = "".join(chunks).encode("utf-8")
    try:
        if committed_bytes <= 0 or not path.exists():
            header = _dumps({"magic": JOURNAL_MAGIC,
                             "format_version": JOURNAL_VERSION,
                             "generation": generation}) + "\n"
            payload = header.encode("utf-8") + payload
            with open(path, "wb") as handle:
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())
            return len(payload)
        with open(path, "r+b") as handle:
            handle.truncate(committed_bytes)
            handle.seek(0, os.SEEK_END)
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        return committed_bytes + len(payload)
    except OSError as exc:
        raise SnapshotError(
            f"cannot append to collection journal {str(path)!r}: {exc}"
        ) from exc


def read_collection_journal(path: str | os.PathLike, committed_bytes: int,
                            *, generation: str | None = None,
                            expected_counts: dict | None = None,
                            ) -> dict:
    """Parse and verify the committed prefix of a collection journal.

    Only the first ``committed_bytes`` bytes (the extent the manifest
    committed) are read: bytes past that point are a torn append whose
    manifest swap never landed and are ignored — crash recovery is
    simply serving the previous committed state.  Corruption *within*
    the committed prefix (bad checksum, out-of-sequence records, a short
    file) raises: the manifest vouched for those bytes.

    Args:
        path: the ``journal-<generation>.jrnl`` file.
        generation: when given, the header's generation must match.
        expected_counts: optional ``{target: segment count}`` mapping
            (``None`` key = global) from the manifest; the committed
            prefix must hold exactly these per-target record counts.

    Returns:
        ``{target: [record, ...]}`` with per-target records in commit
        order (``seq`` 1..n verified), targets being ``None`` for the
        global snapshot or a definition name.

    Raises:
        SnapshotError: on any verification failure.
    """
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            data = handle.read(committed_bytes)
    except OSError as exc:
        raise SnapshotError(
            f"cannot read collection journal {str(path)!r}: {exc}") from exc
    if len(data) < committed_bytes:
        raise _corrupt(path, f"journal holds {len(data)} bytes but the "
                             f"manifest committed {committed_bytes}")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _corrupt(path, f"not UTF-8 text ({exc})") from exc
    if not text.endswith("\n"):
        raise _corrupt(path, "committed journal prefix does not end on a "
                             "record boundary")
    lines = text.splitlines(keepends=True)
    if not lines:
        raise _corrupt(path, "journal is empty")
    header = _parse_line(path, lines[0], "journal header")
    if header.get("magic") != JOURNAL_MAGIC:
        raise _corrupt(path, "journal header carries the wrong magic")
    if header.get("format_version") != JOURNAL_VERSION:
        raise _corrupt(path, f"unsupported journal format_version "
                             f"{header.get('format_version')!r}")
    if generation is not None and header.get("generation") != generation:
        raise _corrupt(path, f"journal generation "
                             f"{header.get('generation')!r} does not match "
                             f"the manifest's {generation!r}")
    by_target: dict = {}
    i = 1
    while i < len(lines):
        what = f"journal record {i}"
        delta_line = lines[i]
        if i + 1 >= len(lines):
            raise _corrupt(path, f"{what} is missing its checksum line "
                                 f"inside the committed prefix")
        record = _parse_line(path, delta_line, what)
        end = _parse_line(path, lines[i + 1], f"{what} checksum")
        if record.get("t") != "delta" or end.get("t") != "delta-end":
            raise _corrupt(path, f"{what} has malformed record types")
        target = record.get("target")
        if target is not None and not isinstance(target, str):
            raise _corrupt(path, f"{what} has a malformed target")
        if end.get("target") != target:
            raise _corrupt(path, f"{what} checksum names a different target")
        seen = by_target.setdefault(target, [])
        if record.get("seq") != len(seen) + 1 or end.get("seq") != \
                len(seen) + 1:
            raise _corrupt(path, f"{what} is out of sequence for target "
                                 f"{target!r}")
        if hashlib.sha256(delta_line.encode("utf-8")).hexdigest() != \
                end.get("sha256"):
            raise _corrupt(path, f"{what} checksum mismatch (corrupted)")
        seen.append(record)
        i += 2
    if expected_counts is not None:
        actual = {target: len(records)
                  for target, records in by_target.items()}
        expected = {target: count for target, count in
                    expected_counts.items() if count}
        if actual != expected:
            raise _corrupt(path, f"committed journal segment counts "
                                 f"{actual!r} do not match the manifest's "
                                 f"{expected!r}")
    return by_target
