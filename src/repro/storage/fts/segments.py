"""Immutable FTS posting-list segments on the warehouse format-4 wire.

A segment is one flushed batch of documents: a JSON header (document ids,
the sorted term dictionary, per-term segment specs) followed by a binary body
of typed integer segments — exactly the frame the v4 warehouse blocks use
(:func:`~repro.storage.warehouse.blocks.wrap_payload` magic + codec byte,
4-byte header length, narrowest-fit signed-integer arrays).

Layout
------

Header (JSON, keys sorted)::

    {
      "format": 1,
      "kind": "fts",
      "segment_id": <int>,
      "docs": [doc_id, ...],          # sorted; JSON strings or ints
      "lsns": <seg>,                  # per-doc last-writer LSN
      "lens": <seg>,                  # per-doc token count; -1 = tombstone
      "terms": [[term, docs_seg, tfs_seg, pos_seg], ...]   # sorted by term
    }

Body: the referenced ``seg`` specs (``{"t", "off", "n"}``).  Per term,
``docs_seg`` holds ordinals into ``docs`` (ascending), ``tfs_seg`` the term
frequency per posting, and ``pos_seg`` the concatenated token positions of
every posting — a posting's positions are its next ``tf`` values, so no
separate length array is needed.

Tombstones travel *inside* segments (``lens`` entry of ``-1``).  No reader
decodes a segment's per-document ``lsns``/``lens`` any more: the index keeps
liveness in memory and backfills from the table on open.  The fields stay so
the format (and its byte pin) does not move.

Query-time decoding is lazy per term, like the warehouse's lazy columns:
only the posting lists of the queried terms are materialised.
"""

from __future__ import annotations

import json
from array import array
from bisect import bisect_left
from typing import Any, Iterable, Sequence

from ...errors import FtsError
from ..warehouse.blocks import (
    append_segment,
    int_typecode,
    read_segment,
    split_payload,
    unwrap_payload,
    wrap_payload,
)

SEGMENT_FORMAT = 1
SEGMENT_KIND = "fts"

#: A tombstone's ``lens`` entry: the document was deleted at its LSN.
TOMBSTONE_LEN = -1


def _typecode_for(values: Sequence[int]) -> str:
    """Narrowest signed typecode covering ``values`` (``b`` when empty)."""
    if not values:
        return "b"
    typecode = int_typecode(min(values), max(values))
    if typecode is None:
        raise FtsError(f"posting values out of int64 range: {min(values)}..{max(values)}")
    return typecode


def build_segment_payload(
    segment_id: int,
    doc_meta: Sequence[tuple[Any, int, int]],
    term_postings: dict[str, dict[int, Sequence[int]]],
    compression_level: int = 6,
) -> bytes:
    """Serialise a segment; the single code path for fresh builds *and* merges.

    ``doc_meta`` is ``[(doc_id, lsn, length)]`` already sorted by doc id
    (``length`` is :data:`TOMBSTONE_LEN` for deletions); ``term_postings``
    maps ``term -> {ordinal: positions}`` with ordinals indexing ``doc_meta``.
    Because merges re-enter through this exact function with the remapped
    postings, a merged segment's postings are bit-identical to a fresh build
    of the same logical content.
    """
    body = bytearray()
    lsns = [lsn for _, lsn, _ in doc_meta]
    lens = [length for _, _, length in doc_meta]
    lsns_seg = append_segment(body, _typecode_for(lsns), lsns)
    lens_seg = append_segment(body, _typecode_for(lens), lens)
    terms_spec = []
    for term in sorted(term_postings):
        postings = sorted(term_postings[term].items())
        ordinals = [ordinal for ordinal, _ in postings]
        tfs = [len(positions) for _, positions in postings]
        flat_positions = [pos for _, positions in postings for pos in positions]
        terms_spec.append(
            [
                term,
                append_segment(body, _typecode_for(ordinals), ordinals),
                append_segment(body, _typecode_for(tfs), tfs),
                append_segment(body, _typecode_for(flat_positions), flat_positions),
            ]
        )
    header = {
        "format": SEGMENT_FORMAT,
        "kind": SEGMENT_KIND,
        "segment_id": segment_id,
        "docs": [doc_id for doc_id, _, _ in doc_meta],
        "lsns": lsns_seg,
        "lens": lens_seg,
        "terms": terms_spec,
    }
    encoded = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    payload = len(encoded).to_bytes(4, "big") + encoded + bytes(body)
    return wrap_payload(payload, compression_level)


def build_segment_from_docs(
    segment_id: int,
    docs: Iterable[tuple[Any, int, Sequence[str] | None]],
    compression_level: int = 6,
) -> bytes:
    """Serialise ``(doc_id, lsn, tokens-or-None)`` documents into a segment.

    ``tokens=None`` writes a tombstone.  Documents are sorted by id; postings
    are derived from token positions and routed through
    :func:`build_segment_payload`.
    """
    entries = sorted(docs, key=lambda entry: _doc_sort_key(entry[0]))
    doc_meta = []
    term_postings: dict[str, dict[int, list[int]]] = {}
    for ordinal, (doc_id, lsn, tokens) in enumerate(entries):
        if tokens is None:
            doc_meta.append((doc_id, lsn, TOMBSTONE_LEN))
            continue
        doc_meta.append((doc_id, lsn, len(tokens)))
        for position, token in enumerate(tokens):
            term_postings.setdefault(token, {}).setdefault(ordinal, []).append(position)
    return build_segment_payload(segment_id, doc_meta, term_postings, compression_level)


def _doc_sort_key(doc_id: Any):
    """Stable ordering for document ids (homogeneous int or str per index)."""
    return (isinstance(doc_id, str), doc_id)


class Segment:
    """A decoded, lazily-materialised posting-list segment."""

    def __init__(self, data: bytes) -> None:
        payload = unwrap_payload(data)
        header, base = split_payload(payload)
        if header.get("kind") != SEGMENT_KIND or header.get("format") != SEGMENT_FORMAT:
            raise FtsError(f"not an FTS segment: kind={header.get('kind')!r}")
        self._payload = payload
        self._base = base
        self.segment_id: int = header["segment_id"]
        self.doc_ids: list[Any] = list(header["docs"])
        self.lsns: array = read_segment(header["lsns"], payload, base)
        self.lens: array = read_segment(header["lens"], payload, base)
        if not (len(self.doc_ids) == len(self.lsns) == len(self.lens)):
            raise FtsError("corrupt FTS segment: doc metadata lengths disagree")
        #: Sorted term dictionary and per-term body specs (decoded on demand).
        self._terms: list[str] = [spec[0] for spec in header["terms"]]
        self._specs: dict[str, tuple[dict, dict, dict]] = {
            spec[0]: (spec[1], spec[2], spec[3]) for spec in header["terms"]
        }

    def __len__(self) -> int:
        return len(self.doc_ids)

    @property
    def terms(self) -> list[str]:
        """The segment's sorted vocabulary."""
        return self._terms

    def has_term(self, term: str) -> bool:
        return term in self._specs

    def term_tfs(self, term: str) -> tuple[array, array]:
        """``(ordinals, tfs)`` of a term's postings (empty arrays if absent).

        Decodes only the two arrays scoring needs — positions stay on the
        wire until :meth:`term_positions` asks for them.
        """
        spec = self._specs.get(term)
        if spec is None:
            return array("b"), array("b")
        docs_seg, tfs_seg, _ = spec
        return (
            read_segment(docs_seg, self._payload, self._base),
            read_segment(tfs_seg, self._payload, self._base),
        )

    def term_positions(self, term: str) -> dict[int, tuple[int, ...]]:
        """``{ordinal: positions}`` of a term's postings."""
        spec = self._specs.get(term)
        if spec is None:
            return {}
        docs_seg, tfs_seg, pos_seg = spec
        ordinals = read_segment(docs_seg, self._payload, self._base)
        tfs = read_segment(tfs_seg, self._payload, self._base)
        flat = read_segment(pos_seg, self._payload, self._base)
        out: dict[int, tuple[int, ...]] = {}
        cursor = 0
        for ordinal, tf in zip(ordinals, tfs):
            out[ordinal] = tuple(flat[cursor:cursor + tf])
            cursor += tf
        return out

    def terms_with_prefix(self, prefix: str) -> list[str]:
        """All vocabulary terms starting with ``prefix`` (bisect on the dict)."""
        if not prefix:
            return list(self._terms)
        start = bisect_left(self._terms, prefix)
        out = []
        for index in range(start, len(self._terms)):
            term = self._terms[index]
            if not term.startswith(prefix):
                break
            out.append(term)
        return out
