"""Columnar block format of the warehouse tables.

Rows are grouped into blocks; inside a block each column is stored as its own
array together with min/max/null statistics, enabling column pruning and
predicate push-down during scans.

Blocks serialise to one **versioned** byte format, format 4 (the full wire
layout is documented in ``docs/warehouse-format.md``): ``RWB4`` magic + a
codec byte + the block payload, zlib-compressed on the wire by default.  The
payload itself is a small JSON header (statistics, sort key, per-column
encoding specs) followed by a binary body holding the bulk column data as
fixed-width typed arrays: dictionary codes and integer columns as
narrowest-fitting signed integers, float columns as C doubles.  The expensive
part of decode (``zlib.decompress`` plus ``array.frombytes``) runs outside the
GIL, so executor workers genuinely overlap block decode during parallel
scans.  Incompressible payloads fall back to a
stored (uncompressed) codec rather than growing on the wire.

Per column the header picks an encoding: **run-length** (``[count, value]``
pairs) for sorted / low-change columns, **dictionary** (distinct values once,
plus an integer code per row) for low-cardinality ones — codes are type-tagged
while encoding so ``1``, ``1.0`` and ``True`` never collapse onto one slot —
whole-column **int/float** segments, and header-resident ``typed`` (timestamps
as ISO strings) / ``plain`` arrays for everything else.  Rows may be sorted by
a **sort key** before encoding; sorted blocks have tight, often disjoint zone
maps on the sort column and support binary-search range filtering
(:func:`sorted_range`) instead of a full column pass.

The column arrays inside a decoded block (``ColumnarBlock.columns``) are the
unit of vectorised execution: :mod:`repro.storage.warehouse.warehouse` builds
selection vectors over them directly instead of materialising row dicts.
Dictionary-encoded columns additionally keep their decoded dictionary and raw
code array (:meth:`ColumnarBlock.dictionary`) so grouped aggregation can bucket
rows by small integer codes instead of hashing the decoded values row-by-row.
"""

from __future__ import annotations

import bisect
import json
import zlib
from array import array
from collections.abc import Mapping
from dataclasses import dataclass, field
from datetime import datetime
from typing import Any, Callable, Iterable, Sequence

from ...errors import WarehouseError

#: The serialisation format version; the only one read or written.
BLOCK_FORMAT_VERSION = 4

#: Leading magic of the format-4 wire frame.
WIRE_MAGIC = b"RWB4"

#: Codec byte following the magic: zlib-compressed or stored payload.
_CODEC_ZLIB = b"z"
_CODEC_STORED = b"0"

#: Default zlib level for newly written blocks (0 disables compression).
DEFAULT_COMPRESSION_LEVEL = 6


def encode_value(value: Any) -> Any:
    if isinstance(value, datetime):
        return {"__ts__": value.isoformat()}
    return value


def decode_value(value: Any) -> Any:
    if isinstance(value, dict) and set(value) == {"__ts__"}:
        return datetime.fromisoformat(value["__ts__"])
    return value


def _comparable(values: Iterable[Any]) -> list[Any]:
    out = [v for v in values if v is not None]
    if not out:
        return []
    first_type = type(out[0])
    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in out):
        return out
    if all(isinstance(v, first_type) for v in out):
        return out
    return []


def ordering_token(value: Any) -> tuple[bool, Any]:
    """Total-order token used for sort keys: ``None`` sorts before any value."""
    return (value is not None, value)


def sort_rows(
    rows: Sequence[dict[str, Any]], sort_key: Sequence[str]
) -> tuple[list[dict[str, Any]], tuple[str, ...] | None]:
    """Sort rows by ``sort_key`` columns (``None`` first), best effort.

    Returns ``(rows, applied_key)``.  When the key values have no consistent
    ordering (mixed types), the rows come back in their original order and the
    applied key is ``None`` — callers must not claim the data is clustered.
    The sort is stable, so equal-key rows keep their insertion order.
    """
    key = tuple(sort_key)
    if not key:
        return list(rows), None
    try:
        ordered = sorted(
            rows, key=lambda row: tuple(ordering_token(row.get(c)) for c in key)
        )
    except TypeError:
        return list(rows), None
    return ordered, key


def sorted_range(array: Sequence[Any], low: Any, high: Any) -> tuple[int, int] | None:
    """Index range ``[start, stop)`` of values in ``[low, high]`` of a sorted array.

    The array must be sorted in :func:`ordering_token` order (``None`` values
    first).  ``None`` bounds are unbounded on that side; ``None`` values never
    match a bounded filter, so they are excluded from the range.  Returns
    ``None`` when the bounds are not comparable with the array values — the
    caller then falls back to a linear filter pass.
    """
    try:
        if low is None:
            # Skip the leading None run: None never matches a bounded filter.
            start = bisect.bisect_left(array, True, key=lambda v: v is not None)
        else:
            start = bisect.bisect_left(array, (True, low), key=ordering_token)
        if high is None:
            stop = len(array)
        else:
            stop = bisect.bisect_right(array, (True, high), key=ordering_token)
    except TypeError:
        return None
    return start, stop


def _dictionary_budget(n_rows: int) -> int:
    """Maximum dictionary size worth paying for a column of ``n_rows`` values."""
    return max(16, n_rows // 4)


#: Types eligible for dictionary and run-length encoding.  Scalars only: a
#: shared dictionary slot / run value decodes to one object reused across all
#: equal rows, which is only safe when that object is immutable (a tuple would
#: decode to one *list* aliased across all equal rows — those fall through to
#: the plain array, which JSON-decodes a fresh object per row).
_DICT_ENCODABLE = (str, int, float, bool, datetime)


def _strict_key(value: Any) -> tuple[str, str]:
    """Identity key for encoding: equal-but-distinct values stay distinct.

    Keyed on repr, not ``__eq__``: values like ``1`` / ``1.0`` / ``True``,
    ``-0.0`` vs ``0.0`` or tz-aware datetimes at the same instant must keep
    their own dictionary slot / run, or the round-trip would rewrite them.
    """
    return (type(value).__name__, repr(value))


def _rle_runs(values: list[Any]) -> list[list[Any]] | None:
    """``[count, value]`` runs of the column, or ``None`` if RLE-ineligible.

    Ineligible means non-scalar values *or* too many runs to be worth it
    (``2 × runs`` must not exceed the row count) — the loop aborts the moment
    the run budget is blown, so high-cardinality columns don't pay a full
    repr() pass on the write path just to have the result thrown away.
    """
    budget = len(values) // 2
    runs: list[list[Any]] = []
    previous: Any = None
    for value in values:
        if value is not None and not isinstance(value, _DICT_ENCODABLE):
            return None
        key = None if value is None else _strict_key(value)
        if runs and key == previous:
            runs[-1][0] += 1
        else:
            if len(runs) >= budget:
                return None
            runs.append([1, value])
            previous = key
    return runs


def _expand_dictionary(values: list[Any], codes: list[int | None]) -> list[Any]:
    """Materialise a dictionary column back into its per-row value array."""
    return [None if code is None else values[code] for code in codes]


def _decode_column(spec: dict[str, Any]) -> list[Any]:
    """Decode one header-resident column specification into a value array."""
    enc = spec.get("enc")
    if enc == "plain":
        return list(spec["data"])
    if enc == "typed":
        return [decode_value(v) for v in spec["data"]]
    if enc == "rle":
        out: list[Any] = []
        for count, value in spec["runs"]:
            # One decoded object per run, shared by every row of the run —
            # safe because only immutable scalars are RLE-encoded.
            out.extend([decode_value(value)] * count)
        return out
    raise WarehouseError(f"unknown column encoding {enc!r}")


# ---------------------------------------------------------------- format-4 wire

#: Fixed item sizes of the binary body segments.  ``array`` typecodes are
#: platform-sized in principle; decode verifies the local interpreter agrees
#: with the wire before trusting any offsets.
_SEG_ITEMSIZE = {"b": 1, "h": 2, "i": 4, "q": 8, "d": 8}

#: Inclusive value ranges of the signed-integer segment typecodes, narrowest
#: first — columns are stored at the smallest width that fits.
_INT_RANGES = (
    ("b", -(1 << 7), (1 << 7) - 1),
    ("h", -(1 << 15), (1 << 15) - 1),
    ("i", -(1 << 31), (1 << 31) - 1),
    ("q", -(1 << 63), (1 << 63) - 1),
)


def validate_compression_level(level: Any) -> int:
    """Check a compression level knob (an int in ``[0, 9]``; 0 = store raw)."""
    if not isinstance(level, int) or isinstance(level, bool) or not 0 <= level <= 9:
        raise WarehouseError(
            f"compression_level must be an integer in [0, 9], got {level!r}"
        )
    return level


def wrap_payload(payload: bytes, compression_level: int = DEFAULT_COMPRESSION_LEVEL) -> bytes:
    """Frame a format-4 payload for the wire: magic + codec byte + body.

    ``compression_level`` 1-9 zlib-compresses the payload; 0 stores it raw.
    A payload that zlib cannot shrink (already-compressed or high-entropy
    data) is stored raw as well, so the wire never grows past
    ``len(payload) + 5``.
    """
    validate_compression_level(compression_level)
    if compression_level > 0:
        compressed = zlib.compress(payload, compression_level)
        if len(compressed) < len(payload):
            return WIRE_MAGIC + _CODEC_ZLIB + compressed
    return WIRE_MAGIC + _CODEC_STORED + payload


def unwrap_payload(data: bytes) -> bytes:
    """The raw payload of a format-4 wire frame (decompressing if needed)."""
    if data[:4] != WIRE_MAGIC:
        raise WarehouseError("not a format-4 block frame")
    codec = data[4:5]
    if codec == _CODEC_ZLIB:
        try:
            return zlib.decompress(data[5:])
        except zlib.error as exc:
            raise WarehouseError(f"corrupt block data: {exc}") from exc
    if codec == _CODEC_STORED:
        return data[5:]
    raise WarehouseError(f"unknown block codec {codec!r}")


def wire_payload(data: bytes) -> dict[str, Any]:
    """Decoded JSON header of a block's wire frame.

    Introspection helper for tests, tools and storage statistics.
    Body-backed columns reference their binary segment through a ``seg``
    spec instead of inlining values.
    """
    header, _base = _split_payload(unwrap_payload(data))
    return header


def _split_payload(payload: bytes) -> tuple[dict[str, Any], int]:
    """``(header, body_offset)`` of a format-4 payload."""
    if len(payload) < 4:
        raise WarehouseError("corrupt block data: truncated payload")
    header_len = int.from_bytes(payload[:4], "big")
    if 4 + header_len > len(payload):
        raise WarehouseError("corrupt block data: header length out of range")
    try:
        header = json.loads(payload[4:4 + header_len].decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise WarehouseError(f"corrupt block data: {exc}") from exc
    return header, 4 + header_len


def _int_typecode(low: int, high: int) -> str | None:
    """Narrowest signed segment typecode covering ``[low, high]``, if any."""
    for typecode, lo, hi in _INT_RANGES:
        if low >= lo and high <= hi:
            return typecode
    return None


def _append_segment(body: bytearray, typecode: str, values: Sequence) -> dict[str, Any]:
    """Append a typed array to the body; returns its ``seg`` spec."""
    seg = {"t": typecode, "off": len(body), "n": len(values)}
    body += array(typecode, values).tobytes()
    return seg


def _read_segment(seg: dict[str, Any], payload: bytes, base: int) -> array:
    """Materialise one binary body segment back into a typed array."""
    typecode = seg.get("t")
    itemsize = _SEG_ITEMSIZE.get(typecode)
    if itemsize is None:
        raise WarehouseError(f"unknown segment typecode {typecode!r}")
    out = array(typecode)
    if out.itemsize != itemsize:
        raise WarehouseError(
            f"platform array({typecode!r}) width {out.itemsize} does not match "
            f"the wire width {itemsize}"
        )
    start = base + seg["off"]
    stop = start + itemsize * seg["n"]
    if seg["off"] < 0 or seg["n"] < 0 or stop > len(payload):
        raise WarehouseError("corrupt block data: segment out of range")
    out.frombytes(memoryview(payload)[start:stop])
    return out


# The format-4 framing (wrap/split) and typed binary segments are shared wire
# machinery: the FTS engine serialises its posting lists with the same frame,
# header + body layout, and narrowest-fit integer segments as warehouse
# columns.  Public aliases keep the underscore names private to this module.
split_payload = _split_payload
int_typecode = _int_typecode
append_segment = _append_segment
read_segment = _read_segment


def _try_numeric_segment(values: list[Any], body: bytearray) -> dict[str, Any] | None:
    """Body-segment spec for an all-int or all-float column, else ``None``.

    Strict types only (``bool`` is not an int here, and a mixed int/float
    column must keep per-value types), integers must fit in 64 bits, and the
    null-position list kept in the header must stay small relative to the
    column — otherwise the column falls through to a header encoding.
    """
    kind: str | None = None
    low = high = 0
    nulls: list[int] = []
    for position, value in enumerate(values):
        if value is None:
            nulls.append(position)
            continue
        value_type = type(value)
        if value_type is int:
            if kind is None:
                low = high = value
                kind = "int"
            elif kind != "int":
                return None
            elif value < low:
                low = value
            elif value > high:
                high = value
        elif value_type is float:
            if kind is None:
                kind = "float"
            elif kind != "float":
                return None
        else:
            return None
    if kind is None or 8 * len(nulls) > len(values):
        return None
    if kind == "int":
        typecode = _int_typecode(low, high)
        if typecode is None:  # beyond 64-bit: Python ints are unbounded
            return None
    else:
        typecode = "d"
    data = [0 if v is None else v for v in values] if nulls else values
    spec = {"enc": kind, "seg": _append_segment(body, typecode, data)}
    if nulls:
        spec["nulls"] = nulls
    return spec


def _encode_column_v4(values: list[Any], body: bytearray) -> dict[str, Any]:
    """Encode one column for the format-4 payload.

    The decision ladder, with the bulk data moved into binary body segments:
    RLE first (runs stay in the header — they are few by construction), then
    dictionary encoding with the per-row *codes* as a narrow integer segment
    (code ``-1`` = null), then whole-column int/float segments, then the
    header-resident ``typed``/``plain`` fallbacks for everything else.
    """
    runs = _rle_runs(values)
    if runs is not None:
        return {
            "enc": "rle",
            "runs": [[count, encode_value(value)] for count, value in runs],
        }

    budget = _dictionary_budget(len(values))
    codes: list[int] | None = []
    mapping: dict[Any, int] = {}
    dictionary: list[Any] = []
    for value in values:
        if value is None:
            codes.append(-1)
            continue
        if not isinstance(value, _DICT_ENCODABLE):
            codes = None
            break
        key = _strict_key(value)
        code = mapping.get(key)
        if code is None:
            if len(dictionary) >= budget:
                codes = None
                break
            code = len(dictionary)
            mapping[key] = code
            dictionary.append(value)
        codes.append(code)
    if codes is not None and len(dictionary) < len(values):
        typecode = _int_typecode(-1, max(len(dictionary) - 1, 0))
        spec = {
            "enc": "dict",
            "values": [encode_value(v) for v in dictionary],
            "seg": _append_segment(body, typecode, codes),
        }
        if -1 in codes:
            # Recorded at write time so decode can use a null-free codes
            # array verbatim without scanning it for sentinels first.
            spec["has_nulls"] = True
        return spec

    numeric = _try_numeric_segment(values, body)
    if numeric is not None:
        return numeric
    if any(isinstance(v, datetime) for v in values):
        return {"enc": "typed", "data": [encode_value(v) for v in values]}
    return {"enc": "plain", "data": values}


class _LazyColumns(Mapping):
    """Column name → value-array mapping that materialises on first access.

    Format-4 blocks decode their (small) JSON header eagerly but expand a
    column's body segment / header spec only when something touches it, so a
    scan projecting two of ten columns never pays for the other eight.  The
    mapping presents the *full* column schema for membership, iteration and
    length; only ``__getitem__`` (and iterating ``items``/``values``)
    triggers materialisation.  Deliberately a :class:`Mapping`, not a
    ``dict`` subclass: ``dict(columns)`` / ``{**columns}`` then go through
    ``keys()`` + ``__getitem__`` and see every column, instead of CPython's
    concrete-dict fast path copying a half-materialised store.

    Materialising the same column twice from two scan threads is a benign
    race (both compute the same value array); once a column is materialised
    its loader slot is cleared so the decompressed payload the loaders close
    over is freed as soon as nothing still needs it.
    """

    __slots__ = ("_loaders", "_materialised")

    def __init__(self, loaders: dict[str, Callable[[], list[Any]]]) -> None:
        self._loaders: dict[str, Callable[[], list[Any]] | None] = loaders
        self._materialised: dict[str, list[Any]] = {}

    def __getitem__(self, name: str) -> list[Any]:
        value = self._materialised.get(name)
        if value is not None:
            return value
        loader = self._loaders[name]  # KeyError: no such column
        if loader is None:
            # Another thread materialised (and released) this column between
            # our lookup miss and now; the value is present.
            return self._materialised[name]
        value = loader()
        self._materialised[name] = value
        self._loaders[name] = None
        return value

    def __contains__(self, name: object) -> bool:
        return name in self._loaders

    def __iter__(self):
        return iter(self._loaders)

    def __len__(self) -> int:
        return len(self._loaders)

    def __repr__(self) -> str:
        pending = [name for name in self._loaders if name not in self._materialised]
        return f"_LazyColumns({self._materialised!r}, pending={pending!r})"


@dataclass
class ColumnarBlock:
    """One block of a warehouse table: column arrays + per-column statistics.

    ``sort_key`` names the columns the rows are physically sorted by (``None``
    when unsorted); ``dictionaries`` caches the ``(values, codes)`` pair of
    each dictionary-encoded column :meth:`dictionary` has resolved off the
    wire, giving aggregation a code-level fast path (it stays empty for
    blocks built straight from rows).
    ``role`` distinguishes ordinary ``"base"`` blocks from CDC ``"delta"``
    blocks (row versions merged into the base at read time); it rides in the
    JSON header, leaving the format-4 wire layout unchanged.
    """

    columns: Mapping[str, list[Any]]
    n_rows: int
    stats: dict[str, dict[str, Any]] = field(default_factory=dict)
    sort_key: tuple[str, ...] | None = None
    role: str = "base"
    dictionaries: dict[str, tuple[list[Any], Sequence[int | None]]] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: Lazy ``(values, codes)`` loaders of not-yet-materialised dictionary
    #: columns (format-4 decode); resolved and cached by :meth:`dictionary`.
    _dict_loaders: dict[str, Callable[[], tuple[list[Any], Sequence[int | None]]]] = field(
        default_factory=dict, repr=False, compare=False
    )

    @classmethod
    def from_rows(
        cls,
        rows: Sequence[dict[str, Any]],
        column_names: Sequence[str],
        sort_key: Sequence[str] | None = None,
        role: str = "base",
    ) -> "ColumnarBlock":
        """Build a block from row dictionaries (missing columns become ``None``).

        With ``sort_key`` the rows are sorted by those columns first (stable,
        ``None`` first); if their values have no consistent ordering the block
        is built unsorted and carries no sort key.
        """
        if not rows:
            raise WarehouseError("cannot build a block from zero rows")
        applied: tuple[str, ...] | None = None
        if sort_key:
            rows, applied = sort_rows(rows, sort_key)
        columns: dict[str, list[Any]] = {
            name: [row.get(name) for row in rows] for name in column_names
        }
        stats: dict[str, dict[str, Any]] = {}
        for name, values in columns.items():
            comparable = _comparable(values)
            low = high = None
            if comparable:
                try:
                    low, high = min(comparable), max(comparable)
                except TypeError:  # same-typed but unordered values (dicts)
                    pass
            stats[name] = {
                "nulls": sum(1 for v in values if v is None),
                "min": low,
                "max": high,
            }
        return cls(
            columns=columns, n_rows=len(rows), stats=stats, sort_key=applied, role=role
        )

    def to_rows(self, columns: Sequence[str] | None = None) -> list[dict[str, Any]]:
        """Materialise the block back into row dictionaries (optionally projected)."""
        names = list(columns) if columns is not None else list(self.columns)
        missing = [n for n in names if n not in self.columns]
        if missing:
            raise WarehouseError(f"block has no column(s) {missing!r}")
        return [
            {name: self.columns[name][i] for name in names}
            for i in range(self.n_rows)
        ]

    def column(self, name: str) -> list[Any]:
        """Copy of one column's values (mutation-safe)."""
        return list(self.column_array(name))

    def column_array(self, name: str) -> list[Any]:
        """The internal column array — treat as read-only (shared with caches)."""
        if name not in self.columns:
            raise WarehouseError(f"block has no column {name!r}")
        return self.columns[name]

    def dictionary(self, name: str) -> tuple[list[Any], Sequence[int | None]] | None:
        """``(values, codes)`` of a dictionary-encoded column, else ``None``.

        Only available on blocks decoded from bytes; the codes sequence is
        positionally aligned with :meth:`column_array` (``None`` code = null).
        A null-free codes sequence may be a typed ``array`` of small ints
        rather than a list — treat it as a read-only int sequence.
        """
        pair = self.dictionaries.get(name)
        if pair is None:
            loader = self._dict_loaders.get(name)
            if loader is not None:
                pair = loader()
                self.dictionaries[name] = pair
                # Drop the loader so the payload bytes it closes over can be
                # freed once nothing else still needs them.
                self._dict_loaders.pop(name, None)
            else:
                # A concurrent caller may have resolved and dropped the
                # loader between our two lookups; its store to
                # ``dictionaries`` happens before the drop, so re-reading is
                # race-free.
                pair = self.dictionaries.get(name)
        return pair

    def is_sorted_by(self, column: str) -> bool:
        """Whether the block's rows are physically sorted by ``column``.

        Only the *leading* sort-key column is totally ordered across the whole
        block, so only it supports binary-search range filtering.
        """
        return bool(self.sort_key) and self.sort_key[0] == column

    # ------------------------------------------------------------ statistics

    def might_contain(self, column: str, low: Any = None, high: Any = None) -> bool:
        """Zone-map check: could a value of ``column`` fall in ``[low, high]``?

        Conservative: returns ``True`` whenever statistics are missing or the
        bounds are not comparable with the stored min/max.
        """
        stats = self.stats.get(column)
        if not stats or stats["min"] is None or stats["max"] is None:
            return True
        try:
            if low is not None and stats["max"] < low:
                return False
            if high is not None and stats["min"] > high:
                return False
        except TypeError:
            return True
        return True

    # ---------------------------------------------------------- serialisation

    def to_payload(self) -> bytes:
        """The uncompressed format-4 payload: JSON header + binary body.

        ``len(to_payload())`` is the block's *uncompressed* byte count; the
        wire frame (:func:`wrap_payload`) adds the magic/codec envelope and
        the zlib compression.
        """
        body = bytearray()
        columns = {
            name: _encode_column_v4(values, body)
            for name, values in self.columns.items()
        }
        header = {
            "format": BLOCK_FORMAT_VERSION,
            "n_rows": self.n_rows,
            "columns": columns,
            "stats": {
                name: {key: encode_value(value) for key, value in stat.items()}
                for name, stat in self.stats.items()
            },
        }
        if self.sort_key:
            header["sort_key"] = list(self.sort_key)
        if self.role != "base":
            header["role"] = self.role
        encoded = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
        return len(encoded).to_bytes(4, "big") + encoded + bytes(body)

    def to_bytes(self, compression_level: int = DEFAULT_COMPRESSION_LEVEL) -> bytes:
        """Serialise the block to versioned wire bytes (format 4)."""
        return wrap_payload(self.to_payload(), compression_level)

    @classmethod
    def from_bytes(cls, data: bytes) -> "ColumnarBlock":
        """Deserialise a format-4 wire frame (anything else is rejected)."""
        payload_bytes = unwrap_payload(data)
        header, base = _split_payload(payload_bytes)
        if header.get("format") != BLOCK_FORMAT_VERSION:
            raise WarehouseError(
                f"unsupported block format {header.get('format')!r} "
                f"(only format {BLOCK_FORMAT_VERSION} is read)"
            )
        stats = {
            name: {key: decode_value(value) for key, value in stat.items()}
            for name, stat in header.get("stats", {}).items()
        }
        sort_key = header.get("sort_key")

        # Columns materialise lazily: each loader closes over the payload
        # bytes and its header spec, so a scan touching two columns never
        # expands the rest.  Dictionary columns share one cached
        # ``(values, codes)`` pair between :meth:`dictionary` (the grouped
        # fast path) and the expanded value array.
        column_loaders: dict[str, Callable[[], list[Any]]] = {}
        dict_loaders: dict[str, Callable[[], tuple[list[Any], Sequence[int | None]]]] = {}
        block_cell: list[ColumnarBlock] = []

        def make_loaders(name: str, spec: dict[str, Any]) -> Callable[[], list[Any]]:
            enc = spec.get("enc")
            if enc == "dict":
                def load_pair() -> tuple[list[Any], Sequence[int | None]]:
                    values = [decode_value(v) for v in spec["values"]]
                    arr = _read_segment(spec["seg"], payload_bytes, base)
                    # -1 codes mark nulls (flagged at write time); a
                    # null-free array is kept as-is — grouping hashes its
                    # small ints directly.
                    codes: Sequence[int | None] = (
                        [None if c < 0 else c for c in arr]
                        if spec.get("has_nulls") else arr
                    )
                    return values, codes

                dict_loaders[name] = load_pair
                return lambda: _expand_dictionary(*block_cell[0].dictionary(name))
            if enc in ("int", "float"):
                def load_numeric() -> list[Any]:
                    decoded = list(_read_segment(spec["seg"], payload_bytes, base))
                    for position in spec.get("nulls", ()):
                        decoded[position] = None
                    return decoded

                return load_numeric
            return lambda: _decode_column(spec)

        for name, spec in header["columns"].items():
            column_loaders[name] = make_loaders(name, spec)
        block = cls(
            columns=_LazyColumns(column_loaders),
            n_rows=int(header["n_rows"]),
            stats=stats,
            sort_key=tuple(sort_key) if sort_key else None,
            role=str(header.get("role", "base")),
            _dict_loaders=dict_loaders,
        )
        block_cell.append(block)
        return block
