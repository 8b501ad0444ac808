"""Golden pins of the two on-disk formats: warehouse blocks and FTS segments.

Fixed rows go through every writer (append, CDC deltas with an update, a
delete and two cross-partition moves, a fold) at ``compression_level=0`` so
the digests do not depend on the zlib build.  A moved pin
means files written by the previous commit are no longer byte-identical —
either restore the bytes or update the pin together with the format notes in
``docs/warehouse-format.md`` / ``docs/fts.md``.
"""

import hashlib
from datetime import datetime

from repro.storage.fts import FtsIndex
from repro.storage.warehouse import DistributedFileSystem, Warehouse

BLOCKS_SHA256 = "56827b196d9f4470272f1fbad03986b8efb5f4d9386c07e478d4b4180dd00284"
FTS_SEGMENTS_SHA256 = "e62edb6fa27979f638d152ca134e62d33fbd49d2154db77057f65c3d1601c623"

COLUMNS = ["id", "outlet", "score", "title", "topics", "ts"]


def _row(key, day, hour, outlet, score, title=None, topics=()):
    return {
        "id": key, "outlet": outlet, "score": score, "title": title,
        "topics": list(topics), "ts": datetime(2020, 3, day, hour, 30),
    }


BASE_ROWS = [
    _row(1, 1, 9, "alpha.example", 0.5, "first", ["covid"]),
    _row(2, 1, 7, "beta.example", None, "second"),
    _row(3, 1, 8, "alpha.example", 2.25, None, ["covid", "vaccines"]),
    _row(4, 1, 6, "gamma.example", -1.0, "fourth"),
    _row(5, 1, 5, "beta.example", 4.0, "fifth", ["masks"]),
    _row(6, 2, 12, "alpha.example", 1.5, "sixth"),
    _row(7, 2, 11, "beta.example", 3.0, "seventh", ["covid"]),
    _row(8, 3, 10, "gamma.example", 0.0, "eighth"),
    _row(9, 3, 9, "gamma.example", 7.75, "ninth", ["vaccines"]),
]

DELTAS = [
    (11, "u", _row(1, 1, 9, "alpha.example", 0.75, "first, revised", ["covid"])),
    (12, "d", _row(4, 1, 6, "gamma.example", -1.0, "fourth")),
    (13, "u", _row(3, 2, 8, "alpha.example", 2.25, None, ["covid", "vaccines"])),
    (14, "u", _row(10, 2, 13, "delta.example", 9.0, "tenth")),
    (15, "u", _row(9, 2, 9, "gamma.example", 7.75, "ninth", ["vaccines"])),
]


def _digest(dfs, paths):
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(path.encode("utf-8"))
        digest.update(dfs.read_file(path))
    return digest.hexdigest()


def test_warehouse_blocks_are_byte_stable():
    dfs = DistributedFileSystem(n_nodes=3, replication=2)
    warehouse = Warehouse(dfs, block_rows=2, compression_level=0)
    table = warehouse.create_table(
        "pins", columns=COLUMNS, partition_column="ts", partition_by="day",
        sort_key=["ts"], primary_key="id",
    )
    table.append(BASE_ROWS)
    table.append_deltas(DELTAS)
    # Fold one partition only: the other two keep their delta blocks, so
    # base and delta blocks are both pinned.
    table.compact_partition("2020-03-01")
    blocks = dfs.list_files("/warehouse/pins/")
    assert all(path.endswith(".blk") for path in blocks)
    assert any("/delta-" in path for path in blocks)
    assert _digest(dfs, blocks) == BLOCKS_SHA256


def test_fts_segments_are_byte_stable():
    dfs = DistributedFileSystem(n_nodes=3, replication=2)
    index = FtsIndex("pins", dfs=dfs, flush_docs=None, compression_level=0)
    index.add("a", text="Masks reduce transmission of the virus", lsn=1)
    index.add(7, text="vaccine trial reports strong immune response", lsn=2)
    index.flush()
    index.add("b", text="the virus spreads; masks help, vaccines help more", lsn=3)
    index.delete("a", lsn=4)
    index.flush()
    index.compact()
    index.add("c", text="a second wave of the virus", lsn=5)
    index.add(7, text="vaccine trial paused", lsn=6)
    index.flush()
    segments = [p for p in dfs.list_files("/fts/pins") if p.endswith(".fts")]
    assert len(segments) == 2
    assert _digest(dfs, segments) == FTS_SEGMENTS_SHA256
