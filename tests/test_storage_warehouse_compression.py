"""Tests for block format 4 (compressed wire frames, typed body segments),
per-partition compaction, the storage-stats surface and the DFS IO counters."""

import json
import random
from datetime import datetime, timedelta

import pytest

from repro.core.analytics import WarehouseAnalytics
from repro.errors import WarehouseError
from repro.storage.cdc import CdcPublisher, DeltaApplier
from repro.storage.migration import MigrationJob
from repro.storage.rdbms.database import Database
from repro.storage.rdbms.schema import Column, TableSchema
from repro.storage.rdbms.types import ColumnType
from repro.storage.warehouse.blocks import (
    BLOCK_FORMAT_VERSION,
    DEFAULT_COMPRESSION_LEVEL,
    WIRE_MAGIC,
    ColumnarBlock,
    split_payload,
    unwrap_payload,
    wire_payload,
    wrap_payload,
)
from repro.storage.warehouse.dfs import DistributedFileSystem
from repro.storage.warehouse.warehouse import Warehouse


# ======================================================================
# Format-4 wire frames
# ======================================================================


class TestFormat4Wire:
    ROWS = [
        {"id": i, "outlet": f"o{i % 4}", "score": float(i) / 3, "n": i * 1000,
         "ts": datetime(2020, 2, 1) + timedelta(hours=i)}
        for i in range(64)
    ]
    COLS = ["id", "outlet", "score", "n", "ts"]

    def test_wire_starts_with_magic_and_declares_format_4(self):
        data = ColumnarBlock.from_rows(self.ROWS, self.COLS).to_bytes()
        assert data[:4] == WIRE_MAGIC
        header = wire_payload(data)
        assert header["format"] == BLOCK_FORMAT_VERSION == 4

    def test_v4_roundtrip_across_compression_levels(self):
        block = ColumnarBlock.from_rows(self.ROWS, self.COLS)
        for level in (0, 1, DEFAULT_COMPRESSION_LEVEL, 9):
            restored = ColumnarBlock.from_bytes(block.to_bytes(compression_level=level))
            assert restored.to_rows() == self.ROWS
            assert restored.stats == block.stats

    def test_level_zero_stores_raw_payload(self):
        block = ColumnarBlock.from_rows(self.ROWS, self.COLS)
        data = block.to_bytes(compression_level=0)
        assert data[4:5] == b"0"
        assert unwrap_payload(data) == block.to_payload()
        compressed = block.to_bytes(compression_level=9)
        assert compressed[4:5] == b"z"
        assert len(compressed) < len(data)

    def test_invalid_compression_levels_rejected(self):
        block = ColumnarBlock.from_rows(self.ROWS[:2], self.COLS)
        for level in (-1, 10, 2.5, True, None):
            with pytest.raises(WarehouseError):
                block.to_bytes(compression_level=level)

    def test_incompressible_payload_falls_back_to_stored(self):
        raw = random.Random(7).randbytes(2048)
        framed = wrap_payload(raw, compression_level=9)
        assert framed[4:5] == b"0"  # zlib could not shrink it: stored codec
        assert len(framed) == len(raw) + 5
        assert unwrap_payload(framed) == raw

    def test_empty_block_roundtrips(self):
        block = ColumnarBlock(columns={"a": [], "b": []}, n_rows=0)
        restored = ColumnarBlock.from_bytes(block.to_bytes())
        assert restored.n_rows == 0
        assert restored.column("a") == [] and restored.column("b") == []

    def test_int_columns_use_typed_segments_with_nulls(self):
        values = list(range(-300, 300)) + [None, None]
        rows = [{"x": v} for v in values]
        block = ColumnarBlock.from_rows(rows, ["x"])
        spec = wire_payload(block.to_bytes())["columns"]["x"]
        assert spec["enc"] == "int" and spec["seg"]["t"] == "h"
        assert ColumnarBlock.from_bytes(block.to_bytes()).column("x") == values

    def test_float_columns_preserve_special_values(self):
        values = [0.1 * i for i in range(200)] + [-0.0, float("inf"), None]
        rows = [{"x": v} for v in values]
        block = ColumnarBlock.from_rows(rows, ["x"])
        assert wire_payload(block.to_bytes())["columns"]["x"]["enc"] == "float"
        decoded = ColumnarBlock.from_bytes(block.to_bytes()).column("x")
        assert [repr(v) for v in decoded] == [repr(v) for v in values]

    def test_huge_ints_fall_back_to_plain_json(self):
        values = [2 ** 70 + i for i in range(100)]
        rows = [{"x": v} for v in values]
        block = ColumnarBlock.from_rows(rows, ["x"])
        assert wire_payload(block.to_bytes())["columns"]["x"]["enc"] == "plain"
        assert ColumnarBlock.from_bytes(block.to_bytes()).column("x") == values

    def test_mixed_int_float_column_keeps_per_value_types(self):
        # An f64 segment would silently rewrite 1 as 1.0.
        values = ([1, 2.5] * 40) + [True]
        rows = [{"x": v} for v in values]
        restored = ColumnarBlock.from_bytes(ColumnarBlock.from_rows(rows, ["x"]).to_bytes())
        for original, decoded in zip(values, restored.column("x")):
            assert decoded == original and type(decoded) is type(original)

    def test_null_dictionary_codes_roundtrip(self):
        values = (["a", "b", None, "c"] * 30)[:100]
        rows = [{"k": v} for v in values]
        block = ColumnarBlock.from_rows(rows, ["k"])
        restored = ColumnarBlock.from_bytes(block.to_bytes())
        assert restored.column("k") == values
        dict_values, codes = restored.dictionary("k")
        assert dict_values == ["a", "b", "c"]
        assert [c is None for c in codes] == [v is None for v in values]

    def test_columns_materialise_lazily_and_independently(self):
        block = ColumnarBlock.from_rows(self.ROWS, self.COLS)
        restored = ColumnarBlock.from_bytes(block.to_bytes())
        assert len(restored.columns._materialised) == 0  # nothing expanded yet
        assert restored.column_array("n")[:3] == [0, 1000, 2000]
        assert set(restored.columns._materialised) == {"n"}
        # The full schema is still visible without materialisation.
        assert set(restored.columns) == set(self.COLS)
        assert len(restored.columns) == len(self.COLS)
        assert "missing" not in restored.columns
        assert restored.to_rows() == self.ROWS  # bulk access expands the rest

    def test_snapshot_copies_see_every_column(self):
        # dict() / {**...} on a half-materialised mapping must expand all
        # columns, never silently return the materialised subset.
        restored = ColumnarBlock.from_bytes(
            ColumnarBlock.from_rows(self.ROWS, self.COLS).to_bytes()
        )
        restored.column_array("n")
        as_dict = dict(restored.columns)
        assert set(as_dict) == set(self.COLS)
        assert {**restored.columns} == as_dict
        assert as_dict["id"] == [r["id"] for r in self.ROWS]
        # Mapping equality with a plain dict works in both directions.
        eager = ColumnarBlock.from_rows(self.ROWS, self.COLS).columns
        assert restored.columns == eager and eager == restored.columns

    def test_corrupt_v4_frames_raise_warehouse_error(self):
        block = ColumnarBlock.from_rows(self.ROWS, self.COLS)
        good = block.to_bytes()
        payload = block.to_payload()
        header, body_offset = split_payload(payload)
        old_header = json.dumps(dict(header, format=3), sort_keys=True).encode()
        for bad in (
            WIRE_MAGIC + b"?" + good[5:],          # unknown codec
            WIRE_MAGIC + b"z" + b"not zlib data",  # corrupt compression
            WIRE_MAGIC + b"0" + b"\x00\x00\xff\xff",  # header length out of range
            # Formats 1-3 were bare JSON; nothing writes or reads them any more.
            json.dumps({"n_rows": 1, "columns": {"a": [7]}, "stats": {}}).encode(),
            # A well-formed frame whose header claims another format version.
            wrap_payload(
                len(old_header).to_bytes(4, "big") + old_header + payload[body_offset:]
            ),
        ):
            with pytest.raises(WarehouseError):
                ColumnarBlock.from_bytes(bad)


# ======================================================================
# Table-level compression knob + storage stats
# ======================================================================


def _filled_table(warehouse: Warehouse, name: str = "t", n: int = 300):
    table = warehouse.create_table(
        name, ["id", "outlet", "created_at", "n"], "created_at"
    )
    table.append(
        {"id": f"{name}-{i}", "outlet": f"o{i % 5}",
         "created_at": datetime(2020, 1, 15) + timedelta(days=i % 3), "n": i}
        for i in range(n)
    )
    return table


class TestStorageStats:
    def test_per_block_counts_match_dfs_file_sizes(self):
        warehouse = Warehouse(block_rows=64)
        table = _filled_table(warehouse)
        stats = table.storage_stats()
        assert stats["block_count"] == table.block_count() > 1
        assert stats["row_count"] == table.row_count()
        for partition in stats["partitions"].values():
            for block in partition["blocks"]:
                assert block["compressed_bytes"] == warehouse.dfs.file_size(block["path"])
                assert block["uncompressed_bytes"] >= block["compressed_bytes"]
        assert stats["compression_ratio"] >= 1.5

    def test_level_zero_table_writes_raw_blocks(self):
        warehouse = Warehouse(block_rows=64, compression_level=0)
        table = _filled_table(warehouse)
        stats = table.storage_stats()
        assert stats["compression_level"] == 0
        # Stored codec: the wire is payload + the 5-byte frame envelope.
        for partition in stats["partitions"].values():
            for block in partition["blocks"]:
                assert block["compressed_bytes"] == block["uncompressed_bytes"] + 5

    def test_create_table_overrides_warehouse_level(self):
        warehouse = Warehouse(block_rows=64, compression_level=9)
        table = warehouse.create_table(
            "raw", ["id", "created_at"], "created_at", compression_level=0
        )
        assert table.compression_level == 0
        assert warehouse.create_table("dflt", ["id", "created_at"], "created_at").compression_level == 9
        with pytest.raises(WarehouseError):
            Warehouse(compression_level=11)

    def test_compressed_tables_store_fewer_dfs_bytes(self):
        compressed = Warehouse(block_rows=128, compression_level=6)
        raw = Warehouse(block_rows=128, compression_level=0)
        _filled_table(compressed, n=500)
        _filled_table(raw, n=500)
        assert (
            compressed.dfs.stats()["stored_bytes"] < raw.dfs.stats()["stored_bytes"]
        )

    def test_warehouse_storage_stats_keys_every_table(self):
        warehouse = Warehouse(block_rows=64)
        _filled_table(warehouse, "a")
        _filled_table(warehouse, "b")
        assert set(warehouse.storage_stats()) == {"a", "b"}


# ======================================================================
# Per-partition compaction
# ======================================================================


def _fragmented(sort_key=None, appends=12, rows_per_append=30, block_rows=128):
    rng = random.Random(13)
    warehouse = Warehouse(block_rows=block_rows)
    table = warehouse.create_table(
        "f", ["id", "outlet", "created_at", "n"], "created_at", sort_key=sort_key
    )
    counter = 0
    for _ in range(appends):
        batch = []
        for _ in range(rows_per_append):
            batch.append({
                "id": f"r{counter}", "outlet": f"o{rng.randrange(4)}",
                "created_at": datetime(2020, 1, 15) + timedelta(days=rng.randrange(2)),
                "n": rng.randrange(10_000),
            })
            counter += 1
        table.append(batch)
    return warehouse, table


class TestCompaction:
    def test_compact_partition_merges_blocks_and_reports(self):
        _, table = _fragmented()
        partition = table.partitions()[0]
        rows_before = table.row_count(partition)
        blocks_before = len(table.storage_stats()["partitions"][partition]["blocks"])
        assert blocks_before >= 12
        report = table.compact_partition(partition)
        assert report["blocks_before"] == blocks_before
        assert report["blocks_after"] == -(-rows_before // table.block_rows)
        assert report["blocks_after"] <= blocks_before / 4
        assert report["rows"] == rows_before == table.row_count(partition)
        assert report["compressed_bytes_after"] < report["compressed_bytes_before"]

    def test_unknown_partition_raises(self):
        _, table = _fragmented(appends=1)
        with pytest.raises(WarehouseError):
            table.compact_partition("1999-01-01")

    def test_row_order_preserved_exactly_on_unsorted_tables(self):
        _, table = _fragmented()
        before = list(table.scan_filtered())
        grouped_before = table.aggregate(
            {"c": ("count", "*"), "s": ("sum", "n")}, group_by="outlet"
        )
        for partition in table.partitions():
            table.compact_partition(partition)
        assert list(table.scan_filtered()) == before
        assert table.aggregate(
            {"c": ("count", "*"), "s": ("sum", "n")}, group_by="outlet"
        ) == grouped_before

    def test_compaction_recluster_sorts_the_whole_partition(self):
        # Rows arrived unsorted across appends: each append is its own sorted
        # run, so the partition as a whole is not sorted until compaction.
        _, table = _fragmented(sort_key=["n"])
        partition = table.partitions()[0]
        interleaved = [r["n"] for r in table.scan(partitions=[partition])]
        assert interleaved != sorted(interleaved)
        table.compact_partition(partition)
        compacted = [r["n"] for r in table.scan(partitions=[partition])]
        assert compacted == sorted(interleaved)
        # Query parity as multisets + aggregates (row order legitimately changed).
        filters = [("n", 1000, 7000)]
        assert sorted(
            r["id"] for r in table.scan_filtered(range_filters=filters)
        ) == sorted(
            r["id"] for r in table.scan(predicate=lambda r: 1000 <= r["n"] <= 7000)
        )

    def test_compaction_invalidates_the_block_cache(self):
        _, table = _fragmented()
        before = table.read_column("n")  # warms the cache
        for partition in table.partitions():
            table.compact_partition(partition)
        assert table.read_column("n") == before  # fresh blocks, same data

    def test_compaction_frees_dfs_space_without_counter_drift(self):
        warehouse, table = _fragmented()
        dfs = warehouse.dfs
        used_before = sum(node.used_bytes for node in dfs.nodes.values())
        files_before = len(dfs.list_files("/warehouse/f/"))
        for partition in table.partitions():
            table.compact_partition(partition)
        used_after = sum(node.used_bytes for node in dfs.nodes.values())
        assert used_after < used_before
        assert len(dfs.list_files("/warehouse/f/")) < files_before
        for node in dfs.nodes.values():
            assert node.used_bytes == sum(len(d) for d in node.blocks.values())
        assert dfs.stats()["stored_bytes"] == float(used_after)

    def test_warehouse_compact_skips_tidy_partitions(self):
        warehouse, table = _fragmented(appends=6)
        reports = warehouse.compact()
        assert set(reports) == {"f"}
        # Everything is already one block per partition: nothing to do.
        assert warehouse.compact() == {}
        with pytest.raises(WarehouseError):
            warehouse.compact(min_blocks=1)

    def test_clustered_early_exit_still_works_after_compaction(self):
        warehouse, table = _fragmented(sort_key=["n"], appends=16, block_rows=60)
        warehouse.compact()
        partition = table.partitions()[0]
        n_blocks = len(table.storage_stats()["partitions"][partition]["blocks"])
        assert n_blocks > 1  # several disjoint sorted blocks after the rewrite
        lowest = min(r["n"] for r in table.scan(partitions=[partition]))
        before = warehouse.dfs.read_count
        table.aggregate(
            {"c": ("count", "*")},
            partitions=[partition],
            range_filters=[("n", None, lowest)],
        )
        # The globally sorted layout lets the walk stop after the first block.
        assert warehouse.dfs.read_count - before == 1


# ======================================================================
# Compressed decode matches raw blocks
# ======================================================================


class TestCompressedDecode:
    def test_compressed_results_match_raw_blocks(self):
        tables = []
        for level in (0, 6):
            rng = random.Random(99)
            warehouse = Warehouse(block_rows=64, cache_blocks=0, compression_level=level)
            table = warehouse.create_table(
                "p", ["id", "outlet", "created_at", "w"], "created_at"
            )
            table.append(
                {"id": i, "outlet": f"o{rng.randrange(6)}",
                 "created_at": datetime(2020, 1, 15) + timedelta(days=i % 4),
                 "w": rng.random()}
                for i in range(600)
            )
            tables.append(table)
        raw, compressed = tables
        assert list(compressed.scan_columns(["outlet", "w"])) == list(
            raw.scan_columns(["outlet", "w"])
        )
        aggregates = [
            table.aggregate(
                {"n": ("count", "*"), "s": ("sum", "w")}, group_by="outlet"
            )
            for table in tables
        ]
        # Bit-identical floats: partials merge in deterministic block order.
        assert repr(aggregates[0]) == repr(aggregates[1])


# ======================================================================
# DFS IO counters
# ======================================================================


class TestDfsByteCounters:
    def test_bytes_read_tracks_file_sizes(self):
        dfs = DistributedFileSystem(block_size=8)
        dfs.write_file("/a", b"0123456789" * 3)
        dfs.write_file("/b", b"xy")
        assert dfs.bytes_read == 0
        dfs.read_file("/a")
        assert dfs.bytes_read == 30 and dfs.read_count == 1
        dfs.read_file("/b")
        dfs.read_file("/a")
        assert dfs.bytes_read == 62 and dfs.read_count == 3

    def test_warehouse_reads_report_wire_bytes(self):
        warehouse = Warehouse(block_rows=64)
        table = _filled_table(warehouse)
        warehouse.dfs.bytes_read = 0
        table.read_column("n")
        assert warehouse.dfs.bytes_read == table.storage_stats()["compressed_bytes"]


# ======================================================================
# Scheduled compaction job (migration) + analytics roll-up parity
# ======================================================================


def _migrated_platform(n_days=5, per_day=40):
    db = Database()
    schema = TableSchema(
        name="articles",
        primary_key="url",
        columns=(
            Column("url", ColumnType.TEXT, nullable=False),
            Column("outlet_domain", ColumnType.TEXT),
            Column("published_at", ColumnType.TIMESTAMP, nullable=False),
            Column("ingested_at", ColumnType.TIMESTAMP, nullable=False),
            Column("topics", ColumnType.JSON),
        ),
    )
    db.create_table(schema)
    warehouse = Warehouse(block_rows=4096)
    job = MigrationJob(db, warehouse, compaction_min_blocks=4)
    # Partitions on event time — the platform's layout.  The first run bootstrap-copies the initial batch; every later
    # CDC pass lands a few late rows in *every* publication-day partition,
    # fragmenting each with one delta block per pass.
    job.add_table(
        "articles", partition_column="published_at", sort_key=["published_at"],
    )
    publisher = CdcPublisher(db)
    applier = None
    base = datetime(2020, 1, 15, 6)
    counter = 0
    for run in range(8):
        for day in range(n_days):
            for i in range(per_day // 8):
                db.insert("articles", {
                    "url": f"https://o{counter % 6}.example.com/a{counter}",
                    "outlet_domain": f"o{counter % 6}.example.com",
                    "published_at": base + timedelta(days=day, minutes=counter % 600),
                    "ingested_at": base + timedelta(days=n_days, minutes=counter),
                    "topics": ["covid19"] if counter % 3 == 0 else ["politics"],
                })
                counter += 1
        if applier is None:
            report = job.run(now=base + timedelta(days=n_days, hours=run))
            for mapping in job.mappings():
                publisher.add_mapping(mapping)
            applier = DeltaApplier(warehouse, job.mappings())
            publisher.add_sink(applier)
            applier.start_at(report.cursor_lsn)
        else:
            publisher.publish()
            applier.apply()
    return db, warehouse, job


class TestScheduledCompaction:
    def test_run_compaction_defragments_registered_tables(self):
        _db, warehouse, job = _migrated_platform()
        table = warehouse.table("articles")
        blocks_before = table.block_count()
        assert blocks_before >= 4 * len(table.partitions())
        report = job.run_compaction()
        assert report.compacted and report.blocks_before == blocks_before
        assert report.blocks_after == table.block_count() < blocks_before
        assert report.reclaimed_bytes > 0
        assert job.compaction_history == [report]
        # A second pass finds nothing fragmented.
        assert job.run_compaction().compacted == {}

    def test_run_with_compact_flag_piggybacks_on_migration(self):
        _db, warehouse, job = _migrated_platform()
        blocks_before = warehouse.table("articles").block_count()
        job.run(compact=True)
        assert warehouse.table("articles").block_count() < blocks_before
        assert len(job.compaction_history) == 1

    def test_analytics_rollups_identical_before_and_after_compaction(self):
        _db, warehouse, job = _migrated_platform()
        analytics = WarehouseAnalytics(warehouse)
        daily_before = analytics.daily_article_counts("covid19")
        per_outlet_before = analytics.articles_per_outlet()
        profiles_before = analytics.outlet_activity_profiles("covid19")
        overview = analytics.storage_overview()
        assert overview["tables"]["articles"]["fragmented_partitions"] > 0
        job.run_compaction()
        after = analytics.storage_overview()
        assert after["tables"]["articles"]["fragmented_partitions"] == 0
        assert after["tables"]["articles"]["blocks"] < overview["tables"]["articles"]["blocks"]
        assert analytics.daily_article_counts("covid19") == daily_before
        assert analytics.articles_per_outlet() == per_outlet_before
        assert analytics.outlet_activity_profiles("covid19") == profiles_before
