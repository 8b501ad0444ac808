"""Tests for the simulated DFS, columnar blocks, warehouse tables and migration."""

from datetime import datetime, timedelta

import pytest

from repro.errors import WarehouseError
from repro.storage.cdc import CdcPublisher, DeltaApplier
from repro.storage.migration import MigrationJob, prune_migrated_rows
from repro.storage.rdbms.database import Database
from repro.storage.rdbms.schema import Column, TableSchema
from repro.storage.rdbms.types import ColumnType
from repro.storage.warehouse.blocks import ColumnarBlock
from repro.storage.warehouse.dfs import DistributedFileSystem
from repro.storage.warehouse.warehouse import Warehouse
from repro.streaming.broker import MessageBroker


class TestDistributedFileSystem:
    def test_write_read_roundtrip_with_multiple_blocks(self):
        dfs = DistributedFileSystem(n_nodes=3, replication=2, block_size=8)
        payload = b"0123456789" * 5
        n_blocks = dfs.write_file("/data/file.bin", payload)
        assert n_blocks == 7
        assert dfs.read_file("/data/file.bin") == payload
        assert dfs.file_size("/data/file.bin") == len(payload)

    def test_replication_survives_single_node_failure(self):
        dfs = DistributedFileSystem(n_nodes=3, replication=2, block_size=16)
        dfs.write_file("/f", b"important data that matters")
        dfs.kill_node("node-0")
        assert dfs.read_file("/f") == b"important data that matters"

    def test_rebalance_restores_replication(self):
        dfs = DistributedFileSystem(n_nodes=4, replication=2, block_size=16)
        dfs.write_file("/f", b"x" * 64)
        dfs.kill_node("node-0")
        assert dfs.under_replicated_blocks() or True  # may be empty if node-0 held nothing
        copies = dfs.rebalance()
        assert copies >= 0
        assert dfs.under_replicated_blocks() == []

    def test_missing_file_and_unknown_node(self):
        dfs = DistributedFileSystem()
        with pytest.raises(WarehouseError):
            dfs.read_file("/missing")
        with pytest.raises(WarehouseError):
            dfs.kill_node("node-99")

    def test_delete_and_overwrite(self):
        dfs = DistributedFileSystem()
        dfs.write_file("/f", b"one")
        dfs.write_file("/f", b"two")
        assert dfs.read_file("/f") == b"two"
        dfs.delete_file("/f")
        assert not dfs.exists("/f")
        dfs.write_file("/g", b"x")
        with pytest.raises(WarehouseError):
            dfs.write_file("/g", b"y", overwrite=False)

    def test_stats(self):
        dfs = DistributedFileSystem(n_nodes=2)
        dfs.write_file("/a", b"abc")
        stats = dfs.stats()
        assert stats["files"] == 1
        assert stats["live_nodes"] == 2


class TestColumnarBlock:
    def test_roundtrip_with_timestamps(self):
        rows = [
            {"id": "a", "n": 1, "ts": datetime(2020, 2, 1, 8)},
            {"id": "b", "n": 5, "ts": datetime(2020, 2, 2, 9)},
        ]
        block = ColumnarBlock.from_rows(rows, ["id", "n", "ts"])
        restored = ColumnarBlock.from_bytes(block.to_bytes())
        assert restored.to_rows() == rows
        assert restored.stats["n"]["min"] == 1 and restored.stats["n"]["max"] == 5

    def test_projection_and_missing_column(self):
        block = ColumnarBlock.from_rows([{"a": 1, "b": 2}], ["a", "b"])
        assert block.to_rows(["a"]) == [{"a": 1}]
        with pytest.raises(WarehouseError):
            block.to_rows(["missing"])

    def test_zone_map_pruning(self):
        block = ColumnarBlock.from_rows([{"n": 10}, {"n": 20}], ["n"])
        assert block.might_contain("n", low=15)
        assert not block.might_contain("n", low=25)
        assert not block.might_contain("n", high=5)
        assert block.might_contain("unknown_column", low=0)

    def test_empty_rows_rejected(self):
        with pytest.raises(WarehouseError):
            ColumnarBlock.from_rows([], ["a"])


class TestWarehouseTable:
    def _rows(self, n=10):
        return [
            {"article_id": f"a{i}", "outlet": "low" if i % 2 else "high",
             "created_at": datetime(2020, 1, 15) + timedelta(days=i % 3), "reactions": i}
            for i in range(n)
        ]

    def test_partitioning_by_day(self):
        warehouse = Warehouse(block_rows=4)
        table = warehouse.create_table("articles", ["article_id", "outlet", "created_at", "reactions"], "created_at")
        table.append(self._rows(10))
        assert table.row_count() == 10
        assert set(table.partitions()) == {"2020-01-15", "2020-01-16", "2020-01-17"}
        assert table.block_count() >= 3

    def test_scan_with_partition_pruning_and_predicate(self):
        warehouse = Warehouse()
        table = warehouse.create_table("t", ["article_id", "created_at", "reactions"], "created_at")
        table.append(self._rows(9))
        rows = list(table.scan(partitions=["2020-01-15"], predicate=lambda r: r["reactions"] > 0))
        assert all(r["created_at"].day == 15 for r in rows)

    def test_scan_with_zone_filter_skips_blocks(self):
        warehouse = Warehouse(block_rows=2)
        table = warehouse.create_table("t", ["article_id", "created_at", "reactions"], "created_at")
        table.append(self._rows(8))
        high = list(table.scan(zone_filter=("reactions", 6, None), predicate=lambda r: r["reactions"] >= 6))
        assert {r["reactions"] for r in high} == {6, 7}

    def test_read_column_and_drop_partition(self):
        warehouse = Warehouse()
        table = warehouse.create_table("t", ["article_id", "created_at", "reactions"], "created_at")
        table.append(self._rows(6))
        assert len(table.read_column("reactions")) == 6
        removed = table.drop_partition("2020-01-15")
        assert removed > 0
        assert table.row_count() == 6 - removed

    def test_value_partitioning_and_table_management(self):
        warehouse = Warehouse()
        warehouse.create_table("by_outlet", ["article_id", "outlet"], "outlet", partition_by="value")
        warehouse.table("by_outlet").append([{"article_id": "a", "outlet": "low"}])
        assert warehouse.table("by_outlet").partitions() == ["low"]
        assert warehouse.table_names() == ["by_outlet"]
        warehouse.drop_table("by_outlet")
        assert not warehouse.has_table("by_outlet")
        with pytest.raises(WarehouseError):
            warehouse.table("by_outlet")


class TestMigration:
    def _db(self):
        db = Database()
        schema = TableSchema(
            name="articles",
            primary_key="article_id",
            columns=(
                Column("article_id", ColumnType.TEXT, nullable=False),
                Column("outlet", ColumnType.TEXT),
                Column("created_at", ColumnType.TIMESTAMP, nullable=False),
            ),
        )
        db.create_table(schema)
        base = datetime(2020, 1, 15, 10)
        for i in range(6):
            db.insert("articles", {"article_id": f"a{i}", "outlet": "x.example.com",
                                   "created_at": base + timedelta(days=i)})
        return db

    def test_bootstrap_then_cdc_never_duplicates(self):
        db = self._db()
        warehouse = Warehouse()
        job = MigrationJob(db, warehouse)
        job.add_table("articles")

        first = job.run()
        assert first.migrated_rows["articles"] == 6
        second = job.run()
        assert second.migrated_rows["articles"] == 0
        assert warehouse.table("articles").row_count() == 6

        # Increments flow through the CDC pipeline, not a second copy.
        publisher = CdcPublisher(db, MessageBroker(default_partitions=2))
        for mapping in job.mappings():
            publisher.add_mapping(mapping)
        applier = DeltaApplier(warehouse, publisher.broker, job.mappings())
        publisher.skip_to(first.cursor_lsn)
        db.insert("articles", {"article_id": "a9", "outlet": "x.example.com",
                               "created_at": datetime(2020, 1, 25)})
        publisher.publish()
        report = applier.apply()
        assert report.rows == 1
        assert warehouse.table("articles").row_count() == 7
        job.note_synced("articles", report.synced["articles"])
        assert job.synced_through("articles") == datetime(2020, 1, 25)

    def test_missing_timestamp_column_rejected(self):
        db = Database()
        db.create_table(TableSchema(
            name="t", primary_key="id", columns=(Column("id", ColumnType.TEXT, nullable=False),),
        ))
        job = MigrationJob(db, Warehouse())
        with pytest.raises(Exception):
            job.add_table("t")

    def test_prune_migrated_rows(self):
        db = self._db()
        warehouse = Warehouse()
        job = MigrationJob(db, warehouse)
        job.add_table("articles")
        job.run()
        deleted = prune_migrated_rows(db, job, "articles", keep_days=1, now=datetime(2020, 2, 15))
        assert deleted == 6
        assert db.table("articles").row_count() == 0
        # Nothing migrated yet for an unknown table: prune is a no-op.
        assert prune_migrated_rows(db, MigrationJob(db, warehouse), "articles") == 0
