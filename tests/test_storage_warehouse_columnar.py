"""Tests for the vectorised columnar engine: versioned block format,
dictionary encoding, block cache, selection vectors and stats-only aggregates."""

import json
from datetime import datetime, timedelta

import pytest

from repro.errors import WarehouseError
from repro.storage.warehouse.blocks import (
    BLOCK_FORMAT_VERSION,
    ColumnarBlock,
    wire_payload,
)
from repro.storage.warehouse.dfs import DataNode, DistributedFileSystem
from repro.storage.warehouse.warehouse import Warehouse, value_partitioner


def _legacy_bytes(rows: list[dict], column_names: list[str]) -> bytes:
    """Value-at-a-time JSON, as the seed encoder wrote it: the size baseline
    the dictionary-encoding test compares against (nothing reads it)."""

    def encode(value):
        if isinstance(value, datetime):
            return {"__ts__": value.isoformat()}
        return value

    block = ColumnarBlock.from_rows(rows, column_names)
    payload = {
        "n_rows": block.n_rows,
        "columns": {
            name: [encode(v) for v in values] for name, values in block.columns.items()
        },
        "stats": {
            name: {key: encode(value) for key, value in stat.items()}
            for name, stat in block.stats.items()
        },
    }
    return json.dumps(payload, sort_keys=True).encode("utf-8")


class TestBlockFormat:
    ROWS = [
        {"id": "a", "outlet": "low.example.com", "n": 1, "ts": datetime(2020, 2, 1, 8)},
        {"id": "b", "outlet": "low.example.com", "n": 5, "ts": datetime(2020, 2, 2, 9)},
        {"id": "c", "outlet": "high.example.com", "n": None, "ts": datetime(2020, 2, 2, 10)},
    ]
    COLS = ["id", "outlet", "n", "ts"]

    def test_new_format_roundtrip(self):
        block = ColumnarBlock.from_rows(self.ROWS, self.COLS)
        data = block.to_bytes()
        assert wire_payload(data)["format"] == BLOCK_FORMAT_VERSION
        restored = ColumnarBlock.from_bytes(data)
        assert restored.to_rows() == self.ROWS
        assert restored.stats == block.stats

    def test_dictionary_encoding_is_smaller_than_seed_format(self):
        rows = [
            {"outlet": f"outlet-{i % 5}.example.com", "rating": "LOW" if i % 2 else "HIGH"}
            for i in range(512)
        ]
        block = ColumnarBlock.from_rows(rows, ["outlet", "rating"])
        new_size = len(block.to_bytes())
        seed_size = len(_legacy_bytes(rows, ["outlet", "rating"]))
        assert new_size < seed_size / 2, (new_size, seed_size)
        encoded = wire_payload(block.to_bytes())
        assert encoded["columns"]["outlet"]["enc"] == "dict"
        assert len(encoded["columns"]["outlet"]["values"]) == 5

    def test_all_null_column_roundtrip(self):
        rows = [{"a": None, "b": i} for i in range(50)]
        restored = ColumnarBlock.from_bytes(ColumnarBlock.from_rows(rows, ["a", "b"]).to_bytes())
        assert restored.column("a") == [None] * 50
        assert restored.stats["a"] == {"nulls": 50, "min": None, "max": None}

    def test_single_value_column_roundtrip(self):
        # An all-equal column is the degenerate one-run RLE case (format 3);
        # before RLE existed it would have been dictionary-encoded.
        rows = [{"a": "only"} for _ in range(40)]
        block = ColumnarBlock.from_rows(rows, ["a"])
        assert wire_payload(block.to_bytes())["columns"]["a"]["enc"] == "rle"
        assert ColumnarBlock.from_bytes(block.to_bytes()).column("a") == ["only"] * 40

    def test_mixed_type_column_preserves_types(self):
        # 1, 1.0 and True are equal in Python; the dictionary must not merge
        # them, and "1" must stay a string.
        values = [1, "1", True, 1.0, None] * 10
        rows = [{"a": v} for v in values]
        restored = ColumnarBlock.from_bytes(ColumnarBlock.from_rows(rows, ["a"]).to_bytes())
        for original, decoded in zip(values, restored.column("a")):
            assert decoded == original and type(decoded) is type(original)

    def test_equal_but_distinct_values_keep_their_own_dictionary_slot(self):
        from datetime import timezone
        utc_noon = datetime(2020, 1, 1, 12, tzinfo=timezone.utc)
        plus1_1pm = datetime(2020, 1, 1, 13, tzinfo=timezone(timedelta(hours=1)))
        assert utc_noon == plus1_1pm  # same instant, different wall time/tzinfo
        values = [utc_noon, plus1_1pm, -0.0, 0.0] * 10
        rows = [{"v": v} for v in values]
        restored = ColumnarBlock.from_bytes(ColumnarBlock.from_rows(rows, ["v"]).to_bytes())
        for original, decoded in zip(values, restored.column("v")):
            assert repr(decoded) == repr(original)

    def test_tuple_values_skip_the_dictionary_and_decode_per_row(self):
        # Tuples are hashable but JSON-decode as lists; a shared dictionary
        # slot would alias one list across all equal rows.
        rows = [{"pair": (1, 2)} for _ in range(30)]
        block = ColumnarBlock.from_rows(rows, ["pair"])
        assert wire_payload(block.to_bytes())["columns"]["pair"]["enc"] == "plain"
        decoded = ColumnarBlock.from_bytes(block.to_bytes()).column("pair")
        assert decoded == [[1, 2]] * 30
        assert decoded[0] is not decoded[1]  # every row owns its object

    def test_unhashable_values_fall_back_to_plain(self):
        rows = [{"topics": ["covid19", "health"]} for _ in range(30)]
        block = ColumnarBlock.from_rows(rows, ["topics"])
        assert wire_payload(block.to_bytes())["columns"]["topics"]["enc"] == "plain"
        assert ColumnarBlock.from_bytes(block.to_bytes()).column("topics") == [
            ["covid19", "health"]
        ] * 30

    def test_high_cardinality_timestamps_use_typed_encoding(self):
        rows = [{"ts": datetime(2020, 1, 1) + timedelta(hours=i)} for i in range(200)]
        block = ColumnarBlock.from_rows(rows, ["ts"])
        assert wire_payload(block.to_bytes())["columns"]["ts"]["enc"] == "typed"
        assert ColumnarBlock.from_bytes(block.to_bytes()).to_rows() == rows


def _table(block_rows=4, n=12, cache_blocks=64):
    warehouse = Warehouse(block_rows=block_rows, cache_blocks=cache_blocks)
    table = warehouse.create_table(
        "t", ["article_id", "outlet", "created_at", "reactions"], "created_at"
    )
    table.append(
        {
            "article_id": f"a{i}",
            "outlet": "low" if i % 2 else "high",
            "created_at": datetime(2020, 1, 15) + timedelta(days=i % 3),
            "reactions": i,
        }
        for i in range(n)
    )
    return warehouse, table


class TestVectorisedScan:
    def test_scan_columns_matches_row_scan(self):
        _, table = _table()
        vectorised = []
        for block in table.scan_columns(
            ["article_id", "reactions"], range_filters=[("reactions", 3, 9)]
        ):
            vectorised.extend(zip(block["article_id"], block["reactions"]))
        row_at_a_time = [
            (row["article_id"], row["reactions"])
            for row in table.scan(
                columns=["article_id", "reactions"],
                predicate=lambda r: 3 <= r["reactions"] <= 9,
            )
        ]
        assert sorted(vectorised) == sorted(row_at_a_time)

    def test_filter_column_does_not_need_projection(self):
        _, table = _table()
        values = []
        for block in table.scan_columns(
            ["article_id"], column_predicates={"outlet": lambda v: v == "low"}
        ):
            assert set(block) == {"article_id"}
            values.extend(block["article_id"])
        expected = [r["article_id"] for r in table.scan(predicate=lambda r: r["outlet"] == "low")]
        assert sorted(values) == sorted(expected)

    def test_scan_filtered_builds_rows_lazily(self):
        _, table = _table()
        rows = list(
            table.scan_filtered(
                columns=["article_id", "outlet"],
                range_filters=[("reactions", 10, None)],
            )
        )
        assert rows == [
            {"article_id": "a10", "outlet": "high"},
            {"article_id": "a11", "outlet": "low"},
        ]

    def test_multi_column_zone_filters_skip_blocks(self):
        warehouse, table = _table(block_rows=2, n=12)
        before = warehouse.dfs.read_count
        blocks = list(
            table.scan_columns(
                ["article_id"],
                range_filters=[("reactions", 10, None), ("outlet", "high", "low")],
            )
        )
        reads = warehouse.dfs.read_count - before
        assert reads < table.block_count()  # zone stats pruned most blocks
        assert sum(len(b["article_id"]) for b in blocks) == 2

    def test_null_values_never_match_bounded_filters(self):
        warehouse = Warehouse()
        table = warehouse.create_table("n", ["created_at", "x"], "created_at")
        table.append(
            [
                {"created_at": datetime(2020, 1, 1), "x": None},
                {"created_at": datetime(2020, 1, 1), "x": 5},
            ]
        )
        out = [b["x"] for b in table.scan_columns(["x"], range_filters=[("x", 0, None)])]
        assert out == [[5]]

    def test_range_filter_on_unorderable_values_raises_warehouse_error(self):
        warehouse = Warehouse()
        table = warehouse.create_table("u", ["created_at", "x"], "created_at")
        table.append(
            [
                {"created_at": datetime(2020, 1, 1), "x": 3},
                {"created_at": datetime(2020, 1, 1), "x": "9"},
            ]
        )
        with pytest.raises(WarehouseError):
            list(table.scan_columns(["x"], range_filters=[("x", 5, None)]))

    def test_unknown_columns_raise(self):
        _, table = _table()
        with pytest.raises(WarehouseError):
            list(table.scan_columns(["missing"]))
        with pytest.raises(WarehouseError):
            list(table.scan_columns(["article_id"], range_filters=[("missing", 0, 1)]))

    def test_read_column_reads_arrays_directly(self):
        warehouse, table = _table(block_rows=4, n=8)
        values = table.read_column("reactions")
        assert sorted(values) == list(range(8))
        with pytest.raises(WarehouseError):
            table.read_column("missing")


class TestAggregates:
    def test_stats_only_aggregates_do_not_read_blocks(self):
        warehouse, table = _table(block_rows=4, n=12)
        table.read_column("reactions")  # warm cache: no block may be touched, cached or not
        before = warehouse.dfs.read_count
        cache_before = table.cache_info()
        result = table.aggregate(
            {
                "total": ("count", "*"),
                "n_outlets": ("count", "outlet"),
                "lo": ("min", "reactions"),
                "hi": ("max", "reactions"),
            }
        )
        assert warehouse.dfs.read_count == before
        assert table.cache_info() == cache_before
        assert result == {"total": 12, "n_outlets": 12, "lo": 0, "hi": 11}

    def test_stats_only_falls_back_on_mixed_type_columns(self):
        warehouse = Warehouse()
        table = warehouse.create_table("m", ["created_at", "x"], "created_at")
        table.append(
            [
                {"created_at": datetime(2020, 1, 1), "x": 3},
                {"created_at": datetime(2020, 1, 1), "x": "9"},
            ]
        )
        before = warehouse.dfs.read_count
        with pytest.raises(WarehouseError):
            # Mixed int/str genuinely has no ordering: the fall-back path
            # surfaces that rather than silently answering None from stats.
            table.aggregate({"lo": ("min", "x")})
        assert warehouse.dfs.read_count > before  # stats were inconclusive: blocks read

    def test_filtered_group_by_count(self):
        _, table = _table(n=12)
        grouped = table.aggregate(
            {"n": ("count", "*")},
            range_filters=[("reactions", 4, None)],
            group_by="outlet",
        )
        assert grouped == {"high": {"n": 4}, "low": {"n": 4}}

    def test_group_key_transform_and_sum_avg(self):
        _, table = _table(n=12)
        grouped = table.aggregate(
            {"n": ("count", "*"), "total": ("sum", "reactions"), "mean": ("avg", "reactions")},
            group_by="created_at",
            group_key=lambda ts: ts.date().isoformat(),
        )
        assert set(grouped) == {"2020-01-15", "2020-01-16", "2020-01-17"}
        day0 = grouped["2020-01-15"]
        assert day0["n"] == 4 and day0["total"] == 0 + 3 + 6 + 9
        assert day0["mean"] == day0["total"] / 4

    def test_empty_table_and_bad_function(self):
        warehouse = Warehouse()
        table = warehouse.create_table("e", ["created_at", "x"], "created_at")
        assert table.aggregate({"n": ("count", "*"), "lo": ("min", "x")}) == {
            "n": 0,
            "lo": None,
        }
        with pytest.raises(WarehouseError):
            table.aggregate({"n": ("median", "x")})
        with pytest.raises(WarehouseError):
            table.aggregate({"n": ("sum", "*")})

    def test_unhashable_group_by_values_raise_warehouse_error(self):
        warehouse = Warehouse()
        table = warehouse.create_table("g", ["created_at", "topics"], "created_at")
        table.append([{"created_at": datetime(2020, 1, 1), "topics": ["covid19"]}])
        with pytest.raises(WarehouseError):
            table.aggregate({"n": ("count", "*")}, group_by="topics")
        # group_key is the escape hatch for list-valued columns.
        grouped = table.aggregate(
            {"n": ("count", "*")}, group_by="topics", group_key=lambda t: tuple(t or ())
        )
        assert grouped == {("covid19",): {"n": 1}}

    def test_aggregate_validates_filter_columns_before_io(self):
        warehouse, table = _table()
        before = warehouse.dfs.read_count
        with pytest.raises(WarehouseError):
            table.aggregate({"n": ("count", "*")}, range_filters=[("typo", 0, None)])
        with pytest.raises(WarehouseError):
            table.aggregate({"n": ("count", "*")}, column_predicates={"typo": bool})
        assert warehouse.dfs.read_count == before


class TestBlockCache:
    def test_repeated_reads_hit_the_cache(self):
        warehouse, table = _table(block_rows=4, n=12)
        table.read_column("reactions")
        after_first = warehouse.dfs.read_count
        table.read_column("reactions")
        list(table.scan_columns(["outlet"]))
        assert warehouse.dfs.read_count == after_first
        info = table.cache_info()
        assert info["hits"] > 0 and info["entries"] == table.block_count()

    def test_drop_partition_invalidates_cache(self):
        warehouse, table = _table(block_rows=4, n=12)
        table.read_column("reactions")
        assert table.cache_info()["entries"] > 0
        table.drop_partition("2020-01-15")
        assert table.cache_info()["entries"] < table.cache_info()["capacity"]
        # Fresh rows in the same partition are visible (no stale cache entry).
        table.append([{"article_id": "z", "outlet": "new", "created_at": datetime(2020, 1, 15), "reactions": 99}])
        assert 99 in table.read_column("reactions", partitions=["2020-01-15"])
        assert table.read_column("outlet", partitions=["2020-01-15"]) == ["new"]

    def test_drop_table_clears_cache(self):
        warehouse, table = _table()
        table.read_column("outlet")
        warehouse.drop_table("t")
        assert table.cache_info()["entries"] == 0

    def test_clear_empties_the_table_and_keeps_it_usable(self):
        warehouse, table = _table(block_rows=4, n=12)
        table.read_column("outlet")
        table.clear()
        assert table.row_count() == 0 and table.partitions() == []
        assert warehouse.dfs.list_files("/warehouse/t/") == []
        assert table.cache_info()["entries"] == 0
        table.append([{"article_id": "z", "outlet": "new", "created_at": datetime(2020, 1, 15), "reactions": 1}])
        assert table.read_column("outlet") == ["new"]

    def test_lru_eviction_respects_capacity(self):
        warehouse, table = _table(block_rows=2, n=12, cache_blocks=2)
        table.read_column("reactions")
        info = table.cache_info()
        assert info["entries"] <= 2
        # Row-at-a-time scan streams without polluting the cache.
        warehouse2, table2 = _table(block_rows=2, n=12)
        list(table2.scan())
        assert table2.cache_info()["entries"] == 0

    def test_scan_results_unaffected_by_caller_mutation(self):
        _, table = _table(block_rows=4, n=8)
        first = next(table.scan_columns(["reactions"]))
        first["reactions"].clear()
        again = next(table.scan_columns(["reactions"]))
        assert len(again["reactions"]) > 0

    def test_scan_filtered_rows_own_their_mutable_values(self):
        warehouse = Warehouse()
        table = warehouse.create_table("tags", ["created_at", "topics"], "created_at")
        table.append([{"created_at": datetime(2020, 1, 1), "topics": ["covid19"]}])
        row = next(table.scan_filtered())
        row["topics"].append("mutated")
        assert next(table.scan_filtered())["topics"] == ["covid19"]
        assert next(table.scan_columns(["topics"]))["topics"] == [["covid19"]]

    def test_nested_mutables_are_deep_copied(self):
        warehouse = Warehouse()
        table = warehouse.create_table("meta", ["created_at", "meta"], "created_at")
        table.append([{"created_at": datetime(2020, 1, 1), "meta": [{"x": 0}]}])
        row = next(table.scan_filtered())
        row["meta"][0]["x"] = 999
        assert next(table.scan_filtered())["meta"] == [{"x": 0}]
        table.read_column("meta")[0][0]["x"] = 999
        assert table.read_column("meta") == [[{"x": 0}]]

    def test_read_column_values_own_their_mutable_values(self):
        warehouse = Warehouse()
        table = warehouse.create_table("tags2", ["created_at", "topics"], "created_at")
        table.append([{"created_at": datetime(2020, 1, 1), "topics": ["covid19"]}])
        table.read_column("topics")[0].append("mutated")
        assert table.read_column("topics") == [["covid19"]]
        assert [r["topics"] for r in table.scan()] == [["covid19"]]  # cached == uncached


class TestValuePartitioner:
    def test_distinct_types_get_distinct_partitions(self):
        partition = value_partitioner("k")
        assert partition({"k": "1"}) != partition({"k": 1})
        assert partition({"k": "low"}) == "low"  # strings keep natural names
        assert partition({"k": None}) == "null"

    def test_tag_shaped_strings_do_not_collide_with_tagged_keys(self):
        partition = value_partitioner("k")
        assert partition({"k": "int:1"}) != partition({"k": 1})
        # URLs are tag-shaped ("https:..."); they get the str: tag but stay
        # distinct from each other and from plain strings.
        assert partition({"k": "https://a.example.com"}) == "str:https://a.example.com"
        assert partition({"k": "2020-02-01"}) == "2020-02-01"  # dates keep natural names
        assert partition({"k": "null"}) != partition({"k": None})

    def test_numerically_equal_keys_share_a_partition(self):
        partition = value_partitioner("k")
        assert partition({"k": 1}) == partition({"k": 1.0}) == partition({"k": True})

    def test_table_level_no_collision(self):
        warehouse = Warehouse()
        table = warehouse.create_table("v", ["id", "k"], "k", partition_by="value")
        table.append([{"id": "a", "k": 1}, {"id": "b", "k": "1"}])
        assert len(table.partitions()) == 2


class TestDataNodeByteCounter:
    def test_preseeded_blocks_seed_the_counter(self):
        node = DataNode(node_id="n0", blocks={"b": b"12345"})
        assert node.used_bytes == 5
        node.drop("b")
        assert node.used_bytes == 0

    def test_store_overwrite_drop_keep_counter_exact(self):
        node = DataNode(node_id="n0")
        node.store("b1", b"12345")
        node.store("b2", b"xy")
        assert node.used_bytes == 7
        node.store("b1", b"1")  # overwrite shrinks
        assert node.used_bytes == 3
        node.drop("b2")
        node.drop("missing")  # idempotent
        assert node.used_bytes == 1
        assert node.used_bytes == sum(len(d) for d in node.blocks.values())

    def test_dfs_placement_and_stats_agree_with_running_counter(self):
        dfs = DistributedFileSystem(n_nodes=3, replication=2, block_size=8)
        dfs.write_file("/a", b"0123456789" * 3)
        dfs.delete_file("/a")
        dfs.write_file("/b", b"abc")
        expected = sum(
            sum(len(d) for d in node.blocks.values()) for node in dfs.nodes.values()
        )
        assert dfs.stats()["stored_bytes"] == float(expected)


# ======================================================================
# Format 3: run-length encoding + sort keys (clustered blocks)
# ======================================================================


class TestRunLengthEncoding:
    def test_sorted_low_change_column_uses_rle_and_roundtrips(self):
        rows = [{"k": "a"}] * 30 + [{"k": "b"}] * 20 + [{"k": None}] * 10
        block = ColumnarBlock.from_rows(rows, ["k"])
        spec = wire_payload(block.to_bytes())["columns"]["k"]
        assert spec["enc"] == "rle"
        assert spec["runs"] == [[30, "a"], [20, "b"], [10, None]]
        assert ColumnarBlock.from_bytes(block.to_bytes()).column("k") == [
            r["k"] for r in rows
        ]

    def test_all_equal_column_is_a_single_run(self):
        rows = [{"k": 7}] * 50
        block = ColumnarBlock.from_rows(rows, ["k"])
        spec = wire_payload(block.to_bytes())["columns"]["k"]
        assert spec == {"enc": "rle", "runs": [[50, 7]]}

    def test_empty_and_zero_count_runs_decode_to_nothing(self):
        from repro.storage.warehouse.blocks import _decode_column

        assert _decode_column({"enc": "rle", "runs": []}) == []
        assert _decode_column({"enc": "rle", "runs": [[0, "x"], [2, "y"]]}) == ["y", "y"]

    def test_alternating_column_skips_rle(self):
        rows = [{"k": i % 2} for i in range(40)]
        block = ColumnarBlock.from_rows(rows, ["k"])
        assert wire_payload(block.to_bytes())["columns"]["k"]["enc"] == "dict"
        assert ColumnarBlock.from_bytes(block.to_bytes()).column("k") == [
            i % 2 for i in range(40)
        ]

    def test_mixed_types_keep_their_own_runs(self):
        # 1, 1.0 and True are == but must not collapse into one run.
        values = [1] * 10 + [1.0] * 10 + [True] * 10 + [0.0] * 5 + [-0.0] * 5
        block = ColumnarBlock.from_rows([{"v": v} for v in values], ["v"])
        assert wire_payload(block.to_bytes())["columns"]["v"]["enc"] == "rle"
        decoded = ColumnarBlock.from_bytes(block.to_bytes()).column("v")
        assert [repr(v) for v in decoded] == [repr(v) for v in values]

    def test_timestamp_runs_roundtrip(self):
        ts = datetime(2020, 3, 1, 12)
        rows = [{"ts": ts}] * 25 + [{"ts": ts + timedelta(days=1)}] * 25
        block = ColumnarBlock.from_rows(rows, ["ts"])
        assert wire_payload(block.to_bytes())["columns"]["ts"]["enc"] == "rle"
        assert ColumnarBlock.from_bytes(block.to_bytes()).column("ts") == [
            r["ts"] for r in rows
        ]

    def test_list_values_are_not_rle_encoded(self):
        # A shared run object would alias one list across rows.
        rows = [{"topics": ["a"]}] * 30
        block = ColumnarBlock.from_rows(rows, ["topics"])
        assert wire_payload(block.to_bytes())["columns"]["topics"]["enc"] == "plain"
        decoded = ColumnarBlock.from_bytes(block.to_bytes()).column("topics")
        assert decoded == [["a"]] * 30 and decoded[0] is not decoded[1]


class TestSortKeys:
    ROWS = [
        {"k": 3, "v": "c"}, {"k": 1, "v": "a"}, {"k": None, "v": "n"}, {"k": 2, "v": "b"},
    ]

    def test_from_rows_sorts_and_records_key(self):
        block = ColumnarBlock.from_rows(self.ROWS, ["k", "v"], sort_key=["k"])
        assert block.sort_key == ("k",)
        assert block.column("k") == [None, 1, 2, 3]  # None sorts first
        assert block.column("v") == ["n", "a", "b", "c"]
        restored = ColumnarBlock.from_bytes(block.to_bytes())
        assert restored.sort_key == ("k",)
        assert restored.is_sorted_by("k") and not restored.is_sorted_by("v")

    def test_unorderable_key_values_fall_back_to_unsorted(self):
        rows = [{"k": 1}, {"k": "a"}]
        block = ColumnarBlock.from_rows(rows, ["k"], sort_key=["k"])
        assert block.sort_key is None
        assert block.column("k") == [1, "a"]  # original order kept

    def test_multi_column_sort_is_stable(self):
        rows = [
            {"a": 2, "b": 1}, {"a": 1, "b": 2}, {"a": 1, "b": 1}, {"a": 2, "b": 0},
        ]
        block = ColumnarBlock.from_rows(rows, ["a", "b"], sort_key=["a", "b"])
        assert block.to_rows() == [
            {"a": 1, "b": 1}, {"a": 1, "b": 2}, {"a": 2, "b": 0}, {"a": 2, "b": 1},
        ]

    def test_sorted_range_bisects_with_nulls_first(self):
        from repro.storage.warehouse.blocks import sorted_range

        array = [None, None, 1, 3, 3, 7, 9]
        assert sorted_range(array, 3, 7) == (3, 6)
        assert sorted_range(array, None, 3) == (2, 5)  # nulls excluded
        assert sorted_range(array, 8, None) == (6, 7)
        assert sorted_range(array, 10, None) == (7, 7)
        assert sorted_range(array, None, None) == (2, 7)
        assert sorted_range([None, 1, "x"], 0, 5) is None  # incomparable


class TestClusteredTables:
    def _make(self, block_rows=100):
        warehouse = Warehouse(block_rows=block_rows)
        table = warehouse.create_table(
            "m", ["day", "score", "tag"], "day", partition_by="value",
            sort_key=["score"],
        )
        return warehouse, table

    def test_sort_key_must_name_existing_columns(self):
        warehouse = Warehouse()
        with pytest.raises(WarehouseError):
            warehouse.create_table("bad", ["a"], "a", sort_key=["nope"])

    def test_append_clusters_each_partition(self):
        _warehouse, table = self._make(block_rows=4)
        table.append(
            {"day": f"d{i % 2}", "score": (7 * i) % 20, "tag": f"t{i}"}
            for i in range(16)
        )
        for partition in table.partitions():
            scores = [
                row["score"]
                for row in table.scan(columns=["score"], partitions=[partition])
            ]
            # Blocks are walked in min-order and each block is sorted, and
            # the single append batch was globally sorted per partition.
            assert scores == sorted(scores)

    def test_range_filter_on_sort_key_prunes_and_early_exits(self):
        warehouse, table = self._make(block_rows=50)
        table.append(
            {"day": "d0", "score": i, "tag": f"t{i}"} for i in range(500)
        )
        assert table.block_count() == 10
        before = warehouse.dfs.read_count
        result = table.aggregate(
            {"n": ("count", "*")}, range_filters=[("score", None, 49)]
        )
        assert result == {"n": 50}
        assert warehouse.dfs.read_count - before == 1  # one block, then early-exit

    def test_scan_results_identical_to_unsorted_table(self):
        import random as _random

        rng = _random.Random(5)
        rows = [
            {"day": f"d{rng.randrange(3)}", "score": rng.randrange(100), "tag": f"t{i}"}
            for i in range(300)
        ]
        _w1, clustered = self._make(block_rows=64)
        clustered.append(rows)
        plain_wh = Warehouse(block_rows=64)
        plain = plain_wh.create_table("m", ["day", "score", "tag"], "day", partition_by="value")
        plain.append(rows)
        key = lambda r: (r["day"], r["score"], r["tag"])
        for low, high in [(None, None), (10, 60), (None, 5), (95, None)]:
            filters = [("score", low, high)] if (low, high) != (None, None) else None
            a = sorted(clustered.scan_filtered(range_filters=filters), key=key)
            b = sorted(plain.scan_filtered(range_filters=filters), key=key)
            assert a == b


# ======================================================================
# Grouped aggregation (multi-column, dictionary codes) + parallel scans
# ======================================================================


def _grouped_fixture(n=400, block_rows=64, seed=11):
    import random as _random

    rng = _random.Random(seed)
    warehouse = Warehouse(block_rows=block_rows)
    table = warehouse.create_table(
        "g", ["day", "outlet", "kind", "score", "weight"], "day", partition_by="value"
    )
    table.append(
        {
            "day": f"d{i % 3}",
            "outlet": f"outlet-{rng.randrange(6)}",          # dict-encoded
            "kind": f"kind-{i}" if i % 7 == 0 else "common",  # sometimes high-card
            "score": rng.randrange(1000) if i % 11 else None,
            "weight": rng.random(),
        }
        for i in range(n)
    )
    return warehouse, table


def _row_scan_groups(table, group_cols, filters=None):
    """Reference grouped aggregation via the row-at-a-time scan."""
    groups = {}
    for row in table.scan():
        if filters and not all(
            row[c] is not None
            and (lo is None or row[c] >= lo)
            and (hi is None or row[c] <= hi)
            for c, lo, hi in filters
        ):
            continue
        key = row[group_cols[0]] if len(group_cols) == 1 else tuple(
            row[c] for c in group_cols
        )
        agg = groups.setdefault(
            key, {"n": 0, "scores": [], "weights": []}
        )
        agg["n"] += 1
        if row["score"] is not None:
            agg["scores"].append(row["score"])
        if row["weight"] is not None:
            agg["weights"].append(row["weight"])
    return groups


class TestGroupedAggregation:
    AGGS = {
        "n": ("count", "*"),
        "scored": ("count", "score"),
        "total": ("sum", "score"),
        "lo": ("min", "score"),
        "hi": ("max", "score"),
        "mean_w": ("avg", "weight"),
    }

    def _check_parity(self, table, group_by, filters=None):
        group_cols = [group_by] if isinstance(group_by, str) else list(group_by)
        got = table.aggregate(self.AGGS, group_by=group_by, range_filters=filters)
        want = _row_scan_groups(table, group_cols, filters)
        assert set(got) == set(want)
        for key, agg in want.items():
            row = got[key]
            assert row["n"] == agg["n"]
            assert row["scored"] == len(agg["scores"])
            assert row["total"] == (sum(agg["scores"]) if agg["scores"] else None)
            assert row["lo"] == (min(agg["scores"]) if agg["scores"] else None)
            assert row["hi"] == (max(agg["scores"]) if agg["scores"] else None)
            if agg["weights"]:
                assert row["mean_w"] == pytest.approx(
                    sum(agg["weights"]) / len(agg["weights"])
                )

    def test_single_column_parity_with_row_scan(self):
        _, table = _grouped_fixture()
        self._check_parity(table, "outlet")

    def test_multi_column_parity_with_row_scan(self):
        _, table = _grouped_fixture()
        self._check_parity(table, ["day", "outlet"])
        self._check_parity(table, ["outlet", "kind"])

    def test_filtered_multi_column_parity(self):
        _, table = _grouped_fixture()
        self._check_parity(table, ["day", "outlet"], filters=[("score", 100, 800)])

    def test_group_key_maps_the_tuple(self):
        _, table = _grouped_fixture()
        grouped = table.aggregate(
            {"n": ("count", "*")},
            group_by=["day", "outlet"],
            group_key=lambda key: f"{key[0]}/{key[1]}",
        )
        plain = table.aggregate({"n": ("count", "*")}, group_by=["day", "outlet"])
        assert {f"{d}/{o}": row for (d, o), row in plain.items()} == grouped

    def test_grouping_by_non_dict_column_matches_dict_column_path(self):
        # "kind" is mostly one value + unique outliers → may or may not be
        # dictionary-encoded per block; parity must hold either way.
        _, table = _grouped_fixture()
        got = table.aggregate({"n": ("count", "*")}, group_by="kind")
        want = _row_scan_groups(table, ["kind"])
        assert {k: row["n"] for k, row in got.items()} == {
            k: agg["n"] for k, agg in want.items()
        }

    def test_count_distinct(self):
        _, table = _grouped_fixture()
        grouped = table.aggregate(
            {"days": ("count_distinct", "day"), "outlets": ("count_distinct", "outlet")},
            group_by="day",
        )
        for day, row in grouped.items():
            assert row["days"] == 1
            rows = [r for r in table.scan() if r["day"] == day]
            assert row["outlets"] == len({r["outlet"] for r in rows})
        total = table.aggregate({"outlets": ("count_distinct", "outlet")})
        assert total["outlets"] == len({r["outlet"] for r in table.scan()})

    def test_empty_group_by_list_rejected(self):
        _, table = _grouped_fixture(n=10)
        with pytest.raises(WarehouseError):
            table.aggregate({"n": ("count", "*")}, group_by=[])

    def test_unknown_group_column_rejected(self):
        _, table = _grouped_fixture(n=10)
        with pytest.raises(WarehouseError):
            table.aggregate({"n": ("count", "*")}, group_by=["day", "nope"])


class TestSerialScans:
    def test_scan_columns_matches_the_row_scan(self):
        _, table = _grouped_fixture()
        scanned = [
            pair
            for block in table.scan_columns(
                ["outlet", "score"], range_filters=[("score", 200, None)]
            )
            for pair in zip(block["outlet"], block["score"])
        ]
        expected = [
            (row["outlet"], row["score"])
            for row in table.scan()
            if row["score"] is not None and row["score"] >= 200
        ]
        assert scanned == expected

    def test_scan_filtered_matches_the_row_scan(self):
        _, table = _grouped_fixture()
        expected = [
            row for row in table.scan()
            if row["score"] is not None and row["score"] <= 700
        ]
        assert list(table.scan_filtered(range_filters=[("score", None, 700)])) == expected

    def test_aggregate_float_sums_are_bit_identical_across_calls(self):
        _, table = _grouped_fixture(n=600)
        aggs = {"n": ("count", "*"), "w": ("sum", "weight"), "mean": ("avg", "weight")}
        first = table.aggregate(aggs, group_by=["day", "outlet"])
        second = table.aggregate(aggs, group_by=["day", "outlet"])
        # Bit-identical floats: per-block partials merge in block order.
        assert repr(first) == repr(second)
        reference = _row_scan_groups(table, ["day", "outlet"])
        assert {key: row["n"] for key, row in first.items()} == {
            key: agg["n"] for key, agg in reference.items()
        }
        for key, row in first.items():
            assert row["w"] == pytest.approx(sum(reference[key]["weights"]))

    def test_range_scan_on_clustered_table_matches_reference(self):
        warehouse = Warehouse(block_rows=32)
        table = warehouse.create_table(
            "s", ["day", "score"], "day", partition_by="value", sort_key=["score"]
        )
        table.append({"day": f"d{i % 2}", "score": (13 * i) % 200} for i in range(256))
        scanned = [
            score
            for block in table.scan_columns(["score"], range_filters=[("score", 50, 150)])
            for score in block["score"]
        ]
        expected = [
            score
            for day in ("d0", "d1")
            for score in sorted((13 * i) % 200 for i in range(256) if f"d{i % 2}" == day)
            if 50 <= score <= 150
        ]
        assert scanned == expected

    def test_scan_columns_reads_one_block_before_its_first_yield(self):
        warehouse, table = _grouped_fixture()
        assert table.cache_info()["entries"] == 0
        reads_before = warehouse.dfs.read_count
        scan = table.scan_columns(["score"])
        next(scan)
        assert warehouse.dfs.read_count == reads_before + 1
        rest = list(scan)
        assert warehouse.dfs.read_count == reads_before + 1 + len(rest)

    def test_scan_filtered_yields_a_row_after_one_block_read(self):
        warehouse, table = _grouped_fixture()
        reads_before = warehouse.dfs.read_count
        first = next(table.scan_filtered(["outlet"]))
        assert set(first) == {"outlet"}
        assert warehouse.dfs.read_count == reads_before + 1

    def test_cold_aggregate_reads_each_block_once(self):
        warehouse, table = _grouped_fixture()
        reads_before = warehouse.dfs.read_count
        table.aggregate({"n": ("count", "*"), "w": ("sum", "weight")}, group_by="outlet")
        assert warehouse.dfs.read_count - reads_before == table.storage_totals()["block_count"]

    def test_aggregate_reuses_the_block_cache(self):
        warehouse, table = _grouped_fixture()
        table.aggregate({"n": ("count", "*")}, group_by="outlet")
        reads_after_first = warehouse.dfs.read_count
        table.aggregate({"n": ("count", "*")}, group_by="outlet")
        assert warehouse.dfs.read_count == reads_after_first  # cache-served
