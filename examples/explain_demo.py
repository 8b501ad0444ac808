"""EXPLAIN demo: every access path and ordering strategy of the query planner.

Builds a small articles table, declares the indexes the platform uses, and
prints ``Query.explain()`` for one query of each plan shape described in
``docs/query-planner.md`` — including the cost-model outputs: estimated
rows, plan cost, and the alternatives the planner rejected.

Run with::

    PYTHONPATH=src python examples/explain_demo.py
"""

from __future__ import annotations

import json
from datetime import datetime, timedelta

from repro.storage.rdbms.database import Database
from repro.storage.rdbms.expressions import col
from repro.storage.rdbms.schema import Column, TableSchema
from repro.storage.rdbms.types import ColumnType


def build_database(n_articles: int = 500) -> Database:
    database = Database()
    database.create_table(
        TableSchema(
            name="articles",
            primary_key="article_id",
            columns=(
                Column("article_id", ColumnType.TEXT, nullable=False),
                Column("outlet_domain", ColumnType.TEXT, nullable=False),
                Column("published_at", ColumnType.TIMESTAMP, nullable=False),
                Column("reactions", ColumnType.INTEGER, nullable=False),
                Column("title", ColumnType.TEXT, nullable=False),
            ),
        )
    )
    # The same index kinds the platform declares: a hash index for equality
    # lookups, sorted indexes for range scans, ordered streaming, and
    # LIKE-prefix pushdown on text.
    database.create_index("articles", "outlet_domain", kind="hash")
    database.create_index("articles", "published_at", kind="sorted")
    database.create_index("articles", "reactions", kind="sorted")
    database.create_index("articles", "title", kind="sorted")

    start = datetime(2020, 1, 15)
    database.insert_many(
        "articles",
        [
            {
                "article_id": f"a{i}",
                "outlet_domain": f"outlet-{i % 20}.example.com",
                "published_at": start + timedelta(hours=3 * i),
                "reactions": (i * 37) % 1000,
                "title": f"Article {i}",
            }
            for i in range(n_articles)
        ],
    )
    return database


def main() -> None:
    database = build_database()
    week = datetime(2020, 2, 1), datetime(2020, 2, 8)

    demos = {
        "full-scan (no usable index)": (
            database.query("articles").where(lambda row: "7" in row["title"])
        ),
        "full-scan (cost model rejects an unselective index)": (
            database.query("articles").where(col("reactions") >= 10)
        ),
        "index-eq (hash equality)": (
            database.query("articles").where(col("outlet_domain") == "outlet-3.example.com")
        ),
        "index-range (sorted index)": (
            database.query("articles").where(
                (col("published_at") >= week[0]) & (col("published_at") <= week[1])
            )
        ),
        "like-prefix (sorted text index)": (
            database.query("articles").where(col("title").like("Article 4%"))
        ),
        "index-union (IN list)": (
            database.query("articles").where(
                col("outlet_domain").is_in(
                    ["outlet-1.example.com", "outlet-2.example.com"]
                )
            )
        ),
        "index-intersect (two selective conjuncts)": (
            database.query("articles").where(
                (col("outlet_domain") == "outlet-3.example.com")
                & (col("published_at") >= week[0])
                & (col("published_at") <= week[1])
            )
        ),
        "index-ordered (ORDER BY + LIMIT on an indexed column)": (
            database.query("articles").order_by("published_at").limit(5)
        ),
        "top-k (ORDER BY + LIMIT after an index-backed filter)": (
            database.query("articles")
            .where(col("outlet_domain") == "outlet-3.example.com")
            .order_by("reactions", descending=True)
            .limit(3)
        ),
        "projection pushdown (SELECT few columns)": (
            database.query("articles")
            .select("article_id", "title")
            .where(col("reactions") >= 900)
        ),
        "aggregation (GROUP BY + count)": (
            database.query("articles")
            .group_by("outlet_domain")
            .aggregate(articles=("count", "*"))
        ),
    }

    width = max(len(label) for label in demos)
    print("=== Query.explain() — one query per plan shape ===\n")
    for label, query in demos.items():
        plan = query.explain()
        print(f"{label:<{width}}  ->  {plan.describe()}")
        rows = query.execute().rows
        print(f"{'':<{width}}      ({len(rows)} row(s) when executed)\n")

    print("=== Query.explain().describe_verbose() — the rejected alternatives ===\n")
    verbose_query = database.query("articles").where(
        (col("outlet_domain") == "outlet-3.example.com") & (col("reactions") >= 10)
    )
    print(verbose_query.explain().describe_verbose())
    print()

    print("=== Database.planner_status() — plan counters + statistics health ===\n")
    database.analyze()
    status = database.planner_status()
    print(json.dumps(status, indent=2, sort_keys=True, default=str))


if __name__ == "__main__":
    main()
