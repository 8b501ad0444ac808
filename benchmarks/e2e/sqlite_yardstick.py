"""External yardstick: the same rows and queries on stdlib SQLite.

The set-up is Paper-Scanner's (SNIPPETS.md): one file-backed database with
``journal_mode=WAL``, ``synchronous=NORMAL``, ``foreign_keys=ON`` and a
``busy_timeout``, an index-backed listing and an FTS5 table beside the
articles.  It receives the rows the platform's RDBMS holds at the end of a
run, in the same 125-row commits the ingest stage uses, and answers the
listing, search and grouped-aggregate queries the workloads ask the platform.

These are yardstick numbers only: SQLite does no scraping, CDC or indicator
computation, so ``sqlite.ingest_rows_per_s`` bounds what storage alone could
cost, not what the pipeline could reach.
"""

from __future__ import annotations

import sqlite3
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterable, Sequence

COMMIT_ROWS = 125
REPEATS = 5

SCHEMA = """
CREATE TABLE articles (
    article_id TEXT PRIMARY KEY, url TEXT NOT NULL, outlet_domain TEXT NOT NULL,
    title TEXT, author TEXT, published_at TEXT NOT NULL, text TEXT, html TEXT
);
CREATE INDEX articles_listing ON articles (outlet_domain, published_at DESC);
CREATE TABLE posts (
    post_id TEXT PRIMARY KEY, account TEXT, followers INTEGER, text TEXT, created_at TEXT,
    article_url TEXT NOT NULL
);
CREATE INDEX posts_article ON posts (article_url);
CREATE TABLE reactions (
    reaction_id TEXT PRIMARY KEY, kind TEXT, account TEXT, text TEXT, created_at TEXT,
    post_id TEXT NOT NULL REFERENCES posts (post_id)
);
CREATE INDEX reactions_post ON reactions (post_id);
"""
FTS_SCHEMA = "CREATE VIRTUAL TABLE article_search USING fts5 (article_id UNINDEXED, title, text)"


def fts5_query(query: str) -> str:
    """The platform's query syntax (AND of terms, trailing ``*`` = prefix) in FTS5's."""
    terms = []
    for term in query.split():
        prefix = term.endswith("*")
        terms.append('"' + term.rstrip("*").replace('"', "") + '"' + ("*" if prefix else ""))
    return " ".join(terms)


def median_ms(run: Callable[[Any], Any], arguments: Sequence[Any]) -> float:
    samples = []
    for _ in range(REPEATS):
        for argument in arguments:
            started = perf_counter()
            run(argument)
            samples.append((perf_counter() - started) * 1e3)
    return statistics.median(samples)


def run_yardstick(
    path: Path,
    tables: dict[str, list[dict[str, Any]]],
    outlets: Sequence[str],
    searches: Sequence[str],
    ranges: Sequence[tuple[str, str]],
) -> tuple[dict[str, float], dict[str, int]]:
    """Load ``tables`` into a fresh database at ``path`` and time the queries.

    Returns the ``sqlite.*`` metrics and the per-outlet article counts SQLite
    computed (the caller checks them against the platform's).  Without FTS5
    the search metric reads 0 and a note goes to stderr — skipped, not failed.
    """
    connection = sqlite3.connect(path)
    try:
        for pragma in (
            "journal_mode=WAL", "synchronous=NORMAL", "foreign_keys=ON", "busy_timeout=30000",
        ):
            connection.execute(f"PRAGMA {pragma}")
        connection.executescript(SCHEMA)
        try:
            connection.execute(FTS_SCHEMA)
            has_fts = True
        except sqlite3.OperationalError as exc:
            print(f"sqlite yardstick: FTS5 unavailable ({exc}); search skipped", file=sys.stderr)
            has_fts = False

        def columns_of(table: str) -> list[str]:
            return [row[1] for row in connection.execute(f"PRAGMA table_info({table})")]

        def insert(table: str, rows: Iterable[dict[str, Any]]) -> int:
            columns = columns_of(table)
            statement = (
                f"INSERT INTO {table} ({', '.join(columns)}) "
                f"VALUES ({', '.join('?' for _ in columns)})"
            )
            count = 0
            for count, row in enumerate(rows, 1):
                connection.execute(statement, [_cell(row.get(column)) for column in columns])
                if table == "articles" and has_fts:
                    connection.execute(
                        "INSERT INTO article_search VALUES (?, ?, ?)",
                        (row["article_id"], row["title"], row["text"]),
                    )
                if count % COMMIT_ROWS == 0:
                    connection.commit()
            connection.commit()
            return count

        started = perf_counter()
        n_rows = sum(insert(table, tables[table]) for table in ("articles", "posts", "reactions"))
        ingest_s = perf_counter() - started
        connection.execute("PRAGMA wal_checkpoint(TRUNCATE)")

        def listing(outlet: str) -> None:
            connection.execute(
                "SELECT COUNT(*) FROM articles WHERE outlet_domain = ?", (outlet,)
            ).fetchone()
            connection.execute(
                "SELECT article_id, url, title, author, published_at FROM articles "
                "WHERE outlet_domain = ? ORDER BY published_at DESC LIMIT 100", (outlet,),
            ).fetchall()

        def search(query: str) -> None:
            connection.execute(
                "SELECT article_id, bm25(article_search) FROM article_search "
                "WHERE article_search MATCH ? ORDER BY bm25(article_search) LIMIT 10",
                (fts5_query(query),),
            ).fetchall()

        def aggregate(bounds: tuple[str, str]) -> None:
            connection.execute(
                "SELECT date(published_at), COUNT(*) FROM articles GROUP BY 1"
            ).fetchall()
            connection.execute(
                "SELECT kind, COUNT(*) FROM reactions WHERE created_at BETWEEN ? AND ? "
                "GROUP BY kind", bounds,
            ).fetchall()

        metrics = {
            "sqlite.ingest_rows_per_s": n_rows / ingest_s,
            "sqlite.list_p50_ms": median_ms(listing, outlets),
            "sqlite.search_p50_ms": median_ms(search, searches) if has_fts else 0.0,
            "sqlite.aggregate_p50_ms": median_ms(aggregate, ranges),
            "sqlite.bytes_per_row": path.stat().st_size / n_rows,
        }
        per_outlet = dict(connection.execute(
            "SELECT outlet_domain, COUNT(*) FROM articles GROUP BY outlet_domain"
        ))
        return metrics, per_outlet
    finally:
        connection.close()


def _cell(value: Any) -> Any:
    """Timestamps as ISO-8601 text, everything else as SQLite takes it."""
    return value.isoformat() if hasattr(value, "isoformat") else value
