"""Time utilities shared across the platform.

All timestamps in the library are timezone-naive UTC ``datetime`` objects.
The helpers here define the paper's COVID-19 collection window (2020-01-15
to 2020-03-15, 60 days) and walk it day by day.
"""

from __future__ import annotations

from datetime import date, datetime, timedelta
from typing import Iterator

#: Start of the paper's COVID-19 data-collection window (inclusive).
COVID_WINDOW_START = datetime(2020, 1, 15)

#: End of the paper's COVID-19 data-collection window (exclusive).
COVID_WINDOW_END = datetime(2020, 3, 15)


def iter_days(start: datetime, end: datetime) -> Iterator[date]:
    """Yield every calendar day in ``[start, end)``."""
    current = start.date()
    last = end.date()
    while current < last:
        yield current
        current += timedelta(days=1)
