"""Tests for repro._time."""

from datetime import date, datetime

from repro._time import COVID_WINDOW_END, COVID_WINDOW_START, iter_days


def test_covid_window_is_sixty_days():
    assert COVID_WINDOW_START == datetime(2020, 1, 15)
    assert COVID_WINDOW_END == datetime(2020, 3, 15)
    assert len(list(iter_days(COVID_WINDOW_START, COVID_WINDOW_END))) == 60


def test_iter_days():
    days = list(iter_days(datetime(2020, 1, 1), datetime(2020, 1, 4)))
    assert days == [date(2020, 1, 1), date(2020, 1, 2), date(2020, 1, 3)]


def test_iter_days_is_empty_for_an_empty_or_inverted_range():
    start = datetime(2020, 2, 1, 8)
    assert list(iter_days(start, start)) == []
    assert list(iter_days(start, datetime(2020, 1, 1))) == []


def test_iter_days_walks_calendar_days_not_24_hour_spans():
    # 23:00 to 01:00 the next day is two hours but touches one calendar day
    # before the (exclusive) end day.
    assert list(iter_days(datetime(2020, 2, 1, 23), datetime(2020, 2, 2, 1))) == [
        date(2020, 2, 1)
    ]
