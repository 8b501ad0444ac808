"""Shared fixtures for the benchmark harness.

The ``paper_scenario`` / ``paper_platform`` fixtures rebuild the §4 COVID-19
data segment at paper scale (45 outlets, the full 60-day window 2020-01-15 →
2020-03-15) with a reduced per-outlet article volume so that the whole harness
runs in minutes on a laptop.  Every benchmark then measures the *platform*
code path (storage, indicators, insights) on top of this segment.
"""

from __future__ import annotations

import pytest

from repro import PlatformConfig, SciLensPlatform
from repro.simulation import CovidScenarioConfig, generate_covid_scenario

#: Scale factor applied to each outlet's daily volume (1.0 = full newsroom output).
BENCH_VOLUME_SCALE = 0.08


@pytest.fixture(scope="session")
def paper_scenario():
    """The 45-outlet, 60-day COVID-19 scenario of §4 (volume-scaled)."""
    config = CovidScenarioConfig(
        n_outlets=45,
        volume_scale=BENCH_VOLUME_SCALE,
        random_seed=13,
    )
    return generate_covid_scenario(config)


@pytest.fixture(scope="session")
def paper_platform(paper_scenario):
    """A platform that has ingested the paper scenario through the streaming path."""
    platform = SciLensPlatform(
        config=PlatformConfig(),
        site_store=paper_scenario.site_store,
        account_registry=paper_scenario.outlets.account_registry(),
    )
    platform.register_outlets(paper_scenario.outlets.outlets())
    platform.ingest_posting_events(paper_scenario.posting_events())
    platform.ingest_reaction_events(paper_scenario.reaction_events())
    platform.process_stream()
    platform.assign_topics()
    return platform


def mean_seconds(benchmark) -> float:
    """Mean wall-clock seconds of the benchmarked callable (version tolerant)."""
    stats = getattr(benchmark.stats, "stats", benchmark.stats)
    if hasattr(stats, "mean"):
        return float(stats.mean)
    return float(stats["mean"])


def print_series(title: str, days, series: dict[str, tuple[float, ...]], step: int = 7) -> None:
    """Print a compact weekly view of a per-class time series (Figure 4 style)."""
    print(f"\n=== {title} ===")
    header = "day        " + "".join(f"{label:>12}" for label in series)
    print(header)
    for index in range(0, len(days), step):
        row = f"{days[index].isoformat()} " + "".join(
            f"{values[index]:12.1f}" for values in series.values()
        )
        print(row)


def print_distribution(title: str, summary: dict[str, float]) -> None:
    """Print the low/high-quality distribution summary (Figure 5 style)."""
    print(f"\n=== {title} ===")
    print(f"{'group':<14}{'n':>8}{'mean':>12}{'median':>12}{'std':>12}")
    for group in ("low", "high"):
        print(
            f"{group + '-quality':<14}"
            f"{summary[f'{group}_n']:>8.0f}"
            f"{summary[f'{group}_mean']:>12.3f}"
            f"{summary[f'{group}_median']:>12.3f}"
            f"{summary[f'{group}_std']:>12.3f}"
        )
