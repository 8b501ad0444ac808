"""Cost-based access planning for the relational engine.

The planner turns a predicate (via the constraint extractor of
:mod:`.expressions`) plus the table's secondary indexes *and statistics*
(:mod:`.stats`) into an :class:`AccessPlan`.  Each index-answerable conjunct
becomes a candidate step with an estimated row count (histogram / NDV / MCV
selectivity, defaults when the column has no statistics); the planner then
enumerates candidate plans — the full scan plus every prefix of the steps
ordered most-selective-first — costs each one, and probes only the steps of
the cheapest.  ``Query.explain()`` reports the chosen plan together with the
considered-but-rejected alternatives.

Statistics are always available at plan time: a table whose snapshot is
missing or stale re-analyzes on the spot (:meth:`Table.planning_stats`).

Access paths
------------
* ``full-scan``      — no usable index, or every index plan costed above the
  scan; every row is examined.
* ``index-eq``       — hash/sorted index equality lookup.
* ``index-range``    — sorted index range scan (``<``, ``<=``, ``>``, ``>=``,
  BETWEEN-style AND pairs, and ``LIKE 'abc%'`` prefixes — the step label
  ``like-prefix(col)`` marks the latter).
* ``index-union``    — union of per-branch probes for an OR conjunct whose
  branches are equalities, IN lists, ranges or LIKE prefixes.
* ``index-intersect``— several of the above intersected.
* ``index-group-count`` — ``GROUP BY <hash-indexed column>`` with only
  ``COUNT(*)`` over the whole table: one result row per index bucket (its
  size), no stored row is read.

Ordering strategies
-------------------
* ``sort``           — materialise matches and sort them.
* ``top-k``          — bounded heap for ORDER BY + LIMIT (avoids a full sort).
* ``index-ordered``  — stream rows straight from a sorted index, stopping as
  soon as OFFSET + LIMIT matches are found.

The executor always re-evaluates the predicate on candidate rows, so every
plan — whatever the estimates said — produces exactly the rows a full scan
would.  Estimation errors cost time, never correctness, and are tracked as
quantiles in :class:`PlannerMetrics` (``status()["planner"]``).

Known limits
------------
* Single-column indexes only (conjuncts intersect separate indexes).
* Conjunct selectivities combine under the independence assumption — no
  correlation statistics, no join reordering.
* ``index-ordered`` needs a single ORDER BY key whose sorted index covers
  every row (the index skips NULLs), and no joins or aggregation.
* No full-text predicate: search is the segment index of
  :mod:`repro.storage.fts`, not a table access path.
* LIKE-prefix pushdown needs a sorted index on a TEXT column and a pattern
  with a literal prefix (``'abc%'`` yes, ``'%abc'`` no).
* ``index-group-count`` needs no predicate, no join, exactly one group column
  with a *hash* index, and ``COUNT(*)`` as every aggregate; any other grouped
  query aggregates over scanned rows.

See ``docs/query-planner.md`` for the full vocabulary with examples, and
``examples/explain_demo.py`` for a runnable tour of every plan shape.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from .expressions import (
    BranchAtom,
    Expression,
    PredicateConstraints,
    RangeConstraint,
    extract_constraints,
)
from .index import HashIndex, SortedIndex
from .stats import (
    DEFAULT_EQ_SELECTIVITY,
    DEFAULT_PREFIX_SELECTIVITY,
    DEFAULT_RANGE_SELECTIVITY,
    TableStats,
    prefix_upper_bound,
)
from .types import ColumnType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .table import Table

FULL_SCAN = "full-scan"
INDEX_EQ = "index-eq"
INDEX_RANGE = "index-range"
INDEX_UNION = "index-union"
#: No plan takes this path any more; kept by name for the benchmark's layer map.
FTS_INDEX_SCAN = "fts_index_scan"
INDEX_INTERSECT = "index-intersect"
INDEX_GROUP_COUNT = "index-group-count"
#: Step label of a LIKE-prefix probe (an ``index-range`` under the hood).
LIKE_PREFIX = "like-prefix"

ORDER_SORT = "sort"
ORDER_TOP_K = "top-k"
ORDER_INDEX = "index-ordered"

#: How the plan was produced: no indexable constraints at all, or the
#: statistics-driven cost model.
STATS_NONE = "none"
STATS_COST = "cost"

# Cost model units: examining one stored row during the residual predicate
# re-check costs 1.  Index work is cheaper per row but pays a fixed probe
# fee, and intersecting a second step's matches costs per matched id.  The
# full scan additionally pays a small setup overhead (iterating the whole
# row store rather than a prepared candidate set).
COST_ROW = 1.0
COST_PROBE = 0.5
COST_INDEX_ROW = 0.2
COST_INTERSECT_ROW = 0.05
COST_SCAN_OVERHEAD = 1.0


@dataclass(frozen=True)
class StepEstimate:
    """Plan-time estimate of one access step of the chosen plan."""

    label: str
    estimated_rows: float
    cost: float


@dataclass(frozen=True)
class PlanAlternative:
    """One candidate plan the cost model considered (chosen or rejected)."""

    path: str
    steps: tuple[str, ...]
    estimated_rows: float
    cost: float
    chosen: bool = False

    def describe(self) -> str:
        marker = "*" if self.chosen else " "
        steps = " ∩ ".join(self.steps) if self.steps else "-"
        return (
            f"{marker} {self.path} via {steps} "
            f"est={self.estimated_rows:.0f} cost={self.cost:.1f}"
        )


@dataclass
class AccessPlan:
    """How the planner narrows the rows a predicate must examine."""

    path: str = FULL_SCAN
    #: Human-readable per-index steps, e.g. ``("index-range(published_at)",)``.
    steps: tuple[str, ...] = ()
    #: Candidate row ids (unordered); ``None`` means every row is a candidate.
    row_ids: set[int] | None = None
    #: Cost-model outputs (``None``/empty outside ``stats_mode == "cost"``).
    estimated_rows: float | None = None
    cost: float | None = None
    stats_mode: str = STATS_NONE
    step_estimates: tuple[StepEstimate, ...] = ()
    alternatives: tuple[PlanAlternative, ...] = ()

    @property
    def is_index_backed(self) -> bool:
        return self.row_ids is not None

    def candidate_count(self) -> int | None:
        return len(self.row_ids) if self.row_ids is not None else None


class PlannerMetrics:
    """Per-table planner counters surfaced through ``status()["planner"]``.

    Tracks plans by access path and stats mode, ANALYZE runs, and the
    estimation error of index-backed plans as a bounded sample of symmetric
    ratios ``max((est+1)/(actual+1), (actual+1)/(est+1))`` — 1.0 is a perfect
    estimate, 10.0 is an order of magnitude off in either direction.
    """

    def __init__(self, error_samples: int = 512) -> None:
        self.plans_by_path: Counter[str] = Counter()
        self.plans_by_mode: Counter[str] = Counter()
        self.analyze_runs = 0
        self._error_ratios: deque[float] = deque(maxlen=error_samples)

    def record_plan(self, plan: AccessPlan) -> None:
        self.plans_by_path[plan.path] += 1
        self.plans_by_mode[plan.stats_mode] += 1
        if plan.row_ids is not None and plan.estimated_rows is not None:
            actual = len(plan.row_ids)
            estimated = plan.estimated_rows
            self._error_ratios.append(
                max((estimated + 1) / (actual + 1), (actual + 1) / (estimated + 1))
            )

    def record_analyze(self) -> None:
        self.analyze_runs += 1

    @property
    def error_ratios(self) -> list[float]:
        return list(self._error_ratios)

    def snapshot(self) -> dict[str, Any]:
        return {
            "plans_by_path": dict(self.plans_by_path),
            "plans_by_mode": dict(self.plans_by_mode),
            "analyze_runs": self.analyze_runs,
            "estimation_error": estimation_error_summary(self.error_ratios),
        }


def estimation_error_summary(ratios: list[float]) -> dict[str, float | int]:
    """Quantile summary of estimation-error ratios (empty-safe)."""
    if not ratios:
        return {"samples": 0}
    ordered = sorted(ratios)

    def quantile(fraction: float) -> float:
        return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]

    return {
        "samples": len(ordered),
        "p50": round(quantile(0.50), 3),
        "p90": round(quantile(0.90), 3),
        "max": round(ordered[-1], 3),
    }


@dataclass
class _Step:
    """A candidate index probe: its label, estimate and deferred execution."""

    kind: str
    label: str
    est_rows: float
    probe: Callable[[], set[int]]


def _est_eq(stats: TableStats, column: str, value: Any, total: int) -> float:
    cs = stats.column(column)
    if cs is None:
        return DEFAULT_EQ_SELECTIVITY * total
    return cs.eq_rows(value)


def _est_in(stats: TableStats, column: str, values: tuple, total: int) -> float:
    cs = stats.column(column)
    if cs is None:
        return min(float(total), DEFAULT_EQ_SELECTIVITY * total * len(values))
    return cs.in_rows(values)


def _est_range(
    stats: TableStats, column: str, interval: RangeConstraint, total: int
) -> float:
    cs = stats.column(column)
    if cs is None:
        return DEFAULT_RANGE_SELECTIVITY * total
    return cs.range_rows(
        low=interval.low,
        high=interval.high,
        include_low=interval.include_low,
        include_high=interval.include_high,
    )


def _est_prefix(stats: TableStats, column: str, prefix: str, total: int) -> float:
    cs = stats.column(column)
    if cs is None:
        return DEFAULT_PREFIX_SELECTIVITY * total
    return cs.prefix_rows(prefix)


def _prefix_indexable(table: "Table", column: str) -> bool:
    """A LIKE prefix probes the index only for TEXT columns with a sorted
    index — non-text values LIKE-match through ``str()``, which does not
    agree with the index's native value order."""
    if not table.has_index(column):
        return False
    if not isinstance(table.index(column), SortedIndex):
        return False
    if not table.schema.has_column(column):
        return False
    return table.schema.column(column).column_type == ColumnType.TEXT


def _prefix_probe(index: SortedIndex, prefix: str) -> set[int]:
    return set(
        index.range(
            low=prefix,
            high=prefix_upper_bound(prefix),
            include_low=True,
            include_high=False,
        )
    )


def _union_step(
    table: "Table",
    atoms: list[BranchAtom],
    stats: TableStats,
    total: int,
) -> _Step | None:
    """Build the indexed-union step of one OR conjunct (``None`` when any
    branch cannot be answered from an index — a partial union would miss
    rows)."""
    probes: list[Callable[[], set[int]]] = []
    est = 0.0
    columns: set[str] = set()
    for atom in atoms:
        if atom.kind in ("eq", "in"):
            if not table.has_index(atom.column):
                return None
            index = table.index(atom.column)
            if atom.kind == "eq":
                probes.append(lambda index=index, value=atom.value: index.lookup(value))
                est += _est_eq(stats, atom.column, atom.value, total)
            else:
                probes.append(
                    lambda index=index, values=atom.values: index.lookup_many(values)
                )
                est += _est_in(stats, atom.column, atom.values, total)
        elif atom.kind == "range":
            interval = atom.interval
            if interval is None or not interval.is_bounded():
                return None
            if not table.has_index(atom.column):
                return None
            index = table.index(atom.column)
            if not isinstance(index, SortedIndex):
                return None
            probes.append(
                lambda index=index, rng=interval: set(
                    index.range(
                        low=rng.low,
                        high=rng.high,
                        include_low=rng.include_low,
                        include_high=rng.include_high,
                    )
                )
            )
            est += _est_range(stats, atom.column, interval, total)
        elif atom.kind == "prefix":
            if not _prefix_indexable(table, atom.column):
                return None
            index = table.index(atom.column)
            assert isinstance(index, SortedIndex)
            probes.append(lambda index=index, prefix=atom.value: _prefix_probe(index, prefix))
            est += _est_prefix(stats, atom.column, atom.value, total)
        else:  # pragma: no cover - extractor only emits the kinds above
            return None
        columns.add(atom.column)

    def probe() -> set[int]:
        union: set[int] = set()
        for branch_probe in probes:
            union |= branch_probe()
        return union

    label = f"{INDEX_UNION}({','.join(sorted(columns)) or '-'})"
    return _Step(INDEX_UNION, label, min(float(total), est), probe)


def _discover_steps(
    table: "Table",
    constraints: PredicateConstraints,
    stats: TableStats,
    total: int,
) -> list[_Step]:
    """Every index-answerable conjunct as a candidate step with an estimate."""
    steps: list[_Step] = []

    for column, value in constraints.equalities.items():
        if not table.has_index(column):
            continue
        index = table.index(column)
        steps.append(
            _Step(
                INDEX_EQ,
                f"{INDEX_EQ}({column})",
                _est_eq(stats, column, value, total),
                lambda index=index, value=value: index.lookup(value),
            )
        )

    for column, rng in constraints.ranges.items():
        if column in constraints.equalities or not rng.is_bounded():
            continue  # an equality on the same column is already tighter
        if not table.has_index(column):
            continue
        index = table.index(column)
        if not isinstance(index, SortedIndex):
            continue
        steps.append(
            _Step(
                INDEX_RANGE,
                f"{INDEX_RANGE}({column})",
                _est_range(stats, column, rng, total),
                lambda index=index, rng=rng: set(
                    index.range(
                        low=rng.low,
                        high=rng.high,
                        include_low=rng.include_low,
                        include_high=rng.include_high,
                    )
                ),
            )
        )

    for column, prefix in constraints.prefixes.items():
        if column in constraints.equalities or not _prefix_indexable(table, column):
            continue
        index = table.index(column)
        assert isinstance(index, SortedIndex)
        steps.append(
            _Step(
                LIKE_PREFIX,
                f"{LIKE_PREFIX}({column})",
                _est_prefix(stats, column, prefix, total),
                lambda index=index, prefix=prefix: _prefix_probe(index, prefix),
            )
        )

    for atoms in constraints.disjunctions:
        step = _union_step(table, atoms, stats, total)
        if step is not None:
            steps.append(step)

    return steps


def _single_or_intersect(kinds: set[str], count: int) -> str:
    return kinds.copy().pop() if len(kinds) == 1 and count == 1 else INDEX_INTERSECT


def _cost_plan(steps: list[_Step], total: int) -> AccessPlan:
    """Enumerate candidate plans, cost them, probe only the cheapest one.

    Steps are ordered most-selective-first; the candidates are the full scan
    plus every prefix of that ordering (the classic greedy enumeration —
    adding a step is only worth its probe/intersect fee if it shrinks the
    residual re-check enough).  Combined selectivities multiply
    (independence assumption).
    """
    ordered = sorted(steps, key=lambda step: step.est_rows)
    scan_cost = total * COST_ROW + COST_SCAN_OVERHEAD
    alternatives: list[PlanAlternative] = [
        PlanAlternative(path=FULL_SCAN, steps=(), estimated_rows=float(total), cost=scan_cost)
    ]
    estimates: list[tuple[PlanAlternative, list[_Step], list[StepEstimate]]] = [
        (alternatives[0], [], [])
    ]
    for k in range(1, len(ordered) + 1):
        chosen = ordered[:k]
        combined = float(total)
        step_estimates: list[StepEstimate] = []
        cost = 0.0
        for position, step in enumerate(chosen):
            selectivity = (step.est_rows / total) if total else 0.0
            combined *= min(1.0, selectivity)
            step_cost = COST_PROBE + step.est_rows * COST_INDEX_ROW
            if position > 0:
                step_cost += step.est_rows * COST_INTERSECT_ROW
            step_estimates.append(StepEstimate(step.label, step.est_rows, round(step_cost, 3)))
            cost += step_cost
        cost += combined * COST_ROW  # residual predicate re-check
        kinds = {step.kind for step in chosen}
        alternative = PlanAlternative(
            path=_single_or_intersect(kinds, len(chosen)),
            steps=tuple(step.label for step in chosen),
            estimated_rows=combined,
            cost=cost,
        )
        alternatives.append(alternative)
        estimates.append((alternative, chosen, step_estimates))

    best_index = min(range(len(alternatives)), key=lambda i: alternatives[i].cost)
    best, best_steps, best_estimates = estimates[best_index]
    reported = tuple(
        PlanAlternative(
            path=alt.path,
            steps=alt.steps,
            estimated_rows=round(alt.estimated_rows, 1),
            cost=round(alt.cost, 1),
            chosen=(i == best_index),
        )
        for i, alt in enumerate(alternatives)
    )

    if not best_steps:  # every index plan costed above the scan
        return AccessPlan(
            path=FULL_SCAN,
            estimated_rows=float(total),
            cost=round(best.cost, 3),
            stats_mode=STATS_COST,
            alternatives=reported,
        )

    candidate: set[int] | None = None
    for step in best_steps:
        matches = step.probe()
        candidate = matches if candidate is None else candidate & matches
        if not candidate:
            break  # already empty: further intersection cannot add rows
    assert candidate is not None
    return AccessPlan(
        path=best.path,
        steps=best.steps,
        row_ids=candidate,
        estimated_rows=round(best.estimated_rows, 3),
        cost=round(best.cost, 3),
        stats_mode=STATS_COST,
        step_estimates=tuple(best_estimates),
        alternatives=reported,
    )


def plan_access(table: "Table", predicate: Any) -> AccessPlan:
    """Choose an access path for ``predicate`` against ``table``.

    The cost model picks the cheapest subset of index-answerable conjuncts
    from the table's statistics (see :meth:`Table.planning_stats`).  The
    candidate set is a superset of the true matches and the executor
    re-checks.
    """
    if not isinstance(predicate, Expression):
        return AccessPlan()
    constraints = extract_constraints(predicate)
    if constraints.is_empty():
        return AccessPlan()

    stats = table.planning_stats()
    total = table.row_count()
    steps = _discover_steps(table, constraints, stats, total)
    if not steps:
        return AccessPlan()
    return _cost_plan(steps, total)


def plan_group_count(
    table: "Table",
    group_by: Sequence[str],
    aggregates: Mapping[str, tuple[str, str]],
    filtered: bool,
) -> AccessPlan | None:
    """The ``index-group-count`` plan when the query has exactly that shape.

    Eligible: no predicate and no join (``filtered``), one group column that
    carries a hash index, and ``COUNT(*)`` as every aggregate — then the index
    buckets *are* the groups and their sizes the counts (rows whose group
    column is NULL are not indexed; the executor adds them as one NULL group).
    ``None`` sends the query down the ordinary scan-and-aggregate path.
    """
    if filtered or len(group_by) != 1 or not aggregates:
        return None
    if any(aggregate != ("count", "*") for aggregate in aggregates.values()):
        return None
    (column,) = group_by
    if not table.has_index(column) or not isinstance(table.index(column), HashIndex):
        return None
    return AccessPlan(path=INDEX_GROUP_COUNT, steps=(f"{INDEX_GROUP_COUNT}({column})",))


@dataclass
class QueryPlan:
    """The full plan of one query, as reported by ``Query.explain()``."""

    table: str
    access_path: str
    access_steps: tuple[str, ...] = ()
    candidate_rows: int | None = None
    table_rows: int = 0
    order_strategy: str | None = None
    order_column: str | None = None
    projection_pushdown: tuple[str, ...] | None = None
    uses_aggregation: bool = False
    joined_tables: tuple[str, ...] = ()
    limit: int | None = None
    offset: int = 0
    #: Cost-model outputs (``None``/empty when the plan was not cost-based).
    estimated_rows: float | None = None
    access_cost: float | None = None
    stats_mode: str = STATS_NONE
    step_estimates: tuple[StepEstimate, ...] = ()
    alternatives: tuple[PlanAlternative, ...] = ()
    _access: AccessPlan | None = field(default=None, repr=False, compare=False)

    def describe(self) -> str:
        """One-line, EXPLAIN-style summary of the plan."""
        parts = [f"{self.table}: {self.access_path}"]
        if self.access_steps:
            parts.append("via " + " ∩ ".join(self.access_steps))
        if self.candidate_rows is not None:
            parts.append(f"~{self.candidate_rows}/{self.table_rows} rows")
        if self.estimated_rows is not None:
            parts.append(f"est={self.estimated_rows:.0f}")
        if self.access_cost is not None:
            parts.append(f"cost={self.access_cost:.1f}")
        rejected = sum(1 for alt in self.alternatives if not alt.chosen)
        if rejected:
            parts.append(f"rejected={rejected}")
        if self.order_strategy:
            order = self.order_strategy
            if self.order_column:
                order += f"({self.order_column})"
            parts.append(f"order={order}")
        if self.projection_pushdown is not None:
            parts.append("project=" + ",".join(self.projection_pushdown))
        if self.uses_aggregation:
            parts.append("aggregate")
        for joined in self.joined_tables:
            parts.append(f"join({joined})")
        if self.limit is not None:
            parts.append(f"limit={self.limit}")
        if self.offset:
            parts.append(f"offset={self.offset}")
        return " ".join(parts)

    def describe_verbose(self) -> str:
        """Multi-line summary: the plan, its step estimates, and every
        alternative the cost model considered (``*`` marks the chosen one)."""
        lines = [self.describe()]
        for estimate in self.step_estimates:
            lines.append(
                f"  step {estimate.label} est={estimate.estimated_rows:.0f}"
                f" cost={estimate.cost:.1f}"
            )
        for alternative in self.alternatives:
            lines.append(f"  {alternative.describe()}")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.describe()
