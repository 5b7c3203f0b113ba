"""Plain-Python dataframes over the experiment store: the read side.

The store's rows are flat dicts plus two nested payloads — the schema-v3
``metrics`` blob (phase timers, counter snapshot, queue latency) and the
runner's ``extra`` disclosure dict. Everything downstream of the store
(``repro stats``, ``repro report``, the markdown tables) needs the same
join: one record per cell with the blob's scalars hoisted into columns,
tolerant of pre-v3 rows whose ``metrics`` is ``None``. This module is
that join, done once, as a zero-dependency :class:`Frame` (a list of
dicts with select/where/group/aggregate helpers) so every reader stops
re-walking rows with its own ad-hoc ``isinstance`` ladder.

Modeled on the loader → dataframes → tables pipeline of ProjectScylla's
``generate_tables.py`` — but with plain lists and dicts instead of
pandas, because the report layer must not add a runtime dependency.
"""

from __future__ import annotations

import statistics
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

__all__ = [
    "Frame",
    "METRIC_COLUMNS",
    "CELL_ROW_COLUMNS",
    "cell_frame",
    "cell_rows_markdown",
    "load_store_frame",
    "row_compute_ms",
    "row_delta",
    "agg_count",
    "agg_sum",
    "agg_mean",
    "agg_median",
    "agg_min",
    "agg_max",
]

#: Metrics-blob scalars hoisted into first-class frame columns. Every one
#: is ``None`` on pre-v3 rows (and on v3 rows whose cell skipped the
#: phase), so aggregations must treat ``None`` as "absent", not zero.
METRIC_COLUMNS = (
    "total_ms",
    "build_ms",
    "compute_ms",
    "verify_ms",
    "queue_ms",
    "attempts",
    "window",
    "shards",
)


class Frame:
    """A list-of-dicts table with the handful of relational verbs the
    report layer needs. Rows are plain dicts (never copied on
    construction); every verb returns a new :class:`Frame` over the same
    row dicts, so chaining is cheap and mutation-free by convention."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Mapping[str, Any]]):
        self.rows: List[Dict[str, Any]] = [dict(r) if not isinstance(r, dict) else r for r in rows]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        return iter(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    def column(self, name: str, *, drop_none: bool = False) -> List[Any]:
        """One column as a list, optionally with ``None`` entries dropped
        (the useful form for feeding an aggregate)."""
        values = [row.get(name) for row in self.rows]
        if drop_none:
            values = [v for v in values if v is not None]
        return values

    def select(self, *columns: str) -> "Frame":
        return Frame([{c: row.get(c) for c in columns} for row in self.rows])

    def where(
        self,
        predicate: Optional[Callable[[Mapping[str, Any]], Any]] = None,
        **equals: Any,
    ) -> "Frame":
        """Rows matching a predicate and/or column equalities."""
        rows = self.rows
        if predicate is not None:
            rows = [r for r in rows if predicate(r)]
        for key, value in equals.items():
            rows = [r for r in rows if r.get(key) == value]
        return Frame(rows)

    def sort(self, *keys: str, reverse: bool = False) -> "Frame":
        """Sort by columns, ``None``-safe: missing values order first
        (last under ``reverse``) via a presence flag, and every value is
        compared through ``repr`` alongside its natural form so mixed
        types cannot raise."""

        def sort_key(row: Mapping[str, Any]) -> Tuple[Any, ...]:
            parts: List[Any] = []
            for key in keys:
                value = row.get(key)
                parts.append((value is not None, _orderable(value)))
            return tuple(parts)

        return Frame(sorted(self.rows, key=sort_key, reverse=reverse))

    def group_by(self, *keys: str) -> "List[Tuple[Tuple[Any, ...], Frame]]":
        """Rows partitioned by a column tuple, groups in sorted key
        order — the deterministic iteration the report renderers need."""
        groups: Dict[Tuple[Any, ...], List[Dict[str, Any]]] = {}
        for row in self.rows:
            groups.setdefault(tuple(row.get(k) for k in keys), []).append(row)
        ordered = sorted(
            groups.items(), key=lambda item: tuple(_orderable(v) for v in item[0])
        )
        return [(key, Frame(rows)) for key, rows in ordered]

    def aggregate(
        self,
        by: Sequence[str],
        **aggs: Tuple[str, Callable[[Sequence[Any]], Any]],
    ) -> "Frame":
        """Group by ``by`` and reduce columns: each keyword is
        ``out_column=(source_column, fn)`` where ``fn`` sees the group's
        non-``None`` values (empty group ⇒ ``None`` result)."""
        out: List[Dict[str, Any]] = []
        for key, group in self.group_by(*by):
            record: Dict[str, Any] = dict(zip(by, key))
            for out_col, (src_col, fn) in aggs.items():
                values = group.column(src_col, drop_none=True)
                record[out_col] = fn(values) if values else None
            out.append(record)
        return Frame(out)

    def distinct(self, column: str) -> List[Any]:
        seen: Dict[Any, None] = {}
        for row in self.rows:
            seen.setdefault(row.get(column))
        return sorted(seen, key=_orderable)


def _orderable(value: Any) -> Tuple[int, Any]:
    """A total order over mixed scalar types: numbers first (by value),
    then everything else by ``(type name, repr)``."""
    if isinstance(value, bool):
        return (1, (type(value).__name__, repr(value)))
    if isinstance(value, (int, float)):
        return (0, float(value))
    return (1, (type(value).__name__, repr(value)))


# -- aggregate functions -----------------------------------------------------

def agg_count(values: Sequence[Any]) -> int:
    return len(values)


def agg_sum(values: Sequence[Any]) -> float:
    return float(sum(values))


def agg_mean(values: Sequence[Any]) -> float:
    return statistics.fmean(values)


def agg_median(values: Sequence[Any]) -> float:
    return float(statistics.median(values))


def agg_min(values: Sequence[Any]) -> Any:
    return min(values)


def agg_max(values: Sequence[Any]) -> Any:
    return max(values)


# -- the store join ----------------------------------------------------------

def row_compute_ms(row: Mapping[str, Any]) -> Optional[float]:
    """The metrics blob's compute-phase timing, ``None`` on pre-v3 rows
    (and on blobs without the timer)."""
    metrics = row.get("metrics")
    if isinstance(metrics, Mapping):
        value = metrics.get("compute_ms")
        if isinstance(value, (int, float)):
            return float(value)
    return None


#: Per-workload Δ derivations: families whose parameters *are* the max
#: degree. Anything not listed resolves Δ only from the row's ``extra``
#: disclosure (algorithms that measured it) — never guessed.
_WORKLOAD_DELTA: Dict[str, Callable[[Mapping[str, Any]], Optional[int]]] = {
    "random-regular": lambda p: p.get("d"),
    "scale-regular": lambda p: p.get("d"),
    "xl-regular": lambda p: p.get("d"),
    "bipartite-regular": lambda p: p.get("d"),
    "torus": lambda p: 4,
    "hypercube": lambda p: p.get("dim"),
    "complete": lambda p: (p.get("n") or 0) - 1 if p.get("n") else None,
}


def row_delta(row: Mapping[str, Any]) -> Optional[int]:
    """The cell's maximum degree, when the row discloses it: either the
    runner measured it into ``extra["delta"]`` or the workload family
    pins it by construction (d-regular, torus, …). ``None`` otherwise —
    the report renders the bound column as unknown rather than
    recomputing Δ from a graph the reader never rebuilds."""
    extra = row.get("extra")
    if isinstance(extra, Mapping):
        value = extra.get("delta")
        if isinstance(value, (int, float)):
            return int(value)
    derive = _WORKLOAD_DELTA.get(str(row.get("workload")))
    if derive is not None:
        params = row.get("workload_params")
        value = derive(params if isinstance(params, Mapping) else {})
        if isinstance(value, (int, float)) and value > 0:
            return int(value)
    return None


def cell_frame(rows: Sequence[Mapping[str, Any]]) -> Frame:
    """Join store rows with their parsed metrics blobs into one frame.

    Every store column survives untouched; on top of those each record
    gains ``has_metrics`` (False ⇒ the row predates schema v3), the
    hoisted :data:`METRIC_COLUMNS` scalars, ``counters`` (the blob's
    counter snapshot, ``{}`` when absent), ``warning_count``, and
    ``delta`` (see :func:`row_delta`).
    """
    out: List[Dict[str, Any]] = []
    for row in rows:
        metrics = row.get("metrics")
        has_metrics = isinstance(metrics, Mapping)
        record = dict(row)
        record["has_metrics"] = has_metrics
        for column in METRIC_COLUMNS:
            value = metrics.get(column) if has_metrics else None
            record[column] = (
                float(value) if isinstance(value, (int, float)) else None
            )
        counters = metrics.get("counters") if has_metrics else None
        record["counters"] = dict(counters) if isinstance(counters, Mapping) else {}
        warnings = metrics.get("warnings") if has_metrics else None
        record["warning_count"] = len(warnings) if isinstance(warnings, (list, tuple)) else 0
        record["delta"] = row_delta(row)
        out.append(record)
    return Frame(out)


def load_store_frame(store: Any, **filters: Any) -> Frame:
    """:func:`cell_frame` over a live store's query results. ``store`` is
    an open :class:`~repro.store.ExperimentStore`; ``filters`` pass
    through to :meth:`~repro.store.ExperimentStore.query` (errored rows
    included — the report discloses them rather than hiding them)."""
    return cell_frame(store.query(**filters))


#: Default column order of ``repro query --format markdown``:
#: ``compute_ms`` comes from the schema-v3 metrics blob (hoisted by
#: :func:`cell_frame`; "—" on pre-v3 rows) and ``verdict`` from the
#: store's verification column — the table discloses kernel time and
#: verification state, not just the run's shape.
CELL_ROW_COLUMNS = (
    "algorithm",
    "workload",
    "seed",
    "engine",
    "n",
    "m",
    "colors_used",
    "rounds_actual",
    "rounds_modeled",
    "compute_ms",
    "verdict",
    "error",
)


def _fmt(value: Any) -> str:
    if value is None:
        return "—"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.1f}"
    return str(value)


def cell_rows_markdown(
    rows: Iterable[Mapping[str, Any]],
    columns: Sequence[str] = CELL_ROW_COLUMNS,
) -> str:
    """Render rows (plain dicts) as a GitHub-flavoured markdown table:
    ``None`` prints as "—", booleans as yes/no, floats to one decimal.
    Store rows go through :func:`cell_frame` first (``repro query`` does)
    so metrics-blob columns such as ``compute_ms`` are addressable."""
    header = "| " + " | ".join(columns) + " |"
    rule = "|" + "|".join("---" for _ in columns) + "|"
    body = [
        "| " + " | ".join(_fmt(row.get(column)) for column in columns) + " |"
        for row in rows
    ]
    return "\n".join([header, rule, *body])
