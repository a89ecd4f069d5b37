"""Traced in-process run: spans around the calls into each hinalloc module.

The program carries no tracing code. This module wraps public functions by
attribute name, runs the CLI's ``main`` in this process, and turns the spans
into per-layer metrics. A target that no longer exists is skipped, and every
metric that needs it is left out, so the traced run survives refactors.

Layers are the package's modules: ``ingest`` (which calls ``meshtree``),
``ledger``, ``dynamic``, ``similarity``, ``metrics`` and ``cli``. ``sparse`` and
``nodes`` are not wrapped; their time counts in their callers.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

LAYERS = ("ingest", "ledger", "dynamic", "similarity", "metrics", "cli")


def _ledger_sizes(args, kwargs):
    ledger = args[0] if args else kwargs["ledger"]
    return len(ledger.experience_links), len(ledger.update_links)


def _year_and_new_links(args, kwargs):
    ledger = args[1] if len(args) > 1 else kwargs["ledger"]
    return ledger.year, len(ledger.update_links)


def _year_arg(args, kwargs):
    return args[1] if len(args) > 1 else kwargs["year"]


def _papers_arg(args, kwargs):
    links = args[1] if len(args) > 1 else kwargs["author_paper"]
    if not isinstance(links, (list, tuple)):
        return None  # consuming an iterator here would starve the call
    return {paper for _, paper in links}


def _profiles_retained(result, info):
    store = result[0]
    return sum(len(snapshot) for snapshot in store.snapshots.values())


# (module, attribute path, hook run on the arguments before the call,
#  hook run on the result after it); a span is named "<module>.<attribute>"
TARGETS: tuple[tuple[str, str, Callable | None, Callable | None], ...] = (
    ("ingest", "load_dataset", None, None),
    ("ingest", "read_link_file", None, None),
    ("ledger", "Timeline.ledger_for", _year_arg, None),
    ("ledger", "materialize_year", _ledger_sizes, None),
    ("dynamic", "run_series", None, _profiles_retained),
    ("dynamic", "run_year_dha", _year_and_new_links, None),
    ("dynamic", "run_year_bl", _year_and_new_links, None),
    ("dynamic", "dha_paper", None, None),
    ("dynamic", "ExpertiseStore.apply_increments", None, None),
    ("dynamic", "ExpertiseStore.snapshot", None, None),
    ("similarity", "PaperNetwork.from_links", _papers_arg, None),
    ("similarity", "PaperNetwork.score", None, None),
    ("similarity", "weighted_incidence", None, None),
    ("metrics", "yearly_summary", None, None),
    ("metrics", "measure_values", None, None),
    ("metrics", "histogram", None, None),
    ("metrics", "format_summary_table", None, None),
    ("metrics", "format_histogram", None, None),
    ("cli", "cmd_ingest", None, None),
    ("cli", "cmd_run", None, None),
    ("cli", "cmd_compare", None, None),
)

# Errors a hook may meet when the code it inspects has been refactored; the
# span is kept and only its extra information is lost.
HOOK_ERRORS = (AttributeError, IndexError, KeyError, TypeError)


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float
    command: str
    info: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory; worker-thread spans hang under the caller's open span."""

    def __init__(self):
        self.spans: dict[int, Span] = {}
        self.command = ""
        self.wrapped: set[str] = set()
        self._ids = itertools.count()
        self._main_thread = threading.get_ident()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, name: str, fn: Callable, pre: Callable | None, post: Callable | None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            info = None
            if pre is not None:
                try:
                    info = pre(args, kwargs)
                except HOOK_ERRORS:
                    pass
            stack = tracer._stack()
            # a worker thread's first span belongs to the span that started the pool
            parent = stack[-1] if stack else (tracer._main_stack[-1] if tracer._main_stack else None)
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            if post is not None:
                try:
                    info = post(result, info)
                except HOOK_ERRORS:
                    pass
            tracer.spans[span_id] = Span(name, parent, start, end, tracer.command, info)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target that exists, in each hinalloc module that holds it."""
        for module_name, path, pre, post in TARGETS:
            try:
                module = importlib.import_module(f"hinalloc.{module_name}")
            except ImportError:
                continue
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            raw = getattr(owner, "__dict__", {}).get(attr) if owner is not None else None
            if raw is None:
                continue
            name = f"{module_name}.{path}"
            if isinstance(raw, (classmethod, staticmethod)):
                replacement = type(raw)(self._wrap(name, raw.__func__, pre, post))
            elif callable(raw):
                replacement = self._wrap(name, raw, pre, post)
            else:
                continue
            self._replace(owner, attr, raw, replacement)
            if owner is module:
                # names imported with "from .module import name" hold the same object
                for other in list(sys.modules.values()):
                    if other is not module and getattr(other, "__name__", "").startswith("hinalloc"):
                        for key, value in list(vars(other).items()):
                            if value is raw:
                                self._replace(other, key, raw, replacement)
            self.wrapped.add(name)

    def _replace(self, owner, attr, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: dict[int, Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans.values():
        if span.parent in spans:
            parent = spans[span.parent]
            children[span.parent].append((max(span.start, parent.start), min(span.end, parent.end)))
    return {i: s.duration - _union_length(children.get(i, [])) for i, s in spans.items()}


def layer_metrics(
    tracer: Tracer,
    snapshot_records: dict[str, int],
    static_variants: tuple[str, ...],
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as name -> (value, unit).

    ``snapshot_records`` maps each run command of the traced pass to the
    number of snapshot records it wrote. A metric whose spans could not be
    installed is left out; a metric whose layer did no work reads 0.
    """
    spans = tracer.spans.values()
    selfs = self_times(tracer.spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    out: dict[str, tuple[float, str]] = {}

    def put(key: str, needs: tuple[str, ...], unit: str, value: Callable[[], float]) -> None:
        if all(n in tracer.wrapped for n in needs):
            out[key] = (value(), unit)

    def seconds(name: str, command: str | None = None) -> float:
        return sum(s.duration for s in by_name[name] if command is None or s.command == command)

    def calls(name: str, command_filter: Callable[[str], bool] = lambda c: True) -> int:
        return sum(1 for s in by_name[name] if command_filter(s.command))

    def self_seconds(name: str) -> float:
        return sum(selfs[i] for i, s in tracer.spans.items() if s.name == name)

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    for layer in LAYERS:
        out[f"{layer}.self_s"] = (
            sum(selfs[i] for i, s in tracer.spans.items() if s.name.split(".")[0] == layer), "s"
        )

    put("ingest.load_dataset_s", ("ingest.load_dataset",), "s", lambda: seconds("ingest.load_dataset"))
    put("ingest.load_dataset_calls", ("ingest.load_dataset",), "count", lambda: calls("ingest.load_dataset"))
    put("ingest.read_link_file_s", ("ingest.read_link_file",), "s",
        lambda: seconds("ingest.read_link_file", "compare"))

    materialized = [s.info for s in by_name["ledger.materialize_year"] if s.info]
    put("ledger.ledger_for_s", ("ledger.Timeline.ledger_for",), "s", lambda: seconds("ledger.Timeline.ledger_for"))
    put("ledger.materialize_year_s", ("ledger.materialize_year",), "s",
        lambda: seconds("ledger.materialize_year"))
    put("ledger.materialize_year_calls", ("ledger.materialize_year",), "count",
        lambda: calls("ledger.materialize_year"))
    put("ledger.links_materialized", ("ledger.materialize_year",), "count",
        lambda: sum(e + u for e, u in materialized))
    put("ledger.update_share", ("ledger.materialize_year",), "ratio",
        lambda: share(sum(u for _, u in materialized), sum(e + u for e, u in materialized)))

    put("dynamic.run_year_dha_self_s", ("dynamic.run_year_dha",), "s",
        lambda: self_seconds("dynamic.run_year_dha"))
    put("dynamic.run_year_bl_self_s", ("dynamic.run_year_bl",), "s",
        lambda: self_seconds("dynamic.run_year_bl"))
    put("dynamic.dha_paper_calls", ("dynamic.dha_paper",), "count", lambda: calls("dynamic.dha_paper"))
    put("dynamic.dha_paper_s", ("dynamic.dha_paper",), "s", lambda: seconds("dynamic.dha_paper"))
    put("dynamic.year_cost_growth", ("dynamic.run_year_dha", "ledger.Timeline.ledger_for"), "ratio",
        lambda: _year_cost_growth(by_name))
    put("dynamic.apply_increments_s", ("dynamic.ExpertiseStore.apply_increments",), "s",
        lambda: seconds("dynamic.ExpertiseStore.apply_increments"))
    retained = [s.info for s in by_name["dynamic.run_series"] if s.info is not None]
    put("dynamic.reported_share", ("dynamic.run_series",), "ratio",
        lambda: share(sum(snapshot_records.get(c, 0) for c in ("run.bl", "run.dha")), sum(retained)))

    put("similarity.from_links_s", ("similarity.PaperNetwork.from_links",), "s",
        lambda: seconds("similarity.PaperNetwork.from_links"))
    put("similarity.from_links_calls", ("similarity.PaperNetwork.from_links",), "count",
        lambda: calls("similarity.PaperNetwork.from_links"))
    put("similarity.rebuild_share", ("similarity.PaperNetwork.from_links",), "ratio",
        lambda: _rebuild_share(by_name["similarity.PaperNetwork.from_links"]))
    for variant in static_variants:
        put(f"similarity.score_s.{variant}", ("similarity.PaperNetwork.score",), "s",
            lambda v=variant: seconds("similarity.PaperNetwork.score", f"run.{v}"))
    put("similarity.score_calls", ("similarity.PaperNetwork.score",), "count",
        lambda: calls("similarity.PaperNetwork.score"))
    weighted = lambda command: "weighted" in command  # noqa: E731
    put("similarity.weighted_per_score", ("similarity.PaperNetwork.score", "similarity.weighted_incidence"),
        "ratio", lambda: share(calls("similarity.weighted_incidence", weighted),
                               calls("similarity.PaperNetwork.score", weighted)))

    put("cli.run_self_s", ("cli.cmd_run",), "s", lambda: self_seconds("cli.cmd_run"))
    put("cli.compare_self_s", ("cli.cmd_compare",), "s", lambda: self_seconds("cli.cmd_compare"))
    put("metrics.yearly_summary_s", ("metrics.yearly_summary",), "s", lambda: seconds("metrics.yearly_summary"))
    put("metrics.histogram_s", ("metrics.histogram",), "s", lambda: seconds("metrics.histogram"))
    return out


def _year_cost_growth(by_name: dict[str, list[Span]]) -> float:
    """Per-new-link time of the last dha year over that of the first non-seed year.

    A year's time is its ``ledger_for`` plus its ``run_year_dha`` span.
    """
    cost: dict[int, float] = defaultdict(float)
    new_links: dict[int, int] = {}
    for span in by_name["dynamic.run_year_dha"]:
        if span.info:
            year, n_new = span.info
            cost[year] += span.duration
            new_links[year] = n_new
    for span in by_name["ledger.Timeline.ledger_for"]:
        if span.command == "run.dha" and span.info in new_links:
            cost[span.info] += span.duration
    years = sorted(y for y in new_links if new_links[y])
    if len(years) < 3:
        return 0.0
    first, last = years[1], years[-1]
    return (cost[last] / new_links[last]) / (cost[first] / new_links[first])


def _rebuild_share(spans: list[Span]) -> float:
    """Distinct papers over papers summed across the networks each command rebuilt."""
    distinct: dict[str, set] = defaultdict(set)
    total = 0
    for span in spans:
        if span.info is not None:
            distinct[span.command] |= span.info
            total += len(span.info)
    return sum(len(papers) for papers in distinct.values()) / total if total else 0.0
