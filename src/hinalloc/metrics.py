"""Profile statistics and method-comparison summaries.

Three per-author measures drive the comparison: the ratio between the largest
and smallest positive expertise values, the largest value divided by the
profile's Euclidean norm, and the latter restricted to productive authors
(strictly more than a paper-count threshold). All three come from one pass
over a snapshot, once per (method, year), and feed both the summary table and
the histograms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import fmean, pstdev
from typing import Mapping, Sequence

DEFAULT_PRODUCTIVE_THRESHOLD = 10
DEFAULT_BIN_WIDTH = 0.05


class EmptyProfileError(ValueError):
    """A measure was asked of a profile with no positive entry."""


def profile_measures(profile: Mapping[str, float]) -> tuple[float, float]:
    """Max-min ratio and normalized max of a profile, over its positive values."""
    values = [v for v in profile.values() if v > 0]
    if not values:
        raise EmptyProfileError("profile has no positive entry")
    top = max(values)
    return top / min(values), top / math.sqrt(sum(v * v for v in values))


def max_min_ratio(profile: Mapping[str, float]) -> float:
    """Largest over smallest positive value."""
    return profile_measures(profile)[0]


def normalized_max(profile: Mapping[str, float]) -> float:
    """Largest value divided by the Euclidean norm of the positive values."""
    return profile_measures(profile)[1]


def productive_filter(
    store_snapshot: Mapping[str, Mapping[str, float]],
    paper_counts: Mapping[str, int],
    threshold: int = DEFAULT_PRODUCTIVE_THRESHOLD,
) -> set[str]:
    """Authors of the snapshot with strictly more than ``threshold`` papers."""
    return {a for a in store_snapshot if paper_counts.get(a, 0) > threshold}


@dataclass
class YearSummary:
    """Mean and population standard deviation of the three measures for one method-year."""

    year: int
    method: str
    ratio_mean: float
    ratio_std: float
    nmax_mean: float
    nmax_std: float
    prod_nmax_mean: float
    prod_nmax_std: float


def _mean_std(values: Sequence[float]) -> tuple[float, float]:
    if not values:
        return math.nan, math.nan
    return fmean(values), pstdev(values)


# per-author values of the three measures over one snapshot
Measures = tuple[list[float], list[float], list[float]]


def measure_values(
    snapshot: Mapping[str, Mapping[str, float]],
    paper_counts: Mapping[str, int],
    threshold: int = DEFAULT_PRODUCTIVE_THRESHOLD,
) -> Measures:
    """Ratios, normalized maxima, and the latter for productive authors only, in
    one pass over the snapshot's authors in sorted order."""
    ratios: list[float] = []
    nmaxes: list[float] = []
    prod_nmaxes: list[float] = []
    productive = productive_filter(snapshot, paper_counts, threshold)
    for author in sorted(snapshot):
        try:
            ratio, nmax = profile_measures(snapshot[author])
        except EmptyProfileError:
            continue
        ratios.append(ratio)
        nmaxes.append(nmax)
        if author in productive:
            prod_nmaxes.append(nmax)
    return ratios, nmaxes, prod_nmaxes


def yearly_summary(
    measures_by_method: Mapping[str, Mapping[int, Measures]],
    years: Sequence[int],
) -> list[YearSummary]:
    """One row per (year, method) from each method's per-year measures."""
    rows = []
    for year in years:
        for method, measures in measures_by_method.items():
            ratios, nmaxes, prod = measures[year]
            rows.append(YearSummary(year, method, *_mean_std(ratios), *_mean_std(nmaxes), *_mean_std(prod)))
    return rows


def format_summary_table(rows: Sequence[YearSummary], methods: Sequence[str]) -> str:
    """Tab-separated table: one mean row and one std row per year, methods side by side."""
    header = ["year", "stat"]
    for measure in ("ratio", "nmax", "prod_nmax"):
        for method in methods:
            header.append(f"{measure}_{method}")
    lines = ["\t".join(header)]
    by_year: dict[int, dict[str, YearSummary]] = {}
    for row in rows:
        by_year.setdefault(row.year, {})[row.method] = row
    for year in sorted(by_year):
        per_method = by_year[year]
        for stat in ("mean", "std"):
            cells = [str(year), stat]
            for measure in ("ratio", "nmax", "prod_nmax"):
                for method in methods:
                    row = per_method[method]
                    value = getattr(row, f"{measure}_{stat}")
                    cells.append(f"{value:.6g}")
            lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"


def histogram(values: Sequence[float], bin_width: float = DEFAULT_BIN_WIDTH) -> list[int]:
    """Counts over [0, 1] split into bins of ``bin_width``; the top bin is closed."""
    n_bins = math.ceil(round(1.0 / bin_width, 9))
    counts = [0] * n_bins
    for v in values:
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"histogram value outside [0, 1]: {v}")
        exact = v / bin_width
        idx = int(exact)
        if exact - idx > 1 - 1e-9:  # boundary value pushed down by float division
            idx += 1
        counts[min(idx, n_bins - 1)] += 1
    return counts


def format_histogram(counts: Sequence[int], bin_width: float = DEFAULT_BIN_WIDTH) -> str:
    lines = [f"{i * bin_width:.6g}\t{count}" for i, count in enumerate(counts)]
    return "\n".join(lines) + "\n"
