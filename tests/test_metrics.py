import math

import pytest

from hinalloc.dynamic import run_series
from hinalloc.metrics import (
    EmptyProfileError,
    format_histogram,
    format_summary_table,
    histogram,
    max_min_ratio,
    measure_values,
    normalized_max,
    productive_filter,
    yearly_summary,
)

from fixtures import illustrative_timeline


def test_max_min_ratio():
    assert max_min_ratio({"m1": 2.0, "m2": 1.0}) == 2.0
    assert max_min_ratio({"m1": 5.0}) == 1.0
    assert max_min_ratio({"m1": 3.0, "m2": 0.0, "m3": 1.0}) == 3.0


def test_max_min_ratio_rejects_empty():
    with pytest.raises(EmptyProfileError):
        max_min_ratio({})
    with pytest.raises(EmptyProfileError):
        max_min_ratio({"m1": 0.0})


def test_normalized_max():
    assert normalized_max({"m1": 3.0, "m2": 4.0}) == pytest.approx(0.8)
    assert normalized_max({"m1": 7.0}) == 1.0
    uniform = {f"m{i}": 2.5 for i in range(9)}
    assert normalized_max(uniform) == pytest.approx(1 / 3)


def test_scale_invariance():
    profile = {"a": 0.7, "b": 2.2, "c": 5.0}
    scaled = {k: 13.7 * v for k, v in profile.items()}
    assert max_min_ratio(scaled) == pytest.approx(max_min_ratio(profile))
    assert normalized_max(scaled) == pytest.approx(normalized_max(profile))


def test_productive_filter_strict_threshold():
    snapshot = {"a": {"m": 1.0}, "b": {"m": 1.0}, "c": {"m": 1.0}}
    counts = {"a": 10, "b": 11, "c": 3}
    assert productive_filter(snapshot, counts, 10) == {"b"}
    assert productive_filter({}, counts, 10) == set()


def test_yearly_summary_identical_stores():
    measures = {1: measure_values({"a": {"m1": 2.0, "m2": 1.0}}, {"a": 5}, threshold=1)}
    rows = yearly_summary({"x": measures, "y": measures}, [1])
    assert len(rows) == 2
    x, y = rows
    assert (x.ratio_mean, x.nmax_mean, x.prod_nmax_mean) == (y.ratio_mean, y.nmax_mean, y.prod_nmax_mean)
    assert x.ratio_std == 0.0
    table = format_summary_table(rows, ("x", "y"))
    header, mean_row, std_row = table.strip().split("\n")
    assert header.startswith("year\tstat")
    assert mean_row.split("\t")[2] == mean_row.split("\t")[3]


def test_yearly_summary_on_fixture_ledger():
    timeline = illustrative_timeline()
    dha_store, counts = run_series("dha", timeline)
    bl_store, _ = run_series("bl", illustrative_timeline())
    years = list(range(1, 11))
    rows = yearly_summary(
        {
            method: {year: measure_values(store.snapshot(year), counts[year]) for year in years}
            for method, store in (("dha", dha_store), ("bl", bl_store))
        },
        years,
    )
    assert len(rows) == 20  # 10 years x 2 methods
    at_ten = {r.method: r for r in rows if r.year == 10}
    assert at_ten["dha"].ratio_mean >= at_ten["bl"].ratio_mean


def test_histogram_top_bin_inclusive():
    counts = histogram([1.0, 1.0])
    assert counts[-1] == 2
    assert sum(counts) == 2


def test_histogram_empty():
    counts = histogram([])
    assert sum(counts) == 0
    assert len(counts) == 20


def test_histogram_partitions_unit_interval():
    values = [0.0, 0.049999, 0.05, 0.9499, 0.95, 0.999, 1.0]
    counts = histogram(values)
    assert sum(counts) == len(values)
    assert counts[0] == 2  # 0.0 and 0.049999
    assert counts[1] == 1  # 0.05 lands in the second bin
    assert counts[-1] == 3  # 0.95, 0.999, 1.0


def test_histogram_rejects_out_of_range():
    with pytest.raises(ValueError):
        histogram([1.2])
    with pytest.raises(ValueError):
        histogram([-0.1])


def test_format_histogram_lines():
    text = format_histogram([1, 0, 2], bin_width=1 / 3)
    lines = text.strip().split("\n")
    assert lines[0] == "0\t1"
    assert lines[2].endswith("\t2")


def test_measure_values_productive_subset():
    snapshot = {
        "solo": {"m1": 4.0},
        "busy": {"m1": 4.0, "m2": 1.0},
    }
    counts = {"solo": 2, "busy": 20}
    ratios, nmaxes, prod = measure_values(snapshot, counts, threshold=10)
    assert ratios == [4.0, 1.0]
    assert len(nmaxes) == 2
    assert prod == [normalized_max(snapshot["busy"])]


def test_normalized_max_bounds():
    for k in range(1, 8):
        profile = {f"m{i}": 1.0 + 0.1 * i for i in range(k)}
        v = normalized_max(profile)
        assert 1 / math.sqrt(k) - 1e-12 <= v <= 1.0 + 1e-12
