"""Acceptance gate: one test per criterion, printing one PASS/FAIL line each.

Run with ``pytest -v -s tests/test_acceptance.py``. Criterion 4 contains a
known-red assertion (the year-10 dominance ratio); see the emitted report
``reports/dha_illustrative_deltas.tsv`` and the README.
"""

from __future__ import annotations

import math
import random
import time
from pathlib import Path

import pytest

from hinalloc.cli import main
from hinalloc.dynamic import run_series
from hinalloc.metrics import histogram, max_min_ratio, normalized_max
from hinalloc.similarity import SUM
from hinalloc.synth import CorpusSpec, generate_corpus

import oracle
import propchecks
from fixtures import (
    AUTHOR_ORDER,
    CATEGORY_ORDER,
    NETWORK_3_GATED,
    REFERENCE_BL,
    REFERENCE_DHA,
    TABLE_METHODS,
    TABLE_NETWORK_1,
    TABLE_NETWORK_2,
    TABLE_NETWORK_3,
    example_network_1,
    example_network_2,
    example_network_3,
    illustrative_timeline,
    score_for_table,
    store_matrix,
)
from matrix_reference import MatrixNetwork, hetealloc_ha1, hetealloc_ha2, hetealloc_ha3, hetesim_author_mesh

GOLDEN_TOL = 1e-3
REPORTS_DIR = Path(__file__).resolve().parent.parent / "reports"


def _report(number: int, ok: bool, description: str, detail: str = "") -> None:
    line = f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _check_table(net, table) -> int:
    checked = 0
    for pair, expected in sorted(table.items()):
        for method in TABLE_METHODS:
            got = score_for_table(net, method, *pair)
            assert got == pytest.approx(expected[method], abs=GOLDEN_TOL), (pair, method, got)
            checked += 1
    return checked


def test_criterion_1_table_network_1():
    start = time.perf_counter()
    checked = _check_table(example_network_1(), TABLE_NETWORK_1)
    elapsed = time.perf_counter() - start
    assert checked == 32
    _report(1, elapsed < 1.0, "network-1 table: 32 cells within 1e-3", f"{elapsed:.3f}s")


def test_criterion_2_table_network_2():
    start = time.perf_counter()
    net = example_network_2()
    checked = _check_table(net, TABLE_NETWORK_2)
    matrix = MatrixNetwork.of(net)
    assert hetesim_author_mesh(matrix.author("A3"), matrix.mesh("M1"), matrix.m_ap, matrix.m_mp) == pytest.approx(0.288, abs=GOLDEN_TOL)
    assert hetealloc_ha3(matrix.author("A2"), matrix.mesh("M1"), matrix.m_ap, matrix.m_mp, "average") == pytest.approx(0.973, abs=GOLDEN_TOL)
    elapsed = time.perf_counter() - start
    assert checked == 48
    _report(2, elapsed < 1.0, "network-2 table: 48 cells within 1e-3", f"{elapsed:.3f}s")


def test_criterion_3_counting_replay_exact():
    store, _ = run_series("bl", illustrative_timeline())
    entries = 0
    for year, want in REFERENCE_BL.items():
        got = store_matrix(store.snapshot(year))
        for i in range(4):
            for j in range(3):
                assert got[i][j] == float(want[i][j]), (year, AUTHOR_ORDER[i], CATEGORY_ORDER[j])
                entries += 1
    _report(3, entries == 120, "counting replay reproduces all ten reference matrices exactly",
            f"{entries} entries")


def test_criterion_4_allocation_replay():
    store, _ = run_series("dha", illustrative_timeline())

    REPORTS_DIR.mkdir(exist_ok=True)
    lines = ["year\tauthor\tcategory\tcomputed\treference\tdelta"]
    for year in range(1, 11):
        got = store_matrix(store.snapshot(year))
        ref = REFERENCE_DHA[year]
        for i, author in enumerate(AUTHOR_ORDER):
            for j, category in enumerate(CATEGORY_ORDER):
                delta = got[i][j] - ref[i][j]
                lines.append(
                    f"{year}\t{author}\t{category}\t{got[i][j]:.6g}\t{ref[i][j]:.6g}\t{delta:+.6g}"
                )
    (REPORTS_DIR / "dha_illustrative_deltas.tsv").write_text("\n".join(lines) + "\n")

    year1 = store_matrix(store.snapshot(1))
    assert year1 == [[float(v) for v in row] for row in REFERENCE_DHA[1]], "year-1 matrix not exact"

    m10 = store_matrix(store.snapshot(10))
    a2, a3 = m10[1], m10[2]
    assert a2.index(max(a2)) == 0, "A2's top category is not M01"
    assert a3.index(max(a3)) == 1, "A3's top category is not M02"
    ratio_a2 = a2[0] / a2[1]
    ratio_a3 = a3[1] / a3[0]
    ok = ratio_a2 > 5 and ratio_a3 > 5
    _report(
        4, ok,
        "allocation replay: year-1 exact, year-10 top-category pattern with dominance ratios > 5",
        f"computed ratios {ratio_a2:.2f}/{ratio_a3:.2f}; the credit equation yields ~2.0 "
        "by year 10 while the reference matrices imply ~7.9, "
        "see reports/dha_illustrative_deltas.tsv and README",
    )


def test_criterion_5_property_suite():
    start = time.perf_counter()
    n = 200
    rng = random.Random(52)
    for _ in range(n):
        propchecks.check_range_bounds(oracle.random_net(rng))
    for _ in range(n):
        propchecks.check_locality(oracle.random_net(rng))
    for _ in range(n):
        propchecks.check_isolated_collapse(oracle.random_net(rng), rng)
    for _ in range(n):
        propchecks.check_mask_monotonicity(oracle.random_net(rng), rng)
    for _ in range(n):
        propchecks.check_weighted_degeneration(oracle.random_net(rng))
    for _ in range(n):
        propchecks.check_dha_order_independence(oracle.random_batches(rng), rng)
    for _ in range(n):
        propchecks.check_store_monotonic_and_bl_bound(oracle.random_batches(rng))
    for _ in range(n):
        propchecks.check_dha_vs_oracle(oracle.random_batches(rng))
    elapsed = time.perf_counter() - start
    _report(5, elapsed < 60.0, "property suite: 8 properties x 200 random networks",
            f"{elapsed:.1f}s")


def test_criterion_6_exhaustive_oracle_equivalence():
    start = time.perf_counter()
    networks = 0
    comparisons = 0
    for net in oracle.exhaustive_nets(max_authors=3, max_papers=4, max_mesh=2):
        networks += 1
        if not net.papers:
            continue
        pn = oracle.to_paper_network(net)
        matrix = MatrixNetwork.of(pn)
        m_ap, m_mp = matrix.m_ap, matrix.m_mp
        for a in net.authors():
            ai = matrix.author(a)
            for m in net.meshes():
                mi = matrix.mesh(m)
                want = oracle.static_scores(net, a, m)
                cases = [
                    (hetesim_author_mesh(ai, mi, m_ap, m_mp), want["hetesim", False, "average"]),
                    (hetealloc_ha1(ai, mi, m_ap, m_mp), want["ha1", False, "average"]),
                    (hetealloc_ha2(ai, mi, m_ap, m_mp), want["ha2", False, "average"]),
                    (hetealloc_ha3(ai, mi, m_ap, m_mp, "average"), want["ha3", False, "average"]),
                    (hetealloc_ha3(ai, mi, m_ap, m_mp, SUM), want["ha3", False, SUM]),
                ]
                cases += [
                    (pn.score(method, a, m, weighted, aggregation), value)
                    for (method, weighted, aggregation), value in want.items()
                ]
                for got, expected in cases:
                    assert math.isclose(got, expected, rel_tol=1e-12, abs_tol=1e-12), (net, a, m, got, expected)
                    comparisons += 1
    elapsed = time.perf_counter() - start
    ok = elapsed < 30.0 and networks == 12650
    _report(6, ok, "shipped and matrix-form kernels equal set-theoretic evaluation on all bounded networks",
            f"{networks} networks, {comparisons} comparisons, {elapsed:.1f}s")


def test_criterion_7_metrics_properties():
    rng = random.Random(7)
    for _ in range(1000):
        k = rng.randint(1, 12)
        profile = {f"c{i}": rng.uniform(0.01, 9.9) for i in range(k)}
        scale = rng.uniform(0.01, 100.0)
        scaled = {c: scale * v for c, v in profile.items()}
        assert math.isclose(max_min_ratio(profile), max_min_ratio(scaled), rel_tol=1e-9)
        assert math.isclose(normalized_max(profile), normalized_max(scaled), rel_tol=1e-9)
        v = normalized_max(profile)
        assert 1 / math.sqrt(k) - 1e-12 <= v <= 1.0 + 1e-12
        values = [rng.random() for _ in range(rng.randint(0, 30))]
        assert sum(histogram(values)) == len(values)

    # a cohort of strict specialists puts all normalized-max mass in the top bin
    batches = [
        [(f"P{y}_{i}", frozenset({f"A{i}"}), frozenset({f"C{i % 5}"})) for i in range(40)]
        for y in range(3)
    ]
    store, _ = run_series("dha", oracle.batches_to_timeline(batches))
    values = [normalized_max(p) for p in store.snapshot(3).values()]
    counts = histogram(values)
    ok = counts[-1] == len(values) == 40 and sum(counts[:-1]) == 0
    _report(7, ok, "metrics invariants on 1000 profiles; specialist cohort mass in top bin",
            f"top bin {counts[-1]}/{len(values)}")


def test_criterion_8_synthetic_corpus_end_to_end(tmp_path):
    start = time.perf_counter()
    spec = CorpusSpec()
    info = generate_corpus(tmp_path / "corpus", spec)
    assert info["papers"] == 50_000 and info["authors"] == 10_000

    args = ["--links", str(info["paths"]["links"]), "--mesh", str(info["paths"]["mesh"]),
            "--taxonomy", str(info["paths"]["taxonomy"])]
    out = tmp_path / "out"
    assert main(["ingest", *args, "--out", str(out)]) == 0
    assert main(["run", "--method", "dha", "--years", f"0:{spec.n_years}", *args, "--out", str(out)]) == 0
    assert main(["run", "--method", "bl", "--years", f"0:{spec.n_years}", *args, "--out", str(out)]) == 0
    cmp_dir = tmp_path / "cmp"
    assert main(["compare", str(out / "dha.jsonl"), str(out / "bl.jsonl"),
                 "--links", str(info["paths"]["links"]),
                 "--years", f"1:{spec.n_years}", "--out", str(cmp_dir)]) == 0
    elapsed = time.perf_counter() - start

    # reported years: allocation separates specialists more than counting does
    header, *rows = (cmp_dir / "summary.tsv").read_text().strip().split("\n")
    cols = header.split("\t")
    i_dha, i_bl = cols.index("ratio_dha"), cols.index("ratio_bl")
    years_checked = 0
    for row in rows:
        cells = row.split("\t")
        if cells[1] != "mean":
            continue
        years_checked += 1
        assert float(cells[i_dha]) > float(cells[i_bl]), f"year {cells[0]}"
    ok = elapsed < 600.0 and years_checked == spec.n_years
    _report(8, ok, "synthetic 10k-author/50k-paper corpus end to end; ratio means dominate every year",
            f"{elapsed:.1f}s, {years_checked} years")


def test_criterion_9_network_3_diagnostic():
    net = example_network_3()

    REPORTS_DIR.mkdir(exist_ok=True)
    lines = ["author\tcategory\tmethod\tcomputed\treference\tmatch"]
    for (a, m), expected in sorted(TABLE_NETWORK_3.items()):
        for method in TABLE_METHODS:
            got = score_for_table(net, method, a, m)
            match = abs(got - expected[method]) <= GOLDEN_TOL
            lines.append(f"{a}\t{m}\t{method}\t{got:.3f}\t{expected[method]:.3f}\t{'yes' if match else 'no'}")
    (REPORTS_DIR / "network3_diagnostic.tsv").write_text("\n".join(lines) + "\n")

    checked = 0
    for method, pairs in NETWORK_3_GATED.items():
        for pair in pairs:
            got = score_for_table(net, method, *pair)
            assert got == pytest.approx(TABLE_NETWORK_3[pair][method], abs=GOLDEN_TOL), (method, pair)
            checked += 1
    _report(9, checked == 14, "network-3 partial reconstruction: baseline and home-side focal cells",
            f"{checked} gated cells; full grid in reports/network3_diagnostic.tsv")
