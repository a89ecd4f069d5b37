"""Property checks shared by the hypothesis suite and the acceptance loop.

Each function takes generated input and raises AssertionError on violation.
"""

from __future__ import annotations

import math
import random

from hinalloc.dynamic import run_series
from hinalloc.similarity import SUM

import oracle
from matrix_reference import MatrixNetwork, hetealloc
from sparse import SparseVector

EPS = 1e-9

def _pairs(net: oracle.OracleNet):
    return [(a, m) for a in net.authors() for m in net.meshes()]


def _both_forms(net: oracle.OracleNet):
    """The shipped set-form network and the matrix-form reference of the same net."""
    pn = oracle.to_paper_network(net)
    return pn, MatrixNetwork.of(pn)


def check_range_bounds(net: oracle.OracleNet) -> None:
    """Every similarity-form score sits in [0, 1]; the ha3 sum dominates the average."""
    for pn in _both_forms(net):
        for a, m in _pairs(net):
            for method in ("hetesim", "ha1", "ha2", "ha3"):
                for weighted in (False, True):
                    v = pn.score(method, a, m, weighted)
                    assert -EPS <= v <= 1 + EPS, f"score out of range: {v} for {method} {a},{m}"
            assert 0 <= pn.score("bl", a, m) <= 1 + EPS
            avg = pn.score("ha3", a, m, aggregation="average")
            total = pn.score("ha3", a, m, aggregation=SUM)
            assert total >= avg - EPS


def check_locality(net: oracle.OracleNet) -> None:
    """A disconnected author's new paper moves the global score but no subset score."""
    stranger_paper = (frozenset({"ZZ_new"}), frozenset(net.meshes()))
    grown = oracle.OracleNet(net.papers + (stranger_paper,))
    for pn_before, pn_after in zip(_both_forms(net), _both_forms(grown)):
        for a, m in _pairs(net):
            before = [pn_before.score(method, a, m) for method in ("ha1", "ha2", "ha3")]
            after = [pn_after.score(method, a, m) for method in ("ha1", "ha2", "ha3")]
            assert before == after, f"subset scores moved for ({a},{m})"
            hs_before = pn_before.score("hetesim", a, m)
            hs_after = pn_after.score("hetesim", a, m)
            if net.papers_of(a) & net.papers_with(m):
                assert hs_after < hs_before - EPS, f"global score did not drop for ({a},{m})"


def check_isolated_collapse(net: oracle.OracleNet, rng: random.Random) -> None:
    """For an author who only ever publishes solo, all subset variants collapse
    to sqrt(papers on the category / papers); with single-category papers the
    baseline agrees too (with multi-category papers its denominator counts
    incidences, not papers, so it legitimately differs)."""
    meshes = net.meshes()
    k = rng.randint(1, 4)
    solo_papers = tuple(
        (frozenset({"ZZ_solo"}), frozenset(rng.sample(meshes, rng.randint(1, len(meshes)))))
        for _ in range(k)
    )
    grown = oracle.OracleNet(net.papers + solo_papers)
    single_category = all(len(cats) == 1 for _, cats in solo_papers)
    for pn in _both_forms(grown):
        for m in meshes:
            count = len(grown.papers_of("ZZ_solo") & grown.papers_with(m))
            expected = math.sqrt(count / k)
            for method in ("ha1", "ha2", "ha3"):
                got = pn.score(method, "ZZ_solo", m)
                assert math.isclose(got, expected, abs_tol=1e-12), (method, got, expected)
            if single_category:
                bl = pn.score("bl", "ZZ_solo", m)
                assert math.isclose(bl, expected, abs_tol=1e-12), (bl, expected)


def check_mask_monotonicity(net: oracle.OracleNet, rng: random.Random) -> None:
    """Adding papers outside the author's row to a mask never raises the score."""
    pn = MatrixNetwork.of(oracle.to_paper_network(net))
    n_papers = len(net.papers)
    for a, m in _pairs(net):
        ai, mi = pn.author(a), pn.mesh(m)
        base_support = {i for i in range(n_papers) if rng.random() < 0.6}
        outside = [i for i in range(n_papers) if i not in net.papers_of(a)]
        extra = {i for i in outside if rng.random() < 0.7} - base_support
        small = SparseVector(n_papers, {i: 1.0 for i in base_support})
        large = SparseVector(n_papers, {i: 1.0 for i in base_support | extra})
        v_small = hetealloc(ai, mi, small, pn.m_ap, pn.m_mp)
        v_large = hetealloc(ai, mi, large, pn.m_ap, pn.m_mp)
        assert v_large <= v_small + EPS, (v_small, v_large)


def check_weighted_degeneration(net: oracle.OracleNet) -> None:
    """With one category per paper the weighted scores equal the unweighted ones exactly."""
    single = oracle.OracleNet(
        tuple((auths, frozenset({sorted(cats)[0]})) for auths, cats in net.papers)
    )
    for pn in _both_forms(single):
        for a, m in _pairs(single):
            for method in ("ha1", "ha2", "ha3"):
                assert pn.score(method, a, m) == pn.score(method, a, m, weighted=True), (method, a, m)


def check_matrix_vs_oracle(net: oracle.OracleNet) -> None:
    """The shipped set-form scores and the matrix-form reference agree with the
    set-theoretic evaluation on every static variant."""
    pn, matrix = _both_forms(net)
    for a, m in _pairs(net):
        cases = {("bl", False, "average"): oracle.baseline(net, a, m), **oracle.static_scores(net, a, m)}
        for (method, weighted, aggregation), want in cases.items():
            for form in (pn, matrix):
                got = form.score(method, a, m, weighted, aggregation)
                assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12), (
                    type(form).__name__, method, weighted, aggregation, a, m, got, want)


def check_dha_order_independence(batches, rng: random.Random, weighted: bool = False) -> None:
    """Shuffling links within each year leaves the yearly engine's output unchanged."""
    timeline = oracle.batches_to_timeline(batches)
    store_a, _ = run_series("dha", timeline, weighted=weighted)
    shuffled = {
        year: rng.sample(links, len(links)) for year, links in timeline.links_by_year.items()
    }
    timeline_b = oracle.batches_to_timeline(batches)
    timeline_b.links_by_year = shuffled
    store_b, _ = run_series("dha", timeline_b, weighted=weighted)
    assert store_a.snapshots == store_b.snapshots


def check_store_monotonic_and_bl_bound(batches) -> None:
    """Stores never decrease, and counting increments dominate allocation increments."""
    timeline = oracle.batches_to_timeline(batches)
    dha_store, _ = run_series("dha", timeline)
    bl_store, _ = run_series("bl", oracle.batches_to_timeline(batches))
    years = sorted(dha_store.snapshots)
    for store in (dha_store, bl_store):
        for prev, cur in zip(years, years[1:]):
            for a, profile in store.snapshots[prev].items():
                for cat, v in profile.items():
                    assert store.snapshots[cur].get(a, {}).get(cat, 0.0) >= v - EPS
    for prev, cur in zip([None] + years[:-1], years):
        for a, profile in dha_store.snapshots[cur].items():
            for cat, v in profile.items():
                prev_dha = dha_store.snapshots[prev].get(a, {}).get(cat, 0.0) if prev else 0.0
                prev_bl = bl_store.snapshots[prev].get(a, {}).get(cat, 0.0) if prev else 0.0
                dha_inc = v - prev_dha
                bl_inc = bl_store.snapshots[cur].get(a, {}).get(cat, 0.0) - prev_bl
                assert dha_inc <= bl_inc + EPS, (a, cat, dha_inc, bl_inc)


def check_dha_vs_oracle(batches, weighted: bool = False) -> None:
    """The yearly engine matches the set-counting replay."""
    timeline = oracle.batches_to_timeline(batches)
    store, _ = run_series("dha", timeline, weighted=weighted)
    reference = oracle.dha_replay([list(batch) for batch in batches], weighted)
    years = sorted(store.snapshots)
    for year, ref in zip(years, reference):
        snap = store.snapshots[year]
        assert set(snap) == set(ref)
        for a in ref:
            assert set(snap[a]) == set(ref[a])
            for cat, v in ref[a].items():
                assert math.isclose(snap[a][cat], v, rel_tol=1e-9, abs_tol=1e-12), (year, a, cat)
