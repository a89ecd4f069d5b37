import math
from collections.abc import Mapping

import pytest

from hinalloc.dynamic import (
    DhaInputError,
    DhaYearInput,
    ExpertiseStore,
    YearOrderError,
    dha_author_year,
    dha_paper,
    run_series,
    run_year_bl,
    run_year_dha,
)
from hinalloc.ledger import History, Timeline

import oracle
from fixtures import (
    AUTHOR_ORDER,
    CATEGORY_ORDER,
    REFERENCE_BL,
    REFERENCE_DHA,
    illustrative_publications,
    illustrative_timeline,
    store_matrix,
)
from matrix_reference import MatrixNetwork


def _single_year_input(batch, experience=()):
    """Materialize year 1 over optional (paper, author, cats) year-0 experience triples."""
    mesh = {}
    links = {0: [], 1: []}
    for label, author, cats in experience:
        key = (label, 0)
        links[0].append((author, key))
        mesh[key] = {c: 1.0 for c in cats}
    for label, authors, cats in batch:
        key = (label, 1)
        mesh[key] = {c: 1.0 for c in cats}
        links[1].extend((a, key) for a in authors)
    timeline = Timeline(links, mesh)
    history = History()
    timeline.ledger_for(0, history).fold()
    return DhaYearInput.from_ledger(timeline.ledger_for(1, history))


def test_dha_brand_new_solo_author_scores_one():
    inp = _single_year_input([("P1", ("A1",), ("M01",))])
    assert dha_paper(inp, "A1", ("P1", 1), "M01") == pytest.approx(1.0)


def test_dha_paper_preconditions():
    inp = _single_year_input([("P1", ("A1",), ("M01",)), ("P2", ("A2",), ("M02",))])
    with pytest.raises(DhaInputError):
        dha_paper(inp, "A1", ("P2", 1), "M01")  # not A1's paper
    with pytest.raises(DhaInputError):
        dha_paper(inp, "A1", ("P1", 1), "M02")  # P1 does not carry M02


def test_dha_author_year_additivity():
    inp = _single_year_input([
        ("P1", ("A1",), ("M01",)),
        ("P2", ("A1",), ("M01", "M02")),
    ])
    p1, p2 = ("P1", 1), ("P2", 1)
    for weighted in (False, True):
        per_mesh = dha_author_year(inp, "A1", weighted)
        assert per_mesh["M01"] == pytest.approx(
            dha_paper(inp, "A1", p1, "M01", weighted) + dha_paper(inp, "A1", p2, "M01", weighted))
        assert per_mesh["M02"] == pytest.approx(dha_paper(inp, "A1", p2, "M02", weighted))


def test_dha_weighted_credit_splits_multi_category_papers():
    # A2's prior paper Q carries M01 and M02 (w = 1/2); the shared paper P
    # carries M01 only (w = 1); A1 has no history
    inp = _single_year_input([("P", ("A1", "A2"), ("M01",))],
                             experience=[("Q", "A2", ("M01", "M02"))])
    p = ("P", 1)
    assert dha_paper(inp, "A1", p, "M01") == pytest.approx(1 / math.sqrt(2))
    assert dha_paper(inp, "A1", p, "M01", weighted=True) == pytest.approx(1 / math.sqrt(1.25))
    assert dha_paper(inp, "A2", p, "M01", weighted=True) == pytest.approx(1.5 / math.sqrt(2 * 1.25))


def test_dha_year_one_equals_count_matrix():
    store, _ = run_series("dha", illustrative_timeline(), last_year=1)
    assert store_matrix(store.snapshot(1)) == [[float(v) for v in row] for row in REFERENCE_DHA[1]]


def test_bl_replay_matches_reference_exactly():
    store, _ = run_series("bl", illustrative_timeline())
    for year, want in REFERENCE_BL.items():
        got = store_matrix(store.snapshot(year))
        assert got == [[float(v) for v in row] for row in want], f"year {year}"


def test_bl_single_paper_two_categories():
    timeline = Timeline(
        {1: [("A1", ("P1", 1))]},
        {("P1", 1): {"M01": 1.0, "M02": 1.0}},
    )
    store, _ = run_series("bl", timeline)
    assert store.profile("A1") == {"M01": 1.0, "M02": 1.0}


def test_year_six_credit_asymmetry():
    # from the shared paper, the author with five years of M02 history earns
    # strictly more M02 credit than the collaborator with none
    store, _ = run_series("dha", illustrative_timeline(), last_year=6)
    inc_a1 = store.snapshot(6)["A1"]["M02"] - store.snapshot(5)["A1"]["M02"]
    inc_a2 = store.snapshot(6)["A2"].get("M02", 0.0) - store.snapshot(5)["A2"].get("M02", 0.0)
    assert inc_a2 < inc_a1
    assert inc_a1 == pytest.approx(2.0)
    assert inc_a2 == pytest.approx(0.428, abs=1e-3)
    # A2 collaborates on all three categories in year 6 and gains on each
    for category in CATEGORY_ORDER:
        gained = store.snapshot(6)["A2"].get(category, 0.0) - store.snapshot(5)["A2"].get(category, 0.0)
        assert gained > 0


def test_dha_matches_set_theoretic_replay_on_fixture():
    batches = [
        [(f"{label}#{year}", frozenset(authors), frozenset(cats))
         for label, authors, cats in illustrative_publications(year)]
        for year in range(1, 11)
    ]
    for weighted in (False, True):
        reference = oracle.dha_replay(batches, weighted)
        store, _ = run_series("dha", illustrative_timeline(), weighted=weighted)
        for year, ref in zip(range(1, 11), reference):
            snap = store.snapshot(year)
            for a in AUTHOR_ORDER:
                for c in CATEGORY_ORDER:
                    assert math.isclose(
                        snap.get(a, {}).get(c, 0.0), ref.get(a, {}).get(c, 0.0),
                        rel_tol=1e-9, abs_tol=1e-12,
                    ), (weighted, year, a, c)


def test_out_of_order_year_rejected():
    timeline = illustrative_timeline()
    store = ExpertiseStore()
    history = History()
    run_year_dha(store, timeline.ledger_for(1, history))
    ledger3 = timeline.ledger_for(3, history)
    with pytest.raises(YearOrderError):
        run_year_dha(store, ledger3)
    with pytest.raises(YearOrderError):
        run_year_bl(store, ledger3)


def test_empty_year_keeps_store_but_advances_snapshot():
    timeline = Timeline({1: [("A1", ("P1", 1))], 3: [("A1", ("P2", 3))]},
                        {("P1", 1): {"M01": 1.0}, ("P2", 3): {"M01": 1.0}})
    store, _ = run_series("dha", timeline)
    assert store.snapshot(2) == store.snapshot(1)
    assert store.snapshot(3)["A1"]["M01"] > store.snapshot(2)["A1"]["M01"]


def test_store_values_never_decrease():
    store, _ = run_series("dha", illustrative_timeline())
    for year in range(2, 11):
        for a, profile in store.snapshot(year - 1).items():
            for c, v in profile.items():
                assert store.snapshot(year).get(a, {}).get(c, 0.0) >= v


def test_bl_equals_cumulative_matrix_product():
    # counting replay equals the author-paper by paper-category product
    timeline = illustrative_timeline()
    store, _ = run_series("bl", timeline)
    links = []
    mesh_pairs = set()
    for year in range(1, 11):
        for a, key in timeline.links_by_year[year]:
            links.append((a, key))
            for c in timeline.mesh_by_paper[key]:
                mesh_pairs.add((key, c))
    net = MatrixNetwork.from_links(links, sorted(mesh_pairs))
    counts = net.m_ap.matmul(net.m_mp.transpose())
    for a in AUTHOR_ORDER:
        for c in CATEGORY_ORDER:
            want = counts.rows.get(net.author(a), {}).get(net.mesh(c), 0.0)
            assert store.profile(a).get(c, 0.0) == want


class CountingMapping(Mapping):
    """A read-only mapping that counts the entries read from it."""

    def __init__(self, data):
        self.data = data
        self.reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return self.data[key]

    def __iter__(self):
        for key in self.data:
            self.reads += 1
            yield key

    def __len__(self):
        return len(self.data)


def _long_timeline(n_years, papers_per_year=5):
    links, mesh = {}, {}
    for year in range(n_years):
        for i in range(papers_per_year):
            key = (f"P{i}", year)
            links.setdefault(year, []).extend((f"A{(i + j + year) % 7}", key) for j in range(2))
            mesh[key] = {f"M{(i + year) % 3}": 1.0, f"M{(i * year) % 4}": 1.0}
    return links, mesh


@pytest.mark.parametrize("method, weighted", [("bl", False), ("dha", False), ("dha", True)])
def test_yearly_loop_reads_each_paper_once(method, weighted):
    # each year adds five papers; a loop that re-read the cumulative history
    # would read the category table about n_years / 2 times per paper
    links, mesh = _long_timeline(20)
    counting = CountingMapping(mesh)
    store, _ = run_series(method, Timeline(links, counting), weighted=weighted)
    assert counting.reads <= 2 * len(mesh)
    reference, _ = run_series(method, Timeline(links, mesh), weighted=weighted)
    assert store.snapshots == reference.snapshots
