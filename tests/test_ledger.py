import pytest

from hinalloc.ledger import History, LedgerError, Timeline, materialize_year

from fixtures import illustrative_publications, illustrative_timeline
from matrix_reference import build_incidence
from nodes import NodeStore


def _links(sets_of):
    """The distinct (key, value) pairs of a key -> set mapping."""
    return {(k, v) for k, values in sets_of.items() for v in values}


def links_as_set(matrix, row_interner, col_interner) -> set[tuple]:
    """Re-extract the distinct (row_label, col_label) link set from a matrix."""
    return {
        (row_interner.label_of(r), col_interner.label_of(c))
        for r, c, _ in matrix.entries()
    }


def _year_links(year):
    return [
        (author, (label, year))
        for label, authors, _ in illustrative_publications(year)
        for author in authors
    ]


def test_build_incidence_basic():
    store = NodeStore()
    m = build_incidence([("A1", "P1"), ("A1", "P2")], store.authors, store.papers)
    assert (m.n_rows, m.n_cols) == (1, 2)
    assert m.nnz() == 2


def test_build_incidence_empty():
    store = NodeStore()
    m = build_incidence([], store.authors, store.papers)
    assert (m.n_rows, m.n_cols, m.nnz()) == (0, 0, 0)


def test_build_incidence_year6_batch():
    # year-6 batch: six papers, two authors each
    store = NodeStore()
    m = build_incidence(_year_links(6), store.authors, store.papers)
    assert m.n_rows == 4
    assert m.nnz() == 12
    per_paper = m.transpose()
    assert all(len(per_paper.rows[p]) == 2 for p in range(m.n_cols))


def test_build_incidence_round_trip():
    store = NodeStore()
    links = [("A1", "P1"), ("A2", "P1"), ("A1", "P2"), ("A1", "P2")]
    m = build_incidence(links, store.authors, store.papers)
    assert links_as_set(m, store.authors, store.papers) == set(links)


def test_materialize_first_year():
    history = History()
    ledger = illustrative_timeline().ledger_for(1, history)
    sets = materialize_year(ledger)
    assert sets.papers_of == {}
    assert _links(sets.update_of) == set(_year_links(1))
    assert {(a, p) for p, a in _links(sets.authors_of)} == set(_year_links(1))
    assert set(sets.categories_of) == {p for _, p in _year_links(1)}
    ledger.fold()
    assert ledger.update_links == []
    assert _links(history.papers_of) == set(_year_links(1))


def test_materialize_second_year_disjoint_paper_spaces():
    timeline = illustrative_timeline()
    history = History()
    timeline.ledger_for(1, history).fold()
    sets = materialize_year(timeline.ledger_for(2, history))
    assert _links(sets.papers_of) == set(_year_links(1))
    assert _links(sets.update_of) == set(_year_links(2))
    exp_papers = {p for _, p in _links(sets.papers_of)}
    upd_papers = {p for _, p in _links(sets.update_of)}
    assert exp_papers.isdisjoint(upd_papers)
    assert set(sets.categories_of) == exp_papers | upd_papers


def test_materialize_shares_the_history_instead_of_copying_it():
    timeline = illustrative_timeline()
    history = History()
    timeline.ledger_for(1, history).fold()
    sets = materialize_year(timeline.ledger_for(2, history))
    assert sets.papers_of is history.papers_of
    assert sets.categories_of is history.categories_of
    assert sets.weights is history.weights


def test_history_keeps_sorted_categories_and_weights():
    timeline = Timeline({1: [("A1", ("P1", 1))]}, {("P1", 1): {"M02": 1.0, "M01": 1.0}})
    history = History()
    timeline.ledger_for(1, history)
    assert history.categories_of == {("P1", 1): ("M01", "M02")}
    assert history.weights == {("P1", 1): 0.5}


def test_materialize_empty_year():
    timeline = illustrative_timeline()
    history = History()
    timeline.ledger_for(1, history).fold()
    sets = materialize_year(timeline.ledger_for(99, history))
    assert sets.update_of == {} and sets.authors_of == {}
    assert _links(sets.papers_of) == set(_year_links(1))


def test_folding_is_associative_over_years():
    timeline = illustrative_timeline()
    history = History()
    for year in range(1, 6):
        timeline.ledger_for(year, history).fold()

    merged = [link for year in range(1, 6) for link in _year_links(year)]
    at_once = History()
    Timeline({6: merged}, timeline.mesh_by_paper).ledger_for(6, at_once).fold()
    assert history == at_once


def test_paper_of_an_earlier_year_rejected():
    link = ("A1", ("P1", 1))
    timeline = Timeline({1: [link], 2: [link]}, {("P1", 1): {"M01": 1.0}})
    history = History()
    timeline.ledger_for(1, history).fold()
    with pytest.raises(LedgerError):
        timeline.ledger_for(2, history)


def test_ledger_requires_mesh_for_every_paper():
    timeline = Timeline({1: [("A1", ("P1", 1)), ("A1", ("P2", 1))]}, {("P1", 1): {"M01": 1.0}})
    with pytest.raises(LedgerError):
        timeline.ledger_for(1, History())


def test_first_year_counts_equal_count_matrix():
    # per author, the first year's papers counted per category give the
    # year-one count matrix
    sets = materialize_year(illustrative_timeline().ledger_for(1, History()))
    got = {}
    for a, papers in sets.update_of.items():
        for p in papers:
            for m in sets.categories_of[p]:
                got[a, m] = got.get((a, m), 0) + 1
    assert got == {
        ("A1", "M02"): 1, ("A1", "M03"): 1,
        ("A2", "M01"): 2, ("A2", "M03"): 1,
        ("A3", "M02"): 2, ("A3", "M03"): 1,
        ("A4", "M01"): 1, ("A4", "M03"): 1,
    }


def test_row_sum_counts_distinct_papers():
    store = NodeStore()
    links = [("A1", "P1"), ("A1", "P2"), ("A1", "P2"), ("A2", "P1")]
    m = build_incidence(links, store.authors, store.papers)
    a1 = store.authors.index_of("A1")
    assert m.row(a1).entry_sum() == 2
