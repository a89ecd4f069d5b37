import math

import pytest

from hinalloc.similarity import PaperNetwork, weighted_incidence

import matrix_reference as ref
from fixtures import (
    NETWORK_3_GATED,
    TABLE_METHODS,
    TABLE_NETWORK_1,
    TABLE_NETWORK_2,
    TABLE_NETWORK_3,
    example_network_1,
    example_network_2,
    example_network_3,
    illustrative_timeline,
    score_for_table,
)
from matrix_reference import (
    MatrixNetwork,
    MetaPath,
    MetaPathError,
    baseline_similarity,
    hetealloc,
    hetealloc_ha3,
    hetesim_author_mesh,
    hetesim_normalized,
    reachable_probability,
    subset_ha1,
    subset_ha2,
    subset_ha3,
    transition_matrix,
)
from sparse import SparseIncidence, SparseVector

GOLDEN_TOL = 1e-3


def _matrix_networks() -> list[MatrixNetwork]:
    return [MatrixNetwork.of(net()) for net in (example_network_1, example_network_2, example_network_3)]


@pytest.mark.parametrize("pair,expected", sorted(TABLE_NETWORK_1.items()))
def test_table_network_1(pair, expected):
    net = example_network_1()
    for method in TABLE_METHODS:
        assert score_for_table(net, method, *pair) == pytest.approx(expected[method], abs=GOLDEN_TOL)


@pytest.mark.parametrize("pair,expected", sorted(TABLE_NETWORK_2.items()))
def test_table_network_2(pair, expected):
    net = example_network_2()
    for method in TABLE_METHODS:
        assert score_for_table(net, method, *pair) == pytest.approx(expected[method], abs=GOLDEN_TOL)


def test_table_network_3_gated_cells():
    net = example_network_3()
    for method, pairs in NETWORK_3_GATED.items():
        for pair in pairs:
            want = TABLE_NETWORK_3[pair][method]
            assert score_for_table(net, method, *pair) == pytest.approx(want, abs=GOLDEN_TOL)


def test_table_network_3_weighted_home_side():
    # the weighted columns also reproduce on each author's primary category
    net = example_network_3()
    for method in ("wha1", "wha2", "wha3"):
        for pair in (("A1", "M1"), ("A2", "M1"), ("A3", "M2"), ("A4", "M2")):
            want = TABLE_NETWORK_3[pair][method]
            assert score_for_table(net, method, *pair) == pytest.approx(want, abs=GOLDEN_TOL)


def _first_year_network() -> MatrixNetwork:
    timeline = illustrative_timeline()
    links = timeline.links_by_year[1]
    mesh = [
        (key, category)
        for key in sorted({k for _, k in links})
        for category in sorted(timeline.mesh_by_paper[key])
    ]
    return MatrixNetwork.from_links(links, mesh)


def test_transition_matrix_rows():
    m = SparseIncidence.from_entries(2, 3, [(0, 0), (0, 1)])
    t = transition_matrix(m)
    assert t.row(0).to_dense() == [0.5, 0.5, 0.0]
    assert t.row(1).to_dense() == [0.0, 0.0, 0.0]


def test_reachable_probability_single_step_is_transition():
    m = SparseIncidence.from_entries(2, 2, [(0, 0), (0, 1), (1, 1)])
    path = MetaPath((m,))
    assert reachable_probability(path).to_dense() == transition_matrix(m).to_dense()


def test_reachable_probability_author_to_category():
    net = _first_year_network()
    path = MetaPath((net.m_ap, net.m_mp.transpose()))
    pm = reachable_probability(path)
    a1 = net.author("A1")
    row = pm.row(a1)
    assert row.data[net.mesh("M02")] == pytest.approx(0.5)
    assert row.data[net.mesh("M03")] == pytest.approx(0.5)
    assert net.mesh("M01") not in row.data


def test_reachable_probability_zero_row_propagates():
    links = SparseIncidence.from_entries(2, 2, [(0, 0)])
    onward = SparseIncidence.from_entries(2, 2, [(0, 1), (1, 0)])
    pm = reachable_probability(MetaPath((links, onward)))
    assert pm.row(1).is_zero()


def test_hetesim_normalized_self_maximum_and_symmetry():
    net = MatrixNetwork.of(example_network_2())
    path = MetaPath((net.m_ap, net.m_ap.transpose()))
    for a in range(net.m_ap.n_rows):
        assert hetesim_normalized(a, a, path) == pytest.approx(1.0)
    for a in range(net.m_ap.n_rows):
        for b in range(net.m_ap.n_rows):
            assert hetesim_normalized(a, b, path) == pytest.approx(hetesim_normalized(b, a, path))


def test_hetesim_normalized_disconnected_pair_is_zero():
    net = MatrixNetwork.of(example_network_2())
    path = MetaPath((net.m_ap, net.m_ap.transpose()))
    # A3 shares no paper with A1
    assert hetesim_normalized(net.author("A1"), net.author("A3"), path) == 0.0


def test_hetesim_normalized_rejects_odd_paths():
    net = MatrixNetwork.of(example_network_2())
    with pytest.raises(MetaPathError):
        hetesim_normalized(0, 0, MetaPath((net.m_ap,)))


def test_hetesim_normalized_matches_count_form_on_author_category_path():
    # for the two-relation author-paper-category path on unweighted links the
    # probability form coincides with the count form
    for net in _matrix_networks():
        path = MetaPath((net.m_ap, net.m_mp.transpose()))
        for a in range(net.m_ap.n_rows):
            for m in range(net.m_mp.n_rows):
                assert hetesim_normalized(a, m, path) == pytest.approx(
                    hetesim_author_mesh(a, m, net.m_ap, net.m_mp)
                )


def test_hetesim_author_mesh_values():
    net1 = MatrixNetwork.of(example_network_1())
    assert hetesim_author_mesh(
        net1.author("A1"), net1.mesh("M1"), net1.m_ap, net1.m_mp
    ) == pytest.approx(0.577, abs=GOLDEN_TOL)
    net2 = MatrixNetwork.of(example_network_2())
    assert hetesim_author_mesh(
        net2.author("A3"), net2.mesh("M1"), net2.m_ap, net2.m_mp
    ) == pytest.approx(0.288, abs=GOLDEN_TOL)
    assert hetesim_author_mesh(
        net2.author("A2"), net2.mesh("M1"), net2.m_ap, net2.m_mp
    ) == pytest.approx(0.816, abs=GOLDEN_TOL)


def test_hetesim_solo_paper_scores_one():
    net = MatrixNetwork.from_links([("A1", "P1")], [("P1", "M1")])
    assert hetesim_author_mesh(0, 0, net.m_ap, net.m_mp) == pytest.approx(1.0)


def test_hetealloc_full_mask_reduces_to_hetesim():
    net = MatrixNetwork.of(example_network_2())
    full = SparseVector(net.m_ap.n_cols, {i: 1.0 for i in range(net.m_ap.n_cols)})
    for a in range(net.m_ap.n_rows):
        for m in range(net.m_mp.n_rows):
            assert hetealloc(a, m, full, net.m_ap, net.m_mp) == pytest.approx(
                hetesim_author_mesh(a, m, net.m_ap, net.m_mp)
            )


def test_hetealloc_own_papers_mask_closed_form():
    net = MatrixNetwork.of(example_network_2())
    for label in ("A1", "A2", "A3"):
        a = net.author(label)
        own = net.m_ap.row(a).binarized()
        n_papers = own.entry_sum()
        for m in range(net.m_mp.n_rows):
            count = own.dot(net.m_mp.row(m))
            expected = math.sqrt(count / n_papers) if count else 0.0
            assert hetealloc(a, m, own, net.m_ap, net.m_mp) == pytest.approx(expected)


def test_hetealloc_empty_mask_is_zero():
    net = MatrixNetwork.of(example_network_2())
    empty = SparseVector(net.m_ap.n_cols, {})
    assert hetealloc(net.author("A2"), net.mesh("M1"), empty, net.m_ap, net.m_mp) == 0.0


def test_subset_ha1_isolated_author():
    net = MatrixNetwork.from_links(
        [("A1", "P1"), ("A1", "P2"), ("A2", "P3")], [("P1", "M1"), ("P2", "M1"), ("P3", "M1")]
    )
    a = net.author("A1")
    assert subset_ha1(a, net.m_ap).support() == net.m_ap.row(a).support()


def test_subset_ha2_without_qualifying_coauthors_is_own_papers():
    net = MatrixNetwork.of(example_network_1())
    # A1's only M2 papers are solo, so the mask collapses to A1's own papers
    a = net.author("A1")
    mask = subset_ha2(a, net.mesh("M2"), net.m_ap, net.m_mp)
    assert mask.support() == net.m_ap.row(a).support()


def test_subset_ha3_masks():
    net2 = MatrixNetwork.of(example_network_2())
    mask = subset_ha3(net2.author("A1"), net2.paper("P2"), net2.m_ap)
    assert mask.support() == {net2.paper(p) for p in ("P1", "P2", "P3", "P4", "P5")}

    solo = subset_ha3(net2.author("A3"), net2.paper("P6"), net2.m_ap)
    assert solo.support() == net2.m_ap.row(net2.author("A3")).support()

    net3 = MatrixNetwork.of(example_network_3())
    mask3 = subset_ha3(net3.author("A2"), net3.paper("P2"), net3.m_ap)
    assert mask3.support() == {net3.paper(p) for p in ("P1", "P2", "P3")}


def test_subset_ha3_requires_authorship():
    net = MatrixNetwork.of(example_network_2())
    with pytest.raises(ValueError):
        subset_ha3(net.author("A3"), net.paper("P1"), net.m_ap)


def test_ha3_aggregations():
    net = MatrixNetwork.of(example_network_2())
    a2, m1 = net.author("A2"), net.mesh("M1")
    assert hetealloc_ha3(a2, m1, net.m_ap, net.m_mp, "average") == pytest.approx(0.973, abs=GOLDEN_TOL)
    assert hetealloc_ha3(a2, m1, net.m_ap, net.m_mp, "sum") == pytest.approx(3.894, abs=GOLDEN_TOL)
    # author with no papers on the category
    assert hetealloc_ha3(net.author("A1"), net.mesh("M2"), net.m_ap, net.m_mp) == 0.0
    with pytest.raises(ValueError):
        hetealloc_ha3(a2, m1, net.m_ap, net.m_mp, "median")


def test_weighted_incidence_splits_weight_across_categories():
    net = MatrixNetwork.from_links(
        [("A1", "P1")], [("P1", "M1"), ("P1", "M2")]
    )
    w = ref.weighted_incidence(net.m_mp)
    p = net.paper("P1")
    assert w.row(net.mesh("M1")).data[p] == pytest.approx(0.5)
    assert w.row(net.mesh("M2")).data[p] == pytest.approx(0.5)


def test_set_form_weights_split_each_paper_across_its_categories():
    net = example_network_3()
    weights = weighted_incidence(net.categories_of)
    assert weights == {p: 1 / len(cats) for p, cats in net.categories_of.items()}
    assert weights["P3"] == 0.5 and weights["P1"] == 1.0


def test_from_links_rejects_category_rows_of_unknown_papers():
    with pytest.raises(ValueError, match="unknown paper 'P2'"):
        PaperNetwork.from_links([("A1", "P1")], [("P1", "M1"), ("P2", "M1")])


def test_weighted_incidence_columns_sum_to_one():
    net = MatrixNetwork.of(example_network_3())
    per_paper = ref.weighted_incidence(net.m_mp).transpose()
    for p in range(net.m_mp.n_cols):
        row = per_paper.row(p)
        assert row.entry_sum() == pytest.approx(1.0)
        assert all(0 < v <= 1 for v in row.data.values())


def test_reachable_probability_rows_are_subprobability():
    for net in _matrix_networks():
        pm = reachable_probability(MetaPath((net.m_ap, net.m_mp.transpose())))
        for a in range(pm.n_rows):
            row = pm.row(a)
            assert all(0 <= v <= 1 for v in row.data.values())
            assert row.entry_sum() <= 1 + 1e-9


def test_weighted_equals_unweighted_on_single_category_papers():
    net = example_network_2()
    for method in ("ha1", "ha2", "ha3"):
        for a in ("A1", "A2", "A3"):
            for m in ("M1", "M2"):
                assert net.score(method, a, m, weighted=True) == net.score(method, a, m)


def test_baseline_values():
    net1 = MatrixNetwork.of(example_network_1())
    assert baseline_similarity(net1.author("A1"), net1.mesh("M1"), net1.m_ap, net1.m_mp) == pytest.approx(0.577, abs=GOLDEN_TOL)
    assert baseline_similarity(net1.author("A1"), net1.mesh("M2"), net1.m_ap, net1.m_mp) == pytest.approx(0.816, abs=GOLDEN_TOL)
    net2 = MatrixNetwork.of(example_network_2())
    assert baseline_similarity(net2.author("A1"), net2.mesh("M1"), net2.m_ap, net2.m_mp) == pytest.approx(1.0)


def test_baseline_single_topic_author_scores_one():
    net = MatrixNetwork.from_links(
        [("A1", "P1"), ("A1", "P2")], [("P1", "M1"), ("P2", "M1")]
    )
    assert baseline_similarity(0, 0, net.m_ap, net.m_mp) == 1.0


def test_degenerate_inputs_return_zero_not_errors():
    # an author with papers on no categories of interest, and a category with no papers
    links, mesh = [("A1", "P1"), ("A2", "P2")], [("P1", "M1"), ("P2", "M2")]
    matrix = MatrixNetwork.from_links(links, mesh)
    a2, m1 = matrix.author("A2"), matrix.mesh("M1")
    assert hetesim_author_mesh(a2, m1, matrix.m_ap, matrix.m_mp) == 0.0
    assert baseline_similarity(a2, m1, matrix.m_ap, matrix.m_mp) == 0.0
    net = PaperNetwork.from_links(links, mesh)
    for method in ("bl", "hetesim", "ha1", "ha2", "ha3"):
        assert net.score(method, "A2", "M1") == 0.0
        assert matrix.score(method, "A2", "M1") == 0.0
