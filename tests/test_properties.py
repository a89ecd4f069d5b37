"""Randomized property suite over small generated networks."""

import random

from hypothesis import given, settings, strategies as st

import oracle
import propchecks

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)


@st.composite
def nets(draw, max_authors=6, max_papers=10, max_mesh=4):
    n_a = draw(st.integers(1, max_authors))
    n_m = draw(st.integers(1, max_mesh))
    n_p = draw(st.integers(1, max_papers))
    authors = [f"A{i}" for i in range(n_a)]
    meshes = [f"M{i}" for i in range(n_m)]
    papers = []
    for _ in range(n_p):
        auths = draw(st.sets(st.sampled_from(authors), min_size=1, max_size=min(3, n_a)))
        cats = draw(st.sets(st.sampled_from(meshes), min_size=1, max_size=n_m))
        papers.append((frozenset(auths), frozenset(cats)))
    return oracle.OracleNet(tuple(papers))


@st.composite
def batch_series(draw):
    n_a = draw(st.integers(1, 5))
    n_m = draw(st.integers(1, 3))
    n_years = draw(st.integers(1, 3))
    authors = [f"A{i}" for i in range(n_a)]
    meshes = [f"M{i}" for i in range(n_m)]
    batches = []
    for year in range(n_years):
        batch = []
        for j in range(draw(st.integers(0, 4))):
            auths = draw(st.sets(st.sampled_from(authors), min_size=1, max_size=min(3, n_a)))
            cats = draw(st.sets(st.sampled_from(meshes), min_size=1, max_size=n_m))
            batch.append((f"P{year}_{j}", frozenset(auths), frozenset(cats)))
        batches.append(batch)
    return batches


@SETTINGS
@given(nets())
def test_scores_stay_in_range(net):
    propchecks.check_range_bounds(net)


@SETTINGS
@given(nets())
def test_subset_scores_are_local_while_global_decreases(net):
    propchecks.check_locality(net)


@SETTINGS
@given(nets(), st.integers(0, 2**32 - 1))
def test_isolated_author_collapse(net, seed):
    propchecks.check_isolated_collapse(net, random.Random(seed))


@SETTINGS
@given(nets(), st.integers(0, 2**32 - 1))
def test_mask_growth_never_raises_score(net, seed):
    propchecks.check_mask_monotonicity(net, random.Random(seed))


@SETTINGS
@given(nets())
def test_weighted_degenerates_on_single_category_papers(net):
    propchecks.check_weighted_degeneration(net)


@SETTINGS
@given(nets())
def test_matrix_form_matches_set_form(net):
    propchecks.check_matrix_vs_oracle(net)


@SETTINGS
@given(batch_series(), st.integers(0, 2**32 - 1))
def test_yearly_engine_order_independent(batches, seed):
    propchecks.check_dha_order_independence(batches, random.Random(seed))


@SETTINGS
@given(batch_series(), st.integers(0, 2**32 - 1))
def test_weighted_yearly_engine_order_independent(batches, seed):
    propchecks.check_dha_order_independence(batches, random.Random(seed), weighted=True)


@SETTINGS
@given(batch_series())
def test_stores_monotone_and_bounded_by_counts(batches):
    propchecks.check_store_monotonic_and_bl_bound(batches)


@SETTINGS
@given(batch_series())
def test_yearly_engine_matches_set_replay(batches):
    propchecks.check_dha_vs_oracle(batches)


@SETTINGS
@given(batch_series())
def test_weighted_yearly_engine_matches_set_replay(batches):
    propchecks.check_dha_vs_oracle(batches, weighted=True)
