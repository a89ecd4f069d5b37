import pytest

from sparse import (
    ConflictingWeightError,
    ShapeMismatchError,
    SparseIncidence,
    SparseVector,
)


def test_elementwise_product_intersects_supports():
    u = SparseVector.from_dense([1, 0, 1])
    v = SparseVector.from_dense([1, 1, 0])
    assert u.hadamard(v).to_dense() == [1, 0, 0]


def test_entry_sum():
    assert SparseVector.from_dense([1, 0, 1]).entry_sum() == 2


def test_dimension_mismatch_raises():
    u = SparseVector.from_dense([1, 0])
    v = SparseVector.from_dense([1, 0, 1])
    with pytest.raises(ShapeMismatchError):
        u.dot(v)
    m = SparseIncidence.from_entries(2, 2, [(0, 0)])
    with pytest.raises(ShapeMismatchError):
        m.matvec(v)
    with pytest.raises(ShapeMismatchError):
        m.matmul(SparseIncidence.from_entries(3, 1, []))


def test_duplicate_unweighted_entries_collapse():
    m = SparseIncidence.from_entries(1, 2, [(0, 0), (0, 0), (0, 1)])
    assert m.nnz() == 2
    assert m.to_dense() == [[1.0, 1.0]]


def test_conflicting_weights_rejected():
    with pytest.raises(ConflictingWeightError):
        SparseIncidence.from_entries(1, 1, [(0, 0, 2.0), (0, 0, 3.0)], weighted=True)


def test_nonpositive_value_rejected():
    with pytest.raises(ValueError):
        SparseIncidence.from_entries(1, 1, [(0, 0, 0.0)], weighted=True)


def test_row_and_transpose():
    m = SparseIncidence.from_entries(2, 3, [(0, 1), (1, 0), (1, 2)])
    assert m.row(0).to_dense() == [0, 1, 0]
    t = m.transpose()
    assert t.n_rows == 3 and t.n_cols == 2
    assert t.row(2).to_dense() == [0, 1]


def test_matmul_counts_paths():
    m_ap = SparseIncidence.from_entries(2, 2, [(0, 0), (1, 0), (1, 1)])
    counts = m_ap.matmul(m_ap.transpose())
    assert counts.to_dense() == [[1.0, 1.0], [1.0, 2.0]]


def test_row_normalized():
    m = SparseIncidence.from_entries(3, 3, [(0, 0), (0, 1), (1, 0, 1.0), (1, 2, 3.0)], weighted=True)
    n = m.row_normalized()
    assert n.row(0).to_dense() == [0.5, 0.5, 0.0]
    assert n.row(1).to_dense() == [0.25, 0.0, 0.75]
    assert n.row(2).to_dense() == [0.0, 0.0, 0.0]


def test_column_normalized_splits_unit_weight():
    m = SparseIncidence.from_entries(2, 2, [(0, 0), (1, 0), (0, 1)])
    w = m.column_normalized()
    assert w.row(0).to_dense() == [0.5, 1.0]
    assert w.row(1).to_dense() == [0.5, 0.0]


def test_vecmat_matches_transpose_matvec():
    m = SparseIncidence.from_entries(3, 2, [(0, 0), (1, 1), (2, 0), (2, 1)])
    v = SparseVector.from_dense([1, 0, 2])
    assert v.vecmat(m).to_dense() == m.transpose().matvec(v).to_dense()


def test_unit_vector_bounds():
    with pytest.raises(ShapeMismatchError):
        SparseVector.unit(3, 5)
