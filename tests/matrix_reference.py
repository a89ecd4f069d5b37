"""Matrix-form reference for the static scores.

The package scores static methods by counting label sets
(``hinalloc.similarity.PaperNetwork``). This module keeps the earlier route:
interned author x paper and category x paper sparse matrices, meta-path
reachable probabilities, and one masked-cosine kernel per method. Tests check
it against the set-theoretic oracle and check the shipped scores against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from hinalloc.similarity import AGGREGATIONS, AVERAGE, PaperNetwork

from nodes import NodeStore
from sparse import ShapeMismatchError, SparseIncidence, SparseVector


def build_incidence(
    links: Iterable,
    row_interner,
    col_interner,
    weighted: bool = False,
) -> SparseIncidence:
    """Intern (row_label, col_label[, value]) links and build the incidence matrix.

    Labels are interned in sorted order so the resulting index assignment does
    not depend on link order. Duplicate unweighted links collapse to one unit
    entry; conflicting weights are rejected.
    """
    links = list(links)
    for label in sorted({link[0] for link in links}):
        row_interner.intern(label)
    for label in sorted({link[1] for link in links}):
        col_interner.intern(label)
    entries = []
    for link in links:
        if len(link) == 2:
            r, c = link
            entries.append((row_interner.index_of(r), col_interner.index_of(c)))
        else:
            r, c, v = link
            entries.append((row_interner.index_of(r), col_interner.index_of(c), v))
    return SparseIncidence.from_entries(len(row_interner), len(col_interner), entries, weighted=weighted)


class MetaPathError(ValueError):
    """A meta-path is malformed or incompatible with the requested operation."""


@dataclass(frozen=True)
class MetaPath:
    """An ordered chain of hop matrices, one per relation along the path."""

    steps: tuple[SparseIncidence, ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise MetaPathError("a meta-path needs at least one relation")
        for left, right in zip(self.steps, self.steps[1:]):
            if left.n_cols != right.n_rows:
                raise MetaPathError(
                    f"hop dimensions do not chain: {left.n_rows}x{left.n_cols} "
                    f"then {right.n_rows}x{right.n_cols}"
                )

    def __len__(self) -> int:
        return len(self.steps)


def transition_matrix(w: SparseIncidence) -> SparseIncidence:
    """Row-normalize an incidence matrix; empty rows pass through as zero."""
    return w.row_normalized()


def reachable_probability(path: MetaPath) -> SparseIncidence:
    """Product of the row-normalized hop matrices along the path."""
    result = transition_matrix(path.steps[0])
    for step in path.steps[1:]:
        result = result.matmul(transition_matrix(step))
    return result


def _cosine(u: SparseVector, v: SparseVector) -> float:
    num = u.dot(v)
    if not num:
        return 0.0
    return num / math.sqrt(u.sum_of_squares() * v.sum_of_squares())


def hetesim_normalized(a: int, b: int, path: MetaPath) -> float:
    """Normalized path relevance: cosine of the two reachable-probability rows.

    The path must split at its midpoint, so only even relation counts are
    supported. Either side reaching nothing yields 0.
    """
    if len(path) % 2:
        raise MetaPathError("normalized relevance needs an even number of relations")
    half = len(path) // 2
    left = reachable_probability(MetaPath(path.steps[:half]))
    right_steps = tuple(step.transpose() for step in reversed(path.steps[half:]))
    right = reachable_probability(MetaPath(right_steps))
    return _cosine(left.row(a), right.row(b))


def hetesim_author_mesh(a: int, m: int, m_ap: SparseIncidence, m_mp: SparseIncidence) -> float:
    """Global relevance of author a to category m over the whole paper set."""
    return _cosine(m_ap.row(a), m_mp.row(m))


def hetealloc(
    a: int,
    m: int,
    mask: SparseVector,
    m_ap: SparseIncidence,
    m_mp: SparseIncidence,
    mesh_rows: SparseIncidence | None = None,
) -> float:
    """Subset-filtered relevance: category row restricted to the mask's papers.

    ``mesh_rows`` supplies the scoring row for the category (pass the weighted
    matrix for the weighted variants); it defaults to ``m_mp``.
    """
    if mask.length != m_ap.n_cols:
        raise ShapeMismatchError("mask must live in the paper space")
    scoring = mesh_rows if mesh_rows is not None else m_mp
    return _cosine(m_ap.row(a), mask.hadamard(scoring.row(m)))


def subset_ha1(a: int, m_ap: SparseIncidence) -> SparseVector:
    """Papers reachable from a along author-paper-author-paper, binarized."""
    own = m_ap.row(a)
    coauthors = own.vecmat(m_ap.transpose())
    return coauthors.vecmat(m_ap).binarized()


def subset_ha2(a: int, m: int, m_ap: SparseIncidence, m_mp: SparseIncidence) -> SparseVector:
    """Papers of a plus papers of co-authors on a's papers in category m.

    The author's own papers are always included, so the mask is never empty
    for a published author even without qualifying co-authors.
    """
    own = m_ap.row(a)
    qualifying = own.hadamard(m_mp.row(m))
    coauthors = qualifying.vecmat(m_ap.transpose())
    reached = coauthors.vecmat(m_ap)
    return reached.plus(own).binarized()


def subset_ha3(a: int, p: int, m_ap: SparseIncidence) -> SparseVector:
    """All papers of the focal paper's authors; a must be one of them."""
    authors_of_p = m_ap.transpose().row(p)
    if a not in authors_of_p.data:
        raise ValueError(f"author {a} is not an author of paper {p}")
    return authors_of_p.vecmat(m_ap).binarized()


def hetealloc_ha1(
    a: int, m: int, m_ap: SparseIncidence, m_mp: SparseIncidence, weighted: bool = False
) -> float:
    mesh_rows = weighted_incidence(m_mp) if weighted else None
    return hetealloc(a, m, subset_ha1(a, m_ap), m_ap, m_mp, mesh_rows)


def hetealloc_ha2(
    a: int, m: int, m_ap: SparseIncidence, m_mp: SparseIncidence, weighted: bool = False
) -> float:
    mesh_rows = weighted_incidence(m_mp) if weighted else None
    return hetealloc(a, m, subset_ha2(a, m, m_ap, m_mp), m_ap, m_mp, mesh_rows)


def hetealloc_ha3(
    a: int,
    m: int,
    m_ap: SparseIncidence,
    m_mp: SparseIncidence,
    aggregation: str = AVERAGE,
    weighted: bool = False,
) -> float:
    """Focal-paper allocation over every paper of a that carries category m."""
    if aggregation not in AGGREGATIONS:
        raise ValueError(f"aggregation must be one of {AGGREGATIONS}, got {aggregation!r}")
    mesh_rows = weighted_incidence(m_mp) if weighted else None
    focal_papers = sorted(m_ap.row(a).hadamard(m_mp.row(m)).data)
    if not focal_papers:
        return 0.0
    terms = [
        hetealloc(a, m, subset_ha3(a, p, m_ap), m_ap, m_mp, mesh_rows) for p in focal_papers
    ]
    total = sum(terms)
    return total / len(terms) if aggregation == AVERAGE else total


def weighted_incidence(m_mp: SparseIncidence) -> SparseIncidence:
    """Category-paper matrix with each paper's unit weight split across its categories."""
    return m_mp.binarized().column_normalized()


def baseline_similarity(a: int, m: int, m_ap: SparseIncidence, m_mp: SparseIncidence) -> float:
    """Square root of the share of a's author-category incidences that fall on m."""
    own = m_ap.row(a)
    count_m = own.dot(m_mp.row(m))
    if not count_m:
        return 0.0
    per_paper_categories = m_mp.transpose()
    total = sum(per_paper_categories.row(p).entry_sum() for p in own.data)
    return math.sqrt(count_m / total)


@dataclass
class MatrixNetwork:
    """A static author-paper-category network as interned incidence matrices."""

    store: NodeStore
    m_ap: SparseIncidence  # author x paper
    m_mp: SparseIncidence  # category x paper

    @classmethod
    def from_links(cls, author_paper, paper_mesh) -> MatrixNetwork:
        """Build from (author, paper) and (paper, category) label pairs."""
        store = NodeStore()
        m_ap = build_incidence(author_paper, store.authors, store.papers)
        for p, _ in paper_mesh:
            if p not in store.papers:
                raise ValueError(f"category link references unknown paper {p!r}")
        # columns land in the shared paper index because the interner already
        # holds every paper
        m_mp = build_incidence(((m, p) for p, m in paper_mesh), store.meshes, store.papers)
        return cls(store, m_ap, m_mp)

    @classmethod
    def of(cls, net: PaperNetwork) -> MatrixNetwork:
        """The matrix form of a set-form network, over the same labels."""
        links = [(a, p) for a, papers in net.papers_of.items() for p in papers]
        mesh = [(p, m) for p, cats in net.categories_of.items() for m in cats]
        return cls.from_links(links, mesh)

    def author(self, label: str) -> int:
        return self.store.authors.index_of(label)

    def mesh(self, label: str) -> int:
        return self.store.meshes.index_of(label)

    def paper(self, label) -> int:
        return self.store.papers.index_of(label)

    def score(self, method: str, author: str, mesh: str, weighted: bool = False,
              aggregation: str = AVERAGE) -> float:
        a, m = self.author(author), self.mesh(mesh)
        if method == "bl":
            if weighted:
                raise ValueError("the baseline has no weighted variant")
            return baseline_similarity(a, m, self.m_ap, self.m_mp)
        if method == "hetesim":
            mesh_rows = weighted_incidence(self.m_mp) if weighted else self.m_mp
            return _cosine(self.m_ap.row(a), mesh_rows.row(m))
        if method == "ha1":
            return hetealloc_ha1(a, m, self.m_ap, self.m_mp, weighted)
        if method == "ha2":
            return hetealloc_ha2(a, m, self.m_ap, self.m_mp, weighted)
        if method == "ha3":
            return hetealloc_ha3(a, m, self.m_ap, self.m_mp, aggregation, weighted)
        raise ValueError(f"unknown method {method!r}")
