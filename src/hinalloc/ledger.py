"""Yearly link ledger and materialization into shared-index incidence matrices.

A paper's identity is the pair (label, year): publication lists reuse labels
across years, and each year's batch is a fresh set of paper nodes. The ledger
splits author-paper links into the cumulative pre-year list and the current
year's list; materializing a year freezes both into matrices over one shared
author index and one shared paper index, then folds the current year into the
cumulative list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .nodes import NodeStore, NodeType
from .sparse import SparseIncidence

# (label, year) pair identifying one paper node
PaperKey = tuple[str, int]


class LedgerError(ValueError):
    """The ledger violates a structural requirement."""


@dataclass
class YearLedger:
    """Cumulative pre-year links, the current year's links, and paper categories.

    ``paper_mesh_links`` carries (paper, category, weight) for every paper that
    appears in either link list.
    """

    year: int
    experience_links: list[tuple[str, PaperKey]] = field(default_factory=list)
    update_links: list[tuple[str, PaperKey]] = field(default_factory=list)
    paper_mesh_links: list[tuple[PaperKey, str, float]] = field(default_factory=list)

    def validate(self) -> None:
        exp = set(self.experience_links)
        upd = set(self.update_links)
        overlap = exp & upd
        if overlap:
            raise LedgerError(f"experience and update lists share links: {sorted(overlap)[:3]}")
        if self.paper_mesh_links:
            covered = {p for p, _, _ in self.paper_mesh_links}
            missing = {p for _, p in self.experience_links if p not in covered}
            missing |= {p for _, p in self.update_links if p not in covered}
            if missing:
                raise LedgerError(f"papers without any category link: {sorted(missing)[:3]}")


@dataclass
class YearMatrices:
    """Frozen matrices for one year over shared author and paper index spaces."""

    m_experience: SparseIncidence  # author x paper, all years strictly before
    m_update: SparseIncidence  # author x paper, current year
    m_mesh: SparseIncidence  # category x paper, unit entries
    m_mesh_weighted: SparseIncidence  # category x paper, columns sum to 1
    store: NodeStore


def materialize_year(ledger: YearLedger) -> YearMatrices:
    """Freeze the ledger into matrices, then fold the update list into experience.

    Both matrices share one author index and one paper index covering the union
    of papers from both lists. After the call the ledger's experience list is
    the union of the two lists and the update list is cleared.
    """
    ledger.validate()
    store = NodeStore()
    authors = sorted({a for a, _ in ledger.experience_links} | {a for a, _ in ledger.update_links})
    papers = sorted({p for _, p in ledger.experience_links} | {p for _, p in ledger.update_links})
    for a in authors:
        store.intern(a, NodeType.AUTHOR)
    for p in papers:
        store.intern(p, NodeType.PAPER)

    n_a, n_p = len(authors), len(papers)
    m_experience = SparseIncidence.from_entries(
        n_a,
        n_p,
        ((store.authors.index_of(a), store.papers.index_of(p)) for a, p in ledger.experience_links),
    )
    m_update = SparseIncidence.from_entries(
        n_a,
        n_p,
        ((store.authors.index_of(a), store.papers.index_of(p)) for a, p in ledger.update_links),
    )

    categories = sorted({m for _, m, _ in ledger.paper_mesh_links})
    for m in categories:
        store.intern(m, NodeType.MESH)
    mesh_entries = [
        (store.meshes.index_of(m), store.papers.index_of(p), w)
        for p, m, w in ledger.paper_mesh_links
        if p in store.papers
    ]
    # unit entries regardless of supplied weights; the weighted view is derived
    m_mesh = SparseIncidence.from_entries(len(categories), n_p, mesh_entries)
    m_mesh_weighted = m_mesh.column_normalized()

    ledger.experience_links = ledger.experience_links + ledger.update_links
    ledger.update_links = []
    return YearMatrices(m_experience, m_update, m_mesh, m_mesh_weighted, store)


def links_as_set(matrix: SparseIncidence, row_interner, col_interner) -> set[tuple]:
    """Re-extract the distinct (row_label, col_label) link set from a matrix."""
    return {
        (row_interner.label_of(r), col_interner.label_of(c))
        for r, c, _ in matrix.entries()
    }


@dataclass
class Timeline:
    """All ingested data grouped by year, ready to drive a multi-year run."""

    links_by_year: dict[int, list[tuple[str, PaperKey]]]
    mesh_by_paper: Mapping[PaperKey, dict[str, float]]

    def years(self) -> list[int]:
        return sorted(self.links_by_year)

    def ledger_for(self, year: int, experience: list[tuple[str, PaperKey]]) -> YearLedger:
        update = self.links_by_year.get(year, [])
        papers = {p for _, p in experience} | {p for _, p in update}
        mesh_links = [
            (p, m, w)
            for p in sorted(papers)
            for m, w in sorted(self.mesh_by_paper.get(p, {}).items())
        ]
        return YearLedger(year, list(experience), list(update), mesh_links)
