"""Yearly incremental expertise engine.

Two methods share the same ledger discipline:

* the cumulative-count baseline: every category of every new paper adds one
  full unit to each co-author;
* the dynamic allocation: each new paper hands out per-category credit as a
  cosine between the author's history (plus the paper itself) and the
  category's papers inside the paper's collaboration subset, so credit flows
  to the co-authors with matching experience.

All of a year's papers are treated as simultaneous: the experience matrix is
frozen once per year, which makes results independent of processing order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .ledger import PaperKey, Timeline, YearLedger, materialize_year
from .sparse import SparseIncidence, SparseVector


class YearOrderError(ValueError):
    """Years must be processed consecutively."""


class DhaInputError(ValueError):
    """A per-paper evaluation was asked outside its preconditions."""


@dataclass
class ExpertiseStore:
    """Author -> category -> accumulated value, with a snapshot kept per year."""

    values: dict[str, dict[str, float]] = field(default_factory=dict)
    year: int | None = None
    snapshots: dict[int, dict[str, dict[str, float]]] = field(default_factory=dict)

    def check_year(self, year: int) -> None:
        if self.year is not None and year != self.year + 1:
            raise YearOrderError(f"store is at year {self.year}, cannot apply year {year}")

    def apply_increments(self, year: int, increments: dict[str, dict[str, float]]) -> None:
        self.check_year(year)
        for author, per_category in increments.items():
            profile = self.values.setdefault(author, {})
            for category, inc in per_category.items():
                if inc < 0:
                    raise ValueError(f"negative increment {inc} for ({author}, {category})")
                if inc:
                    profile[category] = profile.get(category, 0.0) + inc
        self.year = year
        self.snapshots[year] = {a: dict(p) for a, p in self.values.items()}

    def profile(self, author: str, year: int | None = None) -> dict[str, float]:
        source = self.values if year is None else self.snapshots.get(year, {})
        return dict(source.get(author, {}))

    def snapshot(self, year: int) -> dict[str, dict[str, float]]:
        return {a: dict(p) for a, p in self.snapshots.get(year, {}).items()}


@dataclass
class DhaYearInput:
    """Frozen matrices for one year's allocation pass."""

    m_experience: SparseIncidence  # author x paper, strictly pre-year
    m_update: SparseIncidence  # author x paper, current year
    m_update_t: SparseIncidence  # paper x author view of the update links
    m_mesh: SparseIncidence  # category x paper
    m_mesh_t: SparseIncidence  # paper x category view
    m_mesh_weighted: SparseIncidence
    store: object  # NodeStore for label resolution

    @classmethod
    def from_ledger(cls, ledger: YearLedger) -> DhaYearInput:
        mats = materialize_year(ledger)
        mesh_t = mats.m_mesh.transpose()
        for cells in mats.m_update.rows.values():
            for p in cells:
                if not mesh_t.rows.get(p):
                    label = mats.store.papers.label_of(p)
                    raise DhaInputError(f"update paper {label!r} has no category link")
        return cls(
            mats.m_experience,
            mats.m_update,
            mats.m_update.transpose(),
            mats.m_mesh,
            mesh_t,
            mats.m_mesh_weighted,
            mats.store,
        )

    def mesh_indices_of(self, paper: int) -> list[int]:
        return sorted(self.m_mesh_t.rows.get(paper, {}))


def _collab_subset(inp: DhaYearInput, paper: int) -> SparseVector:
    """Union of the experience papers of the paper's authors, plus the paper itself."""
    vsub = inp.m_update_t.row(paper).vecmat(inp.m_experience)
    return vsub.plus(SparseVector.unit(inp.m_experience.n_cols, paper)).binarized()


def dha_paper(
    inp: DhaYearInput, a: int, p: int, m: int, weighted: bool = False
) -> float:
    """Credit author a earns on category m from current-year paper p."""
    if p not in inp.m_update.rows.get(a, {}):
        raise DhaInputError(f"paper {p} is not an update paper of author {a}")
    mesh_matrix = inp.m_mesh_weighted if weighted else inp.m_mesh
    mesh_row = mesh_matrix.row(m)
    if p not in inp.m_mesh.rows.get(m, {}):
        raise DhaInputError(f"paper {p} does not carry category {m}")
    u = inp.m_experience.row(a).plus(SparseVector.unit(inp.m_experience.n_cols, p))
    v = _collab_subset(inp, p).hadamard(mesh_row)
    num = u.dot(v)
    if not num:
        return 0.0
    return num / math.sqrt(u.sum_of_squares() * v.sum_of_squares())


def dha_author_year(inp: DhaYearInput, a: int, weighted: bool = False) -> dict[int, float]:
    """Sum per-paper credit over all of the author's current-year papers."""
    increments: dict[int, float] = {}
    for p in sorted(inp.m_update.rows.get(a, {})):
        for m in inp.mesh_indices_of(p):
            increments[m] = increments.get(m, 0.0) + dha_paper(inp, a, p, m, weighted)
    return increments


def run_year_dha(
    store: ExpertiseStore, ledger: YearLedger, weighted: bool = False
) -> ExpertiseStore:
    """Apply one year of dynamic allocation and fold the year into experience.

    Every author of the year is evaluated against the same frozen experience
    matrix; increments are applied in a fixed order, so the outcome does not
    depend on link order.
    """
    store.check_year(ledger.year)
    inp = DhaYearInput.from_ledger(ledger)
    increments: dict[str, dict[str, float]] = {}
    for a in sorted(a for a, cells in inp.m_update.rows.items() if cells):
        per_mesh = dha_author_year(inp, a, weighted)
        label = inp.store.authors.label_of(a)
        increments[label] = {
            inp.store.meshes.label_of(m): inc for m, inc in sorted(per_mesh.items())
        }
    store.apply_increments(ledger.year, increments)
    return store


def run_year_bl(store: ExpertiseStore, ledger: YearLedger) -> ExpertiseStore:
    """Apply one year of cumulative counting: +1 per (author, paper, category)."""
    store.check_year(ledger.year)
    ledger.validate()
    categories_of: dict[PaperKey, list[str]] = {}
    for p, m, _ in ledger.paper_mesh_links:
        cats = categories_of.setdefault(p, [])
        if m not in cats:
            cats.append(m)
    increments: dict[str, dict[str, float]] = {}
    for author, paper in ledger.update_links:
        profile = increments.setdefault(author, {})
        for category in categories_of.get(paper, []):
            profile[category] = profile.get(category, 0.0) + 1.0
    store.apply_increments(ledger.year, increments)
    ledger.experience_links = ledger.experience_links + ledger.update_links
    ledger.update_links = []
    return store


DYNAMIC_METHODS = {"bl", "dha"}


def run_series(
    method: str,
    timeline: Timeline,
    last_year: int | None = None,
    weighted: bool = False,
) -> tuple[ExpertiseStore, dict[int, dict[str, int]]]:
    """Drive a dynamic method over consecutive years of a timeline.

    Every data year up to ``last_year`` is processed; callers wanting a
    reporting window select among the store's snapshots afterwards. Returns
    the store and cumulative per-author paper counts per year.
    """
    if method not in DYNAMIC_METHODS:
        raise ValueError(f"not a dynamic method: {method!r}")
    data_years = timeline.years()
    if not data_years:
        return ExpertiseStore(), {}
    start = data_years[0]
    stop = last_year if last_year is not None else data_years[-1]

    store = ExpertiseStore()
    experience: list[tuple[str, PaperKey]] = []
    papers_seen: dict[str, set[PaperKey]] = {}
    counts_by_year: dict[int, dict[str, int]] = {}
    for year in range(start, stop + 1):
        ledger = timeline.ledger_for(year, experience)
        if method == "dha":
            run_year_dha(store, ledger, weighted=weighted)
        else:
            run_year_bl(store, ledger)
        experience = ledger.experience_links
        for author, paper in timeline.links_by_year.get(year, []):
            papers_seen.setdefault(author, set()).add(paper)
        counts_by_year[year] = {a: len(ps) for a, ps in papers_seen.items()}
    return store, counts_by_year
