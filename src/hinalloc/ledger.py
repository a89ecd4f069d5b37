"""Yearly link ledger and its grouping into label sets.

A paper's identity is the pair (label, year): publication lists reuse labels
across years, and each year's batch is a fresh set of paper nodes. The ledger
splits author-paper links into the cumulative pre-year list and the current
year's list; materializing a year groups both lists into per-author paper sets,
per-paper author sets and per-paper categories, then folds the current year
into the cumulative list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

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
class YearSets:
    """One year's links grouped by label."""

    papers_of: dict[str, set[PaperKey]]  # author -> papers of all years strictly before
    update_of: dict[str, set[PaperKey]]  # author -> papers of the current year
    authors_of: dict[PaperKey, set[str]]  # current-year paper -> authors
    categories_of: dict[PaperKey, list[str]]  # paper of either list -> distinct categories


def categories_by_paper(paper_mesh_links) -> dict[PaperKey, list[str]]:
    """Paper -> its distinct categories in link order, from (paper, category,
    weight) links; weights are ignored."""
    categories_of: dict[PaperKey, list[str]] = {}
    for p, m, _ in paper_mesh_links:
        cats = categories_of.setdefault(p, [])
        if m not in cats:
            cats.append(m)
    return categories_of


def materialize_year(ledger: YearLedger) -> YearSets:
    """Group the ledger into label sets, then fold the update list into experience.

    After the call the ledger's experience list is the union of the two lists
    and the update list is cleared.
    """
    ledger.validate()
    papers_of: dict[str, set[PaperKey]] = {}
    for a, p in ledger.experience_links:
        papers_of.setdefault(a, set()).add(p)
    update_of: dict[str, set[PaperKey]] = {}
    authors_of: dict[PaperKey, set[str]] = {}
    for a, p in ledger.update_links:
        update_of.setdefault(a, set()).add(p)
        authors_of.setdefault(p, set()).add(a)
    sets = YearSets(papers_of, update_of, authors_of, categories_by_paper(ledger.paper_mesh_links))
    ledger.experience_links = ledger.experience_links + ledger.update_links
    ledger.update_links = []
    return sets


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
