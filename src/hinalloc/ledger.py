"""The yearly state of a multi-year run, grown by each year's links.

A paper's identity is the pair (label, year): publication lists reuse labels
across years, and each year's batch is a fresh set of paper nodes. The state
(``History``) holds per-author paper sets of every year folded so far, plus
each paper's sorted categories and weight, read once when the paper's year
arrives. A year's ledger pairs the state with the year's links; materializing
it groups only those links, so a year costs in proportion to its new links.
The year is scored against the frozen pre-year sets and folded in afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

# (label, year) pair identifying one paper node
PaperKey = tuple[str, int]


class LedgerError(ValueError):
    """The ledger violates a structural requirement."""


@dataclass
class History:
    """Per-author paper sets of the folded years; categories and weights of every
    paper registered so far, the current year's included."""

    papers_of: dict[str, set[PaperKey]] = field(default_factory=dict)
    categories_of: dict[PaperKey, tuple[str, ...]] = field(default_factory=dict)  # sorted, distinct
    weights: dict[PaperKey, float] = field(default_factory=dict)  # 1 / number of categories


@dataclass
class YearLedger:
    """One year's links over the history of the years before it."""

    year: int
    history: History
    update_links: list[tuple[str, PaperKey]]

    def fold(self) -> None:
        """Add the year's links to the history's paper sets; call once the year is scored."""
        papers_of = self.history.papers_of
        for a, p in self.update_links:
            papers_of.setdefault(a, set()).add(p)
        self.update_links = []


@dataclass
class YearSets:
    """One year's links grouped by label, over the frozen pre-year history."""

    papers_of: dict[str, set[PaperKey]]  # author -> papers of all years strictly before
    update_of: dict[str, set[PaperKey]]  # author -> papers of the current year
    authors_of: dict[PaperKey, set[str]]  # current-year paper -> authors
    categories_of: dict[PaperKey, tuple[str, ...]]  # paper -> sorted distinct categories
    weights: dict[PaperKey, float]  # paper -> 1 / number of categories


def materialize_year(ledger: YearLedger) -> YearSets:
    """Group the year's links by label; the history's sets are shared, not copied."""
    update_of: dict[str, set[PaperKey]] = {}
    authors_of: dict[PaperKey, set[str]] = {}
    for a, p in ledger.update_links:
        update_of.setdefault(a, set()).add(p)
        authors_of.setdefault(p, set()).add(a)
    history = ledger.history
    return YearSets(history.papers_of, update_of, authors_of, history.categories_of, history.weights)


@dataclass
class Timeline:
    """All ingested data grouped by year, ready to drive a multi-year run."""

    links_by_year: dict[int, list[tuple[str, PaperKey]]]
    mesh_by_paper: Mapping[PaperKey, dict[str, float]]

    def years(self) -> list[int]:
        return sorted(self.links_by_year)

    def ledger_for(self, year: int, history: History) -> YearLedger:
        """The year's ledger over ``history``, whose category table gains the year's papers.

        A paper with no category, or one that an earlier year already brought,
        is a ``LedgerError``.
        """
        update = self.links_by_year.get(year, [])
        categories_of, weights = history.categories_of, history.weights
        for p in dict.fromkeys(p for _, p in update):
            if p in categories_of:
                raise LedgerError(f"paper {p!r} of year {year} already appeared in an earlier year")
            cats = self.mesh_by_paper.get(p)
            if not cats:
                raise LedgerError(f"paper {p!r} has no category link")
            categories_of[p] = tuple(sorted(cats))
            weights[p] = 1.0 / len(cats)
        return YearLedger(year, history, list(update))
