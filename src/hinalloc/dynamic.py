"""Yearly incremental expertise engine.

Two methods share the same ledger discipline:

* the cumulative-count baseline: every category of every new paper adds one
  full unit to each co-author;
* the dynamic allocation: each new paper hands out per-category credit as a
  cosine between the author's history (plus the paper itself) and the
  category's papers inside the paper's collaboration subset, so credit flows
  to the co-authors with matching experience.

Both are counts over label sets: per-author paper sets and per-paper category
sets, carried across years in one ``History`` that grows by each year's links.
All of a year's papers are treated as simultaneous: each year is scored
against the frozen pre-year sets and folded in afterwards, which makes results
independent of processing order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .ledger import History, PaperKey, Timeline, YearLedger, YearSets, materialize_year
from .similarity import _mass, _square_mass


class YearOrderError(ValueError):
    """Years must be processed consecutively."""


class DhaInputError(ValueError):
    """A per-paper evaluation was asked outside its preconditions."""


@dataclass
class ExpertiseStore:
    """Author -> category -> accumulated value, with a snapshot kept per year.

    A profile dict is replaced, never changed in place, once stored, so each
    year's snapshot shares the profiles that the year left untouched.
    """

    values: dict[str, dict[str, float]] = field(default_factory=dict)
    year: int | None = None
    snapshots: dict[int, dict[str, dict[str, float]]] = field(default_factory=dict)

    def check_year(self, year: int) -> None:
        if self.year is not None and year != self.year + 1:
            raise YearOrderError(f"store is at year {self.year}, cannot apply year {year}")

    def apply_increments(self, year: int, increments: dict[str, dict[str, float]]) -> None:
        self.check_year(year)
        values = self.values
        for author, per_category in increments.items():
            profile = dict(values.get(author, ()))
            for category, inc in per_category.items():
                if inc < 0:
                    raise ValueError(f"negative increment {inc} for ({author}, {category})")
                if inc:
                    profile[category] = profile.get(category, 0.0) + inc
            values[author] = profile
        self.year = year
        self.snapshots[year] = dict(values)

    def profile(self, author: str, year: int | None = None) -> dict[str, float]:
        source = self.values if year is None else self.snapshots.get(year, {})
        return dict(source.get(author, {}))

    def snapshot(self, year: int) -> dict[str, dict[str, float]]:
        return {a: dict(p) for a, p in self.snapshots.get(year, {}).items()}


@dataclass
class DhaYearInput:
    """One year's label sets, with each update paper's mask sums cached."""

    sets: YearSets
    _squares: dict = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def from_ledger(cls, ledger: YearLedger) -> DhaYearInput:
        return cls(materialize_year(ledger))

    def weights(self, weighted: bool) -> dict | None:
        """Paper -> 1/|categories| when weighted, else None (every weight is 1)."""
        return self.sets.weights if weighted else None

    def square_masses(self, paper: PaperKey, weighted: bool) -> dict[str, float]:
        """Σ_{S_p∩M_m} w² for each category m of the paper, where the mask S_p is
        the prior papers of the paper's authors plus the paper itself."""
        key = (paper, weighted)
        if key not in self._squares:
            sets = self.sets
            mask = set().union(*(sets.papers_of.get(x, ()) for x in sets.authors_of[paper]))
            mask.add(paper)
            weights = self.weights(weighted)
            self._squares[key] = {
                m: _square_mass([q for q in mask if m in sets.categories_of[q]], weights)
                for m in sets.categories_of[paper]
            }
        return self._squares[key]


def dha_paper(
    inp: DhaYearInput, a: str, p: PaperKey, m: str, weighted: bool = False
) -> float:
    """Credit author a earns on category m from current-year paper p:
    Σ_{E⁺∩M_m} w / sqrt(|E⁺| · Σ_{S_p∩M_m} w²), E⁺ being a's prior papers plus p."""
    sets = inp.sets
    if p not in sets.update_of.get(a, ()):
        raise DhaInputError(f"paper {p!r} is not an update paper of author {a!r}")
    if m not in sets.categories_of[p]:
        raise DhaInputError(f"paper {p!r} does not carry category {m!r}")
    prior = sets.papers_of.get(a, ())
    focal = [q for q in prior if m in sets.categories_of[q]]
    focal.append(p)
    num = _mass(focal, inp.weights(weighted))
    return num / math.sqrt((len(prior) + 1) * inp.square_masses(p, weighted)[m])


def dha_author_year(inp: DhaYearInput, a: str, weighted: bool = False) -> dict[str, float]:
    """Sum per-paper credit over all of the author's current-year papers."""
    increments: dict[str, float] = {}
    for p in sorted(inp.sets.update_of.get(a, ())):
        for m in inp.sets.categories_of[p]:
            increments[m] = increments.get(m, 0.0) + dha_paper(inp, a, p, m, weighted)
    return dict(sorted(increments.items()))


def run_year_dha(
    store: ExpertiseStore, ledger: YearLedger, weighted: bool = False
) -> ExpertiseStore:
    """Apply one year of dynamic allocation, then fold the year into the history.

    Every author of the year is evaluated against the same frozen pre-year
    sets; increments are applied in a fixed order, so the outcome does not
    depend on link order.
    """
    store.check_year(ledger.year)
    inp = DhaYearInput.from_ledger(ledger)
    increments = {a: dha_author_year(inp, a, weighted) for a in sorted(inp.sets.update_of)}
    store.apply_increments(ledger.year, increments)
    ledger.fold()
    return store


def run_year_bl(store: ExpertiseStore, ledger: YearLedger) -> ExpertiseStore:
    """Apply one year of cumulative counting: +1 per (author, paper, category)."""
    store.check_year(ledger.year)
    categories_of = ledger.history.categories_of
    increments: dict[str, dict[str, float]] = {}
    for author, paper in ledger.update_links:
        profile = increments.setdefault(author, {})
        for category in categories_of[paper]:
            profile[category] = profile.get(category, 0.0) + 1.0
    store.apply_increments(ledger.year, increments)
    ledger.fold()
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
    history = History()
    counts_by_year: dict[int, dict[str, int]] = {}
    for year in range(start, stop + 1):
        ledger = timeline.ledger_for(year, history)
        if method == "dha":
            run_year_dha(store, ledger, weighted=weighted)
        else:
            run_year_bl(store, ledger)
        counts_by_year[year] = {a: len(ps) for a, ps in history.papers_of.items()}
    return store, counts_by_year
