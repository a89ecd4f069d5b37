"""Static relevance and allocation scores on author-paper-category networks.

Every static score is one cosine, counted over label sets. For author a with
papers P and category m with papers M_m, inside a paper mask S that always
contains P:

    Σ_{P∩M_m} w / sqrt(|P| · Σ_{S∩M_m} w²)

where w = 1, or for the weighted variants w_p = 1/|categories of p|, so a
paper's categories split one unit of weight between them. Only the mask
differs between the methods:

* ``hetesim``: every paper. This is HeteSim path relevance over
  author-paper-category (Shi et al., TKDE 2014).
* ``ha1``: papers of the author and of anyone they ever co-authored with.
* ``ha2``: papers of the author, plus papers of the co-authors on the author's
  papers in m.
* ``ha3``: per focal paper of the author in m, all papers of that paper's
  authors; per-paper scores are combined by sum (credit reading) or average
  (similarity reading).

``bl`` is the counting baseline read as a similarity: the square root of the
share of the author's (paper, category) incidences that fall on m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

SUM = "sum"
AVERAGE = "average"
AGGREGATIONS = (SUM, AVERAGE)


def weighted_incidence(categories_of: dict[object, set]) -> dict[object, float]:
    """Paper -> weight, each paper's unit weight split evenly across its categories."""
    return {p: 1.0 / len(cats) for p, cats in categories_of.items()}


def _mass(papers, weights) -> float:
    """Σ w over the papers; their number when unweighted."""
    return len(papers) if weights is None else math.fsum(map(weights.__getitem__, papers))


def _square_mass(papers, weights) -> float:
    """Σ w² over the papers; their number when unweighted."""
    return len(papers) if weights is None else math.fsum([weights[p] * weights[p] for p in papers])


@dataclass
class PaperNetwork:
    """A static author-paper-category network held as label sets."""

    papers_of: dict[str, set]  # author -> papers
    authors_of: dict[object, set]  # paper -> authors
    categories_of: dict[object, set]  # paper -> categories
    papers_in: dict[str, set]  # category -> papers
    _weights: dict | None = field(default=None, init=False, repr=False)
    _norms: dict = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def from_links(cls, author_paper, paper_mesh) -> PaperNetwork:
        """Build from (author, paper) and (paper, category) label pairs."""
        papers_of: dict[str, set] = {}
        authors_of: dict[object, set] = {}
        for a, p in author_paper:
            papers_of.setdefault(a, set()).add(p)
            authors_of.setdefault(p, set()).add(a)
        categories_of: dict[object, set] = {}
        papers_in: dict[str, set] = {}
        for p, m in paper_mesh:
            if p not in authors_of:
                raise ValueError(f"category link references unknown paper {p!r}")
            categories_of.setdefault(p, set()).add(m)
            papers_in.setdefault(m, set()).add(p)
        return cls(papers_of, authors_of, categories_of, papers_in)

    def _papers_by(self, authors) -> set:
        return set().union(*map(self.papers_of.__getitem__, authors))

    def _authors_on(self, papers) -> set:
        return set().union(*map(self.authors_of.__getitem__, papers))

    def _category_norm(self, mesh: str, weights) -> float:
        """Hetesim's Σ_{M_m} w², once per category and weighting."""
        key = (mesh, weights is not None)
        if key not in self._norms:
            self._norms[key] = _square_mass(self.papers_in[mesh], weights)
        return self._norms[key]

    def score(self, method: str, author: str, mesh: str, weighted: bool = False,
              aggregation: str = AVERAGE) -> float:
        own, in_m = self.papers_of[author], self.papers_in[mesh]
        focal = own & in_m
        if method == "bl":
            if weighted:
                raise ValueError("the baseline has no weighted variant")
            if not focal:
                return 0.0
            incidences = sum(len(self.categories_of.get(p, ())) for p in own)
            return math.sqrt(len(focal) / incidences)
        if method not in ("hetesim", "ha1", "ha2", "ha3"):
            raise ValueError(f"unknown method {method!r}")
        if aggregation not in AGGREGATIONS:
            raise ValueError(f"aggregation must be one of {AGGREGATIONS}, got {aggregation!r}")
        if weighted and self._weights is None:
            self._weights = weighted_incidence(self.categories_of)
        weights = self._weights if weighted else None
        num = _mass(focal, weights)
        if not num:
            return 0.0
        if method == "hetesim":
            squares = [self._category_norm(mesh, weights)]
        elif method == "ha1":
            squares = [_square_mass(self._papers_by(self._authors_on(own)) & in_m, weights)]
        elif method == "ha2":
            mask = own | self._papers_by(self._authors_on(focal))
            squares = [_square_mass(mask & in_m, weights)]
        else:  # one mask per focal paper, summed in sorted paper order
            squares = [
                _square_mass(self._papers_by(self.authors_of[p]) & in_m, weights)
                for p in sorted(focal)
            ]
        total = sum([num / math.sqrt(len(own) * sq) for sq in squares])
        return total / len(squares) if aggregation == AVERAGE else total
