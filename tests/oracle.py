"""Independent reference evaluators used to check the package's kernels.

Everything here works on plain sets of papers, authors, and categories and
recomputes every mask from the paper list; no code is shared with the
package's kernels or with the matrix-form reference, so agreement between the
routes is meaningful.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations_with_replacement

from hinalloc.ledger import Timeline
from hinalloc.similarity import PaperNetwork


@dataclass(frozen=True)
class OracleNet:
    """Papers as (authors, categories) pairs; paper identity is the position."""

    papers: tuple[tuple[frozenset[str], frozenset[str]], ...]

    def authors(self) -> list[str]:
        return sorted({a for auths, _ in self.papers for a in auths})

    def meshes(self) -> list[str]:
        return sorted({m for _, cats in self.papers for m in cats})

    def papers_of(self, a: str) -> frozenset[int]:
        return self._positions[0].get(a, frozenset())

    def papers_with(self, m: str) -> frozenset[int]:
        return self._positions[1].get(m, frozenset())

    @cached_property
    def _positions(self) -> tuple[dict[str, frozenset[int]], dict[str, frozenset[int]]]:
        """Label -> positions of the papers that list it: authors, then categories."""
        by_author: dict[str, set[int]] = {}
        by_mesh: dict[str, set[int]] = {}
        for i, (auths, cats) in enumerate(self.papers):
            for a in auths:
                by_author.setdefault(a, set()).add(i)
            for m in cats:
                by_mesh.setdefault(m, set()).add(i)
        return tuple({k: frozenset(v) for k, v in d.items()} for d in (by_author, by_mesh))

    def weight(self, p: int, m: str) -> float:
        cats = self.papers[p][1]
        return 1.0 / len(cats) if m in cats else 0.0


def to_paper_network(net: OracleNet) -> PaperNetwork:
    links = [(a, f"P{i}") for i, (auths, _) in enumerate(net.papers) for a in sorted(auths)]
    mesh = [(f"P{i}", m) for i, (_, cats) in enumerate(net.papers) for m in sorted(cats)]
    return PaperNetwork.from_links(links, mesh)


def score(net: OracleNet, a: str, m: str, mask: set[int], weighted: bool = False) -> float:
    """Cosine of the author's papers against the masked category column."""
    mine = net.papers_of(a)
    masked = mask & net.papers_with(m)
    if weighted:
        num = sum(net.weight(p, m) for p in mine & masked)
        norm_sq = sum(net.weight(p, m) ** 2 for p in masked)
    else:
        num = len(mine & masked)
        norm_sq = len(masked)
    if not num or not norm_sq:
        return 0.0
    return num / math.sqrt(len(mine) * norm_sq)


def ha1_mask(net: OracleNet, a: str) -> set[int]:
    coauthors = {x for p in net.papers_of(a) for x in net.papers[p][0]}
    return {i for i, (auths, _) in enumerate(net.papers) if auths & coauthors}


def ha2_mask(net: OracleNet, a: str, m: str) -> set[int]:
    qualifying = {
        x for p in net.papers_of(a) & net.papers_with(m) for x in net.papers[p][0]
    }
    reached = {i for i, (auths, _) in enumerate(net.papers) if auths & qualifying}
    return reached | net.papers_of(a)


def ha3_mask(net: OracleNet, p: int) -> set[int]:
    focal_authors = net.papers[p][0]
    return {i for i, (auths, _) in enumerate(net.papers) if auths & focal_authors}


def static_scores(net: OracleNet, a: str, m: str) -> dict[tuple[str, bool, str], float]:
    """hetesim, ha1, ha2 and ha3 (sum and average), unweighted and weighted, keyed
    (method, weighted, aggregation); each mask is built once and scored both ways."""
    masks = {
        "hetesim": set(range(len(net.papers))),
        "ha1": ha1_mask(net, a),
        "ha2": ha2_mask(net, a, m),
    }
    focal_masks = [ha3_mask(net, p) for p in sorted(net.papers_of(a) & net.papers_with(m))]
    out = {}
    for weighted in (False, True):
        for method, mask in masks.items():
            out[method, weighted, "average"] = score(net, a, m, mask, weighted)
        terms = [score(net, a, m, mask, weighted) for mask in focal_masks]
        out["ha3", weighted, "sum"] = sum(terms)
        out["ha3", weighted, "average"] = sum(terms) / len(terms) if terms else 0.0
    return out


def baseline(net: OracleNet, a: str, m: str) -> float:
    mine = net.papers_of(a)
    count = len(mine & net.papers_with(m))
    if not count:
        return 0.0
    total = sum(len(net.papers[p][1]) for p in mine)
    return math.sqrt(count / total)


# ---------------------------------------------------------------------------
# yearly engine reference

def dha_replay(years: list[list[tuple[str, frozenset[str], frozenset[str]]]], weighted: bool = False):
    """Replay (label, authors, categories) batches; returns per-year cumulative stores.

    Set-theoretic counting route: per paper p and author a, credit on category m
    is Σ w over a's prior papers plus p that carry m, over sqrt((a's prior papers
    + 1) times Σ w² over the co-author-union prior papers plus p that carry m),
    with w = 1, or w_q = 1/|categories of q| when weighted.
    """
    experience: dict[str, set] = {}
    store: dict[str, dict[str, float]] = {}
    mesh_of: dict = {}
    snapshots = []

    def w(q) -> float:
        return 1.0 / len(mesh_of[q]) if weighted else 1.0

    for batch in years:
        increments: dict[str, dict[str, float]] = {}
        for label, auths, cats in batch:
            mesh_of[label] = cats
            mask = {label}
            for x in auths:
                mask |= experience.get(x, set())
            for a in auths:
                own = experience.get(a, set()) | {label}
                for m in cats:
                    num = sum(w(q) for q in own if m in mesh_of[q])
                    norm_sq = sum(w(q) ** 2 for q in mask if m in mesh_of[q])
                    value = num / math.sqrt(len(own) * norm_sq)
                    increments.setdefault(a, {}).setdefault(m, 0.0)
                    increments[a][m] += value
        for a, per_cat in increments.items():
            profile = store.setdefault(a, {})
            for m, v in per_cat.items():
                profile[m] = profile.get(m, 0.0) + v
        for label, auths, _ in batch:
            for a in auths:
                experience.setdefault(a, set()).add(label)
        snapshots.append({a: dict(p) for a, p in store.items()})
    return snapshots


def bl_replay(years: list[list[tuple[str, frozenset[str], frozenset[str]]]]):
    store: dict[str, dict[str, float]] = {}
    snapshots = []
    for batch in years:
        for _, auths, cats in batch:
            for a in auths:
                profile = store.setdefault(a, {})
                for m in cats:
                    profile[m] = profile.get(m, 0.0) + 1.0
        snapshots.append({a: dict(p) for a, p in store.items()})
    return snapshots


# ---------------------------------------------------------------------------
# generators

def random_net(rng: random.Random, max_authors=6, max_papers=10, max_mesh=4) -> OracleNet:
    n_a = rng.randint(1, max_authors)
    n_m = rng.randint(1, max_mesh)
    n_p = rng.randint(1, max_papers)
    authors = [f"A{i}" for i in range(n_a)]
    meshes = [f"M{i}" for i in range(n_m)]
    papers = []
    for _ in range(n_p):
        auths = frozenset(rng.sample(authors, rng.randint(1, min(3, n_a))))
        cats = frozenset(rng.sample(meshes, rng.randint(1, n_m)))
        papers.append((auths, cats))
    return OracleNet(tuple(papers))


def random_batches(rng: random.Random, n_years=3, max_authors=5, max_papers=4, max_mesh=3):
    """Random multi-year publication batches with unique labels per year."""
    authors = [f"A{i}" for i in range(rng.randint(1, max_authors))]
    meshes = [f"M{i}" for i in range(rng.randint(1, max_mesh))]
    batches = []
    for year in range(n_years):
        batch = []
        for j in range(rng.randint(0, max_papers)):
            auths = frozenset(rng.sample(authors, rng.randint(1, min(3, len(authors)))))
            cats = frozenset(rng.sample(meshes, rng.randint(1, len(meshes))))
            batch.append((f"P{year}_{j}", auths, cats))
        batches.append(batch)
    return batches


def batches_to_timeline(batches) -> Timeline:
    links_by_year: dict[int, list] = {}
    mesh_by_paper: dict = {}
    for year, batch in enumerate(batches, start=1):
        links = []
        for label, auths, cats in batch:
            key = (label, year)
            mesh_by_paper[key] = {c: 1.0 for c in sorted(cats)}
            for a in sorted(auths):
                links.append((a, key))
        links_by_year[year] = links
    return Timeline(links_by_year, mesh_by_paper)


def exhaustive_nets(max_authors=3, max_papers=4, max_mesh=2):
    """Every network (up to paper order) with the given size bounds."""
    authors = [f"A{i}" for i in range(max_authors)]
    meshes = [f"M{i}" for i in range(max_mesh)]
    author_subsets = [
        frozenset(a for i, a in enumerate(authors) if bits >> i & 1)
        for bits in range(1, 2 ** max_authors)
    ]
    mesh_subsets = [
        frozenset(m for i, m in enumerate(meshes) if bits >> i & 1)
        for bits in range(1, 2 ** max_mesh)
    ]
    configs = [(a, m) for a in author_subsets for m in mesh_subsets]
    for count in range(0, max_papers + 1):
        for combo in combinations_with_replacement(range(len(configs)), count):
            yield OracleNet(tuple(configs[i] for i in combo))
