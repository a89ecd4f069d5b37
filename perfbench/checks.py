"""Output checks, computed from the input files without the hinalloc package.

Each check returns a list of error strings; an empty list means the output is
correct. The expected values come from plain counting over the generated TSV
files, so they do not share code with the engine they check.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

REL_TOL = 1e-5  # snapshots carry six significant digits
MAX_ERRORS = 5  # errors reported per check; the first few are enough to debug


@dataclass
class Corpus:
    links: list[tuple[int, str, str]]  # (year, author, paper label)
    categories: dict[str, set[str]]  # paper label -> depth-two categories

    @classmethod
    def read(cls, directory: Path) -> Corpus:
        tree = {}
        for unique_id, tree_id in _rows(directory / "taxonomy.tsv"):
            tree.setdefault(unique_id, set()).add(tree_id.split(".")[0])
        categories: dict[str, set[str]] = {}
        for label, unique_id in _rows(directory / "mesh.tsv"):
            categories.setdefault(label, set()).update(tree.get(unique_id, ()))
        links = [(int(y), a, p) for y, a, p in _rows(directory / "links.tsv")]
        return cls(links, categories)

    def cumulative_papers(self, years: tuple[int, int]):
        """Yield (year, author -> set of paper nodes) for each year of the window.

        A paper node is (label, year); the sets include every year up to the
        one yielded, as the engine's cumulative network does.
        """
        by_year: dict[int, list[tuple[str, tuple[str, int]]]] = {}
        for year, author, label in self.links:
            by_year.setdefault(year, []).append((author, (label, year)))
        papers: dict[str, set[tuple[str, int]]] = {}
        for year in range(min(by_year), years[1] + 1):
            for author, node in by_year.get(year, ()):
                papers.setdefault(author, set()).add(node)
            if year >= years[0]:
                yield year, papers

    def bl_counts(self, years: tuple[int, int]):
        """Yield (year, author -> category -> count) of the counting baseline.

        Every link adds one unit per category of its paper; duplicate links
        would count twice, as the engine's baseline does.
        """
        by_year: dict[int, list[tuple[str, str]]] = {}
        for year, author, label in self.links:
            by_year.setdefault(year, []).append((author, label))
        counts: dict[str, dict[str, float]] = {}
        for year in range(min(by_year), years[1] + 1):
            for author, label in by_year.get(year, ()):
                for category in self.categories.get(label, ()):
                    profile = counts.setdefault(author, {})
                    profile[category] = profile.get(category, 0.0) + 1.0
            if year >= years[0]:
                yield year, counts


def _rows(path: Path):
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            yield tuple(field.strip() for field in line.split("\t"))


def read_snapshots(path: Path, errors: list[str]) -> dict[int, dict[str, dict[str, float]]]:
    """Parse a snapshot file, noting malformed records and non-positive values."""
    snapshots: dict[int, dict[str, dict[str, float]]] = {}
    if not path.is_file():
        errors.append(f"{path.name}: missing")
        return snapshots
    with path.open(encoding="utf-8") as lines:
        for line_no, line in enumerate(lines, start=1):
            try:
                record = json.loads(line)
                year, author = int(record["year"]), str(record["author"])
                profile = {str(c): float(v) for c, v in record["expertise"].items()}
            except (KeyError, TypeError, ValueError, AttributeError):
                errors.append(f"{path.name}:{line_no}: malformed record")
                continue
            if not all(math.isfinite(v) and v > 0 for v in profile.values()):
                errors.append(f"{path.name}:{line_no}: value not finite and positive")
            if author in snapshots.setdefault(year, {}):
                errors.append(f"{path.name}:{line_no}: duplicate ({year}, {author})")
            snapshots[year][author] = profile
    return snapshots


def _report(errors: list[str], message: str) -> bool:
    """Append one error; False once enough errors are collected to stop looking."""
    errors.append(message)
    return len(errors) < MAX_ERRORS


def check_counting(snapshot_path: Path, corpus: Corpus, years: tuple[int, int], exact: bool) -> list[str]:
    """bl equals the independent count; dha (exact=False) has bl's cells with 0 < dha <= bl."""
    errors: list[str] = []
    snaps = read_snapshots(snapshot_path, errors)
    extra = set(snaps) - set(range(years[0], years[1] + 1))
    if extra:
        errors.append(f"years outside {years}: {sorted(extra)[:3]}")
    for year, counts in corpus.bl_counts(years):
        got = snaps.get(year, {})
        if got.keys() != counts.keys():
            missing, surplus = counts.keys() - got.keys(), got.keys() - counts.keys()
            errors.append(f"year {year}: authors missing {sorted(missing)[:3]}, surplus {sorted(surplus)[:3]}")
            break
        for author, expected in counts.items():
            profile = got[author]
            if exact:
                if profile != expected:
                    if not _report(errors, f"year {year} {author}: {profile} != count {expected}"):
                        return errors
            elif profile.keys() != expected.keys() or not all(
                0 < profile[c] <= n for c, n in expected.items()
            ):
                if not _report(errors, f"year {year} {author}: {profile} not within count {expected}"):
                    return errors
    return errors


def check_static(snapshot_path: Path, corpus: Corpus, years: tuple[int, int], variant: str) -> list[str]:
    """Every static variant scores exactly the cells the author has papers in.

    Cosine variants stay at most 1; unweighted hetesim must equal
    |P_a & P_m| / sqrt(|P_a| |P_m|) on the cumulative network.
    """
    errors: list[str] = []
    snaps = read_snapshots(snapshot_path, errors)
    extra = set(snaps) - set(range(years[0], years[1] + 1))
    if extra:
        errors.append(f"years outside {years}: {sorted(extra)[:3]}")
    bounded = not variant.endswith("_sum")
    for year, papers in corpus.cumulative_papers(years):
        by_category: dict[str, set] = {}
        for nodes in papers.values():
            for node in nodes:
                for category in corpus.categories.get(node[0], ()):
                    by_category.setdefault(category, set()).add(node)
        got = snaps.get(year, {})
        expected_authors = {a for a, nodes in papers.items() if any(corpus.categories.get(n[0]) for n in nodes)}
        if got.keys() != expected_authors:
            errors.append(f"year {year}: author set differs from the authors with categorized papers")
            break
        for author, profile in got.items():
            nodes = papers[author]
            cells = {c for n in nodes for c in corpus.categories.get(n[0], ())}
            if profile.keys() != cells:
                if not _report(errors, f"year {year} {author}: categories {sorted(profile)} != {sorted(cells)}"):
                    return errors
                continue
            for category, value in profile.items():
                if bounded and value > 1 + REL_TOL:
                    if not _report(errors, f"year {year} {author} {category}: cosine {value} > 1"):
                        return errors
                if variant == "hetesim":
                    in_m = by_category[category]
                    want = len(nodes & in_m) / math.sqrt(len(nodes) * len(in_m))
                    if not math.isclose(value, want, rel_tol=REL_TOL):
                        if not _report(errors, f"year {year} {author} {category}: {value} != {want:.6g}"):
                            return errors
    return errors


def check_manifest(path: Path, corpus: Corpus) -> list[str]:
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return [f"{path.name}: missing or not JSON"]
    expected = {
        "authors": len({a for _, a, _ in corpus.links}),
        "papers": len({(p, y) for y, _, p in corpus.links}),
        "categories": len({c for cats in corpus.categories.values() for c in cats}),
    }
    return [
        f"manifest {key} = {manifest.get(key)!r}, expected {value}"
        for key, value in expected.items()
        if manifest.get(key) != value
    ]


def check_summary(path: Path, years: tuple[int, int]) -> list[str]:
    """One mean and one std row per year, six numeric columns after year and stat.

    A measure over no authors is written as nan, so nan is accepted; infinity is not.
    """
    try:
        rows = [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()]
    except OSError:
        return [f"{path.name}: missing"]
    want = [(str(y), stat) for y in range(years[0], years[1] + 1) for stat in ("mean", "std")]
    errors = []
    if [tuple(r[:2]) for r in rows[1:]] != want:
        errors.append(f"{path.name}: rows do not list each year's mean and std")
    for row in rows[1:]:
        try:
            if len(row) != 8 or any(math.isinf(float(v)) for v in row[2:]):
                errors.append(f"{path.name}: bad row {row}")
        except ValueError:
            errors.append(f"{path.name}: non-numeric row {row}")
    return errors[:MAX_ERRORS]
