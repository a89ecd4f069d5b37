"""Bundled example networks and their reference score tables.

The three small static networks reproduce the reference score tables the
methods were calibrated against; the 10-year publication ledger exercises the
yearly engine and comes with reference expertise matrices for both methods.
Network 3 is a partial reconstruction: its author/paper structure reproduces
the baseline column, the focal-paper column on each author's home category,
and the weighted variants on those cells, but not every reference cell; tests
treat the remaining cells as diagnostic only.
"""

from __future__ import annotations

from pathlib import Path

from hinalloc.ledger import Timeline
from hinalloc.similarity import PaperNetwork

# ---------------------------------------------------------------------------
# static example networks

def example_network_1() -> PaperNetwork:
    """Two authors sharing one paper on M1, two solo M2 papers each."""
    links = [("A1", "P1"), ("A2", "P1"), ("A1", "P2"), ("A1", "P3"), ("A2", "P4"), ("A2", "P5")]
    mesh = [("P1", "M1"), ("P2", "M2"), ("P3", "M2"), ("P4", "M2"), ("P5", "M2")]
    return PaperNetwork.from_links(links, mesh)


def example_network_2() -> PaperNetwork:
    """A newcomer (A1) co-authoring with a prolific M1 author (A2); A3 split between topics."""
    links = [
        ("A1", "P1"),
        ("A1", "P2"), ("A2", "P2"),
        ("A2", "P3"), ("A2", "P4"), ("A2", "P5"),
        ("A3", "P6"), ("A3", "P7"),
    ]
    mesh = [("P1", "M1"), ("P2", "M1"), ("P3", "M1"), ("P4", "M1"), ("P5", "M1"),
            ("P6", "M1"), ("P7", "M2")]
    return PaperNetwork.from_links(links, mesh)


def example_network_3() -> PaperNetwork:
    """Two mirrored author pairs; the second author of each pair adds a second topic."""
    links = [
        ("A1", "P1"),
        ("A1", "P2"), ("A2", "P2"),
        ("A2", "P3"),
        ("A3", "P4"),
        ("A3", "P5"), ("A4", "P5"),
        ("A4", "P6"),
    ]
    mesh = [("P1", "M1"), ("P2", "M1"), ("P3", "M1"), ("P3", "M2"),
            ("P4", "M2"), ("P5", "M2"), ("P6", "M2"), ("P6", "M1")]
    return PaperNetwork.from_links(links, mesh)


# (author, category) -> method -> reference value, at three printed decimals
TABLE_NETWORK_1 = {
    ("A1", "M1"): {"bl": 0.577, "hetesim": 0.577, "ha1": 0.577, "ha2": 0.577, "ha3": 0.577,
                   "wha1": 0.577, "wha2": 0.577, "wha3": 0.577},
    ("A1", "M2"): {"bl": 0.816, "hetesim": 0.577, "ha1": 0.577, "ha2": 0.816, "ha3": 0.816,
                   "wha1": 0.577, "wha2": 0.816, "wha3": 0.816},
    ("A2", "M1"): {"bl": 0.577, "hetesim": 0.577, "ha1": 0.577, "ha2": 0.577, "ha3": 0.577,
                   "wha1": 0.577, "wha2": 0.577, "wha3": 0.577},
    ("A2", "M2"): {"bl": 0.816, "hetesim": 0.577, "ha1": 0.577, "ha2": 0.816, "ha3": 0.816,
                   "wha1": 0.577, "wha2": 0.816, "wha3": 0.816},
}

TABLE_NETWORK_2 = {
    ("A1", "M1"): {"bl": 1.0, "hetesim": 0.577, "ha1": 0.632, "ha2": 0.632, "ha3": 0.816,
                   "wha1": 0.632, "wha2": 0.632, "wha3": 0.816},
    ("A1", "M2"): {"bl": 0.0, "hetesim": 0.0, "ha1": 0.0, "ha2": 0.0, "ha3": 0.0,
                   "wha1": 0.0, "wha2": 0.0, "wha3": 0.0},
    ("A2", "M1"): {"bl": 1.0, "hetesim": 0.816, "ha1": 0.894, "ha2": 0.894, "ha3": 0.973,
                   "wha1": 0.894, "wha2": 0.894, "wha3": 0.973},
    ("A2", "M2"): {"bl": 0.0, "hetesim": 0.0, "ha1": 0.0, "ha2": 0.0, "ha3": 0.0,
                   "wha1": 0.0, "wha2": 0.0, "wha3": 0.0},
    ("A3", "M1"): {"bl": 0.707, "hetesim": 0.288, "ha1": 0.707, "ha2": 0.707, "ha3": 0.707,
                   "wha1": 0.707, "wha2": 0.707, "wha3": 0.707},
    ("A3", "M2"): {"bl": 0.707, "hetesim": 0.707, "ha1": 0.707, "ha2": 0.707, "ha3": 0.707,
                   "wha1": 0.707, "wha2": 0.707, "wha3": 0.707},
}

TABLE_NETWORK_3 = {
    ("A1", "M1"): {"bl": 1.0, "hetesim": 0.943, "ha1": 0.816, "ha2": 0.816, "ha3": 0.908,
                   "wha1": 0.943, "wha2": 0.943, "wha3": 0.971},
    ("A1", "M2"): {"bl": 0.0, "hetesim": 0.0, "ha1": 0.0, "ha2": 0.0, "ha3": 0.0,
                   "wha1": 0.0, "wha2": 0.0, "wha3": 0.0},
    ("A2", "M1"): {"bl": 0.816, "hetesim": 0.707, "ha1": 0.816, "ha2": 0.816, "ha3": 0.908,
                   "wha1": 0.707, "wha2": 0.707, "wha3": 0.828},
    ("A2", "M2"): {"bl": 0.577, "hetesim": 0.236, "ha1": 0.5, "ha2": 0.5, "ha3": 0.5,
                   "wha1": 0.316, "wha2": 0.316, "wha3": 0.316},
    ("A3", "M1"): {"bl": 0.0, "hetesim": 0.0, "ha1": 0.0, "ha2": 0.0, "ha3": 0.0,
                   "wha1": 0.0, "wha2": 0.0, "wha3": 0.0},
    ("A3", "M2"): {"bl": 1.0, "hetesim": 0.943, "ha1": 0.816, "ha2": 0.816, "ha3": 0.908,
                   "wha1": 0.943, "wha2": 0.943, "wha3": 0.971},
    ("A4", "M1"): {"bl": 0.577, "hetesim": 0.236, "ha1": 0.5, "ha2": 0.5, "ha3": 0.5,
                   "wha1": 0.316, "wha2": 0.316, "wha3": 0.316},
    ("A4", "M2"): {"bl": 0.816, "hetesim": 0.707, "ha1": 0.816, "ha2": 0.816, "ha3": 0.908,
                   "wha1": 0.707, "wha2": 0.707, "wha3": 0.828},
}

# cells of the network-3 table that the partial reconstruction is expected to
# reproduce (baseline everywhere; focal-paper and weighted columns on each
# author's primary category)
NETWORK_3_GATED = {
    "bl": [("A1", "M1"), ("A1", "M2"), ("A2", "M1"), ("A2", "M2"),
           ("A3", "M1"), ("A3", "M2"), ("A4", "M1"), ("A4", "M2")],
    "ha3": [("A1", "M1"), ("A1", "M2"), ("A2", "M1"), ("A3", "M1"), ("A3", "M2"), ("A4", "M2")],
}

TABLE_METHODS = ("bl", "hetesim", "ha1", "ha2", "ha3", "wha1", "wha2", "wha3")


def score_for_table(net: PaperNetwork, method: str, author: str, mesh: str) -> float:
    """Evaluate one reference-table cell; ``wha*`` selects the weighted variant."""
    weighted = method.startswith("w")
    base = method[1:] if weighted else method
    return net.score(base, author, mesh, weighted=weighted, aggregation="average")


# ---------------------------------------------------------------------------
# the 10-year illustrative publication ledger

AUTHOR_ORDER = ("A1", "A2", "A3", "A4")
CATEGORY_ORDER = ("M01", "M02", "M03")

# (paper label, authors, categories); one batch per year
_EARLY_BLOCK = (
    ("P1", ("A1",), ("M02", "M03")),
    ("P2", ("A2",), ("M01", "M03")),
    ("P3", ("A2",), ("M01",)),
    ("P4", ("A3",), ("M02", "M03")),
    ("P5", ("A3",), ("M02",)),
    ("P6", ("A4",), ("M01", "M03")),
)
# from year 6 the authors pair up, two papers per collaboration per year
_LATE_BLOCK = (
    ("P1a", ("A1", "A2"), ("M02", "M03")),
    ("P1b", ("A1", "A2"), ("M02", "M03")),
    ("P2a", ("A2", "A3"), ("M01", "M02")),
    ("P2b", ("A2", "A3"), ("M01", "M02")),
    ("P3a", ("A3", "A4"), ("M01", "M03")),
    ("P3b", ("A3", "A4"), ("M01", "M03")),
)


def illustrative_publications(year: int):
    """The (label, authors, categories) batch published in one year (1..10)."""
    return _EARLY_BLOCK if year <= 5 else _LATE_BLOCK


def illustrative_timeline() -> Timeline:
    links_by_year: dict[int, list] = {}
    mesh_by_paper: dict[tuple, dict[str, float]] = {}
    for year in range(1, 11):
        batch = illustrative_publications(year)
        links = []
        for label, authors, categories in batch:
            key = (label, year)
            mesh_by_paper[key] = {c: 1.0 for c in categories}
            for author in authors:
                links.append((author, key))
        links_by_year[year] = links
    return Timeline(links_by_year, mesh_by_paper)


# reference expertise matrices, rows A1..A4, columns M01..M03
REFERENCE_BL = {
    1: [[0, 1, 1], [2, 0, 1], [0, 2, 1], [1, 0, 1]],
    2: [[0, 2, 2], [4, 0, 2], [0, 4, 2], [2, 0, 2]],
    3: [[0, 3, 3], [6, 0, 3], [0, 6, 3], [3, 0, 3]],
    4: [[0, 4, 4], [8, 0, 4], [0, 8, 4], [4, 0, 4]],
    5: [[0, 5, 5], [10, 0, 5], [0, 10, 5], [5, 0, 5]],
    6: [[0, 7, 7], [12, 4, 7], [4, 12, 7], [7, 0, 7]],
    7: [[0, 9, 9], [14, 8, 9], [8, 14, 9], [9, 0, 9]],
    8: [[0, 11, 11], [16, 12, 11], [12, 16, 11], [11, 0, 11]],
    9: [[0, 13, 13], [18, 16, 13], [16, 18, 13], [13, 0, 13]],
    10: [[0, 15, 15], [20, 20, 15], [20, 20, 15], [15, 0, 15]],
}

REFERENCE_DHA = {
    1: [[0, 1, 1], [2, 0, 1], [0, 2, 1], [1, 0, 1]],
    2: [[0, 1.95, 1.95], [3.95, 0, 1.84], [0, 3.95, 1.84], [3.95, 0, 1.84]],
    3: [[0, 2.86, 2.86], [5.88, 0, 2.61], [0, 5.88, 2.61], [2.86, 0, 2.86]],
    4: [[0, 3.76, 3.76], [7.82, 0, 3.33], [0, 7.82, 3.33], [3.76, 0, 3.76]],
    5: [[0, 4.64, 4.64], [9.75, 0, 4.02], [0, 9.75, 4.02], [4.64, 0, 4.64]],
    6: [[0, 5.94, 5.79], [11.15, 0.34, 4.86], [0.34, 11.15, 4.86], [5.94, 0, 5.79]],
    7: [[0, 7.22, 6.93], [12.54, 0.72, 5.69], [0.72, 12.54, 5.69], [7.22, 0, 6.93]],
    8: [[0, 8.50, 8.05], [13.92, 1.14, 6.52], [1.14, 13.92, 6.52], [8.50, 0, 8.05]],
    9: [[0, 9.76, 9.15], [15.3, 1.61, 7.33], [1.61, 15.3, 7.33], [9.76, 0, 9.15]],
    10: [[0, 11.02, 10.25], [16.66, 2.12, 8.14], [2.12, 16.66, 8.14], [10.25, 0, 11.02]],
}


def store_matrix(snapshot: dict[str, dict[str, float]]) -> list[list[float]]:
    """A store snapshot as a dense matrix in the fixture's author/category order."""
    return [
        [snapshot.get(a, {}).get(c, 0.0) for c in CATEGORY_ORDER]
        for a in AUTHOR_ORDER
    ]


# ---------------------------------------------------------------------------
# on-disk forms of the fixtures, in the CLI's input formats

_CATEGORY_UNIQUE_IDS = {"M01": "D000001", "M02": "D000002", "M03": "D000003"}


def write_illustrative_corpus(directory: str | Path) -> dict[str, Path]:
    """Write the 10-year ledger as links/mesh/taxonomy files; returns the paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    links_path = directory / "links.tsv"
    mesh_path = directory / "mesh.tsv"
    taxonomy_path = directory / "taxonomy.tsv"

    link_lines = ["# year\tauthor\tpaper"]
    mesh_pairs: dict[tuple[str, str], None] = {}
    for year in range(1, 11):
        for label, authors, categories in illustrative_publications(year):
            for author in authors:
                link_lines.append(f"{year}\t{author}\t{label}")
            for category in categories:
                mesh_pairs[(label, _CATEGORY_UNIQUE_IDS[category])] = None
    links_path.write_text("\n".join(link_lines) + "\n", encoding="utf-8")
    mesh_path.write_text(
        "\n".join(f"{p}\t{uid}" for p, uid in mesh_pairs) + "\n", encoding="utf-8"
    )
    taxonomy_path.write_text(
        "\n".join(f"{uid}\t{cat}" for cat, uid in sorted(_CATEGORY_UNIQUE_IDS.items())) + "\n",
        encoding="utf-8",
    )
    return {"links": links_path, "mesh": mesh_path, "taxonomy": taxonomy_path}


def write_network2_corpus(directory: str | Path) -> dict[str, Path]:
    """Write example network 2 as a single-year corpus; category names become M01/M02."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    links = [
        ("A1", "P1"), ("A1", "P2"), ("A2", "P2"), ("A2", "P3"), ("A2", "P4"),
        ("A2", "P5"), ("A3", "P6"), ("A3", "P7"),
    ]
    mesh = [("P1", "D000001"), ("P2", "D000001"), ("P3", "D000001"), ("P4", "D000001"),
            ("P5", "D000001"), ("P6", "D000001"), ("P7", "D000002")]
    links_path = directory / "links.tsv"
    mesh_path = directory / "mesh.tsv"
    taxonomy_path = directory / "taxonomy.tsv"
    links_path.write_text(
        "\n".join(f"1\t{a}\t{p}" for a, p in links) + "\n", encoding="utf-8"
    )
    mesh_path.write_text("\n".join(f"{p}\t{u}" for p, u in mesh) + "\n", encoding="utf-8")
    taxonomy_path.write_text("D000001\tM01\nD000002\tM02\n", encoding="utf-8")
    return {"links": links_path, "mesh": mesh_path, "taxonomy": taxonomy_path}
