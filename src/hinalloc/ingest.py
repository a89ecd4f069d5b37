"""File ingestion: link lists, paper-category tables, and the taxonomy.

Formats (UTF-8, tab-separated, ``#`` comment lines ignored):

* link list: ``year<TAB>author_label<TAB>paper_label``
* paper categories: ``paper_label<TAB>mesh_unique_id``
* taxonomy: ``mesh_unique_id<TAB>tree_id`` (repeat lines for extra tree IDs)

A paper is identified by (label, year): category rows attach to every yearly
instance of the label. A repeated link line is an error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .ledger import PaperKey, Timeline
from .meshtree import ParsedMeshTable, categories_for, parse_mesh_table


class DataFormatError(ValueError):
    """An input file failed to parse or referenced something unknown."""

    def __init__(self, path, line_no: int | None, message: str):
        self.path = str(path)
        self.line_no = line_no
        where = f"{path}:{line_no}" if line_no is not None else str(path)
        super().__init__(f"{where}: {message}")


def read_utf8(path: str | Path) -> str:
    """A file's text; a byte that is not UTF-8 is a data error at its line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise DataFormatError(path, line_no, f"not valid UTF-8: byte 0x{data[exc.start]:02x}") from None


def _data_lines(path: str | Path):
    text = read_utf8(path)
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield line_no, line


def read_link_file(path: str | Path) -> list[tuple[int, str, str]]:
    """(year, author, paper_label) records from a link-list file; a repeated record is an error."""
    records = []
    seen = set()
    for line_no, line in _data_lines(path):
        parts = line.split("\t")
        if len(parts) != 3:
            raise DataFormatError(path, line_no, f"expected 3 fields, got {len(parts)}")
        year_text, author, paper = (p.strip() for p in parts)
        try:
            year = int(year_text)
        except ValueError:
            raise DataFormatError(path, line_no, f"year is not an integer: {year_text!r}") from None
        if not author or not paper:
            raise DataFormatError(path, line_no, "empty author or paper label")
        record = (year, author, paper)
        if record in seen:
            raise DataFormatError(path, line_no, f"repeated link {year} {author} {paper}")
        seen.add(record)
        records.append(record)
    return records


def read_paper_mesh_file(path: str | Path) -> list[tuple[str, str]]:
    """(paper_label, mesh_unique_id) records."""
    records = []
    for line_no, line in _data_lines(path):
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataFormatError(path, line_no, f"expected 2 fields, got {len(parts)}")
        paper, unique_id = (p.strip() for p in parts)
        if not paper or not unique_id:
            raise DataFormatError(path, line_no, "empty paper label or unique ID")
        records.append((paper, unique_id))
    return records


def read_taxonomy_file(path: str | Path) -> ParsedMeshTable:
    return parse_mesh_table(read_utf8(path))


@dataclass
class Dataset:
    """A validated, year-grouped corpus plus its ingestion manifest."""

    timeline: Timeline
    manifest: dict = field(default_factory=dict)
    taxonomy_errors: list[tuple[int, str]] = field(default_factory=list)  # (line, message)


def load_dataset(links_path, mesh_path, taxonomy_path) -> Dataset:
    """Parse and cross-validate the three inputs.

    Papers whose unique IDs have no taxonomy entry (or that have no category
    row at all), and taxonomy lines that fail to parse, are kept out of the
    data and listed in the manifest (``require_categories`` rejects them); a
    category row naming a paper absent from the link list is an error.
    """
    links = read_link_file(links_path)
    mesh_records = read_paper_mesh_file(mesh_path)
    taxonomy = read_taxonomy_file(taxonomy_path)

    labels_in_links = {paper for _, _, paper in links}
    for paper, _ in mesh_records:
        if paper not in labels_in_links:
            raise DataFormatError(mesh_path, None, f"category row references unknown paper {paper!r}")

    unmapped: set[str] = set()
    categories_by_label: dict[str, dict[str, float]] = {}
    for paper, unique_id in mesh_records:
        cats = categories_for(unique_id, taxonomy)
        if not cats:
            unmapped.add(unique_id)
        bucket = categories_by_label.setdefault(paper, {})
        for cat in cats:
            bucket[cat] = 1.0

    links_by_year: dict[int, list[tuple[str, PaperKey]]] = {}
    mesh_by_paper: dict[PaperKey, dict[str, float]] = {}
    for year, author, label in links:
        key: PaperKey = (label, year)
        links_by_year.setdefault(year, []).append((author, key))
        cats = categories_by_label.get(label)
        if cats:
            mesh_by_paper[key] = dict(cats)

    paper_nodes = {key for pairs in links_by_year.values() for _, key in pairs}
    papers_without_categories = sorted(
        {label for label, _ in paper_nodes if not categories_by_label.get(label)}
    )
    all_categories = sorted({c for cats in categories_by_label.values() for c in cats})
    manifest = {
        "authors": len({a for _, a, _ in links}),
        "papers": len(paper_nodes),
        "categories": len(all_categories),
        "years": sorted(links_by_year),
        "links_per_year": {str(y): len(pairs) for y, pairs in sorted(links_by_year.items())},
        "unmapped_unique_ids": sorted(unmapped),
        "papers_without_categories": papers_without_categories,
        "taxonomy_errors": [f"line {n}: {msg}" for n, msg in taxonomy.errors],
    }
    return Dataset(Timeline(links_by_year, mesh_by_paper), manifest, taxonomy.errors)


def require_categories(dataset: Dataset, links_path, taxonomy_path) -> None:
    """A taxonomy line that failed to parse is an error at that line; then a paper
    with no category after taxonomy mapping is an error at its first link line."""
    if dataset.taxonomy_errors:
        line_no, message = dataset.taxonomy_errors[0]
        raise DataFormatError(taxonomy_path, line_no, message)
    missing = set(dataset.manifest["papers_without_categories"])
    if not missing:
        return
    for line_no, line in _data_lines(links_path):
        paper = line.split("\t")[2].strip()
        if paper in missing:
            raise DataFormatError(
                links_path, line_no, f"paper {paper!r} has no category after taxonomy mapping"
            )
