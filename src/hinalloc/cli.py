"""Command-line pipeline: ingest link lists, run a method over years, compare runs.

Exit codes: 0 success, 1 usage error, 2 data error. Output files are written
atomically (temp file + rename) so a failed run leaves nothing truncated.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

from . import dynamic, metrics
from .ingest import DataFormatError, load_dataset, read_link_file, read_utf8, require_categories
from .ledger import LedgerError
from .meshtree import MeshFormatError
from .similarity import AGGREGATIONS, AVERAGE, PaperNetwork

METHODS = ("bl", "hetesim", "ha1", "ha2", "ha3", "dha")


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are exit 1 here
        raise UsageError(message)


@dataclass
class RunConfig:
    method: str
    weighted: bool
    aggregation: str
    first_year: int
    last_year: int

    def validate(self) -> None:
        if self.method not in METHODS:
            raise UsageError(f"unknown method {self.method!r}")
        if self.method != "ha3" and self.aggregation != AVERAGE:
            raise UsageError("--agg is only valid with --method ha3")
        if self.weighted and self.method == "bl":
            raise UsageError("--weighted is invalid with --method bl")
        if self.first_year > self.last_year:
            raise UsageError(f"empty year range {self.first_year}:{self.last_year}")


def _parse_years(text: str) -> tuple[int, int]:
    try:
        first, last = text.split(":")
        return int(first), int(last)
    except ValueError:
        raise UsageError(f"--years must look like FROM:TO, got {text!r}") from None


def _out_dir(text: str) -> Path:
    out_dir = Path(text)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"--out {text!r} is not a usable directory: {exc.strerror}") from None
    return out_dir


def _atomic_write(path: Path, text: str) -> None:
    """Write through a temp file unique to this call, so concurrent runs never share one."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)  # the mode a plain open() would give
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _snapshot_lines(snapshots: dict[int, dict[str, dict[str, float]]]) -> str:
    """One compact JSON record per (year, author), sorted by both, values cut to six
    significant digits; the bytes ``json.dumps`` would give, built by hand."""
    quote = json.encoder.encode_basestring_ascii
    lines = []
    for year in sorted(snapshots):
        per_author = snapshots[year]
        head = f'{{"year":{year},"author":'
        for author in sorted(per_author):
            cells = ",".join([
                f"{quote(c)}:{float(f'{v:.6g}')!r}" for c, v in sorted(per_author[author].items())
            ])
            lines.append(f'{head}{quote(author)},"expertise":{{{cells}}}}}')
    return "\n".join(lines) + "\n" if lines else ""


def _read_snapshots(path: Path) -> dict[int, dict[str, dict[str, float]]]:
    """Snapshot records, which must come in strictly increasing (year, author)
    order with finite, non-negative values."""
    snapshots: dict[int, dict[str, dict[str, float]]] = {}
    last = None
    text = read_utf8(path)
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            year = int(record["year"])
            author = record["author"]
            expertise = {str(c): float(v) for c, v in record["expertise"].items()}
            key = (year, author)
            ordered = last is None or key > last
        except (KeyError, TypeError, ValueError, json.JSONDecodeError):
            raise DataFormatError(path, line_no, "malformed snapshot record") from None
        if not ordered:
            problem = "repeated" if key == last else "out of order: after " + repr(last)
            raise DataFormatError(path, line_no, f"record {key!r} is {problem}")
        for category, value in expertise.items():
            if not 0.0 <= value < math.inf:
                raise DataFormatError(
                    path, line_no, f"value {value!r} of {category!r} is not finite and non-negative"
                )
        snapshots.setdefault(year, {})[author] = expertise
        last = key
    return snapshots


def cmd_ingest(args) -> int:
    out_dir = _out_dir(args.out) if args.out else None
    dataset = load_dataset(args.links, args.mesh, args.taxonomy)
    text = json.dumps(dataset.manifest, indent=2, sort_keys=True)
    if out_dir:
        _atomic_write(out_dir / "manifest.json", text + "\n")
    print(text)
    return 0


def _static_snapshots(dataset, config: RunConfig) -> dict[int, dict[str, dict[str, float]]]:
    """Per-year static scores over the cumulative network of papers up to each year."""
    snapshots: dict[int, dict[str, dict[str, float]]] = {}
    timeline = dataset.timeline
    links: list = []
    mesh_pairs: list = []
    for year in range(min([config.first_year, *timeline.links_by_year]), config.last_year + 1):
        new_links = timeline.links_by_year.get(year, [])
        links.extend(new_links)
        for key in sorted({key for _, key in new_links}):
            for category in sorted(timeline.mesh_by_paper.get(key, {})):
                mesh_pairs.append((key, category))
        if year < config.first_year:
            continue
        if not links:
            snapshots[year] = {}
            continue
        net = PaperNetwork.from_links(links, mesh_pairs)
        per_author: dict[str, dict[str, float]] = {}
        for author in sorted(net.papers_of):
            categories = sorted(
                {m for p in net.papers_of[author] for m in net.categories_of.get(p, ())}
            )
            profile = {}
            for category in categories:
                value = net.score(
                    config.method, author, category,
                    weighted=config.weighted, aggregation=config.aggregation,
                )
                if value:
                    profile[category] = value
            if profile:
                per_author[author] = profile
        snapshots[year] = per_author
    return snapshots


def cmd_run(args) -> int:
    first_year, last_year = _parse_years(args.years)
    config = RunConfig(
        method=args.method,
        weighted=args.weighted,
        aggregation=args.agg,
        first_year=first_year,
        last_year=last_year,
    )
    config.validate()
    out_dir = _out_dir(args.out)
    dataset = load_dataset(args.links, args.mesh, args.taxonomy)
    require_categories(dataset, args.links, args.taxonomy)

    if config.method in dynamic.DYNAMIC_METHODS:
        store, _ = dynamic.run_series(
            config.method,
            dataset.timeline,
            last_year=config.last_year,
            weighted=config.weighted,
        )
        snapshots = {
            year: store.snapshot(year)
            for year in store.snapshots
            if config.first_year <= year <= config.last_year
        }
    else:
        snapshots = _static_snapshots(dataset, config)

    name = config.method
    if config.weighted:
        name += "_weighted"
    if config.method == "ha3":
        name += f"_{config.aggregation}"
    out_path = out_dir / f"{name}.jsonl"
    _atomic_write(out_path, _snapshot_lines(snapshots))
    print(out_path)
    return 0


def _paper_counts_by_year(link_records, years) -> dict[int, dict[str, int]]:
    """Cumulative distinct-paper counts per author at each requested year."""
    wanted = set(years)
    events: dict[int, list] = {}
    for year, author, label in link_records:
        events.setdefault(year, []).append((author, (label, year)))
    counts: dict[int, dict[str, int]] = {y: {} for y in wanted}
    if not events:
        return counts
    seen: dict[str, set] = {}
    for year in range(min(events), max(wanted) + 1):
        for author, key in events.get(year, []):
            seen.setdefault(author, set()).add(key)
        if year in wanted:
            counts[year] = {a: len(ps) for a, ps in seen.items()}
    return counts


def cmd_compare(args) -> int:
    out_dir = _out_dir(args.out)
    path_a, path_b = Path(args.snapshots[0]), Path(args.snapshots[1])
    snaps_a, snaps_b = _read_snapshots(path_a), _read_snapshots(path_b)
    label_a, label_b = path_a.stem, path_b.stem
    if label_a == label_b:
        label_a, label_b = f"{label_a}_a", f"{label_b}_b"

    years_a, years_b = set(snaps_a), set(snaps_b)
    if args.years:
        first, last = _parse_years(args.years)
        wanted = set(range(first, last + 1))
        years_a &= wanted
        years_b &= wanted
    if not years_a or years_a != years_b:
        raise DataFormatError(
            path_b, None,
            f"year ranges do not align: {sorted(years_a)} vs {sorted(years_b)}",
        )
    years = sorted(years_a)

    counts = _paper_counts_by_year(read_link_file(args.links), years)

    measures = {
        label: {
            year: metrics.measure_values(snaps.get(year, {}), counts.get(year, {}), args.min_papers)
            for year in years
        }
        for label, snaps in ((label_a, snaps_a), (label_b, snaps_b))
    }
    rows = metrics.yearly_summary(measures, years)
    summary = metrics.format_summary_table(rows, (label_a, label_b))
    _atomic_write(out_dir / "summary.tsv", summary)

    for label, per_year in measures.items():
        for year, (_, _, prod_values) in per_year.items():
            hist = metrics.histogram(prod_values)
            _atomic_write(out_dir / f"hist_{label}_{year}.tsv", metrics.format_histogram(hist))
    print(out_dir / "summary.tsv")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="hinalloc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_ingest = sub.add_parser("ingest", help="validate inputs and write a dataset manifest")
    p_ingest.add_argument("--links", required=True)
    p_ingest.add_argument("--mesh", required=True)
    p_ingest.add_argument("--taxonomy", required=True)
    p_ingest.add_argument("--out", default=None)
    p_ingest.set_defaults(func=cmd_ingest)

    p_run = sub.add_parser("run", help="run one method over a year range")
    p_run.add_argument("--method", required=True)
    p_run.add_argument("--weighted", action="store_true")
    p_run.add_argument("--agg", default=AVERAGE, choices=AGGREGATIONS)
    p_run.add_argument("--years", required=True, metavar="FROM:TO")
    p_run.add_argument("--links", required=True)
    p_run.add_argument("--mesh", required=True)
    p_run.add_argument("--taxonomy", required=True)
    p_run.add_argument("--out", default=".")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="summary table and histograms for two runs")
    p_cmp.add_argument("snapshots", nargs=2)
    p_cmp.add_argument("--links", required=True, help="link list, for per-author paper counts")
    p_cmp.add_argument("--years", default=None, metavar="FROM:TO")
    p_cmp.add_argument("--min-papers", type=int, default=metrics.DEFAULT_PRODUCTIVE_THRESHOLD)
    p_cmp.add_argument("--out", default=".")
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataFormatError, LedgerError, MeshFormatError, FileNotFoundError,
            dynamic.YearOrderError, dynamic.DhaInputError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
