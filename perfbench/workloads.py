"""The benchmark's workloads: a synthetic corpus and the CLI commands run on it.

Every command uses the CLI's default options apart from the paths and the year
windows, so the benchmark keeps working when an option such as ``--threads``
is retired.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

# (method, weighted, aggregation) of each static command; None keeps the default
STATIC_VARIANTS = {
    "hetesim": ("hetesim", False, None),
    "hetesim_weighted": ("hetesim", True, None),
    "ha1": ("ha1", False, None),
    "ha2": ("ha2", False, None),
    "ha3_average": ("ha3", False, None),
    "ha3_weighted_sum": ("ha3", True, "sum"),
}


@dataclass(frozen=True)
class Command:
    """One CLI invocation; ``name`` keys its metrics and its output directory."""

    name: str
    argv: tuple[str, ...]
    years: tuple[int, int] | None = None  # reported window of a run or compare
    variant: str | None = None  # STATIC_VARIANTS key of a static run


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: dict = field(default_factory=dict)  # CorpusSpec fields other than the seed
    dynamic_years: tuple[int, int] | None = None  # bl/dha run window
    compare_years: tuple[int, int] | None = None
    static_years: tuple[int, int] | None = None  # window of the six static runs

    def commands(self, inputs: Path, out: Path) -> list[Command]:
        """The workload's commands in order; each writes under ``out/<name>``."""
        links = str(inputs / "links.tsv")
        data = (
            "--links", links,
            "--mesh", str(inputs / "mesh.tsv"),
            "--taxonomy", str(inputs / "taxonomy.tsv"),
        )
        cmds = []
        if self.dynamic_years:
            window = _years(self.dynamic_years)
            cmds.append(Command("ingest", ("ingest", *data, "--out", str(out / "ingest"))))
            for method in ("bl", "dha"):
                name = f"run.{method}"
                cmds.append(Command(
                    name,
                    ("run", "--method", method, "--years", window, *data, "--out", str(out / name)),
                    years=self.dynamic_years,
                ))
            cmds.append(Command(
                "compare",
                ("compare", str(out / "run.dha" / "dha.jsonl"), str(out / "run.bl" / "bl.jsonl"),
                 "--links", links, "--years", _years(self.compare_years),
                 "--out", str(out / "compare")),
                years=self.compare_years,
            ))
        if self.static_years:
            for variant, (method, weighted, agg) in STATIC_VARIANTS.items():
                name = f"run.{variant}"
                argv = ["run", "--method", method, "--years", _years(self.static_years)]
                if weighted:
                    argv.append("--weighted")
                if agg:
                    argv += ["--agg", agg]
                cmds.append(Command(
                    name, (*argv, *data, "--out", str(out / name)),
                    years=self.static_years, variant=variant,
                ))
        return cmds


def _years(window: tuple[int, int]) -> str:
    return f"{window[0]}:{window[1]}"


WORKLOADS = {
    w.name: w
    for w in (
        # The north-star corpus on the paper's end-to-end path; every reported
        # year is serialized, so snapshot writing and compare weigh in.
        Workload("pipeline-full", {}, dynamic_years=(0, 10), compare_years=(1, 10)),
        # The same authors, papers and credit work spread over 40 years with a
        # narrow report window: exposes yearly costs that grow with history.
        Workload("history-long", {"n_years": 40}, dynamic_years=(36, 40), compare_years=(36, 40)),
        # The only workload on the static kernels, small because they do not
        # finish at corpus scale yet; it never reaches ledger or dynamic.
        Workload(
            "static-small", {"n_authors": 200, "n_papers": 1000, "n_years": 10},
            static_years=(0, 10),
        ),
    )
}
