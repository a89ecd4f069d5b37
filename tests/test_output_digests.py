"""Byte-level pins on every method's snapshot output and on compare's tables.

All 13 variants run through the CLI on one small synthetic corpus, and the
SHA-256 of each snapshot file must equal the digest recorded in
``output_digests.json``. ``compare dha.jsonl bl.jsonl`` on the same corpus is
pinned the same way, under ``compare/<file>`` keys: its summary table and its
20 histograms. Any rewrite of a kernel, the snapshot writer or the compare
measures has to reproduce these bytes; editing the digest file is a change of
output and needs a CHANGES.md entry that says why.
"""

import hashlib
import json
from pathlib import Path

import pytest

from hinalloc.cli import main
from hinalloc.synth import CorpusSpec, generate_corpus

HERE = Path(__file__).resolve().parent
DIGESTS = json.loads((HERE / "output_digests.json").read_text())
BENCH_DIGESTS = HERE.parent / "perfbench" / "digests.json"

SPEC = CorpusSpec(seed=1, n_authors=200, n_papers=1000, n_years=10)
YEARS = "0:10"
# a threshold low enough that every compare year has productive authors, so
# each histogram pins real counts
COMPARE_ARGS = ("--years", "1:10", "--min-papers", "3")
COMPARE_FILES = ["summary.tsv"] + [
    f"hist_{label}_{year}.tsv" for label in ("dha", "bl") for year in range(1, 11)
]

# output file -> extra `run` arguments
VARIANTS = {
    "bl.jsonl": ("--method", "bl"),
    "dha.jsonl": ("--method", "dha"),
    "dha_weighted.jsonl": ("--method", "dha", "--weighted"),
    "hetesim.jsonl": ("--method", "hetesim"),
    "hetesim_weighted.jsonl": ("--method", "hetesim", "--weighted"),
    "ha1.jsonl": ("--method", "ha1"),
    "ha1_weighted.jsonl": ("--method", "ha1", "--weighted"),
    "ha2.jsonl": ("--method", "ha2"),
    "ha2_weighted.jsonl": ("--method", "ha2", "--weighted"),
    "ha3_sum.jsonl": ("--method", "ha3", "--agg", "sum"),
    "ha3_average.jsonl": ("--method", "ha3", "--agg", "average"),
    "ha3_weighted_sum.jsonl": ("--method", "ha3", "--weighted", "--agg", "sum"),
    "ha3_weighted_average.jsonl": ("--method", "ha3", "--weighted", "--agg", "average"),
}


@pytest.fixture(scope="module")
def corpus_args(tmp_path_factory):
    info = generate_corpus(tmp_path_factory.mktemp("corpus"), SPEC)
    paths = info["paths"]
    return ("--links", str(paths["links"]), "--mesh", str(paths["mesh"]),
            "--taxonomy", str(paths["taxonomy"]))


def test_digest_file_covers_every_variant():
    assert sorted(DIGESTS) == sorted([*VARIANTS, *(f"compare/{name}" for name in COMPARE_FILES)])


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_snapshot_digest(name, corpus_args, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", *VARIANTS[name], "--years", YEARS, *corpus_args, "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256((out / name).read_bytes()).hexdigest() == DIGESTS[name]


def test_static_digests_agree_with_the_benchmark():
    # the benchmark's static-small workload runs the same corpus and years
    bench = json.loads(BENCH_DIGESTS.read_text())["static-small"]
    assert bench["seed"] == SPEC.seed
    files = {Path(key).name: digest for key, digest in bench["files"].items()}
    assert len(files) == 6
    for name, digest in files.items():
        assert DIGESTS[name] == digest, name


def test_compare_digests(corpus_args, tmp_path, capsys):
    runs, out = tmp_path / "runs", tmp_path / "cmp"
    for method in ("bl", "dha"):
        assert main(["run", "--method", method, "--years", YEARS, *corpus_args,
                     "--out", str(runs)]) == 0
    links = corpus_args[corpus_args.index("--links") + 1]
    assert main(["compare", str(runs / "dha.jsonl"), str(runs / "bl.jsonl"), "--links", links,
                 *COMPARE_ARGS, "--out", str(out)]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in out.iterdir()) == sorted(COMPARE_FILES)
    for name in COMPARE_FILES:
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == DIGESTS[f"compare/{name}"], name
