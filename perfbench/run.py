"""Benchmark of the hinalloc batch pipeline, run from the root of a checkout.

    python3 perfbench/run.py --workload pipeline-full --seed 1 --seconds 60 --trace 0

Generates the workload's corpus from the seed (timed as set-up), then runs the
CLI as a user would: one child process per command, one after another, with
default options. Passes over the workload's commands repeat while one more
fits in --seconds of command time, always at least one. Every output is
checked; a command with a non-zero exit or a failed check counts as failed.

With --trace 0 the last stdout line holds the end-to-end metrics, built from
each command's median over the passes. With --trace 1 it holds the per-layer
metrics: per-command wall time and peak RSS from the untraced passes, plus one
traced pass run in this process (see tracing.py), whose outputs must match the
untraced ones byte for byte. Everything is written under .perfbench_work/ and
removed at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import tracing
from workloads import STATIC_VARIANTS, WORKLOADS, Command

ROOT = Path.cwd()
SRC = ROOT / "src"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
DEADLINE_S = 170  # a run must end within 180 s; children still running at this point are killed
TRACE_COST = 1.5  # a traced pass takes up to this many untraced passes
SETUP_SAMPLE_S = 0.1  # before each command, corpus generation is timed for at least this long


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def generate(spec_fields: dict, seed: int, directory: Path) -> float:
    """Write the corpus; returns the seconds it took."""
    from hinalloc.synth import CorpusSpec, generate_corpus

    start = time.perf_counter()
    generate_corpus(directory, CorpusSpec(seed=seed, **spec_fields))
    return time.perf_counter() - start


def run_child(argv: tuple[str, ...], log: Path, deadline: float) -> tuple[int, float, float]:
    """Run one CLI command; returns (exit code, wall seconds, peak RSS in MB)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with log.open("wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "hinalloc.cli", *argv],
                                stdout=out, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        killer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def file_digests(directory: Path) -> dict[str, str]:
    return {
        path.relative_to(directory).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.rglob("*"))
        if path.is_file() and not path.name.endswith(".log")
    }


def check_command(cmd: Command, out: Path, corpus: checks.Corpus, recorded: dict[str, str],
                  digests: dict[str, str]) -> list[str]:
    """Errors in one command's outputs, from the independent checks and recorded digests."""
    own = out / cmd.name
    errors = []
    for rel, want in recorded.items():
        if rel.split("/")[0] == cmd.name and digests.get(rel) != want:
            errors.append(f"{rel}: digest differs from the one recorded for this seed")
    if cmd.name == "ingest":
        errors += checks.check_manifest(own / "manifest.json", corpus)
    elif cmd.name in ("run.bl", "run.dha"):
        method = cmd.name.split(".")[1]
        errors += checks.check_counting(own / f"{method}.jsonl", corpus, cmd.years, exact=method == "bl")
    elif cmd.name == "compare":
        errors += checks.check_summary(own / "summary.tsv", cmd.years)
    elif cmd.variant:
        snapshots = sorted(own.glob("*.jsonl"))
        if len(snapshots) != 1:
            errors.append(f"{cmd.name}: expected one snapshot file, found {len(snapshots)}")
        else:
            errors += checks.check_static(snapshots[0], corpus, cmd.years, cmd.variant)
    return errors


def untraced_passes(workload, seed: int, inputs: Path, work: Path, seconds: float, deadline: float,
                    setup_times: list[float]):
    """Run passes while one more, as long as the last, fits in ``seconds`` of command time.

    Always runs at least one pass. Before each command, generates the corpus
    again for at least SETUP_SAMPLE_S and appends each time to
    ``setup_times``, so that set-up is timed across the whole run rather than
    in one stretch of the host's speed.
    Stops early rather than start a pass that would overrun ``deadline``.
    Yields (pass directory, commands, {command: (exit code, wall s, peak RSS MB)}).
    """
    measured, last, index = 0.0, 0.0, 0
    while index == 0 or measured + last <= seconds:
        started = time.monotonic()
        out = work / f"pass{index}"
        commands = workload.commands(inputs, out)
        results = {}
        for cmd in commands:
            spent = 0.0
            while spent < SETUP_SAMPLE_S:
                setup_times.append(generate(workload.corpus, seed, work / "setup"))
                spent += setup_times[-1]
            (out / cmd.name).mkdir(parents=True, exist_ok=True)
            code, wall, rss = run_child(cmd.argv, out / f"{cmd.name}.log", deadline)
            results[cmd.name] = (code, wall, rss)
            print(f"{out.name} {cmd.name}: exit {code}, {wall:.3f} s, {rss:.1f} MB", file=sys.stderr)
        last = sum(wall for _, wall, _ in results.values())
        measured += last
        yield out, commands, results
        index += 1
        if time.monotonic() + (time.monotonic() - started) > deadline:
            break


def traced_pass(commands: list[Command], out: Path) -> tuple[object, float, list[tuple[str, int]]]:
    """Run the commands in this process under the tracer; returns (tracer, total s, exit codes)."""
    from hinalloc import cli

    tracer = tracing.Tracer()
    tracer.install()
    codes, total = [], 0.0
    try:
        for cmd in commands:
            (out / cmd.name).mkdir(parents=True, exist_ok=True)
            tracer.command = cmd.name
            gc.collect()
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(list(cmd.argv))
            total += time.perf_counter() - start
            codes.append((cmd.name, code))
    finally:
        tracer.uninstall()
    return tracer, total, codes


def environment(seed: int) -> dict:
    sha = "not a git checkout"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        sha = done.stdout.strip() or sha
    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sources),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "seed": seed,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hinalloc" / "cli.py").is_file():
        print(f"error: no hinalloc sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    deadline = time.monotonic() + DEADLINE_S
    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return _measure(args, workload, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it


def _measure(args, workload, work: Path, deadline: float) -> int:
    inputs = work / "inputs"
    setup_times = [generate(workload.corpus, args.seed, inputs)]
    corpus = checks.Corpus.read(inputs)
    # keep the collector from scanning the benchmark's own objects while the
    # traced pass runs the CLI in this process
    gc.collect()
    gc.freeze()
    entry = json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload.name, {})
    recorded = entry.get("files", {}) if entry.get("seed") == args.seed else {}

    attempted = 0
    failed: dict[str, list[str]] = {}  # "<pass> <command>" -> what went wrong
    passes = []  # per pass: {command: (exit code, wall s, peak RSS MB)}
    first_digests: dict[str, str] = {}
    for out, commands, results in untraced_passes(workload, args.seed, inputs, work, args.seconds,
                                                  deadline, setup_times):
        digests = file_digests(out)
        for cmd in commands:
            attempted += 1
            code = results[cmd.name][0]
            if code != 0:
                errors = [f"exit code {code}"]
            elif not passes:
                errors = check_command(cmd, out, corpus, recorded, digests)
            else:  # later passes must repeat the first byte for byte
                errors = _differing(cmd.name, first_digests, digests)
            if errors:
                failed[f"pass{len(passes)} {cmd.name}"] = errors
        if not passes:
            first_digests = digests
        passes.append(results)
        shutil.rmtree(out)  # checked and hashed; later passes compare digests only

    # each command's median over the passes, so one slow stretch of the host
    # skews one sample of one command rather than a whole pass
    walls = {name: statistics.median(p[name][1] for p in passes) for name in passes[0]}
    rss = {name: statistics.median(p[name][2] for p in passes) for name in passes[0]}
    total = sum(walls.values())
    if args.trace and time.monotonic() + TRACE_COST * total > deadline:
        failed["traced pass"] = ["skipped: it would not end within the time limit"]
        metrics = {}
    elif args.trace:
        traced_out = work / "traced"
        commands = workload.commands(inputs, traced_out)
        tracer, traced_total, codes = traced_pass(commands, traced_out)
        traced_digests = file_digests(traced_out)
        for name, code in codes:
            attempted += 1
            errors = [f"exit code {code}"] if code else _differing(name, first_digests, traced_digests)
            if errors:
                failed[f"traced {name}"] = errors
        metrics = _layer_metrics(tracer, traced_total / total - 1, traced_out, walls, rss)
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "total_s": (total, "s"),
            "peak_rss_mb": (max(rss.values()), "MB"),
        }

    for key, errors in failed.items():
        for error in errors:
            print(f"FAILED {key}: {error}", file=sys.stderr)

    print(json.dumps({"environment": environment(args.seed), "workload": workload.name,
                      "passes": len(passes), "setup_repeats": len(setup_times)}))
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:<40} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if failed else 0


def _differing(command: str, reference: dict[str, str], digests: dict[str, str]) -> list[str]:
    """The command's output files whose digests differ from the reference pass."""
    return [f"{rel}: differs from pass 0" for rel, d in reference.items()
            if rel.split("/")[0] == command and digests.get(rel) != d]


def _layer_metrics(tracer, overhead: float, traced_out: Path, walls: dict, rss: dict) -> dict:
    """Per-layer metrics: the traced pass's spans plus each untraced command's wall time and RSS."""
    records = {
        run_dir.name: sum(p.read_bytes().count(b"\n") for p in run_dir.glob("*.jsonl"))
        for run_dir in traced_out.glob("run.*")
    }
    metrics = tracing.layer_metrics(tracer, records, tuple(STATIC_VARIANTS))
    metrics["cli.snapshot_bytes"] = (
        float(sum(p.stat().st_size for p in traced_out.glob("run.*/*.jsonl"))), "bytes"
    )
    metrics["trace.overhead_share"] = (overhead, "ratio")
    for name in ("ingest", "run.bl", "run.dha", "compare", *(f"run.{v}" for v in STATIC_VARIANTS)):
        metrics[f"cli.{name}.wall_s"] = (walls.get(name, 0.0), "s")
        metrics[f"cli.{name}.peak_rss_mb"] = (rss.get(name, 0.0), "MB")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
