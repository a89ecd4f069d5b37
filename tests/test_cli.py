import json
from pathlib import Path

import pytest

from hinalloc.cli import main

from fixtures import (
    REFERENCE_BL,
    REFERENCE_DHA,
    store_matrix,
    write_illustrative_corpus,
    write_network2_corpus,
)


@pytest.fixture()
def corpus(tmp_path):
    return {k: str(v) for k, v in write_illustrative_corpus(tmp_path / "corpus").items()}


def _args(corpus):
    return ["--links", corpus["links"], "--mesh", corpus["mesh"], "--taxonomy", corpus["taxonomy"]]


def _snapshots(path):
    out = {}
    for line in Path(path).read_text().splitlines():
        rec = json.loads(line)
        out.setdefault(rec["year"], {})[rec["author"]] = rec["expertise"]
    return out


def test_ingest_manifest_counts(corpus, tmp_path, capsys):
    rc = main(["ingest", *_args(corpus), "--out", str(tmp_path / "out")])
    assert rc == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["authors"] == 4
    assert manifest["papers"] == 60
    assert manifest["categories"] == 3
    assert manifest["links_per_year"]["1"] == 6
    assert manifest["links_per_year"]["6"] == 12
    assert manifest["papers_without_categories"] == []


def test_ingest_empty_links(tmp_path):
    links = tmp_path / "links.tsv"
    links.write_text("# nothing\n")
    mesh = tmp_path / "mesh.tsv"
    mesh.write_text("")
    taxonomy = tmp_path / "taxonomy.tsv"
    taxonomy.write_text("D000001\tA01\n")
    rc = main(["ingest", "--links", str(links), "--mesh", str(mesh),
               "--taxonomy", str(taxonomy), "--out", str(tmp_path / "out")])
    assert rc == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["authors"] == 0
    assert manifest["papers"] == 0


def test_ingest_unknown_paper_in_mesh_file(tmp_path, capsys):
    (tmp_path / "links.tsv").write_text("1\tA1\tP1\n")
    (tmp_path / "mesh.tsv").write_text("P1\tD000001\nGHOST\tD000001\n")
    (tmp_path / "taxonomy.tsv").write_text("D000001\tA01\n")
    rc = main(["ingest", "--links", str(tmp_path / "links.tsv"),
               "--mesh", str(tmp_path / "mesh.tsv"),
               "--taxonomy", str(tmp_path / "taxonomy.tsv")])
    assert rc == 2
    assert "GHOST" in capsys.readouterr().err


def test_ingest_bad_line_reports_position(tmp_path, capsys):
    (tmp_path / "links.tsv").write_text("1\tA1\tP1\nnot-a-year\tA1\tP2\n")
    (tmp_path / "mesh.tsv").write_text("P1\tD000001\n")
    (tmp_path / "taxonomy.tsv").write_text("D000001\tA01\n")
    rc = main(["ingest", "--links", str(tmp_path / "links.tsv"),
               "--mesh", str(tmp_path / "mesh.tsv"),
               "--taxonomy", str(tmp_path / "taxonomy.tsv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "links.tsv:2" in err


def test_ingest_lists_unmapped_unique_ids(tmp_path):
    (tmp_path / "links.tsv").write_text("1\tA1\tP1\n1\tA1\tP2\n")
    (tmp_path / "mesh.tsv").write_text("P1\tD000001\nP2\tD999999\n")
    (tmp_path / "taxonomy.tsv").write_text("D000001\tA01\n")
    rc = main(["ingest", "--links", str(tmp_path / "links.tsv"),
               "--mesh", str(tmp_path / "mesh.tsv"),
               "--taxonomy", str(tmp_path / "taxonomy.tsv"),
               "--out", str(tmp_path / "out")])
    assert rc == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["unmapped_unique_ids"] == ["D999999"]
    assert manifest["papers_without_categories"] == ["P2"]


def test_ingest_lists_taxonomy_errors(corpus, tmp_path, capsys):
    taxonomy = tmp_path / "taxonomy.tsv"
    taxonomy.write_text(Path(corpus["taxonomy"]).read_text() + "D000004\nD000005\tA1B\n")
    rc = main(["ingest", *_args(dict(corpus, taxonomy=str(taxonomy))), "--out", str(tmp_path / "out")])
    assert rc == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["taxonomy_errors"] == [
        "line 4: expected 2 tab-separated fields, got 1",
        "line 5: malformed tree ID 'A1B'",
    ]


def test_run_bl_matches_reference(corpus, tmp_path):
    out = tmp_path / "out"
    rc = main(["run", "--method", "bl", "--years", "1:10", *_args(corpus), "--out", str(out)])
    assert rc == 0
    snaps = _snapshots(out / "bl.jsonl")
    for year, want in REFERENCE_BL.items():
        assert store_matrix(snaps[year]) == [[float(v) for v in row] for row in want]


def test_run_dha_year_one(corpus, tmp_path):
    out = tmp_path / "out"
    rc = main(["run", "--method", "dha", "--years", "1:1", *_args(corpus), "--out", str(out)])
    assert rc == 0
    snaps = _snapshots(out / "dha.jsonl")
    assert store_matrix(snaps[1]) == [[float(v) for v in row] for row in REFERENCE_DHA[1]]


def test_run_ha3_average_on_network2(tmp_path):
    paths = {k: str(v) for k, v in write_network2_corpus(tmp_path / "n2").items()}
    out = tmp_path / "out"
    rc = main(["run", "--method", "ha3", "--agg", "average", "--years", "1:1",
               "--links", paths["links"], "--mesh", paths["mesh"],
               "--taxonomy", paths["taxonomy"], "--out", str(out)])
    assert rc == 0
    snaps = _snapshots(out / "ha3_average.jsonl")
    got = snaps[1]
    assert got["A1"]["M01"] == pytest.approx(0.816, abs=1e-3)
    assert got["A2"]["M01"] == pytest.approx(0.973, abs=1e-3)
    assert got["A3"]["M01"] == pytest.approx(0.707, abs=1e-3)
    assert got["A3"]["M02"] == pytest.approx(0.707, abs=1e-3)
    assert "M02" not in got["A1"]


def test_run_usage_errors(corpus, capsys):
    assert main(["run", "--method", "nope", "--years", "1:2", *_args(corpus)]) == 1
    assert main(["run", "--method", "bl", "--weighted", "--years", "1:2", *_args(corpus)]) == 1
    assert main(["run", "--method", "bl", "--agg", "sum", "--years", "1:2", *_args(corpus)]) == 1
    assert main(["run", "--method", "bl", "--years", "5:1", *_args(corpus)]) == 1
    assert main(["run", "--method", "bl", "--years", "abc", *_args(corpus)]) == 1
    assert main(["run", "--method", "bl"]) == 1  # missing required flags
    capsys.readouterr()
    assert main(["run", "--method", "dha", "--years", "1:2", *_args(corpus), "--threads", "4"]) == 1
    assert capsys.readouterr().err.startswith("usage error:")


def test_run_is_deterministic_across_link_order(corpus, tmp_path):
    lines = Path(corpus["links"]).read_text().splitlines()
    reversed_links = tmp_path / "reversed_links.tsv"
    reversed_links.write_text("\n".join(reversed(lines)) + "\n")
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", "--method", "dha", "--years", "1:10", *_args(corpus),
                 "--out", str(out1)]) == 0
    assert main(["run", "--method", "dha", "--years", "1:10", "--links", str(reversed_links),
                 "--mesh", corpus["mesh"], "--taxonomy", corpus["taxonomy"],
                 "--out", str(out2)]) == 0
    assert (out1 / "dha.jsonl").read_bytes() == (out2 / "dha.jsonl").read_bytes()


def test_run_leaves_another_runs_temp_file_alone(corpus, tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "bl.jsonl.tmp").write_text("other")
    assert main(["run", "--method", "bl", "--years", "1:10", *_args(corpus), "--out", str(out)]) == 0
    assert (out / "bl.jsonl.tmp").read_text() == "other"
    assert _snapshots(out / "bl.jsonl")[10]


@pytest.mark.parametrize("which", ["links", "mesh", "taxonomy"])
def test_non_utf8_input_is_a_data_error_with_its_line(corpus, tmp_path, capsys, which):
    bad = tmp_path / f"bad_{which}.tsv"
    bad.write_bytes(Path(corpus[which]).read_bytes() + b"\xff\n")
    n_lines = bad.read_bytes().count(b"\n")
    args = dict(corpus, **{which: str(bad)})
    rc = main(["run", "--method", "bl", "--years", "1:10", *_args(args),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{bad}:{n_lines}: not valid UTF-8" in err
    assert "Traceback" not in err


def test_non_utf8_snapshot_is_a_data_error_with_its_line(corpus, tmp_path, capsys):
    out = tmp_path / "out"
    main(["run", "--method", "bl", "--years", "1:10", *_args(corpus), "--out", str(out)])
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b"\n\n\xff")
    rc = main(["compare", str(out / "bl.jsonl"), str(bad), "--links", corpus["links"],
               "--out", str(tmp_path / "cmp")])
    assert rc == 2
    assert f"{bad}:3: not valid UTF-8" in capsys.readouterr().err


def test_out_naming_a_file_is_a_usage_error(corpus, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    rc = main(["run", "--method", "bl", "--years", "1:2", *_args(corpus), "--out", str(taken)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: --out")
    assert "Traceback" not in err
    assert taken.read_text() == ""


@pytest.mark.parametrize("command", ["ingest", "run", "compare"])
def test_out_is_checked_before_any_input_is_read(command, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    missing = str(tmp_path / "missing.tsv")
    data = ["--links", missing, "--mesh", missing, "--taxonomy", missing]
    argv = {
        "ingest": ["ingest", *data],
        "run": ["run", "--method", "dha", "--years", "1:2", *data],
        "compare": ["compare", missing, missing, "--links", missing],
    }[command]
    assert main([*argv, "--out", str(taken)]) == 1
    assert capsys.readouterr().err.startswith("usage error: --out")


METHOD_ARGS = {
    "bl": ["--method", "bl"],
    "dha": ["--method", "dha"],
    "hetesim": ["--method", "hetesim"],
    "ha1": ["--method", "ha1"],
    "ha2": ["--method", "ha2"],
    "ha3": ["--method", "ha3"],
}

# one bad input per row: (file to change, text appended to it, line of the
# error, text the message names); the illustrative links file has one comment
# line and 90 links, its taxonomy file three lines
BAD_INPUTS = {
    "repeated_link": ("links", "1\tA1\tP1\n", 92, "repeated link 1 A1 P1"),
    "paper_without_category_row": ("links", "10\tA2\tPX\n", 92, "'PX'"),
    "category_id_outside_taxonomy": ("links", "10\tA2\tPY\n", 92, "'PY'"),
    "non_integer_year": ("links", "ten\tA2\tP1\n", 92, "'ten'"),
    "taxonomy_line_with_one_field": ("taxonomy", "D000004\n", 4, "got 1"),
    "malformed_tree_id": ("taxonomy", "D000004\tA1B\n", 4, "malformed tree ID 'A1B'"),
}


@pytest.mark.parametrize("method", sorted(METHOD_ARGS))
@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_is_a_data_error_at_its_line_for_every_method(case, method, corpus, tmp_path, capsys):
    which, extra, line_no, named = BAD_INPUTS[case]
    paths = dict(corpus)
    if case == "category_id_outside_taxonomy":
        mesh = tmp_path / "mesh.tsv"
        mesh.write_text(Path(corpus["mesh"]).read_text() + "PY\tD999999\n")
        paths["mesh"] = str(mesh)
    bad = tmp_path / f"bad_{which}.tsv"
    bad.write_text(Path(corpus[which]).read_text() + extra)
    paths[which] = str(bad)
    out = tmp_path / "out"
    rc = main(["run", *METHOD_ARGS[method], "--years", "1:10", *_args(paths), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{bad}:{line_no}: " in err and named in err
    assert list(out.glob("*")) == []


def test_failed_run_leaves_no_partial_output(tmp_path, corpus):
    # a paper without any category row is a data error at run time
    links = Path(corpus["links"]).read_text() + "11\tA1\tPX\n"
    bad_links = tmp_path / "bad_links.tsv"
    bad_links.write_text(links)
    out = tmp_path / "out"
    rc = main(["run", "--method", "dha", "--years", "1:11",
               "--links", str(bad_links), "--mesh", corpus["mesh"],
               "--taxonomy", corpus["taxonomy"], "--out", str(out)])
    assert rc == 2
    assert not (out / "dha.jsonl").exists()
    assert not list(out.glob("*.tmp"))


def test_compare_identical_snapshots(corpus, tmp_path, capsys):
    out = tmp_path / "out"
    main(["run", "--method", "bl", "--years", "1:10", *_args(corpus), "--out", str(out)])
    cmp_dir = tmp_path / "cmp"
    rc = main(["compare", str(out / "bl.jsonl"), str(out / "bl.jsonl"),
               "--links", corpus["links"], "--out", str(cmp_dir)])
    assert rc == 0
    table = (cmp_dir / "summary.tsv").read_text().strip().split("\n")
    header = table[0].split("\t")
    assert header[2:4] == ["ratio_bl_a", "ratio_bl_b"]
    for line in table[1:]:
        cells = line.split("\t")
        assert cells[2] == cells[3]
        assert cells[4] == cells[5]
    assert (cmp_dir / "hist_bl_a_10.tsv").exists()


_RECORD = '{{"year":1,"author":"{}","expertise":{{"M01":{}}}}}'

# one bad snapshot file per row: (its lines, line of the error, text the
# message names)
BAD_SNAPSHOTS = {
    "nan_value": ([_RECORD.format("A1", 1.0), _RECORD.format("A2", "NaN")], 2, "value nan of 'M01'"),
    "infinite_value": ([_RECORD.format("A1", "Infinity")], 1, "value inf of 'M01'"),
    "negative_value": ([_RECORD.format("A1", 1.0), _RECORD.format("A2", -0.5)], 2, "value -0.5 of 'M01'"),
    "repeated_record": ([_RECORD.format("A1", 1.0), _RECORD.format("A1", 2.0)], 2, "repeated"),
    "out_of_order_record": ([_RECORD.format("A2", 1.0), _RECORD.format("A1", 1.0)], 2, "out of order"),
}


@pytest.mark.parametrize("case", sorted(BAD_SNAPSHOTS))
def test_bad_snapshot_record_is_a_data_error_at_its_line(case, corpus, tmp_path, capsys):
    lines, line_no, named = BAD_SNAPSHOTS[case]
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    good = tmp_path / "good.jsonl"
    good.write_text(_RECORD.format("A1", 1.0) + "\n")
    cmp_dir = tmp_path / "cmp"
    rc = main(["compare", str(good), str(bad), "--links", corpus["links"], "--out", str(cmp_dir)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{bad}:{line_no}: " in err and named in err
    assert list(cmp_dir.glob("*")) == []


def test_compare_disjoint_year_ranges(corpus, tmp_path, capsys):
    out = tmp_path / "out"
    main(["run", "--method", "bl", "--years", "1:5", *_args(corpus), "--out", str(out / "a")])
    main(["run", "--method", "bl", "--years", "6:10", *_args(corpus), "--out", str(out / "b")])
    rc = main(["compare", str(out / "a" / "bl.jsonl"), str(out / "b" / "bl.jsonl"),
               "--links", corpus["links"], "--out", str(tmp_path / "cmp")])
    assert rc == 2
    assert "do not align" in capsys.readouterr().err


def test_compare_year_filter(corpus, tmp_path):
    out = tmp_path / "out"
    main(["run", "--method", "bl", "--years", "1:10", *_args(corpus), "--out", str(out)])
    main(["run", "--method", "dha", "--years", "1:10", *_args(corpus), "--out", str(out)])
    cmp_dir = tmp_path / "cmp"
    rc = main(["compare", str(out / "dha.jsonl"), str(out / "bl.jsonl"),
               "--links", corpus["links"], "--years", "6:10", "--out", str(cmp_dir)])
    assert rc == 0
    lines = (cmp_dir / "summary.tsv").read_text().strip().split("\n")
    years = {line.split("\t")[0] for line in lines[1:]}
    assert years == {"6", "7", "8", "9", "10"}


def test_snapshot_values_use_six_significant_digits(corpus, tmp_path):
    out = tmp_path / "out"
    main(["run", "--method", "dha", "--years", "1:10", *_args(corpus), "--out", str(out)])
    text = (out / "dha.jsonl").read_text()
    rec = json.loads(text.splitlines()[-1])
    for value in rec["expertise"].values():
        assert len(f"{value}".replace(".", "").replace("-", "").lstrip("0")) <= 6
