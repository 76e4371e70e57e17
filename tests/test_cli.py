import json
import os

import pytest

from coagtree.cli import main
from coagtree.trees import parse


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_simulate_writes_events_and_trees(tmp_path):
    out = tmp_path / "run"
    rc = main(["simulate", "--kernel", "constant", "--n", "32", "--t", "2",
               "--seed", "7", "--out", str(out)])
    assert rc == 0
    events = (out / "events.csv").read_text().splitlines()
    assert events[0] == "event_index,time,left_serial,right_serial"
    trees = (out / "trees.txt").read_text().splitlines()
    total = sum(parse(line).mass for line in trees)
    assert total == pytest.approx(32.0)
    assert len(trees) == 32 - (len(events) - 1)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "simulate"
    assert manifest["seed"] == 7


def test_simulate_single_particle(tmp_path):
    out = tmp_path / "one"
    assert main(["simulate", "--n", "1", "--t", "1", "--out", str(out)]) == 0
    assert (out / "events.csv").read_text().splitlines()[1:] == []


def test_simulate_deterministic_reruns(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["simulate", "--kernel", "constant", "--n", "64", "--t", "1",
            "--seed", "3"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert read(a / "events.csv") == read(b / "events.csv")
    assert read(a / "trees.txt") == read(b / "trees.txt")


def test_env_seed_fallback(tmp_path, monkeypatch):
    a, b = tmp_path / "a", tmp_path / "b"
    monkeypatch.setenv("COAGTREE_SEED", "11")
    assert main(["simulate", "--n", "16", "--t", "1", "--out", str(a)]) == 0
    monkeypatch.delenv("COAGTREE_SEED")
    assert main(["simulate", "--n", "16", "--t", "1", "--seed", "11",
                 "--out", str(b)]) == 0
    assert read(a / "events.csv") == read(b / "events.csv")
    monkeypatch.setenv("COAGTREE_SEED", "not-an-int")
    assert main(["simulate", "--n", "4", "--t", "1",
                 "--out", str(tmp_path / "c")]) == 2


def test_solve_csv(tmp_path):
    out = tmp_path / "sol"
    assert main(["solve", "--kernel", "constant", "--t", "2",
                 "--out", str(out)]) == 0
    lines = (out / "solution.csv").read_text().splitlines()
    assert lines[0] == "time,mass,weight"
    last = [l for l in lines[1:] if l.startswith("2.0,1.0,")]
    assert last and float(last[0].split(",")[2]) == pytest.approx(0.25, abs=1e-6)


def test_solve_with_mu0_file(tmp_path):
    mu0 = tmp_path / "mu0.csv"
    mu0.write_text("mass,weight\n1.0,0.5\n2.0,0.5\n")
    out = tmp_path / "sol"
    assert main(["solve", "--kernel", "constant", "--t", "1", "--mu0",
                 str(mu0), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert str(mu0) in manifest["input_hashes"]


def test_limit_csv_values(tmp_path):
    import csv

    out = tmp_path / "lim"
    assert main(["limit", "--kernel", "constant", "--t", "2",
                 "--max-leaves", "2", "--out", str(out)]) == 0
    with open(out / "limit.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    by_shape = {r["shape_serial"]: float(r["value"]) for r in rows}
    assert by_shape["1"] == pytest.approx(0.25, abs=1e-6)
    assert by_shape["{1,1}"] == pytest.approx(0.125, abs=1e-6)


def test_limit_manifest_records_counters_and_timings(tmp_path):
    out = tmp_path / "lim"
    assert main(["limit", "--kernel", "constant", "--t", "2",
                 "--max-leaves", "3", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    rows = (out / "limit.csv").read_text().splitlines()[1:]
    counters = manifest["counters"]
    assert counters["terms"] == len(rows) == 3
    assert 0.0 <= counters["max_error"] <= 1e-9
    assert counters["unconverged"] == 0
    assert set(manifest["timings"]) == {"solve_s", "terms_s"}
    assert all(v >= 0.0 for v in manifest["timings"].values())
    assert manifest["subcommand"] == "limit"


def test_gallery(tmp_path):
    out = tmp_path / "gal"
    assert main(["gallery", "--seed", "5", "--out", str(out)]) == 0
    for name in ("constant", "product", "inverse-sum"):
        lines = (out / f"gallery-{name}.txt").read_text().splitlines()
        assert lines
        total = sum(parse(line).mass for line in lines)
        assert total == pytest.approx(128.0)


def test_lln_plan(tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "kernel": "constant", "t": 2.0, "seed": 9,
        "functionals": [{"type": "leaf"}],
        "n_ladder": [30, 100], "replicas": [400, 120],
        "tau_max_leaves": 1,
    }))
    out = tmp_path / "rep"
    rc = main(["lln", str(plan), "--out", str(out), "--jobs", "1"])
    assert rc in (0, 1)
    report = json.loads((out / "report.json").read_text())
    assert report["rows"][0]["functional"] == "leaf"
    assert (out / "report.txt").exists()


def test_lln_plan_with_empty_time_box_is_a_config_error(tmp_path):
    # a reversed box, and boxes that are not two numbers
    for k, box in enumerate([[1.5, 0.5], 5, ["a", "b"]]):
        plan = tmp_path / f"plan{k}.json"
        plan.write_text(json.dumps({
            "kernel": "constant", "t": 2.0, "seed": 9,
            "functionals": [{"type": "cherry-box", "box": box}],
            "n_ladder": [30, 100], "replicas": [30, 30],
            "tau_max_leaves": 2,
        }))
        assert main(["lln", str(plan), "--out", str(tmp_path / f"rep{k}"),
                     "--jobs", "1"]) == 2, box


def test_exit_codes(tmp_path):
    # config error
    assert main(["simulate", "--kernel", "bogus", "--n", "4", "--t", "1",
                 "--out", str(tmp_path / "x")]) == 2
    # gelation guard
    assert main(["simulate", "--kernel", "product", "--n", "16", "--t", "5",
                 "--out", str(tmp_path / "y")]) == 3
    # override
    assert main(["simulate", "--kernel", "product", "--n", "16", "--t", "5",
                 "--allow-gelation", "--out", str(tmp_path / "z")]) == 0
    # bad plan file
    assert main(["lln", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "w")]) == 2


def test_manifest_written_before_outputs(tmp_path):
    out = tmp_path / "m"
    assert main(["simulate", "--n", "8", "--t", "1", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest) == {"subcommand", "config", "seed", "version",
                             "input_hashes", "outputs"}
    for declared in manifest["outputs"]:
        assert os.path.exists(declared)
