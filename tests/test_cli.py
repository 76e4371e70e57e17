import csv
import hashlib
import json
import math
import os

import pytest

from coagtree.cli import _write_events, main
from coagtree.kernels import builtin
from coagtree.simulate import SimConfig, rng_for, simulate
from coagtree.trees import parse, serialize
from tests_support import reference_parse, reference_write_events


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
    total = sum(sum(parse(line)[0]) for line in trees)
    assert total == pytest.approx(32.0)
    assert len(trees) == 32 - (len(events) - 1)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "simulate"
    assert manifest["seed"] == 7


def sha256(path):
    return hashlib.sha256(read(path)).hexdigest()


def test_cli_outputs_are_pinned(tmp_path):
    out = tmp_path / "sim"
    assert main(["simulate", "--kernel", "constant", "--n", "10000", "--t", "2",
                 "--seed", "1", "--out", str(out)]) == 0
    assert sha256(out / "trees.txt") == \
        "33bfc9ff81e8b12a4b66b8ac51fabd76f895b39d99cb0cae544cc7b7e0cc24c3"
    assert sha256(out / "events.csv") == \
        "b710fa12001ce8c2d948288eef045d32f6c36cdbe8384b58f2f21c9ada410e6c"
    out = tmp_path / "gal"
    assert main(["gallery", "--seed", "1010", "--out", str(out)]) == 0
    assert {name: sha256(out / f"gallery-{name}.txt")
            for name in ("constant", "inverse-sum", "product")} == {
        "constant": "03f7c74fb1e4a2ebf5c7f4cf92de63063f53caef6799aa23d0b4bf63d9b32888",
        "inverse-sum": "fa21fa38302442fe36779c41beae60f71bca46a8b328855ca569552c9b89bd35",
        "product": "5f85f0c9a0572c4f1d8342c47b7c69e91514fcf64d900301f608fd224b2c8ac5",
    }


# N=3000 runs with masses cycling over {1, 2, 3}: (kernel, horizon)
WRITER_RUNS = (("constant", 2.0), ("additive", 0.8), ("product", 0.15),
               ("inverse-sum", 5.0))


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """Per run: the directory the writer filled and the one the reference did."""
    out = {}
    for name, horizon in WRITER_RUNS:
        cfg = SimConfig(tuple(1.0 + k % 3 for k in range(3000)), builtin(name), horizon)
        log = simulate(cfg, rng_for(13))
        assert len(log.events) > 500
        new, old = tmp_path_factory.mktemp(name), tmp_path_factory.mktemp(name)
        _write_events(log, new)
        reference_write_events(log, old)
        out[name] = new, old
    return out


@pytest.mark.parametrize("name", [name for name, _ in WRITER_RUNS])
def test_writer_matches_the_reference(written, name):
    new, old = written[name]
    for file in ("events.csv", "trees.txt"):
        assert read(new / file) == read(old / file)


@pytest.mark.parametrize("name", [name for name, _ in WRITER_RUNS])
def test_parse_matches_the_reference_on_written_histories(written, name):
    new, _ = written[name]
    lines = (new / "trees.txt").read_text().splitlines()
    with open(new / "events.csv", newline="") as fh:
        for row in list(csv.reader(fh))[1:]:
            lines += row[2:]
    for line in lines:
        masses, events = parse(line, strict=True)
        tree = reference_parse(line, strict=True)
        assert masses == [v.mass_value for v in tree.walk() if v.is_leaf]
        assert [row[0] for row in events] == [v.time for v in tree.internal_nodes()]
        assert serialize((masses, events)) == tree.serial == line


def test_simulate_and_gallery_build_no_trees(tmp_path):
    # the package has no tree object to build (test_imports.py keeps it so)
    assert main(["simulate", "--kernel", "additive", "--n", "300", "--t", "1",
                 "--out", str(tmp_path / "sim")]) == 0
    assert main(["gallery", "--out", str(tmp_path / "gal")]) == 0


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
    assert 0.0 <= counters["mass_leak"] <= 1e-7
    assert counters["solver_steps"] > 0
    assert counters["solver_nfev"] >= 2 + 6 * counters["solver_steps"]
    assert set(manifest["timings"]) == {"solve_s", "terms_s"}
    assert all(v >= 0.0 for v in manifest["timings"].values())
    assert manifest["subcommand"] == "limit"


def test_solve_manifest_records_counters_and_timings(tmp_path):
    out = tmp_path / "sol"
    with pytest.warns(UserWarning, match="left the 16-point lattice"):
        assert main(["solve", "--kernel", "constant", "--t", "2", "--k-max", "16",
                     "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    counters = manifest["counters"]
    assert counters["lattice_points"] == 16
    # constant K, t = 2: the untruncated solution holds sum_{k>16} k c_k(2)
    # = 18 / 2^17 of the mass beyond 16 units; the truncated one loses about that
    assert counters["mass_leak"] == pytest.approx(18 / 2**17, rel=0.05)
    assert counters["solver_steps"] > 0
    assert counters["solver_nfev"] >= 2 + 6 * counters["solver_steps"]
    assert set(manifest["timings"]) == {"solve_s", "write_s"}
    assert all(v >= 0.0 for v in manifest["timings"].values())
    assert manifest["subcommand"] == "solve"


def test_solve_refuses_incommensurate_masses(tmp_path):
    mu0 = tmp_path / "mu0.csv"
    mu0.write_text("mass,weight\n1.0,0.5\n1.4142135623730951,0.5\n")
    assert main(["solve", "--t", "1", "--mu0", str(mu0),
                 "--out", str(tmp_path / "sol")]) == 2


def test_simulate_manifest_records_counters_and_timings(tmp_path):
    out = tmp_path / "sim"
    assert main(["simulate", "--kernel", "additive", "--n", "200", "--t", "1",
                 "--seed", "5", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    events = len((out / "events.csv").read_text().splitlines()) - 1
    counters = manifest["counters"]
    assert counters["events"] == events > 0
    assert counters["proposals"] >= events
    assert counters["acceptance"] == events / counters["proposals"]
    assert set(manifest["timings"]) == {"simulate_s", "write_s"}
    assert all(v >= 0.0 for v in manifest["timings"].values())

    out = tmp_path / "replicas"
    assert main(["simulate", "--kernel", "additive", "--n", "6", "--t", "1",
                 "--replicas", "2", "--out", str(out)]) == 0
    counters = json.loads((out / "manifest.json").read_text())["counters"]
    assert counters["proposals"] >= counters["events"]
    assert counters["events"] == sum(
        len((out / f"replica-{r:04d}" / "events.csv").read_text().splitlines()) - 1
        for r in range(2))


def test_gallery(tmp_path):
    out = tmp_path / "gal"
    assert main(["gallery", "--seed", "5", "--out", str(out)]) == 0
    for name in ("constant", "product", "inverse-sum"):
        lines = (out / f"gallery-{name}.txt").read_text().splitlines()
        assert lines
        total = sum(sum(parse(line)[0]) for line in lines)
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


def test_lln_manifest_records_counters_and_timings(tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "kernel": "constant", "t": 2.0, "seed": 9,
        "functionals": [{"type": "leaf"}, {"type": "cherry"}],
        "n_ladder": [30, 100], "replicas": [60, 30], "tau_max_leaves": 2,
    }))
    out = tmp_path / "rep"
    assert main(["lln", str(plan), "--out", str(out), "--jobs", "1"]) in (0, 1)
    manifest = json.loads((out / "manifest.json").read_text())
    counters = manifest["counters"]
    assert set(counters) == {"30", "100", "mass_leak", "solver_steps", "solver_nfev",
                             "unconverged_terms", "limit_terms", "limit_integrals"}
    assert 0.0 <= counters["mass_leak"] <= 1e-7
    assert counters["solver_steps"] > 0
    assert counters["solver_nfev"] >= 2 + 6 * counters["solver_steps"]
    assert counters["unconverged_terms"] == {"leaf": 0, "cherry": 0}
    # two functionals read the leaf and the cherry term each; both read the
    # same two integrals, the cherry's as c = 0 or 1 times the f == 1 one
    assert (counters["limit_terms"], counters["limit_integrals"]) == (4, 2)
    for n, replicas in (("30", 60), ("100", 30)):
        c = counters[n]
        assert c["replicas"] == replicas
        assert 0 < c["events"] <= c["proposals"]  # constant K accepts every proposal
        assert c["acceptance"] == c["events"] / c["proposals"] == 1.0
    timings = manifest["timings"]
    assert set(timings) == {"solve_s", "limit_s", "ladder_s"}
    assert set(timings["ladder_s"]) == {"30", "100"}
    assert min(timings["solve_s"], timings["limit_s"], *timings["ladder_s"].values()) >= 0.0
    assert manifest["subcommand"] == "lln"
    # the report itself carries no telemetry
    assert set(json.loads((out / "report.json").read_text())) == {
        "rows", "variance_slopes", "verdicts", "tail_bounds"}


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


def test_exit_codes(tmp_path, capsys):
    # config error
    assert main(["simulate", "--kernel", "bogus", "--n", "4", "--t", "1",
                 "--out", str(tmp_path / "x")]) == 2
    # gelation guard; the refusal names the override that simulate takes
    assert main(["simulate", "--kernel", "product", "--n", "16", "--t", "5",
                 "--out", str(tmp_path / "y")]) == 3
    err = capsys.readouterr().err
    assert "gelation time 1" in err and "pass --allow-gelation to override" in err
    # no gelation time, no guard: the constant kernel runs until one cluster
    # is left rather than refusing "gelation time inf"
    assert main(["simulate", "--n", "8", "--t", "inf", "--out", str(tmp_path / "inf")]) == 0
    assert "gelation" not in capsys.readouterr().err
    assert len((tmp_path / "inf" / "trees.txt").read_text().splitlines()) == 1
    # override
    assert main(["simulate", "--kernel", "product", "--n", "16", "--t", "5",
                 "--allow-gelation", "--out", str(tmp_path / "z")]) == 0
    # bad plan file
    assert main(["lln", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "w")]) == 2
    # one sampler: no --construction option
    with pytest.raises(SystemExit) as exited:
        main(["simulate", "--construction", "direct", "--out", str(tmp_path / "v")])
    assert exited.value.code == 2
    # counts below 1 are refused by argparse, before any output is written
    for argv in (["simulate", "--replicas", "0"], ["simulate", "--replicas", "-2"],
                 ["limit", "--max-leaves", "0"], ["limit", "--max-leaves", "-1"],
                 ["solve", "--samples", "0"],
                 ["lln", str(tmp_path / "plan.json"), "--jobs", "0"],
                 ["lln", str(tmp_path / "plan.json"), "--jobs", "-3"]):
        out = tmp_path / "count"
        with pytest.raises(SystemExit) as exited:
            main(argv + ["--out", str(out)])
        assert exited.value.code == 2 and not out.exists(), argv
    # solver inputs that once crashed with a traceback and exit 1
    for argv in (["solve", "--k-max", "0"], ["solve", "--tol", "0"],
                 ["limit", "--tol", "0"], ["solve", "--t", "inf"]):
        assert main(argv + ["--out", str(tmp_path / "solver")]) == 2, argv
    # --allow-gelation only where a run reads it: not on lln or gallery
    gelling = tmp_path / "gelling.json"
    gelling.write_text(json.dumps({"kernel": "product", "t": 0.99}))
    capsys.readouterr()
    assert main(["lln", str(gelling), "--out", str(tmp_path / "u")]) == 3
    err = capsys.readouterr().err
    assert "gelation time 1" in err and "allow" not in err
    for argv in (["lln", str(gelling)], ["gallery"]):
        with pytest.raises(SystemExit) as exited:
            main(argv + ["--allow-gelation", "--out", str(tmp_path / "u")])
        assert exited.value.code == 2, argv
    # malformed input files: each is named on stderr, with no traceback
    capsys.readouterr()
    mu0 = tmp_path / "mu0.csv"
    mu0.write_text("mass,weight\n1.0,0.5\n2.0\n")
    short_row = tmp_path / "short.csv"
    short_row.write_text("x,y,value\n1.0,1.0,2.0\n1.0,2.0\n2.0,2.0,4.0\n")
    empty = tmp_path / "empty.csv"
    empty.write_text("\n")
    a_list = tmp_path / "list.json"
    a_list.write_text("[1, 2]\n")
    kernel_number = tmp_path / "kernel.json"
    kernel_number.write_text(json.dumps({"kernel": 5}))
    runs = [(["solve", "--t", "1", "--mu0", str(mu0)], mu0),
            (["limit", "--t", "1", "--mu0", str(mu0)], mu0),
            (["simulate", "--n", "4", "--kernel", str(short_row)], short_row),
            (["simulate", "--n", "4", "--kernel", str(empty)], empty),
            (["lln", str(a_list)], a_list),
            (["lln", str(kernel_number)], kernel_number)]
    for k, (argv, path) in enumerate(runs):
        assert main(argv + ["--out", str(tmp_path / f"out{k}")]) == 2, argv
        assert str(path) in capsys.readouterr().err, argv
    # malformed lln plan values: the file and the key are named.  On a small
    # ladder, tau_max_leaves 0 and -3 once ran to a FAIL verdict (exit 1),
    # quad_tol 0 ran to exit 0, seed -1 failed in numpy with no key named,
    # and an unknown key was ignored; t -1 and nan failed in the solve, after
    # the manifest was written, with no key named; n_ladder [0, 10] failed
    # late in SimConfig, and [10, 10] ran to PASS on a slope fitted to one size;
    # two functionals of one name ran to a false FAIL (exit 1), each row
    # twice, and a fractional seed or tau_max_leaves was cut to an integer
    small = {"n_ladder": [10, 20], "replicas": [30, 30]}
    twice = {"functionals": [{"type": "leaf"}, {"type": "leaf"}], "kernel": "constant",
             "t": 1.0, "n_ladder": [20, 60], "replicas": [40, 30], "tau_max_leaves": 2}
    for k, bad in enumerate(({"n_ladder": 5}, {"mu0": 3}, {"functionals": 5},
                             {"functionals": [5]}, {"t": [1]}, {"tau_max_leaves": None},
                             {"replicas": ["a", "b"]}, {"seed": "x"},
                             {"tau_max_leaves": 0, **small}, {"tau_max_leaves": -3, **small},
                             {"quad_tol": 0, **small}, {"seed": -1, **small},
                             {"tau_max_leaf": 2, **small}, {"mu0": [[1.0, 0.0]], **small},
                             {"t": -1.0, **small}, {"t": math.nan, **small},
                             {**small, "n_ladder": [0, 10]}, {**small, "n_ladder": [10, 10]},
                             twice, {"tau_max_leaves": 2.9, **small}, {"seed": 7.5, **small},
                             {"seed": True, **small})):
        plan = tmp_path / f"bad{k}.json"
        plan.write_text(json.dumps(bad))
        assert main(["lln", str(plan), "--out", str(tmp_path / f"bad{k}")]) == 2, bad
        err = capsys.readouterr().err
        assert str(plan) in err and f'"{next(iter(bad))}"' in err, (bad, err)


def test_manifest_written_before_outputs(tmp_path):
    out = tmp_path / "m"
    assert main(["simulate", "--n", "8", "--t", "1", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    # rewritten after the run with what only the run knows
    assert set(manifest) == {"subcommand", "config", "seed", "version",
                             "input_hashes", "outputs", "counters", "timings"}
    assert len(manifest["outputs"]) == 2
    for declared in manifest["outputs"]:
        assert os.path.exists(declared)
    # with several replicas, each replica's two files under replica-NNNN/
    out = tmp_path / "r"
    assert main(["simulate", "--n", "8", "--t", "1", "--replicas", "2",
                 "--out", str(out)]) == 0
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    assert len(outputs) == 4 and all(map(os.path.exists, outputs)), outputs
