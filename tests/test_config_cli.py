"""Scenario configs, record files and the command-line surface."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ramac
from ramac import config as cfgmod
from ramac.cli import main

ROOT = Path(__file__).resolve().parents[1]

PAIR_CFG = """\
[scenario]
name = pair
users = 1
input_size = 2
output_size = 2
mode = finite

[channel good]
rows = 0.95 0.05; 0.05 0.95

[channel bad]
rows = 0.85 0.15; 0.15 0.85

[rates]
user1 = 0.1

[region]
pairs = 1:good 1:bad

[defaults]
n = 8
trials = 50
seed = 3
rho_grid = 10
s_grid = 10
refinement_rounds = 1
"""

CLASS_CFG = """\
[scenario]
name = pooled
users = 1
input_size = 2
output_size = 2
mode = class

[channel good]
rows = 0.95 0.05; 0.05 0.95

[channel bad]
rows = 0.85 0.15; 0.15 0.85

[class k]
members = good bad

[rates]
user1 = 0.1

[region]
pairs = 1:k

[defaults]
n = 8
trials = 40
seed = 5
rho_grid = 8
s_grid = 8
refinement_rounds = 0
"""

TWO_USER_CFG = """\
[scenario]
name = duo
users = 2
input_size = 2
output_size = 2
mode = finite

[channel c]
rows = 0.9 0.1; 0.6 0.4; 0.4 0.6; 0.1 0.9

[rates]
user1 = 0.02 0.05
user2 = 0.02 0.05

[region]
pairs = 1,1:c 2,1:c

[defaults]
n = 10
rho_grid = 8
s_grid = 8
refinement_rounds = 0
"""


def _write(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_load_config_happy_path(tmp_path):
    cfg = cfgmod.load_config(_write(tmp_path, PAIR_CFG))
    assert cfg.name == "pair"
    assert cfg.mode == "finite"
    assert [cid for cid, _ in cfg.channels] == ["good", "bad"]
    assert cfg.rates == ((0.1,),)
    assert cfg.region_pairs == (((1,), "good"), ((1,), "bad"))
    assert not cfg.region_maximal
    assert cfg.defaults.n == 8
    assert cfg.defaults.trials == 50
    assert cfg.optimizer.rho_grid_size == 10
    assert cfg.optimizer.refinement_rounds == 1
    assert cfg.thresholds.source == "from_ei"


def test_load_config_law_overrides_and_manual_thresholds(tmp_path):
    text = PAIR_CFG + "\n[laws]\ndefault = uniform\nu1r1 = 0.7 0.3\n"
    text = text.replace("refinement_rounds = 1",
                        "refinement_rounds = 1\nthreshold_source = manual\n"
                        "rho_tilde = 0.5\ns2 = 0.2")
    cfg = cfgmod.load_config(_write(tmp_path, text))
    assert cfg.law_overrides == (((1, 1), (0.7, 0.3)),)
    assert cfg.thresholds.source == "manual"
    assert cfg.thresholds.rho_tilde == 0.5
    system = cfgmod.build_system(cfg)
    assert np.allclose(system.laws.law(1, 1), [0.7, 0.3])


@pytest.mark.parametrize("mutate, exc", [
    (lambda t: t.replace("[scenario]\n", "[intro]\n"), ramac.SchemaViolation),
    (lambda t: t.replace("input_size = 2\n", ""), ramac.SchemaViolation),
    (lambda t: t.replace("mode = finite", "mode = open"), ramac.SchemaViolation),
    (lambda t: t.replace("0.95 0.05; 0.05 0.95", "0.95 0.05"),
     ramac.SchemaViolation),
    (lambda t: t.replace("0.95 0.05;", "0.95 0.05 0.1;"),
     ramac.SchemaViolation),
    (lambda t: t.replace("0.95", "ninety"), ramac.ConfigParseError),
    (lambda t: t.replace("pairs = 1:good 1:bad", "pairs = 1:ugly"),
     ramac.SchemaViolation),
    (lambda t: t.replace("pairs = 1:good 1:bad", "pairs = 3:good"),
     ramac.SchemaViolation),
    (lambda t: t.replace("pairs = 1:good 1:bad", "pairs = 1good"),
     ramac.ConfigParseError),
    (lambda t: t.replace("pairs = 1:good 1:bad",
                         "pairs = 1:good\nmaximal = yes"),
     ramac.SchemaViolation),
    (lambda t: t.replace("pairs = 1:good 1:bad", ""), ramac.SchemaViolation),
    (lambda t: t.replace("user1 = 0.1\n", ""), ramac.SchemaViolation),
    (lambda t: t.replace("n = 8", "n = eight"), ramac.ConfigParseError),
    (lambda t: t + "\n[laws]\nzebra = 0.5 0.5\n", ramac.SchemaViolation),
    (lambda t: t + "\n[laws]\nu1r1 = 0.5\n", ramac.SchemaViolation),
    (lambda t: t + "\n[laws]\nu9r1 = 0.5 0.5\n", ramac.SchemaViolation),
    # keys a section does not define, misspelt or retired
    (lambda t: t.replace("users = 1", "user = 1"), ramac.SchemaViolation),
    (lambda t: t.replace("user1 = 0.1", "user1 = 0.1\nuser2 = 0.1"),
     ramac.SchemaViolation),
    (lambda t: t.replace("pairs = 1:good 1:bad", "pairs = 1:good 1:bad\nmax = no"),
     ramac.SchemaViolation),
    (lambda t: t.replace("s_grid = 10", "s_gird = 10"), ramac.SchemaViolation),
    (lambda t: t + "batch_size = 64\n", ramac.SchemaViolation),
])
def test_load_config_rejections(tmp_path, mutate, exc):
    with pytest.raises(exc):
        cfgmod.load_config(_write(tmp_path, mutate(PAIR_CFG)))


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ramac.ConfigParseError):
        cfgmod.load_config(str(tmp_path / "absent.cfg"))


def test_config_dir_fallback(tmp_path, monkeypatch):
    _write(tmp_path, PAIR_CFG, "pair.cfg")
    monkeypatch.setenv(cfgmod.CONFIG_DIR_ENV, str(tmp_path))
    monkeypatch.chdir(tmp_path / "..")
    cfg = cfgmod.load_config("pair.cfg")
    assert cfg.name == "pair"


def test_missing_region_section_means_maximal(tmp_path):
    text = PAIR_CFG.replace("[region]\npairs = 1:good 1:bad\n", "")
    cfg = cfgmod.load_config(_write(tmp_path, text))
    assert cfg.region_maximal
    system = cfgmod.build_system(cfg)
    assert len(system.region) >= 1
    report = ramac.feasibility_check(system.region, system.compound,
                                     system.laws, system.table)
    assert report.passed


def test_build_system_class_mode(tmp_path):
    system = cfgmod.build_system(
        cfgmod.load_config(_write(tmp_path, CLASS_CFG)))
    assert system.region.mode == "class"
    assert system.class_map == {"k": ("good", "bad")}
    assert len(system.envelopes) == 1
    assert system.envelopes[0].class_id == "k"
    assert system.region_ids == ("k",)


def test_round12_is_idempotent():
    rng = np.random.default_rng(2)
    for _ in range(300):
        x = float(rng.normal() * 10.0 ** rng.integers(-12, 12))
        once = cfgmod.round12(x)
        assert cfgmod.round12(once) == once
    assert cfgmod.round12(float("-inf")) == float("-inf")
    assert math.isnan(cfgmod.round12(float("nan")))


def test_jsonable_shapes():
    rvi = ramac.RateVectorIndex((2, 1))
    region = ramac.OperationRegion(((rvi, "c"),), "finite")
    out = cfgmod.jsonable({"region": region, "set": frozenset({2, 1}),
                           "arr": np.array([1.5, 2.5]),
                           "pair": (rvi, "c"), "x": 0.1234567890123456789})
    assert out["region"] == {"mode": "finite", "members": [[[2, 1], "c"]]}
    assert out["set"] == [1, 2]
    assert out["arr"] == [1.5, 2.5]
    assert out["x"] == 0.123456789012


def test_record_round_trip_is_byte_identical(tmp_path):
    comp = ramac.CompoundSet(
        (ramac.validate_dmc([[0.95, 0.05], [0.05, 0.95]], 1, 2, 2),), ("c",))
    table = ramac.RateTable(((0.1,),))
    laws = ramac.uniform_laws(table, 2)
    region = ramac.OperationRegion(((ramac.RateVectorIndex((1,)), "c"),),
                                   "finite")
    report = ramac.pes_bound_finite(
        region, comp, laws, table, 12,
        ramac.OptimizerConfig(rho_grid_size=8, s_grid_size=8,
                              refinement_rounds=0))
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    cfgmod.write_record(p1, {"report": report})
    loaded = cfgmod.read_record(p1)
    assert loaded["report"]["collision_log"] == -math.inf
    cfgmod.write_record(p2, loaded)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_write_table_formatting(tmp_path):
    path = str(tmp_path / "t.csv")
    cfgmod.write_table(path, ["flag", "value", "items", "gap"],
                       [[True, 0.1234567890123456, ["a", 2], None]])
    lines = open(path).read().splitlines()
    assert lines[0] == "flag,value,items,gap"
    assert lines[1] == "yes,0.123456789012,a|2,"


def test_atomic_write_leaves_no_temp_files(tmp_path):
    target = tmp_path / "nested" / "out.json"
    cfgmod.write_record(str(target), {"x": 1.0})
    assert target.exists()
    leftovers = [p for p in (tmp_path / "nested").iterdir()
                 if p.name != "out.json"]
    assert leftovers == []


def _run(argv):
    return main(argv)


def test_cli_exponent_bound_limit_region(tmp_path, capsys):
    cfg = _write(tmp_path, PAIR_CFG)
    out = str(tmp_path / "out")
    assert _run(["exponent", "--config", cfg, "--out-dir", out]) == 0
    assert _run(["exponent", "--config", cfg, "--out-dir", out,
                 "--kind", "em", "--true-pair", "1:good",
                 "--comp-pair", "1:bad"]) == 0
    full = cfgmod.read_record(str(tmp_path / "out" / "pair_exponent.json"))
    # D = every user reduces to the full exponent, competing channel included
    assert _run(["exponent", "--config", cfg, "--out-dir", out,
                 "--kind", "em", "--true-pair", "1:good",
                 "--comp-pair", "1:bad", "--users-d", "1"]) == 0
    reduced = cfgmod.read_record(str(tmp_path / "out" / "pair_exponent.json"))
    assert reduced["result"]["value"] == full["result"]["value"]
    assert _run(["bound", "--config", cfg, "--out-dir", out, "--N", "12"]) == 0
    assert _run(["exponent-limit", "--config", cfg, "--out-dir", out]) == 0
    assert _run(["region", "--config", cfg, "--out-dir", out,
                 "--maximal"]) == 0
    for stem in ("pair_exponent", "pair_bound", "pair_exponent-limit",
                 "pair_region"):
        assert (tmp_path / "out" / f"{stem}.json").exists()
        assert (tmp_path / "out" / f"{stem}.csv").exists()
    rec = cfgmod.read_record(str(tmp_path / "out" / "pair_bound.json"))
    assert rec["report"]["n"] == 12
    assert rec["report"]["branch"] == "decode"
    capsys.readouterr()


def test_cli_exponent_on_empty_region(tmp_path, capsys):
    """Above both channels' capacities the maximal region is empty: without
    --true-pair there is no default pair, with it the exponent is the one the
    explicit region's system gives."""
    hot = PAIR_CFG.replace("user1 = 0.1", "user1 = 0.9")
    empty = _write(tmp_path, hot.replace("pairs = 1:good 1:bad", "maximal = yes"),
                   "empty.cfg")
    out = str(tmp_path / "out")
    assert not cfgmod.build_system(cfgmod.load_config(empty)).region.members
    assert _run(["exponent", "--config", empty, "--out-dir", out]) == 2
    assert "region is empty" in capsys.readouterr().err
    pair = ["--true-pair", "1:good", "--comp-pair", "1:bad"]
    assert _run(["exponent", "--config", empty, "--out-dir", out, *pair]) == 0
    got = cfgmod.read_record(str(tmp_path / "out" / "pair_exponent.json"))
    assert got["true_pair"] == [[1], "good"]
    explicit = _write(tmp_path, hot, "explicit.cfg")
    assert _run(["exponent", "--config", explicit, "--out-dir", out, *pair]) == 0
    assert got == cfgmod.read_record(str(tmp_path / "out" / "pair_exponent.json"))
    capsys.readouterr()


def test_cli_simulate_and_sweep(tmp_path, capsys):
    cfg = _write(tmp_path, PAIR_CFG)
    out = str(tmp_path / "out")
    assert _run(["simulate", "--config", cfg, "--out-dir", out,
                 "--trials", "40"]) == 0
    rec = cfgmod.read_record(str(tmp_path / "out" / "pair_simulate.json"))
    assert rec["report"]["trials"] == 40
    assert rec["report"]["bound_holds"] in (True, False)
    assert _run(["sweep", "--config", cfg, "--out-dir", out,
                 "--N", "10:10:30"]) == 0
    rec = cfgmod.read_record(str(tmp_path / "out" / "pair_sweep.json"))
    assert [r[0] for r in rec["rows"]] == [10, 20, 30]
    # bound table is non-increasing in N for this decode-only scenario
    logs = [r[1] for r in rec["rows"]]
    assert logs[0] >= logs[1] >= logs[2]
    capsys.readouterr()


def test_cli_class_scenario(tmp_path, capsys):
    cfg = _write(tmp_path, CLASS_CFG)
    out = str(tmp_path / "out")
    assert _run(["bound", "--config", cfg, "--out-dir", out]) == 0
    assert _run(["region", "--config", cfg, "--out-dir", out]) == 0
    assert _run(["simulate", "--config", cfg, "--out-dir", out,
                 "--trials", "30"]) == 0
    assert _run(["exponent", "--config", cfg, "--out-dir", out,
                 "--users-d", "1"]) == 2
    rec = cfgmod.read_record(str(tmp_path / "out" / "pooled_region.json"))
    assert rec["c1"]["passed"] is True
    capsys.readouterr()


def test_cli_partition(tmp_path, capsys):
    cfg = _write(tmp_path, TWO_USER_CFG)
    out = str(tmp_path / "out")
    assert _run(["partition", "--config", cfg, "--out-dir", out,
                 "--user", "1", "--N", "10"]) == 0
    assert _run(["partition", "--config", cfg, "--out-dir", out,
                 "--user", "1", "--N", "10", "--search", "greedy"]) == 0
    rec = cfgmod.read_record(str(tmp_path / "out" / "duo_partition.json"))
    assert rec["result"]["search"] == "greedy"
    capsys.readouterr()


def test_cli_exit_codes(tmp_path, capsys):
    bad = _write(tmp_path, PAIR_CFG.replace("1:bad", "1:worse"), "bad.cfg")
    assert _run(["bound", "--config", bad]) == 2
    assert _run(["bound", "--config", str(tmp_path / "nope.cfg")]) == 2
    pair = _write(tmp_path, PAIR_CFG)
    assert _run(["exponent", "--config", pair, "--out-dir", str(tmp_path),
                 "--users-d", "x"]) == 2
    assert _run(["exponent", "--config", pair, "--out-dir", str(tmp_path),
                 "--users-d", "1", "--subset", "2"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    # a zero flag reaches the validators instead of falling back to defaults
    for argv in (["bound", "--N", "0"], ["simulate", "--trials", "0"],
                 ["simulate", "--N", "0", "--no-bound"],
                 ["partition", "--user", "0"],
                 ["sweep", "--rate", "1:1:0.1:0.1:0.1", "--n-fixed", "0"]):
        assert _run([*argv, "--config", pair, "--out-dir", str(tmp_path)]) == 2
    assert not list(tmp_path.glob("pair_*"))
    typo = _write(tmp_path, PAIR_CFG.replace("s_grid", "s_gird"), "typo.cfg")
    assert _run(["bound", "--config", typo]) == 2
    assert "'s_gird'" in capsys.readouterr().err
    hot = _write(tmp_path, PAIR_CFG.replace("user1 = 0.1", "user1 = 1.0"),
                 "hot.cfg")
    assert _run(["simulate", "--config", hot, "--N", "20", "--no-bound",
                 "--trials", "5"]) == 3
    assert "guard" in capsys.readouterr().err
    capsys.readouterr()


@pytest.mark.parametrize("name, argv, optimisations", [
    ("bsc_pair.cfg", ["sweep", "--N", "8:8:64"], 4),
    ("bsc_gate.cfg", ["simulate", "--trials", "20"], 2),
])
def test_cli_optimises_each_exponent_once(name, argv, optimisations, tmp_path,
                                          monkeypatch, capsys):
    """A sweep over N and a simulation with its bound read one exponent
    ledger: every distinct exponent is optimised once."""
    calls = []

    def counted(fn):
        def wrapper(query, cfg):
            calls.append(query)
            return fn(query, cfg)
        return wrapper

    for module in (ramac.bounds, ramac.sim):
        for attr in ("em_exponent", "ei_exponent"):
            if hasattr(module, attr):
                monkeypatch.setattr(module, attr, counted(getattr(module, attr)))
    path = str(ROOT / "examples_cfg" / name)
    assert _run([argv[0], "--config", path, "--out-dir", str(tmp_path),
                 *argv[1:]]) == 0
    assert len(calls) == optimisations
    capsys.readouterr()


@pytest.mark.parametrize("script, args, stem", [
    ("bound_vs_simulation.py",
     ["examples_cfg/bsc_pair.cfg", "--N", "8:8:16", "--trials", "200"],
     "bsc_pair_bound_vs_sim"),
    ("threshold_sensitivity.py",
     ["examples_cfg/bsc_gate.cfg", "--trials", "200"],
     "bsc_gate_threshold_sensitivity"),
])
def test_experiment_scripts_run(script, args, stem, tmp_path):
    src = str(Path(ramac.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args,
         "--out-dir", str(tmp_path)],
        cwd=ROOT, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    rec = cfgmod.read_record(str(tmp_path / f"{stem}.json"))
    assert rec["rows"]
    assert (tmp_path / f"{stem}.csv").exists()


def test_benchmark_tracer_installs(tmp_path):
    """perfbench/spans.py wraps package names by monkeypatching; a traced
    operation fails if one of them is gone."""
    src = str(Path(ramac.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    result = tmp_path / "r.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "op.py"), str(result), "1",
         "cli", "simulate", "--config",
         str(ROOT / "perfbench" / "scenarios" / "mac2.cfg"), "--no-bound",
         "--trials", "20", "--out-dir", str(tmp_path)],
        cwd=ROOT / "perfbench", env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    names = {span[0] for span in json.loads(result.read_text())["spans"]}
    assert {"sim.threshold_build", "exponents.ei"} <= names, names


def test_cli_rerun_is_byte_identical(tmp_path, capsys):
    cfg = _write(tmp_path, PAIR_CFG)
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (a, b):
        assert _run(["simulate", "--config", cfg, "--out-dir", out,
                     "--trials", "40", "--seed", "9"]) == 0
    for ext in (".json", ".csv"):
        pa = os.path.join(a, "pair_simulate" + ext)
        pb = os.path.join(b, "pair_simulate" + ext)
        assert open(pa, "rb").read() == open(pb, "rb").read()
    capsys.readouterr()


def test_cli_env_config_dir(tmp_path, monkeypatch, capsys):
    _write(tmp_path, PAIR_CFG, "pair.cfg")
    monkeypatch.setenv(cfgmod.CONFIG_DIR_ENV, str(tmp_path))
    out = str(tmp_path / "out")
    assert _run(["exponent-limit", "--config", "pair.cfg",
                 "--out-dir", out]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("name", ["bsc_pair.cfg", "bsc_gate.cfg", "mac2.cfg"])
def test_shipped_example_configs_build(name):
    path = os.path.join(os.path.dirname(__file__), "..", "examples_cfg", name)
    system = cfgmod.build_system(cfgmod.load_config(path))
    assert system.region.members
    rep = ramac.feasibility_check(system.region, system.compound,
                                  system.laws, system.table)
    assert rep.passed
