"""Scenario configs, record files and the command-line surface."""

import json
import math
import os
import runpy
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ramac
from conftest import uniform_laws
from ramac import config as cfgmod
from ramac.channels import (CompoundSet, RateTable, RateVectorIndex,
                            validate_dmc)
from ramac.cli import main
from ramac.errors import ValidationError
from ramac.exponents import OptimizerConfig
from ramac.regions import OperationRegion, feasibility_check

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


def read_record(path):
    with open(path) as fh:
        return json.load(fh)


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
    assert cfg.region_pairs is not None
    assert cfg.defaults.n == 8
    assert cfg.defaults.trials == 50
    assert cfg.optimizer.rho_grid_size == 10
    assert cfg.optimizer.refinement_rounds == 1
    assert cfg.thresholds == ramac.ThresholdParams()


def test_load_config_law_overrides_and_manual_thresholds(tmp_path):
    text = PAIR_CFG + "\n[laws]\nu1r1 = 0.7 0.3\n"
    text = text.replace("refinement_rounds = 1",
                        "refinement_rounds = 1\nrho_tilde = 0.5\ns2 = 0.2")
    cfg = cfgmod.load_config(_write(tmp_path, text))
    assert cfg.law_overrides == (((1, 1), (0.7, 0.3)),)
    assert cfg.thresholds == ramac.ThresholdParams(rho_tilde=0.5, s2=0.2)
    system = cfgmod.build_system(cfg)
    assert np.allclose(system.laws.law(1, 1), [0.7, 0.3])


# (mutation of PAIR_CFG, the message it must raise, case label); a case's id
# is "<lambda>-<label>". The first 32 cases keep the labels they had when
# each named the error class it expected (S a schema break, P a value that
# does not parse), so that no case changes its id. Later cases are labelled
# by what they check.
S, P = "SchemaViolation", "ConfigParseError"
REJECTIONS = [
    (lambda t: t.replace("[scenario]\n", "[intro]\n"), r"missing \[scenario\]", S),
    (lambda t: t.replace("input_size = 2\n", ""), "needs input_size and output_size", S),
    (lambda t: t.replace("mode = finite", "mode = open"), "mode must be finite or class", S),
    (lambda t: t.replace("0.95 0.05; 0.05 0.95", "0.95 0.05"),
     "expected 2 rows, got 1", S),
    (lambda t: t.replace("0.95 0.05;", "0.95 0.05 0.1;"),
     "expected 2 entries, got 3", S),
    (lambda t: t.replace("0.95", "ninety"), "'ninety' is not a decimal number", P),
    (lambda t: t.replace("pairs = 1:good 1:bad", "pairs = 1:ugly"),
     "undefined channel or class id 'ugly'", S),
    (lambda t: t.replace("pairs = 1:good 1:bad", "pairs = 3:good"),
     r"rate index 3 outside 1\.\.1", S),
    (lambda t: t.replace("pairs = 1:good 1:bad", "pairs = 1good"),
     "needs the form", P),
    (lambda t: t.replace("pairs = 1:good 1:bad",
                         "pairs = 1:good\nmaximal = yes"),
     r"\[region\]: unrecognized key 'maximal'", S),
    (lambda t: t.replace("pairs = 1:good 1:bad", ""), "needs a pairs list", S),
    # the maximal region is an absent [region] section, not a key
    (lambda t: t.replace("pairs = 1:good 1:bad", "maximal = yes"),
     r"\[region\]: unrecognized key 'maximal'", S),
    (lambda t: t.replace("user1 = 0.1\n", ""), r"\[rates\] missing user1", S),
    (lambda t: t.replace("n = 8", "n = eight"), "n must be an integer", P),
    (lambda t: t + "\n[laws]\nzebra = 0.5 0.5\n", "unrecognized key 'zebra'", S),
    (lambda t: t + "\n[laws]\ndefault = uniform\n", "unrecognized key 'default'", S),
    (lambda t: t + "\n[laws]\nu1r1 = 0.5\n", "u1r1: expected 2 entries", S),
    (lambda t: t + "\n[laws]\nu9r1 = 0.5 0.5\n", "'u9r1' out of range", S),
    # keys a section does not define, misspelt or retired
    (lambda t: t.replace("users = 1", "user = 1"), "unrecognized key 'user'", S),
    (lambda t: t.replace("user1 = 0.1", "user1 = 0.1\nuser2 = 0.1"),
     "unrecognized key 'user2'", S),
    (lambda t: t.replace("pairs = 1:good 1:bad", "pairs = 1:good 1:bad\nmax = no"),
     "unrecognized key 'max'", S),
    (lambda t: t.replace("s_grid = 10", "s_gird = 10"), "unrecognized key 's_gird'", S),
    # partition flags have no [defaults] keys
    (lambda t: t + "partition_user = 2\n", "unrecognized key 'partition_user'", S),
    # an optimiser grid that would probe 10**10 points
    (lambda t: t.replace("rho_grid = 10", "rho_grid = 100000").replace(
        "s_grid = 10", "s_grid = 100000"), "probes an optimisation", "ValidationError"),
    (lambda t: t + "batch_size = 64\n", "unrecognized key 'batch_size'", S),
    (lambda t: t.replace("seed = 3", "seed = -2"), "seed must be >= 0", S),
    (lambda t: t.replace("trials = 50", "trials = 0"), "trials must be >= 1", S),
    # sections the schema does not define, and unknown channel or class keys
    (lambda t: t.replace("[defaults]", "[default]"), r"unrecognized section \[default\]", S),
    (lambda t: t.replace("[defaults]", "[DEFAULT]"), r"^\[DEFAULT\]", S),
    (lambda t: t.replace("[channel bad]\n", "[channel bad]\nrow = 1 0; 0 1\n"),
     "unrecognized key 'row'", S),
    (lambda t: t.replace("[rates]", "[class k]\nmembers = good\nmember = bad\n\n"
                         "[rates]"), "unrecognized key 'member'", S),
    # a channel in two classes
    (lambda t: t.replace("[rates]", "[class k]\nmembers = good bad\n\n"
                         "[class j]\nmembers = bad\n\n[rates]"),
     "appears in two classes", S),
    # the tilts alone say whether thresholds are manual
    (lambda t: t + "threshold_source = from_ei\n",
     "unrecognized key 'threshold_source'", "threshold_source"),
    (lambda t: t + "rho_tilde = 0.5\n", "manual thresholds need rho_tilde and s2",
     "one_tilt"),
    # a name that is no plain file name would put records outside --out-dir
    *[(lambda t, name=name: t.replace("name = pair", f"name = {name}"),
       "must be a plain file name", label)
      for name, label in (("", "empty_name"), (".", "dot_name"), ("..", "dotdot_name"),
                          ("../escaped", "parent_name"), ("a/b", "slash_name"))],
]


@pytest.mark.parametrize("mutate, match", [
    pytest.param(mutate, match, id=f"<lambda>-{label}")
    for mutate, match, label in REJECTIONS])
def test_load_config_rejections(tmp_path, mutate, match):
    with pytest.raises(ValidationError, match=match):
        cfgmod.load_config(_write(tmp_path, mutate(PAIR_CFG)))


def test_load_config_names_a_DEFAULT_section(tmp_path):
    # configparser copies [DEFAULT] keys into every section; the error must
    # name [DEFAULT], not the first section that received a copy
    text = PAIR_CFG.replace("[defaults]", "[DEFAULT]")
    with pytest.raises(ValidationError, match=r"^\[DEFAULT\]"):
        cfgmod.load_config(_write(tmp_path, text))


def test_defaults_schema_maps_each_key_to_one_field(tmp_path):
    """Every [defaults] key sets a distinct record field, and an empty
    [defaults] leaves each record at its class defaults."""
    targets = [(cls, field) for cls, field, _ in cfgmod.DEFAULTS_SCHEMA.values()]
    assert len(set(targets)) == len(targets)
    for cls, field in targets:
        assert field in cls._record_fields
    head = PAIR_CFG[:PAIR_CFG.index("[defaults]")]
    cfg = cfgmod.load_config(_write(tmp_path, head + "[defaults]\n"))
    assert cfg.defaults == cfgmod.Defaults()
    assert cfg.optimizer == OptimizerConfig()
    assert cfg.thresholds == ramac.ThresholdParams()


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ValidationError, match="config file not found"):
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
    assert cfg.region_pairs is None
    system = cfgmod.build_system(cfg)
    assert len(system.region) >= 1
    report = feasibility_check(system.region, system.compound,
                               system.laws, system.table)
    assert report.passed


def test_build_system_class_mode(tmp_path):
    system = cfgmod.build_system(
        cfgmod.load_config(_write(tmp_path, CLASS_CFG)))
    assert system.region.mode == "class"
    assert len(system.envelopes) == 1
    assert system.envelopes[0].member_ids == ("good", "bad")
    assert system.envelopes[0].class_id == "k"
    assert tuple(env.class_id for env in system.channels) == ("k",)


def test_round12_is_idempotent():
    rng = np.random.default_rng(2)
    for _ in range(300):
        x = float(rng.normal() * 10.0 ** rng.integers(-12, 12))
        once = cfgmod.round12(x)
        assert cfgmod.round12(once) == once
    assert cfgmod.round12(float("-inf")) == float("-inf")
    assert math.isnan(cfgmod.round12(float("nan")))


def test_jsonable_shapes():
    rvi = RateVectorIndex((2, 1))
    region = OperationRegion(((rvi, "c"),), "finite")
    out = cfgmod.jsonable({"region": region, "set": frozenset({2, 1}),
                           "pair": (rvi, "c"), "x": 0.1234567890123456789})
    assert out["region"] == {"mode": "finite", "members": [[[2, 1], "c"]]}
    assert out["set"] == [1, 2]
    assert out["x"] == 0.123456789012
    for value in (np.array([1.5, 2.5]), np.int64(3), {1: "a"}, object()):
        with pytest.raises(TypeError):
            cfgmod.jsonable({"value": value})


def test_record_round_trip_is_byte_identical(tmp_path):
    comp = CompoundSet(
        (validate_dmc([[0.95, 0.05], [0.05, 0.95]], 1, 2, 2),), ("c",))
    table = RateTable(((0.1,),))
    laws = uniform_laws(table, 2)
    region = OperationRegion(((RateVectorIndex((1,)), "c"),),
                             "finite")
    report = ramac.pes_bound_finite(region, ramac.ExponentLedger(
        comp, laws, table, OptimizerConfig(
            rho_grid_size=8, s_grid_size=8, refinement_rounds=0)), 12)
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    cfgmod.write_record(p1, {"report": report})
    loaded = read_record(p1)
    assert loaded["report"]["collision_log"] == -math.inf
    cfgmod.write_record(p2, loaded)
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


def test_write_table_formatting(tmp_path):
    path = str(tmp_path / "t.csv")
    cfgmod.write_table(path, ["flag", "value", "items", "gap"],
                       [[True, 0.1234567890123456, ["a", 2], None]])
    lines = Path(path).read_text().splitlines()
    assert lines[0] == "flag,value,items,gap"
    assert lines[1] == "yes,0.123456789012,a|2,"


def test_atomic_write_leaves_no_temp_files(tmp_path):
    target = tmp_path / "nested" / "out.json"
    cfgmod.write_record(str(target), {"x": 1.0})
    assert target.exists()
    leftovers = [p for p in (tmp_path / "nested").iterdir()
                 if p.name != "out.json"]
    assert leftovers == []


def test_cli_records_get_the_umask_permissions(tmp_path, capsys):
    """Records and tables are created as open() creates a file: 0o644
    under umask 0o022, not owner-only."""
    cfg = _write(tmp_path, PAIR_CFG)
    old = os.umask(0o022)
    try:
        assert _run(["bound", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    finally:
        os.umask(old)
    for name in ("pair_bound.json", "pair_bound.csv"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o644, name
    capsys.readouterr()


def _run(argv):
    return main(argv)


def test_build_system_class_mode_maximal_region(tmp_path):
    """A maximal class-mode region is the channel-level maximal region
    converted by the C1 check: whole classes pass, a split class raises."""
    maximal = CLASS_CFG.replace("[region]\npairs = 1:k\n", "")
    system = cfgmod.build_system(
        cfgmod.load_config(_write(tmp_path, maximal)))
    assert system.region.mode == "class"
    assert [(rvi.indices, cid) for rvi, cid in system.region.members] == [
        ((1,), "k")]
    # 0.35 nats is below the good channel's capacity and above the bad one's
    split = _write(tmp_path, maximal.replace("user1 = 0.1", "user1 = 0.35"),
                   "split.cfg")
    with pytest.raises(ValidationError, match="split by the region"):
        cfgmod.build_system(cfgmod.load_config(split))


def test_cli_region_writes_violation_rows(tmp_path, capsys):
    """region on an explicit region above both channels' capacities exits
    0 and writes one violation row a member."""
    cfg = _write(tmp_path, PAIR_CFG.replace("user1 = 0.1", "user1 = 0.9"))
    assert _run(["region", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    assert "INFEASIBLE" in capsys.readouterr().out
    rec = read_record(str(tmp_path / "pair_region.json"))
    assert rec["feasibility"]["passed"] is False
    rows = (tmp_path / "pair_region.csv").read_text().splitlines()
    assert rows[1] == "feasible,,,,no"
    assert [row.split(",")[:3] for row in rows[2:]] == [
        ["violation", "1|good", ""], ["violation", "1|bad", ""]]
    margins = [float(row.split(",")[3]) for row in rows[2:]]
    assert margins == [v[5] for v in rec["feasibility"]["violations"]]
    assert all(m < 0 for m in margins)


def test_cli_exponent_bound_limit_region(tmp_path, capsys):
    cfg = _write(tmp_path, PAIR_CFG)
    out = str(tmp_path / "out")
    assert _run(["exponent", "--config", cfg, "--out-dir", out]) == 0
    assert _run(["exponent", "--config", cfg, "--out-dir", out,
                 "--kind", "em", "--true-pair", "1:good",
                 "--comp-pair", "1:bad"]) == 0
    full = read_record(str(tmp_path / "out" / "pair_exponent.json"))
    # D = every user reduces to the full exponent, competing channel included
    assert _run(["exponent", "--config", cfg, "--out-dir", out,
                 "--kind", "em", "--true-pair", "1:good",
                 "--comp-pair", "1:bad", "--users-d", "1"]) == 0
    reduced = read_record(str(tmp_path / "out" / "pair_exponent.json"))
    assert reduced["result"]["value"] == full["result"]["value"]
    assert _run(["bound", "--config", cfg, "--out-dir", out, "--N", "12"]) == 0
    assert _run(["exponent-limit", "--config", cfg, "--out-dir", out]) == 0
    assert _run(["region", "--config", cfg, "--out-dir", out,
                 "--maximal"]) == 0
    for stem in ("pair_exponent", "pair_bound", "pair_exponent-limit",
                 "pair_region"):
        assert (tmp_path / "out" / f"{stem}.json").exists()
        assert (tmp_path / "out" / f"{stem}.csv").exists()
    rec = read_record(str(tmp_path / "out" / "pair_bound.json"))
    assert rec["report"]["n"] == 12
    assert rec["report"]["branch"] == "decode"
    capsys.readouterr()


def test_cli_exponent_on_empty_region(tmp_path, capsys):
    """Above both channels' capacities the maximal region is empty: without
    --true-pair there is no default pair, with it the exponent is the one the
    explicit region's system gives."""
    hot = PAIR_CFG.replace("user1 = 0.1", "user1 = 0.9")
    empty = _write(tmp_path, hot.replace("[region]\npairs = 1:good 1:bad\n", ""),
                   "empty.cfg")
    out = str(tmp_path / "out")
    assert not cfgmod.build_system(cfgmod.load_config(empty)).region.members
    assert _run(["exponent", "--config", empty, "--out-dir", out]) == 2
    assert "region is empty" in capsys.readouterr().err
    pair = ["--true-pair", "1:good", "--comp-pair", "1:bad"]
    assert _run(["exponent", "--config", empty, "--out-dir", out, *pair]) == 0
    got = read_record(str(tmp_path / "out" / "pair_exponent.json"))
    assert got["true_pair"] == [[1], "good"]
    explicit = _write(tmp_path, hot, "explicit.cfg")
    assert _run(["exponent", "--config", explicit, "--out-dir", out, *pair]) == 0
    assert got == read_record(str(tmp_path / "out" / "pair_exponent.json"))
    capsys.readouterr()


def test_cli_simulate_and_sweep(tmp_path, capsys):
    cfg = _write(tmp_path, PAIR_CFG)
    out = str(tmp_path / "out")
    assert _run(["simulate", "--config", cfg, "--out-dir", out,
                 "--trials", "40"]) == 0
    rec = read_record(str(tmp_path / "out" / "pair_simulate.json"))
    assert rec["report"]["trials"] == 40
    assert rec["report"]["bound_holds"] in (True, False)
    assert _run(["sweep", "--config", cfg, "--out-dir", out,
                 "--N", "10:10:30"]) == 0
    rec = read_record(str(tmp_path / "out" / "pair_sweep.json"))
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
    rec = read_record(str(tmp_path / "out" / "pooled_region.json"))
    assert rec["c1"]["passed"] is True
    capsys.readouterr()


def test_cli_region_classes_on_a_finite_scenario(tmp_path, capsys):
    """region --classes checks a finite region against the [class] sections'
    envelopes: a region holding only part of class k fails C1, one holding
    all of it passes, and a scenario without classes exits 2."""
    classed = PAIR_CFG.replace("[rates]", "[class k]\nmembers = good bad\n\n"
                               "[rates]")
    out = tmp_path / "out"
    for pairs, passed, violations in (
            ("1:good", False, [[[1], "k", ["good"], ["bad"]]]),
            ("1:good 1:bad", True, [])):
        cfg = _write(tmp_path, classed.replace("pairs = 1:good 1:bad",
                                               f"pairs = {pairs}"))
        assert _run(["region", "--config", cfg, "--out-dir", str(out),
                     "--classes"]) == 0
        c1 = read_record(str(out / "pair_region.json"))["c1"]
        assert (c1["passed"], c1["violations"]) == (passed, violations)
    plain = _write(tmp_path, PAIR_CFG, "plain.cfg")
    assert _run(["region", "--config", plain, "--out-dir", str(tmp_path),
                 "--classes"]) == 2
    assert "no classes defined" in capsys.readouterr().err
    assert not list(tmp_path.glob("pair_*"))


def test_cli_partition(tmp_path, capsys):
    cfg = _write(tmp_path, TWO_USER_CFG)
    out = str(tmp_path / "out")
    assert _run(["partition", "--config", cfg, "--out-dir", out,
                 "--user", "1", "--N", "10"]) == 0
    assert _run(["partition", "--config", cfg, "--out-dir", out,
                 "--user", "1", "--N", "10", "--search", "greedy"]) == 0
    rec = read_record(str(tmp_path / "out" / "duo_partition.json"))
    assert rec["result"]["search"] == "greedy"
    capsys.readouterr()


def test_cli_rejects_negative_seeds_and_allow_drop(tmp_path, monkeypatch,
                                                  capsys):
    """A negative seed or a trial count below 1, from the flag or the config,
    exits 2 before any exponent work (a negative seed used to exit 4 with
    SeedSequence's ValueError, and a zero trial count to exit 2 only after
    the bound); --allow-drop, whose exhaustive search always chose the empty
    partition, is gone."""
    def no_exponents(query, cfg):
        raise AssertionError("exponent work before the size guards")

    for attr in ("em_exponent", "ei_exponent"):
        monkeypatch.setattr(ramac.bounds, attr, no_exponents)
    pair = _write(tmp_path, PAIR_CFG)
    assert _run(["simulate", "--config", pair, "--out-dir", str(tmp_path),
                 "--seed", "-1"]) == 2
    assert "error: --seed must be >= 0" in capsys.readouterr().err
    for trials in ("0", "-5"):
        assert _run(["simulate", "--config", pair, "--out-dir",
                     str(tmp_path), "--trials", trials]) == 2
        assert "error: --trials must be >= 1" in capsys.readouterr().err
    for key, value in (("seed = 3", "seed = -2"), ("trials = 50", "trials = 0")):
        bad = _write(tmp_path, PAIR_CFG.replace(key, value), "bad.cfg")
        assert _run(["simulate", "--config", bad, "--out-dir",
                     str(tmp_path)]) == 2
        assert f"{key.split()[0]} must be >= " in capsys.readouterr().err
    duo = _write(tmp_path, TWO_USER_CFG, "duo.cfg")
    assert _run(["partition", "--config", duo, "--out-dir", str(tmp_path),
                 "--allow-drop"]) == 2
    assert "--allow-drop" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.json"))


@pytest.mark.parametrize("span", [
    ["--N", "8:x:24"],
    ["--rate", "1:one:0.1:0.1:0.2"],
    ["--rate", "3:1:0.1:0.1:0.2"],  # bsc_pair has one user
    ["--rate", "0:1:0.1:0.1:0.2"],  # user 0 would index the last user
    ["--rate", "1:0:0.1:0.1:0.2"],  # class 0 would index the last class
    ["--n-fixed", "10", "--N", "8:8:24"],  # only a rate sweep reads it
    ["--N", "8:1:100000000"],  # 10**8 points
    ["--rate", "1:1:0.05:1e-9:1"],  # about 10**9 points
    ["--rate", "1:1:0.05:0.05:inf"],
    ["--N", "0:8:24"],
    ["--N", "8:0:24"],
    ["--rate", "1:1:0.1:0:0.2"],
    ["--N", "20:8:12"],  # no points
    ["--rate", "1:1:0.3:0.01:0.2", "--n-fixed", "16"],
])
def test_cli_sweep_rejects_malformed_spans(tmp_path, monkeypatch, capsys, span):
    """A malformed, endless or empty span exits 2 before any exponent
    work and writes nothing."""
    def no_exponents(query, cfg):
        raise AssertionError("exponent work before the span checks")

    for attr in ("em_exponent", "ei_exponent"):
        monkeypatch.setattr(ramac.bounds, attr, no_exponents)
    cfg = str(ROOT / "examples_cfg" / "bsc_pair.cfg")
    assert _run(["sweep", "--config", cfg, "--out-dir", str(tmp_path),
                 *span]) == 2
    assert f"error: {span[0]} " in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_cli_exit_codes(tmp_path, capsys, monkeypatch):
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
                 ["sweep", "--rate", "1:1:0.1:0.1:0.1", "--n-fixed", "0"],
                 ["sweep", "--N", "8:8:24", "--rate", "1:1:0.05:0.05:0.1"],
                 ["sweep", "--N", "8:8:24", "--n-fixed", "10"],
                 ["sweep"]):
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

    def broken(args, system):
        raise RuntimeError("a defect")

    monkeypatch.setattr(ramac.cli, "_cmd_bound", broken)
    assert _run(["bound", "--config", pair, "--out-dir", str(tmp_path)]) == 4
    assert capsys.readouterr().err == "internal error: RuntimeError: a defect\n"


@pytest.mark.parametrize("name", ["", ".", "..", "../escaped"])
def test_cli_scenario_name_stays_in_out_dir(name, tmp_path, capsys):
    """The scenario name is the stem of the record files, so a name that is
    no plain file name exits 2 before anything is written, in --out-dir or
    out of it."""
    cfg = _write(tmp_path, PAIR_CFG.replace("name = pair", f"name = {name}"))
    assert _run(["bound", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    assert "must be a plain file name" in capsys.readouterr().err
    assert [p.name for p in tmp_path.rglob("*")] == ["scenario.cfg"]


def test_cli_size_guards_before_work(tmp_path, capsys):
    # each input used to run on (a sweep of 10**8 points, an optimiser grid
    # of 10**10 probes) or end in an OverflowError with exit 4
    pair = str(ROOT / "examples_cfg" / "bsc_pair.cfg")
    assert _run(["simulate", "--config", pair, "--out-dir", str(tmp_path),
                 "--N", "10000", "--trials", "10"]) == 3
    assert "guard exceeded" in capsys.readouterr().err
    assert _run(["sweep", "--config", pair, "--out-dir", str(tmp_path),
                 "--N", "8:1:100000000"]) == 2
    assert "at most 1000 points" in capsys.readouterr().err
    wide = _write(tmp_path, PAIR_CFG.replace("rho_grid = 10", "rho_grid = 100000")
                  .replace("s_grid = 10", "s_grid = 100000"), "wide.cfg")
    assert _run(["bound", "--config", wide, "--out-dir", str(tmp_path)]) == 2
    assert "probes an optimisation" in capsys.readouterr().err
    assert not list(tmp_path.glob("*_*"))


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
    rec = read_record(str(tmp_path / f"{stem}.json"))
    assert rec["rows"]
    assert (tmp_path / f"{stem}.csv").exists()


def _script_main(script):
    return runpy.run_path(str(ROOT / "scripts" / script))["main"]


def test_bound_vs_simulation_reads_config_thresholds(tmp_path, capsys):
    """The script's empirical column is `ramac simulate`'s system error under
    the scenario's own thresholds, here manual ones that gate differently
    from the tilts the crossing exponents give."""
    text = (ROOT / "examples_cfg" / "bsc_gate.cfg").read_text()
    cfg = _write(tmp_path, text + "rho_tilde = 0.1\ns2 = 0.05\n")
    out = str(tmp_path)
    assert _script_main("bound_vs_simulation.py")(
        [cfg, "--N", "16:16:16", "--trials", "200", "--out-dir", out]) == 0
    assert _run(["simulate", "--config", cfg, "--N", "16", "--trials", "200",
                 "--out-dir", out]) == 0
    script = read_record(tmp_path / "bsc_gate_bound_vs_sim.json")
    sim = read_record(tmp_path / "bsc_gate_simulate.json")
    assert script["rows"][0][3] == sim["report"]["system_error_rate"]
    capsys.readouterr()


@pytest.mark.parametrize("text", ["8:x:16", "0:8:16", "20:8:12", "1:1:100000000"])
def test_bound_vs_simulation_rejects_bad_spans(text, tmp_path, capsys):
    """A malformed, non-positive, empty or over-long span exits 2 while the arguments
    are parsed, before the config is read: the config path here does not
    exist."""
    with pytest.raises(SystemExit) as info:
        _script_main("bound_vs_simulation.py")(
            [str(tmp_path / "missing.cfg"), "--N", text])
    assert info.value.code == 2
    assert "argument --N" in capsys.readouterr().err


@pytest.mark.parametrize("script", ["bound_vs_simulation.py",
                                    "threshold_sensitivity.py"])
@pytest.mark.parametrize("flag, text", [("--trials", "0"), ("--seed", "-1")])
def test_experiment_scripts_reject_bad_flags(script, flag, text, tmp_path, capsys):
    """No trials or a negative seed exits 2 while the arguments are parsed,
    before the config is read: the config path here does not exist."""
    with pytest.raises(SystemExit) as info:
        _script_main(script)([str(tmp_path / "missing.cfg"), flag, text])
    assert info.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err


def test_threshold_sensitivity_zero_n_is_rejected(tmp_path, capsys):
    """--N 0 reaches the validators instead of falling back to the default."""
    cfg = str(ROOT / "examples_cfg" / "bsc_gate.cfg")
    with pytest.raises(ValidationError):
        _script_main("threshold_sensitivity.py")(
            [cfg, "--N", "0", "--trials", "5", "--out-dir", str(tmp_path)])
    capsys.readouterr()


@pytest.mark.parametrize("flag, text", [
    ("--rho", "0.2:0:1.0"), ("--rho", "0.2:-0.1:1.0"), ("--s2-frac", "1:2"),
    ("--rho", "0.2:x:1.0"), ("--s2-frac", "0:1e-9:1"), ("--rho", "0:1:inf"),
    ("--rho", "0.8:0.2:0.4"),
])
def test_threshold_sensitivity_rejects_bad_grids(flag, text, tmp_path, capsys):
    """A malformed grid, a step <= 0, an endless or an empty grid exits 2
    while the arguments are parsed, before the config is read: the config
    path here does not exist."""
    with pytest.raises(SystemExit) as info:
        _script_main("threshold_sensitivity.py")(
            [str(tmp_path / "missing.cfg"), flag, text])
    assert info.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err


def test_benchmark_tracer_installs(tmp_path):
    """perfbench/spans.py wraps package names by monkeypatching; a traced
    operation fails if one of them is gone. It skips names that do not
    exist, so the spans each operation must record are asserted too: a
    finite simulate, a class-mode bound, and exact enumeration, which op.py
    calls with exact_conditional_errors' keywords."""
    src = str(Path(ramac.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    scenarios = ROOT / "perfbench" / "scenarios"
    result = tmp_path / "r.json"
    for args, spans in (
            (["cli", "simulate", "--config", str(scenarios / "mac2.cfg"),
              "--no-bound", "--trials", "20", "--out-dir", str(tmp_path)],
             {"sim.estimate_errors", "sim.threshold_build", "exponents.ei"}),
            (["cli", "bound", "--config", str(scenarios / "class_k1.cfg"),
              "--out-dir", str(tmp_path)],
             {"exponents.em", "exponents.ei"}),
            (["exact", str(scenarios / "bsc_pair.cfg"), "8", "1", "3",
              str(tmp_path / "exact.json")], {"sim.exact"})):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "op.py"), str(result),
             "1", *args],
            cwd=ROOT / "perfbench", env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        names = {span[0] for span in json.loads(result.read_text())["spans"]}
        assert spans <= names, (args[0], names)


def test_cli_rerun_is_byte_identical(tmp_path, capsys):
    cfg = _write(tmp_path, PAIR_CFG)
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (a, b):
        assert _run(["simulate", "--config", cfg, "--out-dir", out,
                     "--trials", "40", "--seed", "9"]) == 0
    for ext in (".json", ".csv"):
        pa = os.path.join(a, "pair_simulate" + ext)
        pb = os.path.join(b, "pair_simulate" + ext)
        assert Path(pa).read_bytes() == Path(pb).read_bytes()
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
    rep = feasibility_check(system.region, system.compound,
                            system.laws, system.table)
    assert rep.passed
