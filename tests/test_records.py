"""The frozen value types: construction, immutability, equality and repr,
and the modules a ramac process must not import."""

import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ramac
from ramac import config as cfgmod

OPTIMIZER_FIELDS = ["rho_grid_size", "s_grid_size", "refinement_rounds"]


def test_eq_record_construction_equality_and_hash():
    a = ramac.RateVectorIndex((1, 2))
    b = ramac.RateVectorIndex(indices=(np.int64(1), 2))
    assert a == b and not a != b
    assert b.indices == (1, 2) and type(b.indices[0]) is int
    assert hash(a) == hash(b) == hash(((1, 2),))
    assert a != ramac.RateVectorIndex((2, 1))
    assert a != (1, 2) and a.__eq__((1, 2)) is NotImplemented
    table = {a: "first"}
    table[b] = "second"
    assert table == {ramac.RateVectorIndex((1, 2)): "second"}
    assert repr(a) == "RateVectorIndex(indices=(1, 2))"


def test_records_reject_bad_arguments():
    with pytest.raises(ramac.ValidationError):
        ramac.RateVectorIndex(())
    with pytest.raises(ramac.ValidationError):
        ramac.RateVectorIndex((0,))
    with pytest.raises(TypeError):
        ramac.RateVectorIndex()
    with pytest.raises(TypeError):
        ramac.RateVectorIndex((1,), (2,))
    with pytest.raises(TypeError):
        ramac.RateVectorIndex((1,), indices=(2,))
    with pytest.raises(TypeError):
        ramac.RateVectorIndex(index=(1,))


def test_records_are_frozen():
    rvi = ramac.RateVectorIndex((1,))
    channel = ramac.Dmc(1, 2, 2, np.eye(2))
    cfg = ramac.OptimizerConfig()
    for obj, name in ((rvi, "indices"), (channel, "probs"),
                      (cfg, "rho_grid_size"), (cfg, "not_a_field")):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert rvi.indices == (1,) and cfg.rho_grid_size == 64
    assert not channel.probs.flags.writeable


def test_identity_record_equality_and_hash():
    probs = np.array([[0.9, 0.1], [0.1, 0.9]])
    a = ramac.Dmc(1, 2, 2, probs)
    b = ramac.Dmc(num_users=1, input_size=2, output_size=2, probs=probs)
    assert a == a and a != b
    assert hash(a) == object.__hash__(a)
    assert len({a, b}) == 2
    assert (b.num_users, b.input_size, b.output_size) == (1, 2, 2)
    assert np.array_equal(a.probs, b.probs)
    assert repr(a).startswith("Dmc(num_users=1, input_size=2, output_size=2, "
                              "probs=array(")
    with pytest.raises(ramac.DimensionMismatch):
        ramac.Dmc(1, 2, 3, probs)


def test_record_defaults_and_declaration_order():
    cfg = ramac.OptimizerConfig()
    assert (cfg.rho_grid_size, cfg.s_grid_size, cfg.refinement_rounds) == (64, 64, 3)
    mixed = ramac.OptimizerConfig(12, refinement_rounds=1)
    assert (mixed.rho_grid_size, mixed.s_grid_size, mixed.refinement_rounds) == (12, 64, 1)
    assert mixed == ramac.OptimizerConfig(rho_grid_size=12, s_grid_size=64,
                                          refinement_rounds=1)
    assert mixed != cfg
    assert hash(mixed) == hash(tuple(getattr(mixed, f) for f in OPTIMIZER_FIELDS))
    with pytest.raises(ramac.ValidationError):
        ramac.OptimizerConfig(rho_grid_size=1)
    with pytest.raises(ramac.ValidationError):
        ramac.OptimizerConfig(12, 12, -1)
    assert repr(cfg) == (
        "OptimizerConfig(rho_grid_size=64, s_grid_size=64, refinement_rounds=3)")
    assert list(cfgmod.jsonable(cfg)) == OPTIMIZER_FIELDS
    result = ramac.ExponentResult(kind="em", variant="finite", evaluations=3,
                                  s_star=0.5, rho_star=0.25, value=0.125)
    assert list(cfgmod.jsonable(result)) == [
        "value", "rho_star", "s_star", "evaluations", "variant", "kind"]


def test_z99_is_the_normal_quantile():
    exact = statistics.NormalDist().inv_cdf(0.995)
    assert ramac.Z99.hex() == exact.hex()


def test_package_import_skips_dataclasses_and_statistics():
    """Every ramac process pays for what the package imports: dataclasses
    compiles generated source for each class, statistics pulls in fractions
    and decimal."""
    src = str(Path(ramac.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, ramac.cli, ramac.config; "
            "print(sorted({'dataclasses', 'statistics'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
