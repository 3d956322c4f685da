"""The frozen value types: construction, immutability, equality and repr,
the modules a ramac process must not import, and the package's surface."""

import ast
import importlib.util
import inspect
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ramac
from ramac import config as cfgmod
from ramac.channels import Dmc, RateVectorIndex
from ramac.errors import ValidationError
from ramac.exponents import ExponentResult, OptimizerConfig
from ramac.sim import Z99

OPTIMIZER_FIELDS = ["rho_grid_size", "s_grid_size", "refinement_rounds"]


def test_eq_record_construction_equality_and_hash():
    a = RateVectorIndex((1, 2))
    b = RateVectorIndex(indices=(np.int64(1), 2))
    assert a == b and not a != b
    assert b.indices == (1, 2) and type(b.indices[0]) is int
    assert hash(a) == hash(b) == hash(((1, 2),))
    assert a != RateVectorIndex((2, 1))
    assert a != (1, 2) and a.__eq__((1, 2)) is NotImplemented
    table = {a: "first"}
    table[b] = "second"
    assert table == {RateVectorIndex((1, 2)): "second"}
    assert repr(a) == "RateVectorIndex(indices=(1, 2))"


def test_records_reject_bad_arguments():
    with pytest.raises(ValidationError):
        RateVectorIndex(())
    with pytest.raises(ValidationError):
        RateVectorIndex((0,))
    with pytest.raises(TypeError):
        RateVectorIndex()
    with pytest.raises(TypeError):
        RateVectorIndex((1,), (2,))
    with pytest.raises(TypeError):
        RateVectorIndex((1,), indices=(2,))
    with pytest.raises(TypeError):
        RateVectorIndex(index=(1,))


def test_records_are_frozen():
    rvi = RateVectorIndex((1,))
    channel = Dmc(1, 2, 2, np.eye(2))
    cfg = OptimizerConfig()
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
    a = Dmc(1, 2, 2, probs)
    b = Dmc(num_users=1, input_size=2, output_size=2, probs=probs)
    assert a == a and a != b
    assert hash(a) == object.__hash__(a)
    assert len({a, b}) == 2
    assert (b.num_users, b.input_size, b.output_size) == (1, 2, 2)
    assert np.array_equal(a.probs, b.probs)
    assert repr(a).startswith("Dmc(num_users=1, input_size=2, output_size=2, "
                              "probs=array(")
    with pytest.raises(ValidationError, match="probs shape"):
        Dmc(1, 2, 3, probs)


def test_record_defaults_and_declaration_order():
    cfg = OptimizerConfig()
    assert (cfg.rho_grid_size, cfg.s_grid_size, cfg.refinement_rounds) == (64, 64, 3)
    mixed = OptimizerConfig(12, refinement_rounds=1)
    assert (mixed.rho_grid_size, mixed.s_grid_size, mixed.refinement_rounds) == (12, 64, 1)
    assert mixed == OptimizerConfig(rho_grid_size=12, s_grid_size=64,
                                    refinement_rounds=1)
    assert mixed != cfg
    assert hash(mixed) == hash(tuple(getattr(mixed, f) for f in OPTIMIZER_FIELDS))
    with pytest.raises(ValidationError):
        OptimizerConfig(rho_grid_size=1)
    with pytest.raises(ValidationError):
        OptimizerConfig(12, 12, -1)
    assert repr(cfg) == (
        "OptimizerConfig(rho_grid_size=64, s_grid_size=64, refinement_rounds=3)")
    assert list(cfgmod.jsonable(cfg)) == OPTIMIZER_FIELDS
    result = ExponentResult(kind="em", variant="finite", evaluations=3,
                            s_star=0.5, rho_star=0.25, value=0.125)
    assert list(cfgmod.jsonable(result)) == [
        "value", "rho_star", "s_star", "evaluations", "variant", "kind"]


def test_z99_is_the_normal_quantile():
    exact = statistics.NormalDist().inv_cdf(0.995)
    assert Z99.hex() == exact.hex()


def _fresh_python(code: str, *args: str) -> str:
    """stdout of code run in a fresh interpreter that imports this ramac."""
    src = str(Path(ramac.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_package_import_skips_dataclasses_and_statistics():
    """Every ramac process pays for what the package imports: dataclasses
    compiles generated source for each class, statistics pulls in fractions
    and decimal."""
    code = ("import sys, ramac.cli, ramac.config; "
            "print(sorted({'dataclasses', 'statistics'} & set(sys.modules)))")
    assert _fresh_python(code) == "[]"


@pytest.mark.parametrize("module, frozen", [("ramac.cli", "True"),
                                            ("ramac", "False")])
def test_cli_import_freezes_the_heap_at_exit(module, frozen):
    """Importing ramac.cli registers gc.freeze at exit, so the interpreter's
    final collections skip numpy's tracked objects; importing ramac alone
    registers nothing. atexit runs handlers last in, first out, so a handler
    registered before the import sees the heap after the freeze."""
    code = ("import atexit, gc; "
            "atexit.register(lambda: print(gc.get_freeze_count() > 0)); "
            f"import {module}")
    assert _fresh_python(code) == frozen


def test_analytic_commands_never_import_the_simulator(tmp_path):
    """Only simulate (and exact enumeration) load ramac.sim, the package's
    largest module: a process running an analytic command neither imports
    nor compiles it."""
    code = """if True:
        import sys, ramac, ramac.cli, ramac.config
        cfg, out = sys.argv[1:]
        seen = [("import", "ramac.sim" in sys.modules)]
        for argv in (["bound"], ["partition"], ["sweep", "--N", "8:8:16"],
                     ["exponent"], ["exponent-limit"], ["region"],
                     ["simulate", "--N", "8", "--trials", "20"]):
            rc = ramac.cli.main([*argv, "--config", cfg, "--out-dir", out])
            seen.append((argv[0], rc, "ramac.sim" in sys.modules))
        print(seen)
    """
    cfg = Path(__file__).resolve().parents[1] / "examples_cfg" / "bsc_pair.cfg"
    out = _fresh_python(code, str(cfg), str(tmp_path)).splitlines()[-1]
    assert out == repr([
        ("import", False), ("bound", 0, False), ("partition", 0, False),
        ("sweep", 0, False), ("exponent", 0, False),
        ("exponent-limit", 0, False), ("region", 0, False),
        ("simulate", 0, True)])


# The package's surface: what README, scripts/ and perfbench/ use.
PUBLIC_NAMES = """
    ExponentLedger SlotDecoder ThresholdParams build_envelope c1_check
    ei_exponent em_exponent estimate_errors exact_conditional_errors
    pes_bound_classes pes_bound_finite system_exponent
""".split()
ROOT = Path(__file__).resolve().parents[1]


def test_public_names_resolve_lazily():
    """The package exports exactly PUBLIC_NAMES and sim; the simulator's
    names are served on first access (PEP 562) instead of at import."""
    namespace = {}
    exec(f"from ramac import {', '.join(PUBLIC_NAMES)}, sim", namespace)
    for name in PUBLIC_NAMES:
        assert namespace[name] is getattr(ramac, name), name
    exported = {name for name in dir(ramac) if not name.startswith("_")
                and not inspect.ismodule(getattr(ramac, name))}
    assert exported == set(PUBLIC_NAMES)
    assert "sim" in dir(ramac) and namespace["sim"] is ramac.sim
    assert ramac.sim.ThresholdParams is ramac.ThresholdParams
    assert ramac.estimate_errors is ramac.sim.estimate_errors
    with pytest.raises(AttributeError):
        ramac.not_a_name
    code = ("import sys, ramac; print('ramac.sim' in sys.modules, "
            "ramac.sim.__name__, ramac.estimate_errors.__module__)")
    assert _fresh_python(code) == "False ramac.sim ramac.sim"


# What the package may raise: its two errors, one per CLI exit code (2 and
# 3), TypeError from the record constructors and writer, and AttributeError
# from frozen records and the package's lazy __getattr__.
RAISABLE = {"ValidationError", "GuardExceeded", "TypeError", "AttributeError"}


def test_package_raises_only_its_two_errors():
    """ramac.errors holds exactly the two errors, each a plain Exception, and
    every raise under src/ramac names one of RAISABLE or re-raises."""
    import ramac.errors as errors
    classes = {name for name, obj in vars(errors).items() if inspect.isclass(obj)}
    assert classes == {"ValidationError", "GuardExceeded"}
    assert errors.ValidationError.__bases__ == (Exception,)
    assert errors.GuardExceeded.__bases__ == (Exception,)
    raised = set()
    for path in sorted((ROOT / "src" / "ramac").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = exc.id if isinstance(exc, ast.Name) else ast.unparse(exc)
                assert name in RAISABLE, (path.name, node.lineno, name)
                raised.add(name)
    assert raised == RAISABLE


def _ramac_reads(path):
    """Names path reads off the package: ramac.<name>, and the (ramac,
    "<name>") pairs that the benchmark tracer patches."""
    reads = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "ramac"):
            reads.add(node.attr)
        elif (isinstance(node, ast.Call) and len(node.args) > 1
              and isinstance(node.args[0], ast.Name)
              and node.args[0].id == "ramac"
              and isinstance(node.args[1], ast.Constant)):
            reads.add(node.args[1].value)
    return reads


def test_scripts_and_benchmark_read_resolvable_names():
    """Every ramac.<name> that scripts/ and perfbench/ read resolves, so the
    surface cannot drift away from its users."""
    paths = sorted(ROOT.glob("scripts/*.py")) + sorted(ROOT.glob("perfbench/*.py"))
    reads = {(path.name, name) for path in paths for name in _ramac_reads(path)}
    names = {name for _, name in reads}
    assert {"ExponentLedger", "exact_conditional_errors"} <= names
    for where, name in sorted(reads):
        if importlib.util.find_spec(f"ramac.{name}") is not None:
            importlib.import_module(f"ramac.{name}")  # as the file imports it
        assert hasattr(ramac, name), (where, name)
