"""Benchmark of the `ramac` command line: time to result per subcommand.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-references [--workload NAME]

Run from the root of a source checkout; the package is imported from
`src/`. Each operation runs in a fresh Python process, one at a time, the way
a user runs the CLI (a closed loop with one client). A pass runs every
operation of the workload once; passes repeat until the next one would end
after S seconds (at least one pass). The seed picks one of VARIANTS input
variants (block lengths, Monte Carlo seeds) of equal cost, whose outputs were
recorded in references.json at commit c5eedec.

With --trace 0 the last line of stdout holds the end-to-end metrics (see
end_to_end), with times scaled by the speed probe (see probe). With
--trace 1 one untraced pass is followed by one pass whose layer boundaries
are wrapped (see spans.py), and the last line holds the per-layer metrics,
in layers.py. The line
before it always holds the environment and per-operation statistics.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from scipy.special import logsumexp

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SCENARIOS = HERE / "scenarios"
REFERENCES = HERE / "references.json"
VARIANTS = 16
# A run stops waiting for operations this long after it starts, so that it
# ends well within 180 s even when the package hangs.
RUN_LIMIT_S = 160
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
COMMANDS = ("simulate", "sweep", "bound", "partition", "exact")


@dataclasses.dataclass(frozen=True)
class Op:
    label: str  # the subcommand, or "exact"
    kind: str  # "cli" or "exact", see op.py
    args: tuple

    def argv(self, out_dir: Path) -> list:
        if self.kind == "cli":
            return [*self.args, "--out-dir", str(out_dir)]
        return [*self.args, str(out_dir / "exact.json")]


def _cli(command, scenario, *args):
    return Op(command, "cli",
              (command, "--config", str(SCENARIOS / f"{scenario}.cfg"), *args))


def _ops(workload: str, v: int) -> list:
    """The operations of one pass of `workload` in input variant v. Variants
    change block lengths of analytic operations (exponents do not depend on
    N, so the work does not change) and Monte Carlo / codebook seeds."""
    seed = str(1000 + v)
    if workload == "analytic_k1":
        return [_cli("simulate", "bsc_gate", "--trials", "2000",
                     "--seed", seed),
                _cli("sweep", "bsc_gate", "--N", f"{12 + v}:8:{20 + v}")]
    if workload == "analytic_k2":
        return [_cli("bound", "mac2", "--N", str(12 + v)),
                _cli("partition", "part_k2", "--user", "1", "--search",
                     "exhaustive", "--N", str(40 + 2 * v)),
                _cli("bound", "class_k1", "--N", str(16 + v))]
    if workload == "decode_k2":
        return [_cli("simulate", "mac2", "--no-bound", "--trials", "200",
                     "--seed", seed)]
    if workload == "sample_k1":
        return [_cli("simulate", "bsc_pair", "--no-bound", "--trials",
                     "200000", "--seed", seed),
                Op("exact", "exact",
                   (str(SCENARIOS / "bsc_pair.cfg"), "12", "4", seed))]
    raise KeyError(workload)


WORKLOADS = ("analytic_k1", "analytic_k2", "decode_k2", "sample_k1")
END_TO_END = {"setup_s": "s", "workload_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    **layers.UNITS,
    **{f"cmd.{c}_s": "s" for c in COMMANDS},
    "cmd.trials_per_s": "slots/s",
    "trace.workload_s": "s",
    "trace.overhead_s": "s",
}


# -- correctness --------------------------------------------------------------

def extract(record: dict) -> dict:
    """The values of a record that are checked against the references."""
    command = record["command"]
    if command == "simulate":
        r = record["report"]
        return {"cases": [[c["rate_indices"], c["channel_id"], c["errors"]]
                          for c in r["cases"]], "bound": r["bound"]}
    if command == "sweep":
        return {"rows": record["rows"]}
    if command == "bound":
        r = record["report"]
        return {"log_bound": r["log_bound"],
                "exponents": [t["exponent"] for t in r["terms"]]}
    if command == "partition":
        r = record["result"]
        return {"log_bound": r["log_bound"], "partition": r["partition"]}
    if command == "exact":
        r = record["report"]
        return {"cases": [c["probability"] for c in r["cases"]],
                "per_sample": [[c["probability"] for c in s]
                               for s in r["per_sample"]]}
    raise KeyError(command)


def matches(got, want, absolute: bool) -> bool:
    """Floats within 1e-12 absolute (exact probabilities) or 1e-9 relative
    (exponents, bounds, sweep rows); everything else equal."""
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(matches(got[k], want[k], absolute) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(matches(g, w, absolute) for g, w in zip(got, want)))
    if isinstance(want, float) or isinstance(got, float):
        if not isinstance(got, (int, float)) or isinstance(got, bool):
            return False
        if absolute:
            return abs(got - want) <= 1e-12
        return math.isclose(got, want, rel_tol=1e-9, abs_tol=0.0)
    return got == want


# -- running operations -------------------------------------------------------

# Every reported time is divided by the host's slowness while it was taken,
# as probe() measures it between operations; this cancels most of the speed
# drift a shared host shows over minutes. The kernels stand for the kinds of
# work the package's time goes to: small-array numpy calls, interpreter
# loops and passes over mid-size arrays. No code of the package runs in them,
# so no change to the package can move them. Each comes with its time on the
# 2-core host the benchmark was built on; the raw times stay in the report.
_SMALL = np.linspace(-2.0, 1.0, 12).reshape(2, 2, 3)
_MID = np.linspace(0.0, 1.0, 4096 * 32).reshape(4096, 16, 2)


def _small_calls():
    for _ in range(600):
        logsumexp(_SMALL, axis=(0, 1))


def _interpreter_loop():
    counts = {}
    for i in range(300000):
        counts[i & 1023] = counts.get(i & 1023, 0) + i


def _mid_arrays():
    for _ in range(100):
        (_MID[..., None] > _MID[:, :, :1, None]).sum(axis=-1)


PROBE_KERNELS = ((_small_calls, 0.10), (_interpreter_loop, 0.065),
                 (_mid_arrays, 0.06))


def probe() -> float:
    """The host's slowness now: the mean over the probe kernels of their
    time over their reference time (1.0 at the reference speed)."""
    total = 0.0
    for kernel, ref_s in PROBE_KERNELS:
        start = time.perf_counter()
        kernel()
        total += (time.perf_counter() - start) / ref_s
    return total / len(PROBE_KERNELS)


@dataclasses.dataclass
class OpRun:
    label: str
    wall_s: float
    setup_s: float = math.nan
    rss_mb: float = math.nan
    record: bytes = b""
    spans: list = dataclasses.field(default_factory=list)
    error: str = ""
    # 1 / the mean slowness of the probes just before and after the op.
    speed: float = 1.0

    @property
    def slots(self) -> int:
        """Simulated slots (trials summed over cases) of a simulate record."""
        if self.label != "simulate" or self.error:
            return 0
        cases = json.loads(self.record)["report"]["cases"]
        return sum(c["trials"] for c in cases)


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in THREAD_VARS:
        env.setdefault(var, "1")
    return env


def run_op(op: Op, trace: bool, out_dir: Path, env: dict,
           deadline=None) -> OpRun:
    out_dir.mkdir(parents=True)
    result_path = out_dir / "op.json"
    argv = [sys.executable, str(HERE / "op.py"), str(result_path),
            "1" if trace else "0", op.kind, *op.argv(out_dir)]
    start = time.perf_counter()
    timeout = None if deadline is None else max(1.0, deadline - start)
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return OpRun(op.label, time.perf_counter() - start,
                     error=f"timed out after {timeout:.0f} s")
    wall = time.perf_counter() - start
    run = OpRun(op.label, wall)
    if proc.returncode != 0 or not result_path.is_file():
        run.error = f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"
        return run
    result = json.loads(result_path.read_text())
    if Path(result["ramac"]).resolve() != (SRC / "ramac").resolve():
        run.error = f"imported ramac from {result['ramac']}, not {SRC}"
        return run
    records = sorted(p for p in out_dir.glob("*.json") if p != result_path)
    if len(records) != 1:
        run.error = f"expected one record, found {len(records)}"
        return run
    run.setup_s = result["ready"] - start
    run.rss_mb = result["maxrss_kb"] / 1024.0
    run.record = records[0].read_bytes()
    run.spans = result["spans"]
    return run


@dataclasses.dataclass
class Pass:
    wall_s: float  # probes included
    ops: list
    probes: list

    @property
    def rss_mb(self) -> float:
        return max((op.rss_mb for op in self.ops if not op.error),
                   default=math.nan)

    @property
    def scaled_s(self) -> float:
        return sum(op.wall_s * op.speed for op in self.ops)


def run_pass(ops, trace: bool, pass_dir: Path, env: dict,
             deadline=None) -> Pass:
    start = time.perf_counter()
    probes = [probe()]
    runs = []
    for i, op in enumerate(ops):
        run = run_op(op, trace, pass_dir / f"{i}_{op.label}", env, deadline)
        probes.append(probe())
        run.speed = 2.0 / (probes[-2] + probes[-1])
        runs.append(run)
    return Pass(time.perf_counter() - start, runs, probes)


def check_pass(p: Pass, want, first) -> None:
    """Mark each operation of p that mismatches its reference (want, one
    entry per operation) or whose record differs byte for byte from the same
    operation of the first pass."""
    for i, op in enumerate(p.ops):
        if op.error:
            continue
        try:
            got = extract(json.loads(op.record))
        except (ValueError, KeyError, TypeError) as exc:
            op.error = f"unreadable record: {exc!r}"
            continue
        if not matches(got, want[i], op.label == "exact"):
            op.error = "output differs from the reference"
        elif first is not None and op.record != first.ops[i].record:
            op.error = "record differs from the same operation's first run"


# -- reporting ----------------------------------------------------------------

def tail(values) -> dict:
    """Median, plus the highest listed percentile with >= 10 samples beyond
    it (none when the run has too few samples), with the sample count."""
    values = sorted(values)
    out = {"n": len(values), "median": statistics.median(values)}
    for pct in (99.9, 99, 95, 90, 75):
        rank = math.ceil(pct / 100 * len(values))
        if len(values) - rank >= 10:
            out[f"p{pct:g}"] = values[rank - 1]
            break
    return out


def git_revision():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(env: dict) -> dict:
    def version(name):
        try:
            return importlib.metadata.version(name)
        except importlib.metadata.PackageNotFoundError:
            return None

    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = None
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "threads": {var: env.get(var) for var in THREAD_VARS},
        "git_revision": git_revision(),
        "loadavg_at_start": loadavg,
    }


def command_seconds(p: Pass) -> dict:
    """Per-subcommand scaled wall times of one pass, and simulated slots per
    scaled second of `simulate`."""
    out = {f"cmd.{c}_s": 0.0 for c in COMMANDS}
    for op in p.ops:
        out[f"cmd.{op.label}_s"] += op.wall_s * op.speed
    slots = sum(op.slots for op in p.ops)
    out["cmd.trials_per_s"] = slots / out["cmd.simulate_s"] if slots else 0.0
    return out


def end_to_end(passes) -> dict:
    """setup_s: median over the run's processes. workload_s: the sum over
    the pass's operations of each one's median over passes. peak_rss_mb:
    median over passes of the largest process. Times are scaled."""
    ok = [op for p in passes for op in p.ops if not op.error]
    per_op = [[p.ops[i].wall_s * p.ops[i].speed for p in passes
               if not p.ops[i].error] for i in range(len(passes[0].ops))]
    return {
        "setup_s": statistics.median(op.setup_s * op.speed for op in ok),
        "workload_s": sum(statistics.median(v) for v in per_op if v),
        "peak_rss_mb": statistics.median(
            p.rss_mb for p in passes if not math.isnan(p.rss_mb)),
    }


def emit(report: dict, passes, metrics: dict, units: dict,
         traced=None) -> None:
    """Print the report line and the result line. Statistics cover the
    untraced passes; failures are counted over the traced pass too."""
    ops = [op for p in passes + ([traced] if traced else []) for op in p.ops]
    failed = [op for op in ops if op.error]
    for op in failed:
        print(f"FAILED {op.label}: {op.error}", file=sys.stderr)
    report["failed_share"] = len(failed) / len(ops)
    report["slowness"] = tail([p for q in passes for p in q.probes])
    report["ops"] = []
    for i, op in enumerate(passes[0].ops):
        runs = [p.ops[i] for p in passes if not p.ops[i].error]
        stats = {"label": op.label}
        if runs:
            stats["wall_s"] = tail([r.wall_s for r in runs])
            stats["scaled_s"] = tail([r.wall_s * r.speed for r in runs])
            stats["setup_s"] = tail([r.setup_s for r in runs])
        report["ops"].append(stats)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))


def measure(workload: str, seed: int, seconds: float, trace: bool) -> int:
    env = child_env()
    # One CPU for this process, its probes and every operation process
    # (they inherit it), so the probe sees the same core as the operations.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    v = seed % VARIANTS
    report = {"workload": workload, "seed": seed, "variant": v,
              "environment": environment(env)}
    want = json.loads(REFERENCES.read_text())[workload][str(v)]
    ops = _ops(workload, v)
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    # Untimed warm-up: byte-compiles the package, fills the file cache and
    # takes the probe's first-call costs.
    subprocess.run([sys.executable, "-c", "import ramac.cli"], env=env,
                   cwd=ROOT, capture_output=True)
    probe()
    passes = []
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    while True:
        p = run_pass(ops, False, work / f"pass{len(passes)}", env, deadline)
        check_pass(p, want, passes[0] if passes else None)
        passes.append(p)
        if trace:
            break
        longest = max(q.wall_s for q in passes)
        if time.perf_counter() - start + longest > seconds:
            break
    if all(op.error for q in passes for op in q.ops):
        for op in passes[0].ops:
            print(f"FAILED {op.label}: {op.error}", file=sys.stderr)
        return 1
    if not trace:
        emit(report, passes, end_to_end(passes), END_TO_END)
        return 0
    traced = run_pass(ops, True, work / "traced", env, deadline)
    check_pass(traced, want, passes[0])
    metrics = layers.layer_metrics([op.spans for op in traced.ops])
    metrics.update(command_seconds(passes[0]))
    metrics["trace.workload_s"] = sum(op.wall_s for op in traced.ops)
    metrics["trace.overhead_s"] = traced.scaled_s - passes[0].scaled_s
    emit(report, passes, metrics, PER_LAYER, traced)
    return 0


def record_references(workloads) -> int:
    """Run every variant of each workload once and store its checked values."""
    refs = json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}
    env = child_env()
    for workload in workloads:
        refs[workload] = {}
        for v in range(VARIANTS):
            work = WORK / "references" / workload / str(v)
            shutil.rmtree(work, ignore_errors=True)
            p = run_pass(_ops(workload, v), False, work, env)
            for op in p.ops:
                if op.error:
                    print(f"{workload} variant {v} {op.label}: {op.error}",
                          file=sys.stderr)
                    return 1
            refs[workload][str(v)] = [extract(json.loads(op.record))
                                      for op in p.ops]
            print(f"{workload} variant {v}: {p.wall_s:.1f} s", file=sys.stderr)
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-references", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "ramac" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'ramac'}; run from the "
              "root of a ramac checkout", file=sys.stderr)
        return 2
    if args.record_references:
        return record_references([args.workload] if args.workload
                                 else WORKLOADS)
    if args.workload is None:
        parser.error("--workload is required")
    if not REFERENCES.is_file():
        print(f"error: {REFERENCES} is missing", file=sys.stderr)
        return 2
    return measure(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
