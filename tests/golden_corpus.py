"""The golden record corpus: one sha256 per command run, pinned in
tests/golden/records.json.

A run's hash covers every file it writes (by name and bytes), its stdout and
stderr with the output directory and the repository root replaced by
placeholders, the warnings it raises and its exit code. The runs are every
CLI command line of COMMANDS on every config of examples_cfg/,
tests/golden/configs/ (systems no shipped config has, such as K = 3) and
perfbench/scenarios/ but the DUPLICATES, both experiment scripts on bsc_pair
and mac2 at small sizes, and exact_conditional_errors at N = 8 on every
config (exit 3 where its output words exceed the guard). The corpus pins
today's outputs, defects included: it is a regression gate, not an oracle.
A change that moves a record regenerates the file and says which runs
changed and why; the script prints each run it adds, removes or changes
against the pinned file before it overwrites the file:

    PYTHONPATH=src python tests/golden_corpus.py
"""

import contextlib
import hashlib
import io
import json
import platform
import runpy
import sys
import warnings
from pathlib import Path

import numpy as np

import ramac
from ramac import config as cfgmod
from ramac.cli import main as cli_main
from ramac.errors import GuardExceeded

ROOT = Path(__file__).resolve().parents[1]
CORPUS = Path(__file__).resolve().parent / "golden" / "records.json"
# Configs that differ from another only in comments (test_golden checks
# that), so their runs would hash as the other's: {copy: original}.
DUPLICATES = {"perfbench/scenarios/bsc_pair.cfg": "examples_cfg/bsc_pair.cfg"}
CONFIGS = tuple(rel for d in ("examples_cfg", "tests/golden/configs", "perfbench/scenarios")
                for rel in sorted(str(p.relative_to(ROOT)) for p in (ROOT / d).glob("*.cfg"))
                if rel not in DUPLICATES)
COMMANDS = (
    ("bound",),
    ("bound", "--N", "12"),
    ("region",),
    ("region", "--classes"),
    ("region", "--maximal"),
    ("simulate", "--trials", "300"),
    ("simulate", "--no-bound", "--trials", "300", "--seed", "5"),
    ("simulate", "--freeze-codebooks", "--trials", "300"),
    ("exponent-limit",),
    ("partition",),
    ("partition", "--search", "greedy"),
    ("sweep", "--N", "8:8:24"),
    ("exponent",),
    ("exponent", "--users-d", "1"),
    ("sweep", "--rate", "1:1:0.01:0.016:0.026", "--n-fixed", "16"),
)
SCRIPTS = (
    ("bound_vs_simulation.py", ("--N", "8:8:16", "--trials", "300")),
    ("threshold_sensitivity.py", ("--trials", "100", "--rho", "0.4:0.4:0.8",
                                  "--s2-frac", "0.25:0.5:0.75")),
)
SCRIPT_CONFIGS = ("examples_cfg/bsc_pair.cfg", "examples_cfg/mac2.cfg")
EXACT_N, EXACT_SAMPLES, EXACT_SEED = 8, 2, 3


def _exact(config: str, out: Path) -> int:
    system = cfgmod.build_system(cfgmod.load_config(config))
    try:
        report = ramac.exact_conditional_errors(
            system.region, system.laws, system.table, EXACT_N,
            compound=system.compound, envelopes=system.envelopes,
            params=system.cfg.thresholds, cfg=system.cfg.optimizer,
            seed=EXACT_SEED, codebook_samples=EXACT_SAMPLES)
    except GuardExceeded as exc:  # as the CLI reports it
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return 3
    cfgmod.write_record(str(out / "exact.json"), {
        "command": "exact", "scenario": system.cfg.name, "report": report})
    return 0


def runs():
    """(name, run) pairs in corpus order; run(out_dir) returns the exit
    code."""
    for rel in CONFIGS:
        path = str(ROOT / rel)
        for argv in COMMANDS:
            yield (f"{rel}: {' '.join(argv)}",
                   lambda out, argv=argv, path=path: cli_main(
                       [argv[0], "--config", path, "--out-dir", str(out),
                        *argv[1:]]))
    for script, args in SCRIPTS:
        for rel in SCRIPT_CONFIGS:
            yield (f"{rel}: {script} {' '.join(args)}",
                   lambda out, script=script, args=args, rel=rel: runpy.run_path(
                       str(ROOT / "scripts" / script))["main"](
                       [str(ROOT / rel), *args, "--out-dir", str(out)]))
    for rel in CONFIGS:
        yield (f"{rel}: exact_conditional_errors n={EXACT_N} "
               f"samples={EXACT_SAMPLES} seed={EXACT_SEED}",
               lambda out, rel=rel: _exact(str(ROOT / rel), out))


def digest(run, out: Path) -> str:
    """Run once with its records under out; the sha256 of what it left."""
    out.mkdir(parents=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = run(out)
        except SystemExit as exc:
            code = exc.code
    h = hashlib.sha256()

    def part(label: str, data: bytes):
        h.update(f"{label} {len(data)}\n".encode())
        h.update(data)

    for path in sorted(out.iterdir()):
        part(f"file {path.name}", path.read_bytes())
    for label, text in (("stdout", stdout.getvalue()), ("stderr", stderr.getvalue())):
        part(label, text.replace(str(out), "<out>").replace(str(ROOT), "<root>").encode())
    part("warnings", "\n".join(f"{w.category.__name__}: {w.message}"
                               for w in caught).encode())
    part("exit", str(code).encode())
    return h.hexdigest()


def environment() -> dict:
    """The versions that produced a corpus: numbers may move with them."""
    return {"python": platform.python_version(), "numpy": np.__version__}


def compute(work: Path) -> dict:
    """{run name: hash}, each run's records left under work/<index>."""
    return {name: digest(run, work / f"{i:03d}")
            for i, (name, run) in enumerate(runs())}


def diff(pinned: dict, got: dict) -> list:
    """'added', 'removed' and 'changed' lines, one a run, for the runs of got
    against the pinned {run name: hash}."""
    return ([f"added: {name}" for name in got if name not in pinned]
            + [f"removed: {name}" for name in pinned if name not in got]
            + [f"changed: {name}" for name in got
               if name in pinned and got[name] != pinned[name]])


def main(argv=None) -> int:
    import tempfile
    with tempfile.TemporaryDirectory() as work:
        hashes = compute(Path(work))
    pinned = json.loads(CORPUS.read_text())["runs"] if CORPUS.exists() else {}
    for line in diff(pinned, hashes):
        print(line)
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps({**environment(), "runs": hashes}, indent=1)
                      + "\n")
    print(f"{len(hashes)} runs written to {CORPUS.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
