#!/usr/bin/env python3
"""Slot error bound against Monte Carlo across block lengths.

Evaluates the bound and runs a fresh simulation at every N in the span, then
prints one row per N and writes a CSV plus a JSON record. On finite scenarios
the asymptotic exponent is printed as the reference slope; the empirical
column should stay below clamped_bound whenever the run is long enough for
the three-sigma band to mean anything.

usage: bound_vs_simulation.py examples_cfg/bsc_pair.cfg --N 8:8:48
"""

import argparse
import sys

import ramac
from ramac import config as cfgmod

# Most points a span may hold; each point runs a bound and a simulation.
SPAN_POINTS = 1000


def span(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("span is start:step:stop")
    start, step, stop = (int(v) for v in parts)
    if start < 1 or step < 1:
        raise argparse.ArgumentTypeError("need start >= 1 and step >= 1")
    if start > stop:
        raise argparse.ArgumentTypeError("span holds no points")
    points = range(start, stop + 1, step)
    if len(points) > SPAN_POINTS:
        raise argparse.ArgumentTypeError(f"span must hold at most {SPAN_POINTS} points")
    return points


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("config")
    ap.add_argument("--N", type=span, default=span("8:8:48"),
                    metavar="start:step:stop")
    ap.add_argument("--trials", type=int, default=20000)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--out-dir", default=None)
    args = ap.parse_args(argv)
    if args.trials < 1:
        ap.error("argument --trials: must be >= 1")
    if args.seed is not None and args.seed < 0:
        ap.error("argument --seed: must be >= 0")

    system = cfgmod.build_system(cfgmod.load_config(args.config))
    seed = system.cfg.defaults.seed if args.seed is None else args.seed
    # Exponents do not depend on N: one ledger serves every bound and
    # threshold below.
    ledger = ramac.ExponentLedger(system.channels, system.laws, system.table,
                                  system.cfg.optimizer)
    finite = ledger.compound is not None
    bound_at = ramac.pes_bound_finite if finite else ramac.pes_bound_classes
    if finite:
        se = ramac.system_exponent(system.region, ledger)
        print(f"asymptotic exponent {se.value:.6g} "
              f"({se.kind}, subset {sorted(se.subset)})")

    rows = []
    print(f"{'N':>5} {'log_bound':>12} {'bound':>10} {'empirical':>10} "
          f"{'+-99%':>9} holds")
    for n in args.N:
        bound = bound_at(system.region, ledger, n)
        report = ramac.estimate_errors(
            system.region, system.compound, ledger, n, args.trials, seed,
            params=system.cfg.thresholds, bound=bound.clamped_bound)
        rows.append([n, bound.log_bound, bound.clamped_bound,
                     report.system_error_rate, report.system_half_width99,
                     report.bound_holds])
        print(f"{n:>5} {bound.log_bound:>12.5g} {bound.clamped_bound:>10.4g} "
              f"{report.system_error_rate:>10.4g} "
              f"{report.system_half_width99:>9.2g} {report.bound_holds}")

    base = args.out_dir or system.cfg.defaults.output_dir
    stem = f"{base}/{system.cfg.name}_bound_vs_sim"
    cfgmod.write_table(stem + ".csv",
                       ["n", "log_bound", "clamped_bound", "empirical",
                        "half_width99", "bound_holds"], rows)
    cfgmod.write_record(stem + ".json", {
        "scenario": system.cfg.name, "trials": args.trials, "seed": seed,
        "rows": rows,
    })
    print(f"records: {stem}.json, {stem}.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
