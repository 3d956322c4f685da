#!/usr/bin/env python3
"""Simulated error against the typicality tilt parameters.

Grids rho_tilde and the s2 fraction around the automatic operating point and
runs a short simulation at each setting. Loose thresholds let rival codewords
pass as typical and push decode errors up; tight ones reject the transmitted
word and convert clean slots into collisions, so the in-region cases pay
either way and the automatic point should sit near the flat bottom.

A region that covers the whole pair universe leaves no out-of-region pair to
match against, so the thresholds sit at infinity and every grid point reads
the same; the scenario needs at least one excluded pair to gate on.

usage: threshold_sensitivity.py examples_cfg/bsc_gate.cfg --trials 4000
"""

import argparse
import sys

import ramac
from ramac import config as cfgmod


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("config")
    ap.add_argument("--N", type=int, default=None)
    ap.add_argument("--trials", type=int, default=4000)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--rho", default="0.2:0.2:1.0",
                    metavar="start:step:stop", help="rho_tilde grid")
    ap.add_argument("--s2-frac", default="0.25:0.25:0.75",
                    metavar="start:step:stop",
                    help="s2 as a fraction of rho_tilde")
    ap.add_argument("--out-dir", default=None)
    args = ap.parse_args(argv)

    def grid(text):
        start, step, stop = (float(v) for v in text.split(":"))
        out = []
        v = start
        while v <= stop + 1e-12:
            out.append(round(v, 12))
            v += step
        return out

    system = cfgmod.build_system(cfgmod.load_config(args.config))
    n = args.N or system.cfg.defaults.n
    seed = system.cfg.defaults.seed if args.seed is None else args.seed
    class_mode = system.cfg.mode == "class"
    envelopes = system.envelopes if class_mode else None
    # Every grid point picks its competing pairs by the same crossing
    # exponents, so one ledger optimises them once for the whole grid.
    ledger = ramac.ExponentLedger(
        ramac.channel_map(envelopes or system.compound), system.laws,
        system.table, system.cfg.optimizer)
    common = dict(
        compound=system.compound, envelopes=envelopes,
        class_map=system.class_map if class_mode else None,
        cfg=system.cfg.optimizer, ledger=ledger)

    auto = ramac.estimate_errors(system.region, system.laws, system.table, n,
                                 args.trials, seed, **common)
    print(f"automatic thresholds: system error {auto.system_error_rate:.4g} "
          f"(decode {auto.decode_error_rate:.4g}, "
          f"miss {auto.collision_miss_rate:.4g})")

    rows = []
    for rho in grid(args.rho):
        for frac in grid(args.s2_frac):
            params = ramac.ThresholdParams(rho_tilde=rho, s2=rho * frac,
                                           source="manual")
            rep = ramac.estimate_errors(system.region, system.laws,
                                        system.table, n, args.trials, seed,
                                        params=params, **common)
            rows.append([rho, frac, rep.decode_error_rate,
                         rep.collision_miss_rate, rep.system_error_rate])
            print(f"rho_tilde {rho:.3g} s2/rho {frac:.3g}: "
                  f"decode {rep.decode_error_rate:.4g} "
                  f"miss {rep.collision_miss_rate:.4g} "
                  f"system {rep.system_error_rate:.4g}")

    base = args.out_dir or system.cfg.defaults.output_dir
    stem = f"{base}/{system.cfg.name}_threshold_sensitivity"
    cfgmod.write_table(stem + ".csv",
                       ["rho_tilde", "s2_fraction", "decode_error",
                        "collision_miss", "system_error"], rows)
    cfgmod.write_record(stem + ".json", {
        "scenario": system.cfg.name, "n": n, "trials": args.trials,
        "seed": seed,
        "automatic": {"decode": auto.decode_error_rate,
                      "miss": auto.collision_miss_rate,
                      "system": auto.system_error_rate},
        "rows": rows,
    })
    print(f"records: {stem}.json, {stem}.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
