"""Command dispatch: one scenario config in, summary plus record files out.

Every subcommand writes a structured JSON record and a flat CSV table under
the configured output directory, prints a short human summary, and returns
0 on success, 2 on a ValidationError, 3 on a GuardExceeded and 4 on any other
exception, the package's own defects included.
Importing this module registers gc.freeze at exit, so the interpreter's final
collections skip the imported heap; every record file is closed before main
returns, so a command's output never depends on those collections.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import os
import sys
from typing import Optional

from . import config as cfgmod
from .bounds import (
    ExponentLedger,
    pes_bound_classes,
    pes_bound_finite,
    pes_bound_single_user,
    system_exponent,
)
from .channels import RateVectorIndex
from .errors import GuardExceeded, ValidationError
from .regions import (
    OperationRegion,
    c1_check,
    feasibility_check,
    maximal_feasible_region,
)

# Freeze the heap at exit so the interpreter's final collections skip it.
atexit.register(gc.freeze)

# Most points a sweep may hold; each point runs a whole bound.
SWEEP_POINTS = 1000


def estimate_errors(*args, **kwargs):
    """ramac.sim.estimate_errors, importing the simulator on first use: of
    the subcommands only simulate needs it."""
    from . import sim
    return sim.estimate_errors(*args, **kwargs)


def _parse_subset(text: Optional[str]) -> frozenset:
    if not text:
        return frozenset()
    try:
        return frozenset(int(t) for t in text.split(",") if t.strip())
    except ValueError:
        raise ValidationError(f"subset {text!r} must be comma-separated users")


def _parse_pair_flag(text: str, system, ledger: ExponentLedger) -> tuple:
    indices, cid = cfgmod._parse_pair(
        text, system.cfg.num_users, system.table.num_classes,
        set(ledger.channels), "--pair")
    return RateVectorIndex(indices), cid


def _colon_fields(text: str, flag: str, kinds: tuple, form: str) -> tuple:
    """text's colon-separated fields, each read by its kind (int or float)."""
    parts = text.split(":")
    try:
        if len(parts) == len(kinds):
            return tuple(kind(p) for kind, p in zip(kinds, parts))
    except ValueError:
        pass
    raise ValidationError(f"{flag} {text!r} must be {form}")


def _flag(args, system, name: str):
    """The flag's value, or the scenario's [defaults] value when it is unset."""
    value = getattr(args, name)
    return getattr(system.cfg.defaults, name) if value is None else value


def _ledger(system, users_d=None) -> ExponentLedger:
    """One exponent ledger for every bound and threshold of the system, or
    for the decoder of the users in users_d."""
    return ExponentLedger(system.channels, system.laws, system.table,
                          system.cfg.optimizer, users_d)


def _bound_report(system, n: int, ledger: ExponentLedger):
    """The system's bound; only a finite one runs the feasibility check."""
    if ledger.compound is None:
        return pes_bound_classes(system.region, ledger, n)
    return pes_bound_finite(system.region, ledger, n)


def _channel_region(system):
    """Channel-level view of the region (class regions expand members)."""
    if system.cfg.mode == "finite":
        return system.region
    members = {env.class_id: env.member_ids for env in system.envelopes}
    return OperationRegion(tuple((rvi, cid) for rvi, kid in system.region.members
                                 for cid in members[kid]), "finite")


# Each subcommand takes (args, system) and returns its record fields, CSV
# header, CSV rows and summary line; main writes and prints them.

def _cmd_exponent(args, system):
    subset = _parse_subset(args.subset)
    users_d = _parse_subset(args.users_d) if args.users_d else None
    ledger = _ledger(system, users_d)
    if args.true_pair:
        true_pair = _parse_pair_flag(args.true_pair, system, ledger)
    elif system.region.members:
        true_pair = system.region.members[0]
    else:
        raise ValidationError("the region is empty: give --true-pair")
    comp_pair = (_parse_pair_flag(args.comp_pair, system, ledger)
                 if args.comp_pair else true_pair)
    res = ledger.get(args.kind, subset, true_pair, comp_pair)
    fields = {"kind": args.kind, "subset": sorted(subset),
              "true_pair": [list(true_pair[0].indices), true_pair[1]],
              "comp_pair": [list(comp_pair[0].indices), comp_pair[1]],
              "result": res}
    return (fields,
            ["kind", "subset", "value", "rho_star", "s_star", "evaluations"],
            [[args.kind, sorted(subset), res.value, res.rho_star, res.s_star,
              res.evaluations]],
            f"{args.kind} exponent = {res.value:.9g} nats "
            f"(rho*={res.rho_star:.6g}, s*={res.s_star:.6g})")


def _cmd_bound(args, system):
    n = _flag(args, system, "n")
    report = _bound_report(system, n, _ledger(system))
    rows = [[t.branch, list(t.true_pair[0]) + [t.true_pair[1]],
             sorted(t.subset), t.kind,
             None if t.comp_pair is None
             else list(t.comp_pair[0]) + [t.comp_pair[1]],
             t.exponent, t.log_weight, t.aggregation, t.attained]
            for t in report.terms]
    return ({"report": report},
            ["branch", "true_pair", "subset", "kind", "comp_pair", "exponent",
             "log_weight", "aggregation", "attained"],
            rows,
            f"slot error bound at N={n}: {report.clamped_bound:.9g} "
            f"(log {report.log_bound:.9g}, {report.branch} branch governs)")


def _cmd_exponent_limit(args, system):
    if system.cfg.mode == "class":
        raise ValidationError("the asymptotic exponent needs a finite scenario")
    res = system_exponent(system.region, _ledger(system))
    return ({"result": res},
            ["value", "kind", "subset", "true_pair", "comp_pair", "evaluations"],
            [[res.value, res.kind,
              None if res.subset is None else sorted(res.subset),
              res.true_pair, res.comp_pair, res.evaluations]],
            f"asymptotic system exponent: {res.value:.9g} nats "
            f"(binding {res.kind} term)")


def _cmd_region(args, system):
    channel_region = _channel_region(system)
    feas = feasibility_check(channel_region, system.compound, system.laws,
                             system.table)
    fields = {"mode": system.cfg.mode, "region": system.region,
              "feasibility": feas}
    rows = [["feasible", None, None, None, feas.passed]]
    for rvi, cid, subset, sum_rate, mi, margin in feas.violations:
        rows.append(["violation", list(rvi.indices) + [cid], sorted(subset),
                     margin, False])
    summary = (f"region of {len(system.region)} pairs: "
               f"{'feasible' if feas.passed else 'INFEASIBLE'}")
    if system.cfg.mode == "class" or args.classes:
        if not system.envelopes:
            raise ValidationError("no classes defined for a C1 check")
        c1 = fields["c1"] = c1_check(channel_region, system.envelopes)
        rows.append(["c1", None, None, None, c1.passed])
        summary += f"; class consistency {'holds' if c1.passed else 'FAILS'}"
    if args.maximal:
        maximal = fields["maximal"] = maximal_feasible_region(
            system.compound, system.laws, system.table)
        for rvi, cid in maximal.members:
            rows.append(["maximal-member", list(rvi.indices) + [cid], None,
                         None, True])
    return fields, ["check", "pair", "subset", "margin", "passed"], rows, summary


def _cmd_partition(args, system):
    if system.cfg.mode != "finite":
        raise ValidationError("partition search needs a finite scenario")
    n = _flag(args, system, "n")
    res = pes_bound_single_user(args.user, system.region, _ledger(system), n,
                                search=args.search)
    return ({"user": args.user, "n": n, "result": res},
            ["decoded_set", "log_bound", "clamped_bound"],
            [[sorted(users_d), report.log_bound, report.clamped_bound]
             for users_d, report in res.block_reports],
            f"best {args.search} partition bound for user {args.user} at N={n}: "
            f"{res.clamped_bound:.9g} over {len(res.block_reports)} blocks "
            f"({res.partitions_considered} partitions scored)")


def _cmd_simulate(args, system):
    n = _flag(args, system, "n")
    trials = _flag(args, system, "trials")
    seed = _flag(args, system, "seed")
    if seed < 0:
        raise ValidationError("--seed must be >= 0")
    if trials < 1:
        raise ValidationError("--trials must be >= 1")
    ledger = _ledger(system)
    bound = None
    if not args.no_bound:
        bound = _bound_report(system, n, ledger).clamped_bound
    codebooks = None
    if args.freeze_codebooks:
        from .sim import generate_codebooks
        codebooks = generate_codebooks(system.table, system.laws,
                                       system.cfg.input_size, n, seed)
    report = estimate_errors(system.region, system.compound, ledger, n, trials,
                             seed, params=system.cfg.thresholds, bound=bound,
                             codebooks=codebooks)
    rows = [[list(c.rate_indices), c.channel_id, c.in_region, c.trials,
             c.errors, c.decoded_correct, c.decoded_wrong, c.collision,
             c.rate, c.std, c.half_width99] for c in report.cases]
    summary = (f"system error {report.system_error_rate:.6g} "
               f"(+-{report.system_half_width99:.2g} at 99%) over "
               f"{len(report.cases)} cases x {trials} trials at N={n}")
    if bound is not None:
        summary += (f"; bound {bound:.6g} "
                    + ("holds" if report.bound_holds else "VIOLATED"))
    return ({"report": report},
            ["rate_indices", "channel", "in_region", "trials", "errors",
             "decoded_correct", "decoded_wrong", "collision", "rate", "std",
             "half_width99"],
            rows, summary)


def _cmd_sweep(args, system):
    rows = []
    if args.rate:
        user, index, start, step, stop = _colon_fields(
            args.rate, "--rate", (int, int, float, float, float),
            "user:index:start:step:stop")
        if not 1 <= user <= system.cfg.num_users:
            raise ValidationError(
                f"--rate user {user} outside 1..{system.cfg.num_users}")
        classes = len(system.cfg.rates[user - 1])
        if not 1 <= index <= classes:
            raise ValidationError(f"--rate index {index} outside 1..{classes}")
        if step <= 0:
            raise ValidationError("--rate step must be positive")
        if not (stop - start) / step < SWEEP_POINTS:  # nan and inf spans too
            raise ValidationError(f"--rate span must hold at most {SWEEP_POINTS} points")
        if start > stop + 1e-12:
            raise ValidationError("--rate span holds no points")
        n = _flag(args, system, "n")
        fields = {name: getattr(system.cfg, name)
                  for name in system.cfg._record_fields}
        value = start
        while value <= stop + 1e-12:
            menus = [list(m) for m in system.cfg.rates]
            menus[user - 1][index - 1] = value
            fields["rates"] = tuple(tuple(m) for m in menus)
            point = cfgmod.build_system(cfgmod.RunConfig(**fields))
            report = _bound_report(point, n, _ledger(point))
            rows.append([cfgmod.round12(value), report.log_bound,
                         report.clamped_bound])
            value += step
        header = ["rate", "log_bound", "clamped_bound"]
        label = f"rate of user {user} class {index}"
    else:
        if not args.n_span:
            raise ValidationError("sweep needs --N start:step:stop or --rate")
        if args.n is not None:
            raise ValidationError("--n-fixed needs --rate")
        start, step, stop = _colon_fields(args.n_span, "--N", (int, int, int),
                                          "start:step:stop")
        if step <= 0 or start < 1:
            raise ValidationError("--N span must have start >= 1 and step > 0")
        if len(range(start, stop + 1, step)) > SWEEP_POINTS:
            raise ValidationError(f"--N span must hold at most {SWEEP_POINTS} points")
        if start > stop:
            raise ValidationError("--N span holds no points")
        ledger = _ledger(system)
        for n in range(start, stop + 1, step):
            report = _bound_report(system, n, ledger)
            rows.append([n, report.log_bound, report.clamped_bound])
        header = ["N", "log_bound", "clamped_bound"]
        label = "block length"
    return ({"columns": header, "rows": rows}, header, rows,
            f"swept {label} over {len(rows)} points")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramac",
        description="Error bounds and simulation for multi-rate random "
                    "access over an uncertain channel.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True,
                       help="scenario config file (searched in "
                            f"${cfgmod.CONFIG_DIR_ENV} as a fallback)")
        p.add_argument("--out-dir", default=None,
                       help="directory for record files")

    p = sub.add_parser("exponent", help="one pairwise exponent")
    common(p)
    p.add_argument("--kind", choices=("em", "ei"), default="em")
    p.add_argument("--subset", default="",
                   help="comma-separated agreeing users, empty for none")
    p.add_argument("--true-pair", default=None, metavar="i1,..,iK:id")
    p.add_argument("--comp-pair", default=None, metavar="i1,..,iK:id")
    p.add_argument("--users-d", default=None,
                   help="decode only these users (reduced-system exponent)")
    p.set_defaults(fn=_cmd_exponent)

    p = sub.add_parser("bound", help="slot error bound at one block length")
    common(p)
    p.add_argument("--N", dest="n", type=int, default=None)
    p.set_defaults(fn=_cmd_bound)

    p = sub.add_parser("exponent-limit",
                       help="asymptotic slope of the slot error bound")
    common(p)
    p.set_defaults(fn=_cmd_exponent_limit)

    p = sub.add_parser("region",
                       help="feasibility / class-consistency / maximal region")
    common(p)
    p.add_argument("--classes", action="store_true",
                   help="run the class-consistency check as well")
    p.add_argument("--maximal", action="store_true",
                   help="also report the maximal feasible region")
    p.set_defaults(fn=_cmd_region)

    p = sub.add_parser("partition",
                       help="best region split for a single user's decoder")
    common(p)
    p.add_argument("--user", type=int, default=1)
    p.add_argument("--N", dest="n", type=int, default=None)
    p.add_argument("--search", choices=("exhaustive", "greedy"),
                   default="exhaustive")
    p.set_defaults(fn=_cmd_partition)

    p = sub.add_parser("simulate", help="Monte Carlo of the slot decoder")
    common(p)
    p.add_argument("--N", dest="n", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--freeze-codebooks", action="store_true")
    p.add_argument("--no-bound", action="store_true",
                   help="skip the analytic bound comparison")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("sweep", help="bound table over N or over one rate")
    common(p)
    span = p.add_mutually_exclusive_group()
    span.add_argument("--N", dest="n_span", metavar="start:step:stop")
    span.add_argument("--rate", metavar="user:index:start:step:stop")
    p.add_argument("--n-fixed", dest="n", metavar="N_FIXED", type=int,
                   default=None, help="block length used by a rate sweep")
    p.set_defaults(fn=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage error or help
        return exc.code
    try:
        system = cfgmod.build_system(cfgmod.load_config(args.config))
        fields, header, rows, summary = args.fn(args, system)
        stem = os.path.join(args.out_dir or system.cfg.defaults.output_dir,
                            f"{system.cfg.name}_{args.command}")
        cfgmod.write_record(stem + ".json", {"command": args.command,
                                             "scenario": system.cfg.name,
                                             **fields})
        cfgmod.write_table(stem + ".csv", header, rows)
        print(summary)
        print(f"records: {stem}.json, {stem}.csv")
        return 0
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GuardExceeded as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
