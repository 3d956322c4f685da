"""Command dispatch: one scenario config in, summary plus record files out.

Every subcommand writes a structured JSON record and a flat CSV table under
the configured output directory, prints a short human summary, and returns
0 on success, 2 on validation failure, 3 on an exceeded guard, 4 otherwise.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from . import config as cfgmod
from .bounds import (
    ExponentLedger,
    channel_map,
    pes_bound_classes,
    pes_bound_finite,
    pes_bound_single_user,
    system_exponent,
)
from .channels import RateVectorIndex
from .errors import GuardExceeded, RamacError, ValidationError
from .regions import c1_check, feasibility_check, maximal_feasible_region
from .sim import estimate_errors, generate_codebooks


def _parse_subset(text: Optional[str]) -> frozenset:
    if not text:
        return frozenset()
    try:
        return frozenset(int(t) for t in text.split(",") if t.strip())
    except ValueError:
        raise ValidationError(f"subset {text!r} must be comma-separated users")


def _parse_pair_flag(text: str, system) -> tuple:
    indices, cid = cfgmod._parse_pair(
        text, system.cfg.num_users, system.table.num_classes,
        set(system.region_ids), "--pair")
    return RateVectorIndex(indices), cid


def _out_paths(system, command: str, out_dir: Optional[str]) -> tuple:
    base = out_dir or system.cfg.defaults.output_dir
    stem = os.path.join(base, f"{system.cfg.name}_{command}")
    return stem + ".json", stem + ".csv"


def _load(args) -> object:
    return cfgmod.build_system(cfgmod.load_config(args.config))


def _cmd_exponent(args) -> int:
    system = _load(args)
    subset = _parse_subset(args.subset)
    if args.true_pair:
        true_pair = _parse_pair_flag(args.true_pair, system)
    elif system.region.members:
        true_pair = system.region.members[0]
    else:
        raise ValidationError("the region is empty: give --true-pair")
    comp_pair = _parse_pair_flag(args.comp_pair, system) if args.comp_pair else true_pair
    users_d = _parse_subset(args.users_d) if args.users_d else None
    res = _ledger(system, users_d).get(args.kind, subset, true_pair, comp_pair)
    record = {
        "command": "exponent", "scenario": system.cfg.name,
        "kind": args.kind, "subset": sorted(subset),
        "true_pair": [list(true_pair[0].indices), true_pair[1]],
        "comp_pair": [list(comp_pair[0].indices), comp_pair[1]],
        "result": res,
    }
    jpath, cpath = _out_paths(system, "exponent", args.out_dir)
    cfgmod.write_record(jpath, record)
    cfgmod.write_table(cpath,
                       ["kind", "subset", "value", "rho_star", "s_star",
                        "evaluations"],
                       [[args.kind, sorted(subset), res.value, res.rho_star,
                         res.s_star, res.evaluations]])
    print(f"{args.kind} exponent = {res.value:.9g} nats "
          f"(rho*={res.rho_star:.6g}, s*={res.s_star:.6g})")
    print(f"records: {jpath}, {cpath}")
    return 0


def _ledger(system, users_d=None) -> ExponentLedger:
    """One exponent ledger for every bound and threshold of the system, or
    for the decoder of the users in users_d."""
    channels = system.envelopes if system.cfg.mode == "class" else system.compound
    return ExponentLedger(channel_map(channels), system.laws, system.table,
                          system.cfg.optimizer, users_d)


def _bound_report(system, n: int, ledger: Optional[ExponentLedger] = None):
    if system.cfg.mode == "class":
        return pes_bound_classes(system.region, system.envelopes, system.laws,
                                 system.table, n, system.cfg.optimizer,
                                 ledger=ledger)
    return pes_bound_finite(system.region, system.compound, system.laws,
                            system.table, n, system.cfg.optimizer, ledger=ledger)


def _term_rows(report):
    rows = []
    for t in report.terms:
        rows.append([t.branch, list(t.true_pair[0]) + [t.true_pair[1]],
                     sorted(t.subset), t.kind,
                     None if t.comp_pair is None
                     else list(t.comp_pair[0]) + [t.comp_pair[1]],
                     t.exponent, t.log_weight, t.aggregation, t.attained])
    return rows


def _cmd_bound(args) -> int:
    system = _load(args)
    n = system.cfg.defaults.n if args.n is None else args.n
    report = _bound_report(system, n)
    record = {"command": "bound", "scenario": system.cfg.name, "report": report}
    jpath, cpath = _out_paths(system, "bound", args.out_dir)
    cfgmod.write_record(jpath, record)
    cfgmod.write_table(cpath,
                       ["branch", "true_pair", "subset", "kind", "comp_pair",
                        "exponent", "log_weight", "aggregation", "attained"],
                       _term_rows(report))
    print(f"slot error bound at N={n}: {report.clamped_bound:.9g} "
          f"(log {report.log_bound:.9g}, {report.branch} branch governs)")
    print(f"records: {jpath}, {cpath}")
    return 0


def _cmd_exponent_limit(args) -> int:
    system = _load(args)
    if system.cfg.mode == "class":
        raise ValidationError("the asymptotic exponent needs a finite scenario")
    res = system_exponent(system.region, system.compound, system.laws,
                         system.table, system.cfg.optimizer)
    record = {"command": "exponent-limit", "scenario": system.cfg.name,
              "result": res}
    jpath, cpath = _out_paths(system, "exponent-limit", args.out_dir)
    cfgmod.write_record(jpath, record)
    cfgmod.write_table(cpath,
                       ["value", "kind", "subset", "true_pair", "comp_pair",
                        "evaluations"],
                       [[res.value, res.kind,
                         None if res.subset is None else sorted(res.subset),
                         res.true_pair, res.comp_pair, res.evaluations]])
    print(f"asymptotic system exponent: {res.value:.9g} nats "
          f"(binding {res.kind} term)")
    print(f"records: {jpath}, {cpath}")
    return 0


def _cmd_region(args) -> int:
    system = _load(args)
    feas = feasibility_check(system.region if system.cfg.mode == "finite"
                             else _channel_region(system),
                             system.compound, system.laws, system.table)
    record = {"command": "region", "scenario": system.cfg.name,
              "mode": system.cfg.mode, "region": system.region,
              "feasibility": feas}
    rows = [["feasible", None, None, None, feas.passed]]
    for rvi, cid, subset, sum_rate, mi, margin in feas.violations:
        rows.append(["violation", list(rvi.indices) + [cid], sorted(subset),
                     margin, False])
    if system.cfg.mode == "class" or args.classes:
        if system.class_map is None:
            raise ValidationError("no classes defined for a C1 check")
        c1 = c1_check(_channel_region(system), system.class_map)
        record["c1"] = c1
        rows.append(["c1", None, None, None, c1.passed])
    if args.maximal:
        maximal = maximal_feasible_region(system.compound, system.laws,
                                          system.table)
        record["maximal"] = maximal
        for rvi, cid in maximal.members:
            rows.append(["maximal-member", list(rvi.indices) + [cid], None,
                         None, True])
    jpath, cpath = _out_paths(system, "region", args.out_dir)
    cfgmod.write_record(jpath, record)
    cfgmod.write_table(cpath, ["check", "pair", "subset", "margin", "passed"],
                       rows)
    print(f"region of {len(system.region)} pairs: "
          f"{'feasible' if feas.passed else 'INFEASIBLE'}"
          + ("" if "c1" not in record else
         f"; class consistency {'holds' if record['c1'].passed else 'FAILS'}"))
    print(f"records: {jpath}, {cpath}")
    return 0


def _channel_region(system):
    """Channel-level view of the region (class regions expand members)."""
    from .regions import OperationRegion
    if system.cfg.mode == "finite":
        return system.region
    members = []
    for rvi, kid in system.region.members:
        for cid in system.class_map[kid]:
            members.append((rvi, cid))
    return OperationRegion(tuple(members), "finite")


def _cmd_partition(args) -> int:
    system = _load(args)
    if system.cfg.mode != "finite":
        raise ValidationError("partition search needs a finite scenario")
    n = system.cfg.defaults.n if args.n is None else args.n
    user = system.cfg.defaults.partition_user if args.user is None else args.user
    search = args.search or system.cfg.defaults.partition_search
    res = pes_bound_single_user(
        user, system.region, system.compound, system.laws, system.table, n,
        search=search, cfg=system.cfg.optimizer, allow_drop=args.allow_drop,
        max_blocks=args.max_blocks)
    record = {"command": "partition", "scenario": system.cfg.name,
              "user": user, "n": n, "result": res}
    jpath, cpath = _out_paths(system, "partition", args.out_dir)
    cfgmod.write_record(jpath, record)
    rows = []
    for users_d, report in res.block_reports:
        rows.append([sorted(users_d), report.log_bound, report.clamped_bound])
    cfgmod.write_table(cpath, ["decoded_set", "log_bound", "clamped_bound"],
                       rows)
    print(f"best {search} partition bound for user {user} at N={n}: "
          f"{res.clamped_bound:.9g} over {len(res.block_reports)} blocks "
          f"({res.partitions_considered} partitions scored)")
    print(f"records: {jpath}, {cpath}")
    return 0


def _cmd_simulate(args) -> int:
    system = _load(args)
    n = system.cfg.defaults.n if args.n is None else args.n
    trials = system.cfg.defaults.trials if args.trials is None else args.trials
    seed = system.cfg.defaults.seed if args.seed is None else args.seed
    ledger = _ledger(system)
    bound = None
    if not args.no_bound:
        bound = _bound_report(system, n, ledger).clamped_bound
    codebooks = None
    if args.freeze_codebooks:
        codebooks = generate_codebooks(system.table, system.laws,
                                       system.cfg.input_size, n, seed)
    report = estimate_errors(
        system.region, system.laws, system.table, n, trials, seed,
        compound=system.compound,
        envelopes=system.envelopes if system.cfg.mode == "class" else None,
        class_map=system.class_map if system.cfg.mode == "class" else None,
        params=system.cfg.thresholds, cfg=system.cfg.optimizer, bound=bound,
        codebooks=codebooks, ledger=ledger)
    record = {"command": "simulate", "scenario": system.cfg.name,
              "report": report}
    jpath, cpath = _out_paths(system, "simulate", args.out_dir)
    cfgmod.write_record(jpath, record)
    rows = [[list(c.rate_indices), c.channel_id, c.in_region, c.trials,
             c.errors, c.decoded_correct, c.decoded_wrong, c.collision,
             c.rate, c.std, c.half_width99] for c in report.cases]
    cfgmod.write_table(cpath,
                       ["rate_indices", "channel", "in_region", "trials",
                        "errors", "decoded_correct", "decoded_wrong",
                        "collision", "rate", "std", "half_width99"], rows)
    line = (f"system error {report.system_error_rate:.6g} "
            f"(+-{report.system_half_width99:.2g} at 99%) over "
            f"{len(report.cases)} cases x {trials} trials at N={n}")
    if bound is not None:
        line += (f"; bound {bound:.6g} "
                 + ("holds" if report.bound_holds else "VIOLATED"))
    print(line)
    print(f"records: {jpath}, {cpath}")
    return 0


def _parse_span(text: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError(f"span {text!r} must be start:step:stop")
    return parts


def _cmd_sweep(args) -> int:
    system = _load(args)
    rows = []
    if args.rate:
        head = args.rate.split(":")
        if len(head) != 5:
            raise ValidationError("--rate needs user:index:start:step:stop")
        user, index = int(head[0]), int(head[1])
        start, step, stop = (float(v) for v in head[2:])
        if step <= 0:
            raise ValidationError("--rate step must be positive")
        n = system.cfg.defaults.n if args.n_fixed is None else args.n_fixed
        fields = {name: getattr(system.cfg, name)
                  for name in system.cfg._record_fields}
        value = start
        while value <= stop + 1e-12:
            menus = [list(m) for m in system.cfg.rates]
            menus[user - 1][index - 1] = value
            fields["rates"] = tuple(tuple(m) for m in menus)
            report = _bound_report(
                cfgmod.build_system(cfgmod.RunConfig(**fields)), n)
            rows.append([cfgmod.round12(value), report.log_bound,
                         report.clamped_bound])
            value += step
        header = ["rate", "log_bound", "clamped_bound"]
        label = f"rate of user {user} class {index}"
    else:
        if not args.n_span:
            raise ValidationError("sweep needs --N start:step:stop or --rate")
        start, step, stop = (int(v) for v in _parse_span(args.n_span))
        if step <= 0 or start < 1:
            raise ValidationError("--N span must have start >= 1 and step > 0")
        ledger = _ledger(system)
        for n in range(start, stop + 1, step):
            report = _bound_report(system, n, ledger)
            rows.append([n, report.log_bound, report.clamped_bound])
        header = ["N", "log_bound", "clamped_bound"]
        label = "block length"
    record = {"command": "sweep", "scenario": system.cfg.name,
              "columns": header, "rows": rows}
    jpath, cpath = _out_paths(system, "sweep", args.out_dir)
    cfgmod.write_record(jpath, record)
    cfgmod.write_table(cpath, header, rows)
    print(f"swept {label} over {len(rows)} points")
    print(f"records: {jpath}, {cpath}")
    return 0


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
    p.add_argument("--user", type=int, default=None)
    p.add_argument("--N", dest="n", type=int, default=None)
    p.add_argument("--search", choices=("exhaustive", "greedy"), default=None)
    p.add_argument("--allow-drop", action="store_true")
    p.add_argument("--max-blocks", type=int, default=None)
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
    p.add_argument("--N", dest="n_span", default=None, metavar="start:step:stop")
    p.add_argument("--rate", default=None, metavar="user:index:start:step:stop")
    p.add_argument("--n-fixed", type=int, default=None,
                   help="block length used by a rate sweep")
    p.set_defaults(fn=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GuardExceeded as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return 3
    except RamacError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
