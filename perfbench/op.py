"""Run one benchmark operation in a fresh process and report its timings.

    python3 op.py RESULT TRACE cli RAMAC_ARGS...
    python3 op.py RESULT TRACE exact CONFIG N SAMPLES SEED RECORD

`cli` runs `ramac.cli.main(RAMAC_ARGS)` as the `ramac` command would;
`exact` runs `ramac.exact_conditional_errors` on CONFIG's system, the one
public operation without a subcommand, and writes its report with the
package's own record writer. Set-up (import, `load_config`, `build_system`)
ends at `ready`. With TRACE = 1 the layer boundaries are wrapped after
set-up and the spans go into RESULT as well. RESULT is written last; the exit
code is the operation's.
"""

import json
import os
import resource
import sys
import time


def _exact(system, args):
    import ramac
    import ramac.config
    n, samples, seed = (int(a) for a in args[1:4])
    report = ramac.exact_conditional_errors(
        system.region, system.laws, system.table, n, compound=system.compound,
        params=system.cfg.thresholds, cfg=system.cfg.optimizer, seed=seed,
        codebook_samples=samples)
    record = {"command": "exact", "scenario": system.cfg.name,
              "report": report}
    ramac.config.write_record(args[4], record)
    return 0


def main():
    result_path, trace, kind, *args = sys.argv[1:]
    import ramac.cli
    import ramac.config
    config = args[args.index("--config") + 1] if kind == "cli" else args[0]
    system = ramac.config.build_system(ramac.config.load_config(config))
    ready = time.perf_counter()
    recorder = None
    if trace == "1":
        import spans
        recorder = spans.SpanRecorder()
        spans.install(recorder)
    rc = ramac.cli.main(args) if kind == "cli" else _exact(system, args)
    result = {
        "ramac": os.path.dirname(ramac.__file__),
        "ready": ready,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": recorder.spans if recorder else [],
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
