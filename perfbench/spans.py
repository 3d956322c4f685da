"""Outside-in span recorder for one benchmark operation process.

Each layer's public functions are replaced, at the names their callers bind,
by wrappers that record a span: name, start, end, the index of the span that
was open when it started (-1 for none) and a count taken from the return
value. No file of the package is touched; the wrappers live only in the
process that installs them, and spans stay in memory until the process
writes them out.

A span name is `<layer>.<what>`, where the layer is a module of `ramac`.
"""

from __future__ import annotations

import functools
import time

_END = object()


class SpanRecorder:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, count]
        self._open = -1

    def wrap(self, name, fn, count=None):
        """fn wrapped to record one span per call; count(result, args)
        gives the span's count and runs after the span has closed."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, recorder._open, 0]
            recorder._open = len(recorder.spans)
            recorder.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                recorder._open = rec[3]
            if count is not None:
                rec[4] = count(out, args)
            return out

        return wrapper

    def patch(self, owner, attr, name, count=None):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), count))

    def patch_iterator(self, owner, attr, name):
        """Like patch, for a function returning an iterator: the call and
        every step of the iteration are spans, the consumer's work between
        steps is not; each step yielding an item counts 1."""
        call = self.wrap(name, getattr(owner, attr))
        recorder = self

        def wrapper(*args, **kwargs):
            it = iter(call(*args, **kwargs))
            step = recorder.wrap(name, lambda: next(it, _END),
                                 count=lambda out, _: 0 if out is _END else 1)

            def items():
                while (item := step()) is not _END:
                    yield item

            return items()

        setattr(owner, attr, functools.wraps(call)(wrapper))


def _evaluations(result, _args):
    return result.evaluations


def _terms(report, _args):
    return len(report.terms)


def _trials(report, _args):
    return sum(case.trials for case in report.cases)


def _candidates(_decision, args):
    """Candidate tuples one decode scores: every message tuple of every
    region member, from the decoder's public message counts."""
    decoder = args[0]
    total = 0
    for rvi, _cid in decoder.region.members:
        tuples = 1
        for u in range(1, decoder.num_users + 1):
            tuples *= decoder.message_counts[(u, rvi.index(u))]
        total += tuples
    return total


def install(recorder: SpanRecorder):
    """Wrap every traced layer boundary of an imported `ramac`."""
    import ramac
    import ramac.bounds
    import ramac.cli
    import ramac.config
    import ramac.exponents
    import ramac.regions
    import ramac.sim

    p = recorder.patch
    p(ramac.cli, "main", "cli.main")
    for attr in ("load_config", "build_system", "write_record"):
        p(ramac.config, attr, f"config.{attr}")
    p(ramac.config, "build_envelope", "channels.build_envelope")
    for attr in ("pes_bound_finite", "pes_bound_classes"):
        p(ramac.cli, attr, f"bounds.{attr}", _terms)
    p(ramac.cli, "pes_bound_single_user", "bounds.pes_bound_single_user")
    p(ramac.bounds, "pes_bound_ddecoder", "bounds.pes_bound_ddecoder", _terms)
    for module in (ramac.bounds, ramac.sim):
        for kind in ("em", "ei"):
            for attr in (f"{kind}_exponent", f"{kind}_class_exponent"):
                if hasattr(module, attr):
                    p(module, attr, f"exponents.{kind}", _evaluations)
    for module in (ramac.exponents, ramac.sim):
        p(module, "logsumexp", "logdomain.logsumexp")
    p(ramac.bounds, "feasibility_check", "regions.feasibility_check")
    recorder.patch_iterator(ramac.bounds, "enumerate_partitions",
                            "regions.enumerate_partitions")
    p(ramac.regions, "conditional_mi", "infometrics.conditional_mi")
    for module in (ramac.bounds, ramac.exponents):
        p(module, "effective_channel", "channels.effective_channel")
    p(ramac.cli, "estimate_errors", "sim.estimate_errors", _trials)
    p(ramac.sim.SlotDecoder, "__init__", "sim.threshold_build")
    p(ramac.sim.SlotDecoder, "decode", "sim.decode", _candidates)
    p(ramac.sim, "generate_codebooks", "sim.generate_codebooks")
    p(ramac, "exact_conditional_errors", "sim.exact")
