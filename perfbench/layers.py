"""Per-layer metrics from the spans of a traced pass.

A span is [name, start, end, parent, count] as `spans.SpanRecorder` records
it, with parent the index of the enclosing span in the same process. A
layer's self time is the time its spans cover minus the part their direct
child spans cover. `*_calls` count spans. Means per call: `em_ms`, `ei_ms`,
`us_per_evaluation`, `decode_us_per_slot`, every `*_us` and the `config.*_ms`;
every other time is a total over the pass.
"""

from __future__ import annotations

import collections

LAYERS = ("cli", "config", "bounds", "exponents", "logdomain", "regions",
          "channels", "infometrics", "sim")
EXPONENTS = ("exponents.em", "exponents.ei")
BOUND_REPORTS = ("bounds.pes_bound_finite", "bounds.pes_bound_classes",
                 "bounds.pes_bound_ddecoder")

UNITS = {
    "exponents.evaluations": "count",
    "exponents.em_calls": "count",
    "exponents.ei_calls": "count",
    "exponents.us_per_evaluation": "us",
    "exponents.em_ms": "ms",
    "exponents.ei_ms": "ms",
    "exponents.total_s": "s",
    "logdomain.logsumexp_calls": "count",
    "logdomain.logsumexp_s": "s",
    "bounds.exponent_calls": "count",
    "bounds.terms": "count",
    "bounds.terms_per_exponent_call": "ratio",
    "sim.threshold_build_s": "s",
    "sim.threshold_ei_calls": "count",
    "sim.decode_calls": "count",
    "sim.decode_us_per_slot": "us",
    "sim.candidates_per_slot": "count",
    "sim.mc_s": "s",
    "sim.mc_trials_per_s": "slots/s",
    "sim.codebook_gen_ms": "ms",
    "regions.enumerate_partitions_ms": "ms",
    "regions.partitions_enumerated": "count",
    "regions.feasibility_check_ms": "ms",
    "channels.effective_channel_us": "us",
    "channels.effective_channel_calls": "count",
    "channels.build_envelope_us": "us",
    "infometrics.conditional_mi_us": "us",
    "infometrics.conditional_mi_calls": "count",
    "config.load_config_ms": "ms",
    "config.build_system_ms": "ms",
    "config.write_record_ms": "ms",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
}


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def layer_metrics(processes) -> dict:
    """Metrics over the span lists of every operation process of a pass."""
    calls = collections.Counter()
    total = collections.defaultdict(float)
    counts = collections.Counter()
    self_time = collections.defaultdict(float)
    bound_exponents = threshold_exponents = 0
    mc = 0.0
    for spans in processes:
        dur = [end - start for _, start, end, _, _ in spans]
        children = [0.0] * len(spans)
        builds = [0.0] * len(spans)
        for i, (name, _, _, parent, _) in enumerate(spans):
            if parent >= 0:
                children[parent] += dur[i]
                if name == "sim.threshold_build":
                    builds[parent] += dur[i]
        for i, (name, _, _, parent, count) in enumerate(spans):
            calls[name] += 1
            total[name] += dur[i]
            counts[name] += count
            self_time[name.split(".", 1)[0]] += dur[i] - children[i]
            if name == "sim.estimate_errors":
                mc += dur[i] - builds[i]
            if name in EXPONENTS:
                while parent >= 0 and not (
                        spans[parent][0].startswith("bounds.")
                        or spans[parent][0] == "sim.threshold_build"):
                    parent = spans[parent][3]
                if parent >= 0 and spans[parent][0] == "sim.threshold_build":
                    threshold_exponents += 1
                elif parent >= 0:
                    bound_exponents += 1

    def mean(name, scale):
        return _ratio(total[name], calls[name], scale)

    evaluations = sum(counts[n] for n in EXPONENTS)
    exponent_s = sum(total[n] for n in EXPONENTS)
    terms = sum(counts[n] for n in BOUND_REPORTS)
    m = {
        "exponents.evaluations": evaluations,
        "exponents.em_calls": calls["exponents.em"],
        "exponents.ei_calls": calls["exponents.ei"],
        "exponents.us_per_evaluation": _ratio(exponent_s, evaluations, 1e6),
        "exponents.em_ms": mean("exponents.em", 1e3),
        "exponents.ei_ms": mean("exponents.ei", 1e3),
        "exponents.total_s": exponent_s,
        "logdomain.logsumexp_calls": calls["logdomain.logsumexp"],
        "logdomain.logsumexp_s": total["logdomain.logsumexp"],
        "bounds.exponent_calls": bound_exponents,
        "bounds.terms": terms,
        "bounds.terms_per_exponent_call": _ratio(terms, bound_exponents),
        "sim.threshold_build_s": total["sim.threshold_build"],
        "sim.threshold_ei_calls": threshold_exponents,
        "sim.decode_calls": calls["sim.decode"],
        "sim.decode_us_per_slot": mean("sim.decode", 1e6),
        "sim.candidates_per_slot": _ratio(counts["sim.decode"],
                                          calls["sim.decode"]),
        "sim.mc_s": mc,
        "sim.mc_trials_per_s": _ratio(counts["sim.estimate_errors"], mc),
        "sim.codebook_gen_ms": 1e3 * total["sim.generate_codebooks"],
        "regions.enumerate_partitions_ms":
            1e3 * total["regions.enumerate_partitions"],
        "regions.partitions_enumerated":
            counts["regions.enumerate_partitions"],
        "regions.feasibility_check_ms":
            1e3 * total["regions.feasibility_check"],
        "channels.effective_channel_us":
            mean("channels.effective_channel", 1e6),
        "channels.effective_channel_calls":
            calls["channels.effective_channel"],
        "channels.build_envelope_us": mean("channels.build_envelope", 1e6),
        "infometrics.conditional_mi_us":
            mean("infometrics.conditional_mi", 1e6),
        "infometrics.conditional_mi_calls":
            calls["infometrics.conditional_mi"],
        "config.load_config_ms": mean("config.load_config", 1e3),
        "config.build_system_ms": mean("config.build_system", 1e3),
        "config.write_record_ms": mean("config.write_record", 1e3),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_time[layer]
    return m
