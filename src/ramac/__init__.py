"""Error bounds and slot simulation for unsourced multi-rate access over a
set of possible channels.

The package models K transmitters whose rate choices are unknown to the
receiver, a channel drawn adversarially from a finite set or from continuous
classes bracketed by envelopes, and a receiver that either decodes everyone
or flags the slot. Modules: channels (models and validation), infometrics
(conditional mutual informations), exponents (pairwise error exponents),
regions (operation regions, feasibility, partitions), bounds (slot error
bounds and asymptotics), sim (threshold decoder, Monte Carlo, exact
enumeration), config/cli (INI-driven command line).

The package exports the entries its scripts and README use: the exponent
ledger, the slot bounds and system exponent, the em/ei exponents, class
envelopes, the C1 check and the decoder's estimators. Every other name is
imported from its module. Every module but sim is imported with the
package; the simulator's names (and ramac.sim itself) import it on first
access, so a process that only computes bounds never loads it.
"""

import importlib

from .bounds import (
    ExponentLedger,
    pes_bound_classes,
    pes_bound_finite,
    system_exponent,
)
from .channels import build_envelope
from .exponents import ThresholdParams, ei_exponent, em_exponent
from .regions import c1_check

# Served by __getattr__ (PEP 562).
_SIM_NAMES = frozenset({
    "SlotDecoder", "estimate_errors", "exact_conditional_errors"})


def __getattr__(name):
    if name == "sim" or name in _SIM_NAMES:
        sim = importlib.import_module(".sim", __name__)
        return sim if name == "sim" else getattr(sim, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _SIM_NAMES | {"sim"})


__version__ = "0.1.0"
