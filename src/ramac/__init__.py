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

Every module but sim is imported with the package. The simulator's names
(and ramac.sim itself) import it on first access, so a process that only
computes bounds never loads it.
"""

import importlib

from .bounds import (
    BoundReport,
    BoundTerm,
    ExponentLedger,
    PartitionBoundResult,
    SystemExponentResult,
    pes_bound_classes,
    pes_bound_ddecoder,
    pes_bound_finite,
    pes_bound_single_user,
    system_exponent,
)
from .channels import (
    ChannelClassEnvelope,
    CompoundSet,
    Dmc,
    InputLaws,
    RateTable,
    RateVectorIndex,
    build_envelope,
    effective_channel,
    uniform_laws,
    validate_dmc,
)
from .errors import (
    C1Violation,
    ConfigParseError,
    ConstraintViolation,
    DegenerateEnvelope,
    DimensionMismatch,
    EmptyClass,
    EnumerationTooLarge,
    GuardExceeded,
    InfeasibleRegion,
    MissingLaw,
    NegativeEntry,
    RamacError,
    RowSumOutOfTolerance,
    SchemaViolation,
    SearchSpaceTooLarge,
    TooManyCodewords,
    ValidationError,
)
from .exponents import (
    ExponentQuery,
    ExponentResult,
    OptimizerConfig,
    ThresholdParams,
    ei_exponent,
    em_exponent,
)
from .infometrics import MiQuery, conditional_mi
from .regions import (
    C1Report,
    FeasibilityReport,
    OperationRegion,
    Partition,
    c1_check,
    enumerate_partitions,
    feasibility_check,
    maximal_feasible_region,
    pair_universe,
    proper_subsets,
    require_c1,
    subsets_containing,
)

# Served by __getattr__ (PEP 562).
_SIM_NAMES = frozenset({
    "CODEWORD_GUARD", "OUTPUT_ENUM_GUARD", "Z99", "CaseReport", "CodebookSet",
    "Decision", "ExactCase", "ExactReport", "SimReport", "SlotDecoder",
    "ThresholdTables", "build_schedule", "build_threshold_tables",
    "estimate_errors", "exact_conditional_errors", "generate_codebooks",
    "message_count",
})


def __getattr__(name):
    if name == "sim" or name in _SIM_NAMES:
        sim = importlib.import_module(".sim", __name__)
        return sim if name == "sim" else getattr(sim, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _SIM_NAMES | {"sim"})


__version__ = "0.1.0"
