"""Deterministic simulation engine for squeezed noise-based logic.

Logic states ride on random telegraph waves: each noise-bit's high state
is an orthogonal +/-1 reference waveform and its low state is the
constant 1. Bit strings become product states ("hyperspace vectors"),
sets of strings become sample-wise sums, and NOT/XOR/XNOR gates are
per-clock multiplications that distribute over those sums. Every numeric
operation has an exact symbolic counterpart used as its correctness
oracle.
"""

from .analysis import (
    AgreementReport,
    UniverseStats,
    agreement_stats,
    decode_product,
    decode_superposition,
    universe_stats,
)
from .errors import (
    AmbiguousDecodeError,
    AmplitudeOverflowError,
    DecodeError,
    DimensionError,
    LengthMismatchError,
    NoiseLogicError,
    NoMatchError,
    OracleMismatchError,
    ScaleExceededError,
    SuperpositionDecodeError,
    TargetIndexError,
    TraceParseError,
    WidthMismatchError,
)
from .gates import (
    apply_not,
    xnor_pair,
    xnor_targeted,
    xor_pair,
    xor_targeted,
)
from .hyperspace import (
    BitString,
    product_trace,
    realize,
    superpose,
    synthesize,
    universe,
)
from .oracle import ProductTerm, SymbolicSuperposition, symbolic_universe
from .reference import (
    MAX_NOISE_BITS,
    OrthogonalityReport,
    PairCorrelation,
    ReferenceSystem,
    Trace,
    check_orthogonality,
    generate_reference_system,
    read_trace,
    trace_from_csv,
    trace_from_json,
    trace_to_csv,
    trace_to_json,
    write_trace,
)

__version__ = "0.9.1"

__all__ = [
    "AgreementReport",
    "AmbiguousDecodeError",
    "AmplitudeOverflowError",
    "BitString",
    "DecodeError",
    "DimensionError",
    "LengthMismatchError",
    "MAX_NOISE_BITS",
    "NoMatchError",
    "NoiseLogicError",
    "OracleMismatchError",
    "OrthogonalityReport",
    "PairCorrelation",
    "ProductTerm",
    "ReferenceSystem",
    "ScaleExceededError",
    "SuperpositionDecodeError",
    "SymbolicSuperposition",
    "TargetIndexError",
    "Trace",
    "TraceParseError",
    "UniverseStats",
    "WidthMismatchError",
    "agreement_stats",
    "apply_not",
    "check_orthogonality",
    "decode_product",
    "decode_superposition",
    "generate_reference_system",
    "product_trace",
    "read_trace",
    "realize",
    "superpose",
    "symbolic_universe",
    "synthesize",
    "trace_from_csv",
    "trace_from_json",
    "trace_to_csv",
    "trace_to_json",
    "universe",
    "universe_stats",
    "write_trace",
    "xnor_pair",
    "xnor_targeted",
    "xor_pair",
    "xor_targeted",
]
