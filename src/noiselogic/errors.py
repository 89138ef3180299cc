"""Exception types shared across the engine.

Everything derives from :class:`NoiseLogicError`; most also subclass
``ValueError`` so generic callers can catch them without importing this
module.
"""


class NoiseLogicError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(NoiseLogicError, ValueError):
    """A bit count or clock count is not an integer in its valid range."""


class LengthMismatchError(NoiseLogicError, ValueError):
    """Two traces that must share a clock count do not."""


class WidthMismatchError(NoiseLogicError, ValueError):
    """Two M-bit widths differ (``widths differ: 5 != 4``), a width is not an
    integer >= 1, a number does not fit it (``16 does not fit in 4 bits``), or
    a bit value p is not the integer 0 or 1."""


class TargetIndexError(WidthMismatchError):
    """A noise-bit index is not an integer in 1..M (``noise-bit indices
    [0, 5] outside 1..4``), or a gate's target set is empty."""


class ScaleExceededError(NoiseLogicError, ValueError):
    """An exhaustive operation was requested beyond its enumeration cap."""


class AmplitudeOverflowError(NoiseLogicError, ValueError):
    """An operation could produce a sample outside the int64 range, where
    numpy would wrap it silently; it is refused before it runs."""


class DecodeError(NoiseLogicError):
    """Base class for trace-decoding failures."""


class NoMatchError(DecodeError):
    """The trace is not any pure product state of the reference system."""


class AmbiguousDecodeError(DecodeError):
    """More than one product state matches the trace (window too short).

    ``candidates`` is the sequence of every matching bit string in
    ascending mask order, stored as given: from :func:`decode_product` it
    is the 2^(M-rank) strings' GF(2) solution space, whose ``len``,
    indexing, ``in``, ``index`` and ``count`` take O(M) and whose
    iteration is lazy, so ``tuple()`` of it enumerates them all. The
    message gives their count and the GF(2) rank the window reached.
    """

    # optional: unpickling calls the class with ``args``, the message alone
    def __init__(self, message: str, candidates=()):
        super().__init__(message)
        self.candidates = candidates


class SuperpositionDecodeError(DecodeError):
    """The trace could not be verified as an integer combination of basis
    vectors; near-matches are refused rather than silently accepted."""


class TraceParseError(NoiseLogicError, ValueError):
    """A serialized trace file or string could not be parsed."""


class OracleMismatchError(NoiseLogicError):
    """The numeric engine output disagrees with the symbolic prediction."""
