"""Squeezed reference noise system.

A noise-bit's logic-high state is a random telegraph wave (RTW): a
discrete-time signal whose sample at each clock cycle is +1 or -1 with
probability 0.5. The logic-low state is squeezed to the constant 1 and is
never stored; operations treat it as the multiplicative identity.

Generation is counter-based: sample (i, t) is a pure function of
(seed, i, t), so every trace is reproducible independently of generation
order and any sample is addressable in O(1).
"""

from __future__ import annotations

import array
import io
import json
import operator
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import (
    AmplitudeOverflowError,
    DimensionError,
    LengthMismatchError,
    TraceParseError,
)

# Universe amplitudes reach 2^M; int64 storage caps the engine at M = 62.
MAX_NOISE_BITS = 62
#: Amplitude bound of int64 storage: every |sample| must stay below it.
INT64_HEADROOM = 1 << 63

_U64 = np.uint64
_GAMMA = _U64(0x9E3779B97F4A7C15)
_MIX_C1 = _U64(0xBF58476D1CE4E5B9)
_MIX_C2 = _U64(0x94D049BB133111EB)
#: Clocks mixed per pass of the generator; 2^15 words (256 KiB) stay in cache.
_GENERATION_BLOCK = 1 << 15


@dataclass(frozen=True, eq=False)
class Trace:
    """An integer-valued discrete-time waveform over T clock cycles.

    Carries every signal class in the engine: reference RTWs and product
    states (samples in {+1, -1}) as well as superpositions (arbitrary
    integer samples). Immutable after construction: ``Trace(samples)``
    copies the caller's samples into a read-only int64 array, so later
    writes to the caller's array do not reach the trace. The library's
    own results are computed into a fresh array and handed over read-only
    without that copy.
    """

    samples: np.ndarray
    label: str | None = None

    def __post_init__(self):
        # a private copy: the caller keeps a writable reference to its array
        arr = np.array(self.samples, dtype=np.int64)
        if arr.ndim != 1 or arr.size < 1:
            raise DimensionError("a trace needs a one-dimensional, non-empty sample array")
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    @property
    def t(self) -> int:
        """Clock-cycle count."""
        return self.samples.size

    def __len__(self) -> int:
        return self.samples.size

    def __eq__(self, other) -> bool:
        """Sample-wise equality; labels are metadata and do not participate."""
        if not isinstance(other, Trace):
            return NotImplemented
        return self.samples.size == other.samples.size and bool(
            np.array_equal(self.samples, other.samples)
        )

    __hash__ = None  # mutable-free but compared by value; not hashable

    def __mul__(self, other: "Trace | int") -> "Trace":
        if isinstance(other, Trace):
            return multiply_traces(self, other)
        if isinstance(other, (int, np.integer)):
            check_headroom(max_abs(self) * abs(int(other)), "scalar product")
            return _adopt(self.samples * np.int64(other))
        return NotImplemented

    __rmul__ = __mul__

    def __add__(self, other: "Trace") -> "Trace":
        if not isinstance(other, Trace):
            return NotImplemented
        _require_same_length(self, other)
        check_headroom(max_abs(self) + max_abs(other), "sum")
        return _adopt(self.samples + other.samples)

    def __neg__(self) -> "Trace":
        check_headroom(max_abs(self), "negation")
        return _adopt(-self.samples)

    def is_binary(self) -> bool:
        """True when every sample is +1 or -1 (RTW / product-state class)."""
        return bool(np.all(np.abs(self.samples) == 1))

    def with_label(self, label: str | None) -> "Trace":
        """This trace under another label; the two share one read-only array."""
        return _adopt(self.samples, label)

    def __repr__(self) -> str:
        head = ",".join(str(v) for v in self.samples[:8])
        tail = ",..." if self.t > 8 else ""
        name = f" {self.label!r}" if self.label else ""
        return f"<Trace{name} T={self.t} [{head}{tail}]>"


def _adopt(samples: np.ndarray, label: str | None = None) -> Trace:
    """A trace over ``samples`` without the copy ``Trace()`` makes.

    Only for a one-dimensional, non-empty int64 array that the library
    has just computed and that no caller holds, or for the samples of
    another trace: the array is made read-only and becomes the trace's
    own.
    """
    samples.flags.writeable = False
    trace = object.__new__(Trace)
    object.__setattr__(trace, "samples", samples)
    object.__setattr__(trace, "label", label)
    return trace


def _require_same_length(a: Trace, b: Trace) -> None:
    if a.t != b.t:
        raise LengthMismatchError(f"trace lengths differ: {a.t} != {b.t}")


def max_abs(trace: Trace) -> int:
    """Largest |sample| as a Python int (``np.abs`` wraps at -2^63)."""
    return max(int(trace.samples.max()), -int(trace.samples.min()))


def check_headroom(bound: int, what: str) -> None:
    """Refuse an operation whose |amplitude| can reach 2^63, where int64 wraps."""
    if bound >= INT64_HEADROOM:
        raise AmplitudeOverflowError(
            f"{what} can reach |amplitude| {bound} >= 2^63, past the int64 range"
        )


def low_reference(t: int, *, label: str | None = "low") -> Trace:
    """The squeezed logic-low reference: the constant trace of value 1."""
    if t < 1:
        raise DimensionError("clock count must be at least 1")
    return _adopt(np.ones(int(t), dtype=np.int64), label)


def multiply_traces(a: Trace, b: Trace) -> Trace:
    """Sample-wise product of two traces of equal length.

    The product of two RTWs is again an RTW, and the self-product of any
    RTW is the constant-1 vacuum trace.
    """
    _require_same_length(a, b)
    check_headroom(max_abs(a) * max_abs(b), "product")
    return _adopt(a.samples * b.samples)


def _mix64_top(x: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer up to its last step, applied to ``x`` in
    place; ``scratch`` is a same-shape buffer. The last step,
    ``x ^= x >> 31``, leaves bit 63 as it is, so bit 63 is already final.
    Wraparound is the point, so callers silence overflow."""
    np.right_shift(x, _U64(30), out=scratch)
    x ^= scratch
    x *= _MIX_C1
    np.right_shift(x, _U64(27), out=scratch)
    x ^= scratch
    x *= _MIX_C2
    return x


def _mix64(x: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, applied to ``x`` in place (see _mix64_top)."""
    _mix64_top(x, scratch)
    np.right_shift(x, _U64(31), out=scratch)
    x ^= scratch
    return x


def product_signs(masks, negatives: np.ndarray) -> np.ndarray:
    """Samples (+1/-1) of product states from per-clock negative-high words.

    A product state's sample is -1 exactly when an odd number of its high
    references are -1, so it is the parity of ``mask & negatives``. Either
    side may be a scalar or an array; they broadcast. The signs are
    computed in place in the one new array that holds ``mask & negatives``.
    """
    words = np.asarray(np.asarray(masks, dtype=np.uint64) & negatives)
    np.bitwise_count(words, out=words)
    words &= _U64(1)
    signs = words.view(np.int64)  # parity 0 or 1 ...
    signs *= -2
    signs += 1  # ... to sign 1 or -1
    return signs


def _negative_masks(seed: int, m: int, t: int) -> np.ndarray:
    """Counter-based RTW streams packed per clock, for a seed in [0, 2^64).

    Sample (index, clock) = f(seed, index, clock) is +1 iff the top bit of
    its splitmix64 word is 1; bit (index-1) of word clock-1 is set iff the
    sample is -1. The words are mixed one block of clocks at a time, so the
    temporaries stay O(_GENERATION_BLOCK) whatever T is. Only bit 63 of
    each word is computed, and the M top bits are inverted together.
    """
    masks = np.zeros(t, dtype=np.uint64)
    width = min(t, _GENERATION_BLOCK)
    words = np.empty(width, dtype=np.uint64)
    scratch = np.empty(width, dtype=np.uint64)
    all_bits = _U64((1 << m) - 1)
    with np.errstate(over="ignore"):
        keys = _U64(seed) + np.arange(1, m + 1, dtype=np.uint64) * _GAMMA
        _mix64(keys, np.empty(m, dtype=np.uint64))
        # clock c enters as c * _GAMMA; each block steps every clock by width
        clocks = np.arange(1, width + 1, dtype=np.uint64)
        clocks *= _GAMMA
        step = _U64(width) * _GAMMA
        for start in range(0, t, _GENERATION_BLOCK):
            block = masks[start : start + _GENERATION_BLOCK]
            n = block.size
            if start:
                clocks += step
            for bit, key in enumerate(keys):
                word = _mix64_top(np.add(clocks[:n], key, out=words[:n]), scratch[:n])
                word >>= _U64(63)
                word <<= _U64(bit)
                block |= word
            block ^= all_bits  # bit set = top bit 0 = sample -1
    masks.flags.writeable = False
    return masks


@dataclass(frozen=True)
class ReferenceSystem:
    """The M logic-high reference RTWs of a squeezed noise-bit system.

    Stored as one word per clock: bit (i-1) of ``negative_masks[t]`` is set
    iff high reference i is -1 at clock t. Every reference and product
    state is derived from these words, and regeneration from (seed, m, t)
    is bit-identical, so (m, t, seed) alone decide equality. The logic-low
    reference (constant 1) is exposed as :attr:`low` but never stored.
    """

    m: int
    t: int
    seed: int
    negative_masks: np.ndarray = field(repr=False, compare=False)

    def high(self, i: int) -> Trace:
        """High reference RTW of noise-bit ``i`` (1-based)."""
        if not 1 <= i <= self.m:
            raise DimensionError(f"noise-bit index {i} outside 1..{self.m}")
        return _adopt(product_signs(1 << (i - 1), self.negative_masks), f"high_{i}")

    @property
    def highs(self) -> tuple[Trace, ...]:
        """All M high references, derived from the masks on each access."""
        return tuple(self.high(i) for i in range(1, self.m + 1))

    @property
    def low(self) -> Trace:
        return low_reference(self.t)

    @property
    def ones(self) -> Trace:
        """Product of all M high references: the all-high product string."""
        return _adopt(product_signs((1 << self.m) - 1, self.negative_masks), "ones")


def generate_reference_system(m: int, t: int, seed: int) -> ReferenceSystem:
    """Generate the M orthogonal high-reference RTWs for (seed, m, t).

    Deterministic: calling twice with equal arguments yields bit-identical
    traces. Distinct (i, t) draws come from independent counter positions
    of a 64-bit mixing stream, so distinct traces are statistically
    independent by construction. Any integer seed is reduced modulo 2^64
    and stored reduced, so seeds equal modulo 2^64 give equal systems.
    """
    if m < 1 or t < 1:
        raise DimensionError("need at least 1 noise-bit and 1 clock cycle")
    if m > MAX_NOISE_BITS:
        raise DimensionError(
            f"m={m} exceeds the engine limit of {MAX_NOISE_BITS} noise-bits "
            "(superposition amplitudes are stored as signed 64-bit integers)"
        )
    seed = operator.index(seed) % (1 << 64)
    return ReferenceSystem(m=m, t=t, seed=seed, negative_masks=_negative_masks(seed, m, t))


# --- orthogonality checking -------------------------------------------------

#: Pair statuses: the bound |mean| <= z/sqrt(T) is vacuous once z/sqrt(T) >= 1
#: (any +/-1 average passes), so such windows are reported as inconclusive
#: rather than passing or failing.
PASS, FAIL, INCONCLUSIVE = "pass", "fail", "inconclusive"


@dataclass(frozen=True)
class PairCorrelation:
    i: int
    k: int
    correlation: float
    status: str

    @property
    def is_self(self) -> bool:
        return self.i == self.k


@dataclass(frozen=True)
class OrthogonalityReport:
    """Time-averaged correlations for every pair of reference RTWs."""

    t: int
    z: float
    bound: float
    pairs: tuple[PairCorrelation, ...]

    @property
    def ok(self) -> bool:
        """True when no pair failed (inconclusive pairs do not fail)."""
        return all(p.status != FAIL for p in self.pairs)

    def distinct_pairs(self) -> Iterator[PairCorrelation]:
        return (p for p in self.pairs if not p.is_self)

    def as_dict(self) -> dict:
        return {
            "T": self.t,
            "z": self.z,
            "bound": self.bound,
            "pairs": [
                {"i": p.i, "k": p.k, "correlation": p.correlation, "status": p.status}
                for p in self.pairs
            ],
        }


def check_orthogonality(sys: ReferenceSystem, z: float = 4.0) -> OrthogonalityReport:
    """Check zero mean cross-correlation between distinct reference RTWs.

    For each distinct pair (i, k) the time-averaged product must satisfy
    |mean| <= z/sqrt(T); self-pairs average to exactly 1 because every
    sample squared is 1. Degenerate windows (bound >= 1) are flagged
    inconclusive.
    """
    if z <= 0:
        raise ValueError("z must be positive")
    bound = z / np.sqrt(sys.t)
    conclusive = bound < 1.0
    pairs = []
    for i in range(1, sys.m + 1):
        for k in range(i, sys.m + 1):
            pair_mask = (1 << (i - 1)) ^ (1 << (k - 1))
            corr = float(product_signs(pair_mask, sys.negative_masks).mean())
            if i == k:
                status = PASS if corr == 1.0 else FAIL
            elif not conclusive:
                status = INCONCLUSIVE
            else:
                status = PASS if abs(corr) <= bound else FAIL
            pairs.append(PairCorrelation(i, k, corr, status))
    return OrthogonalityReport(t=sys.t, z=float(z), bound=float(bound), pairs=tuple(pairs))


# --- trace serialization ----------------------------------------------------

CSV_HEADER = "clock,amplitude"
#: Leading blank lines, the header line and its line end.
_CSV_HEAD = re.compile(rf"\s*{re.escape(CSV_HEADER)}[^\S\r\n]*(?:\r\n|\r|\n|\Z)")


_TEN = _U64(10)
_ASCII_ZERO = _U64(ord("0"))
#: Rows the decimal writer formats per pass; its uint64 temporaries
#: (128 KiB each) stay in cache.
_TEXT_BLOCK = 1 << 14


def _decimal_rows(*fields: np.ndarray | bytes) -> str:
    """One line of text per row: each field is an int64 column, written in
    decimal, or a separator repeated on every row.

    All rows are laid out in one uint8 matrix: a number column is as wide
    as its longest value, plus a column for ``-`` when any value is
    negative, and shorter values are padded with NUL, which is deleted
    at the end. The output equals ``str`` of every value, byte for byte.
    Rows are filled one block at a time, so the digit loop's temporaries
    stay in cache, and a block's digit loop ends at the width of its own
    longest value.
    """
    n = next(f.size for f in fields if isinstance(f, np.ndarray))
    layout = []  # (field, first column, end column, signed)
    width = 0
    for field in fields:
        start, signed = width, False
        if isinstance(field, bytes):
            width += len(field)
        else:
            low, high = int(field.min()), int(field.max())
            signed = low < 0
            width += signed + len(str(max(high, -low)))
        layout.append((field, start, width, signed))
    table = np.zeros((n, width), dtype=np.uint8)
    quot_buffer = np.empty(min(n, _TEXT_BLOCK), dtype=np.uint64)
    digit_buffer = np.empty_like(quot_buffer)
    for first in range(0, n, _TEXT_BLOCK):
        rows = table[first : first + _TEXT_BLOCK]
        quot, digit = quot_buffer[: len(rows)], digit_buffer[: len(rows)]
        for field, start, end, signed in layout:
            if isinstance(field, bytes):
                rows[:, start:end] = np.frombuffer(field, dtype=np.uint8)
                continue
            values = field[first : first + _TEXT_BLOCK]
            # |v| = (v ^ s) - s with s = v >> 63 (0, or all ones when v < 0),
            # exact in uint64 for every int64, -2^63 included
            sign = (values >> 63).view(np.uint64)
            mag = values.view(np.uint64) ^ sign
            mag -= sign
            if signed:
                rows[:, start] = sign & _U64(ord("-"))
            # right to left; a cell left of a number's first digit stays NUL
            col, has_digits = end - 1, True  # the units digit is written even for 0
            while True:
                np.floor_divide(mag, _TEN, out=quot)
                np.multiply(quot, _TEN, out=digit)
                np.subtract(mag, digit, out=digit)
                digit += _ASCII_ZERO
                np.copyto(rows[:, col], digit, casting="unsafe", where=has_digits)
                mag, quot = quot, mag
                has_digits = mag != 0
                if not has_digits.any():
                    break
                col -= 1
    return table.tobytes().translate(None, b"\0").decode("ascii")


def trace_to_csv(trace: Trace) -> str:
    """CSV form: header ``clock,amplitude``, one row ``clock,amplitude``
    per clock from 0, every line ended by LF."""
    clocks = np.arange(trace.t, dtype=np.int64)
    return f"{CSV_HEADER}\n" + _decimal_rows(clocks, b",", trace.samples, b"\n")


def trace_from_csv(text: str) -> Trace:
    """Parse the CSV form: the header, then one ``clock,amplitude`` row per
    clock from 0.

    Empty lines are skipped and LF, CRLF or CR line ends are accepted; a
    line holding only spaces is refused. A field is an optional sign and
    ASCII decimal digits (no ``_`` separators), with optional spaces around
    it, in the int64 range. The rows are parsed by numpy's C reader in one
    call and the clock column is checked in one comparison.
    """
    head = _CSV_HEAD.match(text)
    if head is None:
        raise TraceParseError(f"expected header {CSV_HEADER!r}")
    body = text[head.end() :]
    if not body or body.isspace():  # loadtxt would only warn and return no rows
        raise TraceParseError("trace has no samples")
    try:
        # comments=None: the default "#" would accept "0,1 # note" silently
        rows = np.loadtxt(
            io.StringIO(body, newline=None),
            delimiter=",",
            dtype=np.int64,
            comments=None,
            ndmin=2,
        )
    except ValueError as exc:
        raise TraceParseError(f"malformed row after the header: {exc}") from exc
    if rows.shape[1] != 2:
        raise TraceParseError(f"expected 2 columns 'clock,amplitude', got {rows.shape[1]}")
    wrong = rows[:, 0] != np.arange(rows.shape[0])
    if wrong.any():
        row = int(wrong.argmax())
        raise TraceParseError(f"row {row}: clock column reads {rows[row, 0]}")
    return _adopt(np.ascontiguousarray(rows[:, 1]))


def trace_to_json(trace: Trace) -> str:
    """JSON form ``{"T": n, "label": str|null, "samples": [int...]}``, as
    ``json.dumps`` writes it with its default separators, plus a LF."""
    head = json.dumps({"T": trace.t, "label": trace.label})[:-1]
    samples = _decimal_rows(trace.samples, b", ")[:-2]
    return f'{head}, "samples": [{samples}]}}\n'


def trace_from_json(text: str) -> Trace:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TraceParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "samples" not in payload:
        raise TraceParseError("expected an object with a 'samples' array")
    samples = payload["samples"]
    if not isinstance(samples, list):
        raise TraceParseError("'samples' must be an array of integers")
    # JSON true/false load as bool, a subclass of int that array("q") takes
    if ("true" in text or "false" in text) and any(v is True or v is False for v in samples):
        raise TraceParseError("'samples' must be an array of integers")
    try:
        # array("q") refuses float, str, None, list and dict with TypeError
        words = array.array("q", samples)
    except TypeError as exc:
        raise TraceParseError("'samples' must be an array of integers") from exc
    except OverflowError as exc:
        raise TraceParseError("an amplitude lies outside the int64 range") from exc
    label = payload.get("label")
    if label is not None and not isinstance(label, str):
        raise TraceParseError("'label' must be a string or null")
    if not words:
        raise TraceParseError("trace has no samples")
    trace = _adopt(np.frombuffer(words, dtype=np.int64), label)
    if "T" in payload and (type(payload["T"]) is not int or payload["T"] != trace.t):
        raise TraceParseError(f"declared T={payload['T']!r} but {trace.t} samples present")
    return trace


def write_trace(trace: Trace, path: str | Path, fmt: str = "csv") -> Path:
    path = Path(path)
    if fmt == "csv":
        path.write_text(trace_to_csv(trace))
    elif fmt == "json":
        path.write_text(trace_to_json(trace))
    else:
        raise ValueError(f"unknown trace format {fmt!r}")
    return path


def read_trace(path: str | Path, fmt: str | None = None) -> Trace:
    """Read a UTF-8 trace file; format inferred from the suffix unless given."""
    path = Path(path)
    if fmt is None:
        fmt = path.suffix.lstrip(".").lower()
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise TraceParseError(f"{path.name!r} is not UTF-8 text: {exc}") from exc
    if fmt == "csv":
        return trace_from_csv(text)
    if fmt == "json":
        return trace_from_json(text)
    raise TraceParseError(f"cannot infer trace format for {path.name!r}")
