"""Squeezed reference noise system.

A noise-bit's logic-high state is a random telegraph wave (RTW): a
discrete-time signal whose sample at each clock cycle is +1 or -1 with
probability 0.5. The logic-low state is squeezed to the constant 1 and is
never stored; operations treat it as the multiplicative identity. Every
trace an operation computes, a sum of products c * P(mask) * x1 * x2 * ...,
is built by one kernel, :func:`_combine`, which checks lengths and headroom.

Generation is counter-based: each clock t has one splitmix64 word, a pure
function of (seed, t), and the M references at that clock are M bits of
that one mixed word. Sample (i, t) is therefore a pure function of
(seed, i, t), independent of M, so every trace is reproducible
independently of generation order and any sample is addressable in O(1).
"""

from __future__ import annotations

import json
import json.scanner
import operator
import re
from dataclasses import dataclass, field, fields, is_dataclass
from math import prod
from pathlib import Path

import numpy as np

from .errors import (
    AmplitudeOverflowError,
    DimensionError,
    LengthMismatchError,
    TraceParseError,
)
from .oracle import _index_mask

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
#: Most clocks a trace can span: numpy indexes at most intp-max bytes.
_MAX_CLOCKS = np.iinfo(np.intp).max // 8


@dataclass(frozen=True, eq=False)
class Trace:
    """An integer-valued discrete-time waveform over T clock cycles.

    Carries every signal class in the engine: reference RTWs and product
    states (samples in {+1, -1}) as well as superpositions (arbitrary
    integer samples). Immutable after construction: ``Trace(samples)``
    copies the caller's samples into a read-only int64 array, so later
    writes to the caller's array do not reach the trace. The samples must
    be integers (of an integer or bool dtype); one past the int64 range,
    such as an unsigned 2^63 or a Python ``2**64``, raises
    :class:`AmplitudeOverflowError`. The library's
    own results are computed into a fresh array and handed over read-only
    without that copy. Copies and pickles rebuild through ``Trace(samples, label)``.
    The label is a string or None, which every trace file reads back.
    """

    samples: np.ndarray
    label: str | None = None

    def __post_init__(self):
        _check_label(self.label)
        arr = np.asarray(self.samples)
        if arr.ndim != 1 or arr.size < 1:
            raise DimensionError("a trace needs a one-dimensional, non-empty sample array")
        if arr.dtype.kind not in "biu":
            # numpy reads integers that no one integer dtype holds as float64 or object
            if all(hasattr(v, "__index__") for v in self.samples):
                check_headroom(max(abs(operator.index(v)) for v in self.samples))
            raise TypeError(f"trace samples must be integers, not {arr.dtype}")
        if arr.dtype.kind == "u":  # int64 would wrap a sample past 2^63 - 1
            check_headroom(int(arr.max()))
        # a private copy: the caller keeps a writable reference to its array
        arr = arr.astype(np.int64)
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    def __reduce__(self):
        return Trace, (self.samples, self.label)

    @property
    def t(self) -> int:
        """Clock-cycle count."""
        return self.samples.size

    def __eq__(self, other) -> bool:
        """Sample-wise equality; labels are metadata and do not participate."""
        if not isinstance(other, Trace):
            return NotImplemented
        return bool(np.array_equal(self.samples, other.samples))

    __hash__ = None  # mutable-free but compared by value; not hashable

    def __mul__(self, other: "Trace") -> "Trace":
        """The sample-wise product of two traces; the sum is ``superpose``."""
        if not isinstance(other, Trace):
            return NotImplemented
        return _combine(self.t, [(1, None, (self, other))])

    def is_binary(self) -> bool:
        """True when every sample is +1 or -1 (RTW / product-state class)."""
        return bool(np.all(np.abs(self.samples) == 1))

    def with_label(self, label: str | None) -> "Trace":
        """This trace under another label; the two share one read-only array."""
        return _adopt(self.samples, _check_label(label))

    def __repr__(self) -> str:
        head = ",".join(str(v) for v in self.samples[:8])
        tail = ",..." if self.t > 8 else ""
        name = f" {self.label!r}" if self.label else ""
        return f"<Trace{name} T={self.t} [{head}{tail}]>"


def _check_label(label):
    """``label`` itself, if the trace file formats can write it and read it
    back: a string or None."""
    if label is not None and not isinstance(label, str):
        raise TypeError(f"a trace label must be a string or None, not {type(label).__name__}")
    return label


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


def _require_length(t: int, *traces: Trace) -> None:
    """Refuse any trace that does not span ``t`` clocks; its length is named first."""
    for x in traces:
        if x.t != t:
            raise LengthMismatchError(f"trace lengths differ: {x.t} != {t}")


def max_abs(trace: Trace) -> int:
    """Largest |sample| as a Python int (``np.abs`` wraps at -2^63)."""
    return max(int(trace.samples.max()), -int(trace.samples.min()))


def check_headroom(bound: int) -> None:
    """Refuse a result whose |amplitude| can reach 2^63, where int64 wraps."""
    if bound >= INT64_HEADROOM:
        raise AmplitudeOverflowError(f"|amplitude| can reach {bound} >= 2^63, past the int64 range")


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, applied to ``x`` in place. Wraparound is the
    point, so callers silence overflow."""
    x ^= x >> _U64(30)
    x *= _MIX_C1
    x ^= x >> _U64(27)
    x *= _MIX_C2
    x ^= x >> _U64(31)
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


def _combine(t: int, terms, sys: ReferenceSystem | None = None, label=None) -> Trace:
    """Sum over ``terms``, each ``(coeff, mask, operands)``, of coeff * P(mask)
    * x1 * x2 * ...: every trace the engine computes comes from here. P is
    ``sys``'s product state ``mask`` (+-1), or 1 when ``mask`` is None.
    Every operand must span ``t`` clocks, and the bound sum |coeff| * prod
    max|operand| must stay below 2^63, both checked before any numpy
    arithmetic. A term is computed in place in one fresh array (the signs,
    or its first multiply), which the first term makes the result; a later
    one is added and freed, or, when it is one operand times 1, added as is.
    """
    _require_length(t, *[x for _, _, operands in terms for x in operands])
    check_headroom(sum(abs(coeff) * prod(map(max_abs, operands)) for coeff, _, operands in terms))
    acc = None
    for coeff, mask, operands in terms:
        factors = [x.samples for x in operands]
        if coeff != 1:
            factors.append(coeff)
        if mask is None and acc is not None and len(factors) == 1:
            acc += factors[0]
            continue
        if mask is None:
            term = np.multiply(factors.pop(0), factors.pop(0) if factors else 1)
        else:
            term = product_signs(mask, sys.negative_masks)
        for f in factors:
            term *= f
        acc = term if acc is None else np.add(acc, term, out=acc)
        del term  # freed before the next term is computed
    return _adopt(np.zeros(t, dtype=np.int64) if acc is None else acc, label)


def _negative_masks(seed: int, m: int, t: int) -> np.ndarray:
    """Counter-based RTW streams packed per clock, for a seed in [0, 2^64).

    With ``key = splitmix64(seed + GAMMA)``, clock c has the word
    ``splitmix64(key + (c+1)*GAMMA)`` (all mod 2^64), and sample
    (index, c) is -1 iff bit (index-1) of that word is 0: one mix per
    clock supplies all M bits, and a sample does not depend on M. The
    mask of clock c is the word's low M bits inverted. The words are
    mixed in place one block of clocks at a time, so the temporaries stay
    O(_GENERATION_BLOCK) whatever T is.
    """
    masks = np.empty(t, dtype=np.uint64)
    all_bits = _U64((1 << m) - 1)
    with np.errstate(over="ignore"):
        key = _mix64(np.array([seed], dtype=np.uint64) + _GAMMA)
        # key + (c+1)*GAMMA for the first block; block start s adds s*GAMMA
        counters = np.arange(1, min(t, _GENERATION_BLOCK) + 1, dtype=np.uint64)
        counters *= _GAMMA
        counters += key
        for start in range(0, t, _GENERATION_BLOCK):
            block = masks[start : start + _GENERATION_BLOCK]
            np.add(counters[: block.size], _U64(start) * _GAMMA, out=block)
            _mix64(block)
            block &= all_bits
            block ^= all_bits  # bit set = word bit 0 = sample -1
    masks.flags.writeable = False
    return masks


@dataclass(frozen=True)
class ReferenceSystem:
    """The M logic-high reference RTWs of a squeezed noise-bit system.

    ``ReferenceSystem(m, t, seed)`` is the one way to build it. It checks T,
    then M (integers, ``True`` reading as 1), then reduces any integer seed
    modulo 2^64 and stores it reduced, so seeds equal modulo 2^64 give equal
    systems. Generation is deterministic: each clock draws one word from a
    64-bit splitmix64 counter stream, and the M samples at that clock are M
    bits of that one mixed word, so one mix serves every reference; the
    words of distinct clocks come from distinct counter positions. A system
    of fewer bits holds the first references of a wider one. The streams
    differ from those of version 0.1.0, which mixed one word per reference
    and clock.

    Stored as one read-only word per clock: bit (i-1) of
    ``negative_masks[t]`` is set iff high reference i is -1 at clock t.
    Every reference and product state is derived from these words, and
    regeneration is bit-identical, so (m, t, seed) alone decide equality,
    and copies and pickles rebuild the system from those three integers. The
    logic-low reference (constant 1) is exposed as :attr:`low` but never
    stored.
    """

    m: int
    t: int
    seed: int
    negative_masks: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        t = operator.index(self.t) if hasattr(self.t, "__index__") else self.t
        if not (isinstance(t, int) and 1 <= t <= _MAX_CLOCKS):
            raise DimensionError(f"clock count {t!r} is outside 1..{_MAX_CLOCKS}")
        m = operator.index(self.m) if hasattr(self.m, "__index__") else self.m
        if not (isinstance(m, int) and 1 <= m <= MAX_NOISE_BITS):
            raise DimensionError(
                f"m={m!r} is outside the engine's 1..{MAX_NOISE_BITS} noise-bits "
                "(superposition amplitudes are stored as signed 64-bit integers)"
            )
        seed = operator.index(self.seed) % (1 << 64)
        for name, value in (("m", m), ("t", t), ("seed", seed)):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "negative_masks", _negative_masks(seed, m, t))

    def __reduce__(self):
        return ReferenceSystem, (self.m, self.t, self.seed)

    def high(self, i: int) -> Trace:
        """High reference RTW of noise-bit ``i`` (1-based)."""
        mask = _index_mask(self.m, (i,))
        return _combine(self.t, [(1, mask, ())], self, f"high_{mask.bit_length()}")

    @property
    def low(self) -> Trace:
        """The squeezed logic-low reference: the constant trace of value 1."""
        return _adopt(np.ones(self.t, dtype=np.int64), "low")


def generate_reference_system(m: int, t: int, seed: int) -> ReferenceSystem:
    """The M orthogonal high-reference RTWs for (seed, m, t):
    ``ReferenceSystem(m, t, seed)``, which checks and generates them."""
    return ReferenceSystem(m, t, seed)


# --- orthogonality checking -------------------------------------------------

#: Pair statuses: the bound |mean| <= z/sqrt(T) is vacuous once z/sqrt(T) >= 1
#: (any +/-1 average passes), so such windows are reported as inconclusive
#: rather than passing or failing.
PASS, FAIL, INCONCLUSIVE = "pass", "fail", "inconclusive"


def _report_dict(report) -> dict:
    """A stats report as JSON values: one key per field in field order, ``t``
    written ``"T"``, and tuples as lists. A tuple of records (such as
    :class:`PairCorrelation`) becomes a list of their ``__dict__`` copies,
    which a dataclass's ``__init__`` fills in field order."""
    values = {"T" if f.name == "t" else f.name: getattr(report, f.name) for f in fields(report)}
    for key, value in values.items():
        if isinstance(value, tuple):
            records = value and is_dataclass(value[0])
            values[key] = [v.__dict__.copy() for v in value] if records else list(value)
    return values


@dataclass(frozen=True)
class PairCorrelation:
    i: int
    k: int
    correlation: float
    status: str


@dataclass(frozen=True)
class OrthogonalityReport:
    """Time-averaged correlations for each distinct pair i < k of reference RTWs."""

    t: int
    z: float
    bound: float
    pairs: tuple[PairCorrelation, ...]

    @property
    def ok(self) -> bool:
        """True when no pair failed (inconclusive pairs do not fail)."""
        return all(p.status != FAIL for p in self.pairs)

    as_dict = _report_dict


#: Clocks per Gram block: its pair sums, integers of at most 2^12, are exact in
#: float32, and its signs stay O(block), 1 MiB at M = 62; 2^14 was slower, 4x larger.
_GRAM_BLOCK = 1 << 12


def check_orthogonality(sys: ReferenceSystem) -> OrthogonalityReport:
    """Check zero mean cross-correlation between distinct reference RTWs.

    For each pair i < k the time-averaged product, taken exactly from one
    blocked Gram product of the +/-1 signs, must satisfy |mean| <= 4/sqrt(T).
    Degenerate windows (bound >= 1) are flagged inconclusive.
    """
    z = 4.0
    bound = z / np.sqrt(sys.t)
    sums = np.zeros((sys.m, sys.m))
    for start in range(0, sys.t, _GRAM_BLOCK):
        words = sys.negative_masks[start : start + _GRAM_BLOCK].astype("<u8").view(np.uint8)
        bits = np.unpackbits(words.reshape(-1, 8), axis=1, bitorder="little")[:, : sys.m]
        signs = np.subtract(1, 2 * bits, dtype=np.float32)  # a set negative bit is -1
        sums += signs.T @ signs
    pairs = []
    for i in range(1, sys.m + 1):
        for k in range(i + 1, sys.m + 1):
            corr = float(sums[i - 1, k - 1] / sys.t)
            status = (PASS if abs(corr) <= bound else FAIL) if bound < 1.0 else INCONCLUSIVE
            pairs.append(PairCorrelation(i, k, corr, status))
    return OrthogonalityReport(t=sys.t, z=z, bound=float(bound), pairs=tuple(pairs))


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


#: Byte classes of the decimal-field kernel. The low nibble says what a
#: byte is: a digit (1), a sign (2) or a separator (4), plus 8 for the
#: digit 0 in a grammar that refuses leading zeros; whitespace counts as
#: digit, sign and separator at once, so that anything may follow it. The
#: high nibble says what may precede the byte. Every other byte is 0: it
#: may follow nothing, and nothing may follow it.
_DIGIT, _ZERO, _SIGN, _SEPARATOR, _SPACE = 0x71, 0x79, 0x42, 0x14, 0x57


def _byte_classes(signs: bytes, spaces: bytes, zero: int) -> bytes:
    """The ``bytes.translate`` table of one field grammar."""
    table = bytearray(256)
    table[ord("0") : ord("9") + 1] = bytes([zero] + [_DIGIT] * 9)
    for byte in signs:
        table[byte] = _SIGN
    for byte in spaces:
        table[byte] = _SPACE
    table[ord(",")] = _SEPARATOR
    return bytes(table)


_JSON_SPACES = b" \t\n\r"
#: CSV fields take either sign and leading zeros; the CSV reader has
#: turned its whitespace into spaces and its line ends into commas.
_CSV_CLASSES = _byte_classes(b"+-", b" ", _DIGIT)
#: JSON integers take no + and no leading zero, amid JSON whitespace.
_JSON_CLASSES = _byte_classes(b"-", _JSON_SPACES, _ZERO)
#: |v| from which a parsed value is compared with its field's text:
#: ``np.fromstring`` saturates a value past int64 instead of refusing it.
_EXACT_FROM = 10**18


class _FieldError(ValueError):
    """A field list that breaks its grammar; ``field`` counts from 0."""

    def __init__(self, text: bytes, field: int, reason: str):
        shown = text.split(b",")[field].strip().decode("ascii", "replace")
        super().__init__(f"{shown!r} {reason}")
        self.field = field


def _field_count(text: bytes, classes: bytes) -> int:
    """How many fields ``text`` holds, once every byte of it is checked
    against the field grammar of ``classes`` (see :func:`_decimal_fields`).

    One ``bytes.translate`` maps the text to byte classes. Every byte is
    checked against the one before it, every whitespace run against the
    bytes on either side (a separator on exactly one side), and every
    ``_ZERO`` against its neighbours (no digit after a leading one).
    """
    # framed by separators, so that the first and the last field are checked alike
    cls = (b"," + text + b",").translate(classes)
    k = np.frombuffer(cls, dtype=np.uint8)
    space = k == _SPACE
    spaced = bool(space.any())
    if spaced and (space[1:] & space[:-1]).any():  # one byte for each whitespace run
        run = bytes([_SPACE, _SPACE])
        while run in cls:
            cls = cls.replace(run, run[1:])
        k = np.frombuffer(cls, dtype=np.uint8)
        space = k == _SPACE
    follows = k[1:] >> 4
    follows &= k[:-1]  # 0 where a byte may not follow the one before it
    faults = [] if follows.all() else [int(follows.argmin()) + 1]
    del follows
    separator = k == _SEPARATOR
    if spaced:
        inside = space[1:-1] & (separator[:-2] == separator[2:])
        if inside.any():
            faults.append(int(inside.argmax()) + 1)
    if classes[ord("0")] == _ZERO:
        leading = k[1:-1] == _ZERO
        leading &= (k[:-2] | 8) != _ZERO  # after no digit
        leading &= (k[2:] | 8) == _ZERO  # before a digit
        if leading.any():
            faults.append(int(leading.argmax()) + 1)
    if faults:
        field = np.count_nonzero(separator[: min(faults)]) - 1
        raise _FieldError(text, field, "is not a decimal integer")
    return int(np.count_nonzero(separator)) - 1


def _decimal_fields(text: bytes, classes: bytes) -> np.ndarray:
    """Every comma-separated field of ASCII ``text`` as int64.

    The reader-side twin of :func:`_decimal_rows`. A field is an optional
    sign and decimal digits in int64, with whitespace allowed only around
    it; ``classes`` says which signs and whitespace bytes it admits and
    whether a leading zero is refused, as JSON does. The whole grammar is
    checked first (:func:`_field_count`), because ``np.fromstring``
    accepts ``- 1`` and a trailing comma. Then one ``np.fromstring`` call
    parses every field, and each value with |v| >= 10^18 is compared
    exactly with its field's text, because ``np.fromstring`` saturates a
    value past int64. A text of whitespace alone is an empty list; any
    other fault raises :class:`_FieldError`.
    """
    if not text.strip(_JSON_SPACES):
        return np.empty(0, dtype=np.int64)
    # every field is checked, so np.fromstring reads exactly ``count`` of
    # them into one array it need not grow (past a short read it would
    # return unset values instead of refusing, so the count must be exact)
    values = np.fromstring(text, dtype=np.int64, count=_field_count(text, classes), sep=",")
    if values.max() >= _EXACT_FROM or values.min() <= -_EXACT_FROM:
        texts = text.split(b",")
        for k in np.flatnonzero((values >= _EXACT_FROM) | (values <= -_EXACT_FROM)).tolist():
            field = texts[k].strip()
            digits = field.lstrip(b"+-").lstrip(b"0") or b"0"
            sign = -1 if field.startswith(b"-") else 1
            if len(digits) > 19 or sign * int(digits) != values[k]:
                raise _FieldError(text, k, "lies outside the int64 range")
    return values


#: What the CSV reader hands the kernel: LF, which ends a row, becomes a
#: field separator, and ASCII whitespace becomes a space.
_CSV_FLAT = bytes.maketrans(b"\n\t\x0b\x0c\x1c\x1d\x1e\x1f", b", " + b" " * 6)
#: Every byte a CSV row may hold besides its separators.
_CSV_FIELD_BYTES = b"0123456789+- \t\x0b\x0c\x1c\x1d\x1e\x1f"
_MALFORMED = "malformed row after the header"


def _csv_rows(skeleton: bytes) -> int | None:
    """How many rows there are when the separators, in order, are
    ``skeleton`` and every row is ``clock,amplitude``; otherwise None."""
    rows = len(skeleton) // 2 + 1
    return rows if skeleton == (b",\n" * rows)[:-1] else None


def _csv_shape_error(skeleton: bytes) -> TraceParseError:
    """Why rows of fields whose separators, in order, are ``skeleton``
    are not ``clock,amplitude`` rows."""
    widths = [seps.count(b",") + 1 for seps in skeleton.split(b"\n")]
    if len(set(widths)) == 1:
        return TraceParseError(f"expected 2 columns 'clock,amplitude', got {widths[0]}")
    row = next(row for row, width in enumerate(widths) if width != 2)
    return TraceParseError(f"{_MALFORMED}: row {row} has {widths[row]} fields")


def trace_from_csv(text: str) -> Trace:
    """Parse the CSV form: the header, then one ``clock,amplitude`` row per
    clock from 0.

    Empty lines are skipped and LF, CRLF or CR line ends are accepted; a
    line holding only whitespace is refused. A field is an optional sign
    and ASCII decimal digits (no ``_`` separators), with optional ASCII
    whitespace around it, in the int64 range. Every field is parsed by the
    :func:`_decimal_fields` kernel in one pass over the text, then the
    rows' separators and the clock column are checked in one comparison
    each.
    """
    head = _CSV_HEAD.match(text)
    if head is None:
        raise TraceParseError(f"expected header {CSV_HEADER!r}")
    body = text[head.end() :]
    if not body or body.isspace():
        raise TraceParseError("trace has no samples")
    try:
        data = body.encode("ascii")
    except UnicodeEncodeError as exc:
        raise TraceParseError(f"{_MALFORMED}: non-ASCII character {body[exc.start]!r}") from None
    del body
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    data = data.strip(b"\n")
    # the separators in order, once the kernel has checked every other byte
    skeleton = data.translate(None, _CSV_FIELD_BYTES)
    rows = _csv_rows(skeleton)
    if rows is None and b"\n\n" in data:  # empty lines between rows
        while b"\n\n" in data:
            data = data.replace(b"\n\n", b"\n")
        skeleton = data.translate(None, _CSV_FIELD_BYTES)
        rows = _csv_rows(skeleton)
    data = data.translate(_CSV_FLAT)
    try:
        values = _decimal_fields(data, _CSV_CLASSES)
    except _FieldError as exc:
        seps = re.sub(rb"[^,\n]", b"", skeleton)[: exc.field]
        row, column = seps.count(b"\n"), len(seps) - seps.rfind(b"\n")
        raise TraceParseError(f"{_MALFORMED}: row {row}, column {column}: {exc}") from None
    if rows is None:
        raise _csv_shape_error(skeleton)
    clocks = values[0::2]
    wrong = clocks != np.arange(rows)
    if wrong.any():
        row = int(wrong.argmax())
        raise TraceParseError(f"row {row}: clock column reads {clocks[row]}")
    return _adopt(values[1::2].copy())


def trace_to_json(trace: Trace) -> str:
    """JSON form ``{"T": n, "label": str|null, "samples": [int...]}``, as
    ``json.dumps`` writes it with its default separators, plus a LF."""
    head = json.dumps({"T": trace.t, "label": trace.label})[:-1]
    samples = _decimal_rows(trace.samples, b", ")[:-2]
    return f'{head}, "samples": [{samples}]}}\n'


def _json_array(s_and_end: tuple[str, int], scan_once):
    """``parse_array`` of the trace reader's JSON decoder: an array of JSON
    integers within int64 becomes an int64 array through
    :func:`_decimal_fields`; any other array is json's own list."""
    s, end = s_and_end
    # an integer list ends at the first "]", before any "[": searching no
    # further keeps deeply nested arrays linear
    nested = s.find("[", end)
    close = s.find("]", end, len(s) if nested < 0 else nested)
    if close >= 0:
        try:
            return _decimal_fields(s[end:close].encode("ascii"), _JSON_CLASSES), close + 1
        except (UnicodeEncodeError, _FieldError):
            pass
    return json.decoder.JSONArray(s_and_end, scan_once)


_JSON_DECODER = json.JSONDecoder()
_JSON_DECODER.parse_array = _json_array
_JSON_DECODER.scan_once = json.scanner.py_make_scanner(_JSON_DECODER)


def trace_from_json(text: str) -> Trace:
    """Parse the JSON form: an object whose ``samples`` key holds a
    non-empty array of JSON integers in int64, with an optional string or
    null ``label`` and an optional integer ``T`` equal to the sample
    count. Integer arrays are parsed by the :func:`_decimal_fields`
    kernel; the rest of the document is json's own, duplicate keys
    included (the last one wins)."""
    try:
        payload = _JSON_DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise TraceParseError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise TraceParseError("invalid JSON: nested too deeply") from None
    if not isinstance(payload, dict) or "samples" not in payload:
        raise TraceParseError("expected an object with a 'samples' array")
    samples = payload["samples"]
    if not isinstance(samples, np.ndarray):
        # json's own list holds a value that is no JSON integer in int64:
        # the first such value names the fault, unless a JSON boolean does
        if isinstance(samples, list) and not any(type(v) is bool for v in samples):
            in_range = range(-INT64_HEADROOM, INT64_HEADROOM)
            first = next((v for v in samples if type(v) is not int or v not in in_range), None)
            if type(first) is int:
                raise TraceParseError("an amplitude lies outside the int64 range")
        raise TraceParseError("'samples' must be an array of integers")
    label = payload.get("label")
    if label is not None and not isinstance(label, str):
        raise TraceParseError("'label' must be a string or null")
    if not samples.size:
        raise TraceParseError("trace has no samples")
    trace = _adopt(samples, label)
    declared = payload.get("T", trace.t)
    if type(declared) is not int or declared != trace.t:
        if isinstance(declared, np.ndarray):  # an integer array, shown as json's list
            declared = declared.tolist()
        raise TraceParseError(f"declared T={declared!r} but {trace.t} samples present")
    return trace


#: Trace file formats by name, each a (writer, reader) pair.
_FORMATS = {"csv": (trace_to_csv, trace_from_csv), "json": (trace_to_json, trace_from_json)}


def _codec(path: Path, fmt: str | None):
    """The (writer, reader) pair of ``fmt``, or of ``path``'s suffix when
    ``fmt`` is None; any other format raises before a file is touched."""
    name = path.suffix.lstrip(".").lower() if fmt is None else fmt
    if name not in _FORMATS:
        if fmt is None:
            raise TraceParseError(f"cannot infer trace format for {path.name!r}")
        raise TraceParseError(f"unknown trace format {fmt!r}")
    return _FORMATS[name]


def write_trace(trace: Trace, path: str | Path, fmt: str | None = None) -> Path:
    """Write a UTF-8 trace file; format inferred from the suffix unless given."""
    path = Path(path)
    to_text, _ = _codec(path, fmt)
    path.write_text(to_text(trace), encoding="utf-8")
    return path


def read_trace(path: str | Path, fmt: str | None = None) -> Trace:
    """Read a UTF-8 trace file; format inferred from the suffix unless given."""
    path = Path(path)
    _, from_text = _codec(path, fmt)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise TraceParseError(f"{path.name!r} is not UTF-8 text: {exc}") from exc
    return from_text(text)
