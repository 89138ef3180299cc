"""Hyperspace vectors and superpositions.

An M-bit string selects one of 2^M product states: the sample-wise product
of the high references of its 1-bits (low bits multiply by the constant 1
and drop out). Superpositions are sample-wise integer sums, and the
superposition of all 2^M states — the universe — is built in factored
form, one comparison per clock instead of a 2^M-term sum.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, LengthMismatchError, WidthMismatchError
from .oracle import ProductTerm, SymbolicSuperposition
from .reference import ReferenceSystem, Trace, _adopt, check_headroom, max_abs, product_signs

#: CLI literal forms, ASCII only: plain 0/1, ``0b``-prefixed binary, decimal.
_LITERAL = re.compile(r"([01]+)|0[bB]([01]+)|([0-9]+)")


@dataclass(frozen=True)
class BitString:
    """An M-bit binary number; bit 1 is the leftmost printed character."""

    width: int
    value: int

    def __post_init__(self):
        self.to_term()  # refuses a width below 1 or a value that does not fit

    @classmethod
    def from_text(cls, text: str) -> "BitString":
        term = ProductTerm.from_text(text)
        return cls(term.width, term.value())

    @classmethod
    def parse(cls, text: str, width: int | None = None) -> "BitString":
        """Parse a CLI-style literal.

        Plain 0/1 strings are binary literals carrying their own width.
        ``0b``-prefixed or decimal forms need an explicit width. Digits are
        ASCII only, with no ``_`` separators.
        """
        text = text.strip()
        match = _LITERAL.fullmatch(text)
        if match is None:
            raise WidthMismatchError(f"cannot parse bit string {text!r}")
        plain, binary, decimal = match.groups()
        if plain is not None:
            if width is not None and len(plain) != width:
                raise WidthMismatchError(
                    f"literal {text!r} has width {len(plain)}, expected {width}"
                )
            return cls.from_text(plain)
        if width is None:
            raise WidthMismatchError(f"{text!r} needs an explicit width")
        return cls(width, int(binary, 2) if binary is not None else int(decimal))

    @property
    def bits(self) -> tuple[int, ...]:
        """Bit values left to right; ``bits[0]`` is bit 1."""
        return tuple(self.value >> (self.width - i) & 1 for i in range(1, self.width + 1))

    @property
    def text(self) -> str:
        return format(self.value, f"0{self.width}b")

    @property
    def high_indices(self) -> frozenset[int]:
        return self.to_term().indices

    def to_term(self) -> ProductTerm:
        return ProductTerm.from_value(self.width, self.value)

    def __xor__(self, other: "BitString") -> "BitString":
        if not isinstance(other, BitString):
            return NotImplemented
        if self.width != other.width:
            raise WidthMismatchError(f"widths differ: {self.width} != {other.width}")
        return BitString(self.width, self.value ^ other.value)

    def complement(self) -> "BitString":
        return BitString(self.width, self.value ^ ((1 << self.width) - 1))

    def __repr__(self) -> str:
        return f"BitString({self.text})"


def product_trace(sys: ReferenceSystem, term: ProductTerm) -> Trace:
    """Signal of a product term: the product of its high references.

    The vacuum (empty) term gives the constant-1 trace.
    """
    if term.width != sys.m:
        raise WidthMismatchError(f"term width {term.width} != system width {sys.m}")
    return _adopt(product_signs(term.mask, sys.negative_masks), term.text())


def synthesize(sys: ReferenceSystem, s: "BitString | str") -> Trace:
    """Hyperspace vector of a bit string.

    Sample-wise product over the high bits' reference traces only; the
    all-zeros string synthesizes to the constant-1 vacuum trace.
    """
    if isinstance(s, str):
        s = BitString.from_text(s)
    return product_trace(sys, s.to_term())


def superpose(traces: list[Trace], *, t: int | None = None) -> Trace:
    """Sample-wise integer sum of traces sharing one clock count.

    The empty sum is the all-zero trace; its length cannot be inferred,
    so pass ``t`` explicitly in that case.
    """
    if not traces:
        if t is None:
            raise DimensionError("superposing nothing requires an explicit clock count t")
        return Trace(np.zeros(int(t), dtype=np.int64))  # refuses t < 1
    length = traces[0].t
    for tr in traces[1:]:
        if tr.t != length:
            raise LengthMismatchError(f"trace lengths differ: {length} != {tr.t}")
    if t is not None and t != length:
        raise LengthMismatchError(f"explicit t={t} != trace length {length}")
    check_headroom(sum(max_abs(tr) for tr in traces), "superposition")
    acc = traces[0].samples.copy()
    for tr in traces[1:]:
        acc += tr.samples
    return _adopt(acc)


def universe(sys: ReferenceSystem) -> Trace:
    """Superposition of all 2^M hyperspace vectors, in factored form.

    The product of the M factors (1 + high_i) is 2^M at clocks where every
    high reference is +1 (no negative bit set) and 0 elsewhere, so one
    comparison per clock replaces a 2^M-term sum.
    """
    amplitudes = np.equal(sys.negative_masks, 0, out=np.empty(sys.t, dtype=np.int64))
    amplitudes <<= sys.m  # 1 -> 2^M
    return _adopt(amplitudes, "universe")


def realize(sys: ReferenceSystem, sup: SymbolicSuperposition) -> Trace:
    """Bridge from the symbolic oracle to the signal domain.

    Sum over terms of coefficient times the synthesized term trace. The
    empty superposition realizes as the all-zero trace; the vacuum term
    as the constant-1 trace.
    """
    if sup.width != sys.m:
        raise WidthMismatchError(f"superposition width {sup.width} != system width {sys.m}")
    check_headroom(sum(abs(c) for c in sup.terms.values()), "superposition")
    acc = np.zeros(sys.t, dtype=np.int64)
    for mask, coeff in sup.terms.items():
        signs = product_signs(mask, sys.negative_masks)
        signs *= coeff
        acc += signs
        del signs  # freed before the next term's signs are allocated
    return _adopt(acc)
