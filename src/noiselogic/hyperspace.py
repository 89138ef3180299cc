"""Hyperspace vectors and superpositions.

An M-bit string selects one of 2^M product states: the sample-wise product
of the high references of its 1-bits (low bits multiply by the constant 1
and drop out). Superpositions are sample-wise integer sums, and the
superposition of all 2^M states — the universe — is built in factored
form, one comparison per clock instead of a 2^M-term sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, LengthMismatchError, WidthMismatchError
from .oracle import ProductTerm, SymbolicSuperposition
from .reference import ReferenceSystem, Trace, _adopt, check_headroom, max_abs, product_signs


@dataclass(frozen=True)
class BitString:
    """An M-bit binary number; bit 1 is the leftmost printed character.

    The value the decoders return. Its algebra is :class:`ProductTerm`'s,
    reached through :meth:`to_term`.
    """

    width: int
    value: int

    def __post_init__(self):
        self.to_term()  # refuses a width below 1 or a value that does not fit

    @classmethod
    def from_text(cls, text: str) -> "BitString":
        term = ProductTerm.from_text(text)
        return cls(term.width, term.value())

    @property
    def text(self) -> str:
        return format(self.value, f"0{self.width}b")

    def to_term(self) -> ProductTerm:
        return ProductTerm.from_value(self.width, self.value)

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
