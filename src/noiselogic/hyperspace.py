"""Hyperspace vectors and superpositions.

An M-bit string selects one of 2^M product states: the sample-wise product
of the high references of its 1-bits (low bits multiply by the constant 1
and drop out). Superpositions are sample-wise integer sums, and the
superposition of all 2^M states — the universe — is built in factored
form, one comparison per clock instead of a 2^M-term sum.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .oracle import ProductTerm, SymbolicSuperposition, _require_fit, _require_width
from .reference import ReferenceSystem, Trace, _adopt, _combine


@dataclass(frozen=True)
class BitString:
    """An M-bit binary number; bit 1 is the leftmost printed character.

    The value the decoders return. Its algebra is :class:`ProductTerm`'s,
    reached through :meth:`to_term`.
    """

    width: int
    value: int

    def __post_init__(self):
        # keep the integers read: True is 1, a numpy integer becomes int
        object.__setattr__(self, "width", _require_fit(self.width, self.value))
        object.__setattr__(self, "value", operator.index(self.value))

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
    _require_width(sys.m, term)
    return _combine(sys.t, [(1, term.mask, ())], sys, term.text())


def synthesize(sys: ReferenceSystem, s: "BitString | str") -> Trace:
    """Hyperspace vector of a bit string.

    Sample-wise product over the high bits' reference traces only; the
    all-zeros string synthesizes to the constant-1 vacuum trace.
    """
    term = ProductTerm.from_text(s) if isinstance(s, str) else s.to_term()
    return product_trace(sys, term)


def superpose(traces: list[Trace]) -> Trace:
    """Sample-wise integer sum of one or more traces sharing one clock count."""
    if not traces:
        raise DimensionError("superposing nothing: a sum needs at least one trace")
    return _combine(traces[0].t, [(1, None, (x,)) for x in traces])


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
    _require_width(sys.m, sup)
    return _combine(sys.t, [(c, mask, ()) for mask, c in sup.terms.items()], sys)
