"""Signal-level NOT, XOR and XNOR gates.

Every gate is a sample-wise multiplication, so outputs are valid at each
clock cycle without time averaging, and each gate distributes over
superpositions: applying it to a sum applies it to every component at
once. Each gate that takes a reference system is one product state (a
bit-mask) times its operands, computed by one kernel. Gates operate on
traces only; their string-level truth tables are theorems checked by the
test suite, not an implementation path.
"""

from __future__ import annotations

from math import prod
from typing import Iterable

from .errors import LengthMismatchError, TargetIndexError
from .reference import (
    ReferenceSystem,
    Trace,
    _adopt,
    check_headroom,
    max_abs,
    multiply_traces,
    product_signs,
)


def _target_mask(sys: ReferenceSystem, targets: Iterable[int]) -> int:
    """Product-state mask of a nonempty set of noise-bit indices in 1..M."""
    ts = {int(i) for i in targets}
    if not ts:
        raise TargetIndexError("target set must not be empty")
    bad = [i for i in ts if not 1 <= i <= sys.m]
    if bad:
        raise TargetIndexError(f"noise-bit indices {sorted(bad)} outside 1..{sys.m}")
    return sum(1 << (i - 1) for i in ts)


def _gate(sys: ReferenceSystem, mask: int, *operands: Trace, label: str | None = None) -> Trace:
    """Product state ``mask`` times the operands, multiplied into the
    product state's own sign array. Every operand must span the system's T
    clocks; signs are +-1, so the product of the operands' max |amplitude|
    bounds the result."""
    for x in operands:
        if x.t != sys.t:
            raise LengthMismatchError(f"trace lengths differ: {x.t} != {sys.t}")
    check_headroom(prod(max_abs(x) for x in operands), "product")
    out = product_signs(mask, sys.negative_masks)
    for x in operands:
        out *= x.samples
    return _adopt(out, label)


def not_operator(sys: ReferenceSystem, targets: Iterable[int]) -> Trace:
    """The NOT signal for a target set: product of the targeted highs.

    Multiplying any signal by it flips the targeted bits of every product
    state in that signal; applying it twice is the identity (each high
    squared is the constant 1).
    """
    mask = _target_mask(sys, targets)
    bits = "".join(str(i) for i in range(1, sys.m + 1) if mask >> (i - 1) & 1)
    return _gate(sys, mask, label="not_" + bits)


def apply_not(sys: ReferenceSystem, targets: Iterable[int], signal: Trace) -> Trace:
    """Invert the targeted bits of every product state carried by ``signal``:
    ``signal`` times :func:`not_operator`."""
    return _gate(sys, _target_mask(sys, targets), signal)


def xor_pair(a: Trace, b: Trace) -> Trace:
    """Pairwise XOR of two M-bit signals: their sample-wise product.

    For pure hyperspace vectors the output is the vector of the bitwise
    XOR of the two strings; a superposition input distributes component
    by component. Multiplication by the all-zeros string (constant 1) is
    a no-op, which is why no reference system is needed here. On single
    noise-bit signals (each the constant 1 or high_i) it is the bit-level
    XOR, and ``xnor_targeted(sys, xor_pair(a, b), i, 0)`` the bit-level XNOR.
    """
    return multiply_traces(a, b)


def xnor_pair(sys: ReferenceSystem, a: Trace, b: Trace) -> Trace:
    """Pairwise XNOR: a * b * ones, with ones the all-high product string."""
    return _gate(sys, (1 << sys.m) - 1, a, b)


def xor_targeted(sys: ReferenceSystem, signal: Trace, i: int, p: int) -> Trace:
    """XOR noise-bit ``i`` of every carried product state with bit value ``p``.

    For p = 1 this multiplies by the high RTW of bit i; for p = 0 the
    operand is the constant 1 and the input passes through untouched.
    Either way ``signal`` must span the system's T clocks.
    """
    mask = _target_mask(sys, (i,))
    if p not in (0, 1):
        raise ValueError("bit value p must be 0 or 1")
    if p == 1:
        return _gate(sys, mask, signal)
    if signal.t != sys.t:  # returned without a copy, so checked here
        raise LengthMismatchError(f"trace lengths differ: {signal.t} != {sys.t}")
    return signal


def xnor_targeted(sys: ReferenceSystem, signal: Trace, i: int, p: int) -> Trace:
    """XNOR noise-bit ``i`` of every carried product state with bit value ``p``.

    The defining product is signal * G_i(p) * high_i, with G_i(0) the
    constant 1 and G_i(1) = high_i. Since high_i squared is the constant 1,
    G_i(1) cancels the trailing high_i, so XNOR with p is XOR with 1 - p.
    """
    if p not in (0, 1):
        raise ValueError("bit value p must be 0 or 1")
    return xor_targeted(sys, signal, i, 1 - p)
