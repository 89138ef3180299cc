"""Signal-level NOT, XOR and XNOR gates.

Every gate is a sample-wise multiplication, so outputs are valid at each
clock cycle without time averaging, and each gate distributes over
superpositions: applying it to a sum applies it to every component at
once. Gates operate on traces only; their string-level truth tables are
theorems checked by the test suite, not an implementation path.
"""

from __future__ import annotations

from typing import Iterable

from .errors import LengthMismatchError, TargetIndexError
from .reference import (
    ReferenceSystem,
    Trace,
    _adopt,
    _require_same_length,
    check_headroom,
    max_abs,
    multiply_traces,
    product_signs,
)

#: A gate target is a nonempty set of noise-bit indices in {1..M}.
TargetSet = frozenset[int]


def _as_targets(sys: ReferenceSystem, targets: Iterable[int]) -> TargetSet:
    ts = frozenset(int(i) for i in targets)
    if not ts:
        raise TargetIndexError("target set must not be empty")
    bad = [i for i in ts if not 1 <= i <= sys.m]
    if bad:
        raise TargetIndexError(f"noise-bit indices {sorted(bad)} outside 1..{sys.m}")
    return ts


def _times_signs(sys: ReferenceSystem, mask: int, *operands: Trace) -> Trace:
    """The operands times product state ``mask``, multiplied into the
    product state's own sign array. The caller checks lengths and headroom
    (signs are +-1, so the operands' product is the bound)."""
    out = product_signs(mask, sys.negative_masks)
    for x in operands:
        out *= x.samples
    return _adopt(out)


def not_operator(sys: ReferenceSystem, targets: Iterable[int]) -> Trace:
    """The NOT signal for a target set: product of the targeted highs.

    Multiplying any signal by it flips the targeted bits of every product
    state in that signal; applying it twice is the identity (each high
    squared is the constant 1).
    """
    ts = sorted(_as_targets(sys, targets))
    mask = sum(1 << (i - 1) for i in ts)
    return _adopt(
        product_signs(mask, sys.negative_masks), "not_" + "".join(str(i) for i in ts)
    )


def apply_not(sys: ReferenceSystem, targets: Iterable[int], signal: Trace) -> Trace:
    """Invert the targeted bits of every product state carried by ``signal``:
    ``signal`` times :func:`not_operator`."""
    mask = sum(1 << (i - 1) for i in _as_targets(sys, targets))
    if signal.t != sys.t:
        raise LengthMismatchError(f"trace lengths differ: {sys.t} != {signal.t}")
    check_headroom(max_abs(signal), "product")
    return _times_signs(sys, mask, signal)


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
    _require_same_length(a, b)
    check_headroom(max_abs(a) * max_abs(b), "product")
    if a.t != sys.t:
        raise LengthMismatchError(f"trace lengths differ: {a.t} != {sys.t}")
    return _times_signs(sys, (1 << sys.m) - 1, a, b)


def xor_targeted(sys: ReferenceSystem, signal: Trace, i: int, p: int) -> Trace:
    """XOR noise-bit ``i`` of every carried product state with bit value ``p``.

    For p = 1 this multiplies by the high RTW of bit i; for p = 0 the
    operand is the constant 1 and the input passes through untouched.
    Either way ``signal`` must span the system's T clocks.
    """
    _as_targets(sys, (i,))
    if p not in (0, 1):
        raise ValueError("bit value p must be 0 or 1")
    if signal.t != sys.t:
        raise LengthMismatchError(f"trace lengths differ: {signal.t} != {sys.t}")
    if p == 0:
        return signal
    check_headroom(max_abs(signal), "product")
    return _times_signs(sys, 1 << (i - 1), signal)


def xnor_targeted(sys: ReferenceSystem, signal: Trace, i: int, p: int) -> Trace:
    """XNOR noise-bit ``i`` of every carried product state with bit value ``p``.

    The defining product is signal * G_i(p) * high_i, with G_i(0) the
    constant 1 and G_i(1) = high_i. Since high_i squared is the constant 1,
    G_i(1) cancels the trailing high_i, so XNOR with p is XOR with 1 - p.
    """
    if p not in (0, 1):
        raise ValueError("bit value p must be 0 or 1")
    return xor_targeted(sys, signal, i, 1 - p)
