"""Signal-level NOT, XOR and XNOR gates.

Every gate is a sample-wise multiplication, so outputs are valid at each
clock cycle without time averaging, and each gate distributes over
superpositions: applying it to a sum applies it to every component at
once. Each gate is one product of ``reference._combine``, the kernel that
computes every trace and checks its operands' lengths and headroom: a
product state (a bit-mask) times the operands, or for ``xor_pair`` the
operands alone. Gates operate on traces only; their string-level truth
tables are theorems checked by the test suite, not an implementation path.
"""

from __future__ import annotations

import operator
from typing import Iterable

from .errors import TargetIndexError, WidthMismatchError
from .oracle import _index_mask
from .reference import ReferenceSystem, Trace, _combine, _require_length


def _target_mask(m: int, targets: Iterable[int]) -> int:
    """Product-state mask of a nonempty set of noise-bit indices in 1..m."""
    mask = _index_mask(m, targets)
    if not mask:
        raise TargetIndexError("target set must not be empty")
    return mask


def apply_not(sys: ReferenceSystem, targets: Iterable[int], signal: Trace) -> Trace:
    """Invert the targeted bits of every product state carried by ``signal``:
    ``signal`` times the product of the targeted high references. Applying
    it twice is the identity (each high squared is the constant 1)."""
    return _combine(sys.t, [(1, _target_mask(sys.m, targets), (signal,))], sys)


def xor_pair(a: Trace, b: Trace) -> Trace:
    """Pairwise XOR of two M-bit signals: their sample-wise product.

    For pure hyperspace vectors the output is the vector of the bitwise
    XOR of the two strings; a superposition input distributes component
    by component. Multiplication by the all-zeros string (constant 1) is
    a no-op, which is why no reference system is needed here. On single
    noise-bit signals (each the constant 1 or high_i) it is the bit-level
    XOR, and ``xnor_targeted(sys, xor_pair(a, b), i, 0)`` the bit-level XNOR.
    """
    return _combine(a.t, [(1, None, (a, b))])


def xnor_pair(sys: ReferenceSystem, a: Trace, b: Trace) -> Trace:
    """Pairwise XNOR: a * b * ones, with ones the all-high product string."""
    return _combine(sys.t, [(1, (1 << sys.m) - 1, (a, b))], sys)


def xor_targeted(sys: ReferenceSystem, signal: Trace, i: int, p: int) -> Trace:
    """XOR noise-bit ``i`` of every carried product state with bit value ``p``.

    For p = 1 this multiplies by the high RTW of bit i; for p = 0 the
    operand is the constant 1 and the input passes through untouched.
    Either way ``signal`` must span the system's T clocks.
    """
    return _xor_bit(sys, signal, i, p, 0)


def xnor_targeted(sys: ReferenceSystem, signal: Trace, i: int, p: int) -> Trace:
    """XNOR noise-bit ``i`` of every carried product state with bit value ``p``.

    The defining product is signal * G_i(p) * high_i, with G_i(0) the
    constant 1 and G_i(1) = high_i. Since high_i squared is the constant 1,
    G_i(1) cancels the trailing high_i, so XNOR with p is XOR with 1 - p.
    """
    return _xor_bit(sys, signal, i, p, 1)


def _xor_bit(sys: ReferenceSystem, signal: Trace, i: int, p: int, flip: int) -> Trace:
    """XOR noise-bit ``i`` with ``p ^ flip``; checks ``i``, then ``p`` (an int, 0 or 1)."""
    mask = _target_mask(sys.m, (i,))
    bit = operator.index(p) if hasattr(p, "__index__") else None
    if bit not in (0, 1):
        raise WidthMismatchError("bit value p must be 0 or 1")
    if bit ^ flip:
        return _combine(sys.t, [(1, mask, (signal,))], sys)
    _require_length(sys.t, signal)  # returned without a copy, so checked here
    return signal
