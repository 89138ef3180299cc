"""Trace readout and statistics.

The signal engine identifies states by construction; these decoders read
them back. Product-state decoding solves one GF(2) equation per clock by
incremental elimination: it is exact for every M up to 62, and a random
window reaches full rank after about M+2 clocks of at most M word XORs
each, followed by one vectorised O(T) check. A window too short for full
rank leaves an affine GF(2) family of strings, which is raised as that
space (one solution plus a kernel basis), never listed. Superposition decoding
correlates against all 2^M product states through one Walsh–Hadamard
transform and then verifies exactly, refusing near-matches.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    AmbiguousDecodeError,
    NoMatchError,
    ScaleExceededError,
    SuperpositionDecodeError,
)
from .hyperspace import BitString
from .oracle import ProductTerm, SymbolicSuperposition
from .reference import (
    INT64_HEADROOM, ReferenceSystem, Trace, _report_dict, _require_length, max_abs, product_signs,
)

#: Superposition decoding cap (2^M coefficients per round).
MAX_DECODE_SUPERPOSITION_BITS = 12
#: Correlate-round-verify rounds before superposition decoding gives up.
_DECODE_ROUNDS = 32


def decode_product(sys: ReferenceSystem, x: Trace) -> BitString:
    """Identify the unique bit string whose hyperspace vector equals ``x``.

    Clock t says ``parity(mask & negative_masks[t]) == (x[t] < 0)``, one
    linear equation over GF(2) in the M mask bits. The rows are reduced
    one clock at a time into an XOR basis keyed by each row's lowest set
    bit (its first noise-bit). A row that reduces to 0 with right-hand
    side 1 contradicts the earlier clocks: :class:`NoMatchError`. Once the
    rank reaches M the unique mask is back-substituted and checked on
    every clock at once, so a mismatch anywhere is also
    :class:`NoMatchError`. If the window ends with rank < M, exactly the
    2^(M-rank) masks of an affine space match every clock and
    :class:`AmbiguousDecodeError` is raised with that space as its
    ``candidates``: one particular solution and M-rank kernel vectors, a
    sequence of bit strings in ascending mask order whose length,
    indexing and membership test each take O(M), for every rank.
    Every answer is exact, for every M up to the engine's 62 noise-bits.
    """
    _require_length(sys.t, x)
    if not x.is_binary():
        raise NoMatchError("trace has samples outside {+1,-1}; not a product state")

    basis: dict[int, tuple[int, int]] = {}
    for row, rhs in zip(map(int, sys.negative_masks), map(int, x.samples < 0)):
        while row:
            low = row & -row
            pivot = basis.get(low)
            if pivot is None:
                basis[low] = (row, rhs)
                break
            row ^= pivot[0]
            rhs ^= pivot[1]
        else:
            if rhs:
                raise NoMatchError("trace is not a product state of this system")
        if len(basis) == sys.m:
            mask = _back_substitute(basis, 0)
            if not np.array_equal(product_signs(mask, sys.negative_masks), x.samples):
                raise NoMatchError("trace is not a product state of this system")
            return BitString(sys.m, ProductTerm(sys.m, mask).value())

    rank = len(basis)
    free = sys.m - rank
    message = (
        f"{1 << free} = 2^{free} product states match over T={sys.t} clocks "
        f"(GF(2) rank {rank} of M={sys.m}; window too short to separate candidates)"
    )
    # kernel: per free bit, the solution with that bit set XOR the particular
    # one (back-substitution is affine in the free bits); bit reversal
    # commutes with XOR, so the MSB-first values combine as the masks do
    mask = _back_substitute(basis, 0)
    kernel = tuple(
        ProductTerm(sys.m, _back_substitute(basis, 1 << bit) ^ mask).value()
        for bit in range(sys.m)
        if 1 << bit not in basis
    )
    particular = ProductTerm(sys.m, mask).value()
    raise AmbiguousDecodeError(message, candidates=_CandidateSpace(sys.m, particular, kernel))


@dataclass(frozen=True)
class _CandidateSpace(Sequence):
    """The bit strings ``particular`` XOR a subset of ``kernel`` (MSB-first
    ``width``-bit values); item k XORs in the kernel values k's bits pick.
    Each pivot depends only on higher mask bits, so the highest mask bit in
    which two solutions differ is free, and k counts the masks in ascending
    order. A kernel value's lowest set bit is its own free bit, which no
    other kernel value sets, so ``in``, ``index`` and ``count`` clear them
    one by one in O(width).
    """

    width: int
    particular: int
    kernel: tuple[int, ...]

    def __len__(self) -> int:
        return 1 << len(self.kernel)

    def __getitem__(self, k: int) -> BitString:
        k = operator.index(k)
        if k < 0:
            k += len(self)
        if not 0 <= k < len(self):
            raise IndexError(f"candidate index out of range 0..{len(self) - 1}")
        value = self.particular
        for j, step in enumerate(self.kernel):
            if k >> j & 1:
                value ^= step
        return BitString(self.width, value)

    def _position(self, candidate) -> int | None:
        """The k of ``candidate`` (bit j: kernel value j cleared), or None."""
        if not isinstance(candidate, BitString) or candidate.width != self.width:
            return None
        rest, k = candidate.value ^ self.particular, 0
        for j, step in enumerate(self.kernel):
            if rest & step & -step:
                rest ^= step
                k |= 1 << j
        return k if rest == 0 else None

    def __contains__(self, candidate) -> bool:
        return self._position(candidate) is not None

    def index(self, candidate, start: int = 0, stop: int | None = None) -> int:
        k = self._position(candidate)
        if k is None or k not in range(len(self))[start:stop]:
            raise ValueError(f"{candidate!r} is not in the candidate space")
        return k

    def count(self, candidate) -> int:
        return int(self._position(candidate) is not None)


def _back_substitute(basis: dict[int, tuple[int, int]], mask: int) -> int:
    """Complete ``mask`` (free bits already set) to a solution of ``basis``.

    Each row holds its pivot as its lowest bit, so pivots are solved from
    the highest down, every other bit of the row being known by then.
    """
    for low in sorted(basis, reverse=True):
        row, rhs = basis[low]
        if (row & mask).bit_count() & 1 != rhs:
            mask |= low
    return mask


def _walsh(v: np.ndarray) -> np.ndarray:
    """Unnormalised Walsh–Hadamard transform ``out[n] = sum_w v[w]*(-1)^parity(n & w)``
    of a length-2^k vector, one butterfly per bit level (Fino & Algazi, 1976);
    every intermediate is bounded by ``sum |v|``."""
    half = 1
    while half < v.size:
        pairs = v.reshape(-1, 2, half)
        v = np.stack((pairs[:, 0] + pairs[:, 1], pairs[:, 0] - pairs[:, 1]), axis=1).ravel()
        half *= 2
    return v


def decode_superposition(sys: ReferenceSystem, y: Trace) -> SymbolicSuperposition:
    """Solve ``y`` as an integer combination of all 2^M basis vectors.

    Greedy exact matching: correlate the residual against every basis
    trace, round the correlations to integers, fold them into the
    coefficient estimate, and repeat until the reconstruction matches
    ``y`` at every clock. Correlation alone is statistical; the exact
    sample-wise verification restores determinism, and
    :class:`SuperpositionDecodeError` is raised instead of accepting a
    near-match (trace outside the integer lattice, or T too short for the
    rounding to settle).

    Basis state n is ``1 - 2*parity(n & negative_masks[t])``, so the
    correlations are the Walsh–Hadamard transform of the residual summed
    per sign word, and the reconstruction is the transform of the
    coefficients read at each clock's word: O(T + M*2^M) per round. A
    round that could leave int64 is refused, never verified wrapped.
    """
    if sys.m > MAX_DECODE_SUPERPOSITION_BITS:
        raise ScaleExceededError(f"M={sys.m} exceeds decode cap {MAX_DECODE_SUPERPOSITION_BITS}")
    _require_length(sys.t, y)

    words = sys.negative_masks.astype(np.intp)
    coeffs = np.zeros(1 << sys.m, dtype=np.int64)
    residual = y.samples
    for _ in range(_DECODE_ROUNDS):
        if not residual.any():
            break
        bound = sys.t * max(int(residual.max()), -int(residual.min()))
        if bound >= INT64_HEADROOM:
            raise SuperpositionDecodeError(
                f"T*max|residual| = {bound} >= 2^63 leaves the correlations' int64 headroom"
            )
        binned = np.zeros_like(coeffs)
        np.add.at(binned, words, residual)
        step = np.rint(_walsh(binned) / sys.t).astype(np.int64)
        if not step.any():
            raise SuperpositionDecodeError(
                "residual does not correlate to any further integer component; "
                "trace is not an integer combination of basis vectors (or T is "
                "too short for the correlations to round unambiguously)"
            )
        coeffs += step
        bound = max_abs(y) + sum(map(abs, coeffs.tolist()))
        if bound >= INT64_HEADROOM:
            raise SuperpositionDecodeError(
                f"max|y| + sum|coefficients| = {bound} >= 2^63 leaves the "
                "reconstruction's int64 headroom"
            )
        residual = y.samples - _walsh(coeffs)[words]
    if residual.any():
        raise SuperpositionDecodeError(
            f"verification residual still nonzero after {_DECODE_ROUNDS} rounds"
        )
    return SymbolicSuperposition(sys.m, dict(enumerate(coeffs.tolist())))


@dataclass(frozen=True)
class AgreementReport:
    """Per-clock agreement between two traces over a T-clock window."""

    rate: float
    t: int
    full_agreement: bool
    theoretical_full_agreement: float

    as_dict = _report_dict


def agreement_stats(a: Trace, b: Trace) -> AgreementReport:
    """Fraction of clocks where two traces agree, plus the chance that two
    independent distinct product states would agree on the whole window.

    Distinct product states match per clock with probability 0.5, so full
    agreement over T clocks has probability 0.5^T (reported as an exact
    float; it underflows to 0.0 for very large T).
    """
    _require_length(a.t, b)
    matches = int(np.count_nonzero(a.samples == b.samples))
    return AgreementReport(
        rate=matches / a.t,
        full_agreement=matches == a.t,
        t=a.t,
        theoretical_full_agreement=0.5 ** a.t,
    )


@dataclass(frozen=True)
class UniverseStats:
    """Amplitude census of the factored universe signal."""

    m: int
    t: int
    amplitudes: tuple[int, ...]
    nonzero_fraction: float
    expected_fraction: float
    standard_error: float

    as_dict = _report_dict


def universe_stats(sys: ReferenceSystem, u: Trace) -> UniverseStats:
    """Census the samples of ``u``, the universe of ``sys``.

    Each factor (1 + high_i) is 0 or 2, so amplitudes can only be 0 or
    2^M, and the nonzero fraction estimates 2^-M with the binomial
    standard error attached.
    """
    _require_length(sys.t, u)
    # np.unique hashes int64 arrays; sorted, the distinct values are the
    # first of each run of equal neighbours
    ordered = np.sort(u.samples)
    first = np.empty(ordered.size, dtype=bool)
    first[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    amplitudes = tuple(ordered[first].tolist())
    p_hat = float(np.count_nonzero(u.samples) / u.t)
    return UniverseStats(
        m=sys.m,
        t=u.t,
        amplitudes=amplitudes,
        nonzero_fraction=p_hat,
        expected_fraction=0.5 ** sys.m,
        standard_error=float(np.sqrt(p_hat * (1.0 - p_hat) / u.t)),
    )
