"""Trace readout and statistics.

The signal engine identifies states by construction; these decoders read
them back. Product-state decoding is an exhaustive scan over all 2^M
candidates with early exit, so a wrong candidate survives k clocks with
probability 2^-k and the expected cost is O(2^M + T). Superposition
decoding correlates against the full synthesized basis and then verifies
the reconstruction exactly, refusing near-matches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import (
    AmbiguousDecodeError,
    LengthMismatchError,
    NoMatchError,
    ScaleExceededError,
    SuperpositionDecodeError,
)
from .hyperspace import BitString, universe
from .oracle import ProductTerm, SymbolicSuperposition
from .reference import ReferenceSystem, Trace, product_signs

#: Brute-force candidate scan cap for product decoding.
MAX_DECODE_PRODUCT_BITS = 20
#: Basis-correlation cap for superposition decoding (2^M basis traces).
MAX_DECODE_SUPERPOSITION_BITS = 12


def decode_product(sys: ReferenceSystem, x: Trace) -> BitString:
    """Identify the unique bit string whose hyperspace vector equals ``x``.

    Scans all 2^M candidates, dropping each on its first mismatching
    clock. Raises :class:`NoMatchError` when nothing matches every clock
    (``x`` is not a pure product state of this system) and
    :class:`AmbiguousDecodeError` when several candidates survive the
    whole window, which can happen only for short T.
    """
    if sys.m > MAX_DECODE_PRODUCT_BITS:
        raise ScaleExceededError(
            f"product decoding scans 2^M candidates; capped at M={MAX_DECODE_PRODUCT_BITS}"
        )
    if x.t != sys.t:
        raise LengthMismatchError(f"trace length {x.t} != system length {sys.t}")
    if not x.is_binary():
        raise NoMatchError("trace has samples outside {+1,-1}; not a product state")

    xs = x.samples
    negatives = sys.negative_masks
    candidates = np.arange(1 << sys.m, dtype=np.uint64)
    for t in range(sys.t):
        if candidates.size == 1:
            # single survivor: verify it against all remaining clocks at once
            mask = candidates[0]
            signs = product_signs(mask, negatives[t:])
            if not np.array_equal(signs, xs[t:]):
                raise NoMatchError("trace is not a product state of this system")
            break
        signs = product_signs(candidates, negatives[t])
        candidates = candidates[signs == xs[t]]
        if candidates.size == 0:
            raise NoMatchError("trace is not a product state of this system")
    if candidates.size > 1:
        found = [
            BitString(sys.m, ProductTerm(sys.m, int(m)).value()) for m in candidates
        ]
        raise AmbiguousDecodeError(
            f"{candidates.size} product states match over T={sys.t} clocks "
            "(window too short to separate candidates)",
            candidates=found,
        )
    return BitString(sys.m, ProductTerm(sys.m, int(candidates[0])).value())


def _basis_chunks(sys: ReferenceSystem, chunk: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (clock offset, basis block) pairs; block row n is the product
    state with mask word n restricted to the clock window."""
    for t0 in range(0, sys.t, chunk):
        t1 = min(t0 + chunk, sys.t)
        negatives = sys.negative_masks[t0:t1]
        block = np.ones((1, t1 - t0), dtype=np.int64)
        for i in range(sys.m):
            block = np.vstack([block, block * product_signs(1 << i, negatives)])
        yield t0, block


def decode_superposition(
    sys: ReferenceSystem, y: Trace, *, max_rounds: int = 32
) -> SymbolicSuperposition:
    """Solve ``y`` as an integer combination of all 2^M basis vectors.

    Greedy exact matching: correlate the residual against every basis
    trace, round the correlations to integers, fold them into the
    coefficient estimate, and repeat until the reconstruction matches
    ``y`` at every clock. Correlation alone is statistical; the exact
    sample-wise verification restores determinism, and
    :class:`SuperpositionDecodeError` is raised instead of accepting a
    near-match (trace outside the integer lattice, or T too short for the
    rounding to settle).
    """
    if sys.m > MAX_DECODE_SUPERPOSITION_BITS:
        raise ScaleExceededError(
            f"superposition decoding uses 2^M basis traces; capped at "
            f"M={MAX_DECODE_SUPERPOSITION_BITS}"
        )
    if y.t != sys.t:
        raise LengthMismatchError(f"trace length {y.t} != system length {sys.t}")

    n_basis = 1 << sys.m
    # keep basis blocks around 8M entries so large-T systems stay bounded
    chunk = max(1, 8_000_000 // n_basis)
    target = y.samples.astype(np.int64)
    coeffs = np.zeros(n_basis, dtype=np.int64)
    residual = target.copy()
    for _ in range(max_rounds):
        if not residual.any():
            break
        corr = np.zeros(n_basis, dtype=np.float64)
        for t0, block in _basis_chunks(sys, chunk):
            corr += block @ residual[t0 : t0 + block.shape[1]]
        step = np.rint(corr / sys.t).astype(np.int64)
        if not step.any():
            raise SuperpositionDecodeError(
                "residual does not correlate to any further integer component; "
                "trace is not an integer combination of basis vectors (or T is "
                "too short for the correlations to round unambiguously)"
            )
        coeffs += step
        residual = target.copy()
        for t0, block in _basis_chunks(sys, chunk):
            residual[t0 : t0 + block.shape[1]] -= coeffs @ block
    if residual.any():
        raise SuperpositionDecodeError(
            f"verification residual still nonzero after {max_rounds} rounds"
        )
    return SymbolicSuperposition(
        sys.m, {mask: int(c) for mask, c in enumerate(coeffs) if c}
    )


@dataclass(frozen=True)
class AgreementReport:
    """Per-clock agreement between two traces over a T-clock window."""

    rate: float
    full_agreement: bool
    t: int
    theoretical_full_agreement: float

    def as_dict(self) -> dict:
        return {
            "rate": self.rate,
            "T": self.t,
            "full_agreement": self.full_agreement,
            "theoretical_full_agreement": self.theoretical_full_agreement,
        }


def agreement_stats(a: Trace, b: Trace) -> AgreementReport:
    """Fraction of clocks where two traces agree, plus the chance that two
    independent distinct product states would agree on the whole window.

    Distinct product states match per clock with probability 0.5, so full
    agreement over T clocks has probability 0.5^T (reported as an exact
    float; it underflows to 0.0 for very large T).
    """
    if a.t != b.t:
        raise LengthMismatchError(f"trace lengths differ: {a.t} != {b.t}")
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

    def as_dict(self) -> dict:
        return {
            "m": self.m,
            "T": self.t,
            "amplitudes": list(self.amplitudes),
            "nonzero_fraction": self.nonzero_fraction,
            "expected_fraction": self.expected_fraction,
            "standard_error": self.standard_error,
        }


def universe_stats(sys: ReferenceSystem, u: Trace | None = None) -> UniverseStats:
    """Census the universe's samples.

    Each factor (1 + high_i) is 0 or 2, so amplitudes can only be 0 or
    2^M, and the nonzero fraction estimates 2^-M with the binomial
    standard error attached.
    """
    if u is None:
        u = universe(sys)
    if u.t != sys.t:
        raise LengthMismatchError(f"trace length {u.t} != system length {sys.t}")
    amplitudes = tuple(int(v) for v in np.unique(u.samples))
    p_hat = float(np.count_nonzero(u.samples) / u.t)
    return UniverseStats(
        m=sys.m,
        t=u.t,
        amplitudes=amplitudes,
        nonzero_fraction=p_hat,
        expected_fraction=0.5 ** sys.m,
        standard_error=float(np.sqrt(p_hat * (1.0 - p_hat) / u.t)),
    )
