"""Decoders and statistics."""

import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noiselogic import (
    AmbiguousDecodeError,
    BitString,
    DecodeError,
    NoMatchError,
    ProductTerm,
    ScaleExceededError,
    SuperpositionDecodeError,
    SymbolicSuperposition,
    Trace,
    agreement_stats,
    apply_not,
    check_orthogonality,
    decode_product,
    decode_superposition,
    generate_reference_system,
    realize,
    superpose,
    synthesize,
    universe,
    universe_stats,
    xnor_pair,
    xnor_targeted,
    xor_pair,
    xor_targeted,
)
from noiselogic import analysis
from noiselogic.reference import product_signs


@pytest.fixture
def sys4():
    return generate_reference_system(4, 128, seed=23)


class TestDecodeProduct:
    def test_round_trip_exhaustive_m6(self):
        sys = generate_reference_system(6, 128, seed=5)
        for n in range(64):
            s = BitString(6, n)
            assert decode_product(sys, synthesize(sys, s)) == s

    def test_constant_one_reads_all_zeros(self, sys4):
        assert decode_product(sys4, sys4.low).text == "0000"

    def test_reads_gate_output(self, sys4):
        out = xor_pair(synthesize(sys4, "1100"), synthesize(sys4, "1010"))
        assert decode_product(sys4, out).text == "0110"

    def test_no_match_for_non_binary_trace(self, sys4):
        sup = superpose([synthesize(sys4, "1100"), synthesize(sys4, "1010")])
        with pytest.raises(NoMatchError):
            decode_product(sys4, sup)

    def test_no_match_for_corrupted_product_state(self, sys4):
        samples = synthesize(sys4, "1100").samples.copy()
        samples[17] = -samples[17]
        with pytest.raises(NoMatchError):
            decode_product(sys4, Trace(samples))

    def test_ambiguous_when_window_too_short(self):
        # one clock cannot separate the ~2^(M-1) candidates sharing its sign
        sys = generate_reference_system(3, 1, seed=2)
        with pytest.raises(AmbiguousDecodeError) as info:
            decode_product(sys, sys.low)
        assert len(info.value.candidates) >= 2
        assert BitString(3, 0) in info.value.candidates

    def test_candidate_space_holds_only_bit_strings_of_its_width(self):
        sys = generate_reference_system(3, 1, seed=2)
        with pytest.raises(AmbiguousDecodeError) as info:
            decode_product(sys, sys.low)
        candidates = info.value.candidates
        assert BitString(3, 0) in candidates
        assert "000" not in candidates and "0110" not in candidates
        wide = BitString(4, 0)
        assert wide not in candidates
        assert candidates.count(wide) == 0
        with pytest.raises(ValueError, match="is not in the candidate space"):
            candidates.index(wide)

    def test_scale_cap(self):
        # elimination is exact up to the engine's 62 noise-bits: M=21
        # decodes, and so does M=62 after every kind of gate
        sys = generate_reference_system(21, 64, seed=1)
        assert decode_product(sys, sys.low) == BitString(21, 0)
        rng = np.random.default_rng(62)
        sys = generate_reference_system(62, 256, seed=int(rng.integers(1 << 32)))
        a, b, c = (BitString(62, int(v)) for v in rng.integers(0, 1 << 62, size=3))
        x = apply_not(sys, {1, 17, 62}, synthesize(sys, a))
        x = xnor_pair(sys, xor_pair(x, synthesize(sys, b)), synthesize(sys, c))
        x = xnor_targeted(sys, xor_targeted(sys, x, 40, 1), 5, 0)
        want = (
            SymbolicSuperposition.of(a.to_term())
            .gate("not", ProductTerm.from_indices(62, {1, 17, 62}))
            .gate("xor", b.to_term())
            .gate("xnor", c.to_term())
            .gate("xor", ProductTerm.from_indices(62, {40}))
            .gate("xor", ProductTerm.from_indices(62, {5}))
        )
        ((mask, _),) = want.terms.items()
        assert decode_product(sys, x).text == ProductTerm(62, mask).text()
        # too short a window leaves a space of 2^(62-rank) candidates, read
        # by index and membership without listing them
        sys = generate_reference_system(62, 16, seed=3)
        x = synthesize(sys, a)
        with pytest.raises(AmbiguousDecodeError) as info:
            decode_product(sys, x)
        rank = _gf2_rank(sys.negative_masks.tolist())
        found = info.value.candidates
        assert len(found) == 1 << (62 - rank)
        assert a in found
        picked = [found[k] for k in (0, 1, len(found) // 3, -2, -1)]
        assert all(synthesize(sys, c) == x for c in picked)
        masks = [c.to_term().mask for c in picked]
        assert masks == sorted(set(masks))
        assert next(iter(found)) == picked[0]
        assert f"2^{62 - rank} product states" in str(info.value)
        assert f"rank {rank} of M=62" in str(info.value)

    def test_ambiguity_past_2_to_the_20_is_one_space(self):
        sys = generate_reference_system(62, 42, seed=3)
        ones = BitString(62, int("1" * 62, 2))
        x = synthesize(sys, ones)
        with pytest.raises(AmbiguousDecodeError) as info:
            decode_product(sys, x)
        found = info.value.candidates
        assert len(found) == 1 << 20
        for k in (0, len(found) // 2, len(found) - 1):
            assert synthesize(sys, found[k]) == x
        flipped = BitString(62, ones.value ^ 1 << 30)
        assert synthesize(sys, flipped) != x
        assert ones in found and flipped not in found
        with pytest.raises(IndexError):
            found[len(found)]
        with pytest.raises(TypeError):
            found[1.0]
        restored = pickle.loads(pickle.dumps(info.value))
        assert type(restored) is AmbiguousDecodeError and str(restored) == str(info.value)
        assert restored.candidates == found

    def test_index_and_count_of_2_to_the_46_candidates(self):
        # Sequence's own index and count enumerate: on 2^46 they never return
        sys = generate_reference_system(62, 16, seed=3)
        x = synthesize(sys, BitString(62, int("1" * 62, 2)))
        with pytest.raises(AmbiguousDecodeError) as info:
            decode_product(sys, x)
        found = info.value.candidates
        assert len(found) == 1 << 46
        for k in (0, 1, len(found) // 3, len(found) - 1):
            assert found.index(found[k]) == k
            assert found.index(found[k], k, k + 1) == k
        assert found.count(found[5]) == 1
        with pytest.raises(ValueError):
            found.index(found[1], 2)
        flipped = BitString(62, found[5].value ^ 1 << 30)
        assert synthesize(sys, flipped) != x
        assert found.count(flipped) == 0
        with pytest.raises(ValueError):
            found.index(flipped)
        # a pickle keeps the whole space, with the decoded string in it
        restored = pickle.loads(pickle.dumps(info.value)).candidates
        assert len(restored) == len(found) and restored == found
        assert BitString(62, (1 << 62) - 1) in restored

    @pytest.mark.parametrize("t", [1, 2, 3, 5, 8, 12, 16, 32, 128])
    @pytest.mark.parametrize("m", range(1, 13))
    def test_matches_brute_force_decoder(self, m, t):
        rng = np.random.default_rng([m, t])
        sys = generate_reference_system(m, t, seed=int(rng.integers(1 << 32)))
        inputs = []
        for _ in range(2):
            inputs.append(synthesize(sys, BitString(m, int(rng.integers(1 << m)))))
            inputs.append(Trace(2 * rng.integers(0, 2, size=t) - 1))
            samples = synthesize(sys, BitString(m, int(rng.integers(1 << m)))).samples.copy()
            samples[rng.integers(t)] *= -1
            inputs.append(Trace(samples))
        strings = [BitString(m, n) for n in range(1 << m)]
        for x in inputs:
            want = _outcome(_brute_force_decode, sys, x)
            assert _outcome(decode_product, sys, x) == want
            if isinstance(want, tuple):
                with pytest.raises(AmbiguousDecodeError) as info:
                    decode_product(sys, x)
                survivors = set(want[1])
                found = info.value.candidates
                assert [s in found for s in strings] == [s in survivors for s in strings]
                assert list(found) == [found[k] for k in range(len(found))]


def _brute_force_decode(sys, x):
    """The decoder before GF(2) elimination, kept as a reference: scan all
    2^M candidate masks, dropping each on its first mismatching clock."""
    if not x.is_binary():
        raise NoMatchError("not binary")
    candidates = np.arange(1 << sys.m, dtype=np.uint64)
    for t in range(sys.t):
        signs = product_signs(candidates, sys.negative_masks[t])
        candidates = candidates[signs == x.samples[t]]
        if candidates.size == 0:
            raise NoMatchError("no candidate survives")
    found = [BitString(sys.m, ProductTerm(sys.m, int(m)).value()) for m in candidates]
    if len(found) > 1:
        raise AmbiguousDecodeError("several candidates survive", candidates=found)
    return found[0]


def _gf2_rank(rows):
    """Rank over GF(2), pivoting on each row's highest set bit."""
    basis = {}
    for row in rows:
        while row and row.bit_length() in basis:
            row ^= basis[row.bit_length()]
        if row:
            basis[row.bit_length()] = row
    return len(basis)


class TestDecodeSuperposition:
    def test_worked_inversion_set(self, sys4):
        sup = superpose([synthesize(sys4, s) for s in ("1100", "1010", "1000")])
        out = apply_not(sys4, {1, 3}, sup)
        got = decode_superposition(sys4, out)
        expected = SymbolicSuperposition.from_terms(
            4,
            [
                (ProductTerm.from_text(s), 1)
                for s in ("0110", "0000", "0010")
            ],
        )
        assert got == expected

    def test_universe_m3_has_all_terms(self):
        sys = generate_reference_system(3, 4096, seed=9)
        got = decode_superposition(sys, universe(sys))
        assert got == SymbolicSuperposition(3, {m: 1 for m in range(8)})

    def test_zero_trace_is_empty(self, sys4):
        z = Trace(np.zeros(128, dtype=np.int64))
        assert not decode_superposition(sys4, z)

    def test_round_trip_random_combinations(self):
        rng = np.random.default_rng(2024)
        sys = generate_reference_system(8, 1000, seed=77)
        for _ in range(20):
            n_terms = int(rng.integers(1, 9))
            masks = rng.choice(256, size=n_terms, replace=False)
            coeffs = rng.integers(-3, 4, size=n_terms)
            sup = SymbolicSuperposition(
                8, {int(m): int(c) for m, c in zip(masks, coeffs)}
            )
            assert decode_superposition(sys, realize(sys, sup)) == sup

    def test_refuses_near_match(self, sys4):
        # an isolated unit bump correlates below rounding range everywhere
        samples = np.zeros(128, dtype=np.int64)
        samples[3] = 1
        with pytest.raises(SuperpositionDecodeError):
            decode_superposition(sys4, Trace(samples))

    def test_scale_cap(self):
        sys = generate_reference_system(13, 8, seed=1)
        with pytest.raises(ScaleExceededError):
            decode_superposition(sys, sys.low)

    @pytest.mark.parametrize(
        "m,t", [(1, 8), (3, 4096), (4, 16), (4, 128), (6, 64), (8, 256), (8, 1000), (10, 512)]
    )
    @pytest.mark.parametrize("c_max", [1, 8, 64])
    @pytest.mark.parametrize("on_lattice", [True, False], ids=["on-lattice", "off-lattice"])
    def test_matches_explicit_basis_decoder(self, m, t, c_max, on_lattice):
        rng = np.random.default_rng([m, t, c_max, on_lattice])
        sys = generate_reference_system(m, t, seed=int(rng.integers(1 << 32)))
        for _ in range(4):
            n_terms = int(rng.integers(1, min(8, 1 << m) + 1))
            masks = rng.choice(1 << m, size=n_terms, replace=False)
            coeffs = rng.choice([-1, 1], size=n_terms) * rng.integers(1, c_max + 1, size=n_terms)
            y = realize(sys, SymbolicSuperposition(m, dict(zip(masks.tolist(), coeffs.tolist()))))
            if not on_lattice:
                samples = y.samples.copy()
                samples[rng.choice(t, size=max(1, t // 100), replace=False)] += 1
                y = Trace(samples)
            assert _outcome(decode_superposition, sys, y) == _outcome(
                _explicit_basis_decode, sys, y
            )

    def test_correlation_headroom_refused_before_any_round(self, monkeypatch):
        # T * max|y| = 128 * 2^56 = 2^63: the correlations could wrap int64
        sys = generate_reference_system(4, 128, seed=23)
        y = Trace(np.full(128, 1 << 56, dtype=np.int64))

        def no_transform(v):
            raise AssertionError("transform reached past the headroom check")

        monkeypatch.setattr(analysis, "_walsh", no_transform)
        with pytest.raises(SuperpositionDecodeError, match=r"2\^63.*int64 headroom"):
            decode_superposition(sys, y)

    def test_reconstruction_headroom_refused(self):
        # one clock of 2^59 at T=8 correlates to +-2^56 on all 4096 states, so
        # the coefficients sum to 2^68 and the reconstruction could wrap int64
        sys = generate_reference_system(12, 8, seed=1)
        samples = np.zeros(8, dtype=np.int64)
        samples[0] = 1 << 59
        with pytest.raises(SuperpositionDecodeError, match="reconstruction's int64 headroom"):
            decode_superposition(sys, Trace(samples))


def _explicit_basis_decode(sys, y, max_rounds=32):
    """The decoder before the Walsh–Hadamard transform, kept as a reference:
    the same greedy rounds, correlating and reconstructing against the whole
    2^M x T basis of product states."""
    masks = np.arange(1 << sys.m, dtype=np.uint64)[:, None]
    basis = product_signs(masks, sys.negative_masks)
    coeffs = np.zeros(1 << sys.m, dtype=np.int64)
    residual = y.samples.copy()
    for _ in range(max_rounds):
        if not residual.any():
            break
        step = np.rint((basis @ residual).astype(np.float64) / sys.t).astype(np.int64)
        if not step.any():
            raise SuperpositionDecodeError("no further integer component")
        coeffs += step
        residual = y.samples - coeffs @ basis
    if residual.any():
        raise SuperpositionDecodeError("verification residual still nonzero")
    return SymbolicSuperposition(sys.m, dict(enumerate(coeffs.tolist())))


def _outcome(decoder, sys, y):
    """A decoder's result, or the class of its refusal (with any listed
    candidates, in order)."""
    try:
        return decoder(sys, y)
    except AmbiguousDecodeError as exc:
        return type(exc), tuple(exc.candidates)
    except DecodeError as exc:
        return type(exc)


class TestAgreement:
    def test_identical_traces(self, sys4):
        a = synthesize(sys4, "1100")
        report = agreement_stats(a, a)
        assert report.rate == 1.0
        assert report.full_agreement

    def test_distinct_states_near_half(self):
        t = 10**5
        sys = generate_reference_system(4, t, seed=42)
        report = agreement_stats(synthesize(sys, "1100"), synthesize(sys, "1010"))
        assert abs(report.rate - 0.5) <= 4 * np.sqrt(0.25 / t)
        assert not report.full_agreement

    def test_error_window_figure(self):
        sys = generate_reference_system(1, 83, seed=3)
        report = agreement_stats(sys.high(1), sys.high(1))
        assert report.t == 83
        assert report.theoretical_full_agreement == pytest.approx(1.03e-25, rel=0.01)

    def test_json_shape(self, sys4):
        d = agreement_stats(sys4.low, sys4.low).as_dict()
        assert set(d) == {"rate", "T", "full_agreement", "theoretical_full_agreement"}
        json.dumps(d)


class TestUniverseStats:
    def test_m4_census(self):
        sys = generate_reference_system(4, 10**5, seed=11)
        stats = universe_stats(sys, universe(sys))
        assert set(stats.amplitudes) <= {0, 16}
        assert stats.expected_fraction == 0.0625
        assert abs(stats.nonzero_fraction - 0.0625) <= 3 * np.sqrt(
            0.0625 * 0.9375 / 10**5
        )

    def test_m1_census(self):
        sys = generate_reference_system(1, 10**4, seed=11)
        stats = universe_stats(sys, universe(sys))
        assert set(stats.amplitudes) <= {0, 2}
        assert stats.nonzero_fraction == pytest.approx(0.5, abs=0.02)

    def test_m6_census(self):
        sys = generate_reference_system(6, 10**5, seed=11)
        stats = universe_stats(sys, universe(sys))
        p = 2**-6
        assert set(stats.amplitudes) <= {0, 64}
        assert abs(stats.nonzero_fraction - p) <= 3 * np.sqrt(p * (1 - p) / 10**5)

    def test_json_shape(self, sys4):
        d = universe_stats(sys4, universe(sys4)).as_dict()
        assert set(d) == {
            "m",
            "T",
            "amplitudes",
            "nonzero_fraction",
            "expected_fraction",
            "standard_error",
        }
        json.dumps(d)

    @settings(max_examples=80, deadline=None)
    @given(
        samples=st.lists(
            st.one_of(
                st.sampled_from([-(1 << 63), (1 << 63) - 1, -1, 0, 1, 1 << 62]),
                st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_amplitudes_match_unique(self, samples):
        # any trace of the system's length is censused, not only the universe
        u = Trace(np.array(samples, dtype=np.int64))
        stats = universe_stats(generate_reference_system(1, u.t, seed=0), u)
        assert stats.amplitudes == tuple(np.unique(u.samples).tolist())
        assert all(type(a) is int for a in stats.amplitudes)


# repr() of each report's as_dict() for M=3 (orthogonality: M=2), T=64: key
# order, values and their types (a list, never a tuple), as the CLI writes them
REPORT_DICTS = {
    (0, "agreement"): "{'rate': 0.53125, 'T': 64, 'full_agreement': False, "
    "'theoretical_full_agreement': 5.421010862427522e-20}",
    (0, "universe"): "{'m': 3, 'T': 64, 'amplitudes': [0, 8], 'nonzero_fraction': 0.140625, "
    "'expected_fraction': 0.125, 'standard_error': 0.04345428801032615}",
    (0, "orthogonality"): "{'T': 64, 'z': 4.0, 'bound': 0.5, 'pairs': ["
    "{'i': 1, 'k': 2, 'correlation': 0.0625, 'status': 'pass'}]}",
    (3, "agreement"): "{'rate': 0.453125, 'T': 64, 'full_agreement': False, "
    "'theoretical_full_agreement': 5.421010862427522e-20}",
    (3, "universe"): "{'m': 3, 'T': 64, 'amplitudes': [0, 8], 'nonzero_fraction': 0.0625, "
    "'expected_fraction': 0.125, 'standard_error': 0.030257682392245445}",
    (3, "orthogonality"): "{'T': 64, 'z': 4.0, 'bound': 0.5, 'pairs': ["
    "{'i': 1, 'k': 2, 'correlation': -0.09375, 'status': 'pass'}]}",
}


@pytest.mark.parametrize("seed,kind", list(REPORT_DICTS), ids=[f"{k}-{s}" for s, k in REPORT_DICTS])
def test_report_dicts_are_pinned(seed, kind):
    sys = generate_reference_system(3, 64, seed)
    report = {
        "agreement": lambda: agreement_stats(sys.high(1), sys.high(2)),
        "universe": lambda: universe_stats(sys, universe(sys)),
        "orthogonality": lambda: check_orthogonality(generate_reference_system(2, 64, seed)),
    }[kind]()
    assert repr(report.as_dict()) == REPORT_DICTS[seed, kind]
