"""Hyperspace synthesis, superposition, the factored universe, realize."""

import numpy as np
import pytest

from noiselogic import (
    AmplitudeOverflowError,
    BitString,
    DimensionError,
    LengthMismatchError,
    ProductTerm,
    SymbolicSuperposition,
    Trace,
    WidthMismatchError,
    generate_reference_system,
    low_reference,
    multiply_traces,
    product_trace,
    realize,
    superpose,
    synthesize,
    universe,
)
from noiselogic.cli import _parse_literal


@pytest.fixture
def sys4():
    return generate_reference_system(4, 100, seed=31)


class TestBitString:
    # BitString holds no algebra of its own: its bits, high indices, XOR and
    # complement are ProductTerm's, through to_term()
    def test_text_round_trip(self):
        s = BitString.from_text("1100")
        assert s.text == "1100"
        assert s.value == 12
        assert s.to_term().text() == "1100"
        assert s.to_term().indices == frozenset({1, 2})

    # the CLI's bit-string literal grammar, which parses to a ProductTerm
    def test_parse_forms(self):
        assert _parse_literal("1100") == BitString(4, 12).to_term()
        assert _parse_literal("0b1100", width=6) == BitString(6, 12).to_term()
        assert _parse_literal("12", width=4) == BitString(4, 12).to_term()

    def test_parse_needs_width_for_numbers(self):
        with pytest.raises(WidthMismatchError):
            _parse_literal("12")
        with pytest.raises(WidthMismatchError):
            _parse_literal("0b101")

    def test_parse_rejects_conflicting_width(self):
        with pytest.raises(WidthMismatchError):
            _parse_literal("1100", width=5)

    @pytest.mark.parametrize("text", ["0b12", "0b", "0B", "0bx1", "²", "1²", "٣", "0b1_0"])
    def test_parse_rejects_malformed_literals(self, text):
        # the grammar is ASCII only: int() would accept "٣" (an Arabic-Indic 3) and "0b1_0"
        with pytest.raises(WidthMismatchError, match="cannot parse bit string"):
            _parse_literal(text, width=4)

    def test_value_range(self):
        with pytest.raises(WidthMismatchError):
            BitString(3, 8)

    def test_xor_and_complement(self):
        a, b = BitString.from_text("1100").to_term(), BitString.from_text("1010").to_term()
        assert (a * b).text() == "0110"
        assert (a * b * ProductTerm.ones(4)).text() == "1001"

    def test_term_round_trip(self):
        s = BitString.from_text("10110")
        assert s.to_term().indices == frozenset({1, 3, 4})
        assert s.to_term().text() == s.text


class TestSynthesize:
    def test_matches_paired_product(self, sys4):
        # 1100 selects the high references of bits 1 and 2
        assert synthesize(sys4, "1100") == multiply_traces(sys4.high(1), sys4.high(2))

    def test_all_zeros_is_vacuum(self, sys4):
        assert synthesize(sys4, "0000") == low_reference(100)

    def test_full_string_matches_four_way_loop(self, sys4):
        got = synthesize(sys4, "1111")
        expected = [
            int(sys4.high(1).samples[k])
            * int(sys4.high(2).samples[k])
            * int(sys4.high(3).samples[k])
            * int(sys4.high(4).samples[k])
            for k in range(100)
        ]
        assert list(got.samples) == expected

    def test_output_is_binary(self, sys4):
        for n in range(16):
            assert synthesize(sys4, BitString(4, n)).is_binary()

    def test_width_mismatch(self, sys4):
        with pytest.raises(WidthMismatchError):
            synthesize(sys4, "110")


class TestSuperpose:
    def test_single_element(self, sys4):
        a = synthesize(sys4, "1100")
        assert superpose([a]) == a

    def test_three_state_amplitude_set(self, sys4):
        # A, B, C share the bit-1 factor, so A+B+C = high_1 * (sum of three
        # +/-1 signals with one constant): samples in {-3,-1,1,3}
        y = superpose([synthesize(sys4, s) for s in ("1100", "1010", "1000")])
        amplitudes = set(int(v) for v in np.unique(y.samples))
        assert amplitudes <= {-3, -1, 1, 3}
        # independent enumeration oracle, sample by sample
        h = [sys4.high(i).samples for i in range(1, 5)]
        expected = [
            int(h[0][k] * h[1][k] + h[0][k] * h[2][k] + h[0][k]) for k in range(100)
        ]
        assert list(y.samples) == expected

    def test_duplicate_doubles(self, sys4):
        a = synthesize(sys4, "1100")
        doubled = superpose([a, a])
        assert set(int(v) for v in np.unique(doubled.samples)) <= {-2, 2}

    def test_empty_needs_length(self):
        with pytest.raises(DimensionError):
            superpose([])
        with pytest.raises(DimensionError):
            superpose([], t=0)
        z = superpose([], t=7)
        assert list(z.samples) == [0] * 7

    def test_length_mismatch(self, sys4):
        with pytest.raises(LengthMismatchError):
            superpose([sys4.low, low_reference(5)])

    def test_refuses_int64_overflow(self, sys4):
        big = Trace(np.full(100, 1 << 62, dtype=np.int64))
        with pytest.raises(AmplitudeOverflowError):
            superpose([big, big])
        top = superpose([big, Trace(np.full(100, (1 << 62) - 1, dtype=np.int64))])
        assert set(top.samples) == {(1 << 63) - 1}


class TestUniverse:
    def test_m4_support_and_fraction(self):
        sys = generate_reference_system(4, 10**5, seed=6)
        u = universe(sys)
        assert set(int(v) for v in np.unique(u.samples)) <= {0, 16}
        frac = float((u.samples != 0).mean())
        p = 1 / 16
        assert abs(frac - p) <= 3 * np.sqrt(p * (1 - p) / 10**5)

    def test_m1_form(self):
        sys = generate_reference_system(1, 50, seed=6)
        u = universe(sys)
        assert u == sys.low + sys.high(1)
        assert set(int(v) for v in np.unique(u.samples)) <= {0, 2}

    def test_factored_equals_expanded_sum_m3(self):
        # brute-force oracle: the explicit 8-term superposition
        sys = generate_reference_system(3, 64, seed=13)
        total = superpose([synthesize(sys, BitString(3, n)) for n in range(8)])
        assert universe(sys) == total


class TestRealize:
    def test_empty_is_zero_signal(self, sys4):
        z = realize(sys4, SymbolicSuperposition.zero(4))
        assert not z.samples.any()

    def test_vacuum_term_is_constant_one(self, sys4):
        vac = SymbolicSuperposition.of(ProductTerm.zeros(4))
        assert realize(sys4, vac) == low_reference(100)

    def test_worked_two_term_output(self, sys4):
        # {2,3} + {2} realizes as high_2*high_3 + high_2
        sup = SymbolicSuperposition.of(
            ProductTerm.from_indices(4, [2, 3]), ProductTerm.from_indices(4, [2])
        )
        expected = (
            multiply_traces(sys4.high(2), sys4.high(3)).samples + sys4.high(2).samples
        )
        assert list(realize(sys4, sup).samples) == list(expected)

    def test_linearity(self, sys4):
        p = SymbolicSuperposition.of(ProductTerm.from_indices(4, [1, 4]))
        q = SymbolicSuperposition.of(
            ProductTerm.from_indices(4, [2]), ProductTerm.zeros(4)
        )
        lhs = realize(sys4, 3 * p + (-2) * q)
        rhs = 3 * realize(sys4, p) + (-2) * realize(sys4, q)
        assert lhs == rhs

    def test_vacuum_naming_coincides(self, sys4):
        # all-zeros string == low reference == realized vacuum term
        assert synthesize(sys4, "0000") == low_reference(100)
        assert realize(sys4, SymbolicSuperposition.of(ProductTerm.zeros(4))) == low_reference(100)

    def test_width_mismatch(self, sys4):
        with pytest.raises(WidthMismatchError):
            realize(sys4, SymbolicSuperposition.zero(5))

    def test_product_trace_matches_synthesize(self, sys4):
        for n in range(16):
            s = BitString(4, n)
            assert product_trace(sys4, s.to_term()) == synthesize(sys4, s)

    @pytest.mark.parametrize(
        "terms",
        [{0b0011: 1 << 62, 0b0101: 1 << 62}, {0b0011: -(1 << 63)}, {0b0011: 10**20}],
        ids=["sum-reaches-2^63", "min-int64", "beyond-int64"],
    )
    def test_refuses_int64_overflow(self, sys4, terms):
        with pytest.raises(AmplitudeOverflowError):
            realize(sys4, SymbolicSuperposition(4, terms))

    def test_largest_coefficient_sum_realizes(self, sys4):
        sup = SymbolicSuperposition(4, {0b0011: 1 << 62, 0b0101: (1 << 62) - 1})
        out = realize(sys4, sup)
        assert int(abs(out.samples).max()) == (1 << 63) - 1
