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
    product_trace,
    realize,
    superpose,
    synthesize,
    universe,
)
from noiselogic.cli import _parse_literal
from noiselogic.reference import _GENERATION_BLOCK, product_signs


@pytest.fixture
def sys4():
    return generate_reference_system(4, 100, seed=31)


class TestBitString:
    # BitString holds no algebra of its own: its bits, high indices, XOR and
    # complement are ProductTerm's, through to_term()
    def test_text_round_trip(self):
        s = BitString(4, 0b1100)
        assert s.text == "1100"
        assert s.value == 12
        assert s.to_term().text() == "1100"
        assert s.to_term().mask == 0b0011  # index i is mask bit i-1

    # the CLI's bit-string literal grammar, which parses to a ProductTerm
    def test_parse_forms(self):
        assert _parse_literal("1100", width=4) == BitString(4, 12).to_term()
        assert _parse_literal("0b1100", width=6) == BitString(6, 12).to_term()
        assert _parse_literal("12", width=4) == BitString(4, 12).to_term()

    @pytest.mark.parametrize("text", ["0b12", "0b", "0B", "0bx1", "²", "1²", "٣", "0b1_0"])
    def test_parse_rejects_malformed_literals(self, text):
        # the grammar is ASCII only: int() would accept "٣" (an Arabic-Indic 3) and "0b1_0"
        with pytest.raises(WidthMismatchError, match="cannot parse bit string"):
            _parse_literal(text, width=4)

    def test_value_range(self):
        with pytest.raises(WidthMismatchError):
            BitString(3, 8)

    def test_xor_and_complement(self):
        a, b = ProductTerm.from_text("1100"), ProductTerm.from_text("1010")
        assert (a * b).text() == "0110"
        assert (a * b * ProductTerm.ones(4)).text() == "1001"

    def test_term_round_trip(self):
        s = BitString(5, 0b10110)
        assert s.to_term().mask == 0b01101  # indices 1, 3 and 4
        assert s.to_term().text() == s.text


class TestSynthesize:
    def test_matches_paired_product(self, sys4):
        # 1100 selects the high references of bits 1 and 2
        assert synthesize(sys4, "1100") == sys4.high(1) * sys4.high(2)

    def test_all_zeros_is_vacuum(self, sys4):
        assert synthesize(sys4, "0000") == sys4.low

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
        # a sum takes its length from its first trace, so it needs one
        with pytest.raises(DimensionError, match=r"^superposing nothing: a sum needs at least one"):
            superpose([])

    def test_length_mismatch(self, sys4):
        with pytest.raises(LengthMismatchError):
            superpose([sys4.low, Trace(np.ones(5, dtype=np.int64))])

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
        assert u == superpose([sys.low, sys.high(1)])
        assert set(int(v) for v in np.unique(u.samples)) <= {0, 2}

    def test_factored_equals_expanded_sum_m3(self):
        # brute-force oracle: the explicit 8-term superposition
        sys = generate_reference_system(3, 64, seed=13)
        total = superpose([synthesize(sys, BitString(3, n)) for n in range(8)])
        assert universe(sys) == total


def _bits(words: np.ndarray) -> np.ndarray:
    """Bits 0..61 of each uint64 word, one row per word."""
    flat = np.unpackbits(words.astype("<u8").view(np.uint8), bitorder="little")
    return flat.reshape(-1, 64)[:, :62]


def _full_rank_windows(words: np.ndarray, m: int) -> int:
    """How many consecutive, non-overlapping m-word windows are m x m binary
    matrices of full rank: GF(2) elimination, run on every window at once."""
    rows = words[: words.size // m * m].reshape(-1, m).copy()
    n = np.arange(len(rows))
    pivoted = np.zeros(rows.shape, dtype=bool)
    for j in range(m):
        has_bit = ((rows >> np.uint64(j)) & np.uint64(1)).astype(bool)
        pivot = (has_bit & ~pivoted).argmax(axis=1)
        found = has_bit[n, pivot] & ~pivoted[n, pivot]
        has_bit[n, pivot] = False  # the pivot row keeps its bit j
        rows ^= np.where(has_bit & found[:, None], rows[n, pivot][:, None], np.uint64(0))
        pivoted[n, pivot] |= found
    return int(np.count_nonzero(pivoted.all(axis=1)))


class TestBasisOrthogonality:
    # the M references at a clock are M bits of one mixed word, so every
    # product of them, not only each pair, must average out: |sum| <= 5*sqrt(T)
    T = 2**16

    @pytest.mark.parametrize("seed", range(4))
    def test_every_product_state_at_m10(self, seed):
        sys = generate_reference_system(10, self.T, seed)
        # clocks per sign word, then sum_t sign_n(t) = sum_w count[w] * (-1)^parity(n & w)
        counts = np.bincount(sys.negative_masks.astype(np.int64), minlength=1024)
        states = np.arange(1024, dtype=np.uint64)
        parity = np.bitwise_count(states[:, None] & states[None, :]) & np.uint64(1)
        sums = (1 - 2 * parity.astype(np.int64)) @ counts
        assert sums[0] == self.T
        assert np.abs(sums[1:]).max() <= 5 * np.sqrt(self.T)
        for n in (1, 0b1010000001, 1023):
            term = ProductTerm(10, n)
            assert int(product_trace(sys, term).samples.sum()) == sums[n]

    @pytest.mark.parametrize("seed", range(4))
    def test_random_product_states_at_m62(self, seed):
        sys = generate_reference_system(62, self.T, seed)
        rng = np.random.default_rng(seed)
        masks = rng.integers(1, 1 << 62, size=512, dtype=np.uint64)
        for chunk in np.split(masks, 32):
            sums = product_signs(chunk[:, None], sys.negative_masks).sum(axis=1)
            assert np.abs(sums).max() <= 5 * np.sqrt(self.T)

    @pytest.mark.parametrize("seed", range(4))
    def test_lagged_products_per_reference_at_m62(self, seed):
        # same-clock sums cannot see a reference that repeats or alternates
        # from clock to clock; s_i(t)*s_i(t+lag) is -1 exactly where bit i-1
        # of w[t] ^ w[t+lag] is set, so each lagged sum is (T-lag) - 2*count
        words = generate_reference_system(62, self.T, seed).negative_masks
        for lag in (1, 2, 3, 64):
            bits = _bits(words[:-lag] ^ words[lag:])
            sums = (self.T - lag) - 2 * bits.sum(axis=0, dtype=np.int64)
            assert np.abs(sums).max() <= 5 * np.sqrt(self.T - lag), f"lag {lag}"

    @pytest.mark.parametrize("seed", range(4))
    def test_lagged_products_per_reference_pair_at_m62(self, seed):
        # s_i(t)s_i(t+lag)s_k(t)s_k(t+lag) is -1 exactly where bits i-1 and
        # k-1 of w[t] ^ w[t+lag] differ; every pair i < k is checked at once
        # as one matrix product of the lagged signs
        words = generate_reference_system(62, self.T, seed).negative_masks
        pairs = np.triu_indices(62, 1)
        for lag in (1, 2, 3, 64):
            signs = 1 - 2 * _bits(words[:-lag] ^ words[lag:]).astype(np.float64)
            sums = (signs.T @ signs)[pairs]  # exact: integers below 2^53
            assert np.abs(sums).max() <= 5 * np.sqrt(self.T - lag), f"lag {lag}"

    @pytest.mark.parametrize("seed", range(4))
    def test_binary_rank_of_word_windows_at_m62(self, seed):
        # DIEHARD's binary-rank test: a random 62 x 62 matrix over GF(2) has
        # full rank with probability prod_{k=1..62} (1 - 2^-k) ~ 0.2888, the
        # rate at which decode_product's windows of 62 clocks pin a string
        windows, m = 2000, 62
        words = generate_reference_system(m, windows * m, seed).negative_masks
        p = float(np.prod(1 - 0.5 ** np.arange(1, m + 1)))
        spread = 5 * np.sqrt(windows * p * (1 - p))
        assert abs(_full_rank_windows(words, m) - windows * p) <= spread

    @pytest.mark.parametrize("seed", range(4))
    def test_bit_balance_inside_and_across_generation_blocks(self, seed):
        # each 2^15-clock block is mixed in its own pass: every bit must be
        # balanced inside each block, in the window straddling each block
        # boundary, and in w[t] ^ w[t + block], which is 0 where a block
        # repeats another
        block = _GENERATION_BLOCK
        words = generate_reference_system(62, 4 * block, seed).negative_masks
        bound = 5 * np.sqrt(block)
        windows = {"block": _bits(words), "across": _bits(words[:-block] ^ words[block:])}
        for name, bits in windows.items():
            for start in range(0, len(bits) - block + 1, block // 2):
                ones = bits[start : start + block].sum(axis=0, dtype=np.int64)
                assert np.abs(block - 2 * ones).max() <= bound, f"{name} at {start}"


class TestRealize:
    def test_empty_is_zero_signal(self, sys4):
        z = realize(sys4, SymbolicSuperposition(4))
        assert not z.samples.any()

    def test_vacuum_term_is_constant_one(self, sys4):
        vac = SymbolicSuperposition.of(ProductTerm.zeros(4))
        assert realize(sys4, vac) == sys4.low

    def test_worked_two_term_output(self, sys4):
        # {2,3} + {2} realizes as high_2*high_3 + high_2
        sup = SymbolicSuperposition.of(
            ProductTerm.from_indices(4, [2, 3]), ProductTerm.from_indices(4, [2])
        )
        expected = (
            (sys4.high(2) * sys4.high(3)).samples + sys4.high(2).samples
        )
        assert list(realize(sys4, sup).samples) == list(expected)

    def test_linearity(self, sys4):
        p = SymbolicSuperposition.of(ProductTerm.from_indices(4, [1, 4]))
        q = SymbolicSuperposition.of(
            ProductTerm.from_indices(4, [2]), ProductTerm.zeros(4)
        )
        lhs = realize(sys4, 3 * p + (-2) * q)
        rhs = Trace(3 * realize(sys4, p).samples - 2 * realize(sys4, q).samples)
        assert lhs == rhs

    def test_vacuum_naming_coincides(self, sys4):
        # all-zeros string == low reference == realized vacuum term
        assert synthesize(sys4, "0000") == sys4.low
        assert realize(sys4, SymbolicSuperposition.of(ProductTerm.zeros(4))) == sys4.low

    def test_width_mismatch(self, sys4):
        with pytest.raises(WidthMismatchError):
            realize(sys4, SymbolicSuperposition(5))

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
