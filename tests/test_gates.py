"""Gate set: worked examples, Boolean semantics, targeted forms."""

import numpy as np
import pytest

from noiselogic import (
    AmplitudeOverflowError,
    BitString,
    LengthMismatchError,
    ProductTerm,
    TargetIndexError,
    Trace,
    apply_not,
    decode_product,
    generate_reference_system,
    product_trace,
    superpose,
    synthesize,
    xnor_pair,
    xnor_targeted,
    xor_pair,
    xor_targeted,
)


@pytest.fixture
def sys4():
    return generate_reference_system(4, 128, seed=17)


class TestNot:
    def test_single_target_is_the_high_reference(self, sys4):
        assert product_trace(sys4, ProductTerm.from_indices(4, {1})) == sys4.high(1)

    def test_multi_target_is_the_product(self, sys4):
        expected = sys4.high(1) * sys4.high(3)
        assert product_trace(sys4, ProductTerm.from_indices(4, {1, 3})) == expected

    def test_involution(self, sys4):
        x = synthesize(sys4, "0110")
        assert apply_not(sys4, {2}, apply_not(sys4, {2}, x)) == x

    def test_flips_targeted_bits(self, sys4):
        out = apply_not(sys4, {1, 3}, synthesize(sys4, "1100"))
        assert out == synthesize(sys4, "0110")
        assert decode_product(sys4, out).text == "0110"

    def test_distributes_over_superposition(self, sys4):
        # {1100, 1010, 1000} -> {0110, 0000, 0010}
        sup = superpose([synthesize(sys4, s) for s in ("1100", "1010", "1000")])
        out = apply_not(sys4, {1, 3}, sup)
        expected = superpose([synthesize(sys4, s) for s in ("0110", "0000", "0010")])
        assert out == expected

    def test_single_bit_cases(self, sys4):
        # low in, high out; high in, low out
        assert apply_not(sys4, {1}, sys4.low) == sys4.high(1)
        assert apply_not(sys4, {1}, sys4.high(1)) == sys4.low

    def test_rejects_bad_targets(self, sys4):
        with pytest.raises(TargetIndexError):
            apply_not(sys4, set(), sys4.high(1))
        with pytest.raises(TargetIndexError):
            apply_not(sys4, {0}, sys4.high(1))
        with pytest.raises(TargetIndexError):
            apply_not(sys4, {5}, sys4.high(1))


class TestBitGates:
    # single noise-bit signals: xor_pair is the bit XOR, and the targeted
    # XNOR with value 0 turns it into the bit XNOR
    def test_xor_bit_truth_table(self, sys4):
        high, low = sys4.high(1), sys4.low
        assert xor_pair(high, low) == high  # 1 xor 0 -> high
        assert xor_pair(high, high) == low  # 1 xor 1 -> low
        assert xor_pair(low, low) == low  # 0 xor 0 -> low

    def test_xnor_bit_truth_table(self, sys4):
        high, low = sys4.high(1), sys4.low

        def xnor(a, b):
            return xnor_targeted(sys4, xor_pair(a, b), 1, 0)

        assert xnor(high, low) == low  # 1 xnor 0 -> low
        assert xnor(high, high) == high  # 1 xnor 1 -> high
        assert xnor(low, low) == high  # 0 xnor 0 -> high


class TestPairGates:
    def test_xor_worked_example(self, sys4):
        out = xor_pair(synthesize(sys4, "1100"), synthesize(sys4, "1010"))
        assert decode_product(sys4, out).text == "0110"

    def test_xnor_worked_example(self, sys4):
        out = xnor_pair(sys4, synthesize(sys4, "1100"), synthesize(sys4, "1010"))
        assert decode_product(sys4, out).text == "1001"

    def test_xor_self_is_all_zeros_vector(self, sys4):
        a = synthesize(sys4, "1100")
        assert xor_pair(a, a) == sys4.low

    def test_xnor_self_is_all_ones_vector(self, sys4):
        a = synthesize(sys4, "1100")
        assert xnor_pair(sys4, a, a) == synthesize(sys4, "1111")

    def test_xor_with_superposition(self, sys4):
        a = synthesize(sys4, "1100")
        b_plus_c = superpose([synthesize(sys4, "1010"), synthesize(sys4, "1000")])
        expected = superpose([synthesize(sys4, "0110"), synthesize(sys4, "0100")])
        assert xor_pair(a, b_plus_c) == expected

    def test_xnor_with_superposition(self, sys4):
        a = synthesize(sys4, "1100")
        b_plus_c = superpose([synthesize(sys4, "1010"), synthesize(sys4, "1000")])
        expected = superpose([synthesize(sys4, "1001"), synthesize(sys4, "1011")])
        assert xnor_pair(sys4, a, b_plus_c) == expected

    def test_prose_operands_agree_with_figure_operands(self, sys4):
        # 0011/0101 and 1100/1010 both land on XOR=0110, XNOR=1001
        out = xor_pair(synthesize(sys4, "0011"), synthesize(sys4, "0101"))
        assert decode_product(sys4, out).text == "0110"
        out = xnor_pair(sys4, synthesize(sys4, "0011"), synthesize(sys4, "0101"))
        assert decode_product(sys4, out).text == "1001"


class TestTargetedGates:
    @pytest.mark.parametrize("text", ["1100", "0000", "1111", "0101"])
    @pytest.mark.parametrize("i", [1, 2, 3, 4])
    @pytest.mark.parametrize("p", [0, 1])
    def test_xor_targeted_matches_bitwise_oracle(self, sys4, text, i, p):
        s = BitString(len(text), int(text, 2))
        out = xor_targeted(sys4, synthesize(sys4, s), i, p)
        # independent oracle: bitwise XOR on the targeted bit of the string
        expected_value = s.value ^ (p << (4 - i))
        assert decode_product(sys4, out) == BitString(4, expected_value)

    @pytest.mark.parametrize("text", ["1100", "0000", "1111", "0101"])
    @pytest.mark.parametrize("i", [1, 2, 3, 4])
    @pytest.mark.parametrize("p", [0, 1])
    def test_xnor_targeted_matches_bitwise_oracle(self, sys4, text, i, p):
        s = BitString(len(text), int(text, 2))
        out = xnor_targeted(sys4, synthesize(sys4, s), i, p)
        expected_value = s.value ^ ((p ^ 1) << (4 - i))
        assert decode_product(sys4, out) == BitString(4, expected_value)

    def test_xor_p0_is_exact_passthrough(self, sys4):
        a = synthesize(sys4, "1100")
        assert xor_targeted(sys4, a, 3, 0) == a

    def test_xor_targeted_worked_example(self, sys4):
        out = xor_targeted(sys4, synthesize(sys4, "1100"), 3, 1)
        assert decode_product(sys4, out).text == "1110"

    def test_xnor_targeted_worked_examples(self, sys4):
        a = synthesize(sys4, "1100")
        assert decode_product(sys4, xnor_targeted(sys4, a, 3, 0)).text == "1110"
        assert decode_product(sys4, xnor_targeted(sys4, a, 3, 1)).text == "1100"
        assert decode_product(sys4, xnor_targeted(sys4, a, 1, 1)).text == "1100"

    def test_distributes_over_superposition(self, sys4):
        b, c = synthesize(sys4, "1010"), synthesize(sys4, "1000")
        together = xor_targeted(sys4, superpose([b, c]), 2, 1)
        separate = superpose(
            [xor_targeted(sys4, b, 2, 1), xor_targeted(sys4, c, 2, 1)]
        )
        assert together == separate

    def test_rejects_bad_arguments(self, sys4):
        a = synthesize(sys4, "1100")
        with pytest.raises(TargetIndexError):
            xor_targeted(sys4, a, 0, 1)
        with pytest.raises(ValueError):
            xnor_targeted(sys4, a, 1, 2)

    @pytest.mark.parametrize("gate", [xor_targeted, xnor_targeted])
    @pytest.mark.parametrize("p", [0, 1])
    def test_rejects_wrong_length_signal(self, sys4, gate, p):
        # p = 0 XOR passes its input through, so it needs a check of its own
        short = generate_reference_system(4, 64, seed=17).high(1)
        with pytest.raises(LengthMismatchError):
            gate(sys4, short, 1, p)


class TestCrossGateIdentities:
    def test_xnor_is_ones_times_xor(self, sys4):
        a, b = synthesize(sys4, "0110"), synthesize(sys4, "1010")
        assert xnor_pair(sys4, a, b) == xor_pair(a, b) * product_trace(sys4, ProductTerm.ones(4))

    def test_not_single_bit_equals_targeted_xor_one(self, sys4):
        x = synthesize(sys4, "0101")
        for i in range(1, 5):
            assert apply_not(sys4, {i}, x) == xor_targeted(sys4, x, i, 1)

    def test_commutativity(self, sys4):
        a, b = synthesize(sys4, "1001"), synthesize(sys4, "0011")
        assert xor_pair(a, b) == xor_pair(b, a)
        assert xnor_pair(sys4, a, b) == xnor_pair(sys4, b, a)


# every signal gate that takes a reference system, as (call(sys, operands, i),
# its operand count, whether it takes a noise-bit target i, and whether its
# operand is the constant 1, so that it returns its input uncopied)
SIGNAL_GATES = {
    "apply_not": (lambda sys, ops, i: apply_not(sys, {i}, *ops), 1, True, False),
    "xnor_pair": (lambda sys, ops, i: xnor_pair(sys, *ops), 2, False, False),
    "xor_targeted-p0": (lambda sys, ops, i: xor_targeted(sys, *ops, i, 0), 1, True, True),
    "xor_targeted-p1": (lambda sys, ops, i: xor_targeted(sys, *ops, i, 1), 1, True, False),
    "xnor_targeted-p0": (lambda sys, ops, i: xnor_targeted(sys, *ops, i, 0), 1, True, False),
    "xnor_targeted-p1": (lambda sys, ops, i: xnor_targeted(sys, *ops, i, 1), 1, True, True),
}


def _with_peak(t: int, peak: int) -> Trace:
    samples = np.ones(t, dtype=np.int64)
    samples[t // 2] = peak
    return Trace(samples)


@pytest.mark.parametrize(
    "call,arity,targeted,passes_through", SIGNAL_GATES.values(), ids=SIGNAL_GATES
)
def test_gate_kernel_checks(sys4, call, arity, targeted, passes_through):
    good = sys4.high(2)
    short = generate_reference_system(4, 64, seed=17).high(1)
    for k in range(arity):  # each operand short in turn, its length named first
        operands = [good] * arity
        operands[k] = short
        with pytest.raises(LengthMismatchError, match=r"trace lengths differ: 64 != 128$"):
            call(sys4, operands, 1)

    if arity == 2:  # amplitudes 2^62 and 2: the product reaches 2^63
        with pytest.raises(AmplitudeOverflowError):
            call(sys4, [_with_peak(128, 2**62), _with_peak(128, 2)], 1)
    elif arity == 1:
        lowest = _with_peak(128, -(2**63))  # its sign flip would wrap
        if passes_through:
            assert call(sys4, [lowest], 1) is lowest
        else:
            with pytest.raises(AmplitudeOverflowError):
                call(sys4, [lowest], 1)

    if targeted:
        for i in (0, sys4.m + 1):
            with pytest.raises(TargetIndexError):
                call(sys4, [good] * arity, i)
