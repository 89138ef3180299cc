"""Reference noise system: generation, algebra, orthogonality, serialization."""

import array
import copy
import hashlib
import itertools
import json
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noiselogic import (
    AmplitudeOverflowError,
    DimensionError,
    LengthMismatchError,
    ProductTerm,
    ReferenceSystem,
    SymbolicSuperposition,
    Trace,
    TraceParseError,
    agreement_stats,
    apply_not,
    check_orthogonality,
    decode_product,
    decode_superposition,
    generate_reference_system,
    product_trace,
    read_trace,
    realize,
    superpose,
    trace_from_csv,
    trace_from_json,
    trace_to_csv,
    trace_to_json,
    universe_stats,
    write_trace,
    xnor_pair,
    xor_pair,
)
from noiselogic.reference import _TEXT_BLOCK, product_signs


def test_generation_domain():
    sys = generate_reference_system(4, 100, seed=7)
    assert sys.m == 4 and sys.t == 100
    highs = [sys.high(i) for i in range(1, sys.m + 1)]
    assert len(highs) == 4
    for high in highs:
        assert high.t == 100
        assert set(np.unique(high.samples)) <= {-1, 1}


# splitmix64 over Python ints (Steele, Lea & Flood, OOPSLA 2014): the
# generator's definition, written without numpy
_U64_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    x &= _U64_MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _U64_MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _U64_MASK
    return x ^ (x >> 31)


def _oracle_sample(seed: int, i: int, clock: int) -> int:
    """Sample (i, clock): -1 iff bit i-1 of the clock's word is 0."""
    key = _splitmix64(seed + _GAMMA)
    word = _splitmix64(key + (clock + 1) * _GAMMA)
    return 1 if word >> (i - 1) & 1 else -1


@pytest.mark.parametrize("m", [1, 33, 62])
@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_generation_matches_splitmix64_oracle(m, seed):
    t = 2**16 + 3  # three generation blocks of 2^15 clocks, the last partial
    sys = generate_reference_system(m, t, seed)
    for clock in [0, 2**15 - 1, 2**15, 2**15 + 1, t - 1]:
        word = int(sys.negative_masks[clock])
        for i in range(1, m + 1):
            expected = _oracle_sample(seed, i, clock)
            assert (-1 if word >> (i - 1) & 1 else 1) == expected, (i, clock)
        assert int(sys.high(m).samples[clock]) == _oracle_sample(seed, m, clock)


@pytest.mark.parametrize("k", [1, 4, 33])
def test_generation_does_not_depend_on_m(k):
    # reference i comes from bit i-1 of the clock's word, whatever M is
    t = 2**15 + 5
    wide = generate_reference_system(62, t, seed=19).negative_masks
    narrow = generate_reference_system(k, t, seed=19).negative_masks
    assert np.array_equal(wide & np.uint64((1 << k) - 1), narrow)


# SHA-256 of negative_masks.tobytes(): any change to the generator's stream
# (mixing, key/clock arithmetic or bit packing) shows up here.
GOLDEN_MASK_DIGESTS = {
    (4, 128, 7): "daa7387e4e3e10efa3a255cf65b0f656b3e310d602fa17b7bc2b8fc1f50eed09",
    (62, 4096, 2**64 - 1): "5f92970ad9c0e76853377d186ee58b8473bd4c42b6286be85cb37ea4e51e02d8",
    # two full generation blocks of 2^15 clocks and a partial third
    (62, 2**16 + 3, 11): "05f48b1307d6740bce074a50cace9d2cd152d90b26435274628e35ee9378b947",
}


@pytest.mark.parametrize(
    "m,t,seed", list(GOLDEN_MASK_DIGESTS), ids=["small", "large", "multi-block"]
)
def test_generation_golden_digest(m, t, seed):
    masks = generate_reference_system(m, t, seed).negative_masks
    assert masks.dtype == np.uint64 and masks.shape == (t,)
    assert hashlib.sha256(masks.tobytes()).hexdigest() == GOLDEN_MASK_DIGESTS[m, t, seed]


def test_generation_temporaries_are_bounded_by_block():
    t = 2**18
    tracemalloc.start()
    try:
        masks = generate_reference_system(8, t, seed=3).negative_masks
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the masks plus at most eight 2^15-word buffers (2 MiB), where a
    # whole-window generator holds several T-word temporaries
    assert peak < masks.nbytes + 8 * 2**15 * 8


def test_negative_masks_match_high_signs():
    sys = generate_reference_system(5, 300, seed=13)
    for i in range(1, 6):
        negative = (sys.negative_masks >> np.uint64(i - 1)) & np.uint64(1)
        assert np.array_equal(sys.high(i).samples, 1 - 2 * negative.astype(np.int64))
    with pytest.raises(ValueError):
        sys.negative_masks[0] = 0


def test_system_equality_follows_arguments():
    a = generate_reference_system(3, 64, seed=5)
    assert a == generate_reference_system(3, 64, seed=5)
    assert hash(a) == hash(generate_reference_system(3, 64, seed=5))
    assert a != generate_reference_system(3, 64, seed=6)


@pytest.mark.parametrize("seed,reduced", [(-1, 2**64 - 1), (2**64 + 5, 5), (-(2**70), 0)])
def test_seed_is_reduced_modulo_2_64(seed, reduced):
    # the generator only sees the seed modulo 2^64, so equality must too
    a, b = generate_reference_system(4, 64, seed), generate_reference_system(4, 64, reduced)
    assert a.seed == reduced
    assert a == b and hash(a) == hash(b)
    assert np.array_equal(a.negative_masks, b.negative_masks)


def test_reference_system_takes_m_t_and_seed_only():
    # the words are generated from (m, t, seed), never handed in
    words = np.zeros(16, dtype=np.uint64)
    with pytest.raises(TypeError, match="positional arguments"):
        ReferenceSystem(4, 16, 1, words)
    with pytest.raises(TypeError, match="unexpected keyword argument 'negative_masks'"):
        ReferenceSystem(m=4, t=16, seed=1, negative_masks=words)
    sys, reduced = ReferenceSystem(4, 16, -1), generate_reference_system(4, 16, 2**64 - 1)
    assert sys == reduced and sys.seed == 2**64 - 1
    assert np.array_equal(sys.negative_masks, reduced.negative_masks)
    assert not sys.negative_masks.flags.writeable


@pytest.mark.parametrize("m", [0, 63, 4.0, 4.5, "4", None])
def test_reference_system_checks_m_as_generation_does(m):
    message = rf"^m={re.escape(repr(m))} is outside the engine's 1\.\.62 "
    with pytest.raises(DimensionError, match=message):
        ReferenceSystem(m, 8, 1)


def test_reference_system_checks_t_then_m_then_seed():
    with pytest.raises(DimensionError, match=r"^clock count 0 is outside"):
        ReferenceSystem(0, 0, "x")
    with pytest.raises(DimensionError, match=r"^m=0 is outside"):
        ReferenceSystem(0, 8, "x")
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        ReferenceSystem(4, 8, "x")
    sys = ReferenceSystem(True, True, True)
    assert (type(sys.m), type(sys.t), type(sys.seed)) == (int, int, int)
    assert sys == generate_reference_system(1, 1, 1)


def test_reference_system_copies_are_rebuilt_from_m_t_seed():
    # every copy is a fresh generation, read-only, and a pickle holds
    # three integers, not T words; 70000 clocks end in a partial block
    for t, seed in ((2**17, 23), (70000, 5)):
        sys = generate_reference_system(62, t, seed)
        data = pickle.dumps(sys)
        assert len(data) < 200
        for again in (copy.copy(sys), copy.deepcopy(sys), pickle.loads(data)):
            assert again == sys and hash(again) == hash(sys)
            assert not again.negative_masks.flags.writeable
            assert np.array_equal(again.negative_masks, sys.negative_masks)
            assert again.high(62) == sys.high(62)


def test_generation_minimal():
    sys = generate_reference_system(1, 1, seed=3)
    assert sys.high(1).t == 1
    assert int(sys.high(1).samples[0]) in (-1, 1)


@pytest.mark.parametrize("m,t", [(0, 10), (3, 0), (0, 0)])
def test_generation_rejects_empty_dimensions(m, t):
    with pytest.raises(DimensionError):
        generate_reference_system(m, t, seed=1)


def test_generation_rejects_oversized_m():
    with pytest.raises(DimensionError):
        generate_reference_system(63, 8, seed=1)


@pytest.mark.parametrize("m", [4.0, 4.5, "4", None])
def test_generation_refuses_a_non_integer_m(m):
    message = rf"^m={re.escape(repr(m))} is outside the engine's 1\.\.62 "
    with pytest.raises(DimensionError, match=message):
        generate_reference_system(m, 8, seed=1)


def test_generation_reads_true_as_one_bit():
    sys = generate_reference_system(True, 8, seed=1)
    assert type(sys.m) is int and sys.m == 1
    assert sys == generate_reference_system(1, 8, seed=1)


def test_generation_deterministic_and_seed_sensitive():
    a = generate_reference_system(5, 257, seed=99)
    b = generate_reference_system(5, 257, seed=99)
    for i in range(1, 6):
        assert a.high(i) == b.high(i)
    c = generate_reference_system(5, 257, seed=100)
    assert any(a.high(i) != c.high(i) for i in range(1, 6))


def test_generation_order_independent():
    # counter-based: a longer run's prefix equals the shorter run
    short = generate_reference_system(3, 64, seed=11)
    long = generate_reference_system(3, 4096, seed=11)
    for i in range(1, 4):
        assert np.array_equal(long.high(i).samples[:64], short.high(i).samples)


def test_per_trace_mean_bound():
    # empirical zero-mean: |mean| <= 4/sqrt(T) at z = 4
    t = 10**5
    sys = generate_reference_system(4, t, seed=12345)
    bound = 4 / np.sqrt(t)
    for high in [sys.high(i) for i in range(1, sys.m + 1)]:
        assert abs(high.samples.mean()) <= bound


def test_low_reference_values():
    assert list(generate_reference_system(2, 5, seed=0).low.samples) == [1, 1, 1, 1, 1]
    assert list(generate_reference_system(2, 1, seed=0).low.samples) == [1]


def test_low_reference_is_multiplicative_identity():
    sys = generate_reference_system(2, 50, seed=5)
    x = sys.high(2)
    assert x * sys.low == x


def test_self_product_is_vacuum():
    sys = generate_reference_system(4, 200, seed=8)
    for high in [sys.high(i) for i in range(1, sys.m + 1)]:
        assert high * high == sys.low


def test_product_matches_independent_loop():
    sys = generate_reference_system(4, 100, seed=21)
    a, b = sys.high(1), sys.high(2)
    got = a * b
    expected = [int(a.samples[k]) * int(b.samples[k]) for k in range(100)]
    assert list(got.samples) == expected


def test_product_closure_stays_binary():
    sys = generate_reference_system(5, 300, seed=2)
    for i in range(1, 6):
        for k in range(i + 1, 6):
            assert (sys.high(i) * sys.high(k)).is_binary()


def test_product_length_mismatch():
    with pytest.raises(LengthMismatchError):
        Trace(np.ones(4, dtype=np.int64)) * Trace(np.ones(5, dtype=np.int64))


# every call outside the gates that checks a trace against a clock count (the
# system's T or the first trace's length), with the operand's length named
# first; test_gates.py::test_gate_kernel_checks covers the gates
LENGTH_GUARDED_CALLS = {
    "trace-mul": lambda sys, short: sys.high(1) * short,
    "superpose": lambda sys, short: superpose([sys.high(1), short]),
    "decode_product": lambda sys, short: decode_product(sys, short),
    "decode_superposition": lambda sys, short: decode_superposition(sys, short),
    "universe_stats": lambda sys, short: universe_stats(sys, short),
    "agreement_stats": lambda sys, short: agreement_stats(sys.high(1), short),
}


@pytest.mark.parametrize("call", LENGTH_GUARDED_CALLS.values(), ids=LENGTH_GUARDED_CALLS)
def test_length_mismatch_message(call):
    sys = generate_reference_system(4, 128, seed=17)
    short = generate_reference_system(4, 64, seed=17).high(1)
    with pytest.raises(LengthMismatchError, match=r"trace lengths differ: 64 != 128$"):
        call(sys, short)


# numpy refuses these clock counts before allocating anything (an int64 trace
# would need 2^65 or 8*10^20 bytes); the engine refuses them before numpy sees them
CLOCK_COUNT_CALLS = {
    "generate_reference_system": lambda t: generate_reference_system(4, t, 0),
    "ReferenceSystem": lambda t: ReferenceSystem(4, t, 0),
}


@pytest.mark.parametrize("t", [2**62, 10**20], ids=["2^62", "10^20"])
@pytest.mark.parametrize("call", CLOCK_COUNT_CALLS.values(), ids=CLOCK_COUNT_CALLS)
def test_clock_count_past_numpy_limit_is_refused(call, t):
    with pytest.raises(DimensionError, match=rf"^clock count {t} is outside 1\.\.\d+$"):
        call(t)


@pytest.mark.parametrize("t", [4.5, 4.0, "4"])
@pytest.mark.parametrize("call", CLOCK_COUNT_CALLS.values(), ids=CLOCK_COUNT_CALLS)
def test_clock_count_must_be_an_integer(call, t):
    # refused, never truncated to T = 4
    message = rf"^clock count {re.escape(repr(t))} is outside 1\.\.\d+$"
    with pytest.raises(DimensionError, match=message):
        call(t)


@pytest.mark.parametrize("call", CLOCK_COUNT_CALLS.values(), ids=CLOCK_COUNT_CALLS)
def test_clock_count_true_reads_as_one(call):
    assert call(True).t == 1


def _per_pair_orthogonality(sys):
    """(i, k, correlation, status) for each pair i < k, one product trace
    per pair: the reference the one-kernel check must equal bit for bit."""
    bound = 4 / np.sqrt(sys.t)
    rows = []
    for i, k in itertools.combinations(range(1, sys.m + 1), 2):
        corr = float(product_signs((1 << (i - 1)) | (1 << (k - 1)), sys.negative_masks).mean())
        status = ("pass" if abs(corr) <= bound else "fail") if bound < 1 else "inconclusive"
        rows.append((i, k, corr, status))
    return rows


@pytest.mark.parametrize("t", [1, 2**12 - 1, 2**12, 2**12 + 1, 3 * 2**12 + 5, 2**17])
@pytest.mark.parametrize("m", [1, 2, 5, 62])
def test_orthogonality_equals_the_per_pair_means(m, t):
    # T is inside one Gram block, exactly one, one and a clock, three and a
    # tail, or 32 blocks
    sys = generate_reference_system(m, t, seed=m + t)
    report = check_orthogonality(sys)
    got = [(p.i, p.k, p.correlation, p.status) for p in report.pairs]
    assert got == _per_pair_orthogonality(sys)
    assert len(got) == m * (m - 1) // 2
    if m == 1:
        assert report.pairs == () and report.ok


def test_orthogonality_distinct_pairs_pass():
    sys = generate_reference_system(4, 10**4, seed=42)
    report = check_orthogonality(sys)
    assert len(report.pairs) == 6
    assert all(p.status == "pass" for p in report.pairs)
    assert report.ok


def test_orthogonality_single_sample_inconclusive():
    # T=1 degenerates: every distinct-pair correlation is +/-1 and the
    # z/sqrt(T) bound is vacuous, so the check must not report failure
    sys = generate_reference_system(2, 1, seed=9)
    report = check_orthogonality(sys)
    (pair,) = report.pairs
    assert pair.correlation in (-1.0, 1.0)
    assert pair.status == "inconclusive"
    assert report.ok


def test_orthogonality_report_dict():
    sys = generate_reference_system(2, 16, seed=1)
    d = check_orthogonality(sys).as_dict()
    assert d["T"] == 16 and d["z"] == 4.0
    assert len(d["pairs"]) == 1  # (1,2)


def test_trace_rejects_empty():
    with pytest.raises(DimensionError):
        Trace(np.array([], dtype=np.int64))


def test_trace_reads_integers_only():
    for samples in ([1.5, -2.7], ["5", "-3"], np.array([2.0])):
        with pytest.raises(TypeError, match=r"^trace samples must be integers, not "):
            Trace(samples)
    message = r"^\|amplitude\| can reach 18446744073709551615 >= 2\^63"
    with pytest.raises(AmplitudeOverflowError, match=message):
        Trace(np.array([2**64 - 1], dtype=np.uint64))
    # bool and integer samples read as int64, unsigned ones below 2^63 too
    assert Trace([True, False]).samples.tolist() == [1, 0]
    assert Trace(np.array([2**63 - 1, 0], dtype=np.uint64)).samples.tolist() == [2**63 - 1, 0]


@pytest.mark.parametrize("samples, bound", [([-1, 2**63], 2**63), ([2**64], 2**64)])
def test_trace_refuses_ints_past_int64_by_value(samples, bound):
    with pytest.raises(AmplitudeOverflowError, match=rf"^\|amplitude\| can reach {bound} >= 2\^63"):
        Trace(samples)


def test_trace_copies_stay_read_only():
    trace = Trace([3, -1, 2], label="x")
    for again in (copy.copy(trace), copy.deepcopy(trace), pickle.loads(pickle.dumps(trace))):
        assert again == trace and again.label == "x"
        with pytest.raises(ValueError):
            again.samples[0] = 5


def test_trace_immutable():
    tr = generate_reference_system(2, 3, seed=0).low
    with pytest.raises(ValueError):
        tr.samples[0] = 5


def test_arithmetic_refuses_int64_overflow():
    big = Trace(np.array([1 << 62, -1], dtype=np.int64))
    with pytest.raises(AmplitudeOverflowError):
        superpose([big, big])
    with pytest.raises(AmplitudeOverflowError):
        big * Trace(np.array([2, 1], dtype=np.int64))
    # just inside the range still works
    assert superpose([big, Trace(np.array([(1 << 62) - 1, 0]))]).samples[0] == (1 << 63) - 1


#: 2^63 - 1 = 7 * 1317624576693539401 and 2^63 = 2 * 2^62: two operands whose
#: max |amplitude| product is the bound
_FACTORS = {(1 << 63) - 1: (7, 1317624576693539401), 1 << 63: (2, 1 << 62)}


def _peak(v: int) -> Trace:
    """A two-clock trace whose max |amplitude| is |v|."""
    return Trace(np.array([v, 1], dtype=np.int64))


#: Every producer the sum-of-products kernel serves, as a call whose headroom
#: bound (sum |coeff| * prod max|operand|) is ``bound``, and the samples it
#: must produce; each operand spans the two clocks of ``sys``
HEADROOM_PRODUCERS = {
    "xor_pair": lambda sys, bound: (
        lambda: xor_pair(*map(_peak, _FACTORS[bound])), [bound, 1]
    ),
    "a * b": lambda sys, bound: (
        lambda: _peak(_FACTORS[bound][0]) * _peak(_FACTORS[bound][1]), [bound, 1]
    ),
    "superpose": lambda sys, bound: (
        lambda: superpose([_peak(1 << 62), _peak(bound - (1 << 62) - 1), _peak(1)]), [bound, 3]
    ),
    "realize": lambda sys, bound: (
        lambda: realize(sys, SymbolicSuperposition(2, {0: 1 << 62, 3: bound - (1 << 62)})),
        [(1 << 62) + (bound - (1 << 62)) * int(s) for s in (sys.high(1) * sys.high(2)).samples],
    ),
    "apply_not": lambda sys, bound: (
        lambda: apply_not(sys, [2], _peak(-bound)),
        [-bound * int(sys.high(2).samples[0]), int(sys.high(2).samples[1])],
    ),
    "xnor_pair": lambda sys, bound: (
        lambda: xnor_pair(sys, *map(_peak, _FACTORS[bound])),
        [f * int(s) for f, s in zip((bound, 1), product_trace(sys, ProductTerm.ones(2)).samples)],
    ),
}


@pytest.mark.parametrize("producer", HEADROOM_PRODUCERS.values(), ids=HEADROOM_PRODUCERS)
def test_headroom_bound_is_exact(producer):
    # one rule for every computed trace: a bound of 2^63 - 1 is computed
    # exactly, and a bound of 2^63, where int64 could wrap, is refused
    sys = generate_reference_system(2, 2, seed=3)
    call, expected = producer(sys, (1 << 63) - 1)
    assert call().samples.tolist() == expected
    call, _ = producer(sys, 1 << 63)
    message = r"^\|amplitude\| can reach 9223372036854775808 >= 2\^63, past the int64 range$"
    with pytest.raises(AmplitudeOverflowError, match=message):
        call()


def test_product_states_reach_the_kernel_with_bound_1(monkeypatch):
    # a product state has no operand and coefficient 1, so its bound is 1
    # whatever its mask; no input can drive it to 2^63
    sys = generate_reference_system(62, 4, seed=3)
    bounds = []
    monkeypatch.setattr("noiselogic.reference.check_headroom", bounds.append)
    product_trace(sys, ProductTerm(62, (1 << 62) - 1))
    sys.high(62)
    product_trace(sys, ProductTerm.from_indices(62, [1, 62]))
    assert bounds == [1, 1, 1]


def test_sums_add_their_operands_without_temporaries():
    # the first operand is copied into the result and every later one added
    # to it in place: the result is the only T-sample array allocated
    t = 1 << 16
    sys = generate_reference_system(8, t, seed=2)
    x, h = sys.high(1), sys.high(2)
    tracemalloc.start()
    try:
        out = superpose([x, h, x, h])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.samples.tolist() == (2 * (x.samples + h.samples)).tolist()
    assert peak <= out.samples.nbytes + 2 * t


def test_trace_operator_sugar():
    sys = generate_reference_system(2, 32, seed=6)
    a, b = sys.high(1), sys.high(2)
    assert (a * b).samples.tolist() == (a.samples * b.samples).tolist()


def test_trace_equality_is_samplewise():
    # equal samples of equal length; labels do not count, and a non-trace is unequal
    pairs = [
        (Trace([1, 2]), Trace([1, 2]), True),
        (Trace([1, 2], label="x"), Trace([1, 2], label="y"), True),
        (Trace([1, 2], label="x"), Trace([1, 2]), True),
        (Trace([1, 2]), Trace([1, 2, 0]), False),
        (Trace([1]), Trace([1, 1]), False),
        (Trace([0]), Trace([0, 0]), False),
        (Trace([1, 2]), Trace([2, 1]), False),
    ]
    for a, b, equal in pairs:
        assert (a == b) is (b == a) is equal
        assert (a != b) is (b != a) is (not equal)
    for other in (1, [1], (1,), "1", None):
        assert Trace([1]) != other and not Trace([1]) == other


@pytest.mark.parametrize(
    "call",
    [
        lambda a: a + a,
        lambda a: -a,
        lambda a: 2 * a,
        lambda a: a * 2,
        lambda a: len(a),
        lambda a: superpose([a], t=a.t),
    ],
    ids=["a + b", "-a", "2 * a", "a * 2", "len(a)", "superpose t="],
)
def test_traces_have_one_product_and_no_other_operators(call):
    # a sum is superpose([a, b]) and a length is a.t; the rest is Python's own TypeError
    a = generate_reference_system(2, 8, seed=6).high(1)
    with pytest.raises(TypeError):
        call(a)


def test_trace_labels_are_strings_or_none(tmp_path):
    # a label the JSON form could not write, or could not read back, is refused
    # when the trace is built or relabelled, never when it is written
    for label in (5, 3.5, float("nan"), b"x", ["a"]):
        message = rf"^a trace label must be a string or None, not {type(label).__name__}$"
        with pytest.raises(TypeError, match=message):
            Trace([1, -1], label=label)
        with pytest.raises(TypeError, match=message):
            Trace([1, -1]).with_label(label)
    for label in ("", "ü", 'a"b\\n', None):
        again = trace_from_json(trace_to_json(Trace([1, -1], label=label)))
        assert again == Trace([1, -1]) and again.label == label
        again = read_trace(write_trace(Trace([1, -1], label=label), tmp_path / "l.json"))
        assert again == Trace([1, -1]) and again.label == label
    # repr shows a label that is set, and at most eight samples
    assert repr(Trace(np.arange(10), label="x")) == "<Trace 'x' T=10 [0,1,2,3,4,5,6,7,...]>"
    assert repr(Trace([1, -1])) == "<Trace T=2 [1,-1]>"


# -- serialization ------------------------------------------------------------


def _sample_traces():
    sys = generate_reference_system(3, 40, seed=77)
    sup = Trace(sys.high(1).samples + sys.high(2).samples, label="sum")
    return [sys.high(1), sys.low, sup]


@pytest.mark.parametrize("trace", _sample_traces(), ids=["rtw", "low", "sum"])
def test_csv_round_trip(trace):
    again = trace_from_csv(trace_to_csv(trace))
    assert again == trace


@pytest.mark.parametrize("trace", _sample_traces(), ids=["rtw", "low", "sum"])
def test_json_round_trip(trace):
    again = trace_from_json(trace_to_json(trace))
    assert again == trace
    assert again.label == trace.label


def test_csv_format_shape():
    text = trace_to_csv(Trace(np.ones(2, dtype=np.int64)))
    assert text == "clock,amplitude\n0,1\n1,1\n"


# -- the writers against per-row references -----------------------------------

INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1


def _row_writer_csv(trace: Trace) -> str:
    """Per-row reference CSV writer: an f-string per clock."""
    lines = ["clock,amplitude"]
    lines.extend(f"{t},{v}" for t, v in enumerate(trace.samples.tolist()))
    lines.append("")
    return "\n".join(lines)


def _row_writer_json(trace: Trace) -> str:
    """Per-row reference JSON writer: ``json.dumps`` of the whole payload."""
    payload = {"T": trace.t, "label": trace.label, "samples": trace.samples.tolist()}
    return json.dumps(payload) + "\n"


def _assert_same_text(got: str, want: str) -> None:
    """The two texts are equal, character for character. A failure names
    only the first line that differs: on texts of 10^5 lines, pytest's own
    line diff of the two takes minutes."""
    same = got == want
    assert same, _first_different_line(got, want)


def _first_different_line(got: str, want: str) -> str:
    pairs = itertools.zip_longest(got.split("\n"), want.split("\n"))
    row, (g, w) = next((row, pair) for row, pair in enumerate(pairs) if pair[0] != pair[1])
    return f"line {row} differs: got {g!r}, want {w!r}"


# the int64 edges and both sides of every power of ten in between
DECIMAL_EDGES = [INT64_MIN, INT64_MAX, 0] + [
    sign * (10**k + d) for k in range(1, 19) for d in (-1, 0) for sign in (1, -1)
]
in_range = st.one_of(
    st.sampled_from(DECIMAL_EDGES),
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=INT64_MIN, max_value=INT64_MAX),
)
labels = st.one_of(
    st.none(),
    st.text(max_size=12),
    st.sampled_from(['"quoted"', "back\\slash", "two\nlines", "ünïcødé €", "\U0001f600", ""]),
)


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(in_range, min_size=1, max_size=30),
    # clock columns that cross 10, 100 and 10^5 rows
    t=st.one_of(
        st.integers(min_value=1, max_value=120),
        st.sampled_from([9, 10, 11, 99, 100, 101, 99_999, 100_000, 100_001]),
    ),
    label=labels,
)
def test_writers_match_row_writers(values, t, label):
    trace = Trace(np.resize(np.array(values, dtype=np.int64), t), label)
    _assert_same_text(trace_to_csv(trace), _row_writer_csv(trace))
    _assert_same_text(trace_to_json(trace), _row_writer_json(trace))


@pytest.mark.parametrize("wide", [1 << 62, INT64_MIN], ids=["2^62", "-2^63"])
@pytest.mark.parametrize("where", ["second-block", "last-row"])
def test_writers_one_wide_value_among_zeros(wide, where):
    # each block's digit loop stops at its own widest value: only the block
    # holding the wide value may write past the units column
    samples = np.zeros(2 * _TEXT_BLOCK + 7, dtype=np.int64)
    samples[_TEXT_BLOCK + 123 if where == "second-block" else -1] = wide
    trace = Trace(samples)
    _assert_same_text(trace_to_csv(trace), _row_writer_csv(trace))
    _assert_same_text(trace_to_json(trace), _row_writer_json(trace))

def _golden_traces() -> dict[str, Trace]:
    clocks = np.arange(110_000, dtype=np.int64)
    # widths from 1 to 13 digits, both signs, label with JSON escapes
    mixed = ((clocks * 2654435761) % (1 << 41) - (1 << 40)) >> (clocks % 41)
    return {
        "mixed": Trace(mixed, 'mixed "q" \\ \u00fc\n'),
        "edges": Trace(DECIMAL_EDGES),
    }


# SHA-256 of the UTF-8 text, as the per-row writers produced it
GOLDEN_TEXT_DIGESTS = {
    ("mixed", "csv"): "2351f82158806ca98827401411d577b73f1a3063c5393598ec885b5130b3c742",
    ("mixed", "json"): "45f6510c1d0b47de46f68401f38ab38a2fe0d92819aff88bdee3e4f4cc96a7c8",
    ("edges", "csv"): "61b7d97ca609888926bfba7d5147175148a8f3a3fa240905a61b813c9b1a9534",
    ("edges", "json"): "aafb465fb21183e18df8736772eb346b04de931a0dacce8f4e9c520d717ccb1a",
}


@pytest.mark.parametrize(
    "name,fmt", list(GOLDEN_TEXT_DIGESTS), ids=[f"{n}-{f}" for n, f in GOLDEN_TEXT_DIGESTS]
)
def test_writer_golden_digest(name, fmt):
    writer = trace_to_csv if fmt == "csv" else trace_to_json
    text = writer(_golden_traces()[name])
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_TEXT_DIGESTS[name, fmt]


def _peak_bytes(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("values", [[-1, 1], [INT64_MIN, INT64_MAX]], ids=["rtw", "int64-edges"])
def test_csv_writer_peak_below_row_writer(values):
    trace = Trace(np.resize(np.array(values, dtype=np.int64), 2**17))
    assert _peak_bytes(trace_to_csv, trace) < _peak_bytes(_row_writer_csv, trace)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "amp\n0,1\n",
        "clock,amplitude\n0,1,2\n",
        "clock,amplitude\n1,1\n",  # clock column must start at 0
        "clock,amplitude\n0,x\n",
        "clock,amplitude\n",  # no samples
    ],
)
def test_csv_parse_failures(text):
    with pytest.raises(TraceParseError):
        trace_from_csv(text)


@pytest.mark.parametrize(
    "text",
    [
        "{",
        "[]",
        '{"samples": "xx"}',
        '{"samples": [1.5]}',
        '{"T": 3, "samples": [1]}',
        '{"samples": [true, false]}',  # JSON booleans are not amplitudes
        '{"samples": [1, true]}',
        '{"label": "true", "samples": [1, false]}',
        '{"samples": [1, 1.0]}',
        '{"samples": [1, "2"]}',
        '{"samples": [1, null]}',
        '{"samples": [1, [2]]}',
        '{"samples": [1, {}]}',
        '{"T": true, "samples": [5]}',  # T must be an integer, not True == 1
        '{"T": 1.0, "samples": [5]}',
        '{"T": "1", "samples": [5]}',
        '{"samples": []}',  # a trace needs at least one sample
        '{"T": 0, "samples": []}',
    ],
)
def test_json_parse_failures(text):
    with pytest.raises(TraceParseError):
        trace_from_json(text)


def test_json_nesting_past_the_recursion_limit_is_a_parse_failure():
    with pytest.raises(TraceParseError, match="nested too deeply"):
        trace_from_json('{"samples": ' + "[" * 100000)


def test_json_declared_t_is_named_as_json_reads_it():
    # an integer array reads as numpy's, and is named as json's list
    with pytest.raises(TraceParseError, match=r"^declared T=\[1, 2\] but 2 samples present$"):
        trace_from_json('{"T": [1, 2], "samples": [1, -1]}')


def test_read_trace_names_a_given_format(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("clock,amplitude\n0,1\n")
    with pytest.raises(TraceParseError, match=r"^unknown trace format 'xml'$"):
        read_trace(path, fmt="xml")


def test_read_trace_names_a_suffix_it_cannot_read(tmp_path):
    path = tmp_path / "a.xml"
    path.write_text("clock,amplitude\n0,1\n")
    with pytest.raises(TraceParseError, match=r"^cannot infer trace format for 'a.xml'$"):
        read_trace(path)


def test_write_trace_infers_the_format_read_trace_infers(tmp_path):
    trace = generate_reference_system(3, 16, seed=1).high(2)
    for name, to_text in (("a.csv", trace_to_csv), ("A.JSON", trace_to_json)):
        path = write_trace(trace, tmp_path / name)
        assert path.read_bytes() == to_text(trace).encode("utf-8")
        assert read_trace(path) == trace


@pytest.mark.parametrize(
    "name,fmt,message",
    [("a.xml", "xml", "unknown trace format 'xml'"),
     ("a.txt", None, "cannot infer trace format for 'a.txt'")],
)
def test_write_trace_refuses_a_format_before_writing(tmp_path, name, fmt, message):
    trace = generate_reference_system(3, 16, seed=1).high(2)
    with pytest.raises(TraceParseError, match=f"^{message}$"):
        write_trace(trace, tmp_path / name, fmt)
    assert not (tmp_path / name).exists()


def test_read_trace_refuses_a_format_before_opening_the_file(tmp_path):
    with pytest.raises(TraceParseError, match=r"^unknown trace format 'xml'$"):
        read_trace(tmp_path / "missing.csv", fmt="xml")


def test_json_reader_takes_integers_beside_a_true_label():
    # "true" in the text makes the reader look for booleans; there are none
    trace = trace_from_json('{"label": "true", "samples": [1, 0, -9223372036854775808]}')
    assert trace.samples.tolist() == [1, 0, INT64_MIN]
    assert trace.label == "true"


@pytest.mark.parametrize("amplitude", [99999999999999999999, 1 << 63, -(1 << 63) - 1])
def test_parsers_reject_out_of_range_amplitudes(amplitude):
    with pytest.raises(TraceParseError):
        trace_from_csv(f"clock,amplitude\n0,1\n1,{amplitude}\n")
    with pytest.raises(TraceParseError):
        trace_from_json(f'{{"samples": [1, {amplitude}]}}')


# -- the CSV reader's grammar -------------------------------------------------

HEADER = "clock,amplitude\n"
MALFORMED = "malformed row after the header"

# (text, samples it parses to) or (text, pattern of the TraceParseError)
CSV_READER_TABLE = {
    "blank-lines-skipped": ("\n" + HEADER + "\n0,1\n\n1,-2\n\n", [1, -2]),
    "crlf": ("clock,amplitude\r\n0,1\r\n1,2\r\n", [1, 2]),
    "cr": ("clock,amplitude\r0,1\r1,2\r", [1, 2]),
    "no-trailing-newline": (HEADER + "0,1\n1,2", [1, 2]),
    "spaces-and-plus": (" clock,amplitude \n 0, 1\n+1,+2 \n", [1, 2]),
    "int64-min": (HEADER + f"0,{INT64_MIN}\n", [INT64_MIN]),
    "int64-max": (HEADER + f"0,{INT64_MAX}\n", [INT64_MAX]),
    "comment": (HEADER + "0,1 # x\n", MALFORMED),
    "comment-line": (HEADER + "# x\n0,1\n", MALFORMED),
    "quoted-field": (HEADER + '0,"1"\n', MALFORMED),
    "float-field": (HEADER + "0,1.0\n", MALFORMED),
    "empty-field": (HEADER + "0,\n", MALFORMED),
    "exponent-field": (HEADER + "0,1e3\n", MALFORMED),
    "underscore-digits": (HEADER + "0,1_000\n", MALFORMED),
    "non-ascii-digit": (HEADER + "0,\u0663\n", MALFORMED),
    "whitespace-only-line": (HEADER + "0,1\n  \n1,2\n", MALFORMED),
    "three-columns": (HEADER + "0,1,2\n1,2,3\n", "expected 2 columns"),
    "one-column": (HEADER + "0\n1\n", "expected 2 columns"),
    "ragged": (HEADER + "0,1\n1,2,3\n", MALFORMED),
    "header-only": (HEADER, "no samples"),
    "header-and-blank-lines": (HEADER + "\n\r\n", "no samples"),
    "wrong-header": ("clock,amplitude,x\n0,1\n", "expected header"),
    "wrong-clock": (HEADER + "0,1\n1,1\n5,1\n3,1\n", "row 2: clock column reads 5"),
    "int64-max-plus-1": (HEADER + f"0,{INT64_MAX + 1}\n", MALFORMED),
    "int64-min-minus-1": (HEADER + f"0,{INT64_MIN - 1}\n", MALFORMED),
    # inputs np.fromstring alone would read differently
    "space-after-sign": (HEADER + "0,- 1\n", MALFORMED),
    "trailing-comma": (HEADER + "0,1,\n", MALFORMED),
    "space-inside-field": (HEADER + "0,1 2\n", MALFORMED),
    "two-signs": (HEADER + "0,+-1\n", MALFORMED),
    "sign-after-digits": (HEADER + "0,1-\n", MALFORMED),
    "double-plus": (HEADER + "0,++1\n", MALFORMED),
    "sign-alone": (HEADER + "0,-\n", MALFORMED),
    "sign-then-space": (HEADER + "0,+ \n", MALFORMED),
    "leading-zero": (HEADER + "0,01\n", [1]),
    "leading-zero-clock": (HEADER + "00,1\n", [1]),
    "minus-zero": (HEADER + "0,-0\n", [0]),
    "minus-zero-clock": (HEADER + "-0,5\n", [5]),
    "tab-before-field": (HEADER + "0,\t1\n", [1]),
    "space-before-comma": (HEADER + "0 ,1\n", [1]),
    "long-leading-zeros": (HEADER + f"0,-{'0' * 30}{-INT64_MIN}\n", [INT64_MIN]),
    "digits-past-int64": (HEADER + f"0,{'9' * 5000}\n", MALFORMED),
    # only ASCII whitespace surrounds a field, and no other letter is a digit
    "non-ascii-space": (HEADER + "0,\u00a01\n", MALFORMED),
    "non-ascii-letter": (HEADER + "0,\u01fe1\n", MALFORMED),
}


@pytest.mark.parametrize(
    "text,expected", list(CSV_READER_TABLE.values()), ids=list(CSV_READER_TABLE)
)
def test_csv_reader_grammar(text, expected):
    if isinstance(expected, list):
        assert trace_from_csv(text).samples.tolist() == expected
    else:
        with pytest.raises(TraceParseError, match=expected):
            trace_from_csv(text)


def _row_parser(text: str) -> Trace:
    """Row-by-row reference parser built on ``str.split`` and ``int()``.
    ``trace_from_csv`` must agree with it on well-formed rows, including
    amplitudes just outside int64."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != "clock,amplitude":
        raise TraceParseError("expected header")
    samples = []
    for row, line in enumerate(lines[1:]):
        parts = line.split(",")
        if len(parts) != 2:
            raise TraceParseError(f"row {row}: expected 'clock,amplitude'")
        try:
            clock, amplitude = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise TraceParseError(f"row {row}: non-integer field") from exc
        if clock != row:
            raise TraceParseError(f"row {row}: clock column reads {clock}")
        samples.append(amplitude)
    if not samples:
        raise TraceParseError("trace has no samples")
    try:
        return Trace(np.array(samples, dtype=np.int64))
    except OverflowError as exc:
        raise TraceParseError("an amplitude lies outside the int64 range") from exc


# int64 values, its edges and the first values past them on either side
amplitudes = st.one_of(
    st.integers(min_value=INT64_MIN, max_value=INT64_MAX),
    st.sampled_from([INT64_MIN, INT64_MAX, INT64_MIN - 1, INT64_MAX + 1, 0, -1, 1]),
)


@given(
    samples=st.lists(amplitudes, min_size=1, max_size=40),
    blank_after=st.sets(st.integers(min_value=0, max_value=40)),
    newline=st.sampled_from(["\n", "\r\n"]),
    trailing=st.booleans(),
)
def test_csv_reader_agrees_with_row_parser(samples, blank_after, newline, trailing):
    lines = ["clock,amplitude"]
    for clock, value in enumerate(samples):
        lines.append(f"{clock},{value}")
        if clock in blank_after:
            lines.append("")
    text = newline.join(lines) + (newline if trailing else "")
    try:
        expected = _row_parser(text)
    except TraceParseError:
        with pytest.raises(TraceParseError):
            trace_from_csv(text)
    else:
        assert trace_from_csv(text) == expected


# -- the JSON reader ----------------------------------------------------------


def _json_reference(text: str) -> Trace:
    """Reference JSON reader built on ``json.loads`` and ``array("q")``.
    ``trace_from_json`` must agree with it: the same samples and label, or
    both refuse."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TraceParseError("invalid JSON") from exc
    if not isinstance(payload, dict) or not isinstance(payload.get("samples"), list):
        raise TraceParseError("expected an object with a 'samples' array")
    samples = payload["samples"]
    if any(type(v) is bool for v in samples):  # array("q") would take them as 0 and 1
        raise TraceParseError("'samples' must be an array of integers")
    try:
        words = array.array("q", samples)
    except (TypeError, OverflowError) as exc:
        raise TraceParseError("'samples' must be an array of int64 integers") from exc
    label = payload.get("label")
    if (label is not None and not isinstance(label, str)) or not words:
        raise TraceParseError("bad label or no samples")
    declared = payload.get("T", len(words))
    if type(declared) is not int or declared != len(words):
        raise TraceParseError("declared T differs")
    return Trace(np.frombuffer(words, dtype=np.int64), label)


# JSON integers in int64, and tokens that are none (or, as -0, only one of them)
json_integers = st.one_of(
    st.integers(min_value=INT64_MIN, max_value=INT64_MAX),
    st.sampled_from([INT64_MIN, INT64_MAX, INT64_MIN + 1, INT64_MAX - 1, 0, 1, -1]),
).map(str)
json_tokens = st.sampled_from([
    str(INT64_MIN - 1), str(INT64_MAX + 1), "-0", "00", "01", "-01", "+1", "1.0", "1e3",
    "true", "false", "null", "NaN", "Infinity", "[]", "[1]", "{}", '"1"', "- 1",
])
json_space = st.sampled_from(["", " ", "\n", "\t", "\r", " \n\t\r"])


@st.composite
def json_arrays(draw):
    """Half of them integer lists, the rest with tokens mixed in."""
    values = json_integers if draw(st.booleans()) else st.one_of(json_integers, json_tokens)
    items = draw(st.lists(st.tuples(json_space, values, json_space), max_size=12))
    return "[" + ",".join(a + v + b for a, v, b in items) + draw(json_space) + "]"


@st.composite
def json_documents(draw):
    members = [("samples", draw(json_arrays()))]
    for key, value in [
        ("samples", json_arrays()),  # a duplicate key: the last one wins
        ("label", st.sampled_from(["null", '"x"', '"\\u00e9\\n\\"[1]"', '"\u03bb"', "1"])),
        ("T", st.sampled_from(["0", "1", "2", "3", "true", "1.0", "[1]"])),
        ("nested", json_arrays().map(lambda a: '{"samples": ' + a + "}")),
    ]:
        if draw(st.booleans()):
            members.append((key, draw(value)))
    members = draw(st.permutations(members))
    comma = draw(st.sampled_from([",", ", ", ",\n  ", "\t,\r"]))
    colon = draw(st.sampled_from([":", ": ", " :\n"]))
    return "{" + comma.join(f'"{k}"{colon}{v}' for k, v in members) + "}" + draw(json_space)


@settings(max_examples=300, deadline=None)
@given(text=json_documents())
def test_json_reader_agrees_with_json_reference(text):
    try:
        expected = _json_reference(text)
    except TraceParseError:
        with pytest.raises(TraceParseError):
            trace_from_json(text)
    else:
        got = trace_from_json(text)
        assert got == expected and got.label == expected.label
