"""Reference noise system: generation, algebra, orthogonality, serialization."""

import hashlib
import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noiselogic import (
    AmplitudeOverflowError,
    DimensionError,
    LengthMismatchError,
    Trace,
    TraceParseError,
    check_orthogonality,
    generate_reference_system,
    low_reference,
    multiply_traces,
    trace_from_csv,
    trace_from_json,
    trace_to_csv,
    trace_to_json,
)
from noiselogic.reference import _TEXT_BLOCK


def test_generation_domain():
    sys = generate_reference_system(4, 100, seed=7)
    assert sys.m == 4 and sys.t == 100
    assert len(sys.highs) == 4
    for high in sys.highs:
        assert high.t == 100
        assert set(np.unique(high.samples)) <= {-1, 1}


# SHA-256 of negative_masks.tobytes(): any change to the generator's stream
# (mixing, key/clock arithmetic or bit packing) shows up here.
GOLDEN_MASK_DIGESTS = {
    (4, 128, 7): "72d2665194271b32c086e356b2408f85ab814c199ae9710e596255100f7e5592",
    (62, 4096, 2**64 - 1): "9241082845230aff37a5fcef3faac514f1f1acdec2169e33d907be24641904df",
    # two full generation blocks of 2^15 clocks and a partial third
    (62, 2**16 + 3, 11): "224478e6c7c75176e3f3f844ca5fb96624c6aec454c6685965318f578b7837fc",
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
    for high in sys.highs:
        assert abs(high.samples.mean()) <= bound


def test_low_reference_values():
    assert list(low_reference(5).samples) == [1, 1, 1, 1, 1]
    assert list(low_reference(1).samples) == [1]
    with pytest.raises(DimensionError):
        low_reference(0)


def test_low_reference_is_multiplicative_identity():
    sys = generate_reference_system(2, 50, seed=5)
    x = sys.high(2)
    assert multiply_traces(x, low_reference(50)) == x


def test_self_product_is_vacuum():
    sys = generate_reference_system(4, 200, seed=8)
    for high in sys.highs:
        assert multiply_traces(high, high) == low_reference(200)


def test_product_matches_independent_loop():
    sys = generate_reference_system(4, 100, seed=21)
    a, b = sys.high(1), sys.high(2)
    got = multiply_traces(a, b)
    expected = [int(a.samples[k]) * int(b.samples[k]) for k in range(100)]
    assert list(got.samples) == expected


def test_product_closure_stays_binary():
    sys = generate_reference_system(5, 300, seed=2)
    for i in range(1, 6):
        for k in range(i + 1, 6):
            assert multiply_traces(sys.high(i), sys.high(k)).is_binary()


def test_product_length_mismatch():
    with pytest.raises(LengthMismatchError):
        multiply_traces(low_reference(4), low_reference(5))


def test_orthogonality_self_correlation_exact():
    sys = generate_reference_system(3, 97, seed=4)
    report = check_orthogonality(sys)
    selfs = [p for p in report.pairs if p.is_self]
    assert len(selfs) == 3
    assert all(p.correlation == 1.0 and p.status == "pass" for p in selfs)


def test_orthogonality_distinct_pairs_pass():
    sys = generate_reference_system(4, 10**4, seed=42)
    report = check_orthogonality(sys, z=4)
    distinct = list(report.distinct_pairs())
    assert len(distinct) == 6
    assert all(p.status == "pass" for p in distinct)
    assert report.ok


def test_orthogonality_single_sample_inconclusive():
    # T=1 degenerates: every distinct-pair correlation is +/-1 and the
    # z/sqrt(T) bound is vacuous, so the check must not report failure
    sys = generate_reference_system(2, 1, seed=9)
    report = check_orthogonality(sys)
    (pair,) = list(report.distinct_pairs())
    assert pair.correlation in (-1.0, 1.0)
    assert pair.status == "inconclusive"
    assert report.ok


def test_orthogonality_report_dict():
    sys = generate_reference_system(2, 16, seed=1)
    d = check_orthogonality(sys).as_dict()
    assert d["T"] == 16 and d["z"] == 4.0
    assert len(d["pairs"]) == 3  # (1,1), (1,2), (2,2)


def test_trace_rejects_empty():
    with pytest.raises(DimensionError):
        Trace(np.array([], dtype=np.int64))


def test_trace_immutable():
    tr = low_reference(3)
    with pytest.raises(ValueError):
        tr.samples[0] = 5


def test_arithmetic_refuses_int64_overflow():
    big = Trace(np.array([1 << 62, -1], dtype=np.int64))
    with pytest.raises(AmplitudeOverflowError):
        big + big
    with pytest.raises(AmplitudeOverflowError):
        2 * big
    with pytest.raises(AmplitudeOverflowError):
        multiply_traces(big, Trace(np.array([2, 1], dtype=np.int64)))
    with pytest.raises(AmplitudeOverflowError):
        -Trace(np.array([-(1 << 63)], dtype=np.int64))
    # just inside the range still works
    assert (big + Trace(np.array([(1 << 62) - 1, 0]))).samples[0] == (1 << 63) - 1


def test_trace_operator_sugar():
    sys = generate_reference_system(2, 32, seed=6)
    a, b = sys.high(1), sys.high(2)
    assert a * b == multiply_traces(a, b)
    assert (a + b).samples.tolist() == (a.samples + b.samples).tolist()
    assert (2 * a).samples.tolist() == (2 * a.samples).tolist()
    assert (-a).samples.tolist() == (-a.samples).tolist()


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
    text = trace_to_csv(low_reference(2))
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
