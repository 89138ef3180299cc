"""Sample ownership: every produced trace owns one read-only int64 array.

``Trace(arr)`` copies the caller's array; the library's producers compute
into one fresh array and hand it over, so a result shares memory with no
input and costs one T-sample array, not several.
"""

import tracemalloc

import numpy as np
import pytest

from noiselogic import (
    SymbolicSuperposition,
    Trace,
    apply_not,
    check_orthogonality,
    generate_reference_system,
    product_trace,
    read_trace,
    realize,
    superpose,
    synthesize,
    trace_from_csv,
    trace_from_json,
    trace_to_csv,
    trace_to_json,
    universe,
    write_trace,
    xnor_pair,
    xnor_targeted,
    xor_pair,
    xor_targeted,
)
from noiselogic.oracle import ProductTerm

M, T = 62, 1 << 17
#: Bytes of one T-sample int64 array.
OUTPUT = 8 * T


@pytest.fixture(scope="module")
def sys_():
    return generate_reference_system(M, T, seed=5)


@pytest.fixture(scope="module")
def operands(sys_):
    x = realize(sys_, SymbolicSuperposition(M, {3: 5, 7: -2, 1 << 40: 8}))
    return x, sys_.high(3)


def _producers(sys_, x, h, tmp_path):
    """(name, thunk) for every public producer of a T-sample trace."""
    sup = SymbolicSuperposition(M, {0: 1, 5: -3, (1 << 61) | 9: 7})
    csv_path = write_trace(x, tmp_path / "x.csv")
    return [
        ("ReferenceSystem.high", lambda: sys_.high(7)),
        ("ReferenceSystem.low", lambda: sys_.low),
        ("product_trace ones", lambda: product_trace(sys_, ProductTerm.ones(M))),
        ("Trace.__mul__", lambda: x * h),
        ("product_trace", lambda: product_trace(sys_, ProductTerm(M, 0b1011))),
        ("synthesize", lambda: synthesize(sys_, "1" * M)),
        ("superpose one", lambda: superpose([x])),
        ("superpose", lambda: superpose([x, h, x])),
        ("universe", lambda: universe(sys_)),
        ("realize", lambda: realize(sys_, sup)),
        ("realize empty", lambda: realize(sys_, SymbolicSuperposition(M))),
        ("apply_not", lambda: apply_not(sys_, [1, 4], x)),
        ("xor_pair", lambda: xor_pair(x, h)),
        ("xnor_pair", lambda: xnor_pair(sys_, x, h)),
        ("xor_targeted", lambda: xor_targeted(sys_, x, 9, 1)),
        ("xnor_targeted", lambda: xnor_targeted(sys_, x, 9, 0)),
        ("trace_from_csv", lambda: trace_from_csv(trace_to_csv(x))),
        ("trace_from_json", lambda: trace_from_json(trace_to_json(x))),
        ("read_trace", lambda: read_trace(csv_path)),
    ]


def test_producers_own_read_only_samples(sys_, operands, tmp_path):
    x, h = operands
    inputs = (x.samples, h.samples, sys_.negative_masks)
    for name, produce in _producers(sys_, x, h, tmp_path):
        out = produce()
        assert out.samples.dtype == np.int64, name
        assert out.samples.shape == (T,), name
        assert not out.samples.flags.writeable, name
        for arr in inputs:
            assert not np.shares_memory(out.samples, arr), name


def test_pass_through_and_relabel_share_the_input_trace(sys_, operands):
    x, _ = operands
    # XOR with bit value 0 is the identity and returns its input
    assert xor_targeted(sys_, x, 9, 0) is x
    # a relabelled trace shares its source's read-only array
    relabelled = x.with_label("renamed")
    assert relabelled.label == "renamed" and x.label != "renamed"
    assert relabelled.samples is x.samples
    assert not relabelled.samples.flags.writeable


def test_trace_copies_the_callers_array():
    arr = np.array([1, -1, 5], dtype=np.int64)
    trace = Trace(arr)
    arr[0] = 99
    assert trace.samples.tolist() == [1, -1, 5]
    assert arr.flags.writeable  # the caller's array is left as it was
    # a list, or another dtype, is converted into the trace's own copy too
    assert Trace([1, 2]).samples.dtype == np.int64
    small = np.array([3, 4], dtype=np.int8)
    trace = Trace(small)
    small[1] = 0
    assert trace.samples.tolist() == [3, 4]


def _peak_bytes(produce) -> int:
    tracemalloc.start()
    try:
        out = produce()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.t == T
    return peak


@pytest.mark.parametrize(
    "name, outputs",
    [
        ("product_trace", 1),
        ("apply_not", 1),
        ("xor_targeted", 1),
        ("xnor_pair", 1),
        ("universe", 1),
        ("high", 1),
        ("ones", 1),
        ("realize", 2),
    ],
)
def test_producer_peak_memory(sys_, operands, name, outputs):
    # the output itself plus 2 bytes per clock for temporaries, where
    # building an operator trace first and multiplying it into the signal
    # holds two or three T-sample arrays at once
    x, h = operands
    sup = SymbolicSuperposition(M, {3: 5, 7: -2, 1 << 40: 8, 99: 1, 12345: -8})
    produce = {
        "product_trace": lambda: product_trace(sys_, ProductTerm(M, (1 << 61) | 5)),
        "apply_not": lambda: apply_not(sys_, [1, 5, 9], x),
        "xor_targeted": lambda: xor_targeted(sys_, x, 4, 1),
        "xnor_pair": lambda: xnor_pair(sys_, x, h),
        "universe": lambda: universe(sys_),
        "high": lambda: sys_.high(5),
        "ones": lambda: product_trace(sys_, ProductTerm.ones(M)),
        "realize": lambda: realize(sys_, sup),
    }[name]
    assert _peak_bytes(produce) <= outputs * OUTPUT + 2 * T


@pytest.mark.parametrize("t", [T, 2 * T])
def test_orthogonality_peak_memory_is_per_block(sys_, t):
    # the Gram kernel's temporaries are O(block * M), not O(T * M): the
    # same bound holds at twice the clocks
    sys = sys_ if t == T else generate_reference_system(M, t, seed=5)
    tracemalloc.start()
    try:
        report = check_orthogonality(sys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.t == t
    assert peak <= 4 << 20
