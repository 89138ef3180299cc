"""Randomized algebraic properties of the full engine.

Hypothesis drives the small-space invariants; the master oracle-agreement
property (random gate programs mirrored symbolically) lives in the
acceptance suite with fixed seeds.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from noiselogic import (
    BitString,
    ProductTerm,
    SymbolicSuperposition,
    Trace,
    apply_not,
    decode_product,
    generate_reference_system,
    multiply_traces,
    product_trace,
    realize,
    superpose,
    synthesize,
    xnor_pair,
    xnor_targeted,
    xor_pair,
    xor_targeted,
)

widths = st.integers(min_value=1, max_value=6)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


@st.composite
def system_and_strings(draw, n_strings=2):
    m = draw(widths)
    seed = draw(seeds)
    # T >= 64 keeps the brute-force decoder unambiguous: a wrong candidate
    # survives the whole window with probability 2^-T
    t = draw(st.integers(min_value=64, max_value=160))
    sys = generate_reference_system(m, t, seed)
    values = [draw(st.integers(min_value=0, max_value=2**m - 1)) for _ in range(n_strings)]
    return sys, [BitString(m, v) for v in values]


@settings(max_examples=60, deadline=None)
@given(system_and_strings())
def test_xor_pair_decodes_to_bitwise_xor(case):
    sys, (a, b) = case
    out = xor_pair(synthesize(sys, a), synthesize(sys, b))
    assert decode_product(sys, out).to_term() == a.to_term() * b.to_term()


@settings(max_examples=60, deadline=None)
@given(system_and_strings())
def test_xnor_pair_decodes_to_bitwise_xnor(case):
    sys, (a, b) = case
    out = xnor_pair(sys, synthesize(sys, a), synthesize(sys, b))
    ones = ProductTerm.ones(sys.m)
    assert decode_product(sys, out).to_term() == a.to_term() * b.to_term() * ones


@settings(max_examples=60, deadline=None)
@given(system_and_strings())
def test_pair_gates_commute(case):
    sys, (a, b) = case
    ta, tb = synthesize(sys, a), synthesize(sys, b)
    assert xor_pair(ta, tb) == xor_pair(tb, ta)
    assert xnor_pair(sys, ta, tb) == xnor_pair(sys, tb, ta)


@settings(max_examples=60, deadline=None)
@given(system_and_strings(), st.data())
def test_gates_are_involutions(case, data):
    sys, (a, b) = case
    x = synthesize(sys, a)
    fixed = synthesize(sys, b)
    assert xor_pair(xor_pair(x, fixed), fixed) == x
    i = data.draw(st.integers(min_value=1, max_value=sys.m))
    targets = {i}
    assert apply_not(sys, targets, apply_not(sys, targets, x)) == x
    assert xor_targeted(sys, xor_targeted(sys, x, i, 1), i, 1) == x


@settings(max_examples=60, deadline=None)
@given(system_and_strings(n_strings=3))
def test_gates_distribute_over_superpositions(case):
    sys, (a, b, c) = case
    ta = synthesize(sys, a)
    tb, tc = synthesize(sys, b), synthesize(sys, c)
    sup = superpose([tb, tc])
    assert xor_pair(ta, sup) == superpose([xor_pair(ta, tb), xor_pair(ta, tc)])
    assert xnor_pair(sys, ta, sup) == superpose(
        [xnor_pair(sys, ta, tb), xnor_pair(sys, ta, tc)]
    )
    assert apply_not(sys, {1}, sup) == superpose(
        [apply_not(sys, {1}, tb), apply_not(sys, {1}, tc)]
    )


@settings(max_examples=40, deadline=None)
@given(system_and_strings(), st.data())
def test_single_clock_perturbation_stays_local(case, data):
    # instantaneity: gate output at clock t depends only on inputs at clock t
    sys, (a, b) = case
    x = synthesize(sys, a)
    other = synthesize(sys, b)
    clock = data.draw(st.integers(min_value=0, max_value=sys.t - 1))
    bumped = x.samples.copy()
    bumped[clock] += 2
    x2 = Trace(bumped)
    for gate in (
        lambda v: xor_pair(v, other),
        lambda v: xnor_pair(sys, v, other),
        lambda v: apply_not(sys, {1}, v),
        lambda v: xor_targeted(sys, v, 1, 1),
        lambda v: xnor_targeted(sys, v, 1, 0),
    ):
        before, after = gate(x), gate(x2)
        diff = before.samples != after.samples
        assert diff[clock]
        assert not np.any(np.delete(diff, clock))


@settings(max_examples=40, deadline=None)
@given(system_and_strings(n_strings=1), st.data())
def test_realize_agrees_with_symbolic_gate(case, data):
    # one-step oracle agreement for each gate kind
    sys, (a,) = case
    operand_mask = data.draw(st.integers(min_value=0, max_value=2**sys.m - 1))
    operand = ProductTerm(sys.m, operand_mask)
    state = SymbolicSuperposition.of(a.to_term())
    x = synthesize(sys, a)
    op_trace = product_trace(sys, operand)

    assert realize(sys, state.gate("xor", operand)) == xor_pair(x, op_trace)
    assert realize(sys, state.gate("xnor", operand)) == xnor_pair(sys, x, op_trace)
    if operand_mask:
        targets = operand.indices
        assert realize(sys, state.gate("not", operand)) == apply_not(sys, targets, x)


@settings(max_examples=40, deadline=None)
@given(widths, seeds)
def test_realize_is_multiplicative_on_products(m, seed):
    # the symbolic general product mirrors the sample-wise signal product
    sys = generate_reference_system(m, 64, seed)
    rng = np.random.default_rng(seed)
    sup_a = SymbolicSuperposition(
        m, {int(v): int(c) for v, c in zip(rng.integers(0, 2**m, 3), (1, -2, 1))}
    )
    sup_b = SymbolicSuperposition(
        m, {int(v): int(c) for v, c in zip(rng.integers(0, 2**m, 2), (2, 1))}
    )
    lhs = realize(sys, sup_a * sup_b)
    rhs = multiply_traces(realize(sys, sup_a), realize(sys, sup_b))
    assert lhs == rhs
