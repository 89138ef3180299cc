"""Symbolic oracle: mask algebra, gate semantics, universe, text format."""

import copy
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noiselogic import (
    BitString,
    ProductTerm,
    ScaleExceededError,
    SymbolicSuperposition,
    TargetIndexError,
    WidthMismatchError,
    apply_not,
    generate_reference_system,
    product_trace,
    realize,
    symbolic_universe,
    synthesize,
    xnor_targeted,
    xor_targeted,
)


def term(width, *indices):
    return ProductTerm.from_indices(width, indices)


class TestProductTerm:
    def test_product_is_symmetric_difference(self):
        # {1,2} x {1,3} -> {2,3}: the shared factor squares away
        assert term(4, 1, 2) * term(4, 1, 3) == term(4, 2, 3)

    def test_self_product_is_vacuum(self):
        p = term(4, 1, 3, 4)
        assert (p * p).mask == 0

    def test_vacuum_is_identity(self):
        p = term(4, 2, 4)
        assert p * ProductTerm.zeros(4) == p

    def test_width_mismatch(self):
        with pytest.raises(WidthMismatchError):
            term(4, 1) * term(5, 1)

    def test_text_and_value_conventions(self):
        # bit 1 is the leftmost character
        p = ProductTerm.from_text("1100")
        assert p.mask == 0b0011  # index i is mask bit i-1
        assert p.text() == "1100"
        assert p.value() == 0b1100
        assert ProductTerm.from_value(4, 0b1100) == p

    @given(st.data())
    def test_text_and_value_round_trip(self, data):
        width = data.draw(st.integers(1, 62))
        text = data.draw(st.text(alphabet="01", min_size=width, max_size=width))
        p = ProductTerm.from_text(text)
        # bit-by-bit reference: character i-1 is mask bit i-1
        assert p.mask == sum(1 << i for i, c in enumerate(text) if c == "1")
        assert p.text() == text
        value = data.draw(st.integers(0, (1 << width) - 1))
        q = ProductTerm.from_value(width, value)
        assert q.value() == value
        assert q.text() == format(value, f"0{width}b")

    def test_ones_and_zeros(self):
        assert ProductTerm.ones(3).mask == 0b111
        assert ProductTerm.zeros(3).mask == 0

    def test_out_of_range_index(self):
        with pytest.raises(WidthMismatchError):
            term(3, 4)


masks = st.integers(min_value=0, max_value=255)


class TestMaskGroup:
    """The terms of width 8 form an abelian group of exponent 2."""

    @given(masks, masks)
    def test_commutative(self, a, b):
        assert ProductTerm(8, a) * ProductTerm(8, b) == ProductTerm(8, b) * ProductTerm(8, a)

    @given(masks, masks, masks)
    def test_associative(self, a, b, c):
        pa, pb, pc = (ProductTerm(8, x) for x in (a, b, c))
        assert (pa * pb) * pc == pa * (pb * pc)

    @given(masks)
    def test_self_inverse(self, a):
        p = ProductTerm(8, a)
        assert (p * p).mask == 0

    @given(masks)
    def test_identity(self, a):
        p = ProductTerm(8, a)
        assert p * ProductTerm.zeros(8) == p


class TestSuperposition:
    def test_canonical_form_drops_zeros(self):
        s = SymbolicSuperposition(4, {3: 1, 5: 0})
        assert len(s) == 1
        assert s.terms.get(5, 0) == 0

    def test_equality_is_canonical(self):
        a = SymbolicSuperposition.of(term(4, 1), term(4, 1), term(4, 2))
        b = SymbolicSuperposition(4, {term(4, 1).mask: 2, term(4, 2).mask: 1})
        assert a == b
        assert (a == 3) is False

    def test_vacuum_differs_from_zero_signal(self):
        vac = SymbolicSuperposition.of(ProductTerm.zeros(4))
        assert vac != SymbolicSuperposition(4)

    def test_addition_merges_and_cancels(self):
        a = SymbolicSuperposition.of(term(4, 1))
        b = SymbolicSuperposition(4, {term(4, 1).mask: -1, term(4, 2).mask: 2})
        assert (a + b) == SymbolicSuperposition(4, {term(4, 2).mask: 2})
        assert not (a + SymbolicSuperposition(4, {m: -c for m, c in a.terms.items()}))

    def test_gate_xor_matches_worked_example(self):
        # XOR of 1100 against the set {1010, 1000} -> {0110, 0100}
        sup = SymbolicSuperposition.of(term(4, 1, 3), term(4, 1))
        out = sup.gate("xor", term(4, 1, 2))
        assert out == SymbolicSuperposition.of(term(4, 2, 3), term(4, 2))

    def test_gate_xnor_matches_worked_example(self):
        sup = SymbolicSuperposition.of(term(4, 1, 3), term(4, 1))
        out = sup.gate("xnor", term(4, 1, 2))
        assert out == SymbolicSuperposition.of(term(4, 1, 4), term(4, 1, 3, 4))

    def test_gate_not_flips_targets_of_every_term(self):
        # worked multi-bit inversion: {1100,1010,1000} -> {0110,0000,0010}
        sup = SymbolicSuperposition.of(term(4, 1, 2), term(4, 1, 3), term(4, 1))
        out = sup.gate("not", term(4, 1, 3))
        assert out == SymbolicSuperposition.of(
            term(4, 2, 3), ProductTerm.zeros(4), term(4, 3)
        )

    def test_gate_collision_merges_to_vacuum(self):
        p = term(4, 2, 4)
        sup = SymbolicSuperposition(4, {p.mask: 3})
        out = sup.gate("xor", p)
        assert out == SymbolicSuperposition(4, {0: 3})

    def test_xnor_equals_xor_then_full_mask(self):
        sup = SymbolicSuperposition.of(term(5, 1, 4), term(5, 2))
        operand = term(5, 2, 3)
        via_xnor = sup.gate("xnor", operand)
        via_xor = sup.gate("xor", operand).gate("xor", ProductTerm.ones(5))
        assert via_xnor == via_xor

    def test_gate_rejects_superposition_operand(self):
        sup = SymbolicSuperposition.of(term(4, 1))
        with pytest.raises(TypeError):
            sup.gate("xor", sup)

    def test_general_product_distributes(self):
        a = SymbolicSuperposition.of(term(3, 1), term(3, 2))
        b = SymbolicSuperposition.of(term(3, 2), term(3, 3))
        out = a * b
        # (A1+A2)(B1+B2) has four mask products; {1}x{2} and {2}... all distinct here
        assert out == SymbolicSuperposition.from_terms(
            3,
            [
                (term(3, 1, 2), 1),
                (term(3, 1, 3), 1),
                (ProductTerm.zeros(3), 1),
                (term(3, 2, 3), 1),
            ],
        )

    def test_width_mismatch(self):
        with pytest.raises(WidthMismatchError):
            SymbolicSuperposition.of(term(4, 1)) + SymbolicSuperposition.of(term(5, 1))

    def test_of_needs_a_term(self):
        with pytest.raises(ValueError, match="^need at least one term"):
            SymbolicSuperposition.of()

    def test_gate_refuses_an_unknown_kind(self):
        sup = SymbolicSuperposition.of(term(4, 1))
        with pytest.raises(ValueError, match="^unknown gate kind 'nand'$"):
            sup.gate("nand", term(4, 2))


@pytest.mark.parametrize(
    "call,error",
    [
        (lambda a: a - a, TypeError),
        (lambda a: -a, TypeError),
        (lambda a: 2 * a, TypeError),
        (lambda a: a * 2, TypeError),
        (lambda a: a + 3, TypeError),
        (lambda a: ProductTerm(4, 1) * 3, TypeError),
        (lambda a: a.product_terms(), AttributeError),
    ],
    ids=["a - b", "-a", "2 * a", "a * 2", "a + 3", "term * 3", "product_terms"],
)
def test_superpositions_have_one_sum_and_one_product(call, error):
    # a difference is a + SymbolicSuperposition(w, {m: -c ...}), a multiple
    # SymbolicSuperposition(w, {m: k * c ...}), and the terms in order a sort of .terms
    a = SymbolicSuperposition.of(term(4, 1), term(4, 2))
    with pytest.raises(error):
        call(a)


class TestUniverse:
    def test_m1(self):
        u = symbolic_universe(1)
        assert u == SymbolicSuperposition(1, {0: 1, 1: 1})

    def test_m2_term_count(self):
        u = symbolic_universe(2)
        assert len(u) == 4
        assert all(c == 1 for c in u.terms.values())

    def test_m4_binomial_structure(self):
        u = symbolic_universe(4)
        assert len(u) == 16
        by_size = {}
        for mask, c in u.terms.items():
            assert c == 1
            by_size[mask.bit_count()] = by_size.get(mask.bit_count(), 0) + 1
        assert by_size == {0: 1, 1: 4, 2: 6, 3: 4, 4: 1}

    def test_scale_cap(self):
        with pytest.raises(ScaleExceededError):
            symbolic_universe(21)


class TestTextFormat:
    def test_format_example(self):
        s = SymbolicSuperposition.of(term(4, 2, 3), term(4, 2))
        assert s.format() == "1*[0100] + 1*[0110]"
        s = SymbolicSuperposition(4, {0: -1, term(4, 1, 2).mask: 2})
        assert repr(s) == "<SymbolicSuperposition M=4 -1*[0000] + 2*[1100]>"

    @pytest.mark.parametrize("text", ["", "01x0"])
    def test_from_text_refuses_a_non_bit_string(self, text):
        with pytest.raises(WidthMismatchError, match=f"^not a bit string: {re.escape(repr(text))}$"):
            ProductTerm.from_text(text)

    def test_synthesize_refuses_a_non_bit_string(self):
        sys = generate_reference_system(2, 8, seed=1)
        with pytest.raises(WidthMismatchError, match="^not a bit string: '12'$"):
            synthesize(sys, "12")

    def test_zero_round_trip(self):
        z = SymbolicSuperposition(4)
        assert z.format() == "0"


# -- one guard per M-bit decision: every entry point it serves, one message --

SYS4 = generate_reference_system(4, 16, seed=3)
SUP4 = SymbolicSuperposition.of(ProductTerm.zeros(4))

# each receives a width-4 value and a width-5 one
WIDTH_ENTRY_POINTS = {
    "ProductTerm.__mul__": lambda w5: ProductTerm.zeros(4) * w5,
    "from_terms": lambda w5: SymbolicSuperposition.from_terms(4, [(w5, 1)]),
    "add": lambda w5: SUP4 + SymbolicSuperposition.of(w5),
    "superposition * term": lambda w5: SUP4 * w5,
    "superposition * superposition": lambda w5: SUP4 * SymbolicSuperposition.of(w5),
    "gate": lambda w5: SUP4.gate("xor", w5),
    "product_trace": lambda w5: product_trace(SYS4, w5),
    "realize": lambda w5: realize(SYS4, SymbolicSuperposition.of(w5)),
}


@pytest.mark.parametrize("call", WIDTH_ENTRY_POINTS.values(), ids=WIDTH_ENTRY_POINTS)
def test_width_guard(call):
    with pytest.raises(WidthMismatchError, match=r"^widths differ: 5 != 4$"):
        call(ProductTerm.from_value(5, 0b10110))


INDEX_ENTRY_POINTS = {
    "high": lambda i: SYS4.high(i),
    "from_indices": lambda i: ProductTerm.from_indices(4, [i]),
    "apply_not": lambda i: apply_not(SYS4, [i], SYS4.high(1)),
    "xor_targeted": lambda i: xor_targeted(SYS4, SYS4.high(1), i, 1),
    "xnor_targeted": lambda i: xnor_targeted(SYS4, SYS4.high(1), i, 1),
}


@pytest.mark.parametrize("index", [0, 5, 1.9])
@pytest.mark.parametrize("call", INDEX_ENTRY_POINTS.values(), ids=INDEX_ENTRY_POINTS)
def test_index_guard(call, index):
    # 1.9 is refused, never truncated to bit 1
    message = rf"^noise-bit indices {re.escape(repr([index]))} outside 1\.\.4$"
    with pytest.raises(TargetIndexError, match=message):
        call(index)


def test_index_guard_names_every_bad_index_and_reads_true_as_one():
    with pytest.raises(TargetIndexError, match=r"indices \[0, 5, 9, 2\.5\] outside 1\.\.4"):
        apply_not(SYS4, [9, 2, 2.5, 5, 0, 5], SYS4.high(1))
    assert ProductTerm.from_indices(4, [True]) == ProductTerm.from_indices(4, [1])
    assert SYS4.high(True) == SYS4.high(1)


def test_target_index_error_is_a_width_mismatch_error():
    assert issubclass(TargetIndexError, WidthMismatchError)
    assert issubclass(TargetIndexError, ValueError)


FIT_ENTRY_POINTS = {
    "ProductTerm": lambda w, n: ProductTerm(w, n),
    "SymbolicSuperposition": lambda w, n: SymbolicSuperposition(w, {0: 1, n: 1}),
    "from_value": lambda w, n: ProductTerm.from_value(w, n),
    "BitString": lambda w, n: BitString(w, n),
}


@pytest.mark.parametrize("width", [1, 4, 62])
@pytest.mark.parametrize("call", FIT_ENTRY_POINTS.values(), ids=FIT_ENTRY_POINTS)
def test_fit_guard(call, width):
    for n in (1 << width, -1):
        with pytest.raises(WidthMismatchError, match=f"^{n} does not fit in {width} bits$"):
            call(width, n)
    for bad_width in (0, -1, 2.0):  # a float width is refused, never truncated
        with pytest.raises(WidthMismatchError, match=f"^width {bad_width} is not an integer >= 1$"):
            call(bad_width, 0)
    call(width, (1 << width) - 1)  # the largest value that fits


@pytest.mark.parametrize("value", [1.5, "1", 2.0])
@pytest.mark.parametrize("call", FIT_ENTRY_POINTS.values(), ids=FIT_ENTRY_POINTS)
def test_fit_guard_refuses_non_integer_values(call, value):
    # operator.index's own refusal, not an accident of the range arithmetic
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        call(4, value)


@pytest.mark.parametrize("coeff", [1.5, "7", 2.9 + 0.5])
def test_from_terms_refuses_non_integer_coefficients(coeff):
    with pytest.raises(TypeError):  # int() would read them as 1, 7 and 3
        SymbolicSuperposition.from_terms(4, [(ProductTerm(4, 3), coeff)])


@pytest.mark.parametrize("terms", [{1.5: 1}, {3: 1.5}])
def test_superposition_refuses_non_integer_masks_and_coefficients(terms):
    with pytest.raises(TypeError):  # int() would truncate them to mask 1, coefficient 1
        SymbolicSuperposition(4, terms)


@pytest.mark.parametrize("gate", [xor_targeted, xnor_targeted])
def test_bit_value_guard(gate):
    with pytest.raises(ValueError, match="^bit value p must be 0 or 1$"):
        gate(SYS4, SYS4.high(1), 2, 2)


@pytest.mark.parametrize("p", [2, -1, "1", 1.0, 0.0, None])
@pytest.mark.parametrize("gate", [xor_targeted, xnor_targeted])
def test_bit_value_is_an_integer_0_or_1(gate, p):
    # a float is refused like a float index, never read as 0 or 1
    with pytest.raises(WidthMismatchError, match="^bit value p must be 0 or 1$"):
        gate(SYS4, SYS4.high(1), 2, p)


@pytest.mark.parametrize("p", [2, "1"])
@pytest.mark.parametrize("gate", [xor_targeted, xnor_targeted])
def test_index_is_checked_before_bit_value(gate, p):
    with pytest.raises(TargetIndexError, match=r"^noise-bit indices \[5\] outside 1\.\.4$"):
        gate(SYS4, SYS4.high(1), 5, p)


@pytest.mark.parametrize("gate", [xor_targeted, xnor_targeted])
def test_bit_value_true_reads_as_one(gate):
    x = SYS4.high(1)
    assert gate(SYS4, x, 2, True) == gate(SYS4, x, 2, 1)
    assert gate(SYS4, x, 2, False) == gate(SYS4, x, 2, 0)


# ProductTerm and BitString keep the integers their fit guard read, as
# SymbolicSuperposition and ReferenceSystem do: True is 1 and a numpy integer
# becomes int, so text, repr and mask arithmetic see Python ints


def test_terms_and_bit_strings_read_true_as_one():
    one = ProductTerm(True, 1)
    assert (one.width, one.text(), repr(one)) == (1, "1", "ProductTerm[1]")
    assert ProductTerm.ones(True) == one
    sys1 = generate_reference_system(1, 4, 1)
    assert product_trace(sys1, one) == sys1.high(1)
    assert BitString(True, 1).text == "1" and repr(BitString(True, 0)) == "BitString(0)"


def test_numpy_integers_work_past_64_bits():
    wide = ProductTerm(70, np.int64(5)) * ProductTerm(70, 1 << 69)
    assert wide == ProductTerm(70, 5 | 1 << 69)
    assert ProductTerm.ones(np.int64(64)) == ProductTerm(64, (1 << 64) - 1)
    for bad_width in (0, -1, 2.0):  # the fit guard's refusal, not a shift's
        with pytest.raises(WidthMismatchError, match=f"^width {bad_width} is not an integer >= 1$"):
            ProductTerm.ones(bad_width)


def test_terms_and_bit_strings_hold_python_ints():
    for x in (ProductTerm(4, np.uint8(3)), ProductTerm(np.int64(4), True)):
        assert type(x.width) is int and type(x.mask) is int
    for x in (BitString(4, np.uint8(3)), BitString(np.int64(4), True)):
        assert type(x.width) is int and type(x.value) is int


def test_bit_string_construction_converts_nothing(monkeypatch):
    def refuse(cls, width, value):
        raise AssertionError("BitString converted on construction")

    monkeypatch.setattr(ProductTerm, "from_value", classmethod(refuse))
    assert BitString(4, 12).text == "1100"


# -- the oracle against a plain dict algebra: like masks merge, zeros drop --


def dict_sum(pairs):
    acc = {}
    for mask, coeff in pairs:
        acc[mask] = acc.get(mask, 0) + coeff
    return {mask: coeff for mask, coeff in acc.items() if coeff}


def dict_product(a, b):
    return dict_sum((ma ^ mb, ca * cb) for ma, ca in a.items() for mb, cb in b.items())


@st.composite
def term_lists(draw, width):
    # a small pool of masks, so that masks repeat; coefficients may be 0 or negative
    pool = draw(st.lists(st.integers(0, (1 << width) - 1), min_size=1, max_size=4))
    pair = st.tuples(st.sampled_from(pool), st.integers(-3, 3))
    return draw(st.lists(pair, max_size=8))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_superposition_matches_dict_algebra(data):
    width = data.draw(st.integers(1, 8), label="width")
    pairs_a = data.draw(term_lists(width), label="a")
    pairs_b = data.draw(term_lists(width), label="b")
    mask = data.draw(st.integers(0, (1 << width) - 1), label="operand")
    operand, full = ProductTerm(width, mask), (1 << width) - 1

    def sup(pairs):
        terms = [(ProductTerm(width, m), c) for m, c in pairs]
        return SymbolicSuperposition.from_terms(width, terms)

    a, b = sup(pairs_a), sup(pairs_b)
    ref_a, ref_b = dict_sum(pairs_a), dict_sum(pairs_b)
    expected = {
        "from_terms": (a, ref_a),
        "of": (
            SymbolicSuperposition.of(*(ProductTerm(width, m) for m, _ in pairs_a or [(0, 1)])),
            dict_sum((m, 1) for m, _ in pairs_a or [(0, 1)]),
        ),
        "a + b": (a + b, dict_sum([*ref_a.items(), *ref_b.items()])),
        "a * term": (a * operand, {m ^ mask: c for m, c in ref_a.items()}),
        "a * b": (a * b, dict_product(ref_a, ref_b)),
        "not": (a.gate("not", operand), {m ^ mask: c for m, c in ref_a.items()}),
        "xor": (a.gate("xor", operand), {m ^ mask: c for m, c in ref_a.items()}),
        "xnor": (a.gate("xnor", operand), {m ^ mask ^ full: c for m, c in ref_a.items()}),
    }
    for name, (got, ref) in expected.items():
        assert got.width == width, name
        assert dict(got.terms) == ref, name


@pytest.mark.parametrize(
    "how",
    [copy.copy, copy.deepcopy, lambda sup: pickle.loads(pickle.dumps(sup))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_superposition_copies_are_equal_immutable_values(how):
    sup = SymbolicSuperposition(4, {0b1100: 3, 0b0011: -7, 0: 1})
    again = how(sup)
    assert again == sup and hash(again) == hash(sup)
    with pytest.raises(TypeError):
        again.terms[1] = 1
    with pytest.raises(AttributeError):
        again.width = 5
