"""Exact symbolic algebra over product terms and superpositions.

The noise-free counterpart of the signal engine. A product state is fully
described by the set of noise-bit indices whose high RTW appears in the
product; multiplying two product states XORs those sets (self-products
vanish into the vacuum). Superpositions are formal integer-linear
combinations of product terms, built by one accumulator; a gate is one
product. Everything here is exact: the numeric engine's correctness oracle.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import chain
from types import MappingProxyType
from typing import Iterable, Literal, Mapping

from .errors import ScaleExceededError, TargetIndexError, WidthMismatchError

GateKind = Literal["not", "xor", "xnor"]

#: Universe enumeration cap; oracle-only, the numeric factored universe has
#: no such limit.
MAX_UNIVERSE_BITS = 20


def _require_fit(width: int, *values: int) -> int:
    """Refuse a width that is not an integer >= 1, or a value outside 0..2^width - 1;
    a value that is not an integer raises ``TypeError``."""
    bits = operator.index(width) if hasattr(width, "__index__") else 0
    if bits < 1:
        raise WidthMismatchError(f"width {width!r} is not an integer >= 1")
    for n in map(operator.index, values):
        if n < 0 or n >> bits:
            raise WidthMismatchError(f"{n} does not fit in {bits} bits")
    return bits


def _require_width(width: int, *values) -> None:
    """Refuse any value whose ``width`` is not ``width``; its width is named first."""
    for x in values:
        if x.width != width:
            raise WidthMismatchError(f"widths differ: {x.width} != {width}")


def _index_mask(width: int, indices: Iterable[int]) -> int:
    """Mask of the noise-bit ``indices``, integers in 1..width (``True`` reads as 1).
    Every other entry is named at once: integers sorted, then non-integers."""
    indices = list(indices)
    ints = {operator.index(i) for i in indices if hasattr(i, "__index__")}
    bad = sorted(k for k in ints if not 1 <= k <= width)
    bad += [i for i in indices if not hasattr(i, "__index__")]
    if bad:
        raise TargetIndexError(f"noise-bit indices {bad} outside 1..{width}")
    return sum(1 << (k - 1) for k in ints)


@dataclass(frozen=True)
class ProductTerm:
    """A product state, stored as a bitmask of high noise-bit indices.

    Bit (i-1) of ``mask`` is set iff the high reference of noise-bit i
    appears in the product. The empty mask is the vacuum (the constant-1
    signal, i.e. the all-zeros string); the full mask is the all-ones
    string. Multiplication is the symmetric difference of masks, making
    the terms of fixed width an abelian group of exponent 2.
    """

    width: int
    mask: int

    def __post_init__(self):
        # keep the integers read: True is 1, a numpy integer becomes int
        object.__setattr__(self, "width", _require_fit(self.width, self.mask))
        object.__setattr__(self, "mask", operator.index(self.mask))

    @classmethod
    def zeros(cls, width: int) -> "ProductTerm":
        return cls(width, 0)

    @classmethod
    def ones(cls, width: int) -> "ProductTerm":
        return cls(width, (1 << _require_fit(width)) - 1)

    @classmethod
    def from_indices(cls, width: int, indices: Iterable[int]) -> "ProductTerm":
        return cls(width, _index_mask(width, indices))

    @classmethod
    def from_text(cls, text: str) -> "ProductTerm":
        """Parse an MSB-first bit string such as ``"0110"`` (bit 1 leftmost)."""
        if not text or any(c not in "01" for c in text):
            raise WidthMismatchError(f"not a bit string: {text!r}")
        # character i-1 is mask bit i-1, so the reversed text is the mask's binary
        return cls(len(text), int(text[::-1], 2))

    @classmethod
    def from_value(cls, width: int, value: int) -> "ProductTerm":
        """Build from the decimal value of the MSB-first bit string."""
        width = _require_fit(width, value)
        # the reversed MSB-first digits are the mask's binary, as in from_text
        return cls(width, int(format(value, f"0{width}b")[::-1], 2))

    def text(self) -> str:
        """MSB-first bit string; bit 1 is the leftmost character."""
        return format(self.mask, f"0{self.width}b")[::-1]

    def value(self) -> int:
        """Decimal value of the MSB-first bit string."""
        return int(self.text(), 2)

    def __mul__(self, other: "ProductTerm") -> "ProductTerm":
        if not isinstance(other, ProductTerm):
            return NotImplemented
        _require_width(self.width, other)
        return ProductTerm(self.width, self.mask ^ other.mask)

    def __repr__(self) -> str:
        return f"ProductTerm[{self.text()}]"


class SymbolicSuperposition:
    """Formal integer-linear combination of product terms.

    Canonical form: zero coefficients are never stored, so two equal
    superpositions have identical term maps. Instances are immutable;
    all operations, copy and pickle included, return new values.
    """

    __slots__ = ("width", "terms")

    def __new__(cls, width: int, terms: Mapping[int, int] | None = None):
        return cls._sum(width, (terms or {}).items())

    @classmethod
    def _sum(cls, width: int, pairs: Iterable[tuple[int, int]]) -> "SymbolicSuperposition":
        """The superposition of ``(mask, coeff)`` pairs: the only builder of a
        term map. Like masks merge, zero sums are dropped, and a mask or
        coefficient that is not an integer raises ``TypeError``."""
        acc: dict[int, int] = {}
        for mask, coeff in pairs:
            mask = operator.index(mask)
            acc[mask] = acc.get(mask, 0) + operator.index(coeff)
        sup = object.__new__(cls)
        object.__setattr__(sup, "width", _require_fit(width, *acc))
        object.__setattr__(sup, "terms", MappingProxyType({m: c for m, c in acc.items() if c}))
        return sup

    def __setattr__(self, name, value):
        raise AttributeError("SymbolicSuperposition is immutable")

    def __reduce__(self):
        return type(self), (self.width, dict(self.terms))

    @classmethod
    def of(cls, *terms: ProductTerm) -> "SymbolicSuperposition":
        """Superposition of the given terms, each with coefficient 1."""
        if not terms:
            raise ValueError(
                "need at least one term; the empty sum is SymbolicSuperposition(width)"
            )
        return cls.from_terms(terms[0].width, ((term, 1) for term in terms))

    @classmethod
    def from_terms(
        cls, width: int, items: Iterable[tuple[ProductTerm, int]]
    ) -> "SymbolicSuperposition":
        items = list(items)
        _require_width(width, *(term for term, _ in items))
        return cls._sum(width, ((term.mask, coeff) for term, coeff in items))

    # -- inspection --

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymbolicSuperposition):
            return NotImplemented
        return self.width == other.width and self.terms == other.terms

    def __hash__(self):
        return hash((self.width, frozenset(self.terms.items())))

    # -- linear structure --

    def __add__(self, other):
        if not isinstance(other, SymbolicSuperposition):
            return NotImplemented
        _require_width(self.width, other)
        return self._sum(self.width, chain(self.terms.items(), other.terms.items()))

    def __mul__(self, other):
        """Product-term multiple, or general product.

        Each distributes over both sums (masks XOR, coefficients multiply).
        The general product is well defined signal-wise, but only products
        with a term carry gate semantics; see :meth:`gate`.
        """
        if not isinstance(other, (ProductTerm, SymbolicSuperposition)):
            return NotImplemented
        _require_width(self.width, other)
        factor = other.terms if isinstance(other, SymbolicSuperposition) else {other.mask: 1}
        pairs = ((m ^ n, c * k) for n, k in factor.items() for m, c in self.terms.items())
        return self._sum(self.width, pairs)

    __rmul__ = __mul__

    # -- gate semantics --

    def gate(self, kind: GateKind, operand: ProductTerm) -> "SymbolicSuperposition":
        """Apply a NOT/XOR/XNOR with a product-term operand to every term.

        Each gate is one product, ``self * operand``; XNOR multiplies by
        the all-ones term as well. Coefficients are carried through and
        like terms merge. Only product-term operands carry gate meaning;
        pass superposition operands through ``*`` explicitly if the raw
        signal product is what you want.
        """
        if not isinstance(operand, ProductTerm):
            raise TypeError(
                "gate operand must be a ProductTerm; superposition-by-superposition "
                "products have no gate semantics (use '*' for the raw signal product)"
            )
        _require_width(self.width, operand)
        if kind not in ("not", "xor", "xnor"):
            raise ValueError(f"unknown gate kind {kind!r}")
        if kind == "xnor":
            operand = operand * ProductTerm.ones(self.width)
        return self * operand

    # -- text format --

    def format(self) -> str:
        """Render as ``c1*[bits] + c2*[bits] + ...`` in ascending MSB-first
        value (the empty sum is ``0``)."""
        # fixed-width bit strings sort as their values do
        items = sorted((ProductTerm(self.width, m).text(), c) for m, c in self.terms.items())
        return " + ".join(f"{c}*[{bits}]" for bits, c in items) or "0"

    def __repr__(self) -> str:
        return f"<SymbolicSuperposition M={self.width} {self.format()}>"


def symbolic_universe(width: int) -> SymbolicSuperposition:
    """All 2^M product terms with coefficient 1: the expanded universe."""
    _require_fit(width)
    if width > MAX_UNIVERSE_BITS:
        raise ScaleExceededError(
            f"symbolic universe enumeration capped at M={MAX_UNIVERSE_BITS}; "
            "use the factored signal-domain universe for larger systems"
        )
    return SymbolicSuperposition._sum(width, ((mask, 1) for mask in range(1 << width)))
