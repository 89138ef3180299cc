"""Exact symbolic algebra over product terms and superpositions.

The noise-free counterpart of the signal engine. A product state is fully
described by the set of noise-bit indices whose high RTW appears in the
product; multiplying two product states XORs those sets (self-products
vanish into the vacuum). Superpositions are formal integer-linear
combinations of product terms. Everything here is exact, so it can serve
as the correctness oracle for the numeric engine.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Literal, Mapping

from .errors import ScaleExceededError, WidthMismatchError

GateKind = Literal["not", "xor", "xnor"]

#: Universe enumeration cap; oracle-only, the numeric factored universe has
#: no such limit.
MAX_UNIVERSE_BITS = 20


def _check_width(width: int) -> int:
    width = int(width)
    if width < 1:
        raise WidthMismatchError("width must be at least 1")
    return width


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
        _check_width(self.width)
        if not 0 <= self.mask < (1 << self.width):
            raise WidthMismatchError(
                f"mask {self.mask:#x} does not fit in width {self.width}"
            )

    @classmethod
    def zeros(cls, width: int) -> "ProductTerm":
        return cls(width, 0)

    @classmethod
    def ones(cls, width: int) -> "ProductTerm":
        return cls(width, (1 << width) - 1)

    @classmethod
    def from_indices(cls, width: int, indices: Iterable[int]) -> "ProductTerm":
        mask = 0
        for i in indices:
            if not 1 <= i <= width:
                raise WidthMismatchError(f"noise-bit index {i} outside 1..{width}")
            mask |= 1 << (i - 1)
        return cls(width, mask)

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
        _check_width(width)
        if not 0 <= value < (1 << width):
            raise WidthMismatchError(f"value {value} does not fit in {width} bits")
        # the reversed MSB-first digits are the mask's binary, as in from_text;
        # BitString validates through here, so its digits are not checked twice
        return cls(width, int(format(value, f"0{width}b")[::-1], 2))

    @property
    def indices(self) -> frozenset[int]:
        """The noise-bit indices whose high reference is in the product."""
        return frozenset(
            i for i in range(1, self.width + 1) if self.mask >> (i - 1) & 1
        )

    @property
    def is_vacuum(self) -> bool:
        return self.mask == 0

    def text(self) -> str:
        """MSB-first bit string; bit 1 is the leftmost character."""
        return format(self.mask, f"0{self.width}b")[::-1]

    def value(self) -> int:
        """Decimal value of the MSB-first bit string."""
        return int(self.text(), 2)

    def __mul__(self, other: "ProductTerm") -> "ProductTerm":
        if not isinstance(other, ProductTerm):
            return NotImplemented
        if self.width != other.width:
            raise WidthMismatchError(f"widths differ: {self.width} != {other.width}")
        return ProductTerm(self.width, self.mask ^ other.mask)

    def __repr__(self) -> str:
        return f"ProductTerm[{self.text()}]"


class SymbolicSuperposition:
    """Formal integer-linear combination of product terms.

    Canonical form: zero coefficients are never stored, so two equal
    superpositions have identical term maps. Instances are immutable;
    all operations return new values.
    """

    __slots__ = ("width", "terms")

    def __init__(self, width: int, terms: Mapping[int, int] | None = None):
        width = _check_width(width)
        canonical: dict[int, int] = {}
        for mask, coeff in (terms or {}).items():
            mask, coeff = int(mask), int(coeff)
            if not 0 <= mask < (1 << width):
                raise WidthMismatchError(f"mask {mask:#x} does not fit in width {width}")
            if coeff:
                canonical[mask] = coeff
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "terms", MappingProxyType(canonical))

    def __setattr__(self, name, value):
        raise AttributeError("SymbolicSuperposition is immutable")

    @classmethod
    def zero(cls, width: int) -> "SymbolicSuperposition":
        return cls(width, {})

    @classmethod
    def of(cls, *terms: ProductTerm) -> "SymbolicSuperposition":
        """Superposition of the given terms, each with coefficient 1."""
        if not terms:
            raise ValueError("need at least one term; use zero(width) for the empty sum")
        return cls.from_terms(terms[0].width, ((term, 1) for term in terms))

    @classmethod
    def from_terms(
        cls, width: int, items: Iterable[tuple[ProductTerm, int]]
    ) -> "SymbolicSuperposition":
        acc: dict[int, int] = {}
        for term, coeff in items:
            if term.width != width:
                raise WidthMismatchError("term width does not match superposition width")
            acc[term.mask] = acc.get(term.mask, 0) + int(coeff)
        return cls(width, acc)

    # -- inspection --

    def coefficient(self, term: ProductTerm) -> int:
        if term.width != self.width:
            raise WidthMismatchError("term width does not match superposition width")
        return self.terms.get(term.mask, 0)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def product_terms(self) -> list[tuple[ProductTerm, int]]:
        """Terms and coefficients, sorted by the decimal string value."""
        items = [(ProductTerm(self.width, m), c) for m, c in self.terms.items()]
        items.sort(key=lambda tc: tc[0].value())
        return items

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymbolicSuperposition):
            return NotImplemented
        return self.width == other.width and dict(self.terms) == dict(other.terms)

    def __hash__(self):
        return hash((self.width, frozenset(self.terms.items())))

    # -- linear structure --

    def _combine(self, other: "SymbolicSuperposition", sign: int) -> "SymbolicSuperposition":
        if self.width != other.width:
            raise WidthMismatchError(f"widths differ: {self.width} != {other.width}")
        acc = dict(self.terms)
        for mask, coeff in other.terms.items():
            acc[mask] = acc.get(mask, 0) + sign * coeff
        return SymbolicSuperposition(self.width, acc)

    def __add__(self, other):
        if isinstance(other, SymbolicSuperposition):
            return self._combine(other, +1)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, SymbolicSuperposition):
            return self._combine(other, -1)
        return NotImplemented

    def __neg__(self):
        return SymbolicSuperposition(self.width, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        """Scalar multiple, product-term multiple, or general product.

        The general superposition product distributes multiplication over
        both sums (masks XOR, coefficients multiply). It is well defined
        signal-wise, but note that only vector-by-superposition products
        carry gate semantics; see :meth:`gate`.
        """
        if isinstance(other, (int,)):
            return SymbolicSuperposition(
                self.width, {m: c * other for m, c in self.terms.items()}
            )
        if isinstance(other, ProductTerm):
            other = SymbolicSuperposition.of(other)
        if isinstance(other, SymbolicSuperposition):
            if self.width != other.width:
                raise WidthMismatchError(f"widths differ: {self.width} != {other.width}")
            acc: dict[int, int] = {}
            for ma, ca in self.terms.items():
                for mb, cb in other.terms.items():
                    m = ma ^ mb
                    acc[m] = acc.get(m, 0) + ca * cb
            return SymbolicSuperposition(self.width, acc)
        return NotImplemented

    __rmul__ = __mul__

    # -- gate semantics --

    def gate(self, kind: GateKind, operand: ProductTerm) -> "SymbolicSuperposition":
        """Apply a NOT/XOR/XNOR with a product-term operand to every term.

        NOT and XOR multiply each term's mask by the operand mask; XNOR
        additionally by the full all-ones mask. Coefficients are carried
        through and like terms merge. Only product-term operands carry
        gate meaning; pass superposition operands through ``*`` explicitly
        if the raw signal product is what you want.
        """
        if not isinstance(operand, ProductTerm):
            raise TypeError(
                "gate operand must be a ProductTerm; superposition-by-superposition "
                "products have no gate semantics (use '*' for the raw signal product)"
            )
        if operand.width != self.width:
            raise WidthMismatchError("operand width does not match superposition width")
        if kind not in ("not", "xor", "xnor"):
            raise ValueError(f"unknown gate kind {kind!r}")
        mask = operand.mask
        if kind == "xnor":
            mask ^= (1 << self.width) - 1
        return SymbolicSuperposition(
            self.width, {m ^ mask: c for m, c in self.terms.items()}
        )

    # -- text format --

    def format(self) -> str:
        """Render as ``c1*[bits] + c2*[bits] + ...`` (empty sum is ``0``)."""
        items = self.product_terms()
        if not items:
            return "0"
        return " + ".join(f"{c}*[{term.text()}]" for term, c in items)

    _TERM_RE = re.compile(r"^(-?[0-9]+)\*\[([01]+)\]$")

    @classmethod
    def parse(cls, text: str, width: int | None = None) -> "SymbolicSuperposition":
        """Parse the :meth:`format` grammar. ``width`` is required for ``"0"``."""
        text = text.strip()
        if text == "0":
            if width is None:
                raise ValueError("parsing the empty superposition requires a width")
            return cls.zero(width)
        acc: dict[int, int] = {}
        for part in text.split("+"):
            m = cls._TERM_RE.match(part.strip())
            if m is None:
                raise ValueError(f"cannot parse superposition term {part.strip()!r}")
            coeff, bits = int(m.group(1)), m.group(2)
            if width is None:
                width = len(bits)
            elif len(bits) != width:
                raise WidthMismatchError(
                    f"term [{bits}] has width {len(bits)}, expected {width}"
                )
            mask = ProductTerm.from_text(bits).mask
            acc[mask] = acc.get(mask, 0) + coeff
        return cls(width, acc)

    def __repr__(self) -> str:
        return f"<SymbolicSuperposition M={self.width} {self.format()}>"


def symbolic_universe(width: int) -> SymbolicSuperposition:
    """All 2^M product terms with coefficient 1: the expanded universe."""
    _check_width(width)
    if width > MAX_UNIVERSE_BITS:
        raise ScaleExceededError(
            f"symbolic universe enumeration capped at M={MAX_UNIVERSE_BITS}; "
            "use the factored signal-domain universe for larger systems"
        )
    return SymbolicSuperposition(width, {mask: 1 for mask in range(1 << width)})
