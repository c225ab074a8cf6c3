"""Exponential polynomials: finite sums p_1(n) b_1^n + ... + p_m(n) b_m^n.

Bases live in one number field, are nonzero and pairwise distinct, and the
term list is kept sorted by the field's total order so equality is
structural.  Because distinct exponential terms are linearly independent
as sequences, an ExpPoly is the zero sequence exactly when it has no
terms.

The ring has zero divisors once roots of unity appear among base ratios
(e.g. ``(1 - (-1)^n)(1 + (-1)^n) = 0``), so there is no honest field of
fractions.  :class:`ExpPolyFraction` keeps formal numerator/denominator
factor lists instead, cancelling only structurally equal factors; that is
all the null-space elimination needs.
"""

from fractions import Fraction

from .errors import UnsupportedField
from .fields import NumberFieldElement, RATIONAL_FIELD, embed
from .polynomials import NEG_INFINITY, Poly


class ExpPoly:
    __slots__ = ("field", "terms")

    def __init__(self, field, terms):
        """Build from (base, poly) pairs; merges duplicate bases, drops zeros."""
        merged = {}
        for base, poly in terms:
            base = field.coerce(base)
            if not base:
                raise ValueError("exponential base must be nonzero")
            if isinstance(poly, Poly):
                if poly.domain != field:
                    poly = Poly(list(poly.coeffs), field, "n")
            else:
                poly = Poly([field.coerce(poly)], field, "n")
            key = base.sort_key()
            if key in merged:
                prev_base, prev_poly = merged[key]
                merged[key] = (prev_base, prev_poly + poly)
            else:
                merged[key] = (base, poly)
        cleaned = tuple(
            (base, poly) for _, (base, poly) in sorted(merged.items()) if poly
        )
        self.field = field
        self.terms = cleaned

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, field=RATIONAL_FIELD):
        return cls(field, [])

    @classmethod
    def constant(cls, value, field=RATIONAL_FIELD):
        return cls(field, [(field.one, Poly([field.coerce(value)], field, "n"))])

    @classmethod
    def geometric(cls, base, field=RATIONAL_FIELD, poly=1):
        return cls(field, [(base, poly)])

    @classmethod
    def from_poly(cls, poly, field=None):
        """A polynomial sequence p(n) seen as p(n) * 1^n."""
        if field is None:
            field = poly.domain if isinstance(poly.domain, type(RATIONAL_FIELD)) else RATIONAL_FIELD
        return cls(field, [(field.one, poly)])

    def one_like(self):
        return ExpPoly.constant(1, self.field)

    # -- structure ------------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return self.field == other.field and self.terms == other.terms

    def __hash__(self):
        return hash((self.field, tuple((b.coords, p.coeffs) for b, p in self.terms)))

    @property
    def deg(self):
        """Highest polynomial degree across terms; -inf for the zero element."""
        if not self.terms:
            return NEG_INFINITY
        return max(p.degree for _, p in self.terms)

    def is_unit(self):
        """Units are c * b^n with constant c != 0."""
        return len(self.terms) == 1 and self.terms[0][1].degree == 0

    def inverse(self):
        if not self.is_unit():
            raise ZeroDivisionError(f"{self} is not invertible in the ring")
        base, poly = self.terms[0]
        inv_c = self.field.one / poly.coefficient(0)
        return ExpPoly(self.field, [(base.inverse(), Poly([inv_c], self.field, "n"))])

    # -- arithmetic -------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, ExpPoly):
            if other.field == self.field:
                return other
            try:
                return other.to_field(self.field)
            except UnsupportedField:
                # let the reflected operation try the other field
                return None
        if isinstance(other, (int, Fraction, NumberFieldElement)):
            return ExpPoly.constant(self.field.coerce(other), self.field)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return ExpPoly(self.field, list(self.terms) + list(other.terms))

    __radd__ = __add__

    def __neg__(self):
        return ExpPoly(self.field, [(b, -p) for b, p in self.terms])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        products = []
        for base_a, poly_a in self.terms:
            for base_b, poly_b in other.terms:
                products.append((base_a * base_b, poly_a * poly_b))
        return ExpPoly(self.field, products)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if exponent < 0:
            raise ValueError("negative ExpPoly power")
        result = self.one_like()
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def scale(self, value):
        value = self.field.coerce(value)
        return ExpPoly(self.field, [(b, p.scale(value)) for b, p in self.terms])

    # -- sequence view --------------------------------------------------------------

    def shift(self, offset):
        """e(n) -> e(n + offset)."""
        return self.compose_arg(1, offset)

    def compose_arg(self, mult, offset):
        """e(n) -> e(mult*n + offset) for integers mult >= 1, offset."""
        if mult < 1:
            raise ValueError("argument multiplier must be >= 1")
        out = []
        for base, poly in self.terms:
            new_poly = poly.compose_linear(mult, offset).scale(base ** offset)
            out.append((base ** mult, new_poly))
        return ExpPoly(self.field, out)

    def evaluate(self, n):
        """Exact value at integer n as a field element."""
        total = self.field.zero
        for base, poly in self.terms:
            total = total + poly.evaluate(self.field.coerce(n)) * base ** n
        return total

    def evaluate_rational(self, n):
        return self.evaluate(n).as_rational()

    def to_field(self, field):
        if field == self.field:
            return self
        if self.field.degree != 1:
            if not all(
                b.is_rational() and all(c.is_rational() for c in p.coeffs)
                for b, p in self.terms
            ):
                raise UnsupportedField(f"cannot move {self} into {field}")
            return ExpPoly(
                field,
                [
                    (
                        field.from_rational(b.as_rational()),
                        Poly([c.as_rational() for c in p.coeffs], field, "n"),
                    )
                    for b, p in self.terms
                ],
            )
        return ExpPoly(
            field,
            [
                (
                    embed(b, field),
                    Poly([embed(c, field) for c in p.coeffs], field, "n"),
                )
                for b, p in self.terms
            ],
        )

    # -- printing ---------------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for base, poly in self.terms:
            poly_str = str(poly)
            if base == self.field.one:
                parts.append(poly_str)
                continue
            base_str = str(base)
            if "/" in base_str or base_str.startswith("-") or not base_str.isdigit():
                base_str = f"({base_str})"
            if poly_str == "1":
                parts.append(f"{base_str}^n")
            else:
                if " " in poly_str or "/" in poly_str:
                    poly_str = f"({poly_str})"
                parts.append(f"{poly_str}*{base_str}^n")
        text = parts[0]
        for part in parts[1:]:
            text += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
        return text

    def __repr__(self):
        return f"ExpPoly({self})"


def deg(expression):
    """Highest polynomial degree across the terms of an ExpPoly."""
    return expression.deg


def _multiset_subtract(big, small):
    """big minus small under structural equality; small must be contained."""
    remaining = list(big)
    for item in small:
        for i, candidate in enumerate(remaining):
            if candidate == item:
                del remaining[i]
                break
        else:
            raise ValueError("multiset subtraction underflow")
    return remaining


def _multiset_union_max(first, second):
    """Per-factor max of the two multisets (a structural lcm stand-in)."""
    out = list(first)
    pool = list(first)
    for item in second:
        for i, candidate in enumerate(pool):
            if candidate == item:
                del pool[i]
                break
        else:
            out.append(item)
    return out


class ExpPolyFraction:
    """Formal quotient of ExpPoly products; no GCD reduction, only
    cancellation of structurally equal factors.  Equality is tested by
    cross-multiplying the expanded products."""

    __slots__ = ("field", "num_factors", "den_factors", "_expanded_num", "_expanded_den")

    def __init__(self, field, num_factors, den_factors=()):
        nums = []
        zero = False
        for f in num_factors:
            if not f:
                zero = True
                break
            if f.is_unit() and f.terms[0][0] == field.one and f.terms[0][1].coefficient(0) == field.one:
                continue  # drop explicit ones
            nums.append(f)
        dens = []
        if not zero:
            for f in den_factors:
                if not f:
                    raise ZeroDivisionError("zero denominator factor")
                if f.is_unit():
                    nums.append(f.inverse())
                else:
                    dens.append(f)
            # structural cancellation
            for den in list(dens):
                for i, num in enumerate(nums):
                    if num == den:
                        del nums[i]
                        dens.remove(den)
                        break
        if zero:
            nums, dens = [ExpPoly.zero(field)], []
        self.field = field
        self.num_factors = tuple(nums)
        self.den_factors = tuple(dens)
        self._expanded_num = None
        self._expanded_den = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_exppoly(cls, e):
        return cls(e.field, [e])

    @classmethod
    def zero(cls, field):
        return cls(field, [ExpPoly.zero(field)])

    @classmethod
    def one(cls, field):
        return cls(field, [])

    # -- expansion ------------------------------------------------------------

    def expanded_num(self):
        if self._expanded_num is None:
            product = ExpPoly.constant(1, self.field)
            for f in self.num_factors:
                product = product * f
            self._expanded_num = product
        return self._expanded_num

    def expanded_den(self):
        if self._expanded_den is None:
            product = ExpPoly.constant(1, self.field)
            for f in self.den_factors:
                product = product * f
            self._expanded_den = product
        return self._expanded_den

    # -- predicates --------------------------------------------------------------

    def __bool__(self):
        return all(bool(f) for f in self.num_factors)

    def is_unit_value(self):
        """True when the value is c * b^n, safe to divide by everywhere."""
        return bool(self) and all(f.is_unit() for f in self.num_factors) and not self.den_factors

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ExpPolyFraction(
                self.field, [ExpPoly.constant(other, self.field)]
            )
        if not isinstance(other, ExpPolyFraction):
            return NotImplemented
        return (
            self.expanded_num() * other.expanded_den()
            == other.expanded_num() * self.expanded_den()
        )

    # -- arithmetic -----------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, ExpPolyFraction):
            return other
        if isinstance(other, ExpPoly):
            return ExpPolyFraction(self.field, [other.to_field(self.field)])
        if isinstance(other, (int, Fraction, NumberFieldElement)):
            return ExpPolyFraction(
                self.field, [ExpPoly.constant(self.field.coerce(other), self.field)]
            )
        return None

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self or not other:
            return ExpPolyFraction.zero(self.field)
        return ExpPolyFraction(
            self.field,
            self.num_factors + other.num_factors,
            self.den_factors + other.den_factors,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division by zero fraction")
        return ExpPolyFraction(
            self.field,
            self.num_factors + other.den_factors,
            self.den_factors + other.num_factors,
        )

    def __neg__(self):
        # scale an existing rational-constant factor when possible so the
        # factor lists stay small under repeated sign flips
        nums = list(self.num_factors)
        for i, f in enumerate(nums):
            if f.is_unit() and f.terms[0][0] == self.field.one:
                nums[i] = f.scale(-1)
                break
        else:
            nums.insert(0, ExpPoly.constant(-1, self.field))
        return ExpPolyFraction(self.field, nums, self.den_factors)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        # keep factor lists intact when one side vanishes
        if not self:
            return other
        if not other:
            return self
        den = _multiset_union_max(self.den_factors, other.den_factors)
        left = self.expanded_num()
        for f in _multiset_subtract(den, self.den_factors):
            left = left * f
        right = other.expanded_num()
        for f in _multiset_subtract(den, other.den_factors):
            right = right * f
        return ExpPolyFraction(self.field, [left + right], den)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __str__(self):
        num = str(self.expanded_num())
        if not self.den_factors:
            return num
        den = " * ".join(f"({f})" for f in self.den_factors)
        return f"({num}) / ({den})"

    def __repr__(self):
        return f"ExpPolyFraction({self})"
