"""The number fields the toolkit supports: Q and quadratic fields.

Characteristic roots are rational or conjugate pairs from one irreducible
quadratic factor, so a field is presented by a monic modulus t + c0 or
t^2 + c1*t + c0.  A quadratic modulus is irreducible exactly when its
discriminant c1^2 - 4*c0 is not a rational square; any other modulus raises
:class:`UnsupportedField`.  ``split_roots`` is the one place that finds the
roots of a rational polynomial in such a field: the closed forms of
constant-coefficient recurrences and the growth constants of asymptotic
templates both take them from it, and it raises
:class:`UnsupportedFactorization` for everything else.

An element a0 + a1*t (a0 in degree 1) is stored as integer numerators
(a0,) or (a0, a1) over one positive denominator, and every result is
reduced by one gcd of the denominator with the numerators, so equal
elements have equal integers.  Sums over one denominator add the
numerators; products use t^2 = -c1*t - c0 with the modulus itself held as
integers over one denominator, and inverses are the conjugate over the
norm, all in integers.  ``coords`` gives the ``Fraction`` coordinates for
printing, sorting and the readers outside this module; a rational element
hashes as its value, as ``int`` and ``Fraction`` do, and ``canonical_sign``
is the one sign rule of the relations and equations built from elements.

A field is one object per modulus, whichever way it was built, so field
equality is identity (``is``) throughout the toolkit.

Moduli are compared exactly (``compare_modulus``) and bracketed by
rationals (``abs_bounds``).  A real quadratic field is embedded with
t = (-c1 + sqrt(D))/2, D = c1^2 - 4*c0; in an imaginary one |z|^2 is the
norm, the same in both embeddings.

``common_ratio`` is the one test that two coefficient lists agree up to a
single factor; operator printing and equation comparison use it.
"""

from fractions import Fraction
from math import gcd, isqrt, lcm

from .errors import UnsupportedFactorization, UnsupportedField
from .polynomials import QQ, Poly, power, rational_roots, squarefree_decomposition


def _is_rational_square(q):
    return q >= 0 and all(isqrt(k) ** 2 == k for k in (q.numerator, q.denominator))


# minpoly.coeffs -> the one field of that modulus
_FIELDS = {}


class NumberField:
    """Q[t]/(minpoly) with a monic irreducible modulus of degree 1 or 2;
    also a Poly coefficient domain.

    There is one object per modulus: ``NumberField(m)`` returns the field
    registered for the coefficients of m, and copies and pickles return it
    too, so two fields are equal exactly when they are the same object."""

    __slots__ = ("minpoly", "degree", "low", "int_low", "zero", "one")

    def __new__(cls, minpoly):
        if isinstance(minpoly, (list, tuple)):
            minpoly = Poly(minpoly, QQ, "t")
        field = _FIELDS.get(minpoly.coeffs)
        if field is not None:
            return field
        if minpoly.degree not in (1, 2) or not minpoly.is_monic():
            raise UnsupportedField(f"field modulus {minpoly} must be monic of degree 1 or 2")
        low = minpoly.coeffs[:-1]  # (c0,) or (c0, c1)
        if minpoly.degree == 2 and _is_rational_square(low[1] ** 2 - 4 * low[0]):
            raise UnsupportedField(f"modulus {minpoly} is reducible over Q")
        field = object.__new__(cls)
        field.minpoly = minpoly
        field.degree = minpoly.degree
        field.low = low
        # (k0, k1, m) with c0 = k0/m and c1 = k1/m, for the integer product
        m = lcm(*(c.denominator for c in low))
        field.int_low = (*(c.numerator * (m // c.denominator) for c in low), m)
        field.zero = NumberFieldElement(field, (0,) * field.degree)
        field.one = field.from_rational(1)
        # a thread that registered the modulus first wins
        return _FIELDS.setdefault(minpoly.coeffs, field)

    def __reduce__(self):
        return NumberField, (self.minpoly.coeffs,)

    def __repr__(self):
        if self.degree == 1:
            return "QQ"
        return f"QQ[t]/({self.minpoly})"

    # -- domain protocol (usable as Poly coefficient domain) ---------------

    def coerce(self, value):
        if isinstance(value, NumberFieldElement):
            if value.field is self:
                return value
            if value.is_rational():
                return self.from_rational(value.as_rational())
            raise UnsupportedField(f"cannot move {value} into {self}")
        if isinstance(value, (int, Fraction)):
            return self.from_rational(value)
        raise TypeError(f"cannot coerce {value!r} into {self}")

    def from_rational(self, q):
        if not isinstance(q, (int, Fraction)):
            q = Fraction(q)
        # ints have numerator and denominator too; a Fraction is reduced
        return NumberFieldElement(
            self, (q.numerator,) + (0,) * (self.degree - 1), q.denominator
        )

    def element(self, coords):
        coords = [Fraction(c) for c in coords]
        if len(coords) > self.degree:
            rep = Poly(coords, QQ, "t") % self.minpoly
            coords = list(rep.coeffs)
        coords += [Fraction(0)] * (self.degree - len(coords))
        den = lcm(*(c.denominator for c in coords))
        return NumberFieldElement(
            self, tuple([c.numerator * (den // c.denominator) for c in coords]), den
        )

    def generator(self):
        if self.degree < 2:
            raise UnsupportedField("degree-1 field has no generator")
        return self.element([0, 1])


class NumberFieldElement:
    """(a0 + a1*t)/den in a quadratic field, or a0/den in a degree-1 field:
    integer numerators ``nums`` over one positive ``den`` with
    gcd(den, *nums) = 1, so equal elements have equal integers."""

    __slots__ = ("field", "nums", "den")

    def __init__(self, field, nums, den=1):
        """The element nums/den, reduced by one gcd; ``den`` is positive."""
        if den != 1:
            g = gcd(den, *nums)
            if g != 1:
                nums = tuple([a // g for a in nums])
                den //= g
        self.field = field
        self.nums = nums
        self.den = den

    @property
    def coords(self):
        """The rational coordinates (a0,) or (a0, a1) of a0 + a1*t."""
        den = self.den
        return tuple([Fraction(a, den) for a in self.nums])

    # -- helpers -----------------------------------------------------------

    def _same(self, other):
        if isinstance(other, NumberFieldElement):
            if other.field is self.field:
                return other
            if other.is_rational():
                return self.field.from_rational(other.as_rational())
            common_field(self.field, other.field)  # raises for two quadratic fields
            return None
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    def _lifted(self, other, name):
        """Apply the operator ``name`` in the field of ``other`` when ``self``
        is rational and ``other`` is not (``_same`` returned None for it)."""
        if not isinstance(other, NumberFieldElement):
            return NotImplemented
        return getattr(other.field.coerce(self), name)(other)

    def __bool__(self):
        return any(self.nums)

    def __eq__(self, other):
        try:
            other = self._same(other)
        except UnsupportedField:
            return False
        if other is None:
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self):
        # equal elements of different fields are rational, so hash the value,
        # as int and Fraction hash it
        if self.is_rational():
            if self.den == 1:
                return hash(self.nums[0])
            return hash(self.as_rational())
        return hash((self.field, self.nums, self.den))

    def is_rational(self):
        return not any(self.nums[1:])

    def as_rational(self):
        if not self.is_rational():
            raise UnsupportedField(f"{self} is not rational")
        return Fraction(self.nums[0], self.den)

    def sort_key(self):
        return (self.field.minpoly.coeffs, self.coords)

    def canonical_sign(self):
        """The sign of the last nonzero numerator (the denominator is
        positive), 0 for zero: relations and equations are scaled so that
        their leading coefficient has sign 1."""
        last = next((a for a in reversed(self.nums) if a), 0)
        return (last > 0) - (last < 0)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        same = self._same(other)
        if same is None:
            return self._lifted(other, "__add__")
        da, db = self.den, same.den
        if da == db:
            # tuples from lists, as in sequences.Sequence
            return NumberFieldElement(
                self.field, tuple([a + b for a, b in zip(self.nums, same.nums)]), da
            )
        return NumberFieldElement(
            self.field, tuple([a * db + b * da for a, b in zip(self.nums, same.nums)]), da * db
        )

    __radd__ = __add__

    def __neg__(self):
        return NumberFieldElement(self.field, tuple([-a for a in self.nums]), self.den)

    def __sub__(self, other):
        same = self._same(other)
        if same is None:
            return self._lifted(other, "__sub__")
        da, db = self.den, same.den
        if da == db:
            return NumberFieldElement(
                self.field, tuple([a - b for a, b in zip(self.nums, same.nums)]), da
            )
        return NumberFieldElement(
            self.field, tuple([a * db - b * da for a, b in zip(self.nums, same.nums)]), da * db
        )

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        same = self._same(other)
        if same is None:
            return self._lifted(other, "__mul__")
        field = self.field
        den = self.den * same.den
        if field.degree == 1:
            return NumberFieldElement(field, (self.nums[0] * same.nums[0],), den)
        # t^2 = -c1*t - c0 with c0 = k0/m, c1 = k1/m
        (a0, a1), (b0, b1), (k0, k1, m) = self.nums, same.nums, field.int_low
        a1b1 = a1 * b1
        return NumberFieldElement(
            field, (m * a0 * b0 - k0 * a1b1, m * (a0 * b1 + a1 * b0) - k1 * a1b1), m * den
        )

    __rmul__ = __mul__

    def _norm_numerator(self):
        """m times the norm of the numerator a0 + a1*t (c0 = k0/m, c1 = k1/m)."""
        (a0, a1), (k0, k1, m) = self.nums, self.field.int_low
        return m * a0 * a0 - k1 * a0 * a1 + k0 * a1 * a1

    def norm(self):
        """The product of the conjugates, a rational."""
        if self.field.degree == 1:
            return self.as_rational()
        return Fraction(self._norm_numerator(), self.field.int_low[2] * self.den**2)

    def inverse(self):
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        field = self.field
        if field.degree == 1:
            a = self.nums[0]
            return NumberFieldElement(field, (-self.den if a < 0 else self.den,), abs(a))
        # den times the conjugate a0 + a1*t' (t' = -c1 - t) of the numerator
        # over its norm, which is nonzero because the modulus is irreducible;
        # both carry a factor 1/m, which cancels
        (a0, a1), (_, k1, m) = self.nums, field.int_low
        norm = self._norm_numerator()
        den = self.den if norm > 0 else -self.den
        return NumberFieldElement(field, ((m * a0 - k1 * a1) * den, -m * a1 * den), abs(norm))

    def __truediv__(self, other):
        same = self._same(other)
        if same is None:
            return self._lifted(other, "__truediv__")
        return self * same.inverse()

    def __rtruediv__(self, other):
        same = self._same(other)
        if same is None:
            return self._lifted(other, "__rtruediv__")
        return same * self.inverse()

    def __pow__(self, exponent):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        if self.field.degree == 1:
            # a power of a reduced a/den is reduced
            return NumberFieldElement(self.field, (self.nums[0] ** exponent,), self.den ** exponent)
        return power(self, exponent, self.field.one)

    # -- size ------------------------------------------------------------------

    def surd(self):
        """(x, y, D) with self = x + y*sqrt(D) for t = (-c1 + sqrt(D))/2;
        (a0, 0, 0) in degree 1."""
        if self.field.degree == 1:
            return self.coords[0], Fraction(0), Fraction(0)
        (a0, a1), (c0, c1) = self.coords, self.field.low
        return a0 - a1 * c1 / 2, a1 / 2, c1 * c1 - 4 * c0

    def real_sign(self):
        """The sign of a real element (degree 1 or a real quadratic field)."""
        x, y, disc = self.surd()
        sx, sy = (x > 0) - (x < 0), (y > 0) - (y < 0)
        if not sy or sx == sy:
            return sx
        if not sx:
            return sy
        # opposite signs; x^2 = y^2 D is impossible since D is no square
        return sx if x * x > y * y * disc else sy

    def abs_bounds(self, bits):
        """Rationals lo <= |self| <= hi whose gap shrinks like 2**-bits."""
        x, y, disc = self.surd()
        if disc < 0:
            return _sqrt_bounds(self.norm(), bits)
        root_lo, root_hi = _sqrt_bounds(disc, bits)
        low, high = sorted((x + y * root_lo, x + y * root_hi))
        if low >= 0:
            return low, high
        if high <= 0:
            return -high, -low
        return Fraction(0), max(-low, high)

    # -- printing --------------------------------------------------------------

    def __str__(self):
        if self.is_rational():
            return str(self.coords[0])
        return str(Poly(self.coords, QQ, "t"))

    def __repr__(self):
        return f"NFE({self})"


RATIONAL_FIELD = NumberField(Poly([0, 1], QQ, "t"))


def _sqrt_bounds(q, bits):
    """Rationals lo <= sqrt(q) <= hi, q >= 0, with hi - lo = 2**-bits / den(q)."""
    scale = q.denominator << bits
    root = isqrt(q.numerator * q.denominator << 2 * bits)
    return Fraction(root, scale), Fraction(root + 1, scale)


def compare_modulus(a, b):
    """The sign of |a| - |b| for two elements of one field, exactly."""
    if a.surd()[2] < 0:
        diff = a.norm() - b.norm()
        return (diff > 0) - (diff < 0)
    return (a * a - b * b).real_sign()


def common_field(first, second):
    """Smallest supported field containing both; only QQ embeds elsewhere."""
    if first is second:
        return first
    if first.degree == 1:
        return second
    if second.degree == 1:
        return first
    raise UnsupportedField(
        f"no supported field contains both {first} and {second}"
    )


def as_rational_poly(poly):
    """A polynomial with rational field-element coefficients, over QQ;
    raises UnsupportedField for an irrational coefficient."""
    return Poly([c.as_rational() for c in poly.coeffs], QQ, poly.var)


def quadratic_field(poly):
    """Field presented by a monic irreducible quadratic over Q."""
    if poly.degree != 2:
        raise UnsupportedField("expected a quadratic modulus")
    monic = poly.monic()
    return NumberField(Poly(monic.coeffs, QQ, "t"))


def split_roots(poly):
    """The roots of a nonzero rational polynomial in Q or in one quadratic
    field: ``(field, [(root, multiplicity), ...])``, the rational roots first
    (zero, then ascending), then the pair t, -c1 - t of a quadratic factor
    t^2 + c1*t + c0, t the field's generator.

    ``rational_roots`` splits off the rational roots; only a cofactor of
    degree > 2 is split further, by multiplicity.  An irreducible factor of
    degree >= 3, or quadratic factors in two fields, raise
    UnsupportedFactorization."""
    rational, cofactor = rational_roots(poly)
    parts = [(cofactor, 1)] if cofactor.degree == 2 else squarefree_decomposition(cofactor)
    field = RATIONAL_FIELD
    for part, _ in parts:
        if part.degree != 2:
            raise UnsupportedFactorization(f"irreducible factor {part} of degree {part.degree}")
        try:
            field = common_field(field, quadratic_field(part))
        except UnsupportedField:
            raise UnsupportedFactorization(
                "characteristic roots span two distinct quadratic fields"
            ) from None
    roots = [(field.from_rational(root), multiplicity) for root, multiplicity in rational]
    for part, multiplicity in parts:
        gen = field.generator()
        conjugate = field.from_rational(-part.coefficient(1)) - gen
        roots += [(gen, multiplicity), (conjugate, multiplicity)]
    return field, roots


def common_ratio(pairs):
    """The one q with a = q*b coefficient by coefficient for every pair
    (a, b) of coefficient lists, or None: when two lists differ in length
    or in where they vanish, when the ratios differ, or when every
    coefficient is zero."""
    ratio = None
    for a, b in pairs:
        if len(a) != len(b):
            return None
        for x, y in zip(a, b):
            if bool(x) != bool(y):
                return None
            if x:
                r = x / y
                if ratio is None:
                    ratio = r
                elif r != ratio:
                    return None
    return ratio
