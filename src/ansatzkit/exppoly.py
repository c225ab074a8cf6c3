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
all the null-space elimination needs.  Only this module reads those lists:
one cancellation rule, ``_cancel``, and one common denominator, which sums
and ``linalg.clear_exppoly_denominators`` share.

The canonical form makes every order of evaluation give the same terms.
So sums, products, scalings and argument changes merge their terms on the
bases' integer numerators and denominator within the one field, sort them
by value, and skip the public constructor's coercion.  A fraction's factor
lists are reduced once, by its constructor; products, quotients, sums and
negations of fractions only cancel what the two operands bring together,
and fold the units c*b^n they bring into one numerator factor, so no chain
of units is expanded again and again.  A fraction caches one expansion,
its numerator's, built the first time a sum, a zero test or a cleared
vector needs it; the denominator is expanded only to cross-multiply in an
equality test.  Each operation is cheap in itself, on the same lists:
every field object has one shared zero fraction, a difference subtracts
the expanded numerators instead of adding a negated copy, and a product
or argument change of constant term polynomials takes one coefficient
product and no Taylor shift, which took the ``c2-closure`` benchmark
about 1.27 times further.

:func:`validity_offset` decides the natural zeros of an exponential
polynomial exactly.  A base ratio that is a root of unity has order 1, 2,
3, 4 or 6 in Q or a quadratic field, so with L the lcm of those orders each
residue class e(L m + j) has no such ratio left.  A class that is the zero
ExpPoly vanishes for good; on any other the term of greatest (modulus,
degree) outgrows the rest from an index bounded in rational arithmetic,
and the values below it are checked exactly.  Two top terms of equal
modulus and degree, like conjugate bases of an imaginary quadratic field,
are the Skolem-Mahler-Lech obstacle: :class:`ValidityUnproven`.
"""

from fractions import Fraction
from math import lcm
from weakref import WeakValueDictionary

from .errors import ValidityUnproven
from .fields import (
    NumberField,
    NumberFieldElement,
    RATIONAL_FIELD,
    common_field,
    compare_modulus,
)
from .polynomials import NEG_INFINITY, QQ, Poly, _signed_join, largest_natural_root, poly_gcd, power


def _canonical_terms(pairs):
    """Sorted terms with distinct bases and no zero polynomial, from (base,
    poly) pairs of one field.  Bases merge on their integers and sort by
    value, coordinate by coordinate, as numerators over a common denominator."""
    if len(pairs) == 1:
        return (pairs[0],) if pairs[0][1] else ()
    merged = {}
    for base, poly in pairs:
        key = (base.nums, base.den)
        prev = merged.get(key)
        merged[key] = (base, poly) if prev is None else (base, prev[1] + poly)
    common = lcm(*[den for _, den in merged])
    keyed = [
        (nums if den == common else tuple([a * (common // den) for a in nums]), term)
        for (nums, den), term in merged.items()
        if term[1]
    ]
    keyed.sort()
    # a tuple from a list, as in sequences.Sequence
    return tuple([term for _, term in keyed])


class ExpPoly:
    __slots__ = ("field", "terms")

    def __init__(self, field, terms):
        """Build from (base, poly) pairs; merges duplicate bases, drops zeros."""
        pairs = []
        for base, poly in terms:
            base = field.coerce(base)
            if not base:
                raise ValueError("exponential base must be nonzero")
            if not (isinstance(poly, Poly) and poly.domain == field):
                poly = Poly(poly.coeffs if isinstance(poly, Poly) else [poly], field, "n")
            pairs.append((base, poly))
        self.field = field
        self.terms = _canonical_terms(pairs)

    @classmethod
    def _of(cls, field, pairs):
        """The canonical ExpPoly of (base, poly) pairs already in ``field``:
        the public constructor without its coercion."""
        e = object.__new__(cls)
        e.field = field
        e.terms = _canonical_terms(pairs)
        return e

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, field=RATIONAL_FIELD):
        return cls._of(field, ())

    @classmethod
    def constant(cls, value, field=RATIONAL_FIELD):
        return cls(field, [(field.one, value)])

    @classmethod
    def geometric(cls, base, field=RATIONAL_FIELD, poly=1):
        return cls(field, [(base, poly)])

    @classmethod
    def from_poly(cls, poly, field=None):
        """A polynomial sequence p(n) seen as p(n) * 1^n."""
        if field is None:
            field = poly.domain if isinstance(poly.domain, NumberField) else RATIONAL_FIELD
        return cls(field, [(field.one, poly)])

    def one_like(self):
        return ExpPoly.constant(1, self.field)

    # -- structure ------------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, ExpPoly):
            return NotImplemented
        # bases and polynomials compare and hash by value, across fields too
        return self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    @property
    def deg(self):
        """Highest polynomial degree across terms; -inf for the zero element."""
        if not self.terms:
            return NEG_INFINITY
        return max(p.degree for _, p in self.terms)

    def is_unit(self):
        """Units are c * b^n with constant c != 0."""
        return len(self.terms) == 1 and len(self.terms[0][1].coeffs) == 1

    def inverse(self):
        if not self.is_unit():
            raise ZeroDivisionError(f"{self} is not invertible in the ring")
        base, poly = self.terms[0]
        inverse = poly._of([self.field.one / poly.coeffs[0]])
        return ExpPoly._of(self.field, [(base.inverse(), inverse)])

    # -- arithmetic -------------------------------------------------------------

    def _coerce(self, other):
        """``self`` and ``other`` in one field, the smaller lifted into the
        larger, or (None, None) for a foreign operand."""
        if isinstance(other, ExpPoly):
            if other.field is self.field:
                return self, other
            field = common_field(self.field, other.field)
            return self.to_field(field), other.to_field(field)
        if isinstance(other, (int, Fraction, NumberFieldElement)):
            return self, ExpPoly.constant(other, self.field)
        return None, None

    def __add__(self, other):
        a, b = self._coerce(other)
        if a is None:
            return NotImplemented
        return ExpPoly._of(a.field, a.terms + b.terms)

    __radd__ = __add__

    def __neg__(self):
        return ExpPoly._of(self.field, [(b, -p) for b, p in self.terms])

    def __sub__(self, other):
        a, b = self._coerce(other)
        if a is None:
            return NotImplemented
        return ExpPoly._of(a.field, a.terms + tuple([(base, -p) for base, p in b.terms]))

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        a, b = self._coerce(other)
        if a is None:
            return NotImplemented
        products = []
        for base_a, poly_a in a.terms:
            for base_b, poly_b in b.terms:
                if len(poly_a.coeffs) == 1 == len(poly_b.coeffs):
                    poly = poly_a._of([poly_a.coeffs[0] * poly_b.coeffs[0]])
                else:
                    poly = poly_a * poly_b
                products.append((base_a * base_b, poly))
        return ExpPoly._of(a.field, products)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if exponent < 0:
            raise ValueError("negative ExpPoly power")
        return power(self, exponent, self.one_like())

    def scale(self, value):
        value = self.field.coerce(value)
        return ExpPoly._of(self.field, [(b, p.scale(value)) for b, p in self.terms])

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
            # a constant has no shift and no scaling of its argument
            new_poly = poly if len(poly.coeffs) == 1 else poly.compose_linear(mult, offset)
            if base == self.field.one:  # a polynomial term: no powers
                out.append((base, new_poly))
            else:
                out.append((base ** mult, new_poly.scale(base ** offset)))
        return ExpPoly._of(self.field, out)

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
        return ExpPoly(field, self.terms)  # the constructor coerces into ``field``

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
        return _signed_join(parts)

    def __repr__(self):
        return f"ExpPoly({self})"


def deg(expression):
    """Highest polynomial degree across the terms of an ExpPoly."""
    return expression.deg


# -- natural zeros ----------------------------------------------------------------


def validity_offset(e):
    """One past the largest n >= 0 with e(n) = 0, 0 when there is none, or
    None when e vanishes on a whole residue class of n.

    Raises ValidityUnproven when a class's two largest terms tie."""
    bases = [base for base, _ in e.terms]
    period = 1
    for i, first in enumerate(bases):
        for second in bases[i + 1:]:
            ratio = first / second
            period = lcm(period, next((k for k in (2, 3, 4, 6) if ratio ** k == 1), 1))
    last = -1
    for j in range(period):
        part = e.compose_arg(period, j) if period > 1 else e
        if not part:
            return None
        zero = _last_zero(part)
        if zero is not None:
            last = max(last, period * zero + j)
    return last + 1


def _last_zero(e):
    """The largest m >= 0 with e(m) = 0, or None; no base ratio of e is a
    root of unity."""
    if len(e.terms) == 1:
        return _last_poly_zero(e.terms[0][1])
    top = e.terms[0]
    for term in e.terms[1:]:
        if (compare_modulus(term[0], top[0]), term[1].degree - top[1].degree) > (0, 0):
            top = term
    rest = [term for term in e.terms if term is not top]
    for base, poly in rest:
        if poly.degree == top[1].degree and not compare_modulus(base, top[0]):
            raise ValidityUnproven(
                f"validity unproven: the terms {ExpPoly(e.field, [top])} and"
                f" {ExpPoly(e.field, [(base, poly)])} tie in modulus and degree,"
                " so the zeros of the leading coefficient are not decided"
            )
    # scan exactly until the tail test shows top outgrowing the rest
    tail_holds = _tail_test(top, rest)
    powers = [e.field.one for _ in e.terms]
    last, m = None, 0
    while True:
        if not sum((poly.evaluate(m) * power for (_, poly), power in zip(e.terms, powers)), 0):
            last = m
        powers = [power * base for (base, _), power in zip(e.terms, powers)]
        m += 1
        if tail_holds(m):
            return last


def _last_poly_zero(poly):
    """The largest natural root of a polynomial over a number field, or None."""
    if poly.degree < 1:
        return None
    coords = [Poly([c.coords[i] for c in poly.coeffs], QQ, "n") for i in range(poly.domain.degree)]
    # a root of poly is a root of every coordinate
    return largest_natural_root(poly_gcd(*coords) if len(coords) > 1 else coords[0])


def _tail_test(top, rest):
    """A test of m >= 1 that, when true, shows |top(x)| > sum |rest(x)| for
    every x >= m; it turns true for all large m.

    With rationals lo <= |coefficient|, |base| <= hi, write d = deg top and
    theta_i >= |b_i|/|b_top| (1 for a base of equal modulus, whose degree is
    then lower).  Centred at s >= 0, top(x) = sum_k t_k y^k with y = x - s;
    for x >= m > s, y >= m - s and y/x >= (m - s)/m, so
    |top(x)| >= P_s(m) x^d |b_top|^x with
    P_s(m) = (lo(t_d) - sum_k hi(t_k)/(m - s)^(d-k)) ((m - s)/m)^d
    increasing in m.  That holds for any s; P(m) is the larger of P_0 and
    P_s at s the largest natural root of top and of its derivative, a
    centre that keeps the roots' cancellation out of the bound.
    |q_i(x)| <= U_i(m) x^(d_i) with
    U_i(m) = sum_k hi(c_k)/m^(d_i-k) decreasing.  Once x^(d_i-d) theta_i^x
    decreases from m on, the tail condition
    sum_i U_i(m) m^(d_i-d) theta_i^m < P(m) holds for all x >= m.
    """
    base, poly = top
    d = poly.degree
    roots = [_last_poly_zero(poly), _last_poly_zero(poly.derivative())]
    centres = {0, max([r for r in roots if r is not None], default=0)}
    bits = 16
    while True:  # refine the brackets until they separate the moduli
        lead = poly.leading.abs_bounds(bits)[0]
        floor = base.abs_bounds(bits)[0]
        thetas = []
        for other, _ in rest:
            if not compare_modulus(other, base):
                thetas.append(Fraction(1))
                continue
            ceiling = other.abs_bounds(bits)[1]
            if ceiling >= floor:
                break
            thetas.append(ceiling / floor)
        if lead and len(thetas) == len(rest):
            break
        bits *= 2
    top_his = [
        (s, [c.abs_bounds(bits)[1] for c in poly.compose_linear(1, s).coeffs[:-1]])
        for s in centres
    ]
    rest_his = [[c.abs_bounds(bits)[1] for c in q.coeffs] for _, q in rest]

    def lower(m, s, his):
        """P_s(m) when m > s and it is positive, else 0."""
        if m <= s:
            return 0
        bound = lead - sum(h / (m - s) ** (d - k) for k, h in enumerate(his))
        return max(bound, 0) * Fraction(m - s, m) ** d

    def holds(m):
        bound = max(lower(m, s, his) for s, his in top_his)
        if not bound:
            return False
        total = 0
        for (_, q), his, theta in zip(rest, rest_his, thetas):
            gap = q.degree - d
            if gap > 0 and (m + 1) ** gap * theta > m ** gap:
                return False
            size = sum(h / m ** (q.degree - k) for k, h in enumerate(his))
            total += size * Fraction(m) ** gap * theta ** m
        return total < bound

    return holds


def _is_one(f, one):
    """Whether the ExpPoly ``f`` is the constant 1 (``one`` is its field's 1)."""
    if len(f.terms) != 1:
        return False
    base, poly = f.terms[0]
    return base == one and len(poly.coeffs) == 1 and poly.coeffs[0] == one


def _unit_product(a, b):
    """a * b for units a, b: one base product and one coefficient product,
    or the general product when their fields differ."""
    if a.field is not b.field:
        return a * b
    (base_a, poly_a), (base_b, poly_b) = a.terms[0], b.terms[0]
    product = poly_a._of([poly_a.coeffs[0] * poly_b.coeffs[0]])
    return ExpPoly._of(a.field, [(base_a * base_b, product)])


def _cancel(dens, nums):
    """The factors of ``dens`` left after each one in turn cancels the first
    equal factor of the list ``nums``, which loses the ones cancelled."""
    left = []
    for den in dens:
        for i, num in enumerate(nums):
            if num == den:
                del nums[i]
                break
        else:
            left.append(den)
    return left


def _over_common_denominator(fractions):
    """The common denominator list of ``fractions`` and each one's expanded
    numerator over it.  Each nonzero fraction's list in turn adds the
    factors that the common list so far does not cancel (a structural lcm),
    and its numerator is multiplied by the common factors its own list does
    not cancel, so no ring division is attempted."""
    common = []
    for f in fractions:
        if f:
            common += _cancel(f.den_factors, list(common))
    numerators = []
    for f in fractions:
        value = f.expanded_num()
        if value:
            missing = list(common)
            _cancel(f.den_factors, missing)
            for factor in missing:
                value = value * factor
        numerators.append(value)
    return common, numerators


# id(field) -> the zero fraction of that field.  An entry lives only as long
# as its zero, which holds the field, so no id is reused while it is listed.
_ZEROS = WeakValueDictionary()


class ExpPolyFraction:
    """Formal quotient of ExpPoly products; no GCD reduction, only
    cancellation of structurally equal factors.  Equality is tested by
    cross-multiplying the expanded products; against zero, by the
    numerator alone.

    The constructor reduces its factor lists: a zero factor makes the zero
    fraction, a unit denominator becomes its inverse in the numerator, the
    numerator's units multiply into one factor, first and dropped when it
    is one, and equal factors cancel in pairs.  So a fraction's lists hold
    no zero (but the zero fraction's one factor), no one, no unit
    denominator, at most one unit numerator, first, and no numerator equal
    to a denominator.  Products, quotients, sums and negations of such
    operands rely on that: they build, through ``_of``, the very lists the
    constructor would, but only cancel what can meet, the factors of one
    operand against those of the other, and never re-test the factors
    they keep.

    Products, quotients and negations join factor lists; expanding them is
    the cost.  What keeps it low: the numerator's expansion is cached, as
    sums and zero tests read it again and again; the operands' units fold
    into one as they join, one term times one term, so an expansion
    multiplies in one unit however many pivots, signs and products brought
    it; a zero test with at most one non-unit numerator factor expands
    nothing; and negation negates the unit, so sign flips do not lengthen
    the factor list."""

    __slots__ = ("field", "num_factors", "den_factors", "_expanded_num", "__weakref__")

    def __init__(self, field, num_factors, den_factors=()):
        nums = list(num_factors)
        if not all(nums):
            self._set(field, [ExpPoly.zero(field)], [])
            return
        dens = []
        for f in den_factors:
            if not f:
                raise ZeroDivisionError("zero denominator factor")
            if f.is_unit():
                nums.append(f.inverse())
            else:
                dens.append(f)
        self._set(field, nums, _cancel(dens, nums))

    def _set(self, field, nums, dens):
        """Store the lists, the units of ``nums`` folded into one leading
        factor, dropped when it is one."""
        unit = None
        others = []
        for f in nums:
            if len(f.terms) == 1 and len(f.terms[0][1].coeffs) == 1:  # f.is_unit(), inlined
                unit = f if unit is None else _unit_product(unit, f)
            else:
                others.append(f)
        if unit is not None and not _is_one(unit, field.one):
            others.insert(0, unit)
        self.field = field
        self.num_factors = tuple(others)
        self.den_factors = tuple(dens)
        self._expanded_num = None

    @classmethod
    def _of(cls, field, nums, dens):
        """The fraction of factor lists that are reduced but for their
        units: the constructor without its checks and cancellation."""
        fraction = object.__new__(cls)
        fraction._set(field, nums, dens)
        return fraction

    @classmethod
    def _of_sum(cls, field, den, total):
        """The fraction ``total`` over the common denominator list ``den`` of
        a sum or difference: the denominators are reduced already, so only
        the new numerator may cancel."""
        if not total:
            return cls.zero(field)
        nums = [] if _is_one(total, field.one) else [total]
        return cls._of(field, nums, _cancel(den, nums))

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_exppoly(cls, e):
        return cls(e.field, [e])

    @classmethod
    def zero(cls, field):
        """The zero fraction of ``field``, shared: one object per field
        object while any holder keeps it.  Equal fields of distinct objects
        get one each, as a fraction keeps the field object it is given."""
        zero = _ZEROS.get(id(field))
        if zero is None:
            zero = _ZEROS[id(field)] = cls(field, [ExpPoly.zero(field)])
        return zero

    @classmethod
    def one(cls, field):
        return cls(field, [])

    # -- expansion ------------------------------------------------------------

    def _product(self, factors):
        """The product of ``factors``, in the join of their fields and ours."""
        if factors and factors[0].field == self.field:
            product = factors[0]
            factors = factors[1:]
        else:
            product = ExpPoly.constant(1, self.field)
        for f in factors:
            product = product * f
        return product

    def expanded_num(self):
        if self._expanded_num is None:
            self._expanded_num = self._product(self.num_factors)
        return self._expanded_num

    def expanded_den(self):
        return self._product(self.den_factors)

    # -- predicates --------------------------------------------------------------

    def __bool__(self):
        """Whether the value is nonzero.  The zero fraction's factor decides
        it, and so does a unit with at most one other factor, which is no
        zero divisor; only a product of two or more non-units (which may be
        zero divisors) is expanded."""
        if self._expanded_num is not None:
            return bool(self._expanded_num)
        nums = self.num_factors
        if not nums:
            return True
        if not nums[0]:
            return False
        return len(nums) - nums[0].is_unit() <= 1 or bool(self.expanded_num())

    def is_unit_value(self):
        """True when the value is c * b^n, safe to divide by everywhere: no
        denominator and no numerator but the unit."""
        return not self.den_factors and all(f.is_unit() for f in self.num_factors)

    def _is_zero_form(self):
        """Whether the factor list is the zero fraction's (a zero factor
        replaces the whole numerator)."""
        return bool(self.num_factors) and not self.num_factors[0]

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ExpPolyFraction(
                self.field, [ExpPoly.constant(other, self.field)]
            )
        if not isinstance(other, ExpPolyFraction):
            return NotImplemented
        # against zero only the numerator counts
        if other._is_zero_form():
            return not self
        if self._is_zero_form():
            return not other
        return (
            self.expanded_num() * other.expanded_den()
            == other.expanded_num() * self.expanded_den()
        )

    # -- arithmetic -----------------------------------------------------------------

    def _coerce(self, other):
        """``self`` and ``other`` as fractions over one field, the smaller
        lifted into the larger, or (None, None) for a foreign operand."""
        if isinstance(other, ExpPolyFraction):
            if other.field is self.field:
                return self, other
        elif isinstance(other, (int, Fraction)):
            return self, ExpPolyFraction(self.field, [ExpPoly.constant(other, self.field)])
        elif isinstance(other, NumberFieldElement):
            other = ExpPolyFraction(other.field, [ExpPoly.constant(other, other.field)])
        elif isinstance(other, ExpPoly):
            other = ExpPolyFraction.from_exppoly(other)
        else:
            return None, None
        field = common_field(self.field, other.field)
        return self.to_field(field), other.to_field(field)

    def to_field(self, field):
        if field == self.field:
            return self
        return ExpPolyFraction(
            field,
            [f.to_field(field) for f in self.num_factors],
            [f.to_field(field) for f in self.den_factors],
        )

    def __mul__(self, other):
        a, b = self._coerce(other)
        if a is None:
            return NotImplemented
        if not a or not b:
            return ExpPolyFraction.zero(a.field)
        # a's denominators meet only b's numerators, and b's only a's
        nums_a, nums_b = list(a.num_factors), list(b.num_factors)
        dens = _cancel(a.den_factors, nums_b) + _cancel(b.den_factors, nums_a)
        return ExpPolyFraction._of(a.field, nums_a + nums_b, dens)

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self._coerce(other)
        if a is None:
            return NotImplemented
        if not b:
            raise ZeroDivisionError("division by zero fraction")
        if a._is_zero_form():
            return ExpPolyFraction.zero(a.field)
        # b's unit numerator inverts into the numerator; a's denominators
        # meet only b's, and b's other numerators only a's numerators
        inverses = [f.inverse() for f in b.num_factors if f.is_unit()]
        nums_a, nums_b = list(a.num_factors), list(b.den_factors)
        dens = _cancel(a.den_factors, nums_b) + _cancel(
            [f for f in b.num_factors if not f.is_unit()], nums_a
        )
        return ExpPolyFraction._of(a.field, nums_a + nums_b + inverses, dens)

    def __neg__(self):
        if self._is_zero_form():
            return self
        # negate the one unit factor, or put a -1 in its place
        nums = list(self.num_factors)
        if nums and nums[0].is_unit():
            nums[0] = -nums[0]
        else:
            nums.insert(0, ExpPoly.constant(-1, self.field))
        return ExpPolyFraction._of(self.field, nums, self.den_factors)

    def __add__(self, other):
        a, b = self._coerce(other)
        if a is None:
            return NotImplemented
        # keep factor lists intact when one side vanishes
        if not a:
            return b
        if not b:
            return a
        den, (left, right) = _over_common_denominator([a, b])
        return ExpPolyFraction._of_sum(a.field, den, left + right)

    __radd__ = __add__

    def __sub__(self, other):
        """a + (-b) without the negated copy: the same zero tests in the
        same order, and the same lists."""
        a, b = self._coerce(other)
        if a is None:
            return NotImplemented
        if not a:
            return -b
        if not b:
            return a
        den, (left, right) = _over_common_denominator([a, b])
        return ExpPolyFraction._of_sum(a.field, den, left - right)

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
