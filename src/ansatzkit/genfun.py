"""Conversions between recurrences and generating-function equations.

Rational generating functions cover the polynomial and constant-coefficient
classes.  Recurrences with exponential-polynomial coefficients correspond
to equations in the dilated arguments f(b*x): a sum over dilation bases b
of q_{b,j}(x) * d^j/dx^j f(b x) equal to a polynomial right side.  A
polynomial coefficient p(n) is the exponential polynomial p(n) * 1^n, so
the linear ODE of a polynomial-coefficient recurrence is the case b = 1:
``holonomic_to_diff`` and ``diff_to_holonomic`` are ``c2_to_diff`` and
``diff_to_c2`` restricted to that case.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .errors import DenominatorVanishesAtZero, UnsupportedField
from .exppoly import ExpPoly
from .fields import as_rational_poly, common_ratio
from .polynomials import (
    Poly,
    QQ,
    _trimmed,
    falling_factorial,
    forward_differences,
    rational_content,
    series_inv,
    series_mul,
)
from .ratfunc import RationalFunction
from .sequences import CoeffRing, RecurrenceSystem, ShiftOperator, leading_validity_offset


# ---------------------------------------------------------------------------
# rational generating functions


class RationalGF(RationalFunction):
    """A rational generating function P(x)/Q(x) over Q: a reduced
    ``RationalFunction`` scaled to Q(0) = 1 instead of a monic Q, so that
    it has a power series.  Equality, hashing and arithmetic are those of
    ``RationalFunction``, whose results keep the class."""

    __slots__ = ()

    def __init__(self, num, den=None):
        if isinstance(num, (list, tuple)):
            num = Poly(num, QQ, "x")
        if isinstance(den, (list, tuple)):
            den = Poly(den, QQ, "x")
        super().__init__(num, den)
        at_zero = self.den.coefficient(0)
        if not at_zero:
            raise DenominatorVanishesAtZero(
                "denominator vanishes at x=0; no power series expansion"
            )
        self.num = self.num.scale(Fraction(1) / at_zero)
        self.den = self.den.scale(Fraction(1) / at_zero)

    def series(self, count):
        """First ``count`` power series coefficients."""
        return series_mul(self.num.coeffs, series_inv(self.den.coeffs, count), count, Fraction(0))

    def partial_sum(self):
        """Generating function of the partial sums: multiply by 1/(1-x)."""
        return RationalGF(self.num, self.den * Poly([1, -1], QQ, "x"))

    def __str__(self):
        return f"({self.num}) / ({self.den})"

    def __repr__(self):
        return f"RationalGF({self})"


def genfun_polynomial(poly):
    """Generating function of the polynomial sequence a_n = poly(n): that of
    its annihilator (N - 1)^(k+1) with the values at n = 0..k."""
    k = poly.degree if poly else 0
    annihilator = ShiftOperator(CoeffRing.CONSTANT, (Poly([-1, 1], QQ, "N") ** (k + 1)).coeffs)
    values = [poly.evaluate(Fraction(n)) for n in range(k + 1)]
    return genfun_cfinite(RecurrenceSystem(annihilator, values))


def genfun_cfinite(system):
    """Generating function P(x) / (x^r T(1/x)) of a constant-coefficient
    recurrence with its initial values."""
    if system.operator.ring is not CoeffRing.CONSTANT:
        raise ValueError("constant-coefficient recurrence required")
    if system.validity_offset != 0 or system.offset != 0:
        raise ValueError("recurrence must be valid from n=0")
    c = system.operator.coeffs
    r = system.operator.order
    a = system.initials
    den = list(reversed(c))
    return RationalGF(series_mul(den, a, r, Fraction(0)), den)


def cfinite_from_rational(gf):
    """Recurrence whose solution has ``gf`` as its generating function.

    An improper fraction is split into polynomial part plus proper part;
    the polynomial part only corrects finitely many leading terms, so it
    extends the validity offset instead of the operator.
    """
    num, den = gf.num, gf.den
    r = den.degree
    poly_part_degree = -1
    if num and num.degree >= r:
        poly_part = num // den
        if poly_part:
            poly_part_degree = poly_part.degree
    validity = poly_part_degree + 1
    operator = ShiftOperator(CoeffRing.CONSTANT, list(reversed(den.coeffs)))
    initials = gf.series(validity + r)
    return RecurrenceSystem(operator, initials, validity, 0)


# ---------------------------------------------------------------------------
# differential / dilation equations


@dataclass(frozen=True)
class DiffEquation:
    """sum over bases b of [q_{b,0}(x) f(bx) + ... + q_{b,r'}(x) f^(r')(bx)] = rhs.

    ``f^(j)(bx)`` is the j-th derivative of the composite x -> f(bx).
    Terms are sorted by the base's total order; coefficients are scaled so
    the whole equation has rational content 1 and the highest (base,
    derivative, power) coefficient is positive.
    """

    field: object
    terms: tuple  # ((base, (q_0, q_1, ...)), ...)
    rhs: object

    def __init__(self, field, terms, rhs=None):
        cleaned = []
        for base, coeffs in terms:
            base = field.coerce(base)
            polys = _trimmed([_over(field, c) for c in coeffs])
            if polys:
                cleaned.append((base, tuple(polys)))
        if not cleaned:
            raise ValueError("differential equation with no left side")
        cleaned.sort(key=lambda item: item[0].sort_key())
        rhs = _over(field, 0 if rhs is None else rhs)
        cleaned, rhs = _normalize_equation(field, cleaned, rhs)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "terms", tuple(cleaned))
        object.__setattr__(self, "rhs", rhs)

    @property
    def order(self):
        return max(len(coeffs) - 1 for _, coeffs in self.terms)

    @property
    def degree(self):
        return max(
            max((p.degree for p in coeffs if p), default=0)
            for _, coeffs in self.terms
        )

    @property
    def is_homogeneous(self):
        return not self.rhs

    def coefficient(self, base, j):
        base = self.field.coerce(base)
        for b, coeffs in self.terms:
            if b == base:
                if j < len(coeffs):
                    return coeffs[j]
                break
        return Poly([], self.field, "x")

    def bases(self):
        return [b for b, _ in self.terms]

    def series_residual(self, terms, count):
        """Coefficients 0..count-1 of (left side - right side) for the power
        series with the given initial coefficients; all zero iff the series
        satisfies the equation that far."""
        field = self.field
        a = [field.coerce(t) for t in terms]
        residual = [field.zero - self.rhs.coefficient(m) for m in range(count)]
        for base, coeffs in self.terms:
            powers = [base ** p for p in range(len(a))]
            for j, q in enumerate(coeffs):
                # d^j/dx^j f(bx) has m-th coefficient (m+j)_j a_{m+j} b^(m+j)
                g = [
                    falling_factorial(m + j, j) * a[m + j] * powers[m + j]
                    for m in range(len(a) - j)
                ]
                piece = series_mul(q.coeffs, g, count, field.zero)
                residual = [x + y for x, y in zip(residual, piece)]
        return residual

    def scalar_multiple_of(self, other):
        """True when the two equations agree up to one nonzero constant factor."""
        if self.field is not other.field or len(self.terms) != len(other.terms):
            return False
        pairs = [(self.rhs.coeffs, other.rhs.coeffs)]
        for (b1, c1), (b2, c2) in zip(self.terms, other.terms):
            if b1 != b2 or len(c1) != len(c2):
                return False
            pairs.extend((p.coeffs, q.coeffs) for p, q in zip(c1, c2))
        return common_ratio(pairs) is not None

    def __str__(self):
        parts = []
        for base, coeffs in self.terms:
            base_str = str(base)
            arg = "x" if base == self.field.one else f"({base_str})*x"
            for j, q in enumerate(coeffs):
                if not q:
                    continue
                deriv = "f" + ("'" * j if j <= 3 else f"^({j})")
                parts.append(f"({q})*{deriv}({arg})")

        lhs = " + ".join(parts)
        rhs = str(self.rhs) if self.rhs else "0"
        return f"{lhs} = {rhs}"


def _over(field, value):
    """A polynomial or a constant as one in x over ``field``, coerced once."""
    if isinstance(value, Poly) and value.domain is field:
        return value
    return Poly(value.coeffs if isinstance(value, Poly) else [value], field, "x")


def _normalize_equation(field, terms, rhs):
    """The equation over its rational content, scaled once so the last
    nonzero coordinate of its leading coefficient is positive."""
    coords = []
    for _, coeffs in terms:
        for p in coeffs:
            for c in p.coeffs:
                coords.extend(c.coords)
    for c in rhs.coeffs:
        coords.extend(c.coords)
    factor = Fraction(terms[-1][1][-1].leading.canonical_sign()) / rational_content(coords)
    if factor != 1:
        scale = field.from_rational(factor)
        # tuples from lists, as in sequences.Sequence
        terms = [
            (b, tuple([p.scale(scale) for p in coeffs])) for b, coeffs in terms
        ]
        rhs = rhs.scale(scale)
    return terms, rhs


@lru_cache(maxsize=None)
def falling_basis_constants(s, t):
    """Constants c_j with sum_j c_j (n+t)_j = n^s, j = 0..s.

    (n+t)_j = j! C(n+t, j), so c_j is the j-th forward difference of
    m -> (m-t)^s at m = 0 over j!.  Memoized per (s, t); safe for
    concurrent readers.
    """
    diffs = forward_differences([(m - t) ** s for m in range(s + 1)])
    return tuple(Fraction(d, factorial(j)) for j, d in enumerate(diffs))


def holonomic_to_diff(system):
    """Differential equation satisfied by the generating function of a
    polynomial-coefficient recurrence: the dilation equation of
    :func:`c2_to_diff` with the single base 1.  Order <= degree,
    coefficient degrees <= order + degree, right side degree <= order - 1."""
    if system.operator.ring is CoeffRing.EXPPOLY:
        raise ValueError("polynomial-coefficient recurrence required")
    return c2_to_diff(system)


def homogenize(equation):
    """Differentiate the equation until the right side vanishes.

    Because f^(j)(bx) means the j-th x-derivative of the composite, one
    differentiation sends q_j to q_j' + q_{j-1} independently of the base.
    """
    terms = [(b, list(coeffs)) for b, coeffs in equation.terms]
    rhs = equation.rhs
    zero = Poly([], equation.field, "x")
    while rhs:
        new_terms = []
        for base, coeffs in terms:
            new = []
            for j in range(len(coeffs) + 1):
                upper = coeffs[j].derivative() if j < len(coeffs) else zero
                lower = coeffs[j - 1] if j >= 1 else zero
                new.append(upper + lower)
            new_terms.append((base, new))
        terms = new_terms
        rhs = rhs.derivative()
    return DiffEquation(equation.field, terms, None)


c2_homogenize = homogenize


def diff_to_holonomic(equation):
    """Recurrence for the series coefficients of a homogeneous single-base
    equation with rational coefficients; returns (operator, validity_offset).

    This is :func:`diff_to_c2` with the single base 1, whose coefficients
    p(n) * 1^n are read back as polynomials.  Order <= equation order +
    degree, coefficient degree <= equation order.
    """
    if not equation.is_homogeneous:
        raise ValueError("homogeneous equation required")
    if len(equation.terms) != 1 or equation.terms[0][0] != equation.field.one:
        raise ValueError("single-base equation required")
    _, coeffs = equation.terms[0]
    if not all(all(c.is_rational() for c in p.coeffs) for p in coeffs):
        raise UnsupportedField("rational coefficients required")
    operator, v = diff_to_c2(equation)
    operator = ShiftOperator(
        CoeffRing.POLY_N,
        [as_rational_poly(c.terms[0][1]) if c else 0 for c in operator.coeffs],
    )
    return operator, v


def c2_to_diff(system):
    """Dilation equation for the generating function of a recurrence with
    exponential-polynomial coefficients; bases come from the coefficients'
    characteristic roots."""
    if system.validity_offset != 0 or system.offset != 0:
        raise ValueError("recurrence must be valid from n=0")
    operator = system.operator
    if operator.ring is not CoeffRing.EXPPOLY:
        operator = operator.promoted(CoeffRing.EXPPOLY)
    field = operator.leading.field  # ShiftOperator keeps all coefficients in one field
    r = operator.order
    a = system.initials
    lhs = {}
    rhs = Poly([], field, "x")
    for t, coeff in enumerate(operator.coeffs):
        if not coeff:
            continue
        for base, poly in coeff.terms:
            unit = base == field.one  # every holonomic term: no powers needed
            inv_base_t = None if unit else base ** (-t)
            for s in range(poly.degree + 1):
                b = poly.coefficient(s)
                if not b:
                    continue
                b_t = b if unit else b * inv_base_t
                constants = falling_basis_constants(s, t)
                slot = lhs.setdefault(base, {})
                for j, cj in enumerate(constants):
                    if not cj:
                        continue
                    factor = b_t * field.coerce(cj)
                    term = Poly([field.zero] * (j + r - t) + [factor], field, "x")
                    slot[j] = slot.get(j, Poly([], field, "x")) + term
                rhs_piece = [field.zero] * r
                for n in range(t):
                    rhs_piece[n + r - t] = rhs_piece[n + r - t] + (
                        (b if unit else b * base ** (n - t)) * (Fraction(n - t) ** s * a[n])
                    )
                rhs = rhs + Poly(rhs_piece, field, "x")
    # DiffEquation sorts the terms by base
    terms = [
        (base, [slot.get(j, Poly([], field, "x")) for j in range(max(slot) + 1)])
        for base, slot in lhs.items()
    ]
    return DiffEquation(field, terms, rhs)


def diff_to_c2(equation):
    """Recurrence with exponential-polynomial coefficients for the series
    coefficients of a homogeneous dilation equation; returns
    (operator, validity_offset), the offset past both the dropped low
    shifts and the last natural zero of the leading coefficient."""
    if not equation.is_homogeneous:
        raise ValueError("homogeneous equation required")
    field = equation.field
    r = equation.order
    k = equation.degree
    coeff_terms = [[] for _ in range(r + k + 1)]
    for base, coeffs in equation.terms:
        unit = base == field.one
        for t, q in enumerate(coeffs):
            if not q:
                continue
            for s in range(q.degree + 1):
                b = q.coefficient(s)
                if not b:
                    continue
                shift = k + t - s
                poly = falling_factorial(Poly([shift, 1], field, "n"), t).scale(
                    b if unit else b * base ** shift
                )
                coeff_terms[shift].append((base, poly))
    exppolys = [ExpPoly(field, terms) for terms in coeff_terms]
    while exppolys and not exppolys[-1]:
        exppolys.pop()
    if not exppolys:
        raise ValueError("equation produced the zero recurrence")
    v = 0
    while not exppolys[0]:
        exppolys.pop(0)
        v += 1
    if v:
        exppolys = [e.shift(-v) for e in exppolys]
    operator = ShiftOperator(CoeffRing.EXPPOLY, exppolys)
    return operator, max(v, leading_validity_offset(operator))
