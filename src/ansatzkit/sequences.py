"""Sequence values and recurrence execution.

A :class:`ShiftOperator` is a polynomial in the left shift N whose
coefficients live in one of three rings: rational constants, polynomials
in n, or exponential polynomials (C-finite coefficients in closed form).
A :class:`RecurrenceSystem` pairs an operator with initial values and the
index from which the relation is asserted.  Everything is immutable and
exact; there is no tolerance anywhere in this module.
"""

import enum
from dataclasses import dataclass
from fractions import Fraction

from .errors import InsufficientData, LeadingAlwaysZero, LeadingCoefficientZero
from .exppoly import ExpPoly, validity_offset
from .fields import RATIONAL_FIELD, common_field
from .polynomials import Poly, QQ, _value, _zx_cleared, largest_natural_root


class CoeffRing(enum.Enum):
    """The coefficient rings in increasing order, each containing the ones
    declared before it: Q within Q[n] within the exponential polynomials
    (a polynomial p(n) is the single-base term p(n) * 1^n)."""

    CONSTANT = "constant"
    POLY_N = "poly"
    EXPPOLY = "exppoly"


_RANK = {ring: rank for rank, ring in enumerate(CoeffRing)}


def join_rings(*rings):
    """The smallest coefficient ring containing all of ``rings``."""
    return max(rings, key=_RANK.__getitem__)


def coerce_coeff(ring, value):
    """``value`` as a coefficient in ``ring``, lifted from any smaller ring."""
    if ring is CoeffRing.CONSTANT:
        if isinstance(value, Poly):
            if value.degree > 0:
                raise ValueError("constant ring cannot hold a polynomial")
            value = value.coefficient(0)
        return Fraction(value)
    if ring is CoeffRing.POLY_N:
        if isinstance(value, Poly):
            return value
        return Poly([Fraction(value)], QQ, "n")
    if isinstance(value, ExpPoly):
        return value
    if isinstance(value, Poly):
        return ExpPoly.from_poly(value)
    return ExpPoly.constant(Fraction(value))


@dataclass(frozen=True)
class ShiftOperator:
    """sum_i coeffs[i] * N^i applied to a sequence; coeffs[order] != 0."""

    ring: CoeffRing
    coeffs: tuple

    def __init__(self, ring, coeffs):
        coerced = [coerce_coeff(ring, c) for c in coeffs]
        while coerced and not coerced[-1]:
            coerced.pop()
        if not coerced:
            raise ValueError("zero shift operator")
        if ring is CoeffRing.EXPPOLY:
            field = RATIONAL_FIELD
            for c in coerced:
                field = common_field(field, c.field)
            coerced = [c.to_field(field) for c in coerced]
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "coeffs", tuple(coerced))

    @property
    def order(self):
        return len(self.coeffs) - 1

    @property
    def leading(self):
        return self.coeffs[-1]

    def promoted(self, ring):
        """View this operator in a coefficient ring containing its own."""
        if join_rings(self.ring, ring) is not ring:
            raise ValueError(f"cannot promote {self.ring} to {ring}")
        return self if ring is self.ring else ShiftOperator(ring, self.coeffs)

    def shifted_coeff(self, i, offset, mult=1):
        """Coefficient c_i with its argument rewritten as mult*n + offset."""
        c = self.coeffs[i]
        if self.ring is CoeffRing.CONSTANT:
            return c
        if self.ring is CoeffRing.POLY_N:
            return c.compose_linear(mult, offset)
        return c.compose_arg(mult, offset)

    def scaled(self, factor):
        factor = Fraction(factor)
        if not factor:
            raise ValueError("zero scale")
        if self.ring is CoeffRing.CONSTANT:
            return ShiftOperator(self.ring, [c * factor for c in self.coeffs])
        return ShiftOperator(self.ring, [c.scale(factor) for c in self.coeffs])

    def __str__(self):
        from .optext import operator_to_text

        return operator_to_text(self)


@dataclass(frozen=True)
class Sequence:
    """Finite prefix of an infinite sequence of exact rationals."""

    terms: tuple
    offset: int = 0

    def __init__(self, terms, offset=0):
        if offset < 0:
            raise ValueError("sequence offset must be >= 0")
        # a tuple from a list: tuple() of a generator allocates it oversized
        # and shrinks it, and CPython's tuple free lists keep each shrunk
        # block, so the memory held would grow with the number of calls
        object.__setattr__(self, "terms", tuple([Fraction(t) for t in terms]))
        object.__setattr__(self, "offset", offset)

    def __len__(self):
        return len(self.terms)

    @property
    def end(self):
        """One past the largest valid index."""
        return self.offset + len(self.terms)

    def value(self, n):
        if not self.offset <= n < self.end:
            raise IndexError(f"index {n} outside [{self.offset}, {self.end})")
        return self.terms[n - self.offset]

    def __iter__(self):
        return iter(self.terms)

    def __str__(self):
        inner = ", ".join(str(t) for t in self.terms[:12])
        if len(self.terms) > 12:
            inner += ", ..."
        return f"[{inner}] (from n={self.offset})"


@dataclass(frozen=True)
class RecurrenceSystem:
    """Operator, initial values and the first index where the relation holds.

    ``initials`` covers a(offset) .. a(validity_offset + order - 1), so the
    relation at n = validity_offset extends the sequence from there on.
    """

    operator: ShiftOperator
    initials: tuple
    validity_offset: int = 0
    offset: int = 0

    def __init__(self, operator, initials, validity_offset=0, offset=0):
        initials = tuple([Fraction(v) for v in initials])  # see Sequence
        if validity_offset < offset:
            raise ValueError("validity offset cannot precede the sequence start")
        expected = validity_offset - offset + operator.order
        if len(initials) != expected:
            raise ValueError(
                f"need {expected} initial values, got {len(initials)}"
            )
        object.__setattr__(self, "operator", operator)
        object.__setattr__(self, "initials", initials)
        object.__setattr__(self, "validity_offset", validity_offset)
        object.__setattr__(self, "offset", offset)

    @property
    def order(self):
        return self.operator.order

    def __str__(self):
        inits = ", ".join(str(v) for v in self.initials)
        return f"({self.operator}) with initials [{inits}] from n={self.offset}"


def _values_at(operator):
    """A function of an integer n giving the values c_0(n), ..., c_r(n) of
    the operator's coefficients, all times one nonzero number that does not
    depend on n, which no relation test or solved term can see.  Constant
    and polynomial coefficients are cleared to integers once, so each value
    is one integer Horner evaluation (the constants' values are the same at
    every n); exponential polynomials are evaluated exactly as rationals."""
    if operator.ring is CoeffRing.EXPPOLY:
        return lambda n: [c.evaluate_rational(n) for c in operator.coeffs]
    if operator.ring is CoeffRing.CONSTANT:
        values = [c[0] for c in _zx_cleared([[c] for c in operator.coeffs])]
        return lambda n: values
    cleared = _zx_cleared([c.coeffs for c in operator.coeffs])
    return lambda n: [_value(c, n) if c else 0 for c in cleared]


def expand_terms(system, count):
    """First ``count`` terms of the recurrence's solution, exactly.

    Each new term is -sum_{i<r} c_i(n) a(n+i) / c_r(n), with the
    coefficients' values from ``_values_at``: integers for constant and
    polynomial coefficients, scaled alike, so the quotient is the same
    exact rational.  Raises LeadingCoefficientZero when the top coefficient
    vanishes at an index where the relation is needed to produce the next
    term.
    """
    if count < len(system.initials):
        raise InsufficientData(
            f"count {count} is below the {len(system.initials)} supplied initials"
        )
    r = system.operator.order
    values_at = _values_at(system.operator)
    terms = list(system.initials)
    # terms[j] holds a(offset + j)
    while len(terms) < count:
        n = system.offset + len(terms) - r  # relation index producing the new term
        values = values_at(n)
        lead = values[r]
        if not lead:
            raise LeadingCoefficientZero(n)
        acc = Fraction(0)
        start = n - system.offset
        for i in range(r):
            c = values[i]
            if c:
                acc += terms[start + i] * c
        terms.append(-acc / lead)
    return Sequence(terms[:count], system.offset)


def verify_annihilates(operator, sequence, from_n=None):
    """Check sum_i c_i(n) a(n+i) = 0 for every applicable n >= from_n, with
    the coefficients' values from ``_values_at``.

    Returns None on success, else the smallest violating n.
    """
    if from_n is None:
        from_n = sequence.offset
    r = operator.order
    last = sequence.end - 1 - r
    if last < from_n:
        raise InsufficientData("window too short to test even one relation instance")
    values_at = _values_at(operator)
    for n in range(from_n, last + 1):
        acc = Fraction(0)
        for i, c in enumerate(values_at(n)):
            if c:
                acc += sequence.value(n + i) * c
        if acc:
            return n
    return None


def leading_validity_offset(operator):
    """n0 + 1 for the largest nonnegative integer n0 at which the leading
    coefficient vanishes, or 0 when there is none; decided exactly in every
    ring.

    An exponential-polynomial leading coefficient that vanishes on a whole
    residue class of n raises LeadingAlwaysZero, and one whose zeros no
    method decides raises ValidityUnproven (see ``exppoly.validity_offset``).
    """
    if operator.ring is CoeffRing.CONSTANT:
        return 0
    if operator.ring is CoeffRing.POLY_N:
        root = largest_natural_root(operator.leading)
        return 0 if root is None else root + 1
    offset = validity_offset(operator.leading)
    if offset is None:
        raise LeadingAlwaysZero(
            f"leading coefficient {operator.leading} vanishes on a residue class of n"
        )
    return offset


def advanced_system(system, steps):
    """The recurrence satisfied by b(n) = a(n + steps); used for index
    translation checks."""
    if steps < 0:
        raise ValueError("can only advance forward")
    if steps == 0:
        return system
    op = system.operator
    new_op = ShiftOperator(op.ring, [op.shifted_coeff(i, steps) for i in range(op.order + 1)])
    new_offset = system.offset  # b is indexed from the same origin
    new_validity = max(system.validity_offset - steps, new_offset)
    needed = new_validity - new_offset + op.order
    prefix = expand_terms(system, max(needed + steps, len(system.initials)))
    initials = [prefix.value(n + steps) for n in range(new_offset, new_offset + needed)]
    return RecurrenceSystem(new_op, initials, new_validity, new_offset)
