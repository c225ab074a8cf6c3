"""Closed-form solutions of polynomial and constant-coefficient recurrences.

A constant-coefficient recurrence whose characteristic polynomial splits
into rational roots and the roots of one irreducible quadratic has an
exponential polynomial solution: ``fields.split_roots`` finds the roots
(and raises UnsupportedFactorization for any other factorization), and the
initial values fix the polynomial coefficient of each base.  The reverse
construction recovers a recurrence of order exactly the number of roots
counted with multiplicity.
"""

from dataclasses import dataclass, field as dataclass_field

from .errors import InsufficientData, InternalError, NotPolynomial, UnsupportedFactorization
from .exppoly import ExpPoly
from .fields import split_roots
from .linalg import solve_linear
from .polynomials import Poly, QQ, _signed_join, forward_differences, newton_poly
from .sequences import CoeffRing, RecurrenceSystem, ShiftOperator


@dataclass(frozen=True)
class BinomialForm:
    """a_n = sum_i coeffs[i] * C(n - offset, i); its Newton polynomial is
    built once, with the form, and left out of comparison and ``repr``."""

    coeffs: tuple
    offset: int = 0
    poly: Poly = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "poly", newton_poly(self.coeffs, self.offset))

    def evaluate(self, n):
        """The value at n, which may be an int, a ``Fraction`` or a field element."""
        return self.poly.evaluate(n)

    def __str__(self):
        arg = "n" if self.offset == 0 else f"n-{self.offset}"
        parts = [
            str(c) if i == 0 else f"{c}*C({arg},{i})" for i, c in enumerate(self.coeffs) if c
        ]
        return _signed_join(parts) if parts else "0"


def poly_binomial_form(sequence, degree):
    """Expanded binomial form from iterated finite differences at the start.

    The coefficients are the leading entries of the difference table of
    the first max(degree, 0) + 1 terms.  Their Newton polynomial is built
    once and checked against every supplied term; the first mismatch
    raises NotPolynomial with its index n.
    """
    if len(sequence) < degree + 1:
        raise InsufficientData(
            f"need {degree + 1} terms for a degree-{degree} binomial form"
        )
    coeffs = forward_differences(sequence.terms[: max(degree, 0) + 1])
    form = BinomialForm(tuple(coeffs), sequence.offset)
    for n in range(sequence.offset, sequence.end):
        if form.evaluate(n) != sequence.value(n):
            raise NotPolynomial(
                f"data is not a polynomial of degree <= {degree} (fails at n={n})"
            )
    return form


@dataclass(frozen=True)
class CFiniteClosedForm:
    """Exponential-polynomial form of a recurrence solution.

    ``expression`` evaluates to a_n for every n >= valid_from; when the
    characteristic polynomial had a root at zero the first ``valid_from``
    values are exceptional and recorded separately.
    """

    expression: ExpPoly
    valid_from: int = 0
    exceptional: tuple = ()

    def evaluate(self, n):
        if n < self.valid_from:
            return self.exceptional[n]
        return self.expression.evaluate_rational(n)

    def __str__(self):
        text = str(self.expression)
        if self.valid_from:
            text += f" (for n >= {self.valid_from})"
        return text


def cfinite_closed_form(system):
    """Solve a constant-coefficient recurrence in exponential-polynomial form.

    The coefficients of each n^j b^n term are determined by the initial
    values; the resulting expression reproduces every term of the sequence
    from ``valid_from`` on (0 unless the characteristic polynomial is
    divisible by N)."""
    if system.validity_offset != 0 or system.offset != 0:
        raise ValueError("recurrence must be valid from n=0")
    if system.operator.ring is not CoeffRing.CONSTANT:
        raise ValueError("constant-coefficient operator required")
    field, roots = split_roots(Poly(system.operator.coeffs, QQ, "N"))
    # a root at zero only delays the closed form by its multiplicity
    zero_mult = roots.pop(0)[1] if roots and not roots[0][0] else 0
    reduced_order = system.order - zero_mult
    values = system.initials[zero_mult:]
    unknowns = [(base, j) for base, multiplicity in roots for j in range(multiplicity)]
    if len(unknowns) != reduced_order:
        raise InternalError("root multiplicities do not add up to the order")
    if reduced_order == 0:
        return CFiniteClosedForm(
            ExpPoly.zero(field), zero_mult, system.initials[:zero_mult]
        )
    rows = [
        [field.coerce(n) ** j * base ** n for base, j in unknowns] for n in range(reduced_order)
    ]
    rhs = [field.from_rational(v) for v in values]
    solution = solve_linear(rows, rhs, field)
    if solution is None:
        raise InternalError("initial-condition system must be nonsingular")
    monomials = [
        (base, Poly([field.zero] * j + [c], field, "n"))
        for (base, j), c in zip(unknowns, solution)
    ]
    expression = ExpPoly(field, monomials)  # adds up the monomials of each base
    if zero_mult:
        expression = expression.shift(-zero_mult)
    return CFiniteClosedForm(
        expression, zero_mult, system.initials[:zero_mult]
    )


def closed_form_to_recurrence(expression):
    """Recurrence of order exactly sum(deg p_b + 1) annihilating the
    exponential polynomial; conjugate bases pair up so the operator has
    rational coefficients."""
    field = expression.field
    if not expression:
        operator = ShiftOperator(CoeffRing.CONSTANT, [1])
        return RecurrenceSystem(operator, [], 0, 0)
    char = Poly([field.one], field, "N")
    for base, poly in expression.terms:
        factor = Poly([-base, field.one], field, "N")
        char = char * factor ** (poly.degree + 1)
    coeffs = []
    for c in char.coeffs:
        if not c.is_rational():
            raise UnsupportedFactorization(
                "expression is not closed under conjugation; operator is irrational"
            )
        coeffs.append(c.as_rational())
    operator = ShiftOperator(CoeffRing.CONSTANT, coeffs)
    initials = [expression.evaluate_rational(n) for n in range(operator.order)]
    return RecurrenceSystem(operator, initials, 0, 0)
