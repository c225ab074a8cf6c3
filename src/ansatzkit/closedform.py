"""Closed-form solutions of polynomial and constant-coefficient recurrences.

A constant-coefficient recurrence whose characteristic polynomial splits
into rational roots and irreducible quadratics has an exponential
polynomial solution; the reverse construction recovers a recurrence of
order exactly the number of roots counted with multiplicity.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    InsufficientData,
    InternalError,
    NotPolynomial,
    UnsupportedFactorization,
    UnsupportedField,
)
from .exppoly import ExpPoly
from .fields import RATIONAL_FIELD, common_field, quadratic_field
from .linalg import numberfield_adapter, solve_linear
from .polynomials import Poly, QQ, binomial, rational_roots, squarefree_decomposition
from .sequences import CoeffRing, RecurrenceSystem, ShiftOperator


@dataclass(frozen=True)
class BinomialForm:
    """a_n = sum_i coeffs[i] * C(n - offset, i)."""

    coeffs: tuple
    offset: int = 0

    def evaluate(self, n):
        return sum(
            (c * binomial(n - self.offset, i) for i, c in enumerate(self.coeffs)),
            Fraction(0),
        )

    def __str__(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            arg = "n" if self.offset == 0 else f"n-{self.offset}"
            term = str(c) if i == 0 else f"{c}*C({arg},{i})"
            parts.append(term)
        return " + ".join(parts) if parts else "0"


def poly_binomial_form(sequence, degree):
    """Expanded binomial form from iterated finite differences at the start.

    Verifies the form against every supplied term and raises NotPolynomial
    on the first mismatch.
    """
    if len(sequence) < degree + 1:
        raise InsufficientData(
            f"need {degree + 1} terms for a degree-{degree} binomial form"
        )
    diffs = list(sequence.terms)
    coeffs = [diffs[0]]
    for _ in range(degree):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        coeffs.append(diffs[0])
    form = BinomialForm(tuple(coeffs), sequence.offset)
    for n in range(sequence.offset, sequence.end):
        if form.evaluate(n) != sequence.value(n):
            raise NotPolynomial(
                f"data is not a polynomial of degree <= {degree} (fails at n={n})"
            )
    return form


def factor_characteristic(operator):
    """Factor the characteristic polynomial of a constant operator.

    Returns ``(zero_multiplicity, field, roots)`` where roots is a list of
    ``(base, multiplicity)`` over ``field``.  Square-free parts of degree
    two land in one shared quadratic field; anything of degree >= 3 (or two
    distinct quadratic fields) raises UnsupportedFactorization.
    """
    if operator.ring is not CoeffRing.CONSTANT:
        raise ValueError("constant-coefficient operator required")
    char = Poly(operator.coeffs, QQ, "N")
    zero_mult = 0
    while char.coefficient(0) == 0:
        char = char.spawn(char.coeffs[1:])
        zero_mult += 1
    field = RATIONAL_FIELD
    pending = []  # (rational root | quadratic poly, multiplicity, kind)
    if char.degree >= 1:
        for part, multiplicity in squarefree_decomposition(char):
            roots, cofactor = rational_roots(part)
            for root, _ in roots:
                pending.append(("rational", root, multiplicity))
            if cofactor.degree == 0:
                continue
            if cofactor.degree != 2:
                raise UnsupportedFactorization(
                    f"irreducible factor {cofactor} of degree {cofactor.degree}"
                )
            quad = quadratic_field(cofactor)
            try:
                field = common_field(field, quad)
            except UnsupportedField:
                raise UnsupportedFactorization(
                    "characteristic roots span two distinct quadratic fields"
                ) from None
            pending.append(("quadratic", cofactor.monic(), multiplicity))
    roots = []
    for kind, data, multiplicity in pending:
        if kind == "rational":
            roots.append((field.from_rational(data), multiplicity))
        else:
            # monic t^2 + b t + c with roots t and -b - t in the field
            b = data.coefficient(1)
            gen = field.generator()
            roots.append((gen, multiplicity))
            roots.append((field.from_rational(-b) - gen, multiplicity))
    return zero_mult, field, roots


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
    zero_mult, field, roots = factor_characteristic(system.operator)
    reduced_order = system.order - zero_mult
    values = system.initials[zero_mult:]
    unknowns = []
    for base, multiplicity in roots:
        for j in range(multiplicity):
            unknowns.append((base, j))
    if len(unknowns) != reduced_order:
        raise InternalError("root multiplicities do not add up to the order")
    if reduced_order == 0:
        return CFiniteClosedForm(
            ExpPoly.zero(field), zero_mult, system.initials[:zero_mult]
        )
    rows = []
    for n in range(reduced_order):
        rows.append(
            [field.coerce(n) ** j * base ** n for base, j in unknowns]
        )
    rhs = [field.from_rational(v) for v in values]
    solution = solve_linear(rows, rhs, numberfield_adapter(field))
    if solution is None:
        raise InternalError("initial-condition system must be nonsingular")
    terms = {}
    for (base, j), c in zip(unknowns, solution):
        key = base.sort_key()
        coeffs = terms.setdefault(key, (base, [field.zero] * reduced_order))[1]
        coeffs[j] = c
    expression = ExpPoly(
        field, [(base, Poly(coeffs, field, "n")) for base, coeffs in terms.values()]
    )
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
