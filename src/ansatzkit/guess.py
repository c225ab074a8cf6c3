"""Fit recurrence ansatzes to raw sequence data by exact linear algebra.

Each guesser searches shapes from small to large, solves the fit system
over the rationals using every available term, and only reports a result
whose relation holds on all supplied data.  ``margin`` is the number of
terms beyond the minimal determining window that must be present before a
guess is considered trustworthy.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import InsufficientData, InternalError
from .linalg import left_null_space, rational_adapter, solve_linear
from .polynomials import Poly, QQ, rational_content
from .sequences import (
    CoeffRing,
    RecurrenceSystem,
    Sequence,
    ShiftOperator,
    leading_validity_offset,
    verify_annihilates,
)


@dataclass(frozen=True)
class GuessReport:
    """Outcome of a guessing run.

    ``terms_used_for_fit`` is the minimal determining window for the
    returned shape (the fit system itself uses every supplied term);
    ``terms_verified`` counts the data beyond that window.  ``proven`` is
    set when the caller asserted a shape bound and supplied at least the
    fit length for that bound, which turns the guess into a proof.
    """

    result: object
    shape: tuple
    terms_used_for_fit: int
    terms_verified: int
    poly: object = None
    proven: bool = False
    degenerate: bool = False


def polynomial_fit_length(degree):
    return degree + 1


def cfinite_fit_length(order):
    return 2 * order


def holonomic_fit_length(order, degree):
    return (order + 1) * (degree + 1) + order


def guess_polynomial(sequence, max_degree, margin=1, assume_bound=False):
    """Smallest-degree polynomial in n matching all terms, if any.

    The result packages the closed form together with its annihilator
    (N-1)^(degree+1) and the matching initial values.
    """
    length = len(sequence)
    if length < 2 or max_degree < 0:
        raise InsufficientData("need at least two terms to guess a polynomial")
    field = rational_adapter()
    for degree in range(0, max_degree + 1):
        fit = polynomial_fit_length(degree)
        if length < fit + max(margin, 1):
            break
        points = range(sequence.offset, sequence.offset + fit)
        rows = [[Fraction(n) ** j for j in range(degree + 1)] for n in points]
        rhs = [sequence.value(n) for n in points]
        coeffs = solve_linear(rows, rhs, field)
        if coeffs is None:
            continue
        poly = Poly(coeffs, QQ, "n")
        if all(
            poly.evaluate(Fraction(n)) == sequence.value(n)
            for n in range(sequence.offset, sequence.end)
        ):
            annihilator = Poly([-1, 1], QQ, "N") ** (degree + 1)
            operator = ShiftOperator(CoeffRing.CONSTANT, annihilator.coeffs)
            system = RecurrenceSystem(
                operator,
                sequence.terms[: degree + 1],
                sequence.offset,
                sequence.offset,
            )
            proven = assume_bound and length >= polynomial_fit_length(max_degree)
            return GuessReport(
                result=system,
                shape=("polynomial", degree + 1, degree),
                terms_used_for_fit=fit,
                terms_verified=length - fit,
                poly=poly,
                proven=proven,
            )
    return GuessReport(None, ("polynomial", None, None), 0, 0)


def _degenerate_zero_report(sequence, class_name):
    operator = ShiftOperator(CoeffRing.CONSTANT, [0, 1])
    system = RecurrenceSystem(
        operator, sequence.terms[:1], sequence.offset, sequence.offset
    )
    return GuessReport(
        result=system,
        shape=(class_name, 1, 0),
        terms_used_for_fit=1,
        terms_verified=len(sequence) - 1,
        degenerate=True,
    )


def guess_cfinite(sequence, max_order, margin=5, assume_bound=False):
    """Smallest-order constant-coefficient recurrence fitting all terms."""
    length = len(sequence)
    if length < 3:
        raise InsufficientData("need at least three terms to guess a recurrence")
    if not any(sequence.terms):
        return _degenerate_zero_report(sequence, "cfinite")
    field = rational_adapter()
    terms = sequence.terms
    for order in range(1, max_order + 1):
        fit = cfinite_fit_length(order)
        if length < fit + max(margin, 1):
            break
        windows = length - order
        rows = [
            [terms[j + i] for i in range(order)] for j in range(windows)
        ]
        rhs = [-terms[j + order] for j in range(windows)]
        coeffs = solve_linear(rows, rhs, field)
        if coeffs is None:
            continue
        operator = ShiftOperator(CoeffRing.CONSTANT, list(coeffs) + [Fraction(1)])
        if verify_annihilates(operator, sequence, sequence.offset) is not None:
            raise InternalError("fitted recurrence fails on its own data")
        system = RecurrenceSystem(
            operator, terms[:order], sequence.offset, sequence.offset
        )
        proven = assume_bound and length >= cfinite_fit_length(max_order)
        return GuessReport(
            result=system,
            shape=("cfinite", order, 0),
            terms_used_for_fit=fit,
            terms_verified=length - fit,
            proven=proven,
        )
    return GuessReport(None, ("cfinite", None, None), 0, 0)


def _holonomic_shapes(max_order, max_degree):
    shapes = [
        (order, degree)
        for order in range(1, max_order + 1)
        for degree in range(0, max_degree + 1)
    ]
    shapes.sort(key=lambda s: ((s[0] + 1) * (s[1] + 1), s[0]))
    return shapes


def guess_holonomic(sequence, max_order, max_degree, margin=5, assume_bound=False):
    """Smallest-shape polynomial-coefficient recurrence fitting all terms.

    Shapes are searched by increasing number of unknowns with ties broken
    towards smaller order, so the most parsimonious relation wins.
    """
    length = len(sequence)
    if length < 4:
        raise InsufficientData("need at least four terms to guess a recurrence")
    if not any(sequence.terms):
        return _degenerate_zero_report(sequence, "holonomic")
    field = rational_adapter()
    terms = sequence.terms
    offset = sequence.offset
    for order, degree in _holonomic_shapes(max_order, max_degree):
        fit = holonomic_fit_length(order, degree)
        if length < fit + max(margin, 1):
            continue
        windows = length - order
        # rows indexed by unknown c_{i,j}, columns by window start n
        rows = []
        for i in range(order + 1):
            for j in range(degree + 1):
                rows.append(
                    [
                        Fraction(offset + w) ** j * terms[w + i]
                        for w in range(windows)
                    ]
                )
        basis = left_null_space(rows, field)
        for vector in basis:
            report = _holonomic_candidate(
                vector, order, degree, sequence, fit, assume_bound, max_order, max_degree
            )
            if report is not None:
                return report
    return GuessReport(None, ("holonomic", None, None), 0, 0)


def _holonomic_candidate(vector, order, degree, sequence, fit, assume_bound, max_order, max_degree):
    polys = [
        Poly(vector[i * (degree + 1) : (i + 1) * (degree + 1)], QQ, "n")
        for i in range(order + 1)
    ]
    if not polys[order]:
        return None
    content = rational_content([c for p in polys for c in p.coeffs])
    polys = [p.scale(Fraction(1) / content) for p in polys]
    if polys[order].leading < 0:
        polys = [-p for p in polys]
    operator = ShiftOperator(CoeffRing.POLY_N, polys)
    validity = max(sequence.offset, leading_validity_offset(operator))
    if verify_annihilates(operator, sequence, sequence.offset) is not None:
        return None
    needed = validity - sequence.offset + order
    if len(sequence) < needed:
        return None
    system = RecurrenceSystem(
        operator, sequence.terms[:needed], validity, sequence.offset
    )
    proven = assume_bound and len(sequence) >= holonomic_fit_length(max_order, max_degree)
    return GuessReport(
        result=system,
        shape=("holonomic", order, degree),
        terms_used_for_fit=fit,
        terms_verified=len(sequence) - fit,
        proven=proven,
    )
