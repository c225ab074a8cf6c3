"""Fit recurrence ansatzes to raw sequence data.

Each guesser searches shapes from small to large and only reports a result
whose relation holds on all supplied data.  ``margin`` is the number of
terms beyond the minimal determining window that must be present before a
guess is considered trustworthy.

A polynomial of degree d needs no fit system: it matches every term
exactly when row d of the forward-difference table of the terms is
constant, so that row d + 1 vanishes, and the leading entries of rows
0..d are its Newton coefficients.

The C-finite and holonomic guessers fit over the rationals, using every
available term: a relation of a shape is a left null vector of its fit
rows, one row per unknown coefficient and one column per window start.
The fraction-free ring kernel ``linalg.null_vectors`` yields these
vectors lazily as coprime integers, and the first one that gives an
operator of the shape wins.  Before that, the guessers reduce the terms
modulo the prime ``linalg.PRIME`` and reject every shape whose fit rows
are linearly independent mod p: that is an exact proof that no relation of
the shape exists (see ``linalg.independent_mod_p``).  Only the surviving
shapes, and every shape when some term's denominator is divisible by p,
run exact elimination, so the answers are those of the exact search.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import InsufficientData, InternalError
from .linalg import PRIME, independent_mod_p, null_vectors, residue
from .polynomials import Poly, QQ, difference_rows, forward_differences, newton_poly
from .sequences import (
    CoeffRing,
    RecurrenceSystem,
    ShiftOperator,
    leading_validity_offset,
    verify_annihilates,
)


@dataclass(frozen=True)
class GuessReport:
    """Outcome of a guessing run.

    ``terms_used_for_fit`` is the minimal determining window for the
    returned shape (the C-finite and holonomic fit systems use every
    supplied term, and the polynomial difference test checks every term);
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
    if length < 2:
        raise InsufficientData("need at least two terms to guess a polynomial")
    rows = enumerate(difference_rows(sequence.terms))
    depth, row = next(rows)
    for degree in range(0, max_degree + 1):
        fit = polynomial_fit_length(degree)
        if length < fit + max(margin, 1):
            break
        # Row d, over every term, is built and checked to be constant only
        # when the leading entry of row d + 1, from d + 2 terms, is zero.
        leading = forward_differences(sequence.terms[: degree + 2])
        if leading.pop():
            continue
        while depth < degree:
            depth, row = next(rows)
        if any(entry != row[0] for entry in row):
            continue
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
            poly=newton_poly(leading, sequence.offset),
            proven=proven,
        )
    return GuessReport(None, ("polynomial", None, None), 0, 0)


def _residues(terms):
    """The terms mod PRIME, or None when some term has no residue."""
    residues = [residue(t) for t in terms]
    return None if None in residues else residues


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
    terms = sequence.terms
    residues = _residues(terms)
    for order in range(1, max_order + 1):
        fit = cfinite_fit_length(order)
        if length < fit + max(margin, 1):
            break
        windows = length - order
        # a relation of this order makes the order + 1 shifted windows dependent
        if residues is not None and independent_mod_p(
            [residues[i : i + windows] for i in range(order + 1)]
        ):
            continue
        # a monic relation exists exactly when the last unknown is free
        rows = [terms[i : i + windows] for i in range(order + 1)]
        vector = next((v for v in null_vectors(rows) if len(v) == order + 1), None)
        if vector is None:
            continue
        coeffs = [Fraction(c[0] if c else 0, vector[-1][0]) for c in vector]
        operator = ShiftOperator(CoeffRing.CONSTANT, coeffs)
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
    terms = sequence.terms
    offset = sequence.offset
    residues = _residues(terms)
    if residues is not None:
        powers = [
            [pow(offset + w, j, PRIME) for w in range(length)]
            for j in range(max_degree + 1)
        ]
    for order, degree in _holonomic_shapes(max_order, max_degree):
        fit = holonomic_fit_length(order, degree)
        if length < fit + max(margin, 1):
            continue
        windows = length - order
        # the residues of the exact rows below; independent rows have no null vector
        if residues is not None and independent_mod_p(
            [
                [p * t % PRIME for p, t in zip(powers[j], residues[i : i + windows])]
                for i in range(order + 1)
                for j in range(degree + 1)
            ]
        ):
            continue
        # rows indexed by unknown c_{i,j}, columns by window start n
        rows = [
            [(offset + w) ** j * terms[w + i] for w in range(windows)]
            for i in range(order + 1)
            for j in range(degree + 1)
        ]
        for vector in null_vectors(rows):
            report = _holonomic_candidate(
                vector, order, degree, sequence, fit, assume_bound, max_order, max_degree
            )
            if report is not None:
                return report
    return GuessReport(None, ("holonomic", None, None), 0, 0)


def _holonomic_candidate(vector, order, degree, sequence, fit, assume_bound, max_order, max_degree):
    # coprime integers (constant integer polynomials); the last one, positive,
    # leads the coefficient of N^order when that is nonzero
    coeffs = [c[0] if c else 0 for c in vector]
    polys = [
        Poly(coeffs[i * (degree + 1) : (i + 1) * (degree + 1)], QQ, "n")
        for i in range(order + 1)
    ]
    if not polys[order]:
        return None
    operator = ShiftOperator(CoeffRing.POLY_N, polys)
    validity = max(sequence.offset, leading_validity_offset(operator))
    # the fit rows are the relation at every n that verify_annihilates checks
    if verify_annihilates(operator, sequence, sequence.offset) is not None:
        raise InternalError("fitted recurrence fails on its own data")
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
