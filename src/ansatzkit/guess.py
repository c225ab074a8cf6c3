"""Fit recurrence ansatzes to raw sequence data.

Each guesser searches shapes from small to large and only reports a result
whose relation holds on all supplied data.  ``margin`` is the number of
terms beyond the minimal determining window that must be present before a
guess is considered trustworthy.

A polynomial of degree d needs no fit system: it matches every term
exactly when row d of the forward-difference table of the terms is
constant, so that row d + 1 vanishes, and the leading entries of rows
0..d are its Newton coefficients.  The table is built on integers, the
terms times one common denominator, which scales every entry alike; only
the Newton coefficients of the degree found are divided back into
rationals, and its annihilator (N - 1)^(d + 1) is written from binomial
coefficients.

C-finite recurrences are the holonomic ones whose coefficients have
degree 0, so one shape search, ``_fit_search``, serves both guessers: the
C-finite guesser tries the degree-0 shapes (order, 0) with fit length
2 * order and scales its relation to a monic constant-coefficient
operator.  The search fits over the rationals, using every available term:
a relation of a shape is a left null vector of its fit rows, one row per
unknown coefficient and one column (one equation) per window start.  The
terms are scaled by one common denominator, which scales every row alike
and keeps the null vectors.  The search's vectors are those of the
fraction-free ring kernel ``linalg.null_vectors`` on all equations, one
per free column, in order, as coprime integers with a positive last
entry; the first one that gives an operator of the shape wins.

The modular rank profile ``linalg.rank_profile_mod_p`` reduces the integer
fit rows modulo ``linalg.PRIME`` by a left-looking elimination, one
equation at a time until an equation raises nothing, then in bulk, every
remaining equation at once, up to the next one that raises the rank.
When the rank reaches the number of unknowns the rows are independent
over Q and the shape has no relation, a proof after about as many
equations as unknowns.  Otherwise it returns the equations that raised
the rank and the first relation mod p: the least row t that took no
pivot, as a combination of the rows before it.

The first vector is lifted from that relation (``_lift``): each residue
becomes the fraction num / den with |num|, den <= sqrt(p / 2) by rational
reconstruction, the fractions go over one common denominator, and the
vector is made primitive with a positive last entry.  When it reaches the
coefficients of N^order and every equation holds it by exact integer dot
products, it is yielded: that check is the proof over all the data.
Otherwise the kernel runs on the equations that raised the rank, and each
vector it yields is checked the same way.  A failed check shows a rank
mod p below the rank over Q, and the shape runs again on all equations,
as it does when the residues say nothing (rank 0: every cleared term is a
multiple of p).  The kernel also runs when the caller asks for a vector
after the lifted one, which it skips there.

The answers are those of the kernel on all equations.  The pivot rows of
the profile are the first basis of the rows mod p in row order (see
``rank_profile_mod_p``), so the rows before t are independent mod p on the
picked equations, hence over Q, and the kernel, which reads a vector at
each free column in order, has no free column before t.  A lifted vector
that holds on every equation makes row t a combination of the rows before
it over Q, so t is the kernel's first free column, and the kernel's
vector there ends at t too: both span the relations of the rows up to t,
a line, and made primitive with a positive last entry they are equal.  A
vector of the picked equations that passes the check is the one the
kernel gives on all equations at the same free column, as the picked
equations have the same left null space when the ranks agree.

The fit rows n^j a(n + i), residues and integers, are built once per
search and cut to each shape's window starts.  A search that finds no
relation ends on the staircase: the covered shapes are closed downwards,
and their maximal ones are, for each order, its largest covered degree
when the next order's is smaller.  A relation of (r, d), padded with
zeros, is one of each (r', d') >= (r, d) element-wise, whose window
starts are among those of (r, d).  So once the shapes rejected so far
have cost as much sum k^3 (k unknowns each) as the staircase, each of its
shapes is profiled mod p on all its window starts, and when all are
independent no covered shape has a relation and the search ends.  The
cost bound keeps the staircase off the searches that find a relation
early.  Its profiles, picks and relation, are kept, so the search does
not profile a staircase shape again when it gets there.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, inf, isqrt, lcm
from operator import add

from .errors import InsufficientData, InternalError
from .linalg import PRIME, null_vectors, rank_profile_mod_p
from .polynomials import (
    Poly,
    QQ,
    _zx_cleared,
    difference_rows,
    forward_differences,
    newton_poly,
)
from .sequences import (
    CoeffRing,
    RecurrenceSystem,
    ShiftOperator,
    leading_validity_offset,
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
    # one common denominator scales every difference alike
    integers = _zx_cleared([sequence.terms])[0]
    rows = enumerate(difference_rows(integers))
    depth, row = next(rows)
    for degree in range(0, max_degree + 1):
        fit = polynomial_fit_length(degree)
        if length < fit + max(margin, 1):
            break
        # Row d, over every term, is built and checked to be constant only
        # when the leading entry of row d + 1, from d + 2 terms, is zero.
        leading = forward_differences(integers[: degree + 2])
        if leading.pop():
            continue
        while depth < degree:
            depth, row = next(rows)
        if any(entry != row[0] for entry in row):
            continue
        # (N - 1)^(degree + 1), lowest power first
        annihilator = [(-1) ** (degree + 1 - i) * comb(degree + 1, i) for i in range(degree + 2)]
        operator = ShiftOperator(CoeffRing.CONSTANT, annihilator)
        system = RecurrenceSystem(
            operator,
            sequence.terms[: degree + 1],
            sequence.offset,
            sequence.offset,
        )
        proven = assume_bound and length >= polynomial_fit_length(max_degree)
        scale = lcm(*[t.denominator for t in sequence.terms])
        return GuessReport(
            result=system,
            shape=("polynomial", degree + 1, degree),
            terms_used_for_fit=fit,
            terms_verified=length - fit,
            poly=newton_poly([Fraction(d, scale) for d in leading], sequence.offset),
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
    """Smallest-order constant-coefficient recurrence fitting all terms:
    the holonomic search over the degree-0 shapes, scaled to be monic."""
    length = len(sequence)
    if length < 3:
        raise InsufficientData("need at least three terms to guess a recurrence")
    # a fit length exceeds the order, so larger orders cannot fit
    orders = range(1, min(max_order, length) + 1)
    shapes = [(order, 0, cfinite_fit_length(order)) for order in orders]
    proven = assume_bound and length >= cfinite_fit_length(max_order)
    return _fit_search(sequence, "cfinite", shapes, margin, proven, _monic_constant)


def guess_holonomic(sequence, max_order, max_degree, margin=5, assume_bound=False):
    """Smallest-shape polynomial-coefficient recurrence fitting all terms.

    Shapes are searched by increasing number of unknowns with ties broken
    towards smaller order, so the most parsimonious relation wins.
    """
    length = len(sequence)
    if length < 4:
        raise InsufficientData("need at least four terms to guess a recurrence")
    # a fit length exceeds the order and the degree, so larger ones cannot fit
    shapes = [
        (order, degree, holonomic_fit_length(order, degree))
        for order in range(1, min(max_order, length) + 1)
        for degree in range(0, min(max_degree, length) + 1)
    ]
    shapes.sort(key=lambda s: ((s[0] + 1) * (s[1] + 1), s[0]))
    proven = assume_bound and length >= holonomic_fit_length(max_order, max_degree)
    return _fit_search(sequence, "holonomic", shapes, margin, proven, _poly_coefficients)


def _monic_constant(coeffs, degree):
    lead = coeffs[-1]
    return ShiftOperator(CoeffRing.CONSTANT, [Fraction(c, lead) for c in coeffs])


def _poly_coefficients(coeffs, degree):
    # one block of degree + 1 coefficients per power of N
    step = degree + 1
    return ShiftOperator(
        CoeffRing.POLY_N,
        [Poly(coeffs[i : i + step], QQ, "n") for i in range(0, len(coeffs), step)],
    )


def _fit_rows(values, powers, cache, order, degree, windows, prime=None):
    """The fit rows of a shape at its first ``windows`` window starts, one
    per unknown c_{i,j} in coefficient order: n^j a(n + i) at each start.
    The degree-0 rows are slices of the values themselves; the others are
    built once per search over every start, kept in ``cache`` and sliced,
    and ``prime`` reduces them."""
    rows = []
    for i in range(order + 1):
        rows.append(values[i : i + windows])
        for j in range(1, degree + 1):
            row = cache.get((i, j))
            if row is None:
                if prime is None:
                    row = [p * t for p, t in zip(powers[j], values[i:])]
                else:
                    row = [p * t % prime for p, t in zip(powers[j], values[i:])]
                cache[i, j] = row
            rows.append(row[:windows])
    return rows


def _fit_search(sequence, class_name, shapes, margin, proven, operator_of):
    """The first of ``shapes`` (order, degree, fit length) with a relation
    sum_{i,j} c_{i,j} n^j a(n + i) = 0 at every window start n, as a report
    marked ``proven`` as given; ``operator_of`` turns the coefficient vector
    into the operator.  Shapes the data does not cover are skipped, and
    the staircase of the module docstring may end the search early."""
    if not any(sequence.terms):
        return _degenerate_zero_report(sequence, class_name)
    terms, offset, length = sequence.terms, sequence.offset, len(sequence)
    shapes = [shape for shape in shapes if length >= shape[2] + max(margin, 1)]
    # one common denominator for every term scales every fit row alike
    integers = _zx_cleared([terms])[0]
    residues = [x % PRIME for x in integers]
    top = max((degree for _, degree, _ in shapes), default=0)
    powers = [[(offset + w) ** j for w in range(length)] for j in range(top + 1)]
    residue_rows, integer_rows = {}, {}

    def profile(order, degree):  # the picks mod p on every window start
        rows = _fit_rows(residues, powers, residue_rows, order, degree, length - order, PRIME)
        return rank_profile_mod_p(rows)

    # the staircase of the module docstring and its sum of k^3
    tops = {}
    for order, degree, _ in shapes:
        tops[order] = max(degree, tops.get(order, 0))
    staircase = [(o, d) for o, d in sorted(tops.items()) if tops.get(o + 1, -1) < d]
    cost = sum(((o + 1) * (d + 1)) ** 3 for o, d in staircase)
    spent = 0  # sum of k^3 over the shapes tried
    known = {}  # the staircase's profiles, kept for the rest of the search
    for order, degree, fit in shapes:
        if spent >= cost:
            for shape in staircase:
                known[shape] = profile(*shape)
                if known[shape] is not None:
                    break
            else:
                break  # every maximal shape is independent
            cost = inf  # the staircase runs once
        spent += ((order + 1) * (degree + 1)) ** 3
        found = known[order, degree] if (order, degree) in known else profile(order, degree)
        if found is None:  # independent rows mod p: no relation
            continue
        picks, relation = found
        rows = _fit_rows(integers, powers, integer_rows, order, degree, length - order)
        for coeffs in _relations(rows, picks, relation, order * (degree + 1)):
            operator = operator_of(coeffs, degree)
            validity = max(offset, leading_validity_offset(operator))
            needed = validity - offset + order
            if length < needed:
                continue
            return GuessReport(
                result=RecurrenceSystem(operator, terms[:needed], validity, offset),
                shape=(class_name, order, degree),
                terms_used_for_fit=fit,
                terms_verified=length - fit,
                proven=proven,
            )
    return GuessReport(None, (class_name, None, None), 0, 0)


def _relations(rows, picks, relation, lower):
    """The coefficient vectors of the null vectors of the integer fit
    ``rows`` that reach past index ``lower`` (so the coefficient of N^order
    is nonzero), in free-column order: those of the kernel, ``null_vectors``
    on all equations.

    The first is lifted from ``relation``, the first relation mod p of the
    rank profile, when it reaches past ``lower``: ``_lift`` reconstructs it
    over Q, and when every equation holds it by exact dot products it is
    the kernel's first vector (see the module docstring).  Otherwise, and
    when the caller asks for a further vector, the kernel runs
    (``_kernel_relations``), and the lifted vector is not yielded again.
    """
    lifted = _lift(relation) if len(relation) > lower else None
    if lifted is not None and _holds(lifted, rows):
        yield lifted
    # a lifted vector that fails the check equals no vector yielded here
    for coeffs in _kernel_relations(rows, picks, lower):
        if coeffs != lifted:
            yield coeffs


def _kernel_relations(rows, picks, lower):
    """``_relations`` by the kernel alone.

    The kernel runs on the equations ``picks`` only, or on all of them when
    ``picks`` is empty.  Each vector is checked against every equation by
    exact dot products: that is the relation at every window start.  A
    vector of the picked equations that fails shows a rank mod p below the
    rank over Q, and the search starts again on all equations; a vector of
    all equations that fails is an internal error.
    """
    picked = [[row[w] for w in picks] for row in rows] if picks else rows
    for vector in null_vectors([[[x] if x else [] for x in row] for row in picked]):
        if len(vector) <= lower:
            continue  # the coefficient of N^order vanishes
        coeffs = [c[0] if c else 0 for c in vector]
        if _holds(coeffs, rows):
            yield coeffs
        elif picks:
            yield from _kernel_relations(rows, [], lower)
            return
        else:
            raise InternalError("fitted recurrence fails on its own data")


def _holds(coeffs, rows):
    """Whether sum_i coeffs[i] rows[i] vanishes at every equation, by exact
    integer dot products."""
    totals = [0] * len(rows[0])
    for c, row in zip(coeffs, rows):
        if c:
            totals = list(map(add, totals, map(c.__mul__, row)))
    return not any(totals)


_LIFT_BOUND = isqrt(PRIME // 2)  # of the numerators and denominators of a lift


def _lift(relation):
    """The residues ``relation``, ending in 1, as coprime integers with a
    positive last entry, or None: each residue r becomes the fraction
    num / den = r mod p with |num|, den <= sqrt(p / 2), by the extended
    Euclidean algorithm stopped at the first remainder within the bound
    (rational reconstruction), unique when it exists; the fractions are
    put over one common denominator and divided by their gcd."""
    fractions = []
    for r in relation:
        a, b, s, t = PRIME, r, 0, 1
        while b > _LIFT_BOUND:
            q = a // b
            a, b, s, t = b, a - q * b, t, s - q * t
        if t < 0:
            b, t = -b, -t
        if t > _LIFT_BOUND or gcd(b, t) != 1:
            return None
        fractions.append((b, t))
    # star arguments from a list: see sequences.Sequence
    common = lcm(*[den for _, den in fractions])
    vector = [num * (common // den) for num, den in fractions]
    content = gcd(*vector)
    return [x // content for x in vector]
