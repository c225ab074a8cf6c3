"""Recurrences for sequences built from known ones.

Addition, term-wise product, partial sum and linear subsequences all use
the same solution-space construction for every coefficient ring: write the
shifted combination over a finite basis of operand shifts, then read a
recurrence off the left null space of the resulting matrix.  One driver,
``_closure``, does this for all kinds and rings.  Over constants and
polynomials in n the matrix is built fraction-free, as integer
polynomials: a shift of an operand is a vector over the nested
denominator D_t, a product of shifted leading coefficients, and each
column is scaled by the last row's denominator, which leaves the null
space unchanged (``_RingShiftRep``; the holonomic Cauchy product's
derivative rows do the same with powers of the ODE's leading
coefficient).  No rational function is formed before the kernel.  The
relation is read off minors over Z[n] by the fraction-free kernel:
``_ring_relation``, shared with the holonomic Cauchy product, takes the
least-order vector from ``least_null_vector`` and checks its order bound.
Over exponential polynomials, whose fractions have zero divisors, the
entries are formal fractions (``_FieldShiftRep``) and ``_closure`` takes
one explicit branch: the null space comes from Gauss-Jordan over the
function field, and the zeros of each candidate's
leading coefficient are decided exactly (``exppoly.validity_offset``): a
candidate vanishing on a residue class of n is dropped, the others hold
from one past their last zero, and when none is left the matrix grows by a
row, up to ``MAX_BUMP`` times.  Operands may start at an index o > 0 and
hold from an index v >= o; the result then starts at the larger o and
holds from the larger v on as well (see ``combine``).  Cauchy products go
through generating functions: rational arithmetic for constant
coefficients, an ODE null-space construction otherwise.

``_combined_values`` is the one place that combines operand values, by
kind: ``combine`` takes the initial values of its result from it, and
``poly_closure``, which combines polynomial sequences in closed form,
interpolates its partial sums and Cauchy products in Newton's form from
it.  A Cauchy product of values is ``polynomials.series_mul``.

``ORDER_BOUNDS`` is the one table of closure order bounds.  It sizes the
matrices, checks every result (``BoundViolated``) and is composed over an
expression tree by the identity prover, which then checks exactly that
many initial values -- a complete proof for constant-coefficient operands.
"""

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .errors import (
    BoundViolated,
    LeadingAlwaysZero,
    NullSpaceEmpty,
    UnboundableExpression,
    UnsupportedCase,
)
from .exppoly import ExpPoly, ExpPolyFraction, validity_offset
from .fields import RATIONAL_FIELD, as_rational_poly, common_field
from .genfun import (
    DiffEquation,
    cfinite_from_rational,
    diff_to_holonomic,
    genfun_cfinite,
    holonomic_to_diff,
    homogenize,
)
from .linalg import FieldAdapter, clear_exppoly_denominators, least_null_vector, left_null_space
from .polynomials import (
    Poly,
    QQ,
    _add,
    _compose_linear,
    _derivative,
    _sub,
    _zx_cleared,
    _zx_mul,
    forward_differences,
    newton_poly,
    series_mul,
)
from .sequences import (
    CoeffRing,
    RecurrenceSystem,
    Sequence,
    ShiftOperator,
    expand_terms,
    join_rings,
    leading_validity_offset,
)

ADD = "add"
TERMWISE = "termwise"
CAUCHY = "cauchy"
PARTIAL_SUM = "partial_sum"
SUBSEQUENCE = "subsequence"

# the closure order bounds, from the operand orders r and s (s is unused by
# the one-operand kinds); no other place writes an order bound down
ORDER_BOUNDS = {
    ADD: lambda r, s: r + s,
    TERMWISE: lambda r, s: r * s,
    CAUCHY: lambda r, s: r + s,
    PARTIAL_SUM: lambda r, s: r + 1,
    SUBSEQUENCE: lambda r, s: r,
}

# extra rows tried when every exponential-polynomial candidate has a
# leading coefficient that vanishes on a residue class
MAX_BUMP = 3


def _order_bound(kind, op_a, op_b=None):
    if kind not in ORDER_BOUNDS:
        raise ValueError(f"unsupported combination kind {kind!r}")
    return ORDER_BOUNDS[kind](op_a.order, op_b.order if op_b is not None else 0)


def _check_bound(order, bound):
    if order > bound:
        raise BoundViolated(f"result order {order} exceeds the closure bound {bound}")


def _exppoly_coeffs(vector):
    """A null vector cleared of denominators and trailing zeros, in its
    canonical sign: the last entry's leading term's leading coefficient has
    a positive last nonzero numerator (over a positive denominator)."""
    cleared = clear_exppoly_denominators(vector)
    while not cleared[-1]:
        cleared.pop()
    lead = cleared[-1].terms[-1][1].leading
    if next(a for a in reversed(lead.nums) if a) < 0:
        cleared = [-e for e in cleared]
    return cleared


def _exppoly_size(coeffs):
    """Tie-break between exponential-polynomial relations of equal order."""
    return sum(max(c.deg, 0) + len(c.terms) for c in coeffs if c)


def _common_ring(op_a, op_b=None, ring=None):
    """The operands viewed in ``ring`` (default: the larger of their rings);
    exponential coefficients also move into one number field."""
    if ring is None:
        ring = join_rings(op_a.ring, op_b.ring)
    op_a = op_a.promoted(ring)
    if op_b is None:
        return op_a, None
    op_b = op_b.promoted(ring)
    if ring is CoeffRing.EXPPOLY and op_a.leading.field != op_b.leading.field:
        field = common_field(op_a.leading.field, op_b.leading.field)
        op_a, op_b = (
            ShiftOperator(ring, [c.to_field(field) for c in op.coeffs])
            for op in (op_a, op_b)
        )
    return op_a, op_b


# ---------------------------------------------------------------------------
# shift representations over the operand basis


class _RingShiftRep:
    """Vectors expressing a(mult*n + t) over the basis a(mult*n + i), i < r,
    for constant and polynomial coefficients, as integer polynomials in n
    over one denominator each; the operator's rational coefficients are
    cleared by one integer scale.

    With the shifted leads L_k = c_r(mult*n + k) and the nested
    denominators D_t = L_0 ... L_{t-r} (D_t = 1 for t < r), a(mult*n + t)
    is p_t / D_t over the basis, where p_t is the unit vector e_t for t < r
    and, by the relation at mult*n + t - r,
    p_t = -sum_i c_i(mult*n + t - r) p_{t-r+i} (D_{t-1} / D_{t-r+i}).
    The quotient is a product of shifted leads, so the build takes no gcd
    and no division."""

    zero = []
    one = [1]
    add = staticmethod(_add)
    mul = staticmethod(_zx_mul)

    def __init__(self, op, mult=1):
        self.coeffs = _zx_cleared([c.coeffs for c in op.promoted(CoeffRing.POLY_N).coeffs])
        self.mult = mult
        self.order = r = op.order
        self.numerators = [[[1] if i == t else [] for i in range(r)] for t in range(r)]
        self.leads = []  # L_0, L_1, ...

    def vectors(self, shifts):
        """p_t (D_last / D_t) for each t of the ascending ``shifts``: the
        rows of a(mult*n + t), all over the last one's denominator."""
        r, last = self.order, shifts[-1]
        for t in range(len(self.numerators), last + 1):
            k = t - r
            shifted = [_compose_linear(c, self.mult, k) for c in self.coeffs]
            self.leads.append(shifted[r])
            vec = [[] for _ in range(r)]
            factor = [1]  # D_{t-1} / D_{k+i}, for i from r - 1 down
            for i in reversed(range(r)):
                if i < r - 1 and k + i - r + 1 >= 0:
                    factor = _zx_mul(factor, self.leads[k + i - r + 1])
                if shifted[i]:
                    c = _zx_mul(shifted[i], factor)
                    vec = [_sub(a, _zx_mul(c, b)) for a, b in zip(vec, self.numerators[k + i])]
            self.numerators.append(vec)
        out = []
        scale, j = [1], last - r  # scale = L_{j+1} ... L_{last-r}
        for t in reversed(shifts):
            while j > t - r and j >= 0:
                scale = _zx_mul(scale, self.leads[j])
                j -= 1
            out.append([_zx_mul(scale, p) for p in self.numerators[t]])
        return out[::-1]


class _FieldShiftRep:
    """Vectors expressing a(mult*n + t) over the basis a(mult*n + i), i < r,
    for exponential-polynomial coefficients, over their formal fractions."""

    add = staticmethod(operator.add)
    mul = staticmethod(operator.mul)

    def __init__(self, op, mult=1):
        self.operator = op
        self.mult = mult
        self.order = op.order
        field = op.leading.field
        self.zero = ExpPolyFraction.zero(field)
        self.one = ExpPolyFraction.one(field)
        self.minus_one = ExpPoly.constant(-1, field)

    def vectors(self, shifts):
        r, op, mult = self.order, self.operator, self.mult
        vecs = [[self.one if i == t else self.zero for i in range(r)] for t in range(r)]
        for t in range(r, shifts[-1] + 1):
            # a(m n + t) = -sum_i c_i(m n + t - r)/c_r(m n + t - r) a(m n + t - r + i)
            lead = op.shifted_coeff(r, t - r, mult)
            vec = [self.zero] * r
            for i in range(r):
                c = op.shifted_coeff(i, t - r, mult)
                if not c:
                    continue
                # the lists of (-c)/lead: a unit c negates, any other c takes a -1
                nums = [-c] if c.is_unit() else [self.minus_one, c]
                factor = ExpPolyFraction(c.field, nums, [lead])
                vec = [a + factor * b for a, b in zip(vec, vecs[t - r + i])]
            vecs.append(vec)
        return [vecs[t] for t in shifts]


def combination_matrix(kind, op_a, op_b=None, mult=1, rows=None):
    """The solution-space matrix whose left null vectors are recurrences.

    Row t represents the combined sequence shifted by t over the operand
    basis; ``rows`` overrides the number of shifts (defaults to the
    closure order bound plus one).  Over constants and polynomials in n
    the entries are integer polynomials (``_RingShiftRep``): each column is
    the true one times the last row's denominator, a scaling of one
    equation that leaves the left null space unchanged.  Over exponential
    polynomials they are formal fractions (``_FieldShiftRep``).
    """
    if kind in (ADD, TERMWISE) and op_b is None:
        raise ValueError(f"{kind} needs two operands")
    if kind in (PARTIAL_SUM, SUBSEQUENCE) and op_b is not None:
        raise ValueError(f"{kind} takes one operand")
    if kind == SUBSEQUENCE and mult < 1:
        raise ValueError("subsequence multiplier must be >= 1")
    if rows is None:
        rows = _order_bound(kind, op_a, op_b) + 1
    rep_type = _FieldShiftRep if op_a.ring is CoeffRing.EXPPOLY else _RingShiftRep
    if kind == SUBSEQUENCE:
        return rep_type(op_a, mult).vectors([mult * t for t in range(rows)])
    if kind == PARTIAL_SUM:
        rep = rep_type(op_a)
        matrix = []
        acc = [rep.zero] * op_a.order
        for t, vec in enumerate(rep.vectors(range(rows))):
            if t > 0:
                acc = list(map(rep.add, acc, vec))
            matrix.append([rep.one] + acc)
        return matrix
    if kind not in (ADD, TERMWISE):
        raise ValueError(f"unsupported combination kind {kind!r}")
    rep_a, rep_b = rep_type(op_a), rep_type(op_b)
    pairs = zip(rep_a.vectors(range(rows)), rep_b.vectors(range(rows)))
    if kind == ADD:
        return [u + w for u, w in pairs]
    return [[rep_a.mul(ui, wj) for ui in u for wj in w] for u, w in pairs]


# ---------------------------------------------------------------------------
# the solution-space driver


def _ring_relation(matrix, bound, var="n"):
    """The least-order left null vector of a matrix over Q or Q(var) as
    coprime polynomials in var, read off minors over Z[var] by the ring
    kernel ``least_null_vector``; its order is checked against ``bound``."""
    vector = least_null_vector(matrix)
    if vector is None:
        raise NullSpaceEmpty("no usable null vector (internal shape bug)")
    _check_bound(len(vector) - 1, bound)
    return [Poly(c, QQ, var) for c in vector]


def _closure(kind, op_a, op_b=None, mult=1):
    """Least annihilator of a combination of same-ring operators and the
    index from which it holds.

    Over constants and polynomials in n the ring kernel gives the relation
    directly.  Over exponential polynomials the null space comes from the
    field kernel; candidates whose leading coefficient vanishes on a residue
    class of n are dropped, the least (order, size) of the others wins, and
    the matrix grows by a row, up to ``MAX_BUMP`` times, until one is left."""
    ring = op_a.ring
    bound = _order_bound(kind, op_a, op_b)
    if ring is not CoeffRing.EXPPOLY:
        matrix = combination_matrix(kind, op_a, op_b, mult=mult, rows=bound + 1)
        operator = ShiftOperator(ring, _ring_relation(matrix, bound))
        return operator, leading_validity_offset(operator)
    field = op_a.leading.field
    fractions = FieldAdapter(
        ExpPolyFraction.zero(field), ExpPolyFraction.one(field), ExpPolyFraction.is_unit_value
    )
    for extra in range(MAX_BUMP + 1):
        matrix = combination_matrix(kind, op_a, op_b, mult=mult, rows=bound + 1 + extra)
        best = None
        for coeffs in map(_exppoly_coeffs, left_null_space(matrix, fractions)):
            validity = probe_leading_coefficient(coeffs[-1])
            if validity is None:
                continue
            key = (len(coeffs) - 1, _exppoly_size(coeffs))
            if best is None or key < best[0]:
                best = key, coeffs, validity
        if best is not None:
            (order, _), coeffs, validity = best
            _check_bound(order, bound + extra)
            return ShiftOperator(ring, coeffs), validity
    raise LeadingAlwaysZero(
        f"no combination up to order +{MAX_BUMP} has a usable leading coefficient"
    )


# ---------------------------------------------------------------------------
# public closure operations


def cfinite_combine_gf(kind, gf_a, gf_b=None):
    """Combine by generating-function arithmetic: addition, Cauchy product
    or partial sum.  Returns (generating function, recurrence)."""
    if kind == ADD:
        combined = gf_a + gf_b
    elif kind == CAUCHY:
        combined = gf_a * gf_b
    elif kind == PARTIAL_SUM:
        if gf_b is not None:
            raise ValueError("partial sum takes one operand")
        combined = gf_a.partial_sum()
    else:
        raise ValueError(f"unsupported generating-function kind {kind!r}")
    system = cfinite_from_rational(combined)
    degree_b = gf_b.den.degree if gf_b is not None else 0
    _check_bound(system.order, ORDER_BOUNDS[kind](gf_a.den.degree, degree_b))
    return combined, system


def cfinite_termwise(op_a, op_b):
    """Annihilator of the term-wise product; order at most r*s."""
    return _closure(TERMWISE, *_common_ring(op_a, op_b, CoeffRing.CONSTANT))[0]


def cfinite_add(op_a, op_b):
    """Annihilator of the sum via the solution space; order at most r+s."""
    return _closure(ADD, *_common_ring(op_a, op_b, CoeffRing.CONSTANT))[0]


def cfinite_subsequence(mult, op):
    """Annihilator of a(mult*n); order at most r."""
    return _closure(SUBSEQUENCE, *_common_ring(op, ring=CoeffRing.CONSTANT), mult=mult)[0]


def cfinite_partial_sum(op):
    return _closure(PARTIAL_SUM, *_common_ring(op, ring=CoeffRing.CONSTANT))[0]


def holonomic_combine(kind, op_a, op_b=None, mult=1):
    """Solution-space closure for polynomial-coefficient operators.

    The null vector is read off minors over Z[n] as coprime polynomials;
    the caller recomputes the validity offset from the output's leading
    coefficient."""
    return _closure(kind, *_common_ring(op_a, op_b, CoeffRing.POLY_N), mult=mult)[0]


def holonomic_cauchy(eq_a, eq_b):
    """Homogeneous ODE for the product of two homogeneous single-base
    generating functions; its order is bounded like a term-wise product's,
    by the product of the orders."""
    for eq in (eq_a, eq_b):
        if not eq.is_homogeneous or len(eq.terms) != 1:
            raise ValueError("homogeneous single-base equations required")
    bound = ORDER_BOUNDS[TERMWISE](eq_a.order, eq_b.order)
    rows = _cauchy_matrix(eq_a, eq_b, bound + 1)
    polys = _ring_relation(rows, bound, var="x")
    return DiffEquation(RATIONAL_FIELD, [(1, polys)], None)


def _cauchy_matrix(eq_a, eq_b, rows):
    """Row t expresses the t-th derivative of the product over the products
    of the operands' derivative bases (Leibniz rule), as integer
    polynomials in x: the rows over Q(x) times one common denominator."""
    r1, r2 = eq_a.order, eq_b.order
    va = _derivative_vectors(eq_a, rows)
    vb = _derivative_vectors(eq_b, rows)
    matrix = []
    for t in range(rows):
        row = [[] for _ in range(r1 * r2)]
        for u in range(t + 1):
            factor = math.comb(t, u)
            a, b = va[u], vb[t - u]
            for i in range(r1):
                if not a[i]:
                    continue
                left = [factor * c for c in a[i]]
                for j in range(r2):
                    if b[j]:
                        row[i * r2 + j] = _add(row[i * r2 + j], _zx_mul(left, b[j]))
        matrix.append(row)
    return matrix


def _derivative_vectors(equation, count):
    """The u-th derivatives of a generating function, u < count, over the
    basis of its first r derivatives, via its homogeneous ODE
    c_r f^(r) = -(c_0 f + ... + c_{r-1} f^(r-1)), all over one common
    denominator c_r^E, as integer polynomials in x; the coefficients are
    cleared by one integer scale.

    The u-th vector is q_u / c_r^e_u with integer polynomials q_u, where
    e_u = 0 for u < r and e_u = u - r + 1 after: the derivative of an entry
    is d/dx (q / c^e) = (q' c - e q c') / c^(e + 1), and the top basis
    derivative reduces by the ODE over one more factor c = c_r.  The
    vectors returned are q_u c_r^(E - e_u), with E = e_{count-1}."""
    _, coeffs = equation.terms[0]
    *low, lead = _zx_cleared([as_rational_poly(c).coeffs for c in coeffs])
    r = len(low)
    lead_prime = _derivative(lead)
    numerators = [[[1] if i == u else [] for i in range(r)] for u in range(min(r, count))]
    for u in range(r, count):
        e, prev = u - r, numerators[-1]
        scaled_lead_prime = [e * c for c in lead_prime]
        vec = []
        for i in range(r):
            q = prev[i]
            entry = _sub(_zx_mul(_derivative(q), lead), _zx_mul(q, scaled_lead_prime))
            if i:
                entry = _add(entry, _zx_mul(prev[i - 1], lead))
            vec.append(_sub(entry, _zx_mul(prev[r - 1], low[i])))
        numerators.append(vec)
    powers = [[1]]  # c_r^0 .. c_r^E
    for _ in range(max(count - r, 0)):
        powers.append(_zx_mul(powers[-1], lead))
    top = len(powers) - 1
    return [
        [_zx_mul(powers[top - max(u - r + 1, 0)], q) for q in vec]
        for u, vec in enumerate(numerators)
    ]


# ---------------------------------------------------------------------------
# exponential-polynomial coefficients, with degeneracy handling


def probe_leading_coefficient(coefficient):
    """The validity offset of a candidate's leading coefficient: one past
    its last natural zero, or None when it vanishes on a residue class of n.
    Raises ValidityUnproven when its zeros are undecided."""
    return validity_offset(coefficient)


def c2_combine(kind, op_a, op_b=None, mult=1):
    """Solution-space closure for exponential-polynomial coefficients.

    Candidates whose leading coefficient vanishes on a residue class of n
    (the degenerate case) are rejected and the order is bumped by one, up
    to ``MAX_BUMP`` times.  Returns (operator, validity_offset), the offset
    one past the last natural zero of the leading coefficient; raises
    ValidityUnproven when those zeros are undecided."""
    return _closure(kind, *_common_ring(op_a, op_b, CoeffRing.EXPPOLY), mult=mult)


# ---------------------------------------------------------------------------
# polynomial closures in closed form


def poly_closure(kind, poly_a, poly_b=None, mult=1):
    """Closed-form combination of polynomial sequences.

    Degrees obey max(k,l) for addition, k+l term-wise, k+l+1 for the
    Cauchy product, k+1 for partial sums and k for subsequences."""
    if kind == ADD:
        return poly_a + poly_b
    if kind == TERMWISE:
        return poly_a * poly_b
    if kind == SUBSEQUENCE:
        return poly_a.compose_linear(mult, 0)
    if kind in (PARTIAL_SUM, CAUCHY):
        # interpolate the combined values at n = 0 .. the degree bound
        bound = max(poly_a.degree, 0) + 1
        if kind == CAUCHY:
            bound += max(poly_b.degree, 0)
        points = range(bound + 1)
        a, b = (
            None if poly is None else Sequence(poly.evaluate(Fraction(n)) for n in points)
            for poly in (poly_a, poly_b)
        )
        values = _combined_values(kind, a, b, 0, bound + 1)
        return newton_poly(forward_differences(values))
    raise ValueError(f"unsupported polynomial closure kind {kind!r}")


# ---------------------------------------------------------------------------
# combined systems with initial values


def _combined_values(kind, a, b, start, count, mult=1):
    """The values at n = start, ..., start + count - 1 of the combination of
    the operand sequences ``a`` and ``b`` (None for the one-operand kinds),
    read with ``Sequence.value``; a partial sum adds ``a`` up from start,
    its first index, and a Cauchy product starts at 0."""
    indices = range(start, start + count)
    if kind == SUBSEQUENCE:
        return [a.value(mult * n) for n in indices]
    if kind == PARTIAL_SUM:
        return list(accumulate(a.value(n) for n in indices))
    if kind == ADD:
        return [a.value(n) + b.value(n) for n in indices]
    if kind == TERMWISE:
        return [a.value(n) * b.value(n) for n in indices]
    if kind == CAUCHY:
        return series_mul(a.terms, b.terms, count, Fraction(0))
    raise ValueError(f"unsupported kind {kind!r}")


def combine(kind, sys_a, sys_b=None, mult=1):
    """Combine recurrence systems into a full system for the result.

    Operands of different classes are promoted upward (polynomial and
    constant coefficients into whatever the other operand needs); initial
    values come from combining directly computed operand terms.

    Operands may hold only from their validity offsets v_a and v_b, past
    the last zero of their leading coefficients.  Row t of the combination
    matrix at index n writes the combination at n + t over a(n + i), i < r,
    by the operand relations at n .. n + t - r, and a subsequence row over
    a(mult*n + i) by those at mult*n and later: every row uses the operand
    relations only at indices >= n (>= mult*n).  So a null vector relates
    the combined values at every n >= v_a, v_b (for a subsequence, every
    n >= ceil(v_a / mult)), and the result holds from the largest of these
    and its own leading coefficient's validity offset.

    Operands may also start at an index o > 0 (``offset``; o <= v).  The
    result starts at max(o_a, o_b), at ceil(o_a / mult) for a subsequence,
    and a partial sum adds up from o_a; its initial values are the
    combined operand terms from there.  The Cauchy product goes through
    generating functions, which need offset and validity offset 0.
    """
    if kind in (PARTIAL_SUM, SUBSEQUENCE):
        sys_b = None
    elif kind == CAUCHY and sys_b is None:
        raise ValueError("cauchy needs two operands")
    operands = [sys_a] if sys_b is None else [sys_a, sys_b]
    if kind == CAUCHY and any(system.offset for system in operands):
        raise ValueError("combinations require offset-0 operands")
    delays = [system.validity_offset for system in operands]
    if kind == CAUCHY and any(delays):
        raise ValueError("Cauchy products require validity offset 0")
    if kind == SUBSEQUENCE and mult < 1:
        raise ValueError("subsequence multiplier must be >= 1")
    step = mult if kind == SUBSEQUENCE else 1
    delays[0] = -(-delays[0] // step)
    start = -(-max(system.offset for system in operands) // step)
    op_a = sys_a.operator
    op_b = sys_b.operator if sys_b is not None else None
    if op_b is not None:
        op_a, op_b = _common_ring(op_a, op_b)
    ring = op_a.ring
    if kind != CAUCHY:
        operator, validity = _closure(kind, op_a, op_b, mult=mult)
        validity = max(validity, *delays)
    elif ring is CoeffRing.CONSTANT:
        _, system = cfinite_combine_gf(
            CAUCHY, genfun_cfinite(sys_a), genfun_cfinite(sys_b)
        )
        return system
    elif ring is CoeffRing.POLY_N:
        equation = holonomic_cauchy(
            homogenize(holonomic_to_diff(sys_a)),
            homogenize(holonomic_to_diff(sys_b)),
        )
        operator, validity = diff_to_holonomic(equation)
    else:
        raise UnsupportedCase(
            "no constructive Cauchy-product procedure exists for"
            " exponential-polynomial coefficients"
        )
    end = validity + operator.order  # one past the last initial value
    last = step * (end - 1)  # the last operand index the initial values read
    a, b = (
        None if system is None
        else expand_terms(system, max(last + 1 - system.offset, len(system.initials)))
        for system in (sys_a, sys_b)
    )
    initials = _combined_values(kind, a, b, start, end - start, mult)
    return RecurrenceSystem(operator, initials, validity, start)


# ---------------------------------------------------------------------------
# rigorous identity proofs


@dataclass(frozen=True)
class ClaimTerm:
    """coefficient * product of shifted sequences, optionally with a shift
    operator applied to the whole product (which never raises the bound)."""

    coeff: Fraction
    factors: tuple  # ((name, shift), ...)
    operator: tuple = (Fraction(1),)

    def describe(self, orders):
        if not self.factors:
            return "1"
        return "*".join(str(orders[name]) for name, _ in self.factors)


@dataclass(frozen=True)
class IdentityClaim:
    """Assertion that a polynomial combination of registered sequences is
    identically zero for all n >= from_n."""

    sequences: dict
    terms: tuple
    from_n: int = 0


@dataclass(frozen=True)
class ProofCertificate:
    order_bound: int
    bound_trace: str
    terms_checked: int
    verdict: str  # "proven" or "refuted"
    witness: object = None
    witness_value: object = None


def _claim_bound(claim):
    orders = {}
    for name, system in claim.sequences.items():
        if system.operator.ring is not CoeffRing.CONSTANT:
            raise UnboundableExpression(
                f"sequence {name!r} is not constant-coefficient; no rigorous bound"
            )
        if system.validity_offset != system.offset:
            raise UnboundableExpression(
                f"sequence {name!r} has a delayed relation; no rigorous bound"
            )
        orders[name] = system.operator.order
    total = 0
    pieces = []
    for term in claim.terms:
        bound = 1
        for name, _ in term.factors:
            if name not in orders:
                raise UnboundableExpression(f"sequence {name!r} is not registered")
            bound = ORDER_BOUNDS[TERMWISE](bound, orders[name])
        total = ORDER_BOUNDS[ADD](total, bound)
        pieces.append(term.describe(orders))
    trace = " + ".join(pieces) + f" = {total}"
    return total, trace


def prove_identity(claim):
    """Prove or refute the claim by checking order-bound many values.

    The expression is a combination of constant-coefficient sequences, so
    it satisfies some recurrence of order at most the composed bound with
    a nonvanishing leading coefficient; that many consecutive zeros force
    the whole tail to vanish.  A claim that reads a sequence below its
    first index raises ValueError before any sequence is expanded.
    """
    bound, trace = _claim_bound(claim)
    max_index = claim.from_n + bound - 1
    needed, lowest = {}, {}
    for term in claim.terms:
        op_span = len(term.operator) - 1
        first = next((j for j, w in enumerate(term.operator) if w), 0)
        for name, shift in term.factors:
            idx = max_index + shift + op_span
            needed[name] = max(needed.get(name, 0), idx)
            low = claim.from_n + first + shift
            lowest[name] = min(lowest.get(name, low), low)
    for name, low in lowest.items():
        start = claim.sequences[name].offset
        if low < start:
            raise ValueError(
                f"the claim reads {name}({low}), but sequence {name!r} starts"
                f" at n = {start}"
            )
    expanded = {}
    for name, top in needed.items():
        system = claim.sequences[name]
        count = max(top - system.offset + 1, len(system.initials))
        expanded[name] = expand_terms(system, count)
    for n in range(claim.from_n, claim.from_n + bound):
        total = Fraction(0)
        for term in claim.terms:
            for j, w in enumerate(term.operator):
                if not w:
                    continue
                product = term.coeff * w
                for name, shift in term.factors:
                    product *= expanded[name].value(n + j + shift)
                total += product
        if total:
            return ProofCertificate(
                order_bound=bound,
                bound_trace=trace,
                terms_checked=n - claim.from_n + 1,
                verdict="refuted",
                witness=n,
                witness_value=total,
            )
    return ProofCertificate(
        order_bound=bound,
        bound_trace=trace,
        terms_checked=bound,
        verdict="proven",
    )
