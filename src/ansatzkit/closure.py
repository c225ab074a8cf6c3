"""Recurrences for sequences built from known ones.

Addition, term-wise product, partial sum and linear subsequences all use
the same solution-space construction for every coefficient ring: write the
shifted combination over a finite basis of operand shifts (with
coefficients in the ring's function field), then read a recurrence off the
left null space of the resulting matrix.  One driver, ``_closure``, does
this for all kinds and rings; a per-ring record ``_RINGS`` supplies the
field, the coefficient lift, the null-vector normaliser and the size
tie-break.  Cauchy products go through generating functions: rational
arithmetic for constant coefficients, an ODE null-space construction
otherwise.

``ORDER_BOUNDS`` is the one table of closure order bounds.  It sizes the
matrices, checks every result (``BoundViolated``) and is composed over an
expression tree by the identity prover, which then checks exactly that
many initial values -- a complete proof for constant-coefficient operands.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BoundViolated,
    LeadingAlwaysZero,
    NullSpaceEmpty,
    UnboundableExpression,
    UnsupportedCase,
)
from .exppoly import ExpPolyFraction
from .fields import RATIONAL_FIELD, common_field
from .genfun import DiffEquation, cfinite_from_rational
from .linalg import (
    clear_denominators,
    clear_exppoly_denominators,
    exppoly_fraction_adapter,
    left_null_space,
    rational_adapter,
    ratfunc_adapter,
)
from .polynomials import Poly, QQ, rational_content
from .ratfunc import RationalFunction
from .sequences import (
    CoeffRing,
    RecurrenceSystem,
    ShiftOperator,
    expand_terms,
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
# degenerate leading coefficient, and the window of the degeneracy probe
MAX_BUMP = 3
PROBE = 200


def _order_bound(kind, op_a, op_b=None):
    if kind not in ORDER_BOUNDS:
        raise ValueError(f"unsupported combination kind {kind!r}")
    return ORDER_BOUNDS[kind](op_a.order, op_b.order if op_b is not None else 0)


def _check_bound(order, bound):
    if order > bound:
        raise BoundViolated(f"result order {order} exceeds the closure bound {bound}")


# ---------------------------------------------------------------------------
# per-ring rules


def _constant_coeffs(vector):
    """Coprime integer coefficients with a positive leading one."""
    values = list(vector)
    while not values[-1]:
        values.pop()
    denominators = 1
    for v in values:
        denominators = denominators * v.denominator // math.gcd(
            denominators, v.denominator
        )
    scaled = [v * denominators for v in values]
    content = rational_content(scaled)
    scaled = [v / content for v in scaled]
    if scaled[-1] < 0:
        scaled = [-v for v in scaled]
    return scaled


def _ratfunc_coeffs(vector):
    trimmed = list(vector)
    while not trimmed[-1]:
        trimmed.pop()
    return clear_denominators(trimmed)


def _exppoly_sign(e):
    """Canonical sign of an exponential polynomial: the sign of the last
    nonzero rational coordinate of the leading term's leading coefficient."""
    base, poly = e.terms[-1]
    lead = poly.leading
    for c in reversed(lead.coords):
        if c:
            return 1 if c > 0 else -1
    return 1


def _exppoly_coeffs(vector):
    cleared = clear_exppoly_denominators(vector)
    while not cleared[-1]:
        cleared.pop()
    if _exppoly_sign(cleared[-1]) < 0:
        cleared = [-e for e in cleared]
    return cleared


@dataclass(frozen=True)
class _RingRules:
    """How the solution-space construction works over one coefficient ring."""

    adapter: object  # operator -> FieldAdapter of the ring's function field
    lift: object  # ShiftOperator.shifted_coeff value -> field element
    normalise: object  # nonzero null vector -> canonical coefficient list
    size: object  # coefficient list -> tie-break between equal orders


_RINGS = {
    CoeffRing.CONSTANT: _RingRules(
        adapter=lambda op: rational_adapter(),
        lift=lambda c: c,
        normalise=_constant_coeffs,
        size=lambda coeffs: 0,
    ),
    CoeffRing.POLY_N: _RingRules(
        adapter=lambda op: ratfunc_adapter(RationalFunction(Poly([1], QQ, "n"))),
        lift=RationalFunction,
        normalise=_ratfunc_coeffs,
        size=lambda coeffs: sum(max(c.degree, 0) for c in coeffs if c),
    ),
    CoeffRing.EXPPOLY: _RingRules(
        adapter=lambda op: exppoly_fraction_adapter(op.leading.field),
        lift=ExpPolyFraction.from_exppoly,
        normalise=_exppoly_coeffs,
        size=lambda coeffs: sum(max(c.deg, 0) + len(c.terms) for c in coeffs if c),
    ),
}

_RING_RANK = [CoeffRing.CONSTANT, CoeffRing.POLY_N, CoeffRing.EXPPOLY]


def _common_ring(op_a, op_b=None, ring=None):
    """The operands viewed in ``ring`` (default: the larger of their rings);
    exponential coefficients also move into one number field."""
    if ring is None:
        ring = max(op_a.ring, op_b.ring, key=_RING_RANK.index)
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


class _ShiftRep:
    """Vectors expressing a(mult*n + t) over the basis a(mult*n + i), i < r,
    with entries in the function field of the operator's ring."""

    def __init__(self, operator, mult=1):
        self.operator = operator
        self.mult = mult
        self.order = operator.order
        self.lift = _RINGS[operator.ring].lift
        field = _RINGS[operator.ring].adapter(operator)
        self.zero = field.zero
        self.one = field.one
        self._cache = {}

    def _coeff(self, i, shift):
        """c_i evaluated at argument mult*n + shift, as a field element."""
        return self.lift(self.operator.shifted_coeff(i, shift, self.mult))

    def vector(self, t):
        if t in self._cache:
            return self._cache[t]
        r = self.order
        if t < r:
            vec = [self.zero] * r
            vec[t] = self.one
        else:
            # a(m n + t) = -sum_i c_i(m n + t - r)/c_r(m n + t - r) a(m n + t - r + i)
            lead = self._coeff(r, t - r)
            vec = [self.zero] * r
            for i in range(r):
                c = self._coeff(i, t - r)
                if not c:
                    continue
                factor = (-c) / lead
                sub = self.vector(t - r + i)
                vec = [a + factor * b for a, b in zip(vec, sub)]
        self._cache[t] = vec
        return vec


def combination_matrix(kind, op_a, op_b=None, mult=1, rows=None):
    """The solution-space matrix whose left null vectors are recurrences.

    Row t represents the combined sequence shifted by t over the operand
    basis; ``rows`` overrides the number of shifts (defaults to the
    closure order bound plus one).
    """
    if kind in (ADD, TERMWISE) and op_b is None:
        raise ValueError(f"{kind} needs two operands")
    if kind in (PARTIAL_SUM, SUBSEQUENCE) and op_b is not None:
        raise ValueError(f"{kind} takes one operand")
    if kind == SUBSEQUENCE and mult < 1:
        raise ValueError("subsequence multiplier must be >= 1")
    if rows is None:
        rows = _order_bound(kind, op_a, op_b) + 1
    if kind == SUBSEQUENCE:
        rep = _ShiftRep(op_a, mult)
        return [rep.vector(mult * t) for t in range(rows)]
    if kind == PARTIAL_SUM:
        rep = _ShiftRep(op_a)
        matrix = []
        acc = [rep.zero] * op_a.order
        for t in range(rows):
            if t > 0:
                acc = [a + b for a, b in zip(acc, rep.vector(t))]
            matrix.append([rep.one] + list(acc))
        return matrix
    rep_a = _ShiftRep(op_a)
    rep_b = _ShiftRep(op_b)
    if kind == ADD:
        return [rep_a.vector(t) + rep_b.vector(t) for t in range(rows)]
    if kind == TERMWISE:
        matrix = []
        for t in range(rows):
            u, w = rep_a.vector(t), rep_b.vector(t)
            matrix.append([ui * wj for ui in u for wj in w])
        return matrix
    raise ValueError(f"unsupported combination kind {kind!r}")


# ---------------------------------------------------------------------------
# the solution-space driver


def _least_relation(matrix, field, rules, bound, probe=None):
    """Normalised left null vector of ``matrix`` of least (order, size).

    Returns (coefficients, validity offset).  ``probe`` maps a candidate's
    leading coefficient to its validity offset, or None to drop it; without
    it every candidate counts as valid from 0 and an empty null space is an
    error.  Returns None when the probe drops every candidate.
    """
    best = None
    for vector in left_null_space(matrix, field):
        coeffs = rules.normalise(vector)
        validity = probe(coeffs[-1]) if probe else 0
        if validity is None:
            continue
        key = (len(coeffs) - 1, rules.size(coeffs))
        if best is None or key < best[0]:
            best = key, coeffs, validity
    if best is None:
        if probe:
            return None
        raise NullSpaceEmpty("no usable null vector (internal shape bug)")
    (order, _), coeffs, validity = best
    _check_bound(order, bound)
    return coeffs, validity


def _closure(kind, op_a, op_b=None, mult=1):
    """Least annihilator of a combination of same-ring operators and the
    index from which it holds.

    Exponential-polynomial candidates whose leading coefficient vanishes on
    an arithmetic tail are dropped, and the matrix grows by a row, up to
    ``MAX_BUMP`` times, until one is left."""
    ring = op_a.ring
    rules = _RINGS[ring]
    bound = _order_bound(kind, op_a, op_b)
    probing = ring is CoeffRing.EXPPOLY
    field = rules.adapter(op_a)
    for extra in range(MAX_BUMP + 1 if probing else 1):
        matrix = combination_matrix(kind, op_a, op_b, mult=mult, rows=bound + 1 + extra)
        found = _least_relation(
            matrix, field, rules, bound + extra,
            probe_leading_coefficient if probing else None,
        )
        if found is not None:
            operator = ShiftOperator(ring, found[0])
            if ring is CoeffRing.POLY_N:
                return operator, leading_validity_offset(operator)
            return operator, found[1]
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
    return _closure(TERMWISE, op_a, op_b)[0]


def cfinite_add(op_a, op_b):
    """Annihilator of the sum via the solution space; order at most r+s."""
    return _closure(ADD, op_a, op_b)[0]


def cfinite_subsequence(mult, op):
    """Annihilator of a(mult*n); order at most r."""
    return _closure(SUBSEQUENCE, op, mult=mult)[0]


def cfinite_partial_sum(op):
    return _closure(PARTIAL_SUM, op)[0]


def holonomic_combine(kind, op_a, op_b=None, mult=1):
    """Solution-space closure for polynomial-coefficient operators.

    The rational-function null vector is cleared to coprime polynomials;
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
    r1, r2 = eq_a.order, eq_b.order
    bound = ORDER_BOUNDS[TERMWISE](r1, r2)
    rep_a = _DerivativeRep(eq_a)
    rep_b = _DerivativeRep(eq_b)
    rows = []
    for t in range(bound + 1):
        row = [rep_a.zero] * (r1 * r2)
        for u in range(t + 1):
            factor = math.comb(t, u)
            va, vb = rep_a.vector(u), rep_b.vector(t - u)
            for i in range(r1):
                if not va[i]:
                    continue
                left = va[i] * factor
                for j in range(r2):
                    if vb[j]:
                        row[i * r2 + j] = row[i * r2 + j] + left * vb[j]
        rows.append(row)
    field = ratfunc_adapter(RationalFunction(Poly([1], QQ, "x")))
    polys, _ = _least_relation(rows, field, _RINGS[CoeffRing.POLY_N], bound)
    return DiffEquation(RATIONAL_FIELD, [(1, polys)], None)


class _DerivativeRep:
    """Vectors expressing the u-th derivative of a generating function over
    the basis of its first r derivatives, via its homogeneous ODE."""

    def __init__(self, equation):
        _, coeffs = equation.terms[0]
        lead = RationalFunction(_to_qq_poly(coeffs[-1]))
        self.reduction = [
            RationalFunction(_to_qq_poly(c)) / lead * Fraction(-1) for c in coeffs[:-1]
        ]
        self.order = len(coeffs) - 1
        one = RationalFunction(Poly([1], QQ, "x"))
        self.one = one
        self.zero = one - one
        self._cache = {}

    def vector(self, u):
        if u in self._cache:
            return self._cache[u]
        r = self.order
        if u < r:
            vec = [self.zero] * r
            vec[u] = self.one
        else:
            prev = self.vector(u - 1)
            vec = [f.derivative() for f in prev]
            for i in range(r - 1):
                vec[i + 1] = vec[i + 1] + prev[i]
            top = prev[r - 1]
            if top:
                vec = [a + top * b for a, b in zip(vec, self.reduction)]
        self._cache[u] = vec
        return vec


def _to_qq_poly(poly):
    return Poly([c.as_rational() for c in poly.coeffs], QQ, poly.var)


# ---------------------------------------------------------------------------
# exponential-polynomial coefficients, with degeneracy handling


def probe_leading_coefficient(coefficient):
    """Scan n = 0..PROBE for zeros of the leading coefficient.

    Returns the validity offset when the zeros stop early, or None when
    they persist to the end of the window (structural vanishing, e.g. on a
    parity class)."""
    zeros = [n for n in range(PROBE + 1) if not coefficient.evaluate(n)]
    if not zeros:
        return 0
    if zeros[-1] >= PROBE - 2:
        return None
    return zeros[-1] + 1


def c2_combine(kind, op_a, op_b=None, mult=1):
    """Solution-space closure for exponential-polynomial coefficients.

    Candidates whose leading coefficient vanishes on an arithmetic tail
    (the degenerate case) are rejected and the order is bumped by one, up
    to ``MAX_BUMP`` times.  Returns (operator, validity_offset)."""
    return _closure(kind, *_common_ring(op_a, op_b, CoeffRing.EXPPOLY), mult=mult)


# ---------------------------------------------------------------------------
# polynomial closures in closed form


def _binomial_basis(poly):
    """Coefficients d_j with p(n) = sum_j d_j C(n, j), via finite differences."""
    degree = max(poly.degree, 0)
    values = [poly.evaluate(Fraction(n)) for n in range(degree + 1)]
    out = []
    while values:
        out.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    return out


def _binomial_poly(j):
    """C(n, j) as a polynomial in n."""
    result = Poly([1], QQ, "n")
    for i in range(j):
        result = result * Poly([Fraction(-i), 1], QQ, "n")
        result = result.scale(Fraction(1, i + 1))
    return result


def poly_partial_sum(poly):
    """sum_{i=0}^{n} p(i) as a polynomial in n, via the binomial basis."""
    coeffs = _binomial_basis(poly)
    result = Poly([], QQ, "n")
    for j, d in enumerate(coeffs):
        if d:
            result = result + _binomial_poly(j + 1).scale(d)
    # antidifference gives sum_{i=0}^{n-1}; shift to include n
    return result.shift_arg(1)


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
    if kind == PARTIAL_SUM:
        return poly_partial_sum(poly_a)
    if kind == CAUCHY:
        # c_n = sum_i a(i) b(n-i): expand b(n-i) by powers of i, then sum
        # each i-power with the closed-form power sums
        i_coeffs = {}
        for l in range(max(poly_b.degree, 0) + 1):
            bl = poly_b.coefficient(l)
            if not bl:
                continue
            # (n - i)^l = sum_j C(l,j) n^(l-j) (-i)^j
            for j in range(l + 1):
                piece = Poly(
                    [Fraction(0)] * (l - j) + [bl * math.comb(l, j) * Fraction(-1) ** j],
                    QQ,
                    "n",
                )
                i_coeffs[j] = i_coeffs.get(j, Poly([], QQ, "n")) + piece
        # multiply by a(i) = sum_a a_m i^m
        product = {}
        for m in range(max(poly_a.degree, 0) + 1):
            am = poly_a.coefficient(m)
            if not am:
                continue
            for j, q in i_coeffs.items():
                product[m + j] = product.get(m + j, Poly([], QQ, "n")) + q.scale(am)
        result = Poly([], QQ, "n")
        for power, q in product.items():
            monomial = Poly([Fraction(0)] * power + [Fraction(1)], QQ, "n")
            result = result + q * poly_partial_sum(monomial)
        return result
    raise ValueError(f"unsupported polynomial closure kind {kind!r}")


# ---------------------------------------------------------------------------
# combined systems with initial values


def _combined_values(kind, sys_a, sys_b, count, mult=1):
    def expanded(system, wanted):
        return expand_terms(system, max(wanted, len(system.initials)))

    if kind == SUBSEQUENCE:
        inner = expanded(sys_a, mult * max(count - 1, 0) + 1)
        return [inner.value(mult * n) for n in range(count)]
    if kind == PARTIAL_SUM:
        inner = expanded(sys_a, count)
        acc = Fraction(0)
        out = []
        for v in inner.terms[:count]:
            acc += v
            out.append(acc)
        return out
    a = expanded(sys_a, count)
    b = expanded(sys_b, count)
    if kind == ADD:
        return [a.value(n) + b.value(n) for n in range(count)]
    if kind == TERMWISE:
        return [a.value(n) * b.value(n) for n in range(count)]
    if kind == CAUCHY:
        return [
            sum(
                (a.value(i) * b.value(n - i) for i in range(n + 1)),
                Fraction(0),
            )
            for n in range(count)
        ]
    raise ValueError(f"unsupported kind {kind!r}")


def combine(kind, sys_a, sys_b=None, mult=1):
    """Combine recurrence systems into a full system for the result.

    Operands of different classes are promoted upward (polynomial and
    constant coefficients into whatever the other operand needs); initial
    values come from combining directly computed operand terms.
    """
    if kind in (PARTIAL_SUM, SUBSEQUENCE):
        sys_b = None
    if sys_a.offset != 0 or (sys_b is not None and sys_b.offset != 0):
        raise ValueError("combinations require offset-0 operands")
    if sys_a.validity_offset != 0 or (sys_b is not None and sys_b.validity_offset != 0):
        raise ValueError("combinations require validity offset 0")
    op_a = sys_a.operator
    op_b = sys_b.operator if sys_b is not None else None
    if op_b is not None:
        op_a, op_b = _common_ring(op_a, op_b)
    ring = op_a.ring
    if kind != CAUCHY:
        operator, validity = _closure(kind, op_a, op_b, mult=mult)
    elif ring is CoeffRing.CONSTANT:
        from .genfun import genfun_cfinite

        _, system = cfinite_combine_gf(
            CAUCHY, genfun_cfinite(sys_a), genfun_cfinite(sys_b)
        )
        return system
    elif ring is CoeffRing.POLY_N:
        from .genfun import diff_to_holonomic, holonomic_to_diff, homogenize

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
    initials = _combined_values(kind, sys_a, sys_b, validity + operator.order, mult)
    return RecurrenceSystem(operator, initials, validity, 0)


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
    the whole tail to vanish.
    """
    bound, trace = _claim_bound(claim)
    max_index = claim.from_n + bound - 1
    needed = {}
    for term in claim.terms:
        op_span = len(term.operator) - 1
        for name, shift in term.factors:
            idx = max_index + shift + op_span
            needed[name] = max(needed.get(name, 0), idx)
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
