"""Growth templates for polynomial-coefficient recurrences by guess and check.

The template is n^(mu0*n) * lambda^n * n^theta * (1 + c_1/n + c_2/n^2 + ...)
(the subexponential factor rho and the power beta are fixed at 1 and 0;
anything else raises UnsupportedCase).  The shift ratio

    y(n+k)/y(n) = n^(mu0*k) lambda^k (1 + (theta*k + k^2*mu0/2)/n + ...)

is expanded exactly in u = 1/n, the recurrence residual is collected by
powers of u, and successive coefficients determine mu0 and lambda (top
order), theta (next order) and then the series corrections one at a time.
The growth constants lambda are the nonzero roots ``fields.split_roots``
finds for the top-order balance; a repeated one, or one outside Q and a
quadratic field (``UnsupportedFactorization``), is an UnsupportedCase.  The
series products and inverses are ``polynomials.series_mul`` and
``series_inv``.  No floating point enters anywhere; corroboration against
numeric data lives in the test suite.

Only the factor S(u/(1+ku)) / S(u) of the ratio depends on the series
S(u) = 1 + c_1 u + ...  The rest is built once per form and residual
length by ``_shift_parts``: for each shift k, the reversed coefficient
p_k times the exponential part and the binomial (1 + k u)^theta, and the
powers of u/(1+ku).  ``refine_series`` builds them at its final length and
reads their leading coefficients at every shorter one, which is exact: the
first L coefficients of a product or of exp depend only on the first L
coefficients of the inputs.  1/S(u) is built once per residual and shared
by every k.
"""

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import InconsistentSystem, InternalError, UnsupportedCase
from .fields import split_roots
from .polynomials import NEG_INFINITY, Poly, QQ, series_inv, series_mul
from .sequences import CoeffRing


@dataclass(frozen=True)
class AsymptoticForm:
    """One formal series solution, determined up to the constant multiple K."""

    mu0: int
    lam: object  # field element
    theta: object  # field element
    field: object
    rho: int = 1
    beta: Fraction = Fraction(0)
    series: tuple = ()

    def sort_key(self):
        return (self.mu0, self.lam.sort_key(), self.theta.sort_key())

    def __str__(self):
        head = []
        if self.mu0 == 1:
            head.append("(n/e)^n")
        elif self.mu0:
            head.append(f"(n/e)^({self.mu0}*n)")
        head.append(f"({self.lam})^n")
        head.append(f"n^({self.theta})")
        tail = "1"
        for j, c in enumerate(self.series, start=1):
            if c:
                tail += f" + ({c})/n^{j}"
        return "K * " + " * ".join(head) + f" * ({tail})"


def _poly_coeffs(operator):
    if operator.ring is CoeffRing.EXPPOLY:
        raise UnsupportedCase("exponential-coefficient recurrences are out of scope")
    return list(operator.promoted(CoeffRing.POLY_N).coeffs)


# -- truncated power series (dense lists over a number field) ----------------


def _ser_exp(a, length, field):
    if a[0]:
        raise InternalError("exp needs zero constant term")
    result = [field.zero] * length
    result[0] = field.one
    term = list(result)
    for m in range(1, length):
        term = series_mul(term, a, length, field.zero)
        inverse_m = Fraction(1, m)
        term = [t * inverse_m for t in term]
        result = [x + y for x, y in zip(result, term)]
        if not any(term):
            break
    return result


def _shift_parts(polys, mu0, theta, length, field):
    """The series-free factors of the residual to u^length, built once per
    form: for each coefficient p_k that reaches u^length, the tuple (k,
    gap, plain, powers).  The residual term of p_k starts at u^gap; plain
    is p_k reversed times exp(mu0 * sum_j (-1)^(j+1) k^(j+1)/(j(j+1)) u^j)
    times (1 + k u)^theta, and powers are w, w^2, ... with w = u/(1+ku),
    all to u^(length - gap).  A shorter residual reads their leading
    coefficients, which a truncated product or exp leaves unchanged."""
    degs = [p.degree for p in polys]
    top = max(d + mu0 * i for i, d in enumerate(degs) if d is not NEG_INFINITY)
    parts = []
    for k, p in enumerate(polys):
        if not p:
            continue
        gap = top - degs[k] - mu0 * k
        size = length - gap
        if size <= 0:
            continue
        expo = [field.zero] * size
        for j in range(1, size):
            expo[j] = field.coerce(
                Fraction(mu0) * Fraction((-1) ** (j + 1) * k ** (j + 1), j * (j + 1))
            )
        binom = [field.one]  # C(theta, j) k^j, each from the one before
        for j in range(1, size):
            binom.append(binom[-1] * (theta - (j - 1)) * Fraction(k, j))
        plain = series_mul(_ser_exp(expo, size, field), binom, size, field.zero)
        reversed_poly = [field.coerce(c) for c in reversed(p.coeffs)]
        plain = series_mul(reversed_poly, plain, size, field.zero)
        w = [field.zero] + [field.coerce(Fraction((-k) ** (j - 1))) for j in range(1, size)]
        powers = [w]
        for _ in range(2, size):
            powers.append(series_mul(powers[-1], w, size, field.zero))
        parts.append((k, gap, plain, powers))
    return parts


def _residual_series(parts, lam, series, length, field):
    """Recurrence residual divided by n^E, expanded to u^length, from the
    factors ``_shift_parts`` built to at least that length.  The shift
    ratio y(n+k)/y(n) over n^(mu0 k) lambda^k multiplies them by
    S(u/(1+ku)) / S(u) with S(u) = 1 + sum_m c_m u^m."""
    residual = [field.zero] * length
    # c_m with m >= length vanish to u^length in both S(u) and S(u/(1+ku))
    series = [field.coerce(c) for c in series[: length - 1]]
    scaled = any(series)
    if scaled:
        inverse = series_inv([field.one] + series, length)
    for k, gap, plain, powers in parts:
        size = length - gap
        if size <= 0:
            continue
        piece = plain[:size]
        if scaled:
            s_comp = [field.one] + [field.zero] * (size - 1)
            for c, w_power in zip(series, powers):
                if c:
                    s_comp = [x + c * y for x, y in zip(s_comp, w_power)]
            piece = series_mul(piece, s_comp, size, field.zero)
            piece = series_mul(piece, inverse, size, field.zero)
        weight = lam ** k
        for j, value in enumerate(piece):
            if value:
                residual[j + gap] = residual[j + gap] + weight * value
    return residual


def _solve_linear_coefficient(evaluate, field):
    """Solve evaluate(x) = A + B x = 0 by sampling x = 0 and x = 1."""
    a = evaluate(field.zero)
    b = evaluate(field.one) - a
    if not b:
        return None if a else field.zero
    return (field.zero - a) / b


def leading_forms(operator):
    """All templates (mu0, lambda, theta) compatible with the recurrence.

    mu0 candidates are the integers between the extreme degree slopes;
    each surviving candidate contributes one form per simple root lambda
    of its top-order balance, with theta from the next order.
    """
    polys = _poly_coeffs(operator)
    degs = [(i, p.degree) for i, p in enumerate(polys) if p]
    if len(degs) < 2:
        return []
    slopes = []
    for a in range(len(degs)):
        for b in range(a + 1, len(degs)):
            (i, di), (j, dj) = degs[a], degs[b]
            slopes.append(Fraction(di - dj, j - i))
    lo, hi = min(slopes), max(slopes)
    candidates = list(range(math.ceil(lo), math.floor(hi) + 1))
    if not candidates:
        raise UnsupportedCase(
            "dominant balance needs a non-integer leading exponent"
        )
    forms = []
    for mu0 in candidates:
        top = max(d + mu0 * i for i, d in degs)
        participants = [(i, polys[i].leading) for i, d in degs if d + mu0 * i == top]
        if len(participants) < 2:
            continue
        char_coeffs = [Fraction(0)] * (max(i for i, _ in participants) + 1)
        for i, lead in participants:
            char_coeffs[i] = lead
        field, roots = split_roots(Poly(char_coeffs, QQ, "L"))
        lams = [lam for lam, _ in roots if lam]  # a zero root is no growth rate
        for lam, multiplicity in roots:
            if lam and multiplicity > 1:
                raise UnsupportedCase(
                    f"repeated growth root {lam}; template needs logarithmic terms"
                )
        for lam in lams:
            theta = _solve_linear_coefficient(
                lambda th: _residual_series(
                    _shift_parts(polys, mu0, th, 2, field), lam, (), 2, field
                )[1],
                field,
            )
            if theta is None:
                raise UnsupportedCase(
                    "next-order balance does not determine the power of n"
                )
            forms.append(AsymptoticForm(mu0=mu0, lam=lam, theta=theta, field=field))
    forms.sort(key=AsymptoticForm.sort_key)
    return forms


def refine_series(form, operator, count):
    """Determine the trailing series coefficients c_1..c_count.

    Each c_j comes from the u^(1+j) residual coefficient, which is linear
    in c_j once the earlier ones are fixed."""
    field = form.field
    parts = _shift_parts(_poly_coeffs(operator), form.mu0, form.theta, count + 2, field)
    series = list(form.series)
    for j in range(len(series) + 1, count + 1):
        length = j + 2

        def evaluate(value, length=length):
            trial = series + [value]
            return _residual_series(parts, form.lam, trial, length, field)[length - 1]

        solution = _solve_linear_coefficient(evaluate, field)
        if solution is None:
            raise InconsistentSystem(
                f"series coefficient {j} has no solution; leading form is wrong"
            )
        series.append(solution)
    return replace(form, series=tuple(series))


def residual_coefficients(form, operator, count):
    """Residual u-coefficients for a refined form; all zero through the
    refined order when the form is consistent."""
    parts = _shift_parts(_poly_coeffs(operator), form.mu0, form.theta, count, form.field)
    return _residual_series(parts, form.lam, form.series, count, form.field)
