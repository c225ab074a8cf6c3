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
"""

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import InconsistentSystem, InternalError, UnsupportedCase
from .fields import split_roots
from .polynomials import NEG_INFINITY, Poly, QQ, binomial, series_inv, series_mul
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
        term = [t / m for t in term]
        result = [x + y for x, y in zip(result, term)]
        if not any(term):
            break
    return result


def _ratio_series(k, mu0, theta, series, length, field):
    """y(n+k)/y(n) divided by n^(mu0 k) lambda^k, as a series in u = 1/n."""
    # exponential part: exp(mu0 * sum_j (-1)^(j+1) k^(j+1)/(j(j+1)) u^j)
    expo = [field.zero] * length
    for j in range(1, length):
        expo[j] = field.coerce(
            Fraction(mu0) * Fraction((-1) ** (j + 1) * k ** (j + 1), j * (j + 1))
        )
    result = _ser_exp(expo, length, field)
    # (1 + k u)^theta
    binom = [
        field.coerce(binomial(theta, j)) * field.coerce(Fraction(k) ** j)
        for j in range(length)
    ]
    result = series_mul(result, binom, length, field.zero)
    if any(series):
        # S(u/(1+ku)) / S(u) with S(u) = 1 + sum_m c_m u^m
        s_plain = [field.one] + [field.coerce(c) for c in series]
        s_plain += [field.zero] * (length - len(s_plain))
        w = [field.zero] * length
        for j in range(1, length):
            w[j] = field.coerce(Fraction((-k) ** (j - 1)))
        s_comp = [field.zero] * length
        s_comp[0] = field.one
        w_power = [field.zero] * length
        w_power[0] = field.one
        for m, c in enumerate(series, start=1):
            w_power = series_mul(w_power, w, length, field.zero)
            if c:
                cf = field.coerce(c)
                s_comp = [x + cf * y for x, y in zip(s_comp, w_power)]
        result = series_mul(result, s_comp, length, field.zero)
        result = series_mul(result, series_inv(s_plain[:length], length), length, field.zero)
    return result


def _residual_series(polys, mu0, lam, theta, series, length, field):
    """Recurrence residual divided by n^E, expanded to u^length."""
    degs = [p.degree for p in polys]
    top = max(d + mu0 * i for i, d in enumerate(degs) if d is not NEG_INFINITY)
    residual = [field.zero] * length
    for i, p in enumerate(polys):
        if not p:
            continue
        gap = top - degs[i] - mu0 * i
        if gap >= length:
            continue
        reversed_poly = [field.coerce(c) for c in reversed(p.coeffs)]
        ratio = _ratio_series(i, mu0, theta, series, length, field)
        piece = series_mul(reversed_poly, ratio, length, field.zero)
        weight = lam ** i
        for j, value in enumerate(piece):
            if j + gap < length and value:
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
                lambda th: _residual_series(polys, mu0, lam, th, (), 2, field)[1],
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
    polys = _poly_coeffs(operator)
    field = form.field
    series = list(form.series)
    for j in range(len(series) + 1, count + 1):
        length = j + 2

        def evaluate(value, j=j, length=length):
            trial = series + [value]
            return _residual_series(
                polys, form.mu0, form.lam, form.theta, trial, length, field
            )[length - 1]

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
    polys = _poly_coeffs(operator)
    return _residual_series(
        polys, form.mu0, form.lam, form.theta, form.series, count, form.field
    )
