"""Recurrences whose coefficients are themselves C-finite sequences.

Coefficients can be registered either as constant-coefficient recurrences
(solved into exponential-polynomial closed form) or directly as
exponential polynomials; both normalize into the same canonical store.
"""

import math
from dataclasses import dataclass, field as dataclass_field

from .closedform import cfinite_closed_form
from .errors import UnsupportedFactorization, ZeroTail
from .exppoly import deg
from .linalg import FieldAdapter, solve_linear
from .polynomials import NEG_INFINITY
from .sequences import CoeffRing, RecurrenceSystem, expand_terms


def register_coefficient(system):
    """Closed form of a constant-coefficient recurrence, usable as a
    coefficient of a larger recurrence.

    The closed form must hold from n = 0, so a characteristic root at zero
    (whose first values are exceptional) is rejected.
    """
    closed = cfinite_closed_form(system)
    if closed.valid_from != 0:
        raise UnsupportedFactorization(
            "coefficient recurrence has a zero characteristic root; its"
            " closed form misses the first values"
        )
    return closed.expression


@dataclass(frozen=True)
class C2System:
    """Recurrence with exponential-polynomial coefficients plus the registry
    of named coefficient sequences it was built from."""

    system: RecurrenceSystem
    coefficient_registry: dict = dataclass_field(default_factory=dict)

    def __post_init__(self):
        if self.system.operator.ring is not CoeffRing.EXPPOLY:
            raise ValueError("coefficients must be exponential polynomials")

    @property
    def operator(self):
        return self.system.operator

    @property
    def initials(self):
        return self.system.initials

    @property
    def order(self):
        return self.system.order

    @property
    def degree(self):
        """Highest polynomial degree across all coefficient terms."""
        degrees = [deg(c) for c in self.operator.coeffs if c]
        return max(degrees) if degrees else NEG_INFINITY

    def expand(self, count):
        return expand_terms(self.system, count)


@dataclass(frozen=True)
class GrowthReport:
    """Least-squares fit of log |a_n| against a quadratic in n.

    ``quadratic`` approximates log(alpha) for growth of order alpha^(n^2);
    ``alpha_hat`` is its exponential.  Diagnostic only.
    """

    quadratic: float
    linear: float
    constant: float
    alpha_hat: float
    residual: float
    window: tuple
    points: int


def _log_abs(value):
    return math.log(abs(value.numerator)) - math.log(value.denominator)


def growth_probe(system, n_max):
    """Fit log |a_n| ~ q*n^2 + l*n + c on the tail of the expansion."""
    if isinstance(system, C2System):
        system = system.system
    seq = expand_terms(system, n_max + 1 - system.offset)
    start = system.offset + (n_max - system.offset) // 2
    points = [
        (n, _log_abs(seq.value(n)))
        for n in range(start, n_max + 1)
        if seq.value(n)
    ]
    if len(points) < 3:
        raise ZeroTail(f"tail of the sequence vanishes on [{start}, {n_max}]")
    # normal equations for [n^2, n, 1]
    sums = [0.0] * 5
    rhs = [0.0] * 3
    for n, y in points:
        powers = [1.0, float(n), float(n) ** 2, float(n) ** 3, float(n) ** 4]
        for k in range(5):
            sums[k] += powers[k]
        rhs[0] += y * powers[2]
        rhs[1] += y * powers[1]
        rhs[2] += y
    matrix = [
        [sums[4], sums[3], sums[2]],
        [sums[3], sums[2], sums[1]],
        [sums[2], sums[1], sums[0]],
    ]
    # the Gram matrix of three or more points is positive definite
    quad, lin, const = solve_linear(matrix, rhs, FieldAdapter(0.0, 1.0))
    residual = math.sqrt(
        sum(
            (y - (quad * n * n + lin * n + const)) ** 2 for n, y in points
        )
        / len(points)
    )
    return GrowthReport(
        quadratic=quad,
        linear=lin,
        constant=const,
        alpha_hat=math.exp(quad),
        residual=residual,
        window=(start, n_max),
        points=len(points),
    )
