"""Growth templates: leading-form extraction and series refinement."""

import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from ansatzkit import (
    CoeffRing,
    Poly,
    ShiftOperator,
    expand_terms,
    leading_forms,
    refine_series,
)
from ansatzkit.asymptotics import residual_coefficients
from ansatzkit.errors import UnsupportedCase

import conftest as corpus

F = Fraction


def form_by_lambda(forms, value):
    for form in forms:
        if form.lam == form.field.coerce(value):
            return form
    raise AssertionError(f"no form with lambda = {value}")


class TestLeadingForms:
    def test_factorial(self):
        forms = leading_forms(corpus.factorial_system().operator)
        assert len(forms) == 1
        form = forms[0]
        assert form.mu0 == 1
        assert form.lam == form.field.one
        assert form.theta == form.field.coerce(F(1, 2))
        assert form.rho == 1 and form.beta == 0

    def test_floor_square_two_branches(self):
        operator = ShiftOperator(
            CoeffRing.POLY_N, [Poly([2, 1]), Poly([2]), Poly([0, -1])]
        )
        forms = leading_forms(operator)
        assert len(forms) == 2
        plus = form_by_lambda(forms, 1)
        minus = form_by_lambda(forms, -1)
        assert (plus.mu0, plus.theta) == (0, plus.field.coerce(2))
        assert (minus.mu0, minus.theta) == (0, minus.field.coerce(0))

    def test_geometric(self):
        forms = leading_forms(ShiftOperator(CoeffRing.CONSTANT, [-2, 1]))
        assert [(f.mu0, f.lam.as_rational(), f.theta.as_rational()) for f in forms] == [
            (0, 2, 0)
        ]

    def test_count_at_most_order(self):
        forms = leading_forms(corpus.fibonacci_system().operator)
        assert len(forms) <= 2

    def test_deterministic_order(self):
        operator = ShiftOperator(
            CoeffRing.POLY_N, [Poly([2, 1]), Poly([2]), Poly([0, -1])]
        )
        once = leading_forms(operator)
        twice = leading_forms(operator)
        assert [f.sort_key() for f in once] == [f.sort_key() for f in twice]
        keys = [f.sort_key() for f in once]
        assert keys == sorted(keys)

    def test_repeated_root_unsupported(self):
        # (N-1)^2 has a double growth root
        operator = ShiftOperator(CoeffRing.CONSTANT, [1, -2, 1])
        with pytest.raises(UnsupportedCase):
            leading_forms(operator)


class TestRefineSeries:
    def test_factorial_stirling_correction(self):
        operator = corpus.factorial_system().operator
        form = leading_forms(operator)[0]
        refined = refine_series(form, operator, 2)
        assert refined.series[0] == form.field.coerce(F(1, 12))

    def test_refine_to_zero_terms_is_identity(self):
        operator = corpus.factorial_system().operator
        form = leading_forms(operator)[0]
        assert refine_series(form, operator, 0).series == ()

    def test_floor_square_c2(self):
        operator = ShiftOperator(
            CoeffRing.POLY_N, [Poly([2, 1]), Poly([2]), Poly([0, -1])]
        )
        plus = form_by_lambda(leading_forms(operator), 1)
        refined = refine_series(plus, operator, 4)
        zero = refined.field.zero
        expected = [zero, refined.field.coerce(F(-1, 2)), zero, zero]
        assert list(refined.series) == expected

    def test_alternating_branch_series_vanishes(self):
        operator = ShiftOperator(
            CoeffRing.POLY_N, [Poly([2, 1]), Poly([2]), Poly([0, -1])]
        )
        minus = form_by_lambda(leading_forms(operator), -1)
        refined = refine_series(minus, operator, 4)
        assert all(not c for c in refined.series)

    def test_residuals_cancel_through_refined_order(self):
        operator = corpus.factorial_system().operator
        form = leading_forms(operator)[0]
        refined = refine_series(form, operator, 3)
        residuals = residual_coefficients(refined, operator, 5)
        assert all(not r for r in residuals)


class TestNumericCorroboration:
    @staticmethod
    def _log_template(form, n):
        """log of the template at n with K = 1, via floats."""
        value = form.mu0 * (n * math.log(n) - n)
        lam = form.lam.as_rational()
        value += n * math.log(lam)
        value += float(form.theta.as_rational()) * math.log(n)
        series = 1.0
        for j, c in enumerate(form.series, start=1):
            series += float(c.as_rational()) / n ** j
        return value + math.log(series)

    def test_factorial_ratio_converges(self):
        operator = corpus.factorial_system().operator
        form = refine_series(leading_forms(operator)[0], operator, 2)
        errors = []
        for n in (100, 200, 400):
            true_ratio = float(n + 1)
            predicted = math.exp(
                self._log_template(form, n + 1) - self._log_template(form, n)
            )
            errors.append(abs(true_ratio / predicted - 1.0))
        assert errors[0] > errors[1] > errors[2]

    def test_floor_square_dominant_ratio_converges(self):
        operator = ShiftOperator(
            CoeffRing.POLY_N, [Poly([2, 1]), Poly([2]), Poly([0, -1])]
        )
        form = form_by_lambda(leading_forms(operator), 1)
        refined = refine_series(form, operator, 2)
        values = expand_terms(corpus.floor_square_system(), 402)
        errors = []
        for n in (100, 200, 400):
            empirical = float(values.value(n + 1)) / float(values.value(n))
            predicted = math.exp(
                self._log_template(refined, n + 1) - self._log_template(refined, n)
            )
            errors.append(abs(empirical / predicted - 1.0))
        assert errors[0] > errors[1] > errors[2]

    def test_factorial_fitted_constant(self):
        operator = corpus.factorial_system().operator
        form = refine_series(leading_forms(operator)[0], operator, 2)
        log_k = math.lgamma(401) - self._log_template(form, 400)
        ratio = math.exp(
            math.lgamma(201) - (log_k + self._log_template(form, 200))
        )
        assert abs(ratio - 1.0) < 1e-4
        # the universal constant is out of the method's reach: the fitted
        # value is only approximately sqrt(2*pi)
        assert abs(math.exp(log_k) - math.sqrt(2 * math.pi)) > 0


def hypergeometric_operator(rng):
    """q(n) N - mu p(n) with p, q products of factors (n + j), 1 <= j <= 4,
    and a rational mu, as the benchmark's CLI mix draws them."""
    top = [rng.randint(1, 4) for _ in range(rng.randint(0, 2))]
    bottom = [rng.randint(1, 4) for _ in range(rng.randint(0, 2))]
    mu = F(rng.choice([-3, -2, -1, 1, 2, 3, 4]), rng.randint(1, 2))
    p, q = Poly([mu]), Poly([1])
    for j in top:
        p = p * Poly([j, 1])
    for j in bottom:
        q = q * Poly([j, 1])
    return ShiftOperator(CoeffRing.POLY_N, [-p, q])


class TestRefinedResiduals:
    COUNT = 6

    def operators(self):
        rng = random.Random(20221)
        yield from (hypergeometric_operator(rng) for _ in range(12))
        yield ShiftOperator(CoeffRing.POLY_N, [Poly([2, 1]), Poly([2]), Poly([0, -1])])

    def test_residuals_vanish_through_refined_order(self):
        for operator in self.operators():
            for form in leading_forms(operator):
                refined = refine_series(form, operator, self.COUNT)
                assert len(refined.series) == self.COUNT
                residuals = residual_coefficients(refined, operator, self.COUNT + 2)
                assert all(not r for r in residuals)

    def test_pinned_series(self):
        # (n+3) N - (3/2)(n+1)(n+2) and (n+1)(n+4) N + 2(n+2)
        cases = [
            (
                [Poly([-3, F(-9, 2), F(-3, 2)]), Poly([3, 1])],
                (1, F(3, 2), F(-1, 2)),
                ["-23/12", "1105/288", "-397939/51840", "38201573/2488320",
                 "-1283540077/41803776", "4620749524019/75246796800"],
            ),
            (
                [Poly([4, 2]), Poly([4, 5, 1])],
                (-1, F(-2), F(-5, 2)),
                ["-61/12", "5593/288", "-3452441/51840", "538644149/2488320",
                 "-142709253787/209018880", "159145067668859/75246796800"],
            ),
        ]
        for coeffs, (mu0, lam, theta), series in cases:
            operator = ShiftOperator(CoeffRing.POLY_N, coeffs)
            (form,) = leading_forms(operator)
            assert (form.mu0, form.lam.as_rational(), form.theta.as_rational()) == (mu0, lam, theta)
            refined = refine_series(form, operator, self.COUNT)
            assert [c.as_rational() for c in refined.series] == [F(c) for c in series]

    def test_residual_prefixes_with_wrong_series(self):
        # a shorter residual is the prefix of a longer one, also with series
        # longer than the residual and nonzero residual coefficients
        rng = random.Random(7)
        for operator in self.operators():
            for form in leading_forms(operator):
                series = tuple(
                    form.field.coerce(F(rng.randint(-3, 3), rng.randint(1, 2)))
                    for _ in range(self.COUNT)
                )
                wrong = replace(form, series=series)
                full = residual_coefficients(wrong, operator, self.COUNT + 2)
                for length in range(self.COUNT + 2):
                    assert residual_coefficients(wrong, operator, length) == full[:length]

    def test_pinned_residuals_with_wrong_series(self):
        operator = ShiftOperator(
            CoeffRing.POLY_N, [Poly([2, 1]), Poly([2]), Poly([0, -1])]
        )
        expected = {
            F(-1): ["0", "0", "2", "-6", "29", "-99", "715/2", "-1214"],
            F(1): ["0", "0", "2", "0", "13", "-29", "171/2", "-258"],
        }
        for form in leading_forms(operator):
            series = tuple(form.field.coerce(c) for c in (F(1), F(-1, 2), F(2), F(0), F(3)))
            residuals = residual_coefficients(replace(form, series=series), operator, 8)
            assert [r.as_rational() for r in residuals] == [
                F(c) for c in expected[form.lam.as_rational()]
            ]
