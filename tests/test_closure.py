"""Closure constructions and the rigorous identity prover."""

import ast
import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

from ansatzkit import (
    ADD,
    CAUCHY,
    PARTIAL_SUM,
    SUBSEQUENCE,
    TERMWISE,
    ClaimTerm,
    CoeffRing,
    ExpPoly,
    IdentityClaim,
    Poly,
    QQ,
    RATIONAL_FIELD,
    RecurrenceSystem,
    Sequence,
    ShiftOperator,
    c2_combine,
    cfinite_add,
    cfinite_combine_gf,
    cfinite_partial_sum,
    cfinite_subsequence,
    cfinite_termwise,
    combine,
    expand_terms,
    genfun_cfinite,
    holonomic_cauchy,
    holonomic_combine,
    holonomic_to_diff,
    homogenize,
    parse_operator,
    poly_closure,
    prove_identity,
    verify_annihilates,
)
from ansatzkit import closure as closure_module
from ansatzkit.closure import combination_matrix
from ansatzkit.errors import UnboundableExpression
from ansatzkit.linalg import clear_denominators
from ansatzkit.optext import parse_recurrence_spec
from ansatzkit.ratfunc import RationalFunction

import conftest as corpus

F = Fraction


def n_poly(coeffs):
    return Poly(coeffs, QQ, "N")


def operator_equals_product(operator, *factors):
    product = n_poly([1])
    for factor in factors:
        product = product * factor
    return list(operator.coeffs) == list(product.coeffs)


class TestCFiniteClosures:
    def setup_method(self):
        self.floor = corpus.floor_square_system()
        self.fib = corpus.fibonacci_system()
        self.gf_floor = genfun_cfinite(self.floor)
        self.gf_fib = genfun_cfinite(self.fib)

    def test_addition(self):
        gf, system = cfinite_combine_gf(ADD, self.gf_floor, self.gf_fib)
        assert operator_equals_product(
            system.operator,
            n_poly([1, 1]),
            n_poly([-1, 1]) ** 3,
            n_poly([-1, -1, 1]),
        )
        # the combined generating function matches the quoted factored form
        from ansatzkit import RationalGF

        num = Poly([0, 1, -1, -1, 1, -1], QQ, "x")
        den = (
            Poly([1, 1], QQ, "x")
            * Poly([1, -1], QQ, "x") ** 3
            * Poly([1, -1, -1], QQ, "x")
        )
        assert gf == RationalGF(num, den)

    def test_cauchy(self):
        gf, system = cfinite_combine_gf(CAUCHY, self.gf_floor, self.gf_fib)
        assert operator_equals_product(
            system.operator,
            n_poly([1, 1]),
            n_poly([-1, 1]) ** 3,
            n_poly([-1, -1, 1]),
        )
        from ansatzkit import RationalGF

        den = (
            Poly([1, 1], QQ, "x")
            * Poly([1, -1], QQ, "x") ** 3
            * Poly([1, -1, -1], QQ, "x")
        )
        assert gf == RationalGF(Poly([0, 0, 0, 1], QQ, "x"), den)

    def test_partial_sum(self):
        gf, system = cfinite_combine_gf(PARTIAL_SUM, self.gf_floor)
        assert operator_equals_product(
            system.operator, n_poly([1, 1]), n_poly([-1, 1]) ** 4
        )

    def test_termwise(self):
        operator = cfinite_termwise(self.floor.operator, self.fib.operator)
        assert operator_equals_product(
            operator, n_poly([-1, 1, 1]), n_poly([-1, -1, 1]) ** 3
        )

    def test_termwise_by_one_is_identity(self):
        ones = ShiftOperator(CoeffRing.CONSTANT, [-1, 1])
        operator = cfinite_termwise(self.floor.operator, ones)
        assert list(operator.coeffs) == list(self.floor.operator.coeffs)

    def test_termwise_fibonacci_squares(self):
        operator = cfinite_termwise(self.fib.operator, self.fib.operator)
        assert operator.order <= 4
        seq = expand_terms(self.fib, 30)
        squares = Sequence([v * v for v in seq.terms])
        assert verify_annihilates(operator, squares, 0) is None

    def test_subsequence(self):
        operator = cfinite_subsequence(2, self.floor.operator)
        assert operator_equals_product(operator, n_poly([-1, 1]) ** 3)

    def test_subsequence_multiplier_one(self):
        operator = cfinite_subsequence(1, self.floor.operator)
        assert list(operator.coeffs) == list(self.floor.operator.coeffs)

    def test_subsequence_fibonacci(self):
        operator = cfinite_subsequence(2, self.fib.operator)
        seq = expand_terms(self.fib, 61)
        doubled = Sequence([seq.value(2 * n) for n in range(30)])
        assert verify_annihilates(operator, doubled, 0) is None


class TestPolynomialClosures:
    def test_partial_sum_of_squares(self):
        result = poly_closure(PARTIAL_SUM, Poly([0, 0, 1], QQ, "n"))
        assert result == Poly([0, F(1, 6), F(1, 2), F(1, 3)], QQ, "n")

    def test_add_cancellation(self):
        result = poly_closure(ADD, Poly([0, 1], QQ, "n"), Poly([0, -1], QQ, "n"))
        assert not result

    def test_termwise(self):
        result = poly_closure(
            TERMWISE, Poly([0, 1], QQ, "n"), Poly([1, 1], QQ, "n")
        )
        assert result == Poly([0, 1, 1], QQ, "n")

    def test_degree_bounds(self):
        rng = random.Random(9)
        for _ in range(30):
            a = corpus.random_polynomial_poly(rng, 3)
            b = corpus.random_polynomial_poly(rng, 3)
            k, l = max(a.degree, 0), max(b.degree, 0)
            assert poly_closure(ADD, a, b).degree <= max(k, l)
            assert poly_closure(TERMWISE, a, b).degree <= k + l
            assert poly_closure(CAUCHY, a, b).degree <= k + l + 1
            assert poly_closure(PARTIAL_SUM, a).degree <= k + 1
            assert poly_closure(SUBSEQUENCE, a, mult=2).degree <= k

    def test_cauchy_matches_convolution(self):
        rng = random.Random(10)
        for _ in range(10):
            a = corpus.random_polynomial_poly(rng, 2)
            b = corpus.random_polynomial_poly(rng, 2)
            c = poly_closure(CAUCHY, a, b)
            for n in range(8):
                direct = sum(
                    (a.evaluate(F(i)) * b.evaluate(F(n - i)) for i in range(n + 1)),
                    F(0),
                )
                assert c.evaluate(F(n)) == direct

    def test_sums_match_direct_summation_beyond_window(self):
        # degrees 0-5 and the zero polynomial, checked at n up to three times
        # the interpolation window of degree bound + 1 points
        rng = random.Random(11)
        polys = [Poly([], QQ, "n")]
        for d in range(6):
            coeffs = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(d)]
            polys.append(Poly(coeffs + [F(1, d + 1)], QQ, "n"))

        def value(p, i):
            return p.evaluate(F(i))

        for a in polys:
            k = max(a.degree, 0)
            sums = poly_closure(PARTIAL_SUM, a)
            for n in range(3 * (k + 2)):
                assert value(sums, n) == sum(value(a, i) for i in range(n + 1))
            for b in polys:
                l = max(b.degree, 0)
                cauchy = poly_closure(CAUCHY, a, b)
                for n in range(3 * (k + l + 2)):
                    direct = sum(value(a, i) * value(b, n - i) for i in range(n + 1))
                    assert value(cauchy, n) == direct


class TestHolonomicClosures:
    def setup_method(self):
        self.catalan = corpus.catalan_system()
        self.harmonic = corpus.harmonic_from_zero()

    def test_addition_coefficients(self):
        operator = holonomic_combine(
            ADD, self.catalan.operator, self.harmonic.operator
        )
        expected_low = (
            Poly([1, 1], QQ, "n")
            * Poly([7, 3], QQ, "n")
            * Poly([1, 2], QQ, "n")
            * Poly([2, 1], QQ, "n") ** 2
        ).scale(-2)
        expected_top = (
            Poly([3, 1], QQ, "n")
            * Poly([4, 1], QQ, "n")
            * Poly([4, 3], QQ, "n")
            * Poly([1, 1], QQ, "n") ** 2
        )
        assert operator.order == 3
        assert operator.coeffs[0] == expected_low
        assert operator.coeffs[3] == expected_top

    def test_addition_degree_ledger(self):
        matrix, _ = combination_matrix(
            ADD, self.catalan.operator, self.harmonic.operator
        )
        cleared_rows = [
            clear_denominators([RationalFunction(Poly(e, QQ, "n")) for e in row])
            for row in matrix
        ]
        v = max(
            max((p.degree for p in row if p), default=0) for row in cleared_rows
        )
        operator = holonomic_combine(
            ADD, self.catalan.operator, self.harmonic.operator
        )
        degree = max(c.degree for c in operator.coeffs if c)
        assert degree <= operator.order * v

    def test_termwise_triple(self):
        operator = holonomic_combine(
            TERMWISE, self.catalan.operator, self.harmonic.operator
        )
        expected = [
            (Poly([3, 2], QQ, "n") * Poly([1, 2], QQ, "n") * Poly([1, 1], QQ, "n")).scale(4),
            (Poly([3, 2], QQ, "n") ** 2 * Poly([2, 1], QQ, "n")).scale(-2),
            Poly([2, 1], QQ, "n") ** 2 * Poly([3, 1], QQ, "n"),
        ]
        assert list(operator.coeffs) == expected

    def test_subsequence_multiplier_one(self):
        operator = holonomic_combine(SUBSEQUENCE, self.catalan.operator, mult=1)
        original = self.catalan.operator.coeffs
        assert list(operator.coeffs) in ([-c for c in original], list(original))

    def test_partial_sum_annihilates(self):
        operator = holonomic_combine(PARTIAL_SUM, self.catalan.operator)
        assert operator.order <= self.catalan.order + 1
        seq = expand_terms(self.catalan, 40)
        sums = []
        acc = F(0)
        for v in seq.terms:
            acc += v
            sums.append(acc)
        from ansatzkit import leading_validity_offset

        validity = leading_validity_offset(operator)
        assert verify_annihilates(operator, Sequence(sums), validity) is None

    def test_scalar_invariance(self):
        scaled = self.catalan.operator.scaled(F(7, 3))
        original = holonomic_combine(ADD, self.catalan.operator, self.harmonic.operator)
        rescaled = holonomic_combine(ADD, scaled, self.harmonic.operator)
        assert list(original.coeffs) == list(rescaled.coeffs)


class TestHolonomicCauchy:
    def test_catalan_by_factorial(self):
        eq_a = homogenize(holonomic_to_diff(corpus.catalan_system()))
        eq_b = homogenize(holonomic_to_diff(corpus.factorial_system()))
        equation = holonomic_cauchy(eq_a, eq_b)
        assert equation.order == 4
        lead = equation.coefficient(1, 4)
        expected = (
            Poly([0, 0, 0, 0, 0, 1], QQ, "x")
            * Poly([-1, 4], QQ, "x") ** 2
            * Poly([-1, 10, -31, 24, 4], QQ, "x")
        )
        ratio = None
        assert lead.degree == expected.degree
        for c_lead, c_exp in zip(lead.coeffs, expected.coeffs):
            if bool(c_lead) != bool(c_exp):
                assert False, "support mismatch"
            if c_exp:
                r = c_lead.as_rational() / c_exp
                ratio = ratio or r
                assert r == ratio
        # the Cauchy product series solves the equation
        a = expand_terms(corpus.catalan_system(), 25).terms
        b = expand_terms(corpus.factorial_system(), 25).terms
        product = [
            sum((a[i] * b[n - i] for i in range(n + 1)), F(0)) for n in range(25)
        ]
        assert all(not r for r in equation.series_residual(product, 18))

    def test_geometric_partial_sums(self):
        eq_a = homogenize(holonomic_to_diff(corpus.catalan_system()))
        geometric = RecurrenceSystem(
            ShiftOperator(CoeffRing.POLY_N, [Poly([-1]), Poly([1])]), [1]
        )
        eq_b = homogenize(holonomic_to_diff(geometric))
        equation = holonomic_cauchy(eq_a, eq_b)
        a = expand_terms(corpus.catalan_system(), 25).terms
        sums = []
        acc = F(0)
        for v in a:
            acc += v
            sums.append(acc)
        assert all(not r for r in equation.series_residual(sums, 18))

    def test_exponential_squared(self):
        from ansatzkit import DiffEquation, RATIONAL_FIELD

        exp_eq = DiffEquation(
            RATIONAL_FIELD,
            [(1, [Poly([-1], QQ, "x"), Poly([1], QQ, "x")])],
            None,
        )
        equation = holonomic_cauchy(exp_eq, exp_eq)
        assert equation.order <= 1
        # series of e^(2x): 2^n / n!
        values = [F(2) ** n for n in range(16)]
        fact = 1
        series = []
        for n, v in enumerate(values):
            if n:
                fact *= n
            series.append(v / fact)
        assert all(not r for r in equation.series_residual(series, 14))


def rational_exppoly(*terms):
    """The ExpPoly sum of c * b^n over the (b, c) pairs."""
    return ExpPoly(RATIONAL_FIELD, list(terms))


# order-2 operands whose coefficients are single terms c * b^n, with
# rational bases of one sign
G = ExpPoly.geometric
SINGLE_TERM_A = ShiftOperator(CoeffRing.EXPPOLY, [G(2, poly=-1), G(F(3, 2), poly=2), G(3)])
SINGLE_TERM_B = ShiftOperator(CoeffRing.EXPPOLY, [G(F(1, 2), poly=2), G(3, poly=-1), G(2, poly=-2)])


class TestC2Closures:
    def setup_method(self):
        self.fibonorial = corpus.fibonorial_system()
        self.doubling = corpus.doubling_tail_system()
        self.field = corpus.golden_field()

    def test_addition_vector_and_validity(self):
        operator, validity = c2_combine(
            ADD, self.fibonorial.operator, self.doubling.operator
        )
        assert validity == 1
        assert operator.order == 3
        two = ExpPoly.geometric(2).to_field(self.field)
        f2 = corpus.fibonacci_shift_closed_form(2)
        f3 = corpus.fibonacci_shift_closed_form(3)
        f4 = corpus.fibonacci_shift_closed_form(4)
        expected = [
            two * f2 * (f4 * f3 - f3 - two.scale(2)),
            f4 * f3 * f2 + (two * two).scale(2) - two.scale(2) * f3 * f2 - f3 * f2,
            two.scale(2) * f2 + f2 - f4 * f3 * f2 + two,
            f3 * f2 - f2 - two,
        ]
        matches_direct = all(a == b for a, b in zip(operator.coeffs, expected))
        matches_negated = all(a == -b for a, b in zip(operator.coeffs, expected))
        assert matches_direct or matches_negated

    def test_termwise_vector(self):
        operator, validity = c2_combine(
            TERMWISE, self.fibonorial.operator, self.doubling.operator
        )
        assert validity == 0
        two = ExpPoly.geometric(2).to_field(self.field)
        f2 = corpus.fibonacci_shift_closed_form(2)
        f3 = corpus.fibonacci_shift_closed_form(3)
        expected = [-(two * f2 * f3), -f3, ExpPoly.constant(1, self.field)]
        assert list(operator.coeffs) == expected

    def test_termwise_single_term_golden(self):
        # the scale comes from the factor lists of the null vector
        operator, validity = c2_combine(TERMWISE, SINGLE_TERM_A, SINGLE_TERM_B)
        assert validity == 0
        assert list(operator.coeffs) == [
            rational_exppoly((F(1, 3456), F(-1, 96)), (F(1, 144), F(1, 8))),
            rational_exppoly((F(1, 768), F(1, 96)), (F(1, 288), F(-23, 288)), (F(1, 32), F(-1, 8))),
            rational_exppoly(
                (F(1, 1536), F(1, 32)), (F(1, 576), F(11, 288)), (F(1, 24), F(-5, 36)), (F(3, 8), F(-3, 16))
            ),
            rational_exppoly((F(1, 128), F(9, 16)), (F(1, 48), F(23, 48)), (F(3, 16), F(-9, 32))),
            rational_exppoly((F(1, 96), -1), (F(1, 4), F(1, 2))),
        ]

    def test_subsequence_golden(self):
        operator, validity = c2_combine(SUBSEQUENCE, SINGLE_TERM_A, mult=3)
        assert validity == 0
        assert list(operator.coeffs) == [
            rational_exppoly((F(8, 19683), F(-1, 108)), (F(4096, 531441), F(-128, 2187))),
            rational_exppoly((F(1, 32768), F(1, 32)), (F(1, 1728), F(803, 2592)), (F(8, 729), F(194, 729))),
            rational_exppoly((F(1, 64), 2), (F(8, 27), F(2, 3))),
        ]

    def test_termwise_expands_few_products(self, monkeypatch):
        """Each fraction keeps its units as one factor, so a sum does not
        re-expand a chain of them: 69 ExpPoly products here, against 283
        when every unit was a factor of its own."""
        calls = []
        multiply = ExpPoly.__mul__

        def counted(self, other):
            calls.append(other)
            return multiply(self, other)

        monkeypatch.setattr(ExpPoly, "__mul__", counted)
        c2_combine(TERMWISE, SINGLE_TERM_A, SINGLE_TERM_B)
        assert 0 < len(calls) <= 120

    def test_termwise_takes_the_short_paths(self, monkeypatch):
        """No subtraction of a nonzero fraction negates a copy of the other
        operand, no product of two constant term polynomials runs a general
        ``Poly`` product, and every zero fraction of a field is one object."""
        from ansatzkit.exppoly import ExpPolyFraction

        seen = {"subtractions": 0, "negations": 0, "constant_terms": 0, "poly_products": 0}
        inside = {"sub": False, "mul": False}
        zeros = []
        sub, neg = ExpPolyFraction.__sub__, ExpPolyFraction.__neg__
        zero, exp_mul, poly_mul = ExpPolyFraction.zero.__func__, ExpPoly.__mul__, Poly.__mul__

        def counted_sub(self, other):
            if not self:  # a zero minus b is -b either way
                return sub(self, other)
            seen["subtractions"] += 1
            inside["sub"] = True
            try:
                return sub(self, other)
            finally:
                inside["sub"] = False

        def counted_neg(self):
            seen["negations"] += inside["sub"]
            return neg(self)

        def counted_zero(cls, field):
            zeros.append(zero(cls, field))
            return zeros[-1]

        def counted_exp_mul(self, other):
            if isinstance(other, ExpPoly):
                seen["constant_terms"] += any(
                    len(p.coeffs) == 1 == len(q.coeffs) for _, p in self.terms for _, q in other.terms
                )
            inside["mul"] = True
            try:
                return exp_mul(self, other)
            finally:
                inside["mul"] = False

        def counted_poly_mul(self, other):
            constant = isinstance(other, Poly) and len(self.coeffs) == 1 == len(other.coeffs)
            seen["poly_products"] += inside["mul"] and constant
            return poly_mul(self, other)

        monkeypatch.setattr(ExpPolyFraction, "__sub__", counted_sub)
        monkeypatch.setattr(ExpPolyFraction, "__neg__", counted_neg)
        monkeypatch.setattr(ExpPolyFraction, "zero", classmethod(counted_zero))
        monkeypatch.setattr(ExpPoly, "__mul__", counted_exp_mul)
        monkeypatch.setattr(ExpPoly, "__rmul__", counted_exp_mul)
        monkeypatch.setattr(Poly, "__mul__", counted_poly_mul)
        c2_combine(TERMWISE, SINGLE_TERM_A, SINGLE_TERM_B)
        assert seen["subtractions"] > 0 and seen["constant_terms"] > 0
        assert seen["negations"] == 0 and seen["poly_products"] == 0
        assert len(zeros) > 1
        assert len({id(z) for z in zeros}) == len({id(z.field) for z in zeros})

    def test_degenerate_pair_needs_order_three(self):
        a, b = corpus.alternating_sign_pair()
        operator, validity = c2_combine(ADD, a.operator, b.operator)
        assert operator.order == 3
        field = operator.coeffs[0].field
        half = F(1, 2)
        expected = [
            ExpPoly(field, [(1, half), (-1, -half)]),
            ExpPoly.zero(field),
            ExpPoly(field, [(1, half), (-1, half)]),
            ExpPoly.constant(1, field),
        ]
        assert list(operator.coeffs) == expected

    def test_combined_initials(self):
        system = combine(ADD, self.fibonorial, self.doubling)
        direct_a = expand_terms(self.fibonorial, 20)
        direct_b = expand_terms(self.doubling, 20)
        expected = [x + y for x, y in zip(direct_a.terms, direct_b.terms)]
        seq = expand_terms(system, 20)
        assert list(seq.terms) == expected


class TestExactValidity:
    """The validity of a C2 closure is one past the last natural zero of
    its leading coefficient, decided exactly."""

    @staticmethod
    def shifted_factorial_plus_fibonacci(r):
        # a(n+1) = (n - r) a(n) added to the Fibonacci numbers
        falling = ShiftOperator(
            CoeffRing.EXPPOLY, [-ExpPoly.from_poly(Poly([-r, 1], QQ, "n")), ExpPoly.constant(1)]
        )
        fibonacci = ShiftOperator(
            CoeffRing.EXPPOLY, [ExpPoly.constant(-1), ExpPoly.constant(-1), ExpPoly.constant(1)]
        )
        return c2_combine(ADD, falling, fibonacci)

    @pytest.mark.parametrize("r", [197, 199])
    def test_late_zeros_are_not_structural(self, r):
        operator, validity = self.shifted_factorial_plus_fibonacci(r)
        assert operator.order == 3
        assert validity == r + 2

    @pytest.mark.parametrize("r", [5, 260])
    def test_validity_passes_the_last_zero(self, r):
        operator, validity = self.shifted_factorial_plus_fibonacci(r)
        assert validity == r + 2
        lead = operator.leading
        assert not lead.evaluate(r - 1) and not lead.evaluate(r + 1)
        assert all(lead.evaluate(n) for n in range(r + 2, r + 40))

    def test_validity_holds_on_the_combined_system(self):
        a = RecurrenceSystem(
            ShiftOperator(
                CoeffRing.EXPPOLY, [-ExpPoly.from_poly(Poly([-260, 1], QQ, "n")), ExpPoly.constant(1)]
            ),
            [1],
        )
        system = combine(ADD, a, corpus.fibonacci_system())
        assert system.validity_offset == 262
        direct_a = expand_terms(a, 280)
        direct_b = expand_terms(corpus.fibonacci_system(), 280)
        sequence = Sequence([x + y for x, y in zip(direct_a.terms, direct_b.terms)])
        assert verify_annihilates(system.operator, sequence, from_n=262) is None

    def test_degenerate_pair_result_and_validity(self):
        a, b = corpus.alternating_sign_pair()
        operator, validity = c2_combine(ADD, a.operator, b.operator)
        assert operator.order == 3
        assert validity == 0
        assert operator.leading == ExpPoly.constant(1, operator.leading.field)

    # Sums whose first candidates all vanish on a residue class of n: the
    # answer needs both the row bump and the skip of such candidates
    @pytest.mark.parametrize(
        "coefficient, specs, text, minpoly, initials",
        [
            (
                "cfinite:N^2+N+1;-1,1",
                ("c2:N + (F(n)+1);3", "c2:N + 2;1"),
                "((-1/12*t)*(-t - 1)^n + (1/12*t + 1/12)*(t)^n + 5/12)*N^3 + N^2"
                " + ((-2/3*t)*(-t - 1)^n + (2/3*t + 2/3)*(t)^n - 2/3)",
                [1, 1, 1],
                [4, -2, 4],
            ),
            (
                None,
                ("c2:N + (-1)^n;2", "c2:N^2 + 2*N + (-1)^n;3,1"),
                "(1/4*(-1)^n + 3/4)*N^4 + N^3 + ((-1)^n + 2)*N + (3/4*(-1)^n + 1/4)",
                [0, 1],
                [5, -1, -7, 13],
            ),
        ],
    )
    def test_degenerate_sums_need_the_bump_and_the_skip(
        self, coefficient, specs, text, minpoly, initials
    ):
        from ansatzkit import register_coefficient
        from ansatzkit.optext import operator_to_text

        declared = {}
        if coefficient:
            declared["F"] = register_coefficient(parse_recurrence_spec(coefficient))
        a, b = (parse_recurrence_spec(spec, declared) for spec in specs)
        system = combine(ADD, a, b)
        assert operator_to_text(system.operator, declared) == text
        assert list(system.operator.leading.field.minpoly.coeffs) == minpoly
        assert system.initials == tuple(F(v) for v in initials)
        assert system.validity_offset == 0
        direct = [x + y for x, y in zip(expand_terms(a, 60).terms, expand_terms(b, 60).terms)]
        assert list(expand_terms(system, 60).terms) == direct

    def test_conjugate_leading_terms_are_unproven(self):
        from ansatzkit import register_coefficient
        from ansatzkit.errors import ValidityUnproven
        from ansatzkit.optext import parse_recurrence_spec

        h = register_coefficient(parse_recurrence_spec("cfinite:N^2-2*N+5;1,1"))
        geometric = ShiftOperator(CoeffRing.EXPPOLY, [-h, ExpPoly.constant(1, h.field)])
        with pytest.raises(ValidityUnproven, match="unproven"):
            c2_combine(PARTIAL_SUM, geometric)


class TestProveIdentity:
    def setup_method(self):
        self.floor = corpus.floor_square_system()

    def _nonlinear_terms(self):
        return (
            ClaimTerm(F(1), (("a", 1),)),
            ClaimTerm(F(-1), (("a", 0), ("a", 1))),
            ClaimTerm(F(1), (("a", 0), ("a", 2))),
            ClaimTerm(F(1), (("a", 1), ("a", 1))),
            ClaimTerm(F(-1), (("a", 1), ("a", 2))),
        )

    def test_nonlinear_identity_bound_68(self):
        claim = IdentityClaim({"a": self.floor}, self._nonlinear_terms())
        certificate = prove_identity(claim)
        assert certificate.verdict == "proven"
        assert certificate.order_bound == 68
        assert certificate.terms_checked == 68

    def test_square_annihilator_bound_16(self):
        operator = (n_poly([1, 1]) ** 3 * n_poly([-1, 1]) ** 5).coeffs
        claim = IdentityClaim(
            {"a": self.floor},
            (ClaimTerm(F(1), (("a", 0), ("a", 0)), tuple(operator)),),
        )
        certificate = prove_identity(claim)
        assert certificate.verdict == "proven"
        assert certificate.order_bound == 16
        assert certificate.terms_checked == 16

    def test_corrupted_identity_refuted(self):
        terms = self._nonlinear_terms() + (ClaimTerm(F(-1), ()),)
        certificate = prove_identity(IdentityClaim({"a": self.floor}, terms))
        assert certificate.verdict == "refuted"
        assert certificate.witness is not None
        assert certificate.witness_value != 0

    def test_syntactic_zero(self):
        fib = corpus.fibonacci_system()
        claim = IdentityClaim(
            {"f": fib}, (ClaimTerm(F(0), (("f", 0),)),)
        )
        certificate = prove_identity(claim)
        assert certificate.verdict == "proven"
        assert certificate.order_bound == 2

    def test_unboundable_for_holonomic(self):
        claim = IdentityClaim(
            {"c": corpus.catalan_system()}, (ClaimTerm(F(1), (("c", 0),)),)
        )
        with pytest.raises(UnboundableExpression):
            prove_identity(claim)

    def test_index_before_the_sequence_start(self, monkeypatch):
        fib = corpus.fibonacci_system()
        # N applied to f(n - 1) reads f from n on
        shifted = (
            ClaimTerm(F(1), (("f", -1),), (F(0), F(1))),
            ClaimTerm(F(-1), (("f", 0),)),
        )
        assert prove_identity(IdentityClaim({"f": fib}, shifted)).verdict == "proven"
        expanded = []
        monkeypatch.setattr(
            closure_module, "expand_terms", lambda *args: expanded.append(args)
        )
        for terms, from_n, low in (
            ((ClaimTerm(F(1), (("f", 0),)), ClaimTerm(F(-1), ())), -3, -3),
            ((ClaimTerm(F(1), (("f", 2), ("f", -5))),), 0, -5),
        ):
            message = rf"reads f\({low}\), but sequence 'f' starts at n = 0"
            with pytest.raises(ValueError, match=message):
                prove_identity(IdentityClaim({"f": fib}, terms, from_n))
        assert expanded == []


class TestCombineDispatch:
    def test_holonomic_cauchy_route(self):
        system = combine(CAUCHY, corpus.catalan_system(), corpus.factorial_system())
        a = expand_terms(corpus.catalan_system(), 45).terms
        b = expand_terms(corpus.factorial_system(), 45).terms
        product = Sequence(
            [sum((a[i] * b[n - i] for i in range(n + 1)), F(0)) for n in range(45)]
        )
        assert (
            verify_annihilates(system.operator, product, system.validity_offset)
            is None
        )

    def test_cauchy_needs_two_operands(self):
        with pytest.raises(ValueError, match="cauchy needs two operands"):
            combine(CAUCHY, corpus.fibonacci_system())

    def test_c2_cauchy_rejected(self):
        from ansatzkit.errors import UnsupportedCase

        with pytest.raises(UnsupportedCase):
            combine(
                CAUCHY, corpus.fibonorial_system(), corpus.doubling_tail_system()
            )

    def test_two_quadratic_fields_rejected(self):
        from ansatzkit import NumberField, RecurrenceSystem
        from ansatzkit.errors import UnsupportedField

        silver = NumberField([-2, 0, 1])  # t^2 = 2
        gen = silver.generator()
        silver_coeff = ExpPoly(silver, [(gen, Poly([silver.one], silver, "n"))])
        silver_coeff = silver_coeff + ExpPoly(
            silver, [(-gen, Poly([silver.one], silver, "n"))]
        )
        silver_sys = RecurrenceSystem(
            ShiftOperator(
                CoeffRing.EXPPOLY, [silver_coeff, ExpPoly.constant(1, silver)]
            ),
            [1],
        )
        with pytest.raises(UnsupportedField):
            combine(ADD, silver_sys, corpus.fibonorial_system())


class TestDelayedOperands:
    """Operands whose relation holds only from n = v > 0: the combination
    holds from max(own offset, v_a, v_b), with ceil(v_a / m) for a
    subsequence, and reproduces the directly combined terms."""

    @staticmethod
    def operands():
        from ansatzkit.optext import parse_recurrence_spec

        constant = ShiftOperator(CoeffRing.CONSTANT, [-1, -1, 1])
        geometric = ShiftOperator(CoeffRing.CONSTANT, [-2, 1])
        return [
            RecurrenceSystem(constant, [7, 1, 1], 1),  # Fibonacci after a(0) = 7
            RecurrenceSystem(geometric, [3, -1, 4], 2),
            parse_recurrence_spec("(n - 1)*N + 1;5,1,2"),
            parse_recurrence_spec("(n - 3)*N - n;1,2,-1,3,2"),
            parse_recurrence_spec("c2:(2^n - 1)*N + 1;5,-5"),
            parse_recurrence_spec("c2:(2^n - 2)*N - 3^n;1,2,3"),
        ]

    @staticmethod
    def direct(kind, a, b, count, mult):
        if kind == SUBSEQUENCE:
            return [a[mult * n] for n in range(count)]
        if kind == PARTIAL_SUM:
            return [sum(a[: n + 1], F(0)) for n in range(count)]
        if kind == ADD:
            return [x + y for x, y in zip(a[:count], b)]
        return [x * y for x, y in zip(a[:count], b)]

    def test_combinations_match_direct_expansion(self):
        operands = self.operands()
        assert sorted(s.operator.ring.value for s in operands) == sorted(
            ["constant", "poly", "exppoly"] * 2
        )
        assert all(s.validity_offset > 0 for s in operands)
        cases = [
            (kind, i, j, 1)
            for kind in (ADD, TERMWISE)
            for i in range(len(operands))
            for j in range(i, len(operands))
        ]
        cases += [
            (kind, i, None, mult)
            for i in range(len(operands))
            for kind, mult in ((PARTIAL_SUM, 1), (SUBSEQUENCE, 2), (SUBSEQUENCE, 3))
        ]
        count = 45
        for kind, i, j, mult in cases:
            sys_a = operands[i]
            sys_b = operands[j] if j is not None else None
            result = combine(kind, sys_a, sys_b, mult=mult)
            delay = -(-sys_a.validity_offset // mult)
            if sys_b is not None:
                delay = max(delay, sys_b.validity_offset)
            assert result.validity_offset >= delay, (kind, i, j, mult)
            a = expand_terms(sys_a, mult * count).terms
            b = expand_terms(sys_b, count).terms if sys_b is not None else None
            expanded = expand_terms(result, max(count, len(result.initials)))
            assert list(expanded.terms[:count]) == self.direct(kind, a, b, count, mult), (
                kind, i, j, mult
            )

    def test_result_holds_from_the_operand_delay(self):
        from ansatzkit.optext import parse_recurrence_spec

        a = parse_recurrence_spec("c2:(2^n - 1)*N + 1;5,-5")
        b = parse_recurrence_spec("c2:N-1;1")
        assert combine(ADD, a, b).validity_offset == 1
        # a(2n) needs the relation of a only from n = 1 on
        late = RecurrenceSystem(ShiftOperator(CoeffRing.CONSTANT, [-2, 1]), [3, -1, 4, 5], 3)
        assert combine(SUBSEQUENCE, late, mult=2).validity_offset == 2
        assert combine(SUBSEQUENCE, late, mult=3).validity_offset == 1

    def test_cauchy_still_requires_offset_zero(self):
        from ansatzkit.optext import parse_recurrence_spec

        pairs = [
            (parse_recurrence_spec("(n - 1)*N + 1;5,1,2"), corpus.catalan_system()),
            (corpus.fibonacci_system(), self.operands()[0]),
        ]
        for a, b in pairs:
            with pytest.raises(ValueError, match="validity offset 0"):
                combine(CAUCHY, a, b)


class TestOffsetOperands:
    """Operands whose terms start at n = o > 0: the combination starts at
    max(o_a, o_b), at ceil(o_a / m) for a subsequence, and reproduces the
    directly combined terms from there."""

    @staticmethod
    def operands():
        from ansatzkit import guess_cfinite, parse_operator

        fib = [0, 1]
        while len(fib) < 20:
            fib.append(fib[-1] + fib[-2])
        return [
            guess_cfinite(Sequence(fib[3:], 3), 3).result,  # Fibonacci from n = 3
            RecurrenceSystem(ShiftOperator(CoeffRing.CONSTANT, [-2, 1]), [3, 5], 3, 2),
            RecurrenceSystem(parse_operator("N - (n + 1)"), [1], 1, 1),  # n! from n = 1
            RecurrenceSystem(parse_operator("(n - 3)*N - n"), [1, 2, -1], 4, 2),
            RecurrenceSystem(parse_operator("N - 2^n"), [3], 1, 1),
            RecurrenceSystem(parse_operator("(2^n - 8)*N + 1"), [2, -1, 4], 4, 2),
        ]

    @staticmethod
    def direct(kind, a, b, start, count, mult):
        indices = range(start, start + count)
        if kind == SUBSEQUENCE:
            return [a.value(mult * n) for n in indices]
        if kind == PARTIAL_SUM:
            return [sum(a.terms[: n - a.offset + 1], F(0)) for n in indices]
        if kind == ADD:
            return [a.value(n) + b.value(n) for n in indices]
        return [a.value(n) * b.value(n) for n in indices]

    def test_combinations_match_direct_expansion(self):
        operands = self.operands()
        assert sorted(s.operator.ring.value for s in operands) == sorted(
            ["constant", "poly", "exppoly"] * 2
        )
        assert all(s.offset > 0 for s in operands)
        plain = [corpus.fibonacci_system(), parse_recurrence_spec("cfinite:N-2;1")]
        cases = [
            (kind, a, b, 1)
            for kind in (ADD, TERMWISE)
            for i, a in enumerate(operands)
            for b in operands[i:] + plain
        ]
        cases += [
            (kind, a, None, mult)
            for a in operands
            for kind, mult in ((PARTIAL_SUM, 1), (SUBSEQUENCE, 2), (SUBSEQUENCE, 3))
        ]
        count = 30
        for kind, sys_a, sys_b, mult in cases:
            result = combine(kind, sys_a, sys_b, mult=mult)
            start = -(-sys_a.offset // mult)
            if sys_b is not None:
                start = max(start, sys_b.offset)
            assert result.offset == start, (kind, sys_a, sys_b, mult)
            a = expand_terms(sys_a, mult * (start + count) - sys_a.offset)
            b = expand_terms(sys_b, start + count - sys_b.offset) if sys_b else None
            expanded = expand_terms(result, max(count, len(result.initials)))
            assert list(expanded.terms[:count]) == self.direct(
                kind, a, b, start, count, mult
            ), (kind, sys_a, sys_b, mult)

    def test_offsets(self):
        fib_from_3, late, *_ = self.operands()
        two = parse_recurrence_spec("cfinite:N-2;1")
        for kind in (ADD, TERMWISE):
            assert combine(kind, fib_from_3, two).offset == 3
            assert combine(kind, two, late).offset == 2
        assert combine(PARTIAL_SUM, fib_from_3).offset == 3
        assert [combine(SUBSEQUENCE, fib_from_3, mult=m).offset for m in (1, 2, 3, 4)] == [
            3, 2, 1, 1
        ]

    def test_subsequence_multiplier_checked_first(self):
        two = parse_recurrence_spec("cfinite:N-2;1")
        for mult in (0, -1):
            with pytest.raises(ValueError, match="multiplier must be >= 1"):
                combine(SUBSEQUENCE, two, mult=mult)

    def test_cauchy_keeps_its_error(self):
        fib_from_3 = self.operands()[0]
        with pytest.raises(ValueError, match="offset-0 operands"):
            combine(CAUCHY, fib_from_3, corpus.fibonacci_system())


class TestPromotion:
    def test_constant_plus_holonomic(self):
        system = combine(ADD, corpus.fibonacci_system(), corpus.catalan_system())
        assert system.operator.ring is CoeffRing.POLY_N
        a = expand_terms(corpus.fibonacci_system(), 40)
        b = expand_terms(corpus.catalan_system(), 40)
        total = Sequence([x + y for x, y in zip(a.terms, b.terms)])
        assert (
            verify_annihilates(system.operator, total, system.validity_offset)
            is None
        )

    def test_constant_times_c2(self):
        system = combine(TERMWISE, corpus.fibonacci_system(), corpus.doubling_tail_system())
        assert system.operator.ring is CoeffRing.EXPPOLY
        a = expand_terms(corpus.fibonacci_system(), 40)
        b = expand_terms(corpus.doubling_tail_system(), 40)
        product = Sequence([x * y for x, y in zip(a.terms, b.terms)])
        assert (
            verify_annihilates(system.operator, product, system.validity_offset)
            is None
        )

    @pytest.mark.parametrize(
        "closure, operands",
        [
            (cfinite_add, ["N - 2^n", "N - 2"]),
            (cfinite_add, ["(n+1) - N", "N - 2"]),
            (cfinite_add, ["N - 2", "(n+1) - N"]),
            (cfinite_termwise, ["N - 2", "(n+1) - N"]),
            (cfinite_termwise, ["N - 2^n", "N - 2"]),
            (cfinite_subsequence, [2, "N - 2^n"]),
            (cfinite_subsequence, [2, "(n+1) - N"]),
            (cfinite_partial_sum, ["(n+1) - N"]),
            (cfinite_partial_sum, ["N - 2^n"]),
        ],
    )
    def test_cfinite_closures_reject_larger_rings(self, closure, operands):
        args = [parse_operator(a) if isinstance(a, str) else a for a in operands]
        with pytest.raises(ValueError, match="cannot promote"):
            closure(*args)


class TestTypedChecks:
    """Internal checks raise typed errors, so they survive ``python -O``."""

    SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

    def test_no_assert_statements_in_library(self):
        package = os.path.join(self.SRC, "ansatzkit")
        offenders = []
        for name in sorted(os.listdir(package)):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(package, name)) as fh:
                tree = ast.parse(fh.read(), name)
            offenders += [
                f"{name}:{node.lineno}"
                for node in ast.walk(tree)
                if isinstance(node, ast.Assert)
            ]
        assert offenders == []

    def test_no_unused_module_imports(self):
        directories = [os.path.join(self.SRC, "ansatzkit"), os.path.dirname(__file__)]
        offenders = []
        for directory in directories:
            for name in sorted(os.listdir(directory)):
                if not name.endswith(".py") or name == "__init__.py":
                    continue  # the package's __init__ imports to re-export
                with open(os.path.join(directory, name)) as fh:
                    tree = ast.parse(fh.read(), name)
                used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
                for node in tree.body:
                    if isinstance(node, (ast.Import, ast.ImportFrom)):
                        offenders += [
                            f"{name}:{node.lineno} {alias.asname or alias.name}"
                            for alias in node.names
                            if (alias.asname or alias.name.split(".")[0]) not in used
                        ]
        assert offenders == []

    def test_no_unused_private_definitions(self):
        # a private function, method or class that nothing names is dead;
        # the ``_cmd_<command>`` handlers are looked up by name in cli.main
        package = os.path.join(self.SRC, "ansatzkit")
        defined, referenced = [], []
        for name in sorted(os.listdir(package)):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(package, name)) as fh:
                tree = ast.parse(fh.read(), name)
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    defined.append((name, node.lineno, node.name))
                elif isinstance(node, ast.Name):
                    referenced.append(node.id)
                elif isinstance(node, ast.Attribute):
                    referenced.append(node.attr)
                elif isinstance(node, ast.alias):
                    referenced.append(node.name)
        referenced = set(referenced)
        offenders = [
            f"{name}:{lineno} {ident}"
            for name, lineno, ident in defined
            if ident.startswith("_")
            and not ident.endswith("__")
            and not ident.startswith("_cmd_")
            and ident not in referenced
        ]
        assert offenders == []

    def test_bound_violated_under_optimize(self):
        script = textwrap.dedent(
            """
            from ansatzkit import closure, genfun_cfinite, parse_recurrence_spec
            from ansatzkit.errors import BoundViolated

            overlong = parse_recurrence_spec("N^9 - 1;0,0,0,0,0,0,0,0,1")
            closure.cfinite_from_rational = lambda gf: overlong
            fib = genfun_cfinite(parse_recurrence_spec("N^2 - N - 1;0,1"))
            try:
                closure.cfinite_combine_gf(closure.CAUCHY, fib, fib)
            except BoundViolated as exc:
                print("BoundViolated:", exc)
            """
        )
        env = dict(os.environ, PYTHONPATH=os.path.abspath(self.SRC))
        done = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("BoundViolated: result order 9 exceeds")

    def test_null_space_empty_is_internal(self):
        from ansatzkit.errors import InternalError, NullSpaceEmpty

        assert issubclass(NullSpaceEmpty, InternalError)

    def test_cli_reports_bound_violation_as_error(self, monkeypatch, capsys):
        from ansatzkit import closure
        from ansatzkit.cli import main
        from ansatzkit.optext import parse_recurrence_spec

        overlong = parse_recurrence_spec("N^9 - 1;0,0,0,0,0,0,0,0,1")
        monkeypatch.setattr(closure, "cfinite_from_rational", lambda gf: overlong)
        code = main(["closure", "--kind", "cauchy", "N^2-N-1;0,1", "N-2;1"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: result order 9 exceeds")


def _poly_n(*coeff_lists):
    return ShiftOperator(CoeffRing.POLY_N, [Poly(c, QQ, "n") for c in coeff_lists])


class TestFractionFreeKernel:
    """``least_null_vector`` against the field kernel over Q(n) and Q(x)."""

    @staticmethod
    def reference(matrix, var="n"):
        """clear_denominators of the least-order ``left_null_space`` vector
        of the integer-polynomial matrix, read over Q(var)."""
        from ansatzkit.linalg import FieldAdapter, left_null_space

        one = RationalFunction(Poly([1], QQ, var))
        matrix = [[RationalFunction(Poly(e, QQ, var)) for e in row] for row in matrix]
        basis = left_null_space(matrix, FieldAdapter(one - one, one))
        if not basis:
            return None
        orders = [max(i for i, e in enumerate(v) if e) for v in basis]
        least = basis[orders.index(min(orders))]
        return clear_denominators(least[: min(orders) + 1])

    @staticmethod
    def kernel(matrix, var):
        from ansatzkit.linalg import least_null_vector

        vector = least_null_vector(matrix)
        return None if vector is None else [Poly(c, QQ, var) for c in vector]

    @staticmethod
    def random_operator(rng, order):
        coeffs = [[rng.randint(-3, 3) for _ in range(rng.randint(1, 3))] for _ in range(order)]
        return _poly_n(*coeffs, [rng.randint(1, 4), rng.randint(0, 2)])

    def test_matches_field_kernel_on_combination_matrices(self):
        rng = random.Random(2024)
        checked = 0
        for _ in range(6):
            a = self.random_operator(rng, rng.randint(1, 2))
            b = self.random_operator(rng, rng.randint(1, 2))
            matrices = [
                combination_matrix(ADD, a, b)[0],
                combination_matrix(TERMWISE, a, b)[0],
                combination_matrix(PARTIAL_SUM, a)[0],
                combination_matrix(SUBSEQUENCE, a, mult=rng.randint(2, 3))[0],
            ]
            for matrix in matrices:
                expected = self.reference(matrix)
                assert expected is not None
                assert self.kernel(matrix, "n") == expected
                checked += 1
        assert checked == 24

    def test_matches_field_kernel_on_cauchy_rows(self):
        from ansatzkit.closure import _cauchy_matrix

        rng = random.Random(7)
        for _ in range(4):
            systems = []
            for _ in range(2):
                op = self.random_operator(rng, 1)
                systems.append(RecurrenceSystem(op, [rng.randint(1, 5)]))
            eq_a, eq_b = (homogenize(holonomic_to_diff(s)) for s in systems)
            matrix = _cauchy_matrix(eq_a, eq_b, eq_a.order * eq_b.order + 1)
            expected = self.reference(matrix, "x")
            assert expected is not None
            assert self.kernel(matrix, "x") == expected

    def test_empty_null_space(self):
        from ansatzkit.linalg import least_null_vector

        # the rows [n + 1, 0, 1] and [1/(n + 2), 1, 0], the first column
        # (one equation) times n + 2
        matrix = [[[2, 3, 1], [], [1]], [[1], [1], []]]
        assert least_null_vector(matrix) is None
        assert self.reference(matrix) is None
        short, _ = combination_matrix(
            ADD, corpus.catalan_system().operator, corpus.harmonic_from_zero().operator, rows=3
        )
        assert least_null_vector(short) is None
        assert self.reference(short) is None

    def test_exact_division_in_zx(self):
        from ansatzkit.errors import InternalError
        from ansatzkit.polynomials import _zx_exact_div

        assert _zx_exact_div([-1, 0, 1], [1, 1]) == [-1, 1]
        assert _zx_exact_div([6, 4], [2]) == [3, 2]
        with pytest.raises(InternalError):
            _zx_exact_div([1, 0, 1], [1, 1])  # remainder 2
        with pytest.raises(InternalError):
            _zx_exact_div([1, 2], [2])  # quotient 1/2 + x is not integral
        with pytest.raises(InternalError):
            _zx_exact_div([1], [1, 1])  # lower degree, nonzero

    @staticmethod
    def gcd_pairs():
        rng = random.Random(99)

        def poly(degree, bits):
            coeffs = [rng.randint(-(2**bits), 2**bits) for _ in range(degree)]
            return coeffs + [rng.randint(1, 2**bits)]

        from ansatzkit.polynomials import _zx_mul, _zx_primitive

        pairs = []
        for bits in (2, 2, 5, 5, 8, 200):
            shared = poly(rng.randint(0, 3), bits)
            a = _zx_mul(shared, poly(rng.randint(1, 4), bits))
            b = _zx_mul(shared, poly(rng.randint(1, 4), bits))
            pairs.append((_zx_primitive(a), _zx_primitive(b)))
        return pairs

    @staticmethod
    def same_up_to_unit(zx, expected):
        return Poly(zx, QQ, "n").monic() == expected.monic()

    def test_heuristic_gcd_matches_poly_gcd(self):
        from ansatzkit.polynomials import _heuristic_gcd, _zx_gcd, poly_gcd

        for a, b in self.gcd_pairs():
            expected = poly_gcd(Poly(a, QQ, "n"), Poly(b, QQ, "n"))
            assert _heuristic_gcd(a, b) is not None
            assert self.same_up_to_unit(_zx_gcd(a, b), expected)

    def test_gcd_falls_back_to_poly_gcd(self, monkeypatch):
        from ansatzkit import polynomials
        from ansatzkit.polynomials import poly_gcd

        monkeypatch.setattr(polynomials, "_heuristic_gcd", lambda a, b: None)
        for a, b in self.gcd_pairs():
            expected = poly_gcd(Poly(a, QQ, "n"), Poly(b, QQ, "n"))
            found = polynomials._zx_gcd(a, b)
            assert self.same_up_to_unit(found, expected)
            assert found[-1] > 0


class TestHeuristicGcd:
    """GCDHEU on any number of operands, one packing for all of them,
    against the pairwise fold of two-operand gcds and ``poly_gcd``."""

    @staticmethod
    def vectors():
        """Seeded vectors of 2 to 6 primitive operands of positive degree,
        half with a planted common factor of degree 1 to 3, and coefficient
        sizes from 2 to 60 bits."""
        from ansatzkit.polynomials import _zx_mul, _zx_primitive

        rng = random.Random(2718)

        def poly(degree, bits):
            coeffs = [rng.randint(-(2**bits), 2**bits) for _ in range(degree)]
            return coeffs + [rng.randint(1, 2**bits)]

        out = []
        for index in range(80):
            bits = rng.choice([2, 3, 8, 20, 60])
            shared = poly(rng.randint(1, 3), bits) if index % 2 else [1]
            vector = [_zx_mul(shared, poly(rng.randint(1, 4), bits)) for _ in range(rng.randint(2, 6))]
            out.append([_zx_primitive(v) for v in vector])
        return out

    @staticmethod
    def fold(operands):
        from ansatzkit.polynomials import _zx_gcd

        shared = operands[0]
        for operand in operands[1:]:
            shared = _zx_gcd(shared, operand)
        return shared

    def check(self, operands, found):
        from ansatzkit.polynomials import poly_gcd

        shared, quotients = found
        assert shared == self.fold(operands)
        expected = Poly(operands[0], QQ, "n")
        for operand in operands[1:]:
            expected = poly_gcd(expected, Poly(operand, QQ, "n"))
        assert Poly(shared, QQ, "n").monic() == expected
        assert shared[-1] > 0
        assert [Poly(q, QQ, "n") * Poly(shared, QQ, "n") for q in quotients] == [
            Poly(a, QQ, "n") for a in operands
        ]

    def test_matches_the_pairwise_fold(self):
        from ansatzkit.polynomials import _heuristic_gcd, _zx_common_factor

        planted = 0
        for operands in self.vectors():
            found = _heuristic_gcd(*operands)
            assert found is not None
            self.check(operands, found)
            self.check(operands, _zx_common_factor(operands))
            planted += len(found[0]) > 1
        assert planted >= 40

    def test_degree_one_operand_decides_by_division(self, monkeypatch):
        from ansatzkit import polynomials

        monkeypatch.setattr(polynomials, "_heuristic_gcd", None)  # never called
        line = [-1, 2]  # 2x - 1
        shared = polynomials._zx_mul(line, [3, 0, 1])
        assert polynomials._zx_common_factor([shared, line, [1, 2]]) == ([1], [shared, line, [1, 2]])
        self.check([shared, line], polynomials._zx_common_factor([shared, line]))
        assert polynomials._zx_common_factor([shared, line])[0] == line

    def test_widens_after_an_unlucky_point(self, monkeypatch):
        from ansatzkit import polynomials

        # the least largest coefficient is 7, so the first width is k = 7
        # (2 * 7 + 29 < 2**6), where the packed gcd unpacks to a
        # non-divisor; the second, k = 10, finds 3x^2 + 2x - 1
        operands = [[-2, 1, 13, 6, -1, 3], [-3, 7, 5, 1, 6]]
        widths = []
        pack = polynomials._zx_pack

        def recorded(a, k):
            widths.append(k)
            return pack(a, k)

        monkeypatch.setattr(polynomials, "_zx_pack", recorded)
        found = polynomials._heuristic_gcd(*operands)
        assert found[0] == [-1, 2, 3]
        assert sorted(set(widths)) == [7, 10]
        self.check(operands, found)

    @staticmethod
    def vanishing_at_every_try(small):
        """A polynomial that vanishes at each of the six points 2**k GCDHEU
        tries when ``small`` has the least largest coefficient: the first k
        holds 2 max|small| + 29, and each next one is about a quarter wider."""
        from ansatzkit.polynomials import _zx_mul, _zx_width

        k = _zx_width(2 * max(map(abs, small)) + 29)
        out = [1]
        for _ in range(6):
            out = _zx_mul(out, [-(2**k), 1])
            k += k // 4 + 2
        return out

    def test_falls_back_to_poly_gcd(self, monkeypatch):
        from ansatzkit import polynomials
        from ansatzkit.polynomials import _zx_mul

        # the other operand vanishes at every point tried, so each try
        # unpacks the small operand's value, which does not divide it
        small = [1, 1, 1]
        other = self.vanishing_at_every_try(small)
        calls = []
        gcd_over_q = polynomials.poly_gcd

        def counted(a, b):
            calls.append(1)
            return gcd_over_q(a, b)

        monkeypatch.setattr(polynomials, "poly_gcd", counted)
        assert polynomials._heuristic_gcd(small, other) is None
        assert calls == []
        assert polynomials._zx_common_factor([small, other]) == ([1], [small, other])
        assert len(calls) == 1
        # a planted factor, found by poly_gcd and divided out
        planted = _zx_mul([2, 1, 1], small)
        operands = [planted, _zx_mul([2, 1, 1], self.vanishing_at_every_try(planted))]
        assert polynomials._heuristic_gcd(*operands) is None
        found = polynomials._zx_common_factor(operands)
        assert found[0] == [2, 1, 1]
        self.check(operands, found)

    @staticmethod
    def fixed_closures():
        """The fixed set of holonomic closures the work guards run."""
        catalan, harmonic = corpus.catalan_system(), corpus.harmonic_from_zero()
        factorial, floor_square = corpus.factorial_system(), corpus.floor_square_holonomic()
        for kind in (ADD, TERMWISE):
            for a, b in ((catalan, harmonic), (factorial, catalan), (harmonic, floor_square)):
                combine(kind, a, b)
        combine(CAUCHY, catalan, factorial)
        for a in (catalan, harmonic, factorial):
            combine(PARTIAL_SUM, a)
            combine(SUBSEQUENCE, a, mult=2)

    @staticmethod
    def counted(monkeypatch, module, name, calls):
        original = getattr(module, name)

        def counting(*args):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(module, name, counting)

    def test_one_pass_per_vector(self, monkeypatch):
        """A timing-free work guard: the kernel makes each vector primitive
        by one integer gcd of its packed entries, and on this fixed set of
        holonomic closures every candidate passes the norm check, so no
        GCDHEU pass and no fallback to ``_primitive_vector`` runs.  One
        GCDHEU pass per yielded vector made 15 calls here, and making every
        input equation primitive by pairwise gcds made 90."""
        from ansatzkit import linalg, polynomials

        calls = []
        self.counted(monkeypatch, polynomials, "_heuristic_gcd", calls)
        self.counted(monkeypatch, linalg, "_primitive_vector", calls)
        self.counted(monkeypatch, linalg, "_packed_primitive_vector", calls)
        self.fixed_closures()
        assert calls.count("_packed_primitive_vector") >= 10
        assert set(calls) == {"_packed_primitive_vector"}

    def test_no_root_search_on_the_fixed_set(self, monkeypatch):
        """A timing-free work guard: every validity decision of the same
        closures is settled by the sign bound of its leading coefficient,
        so the p-adic root search never runs; it ran 13 times here when
        every decision went through it."""
        from ansatzkit import polynomials

        calls, scans = [], []
        self.counted(monkeypatch, polynomials, "_zx_roots", calls)
        self.counted(monkeypatch, polynomials, "_value", scans)
        self.fixed_closures()
        assert calls == []
        assert scans


class TestLargeHolonomicProducts:
    """Term-wise products of two order-3 operators, which the Q(n)
    elimination could not finish: order at most 9, annihilating the
    directly multiplied terms from the validity offset on."""

    def check(self, op_a, op_b):
        sys_a = RecurrenceSystem(op_a, [1, 2, 3])
        sys_b = RecurrenceSystem(op_b, [1, -1, 2])
        result = combine(TERMWISE, sys_a, sys_b)
        assert result.operator.order <= 9
        a = expand_terms(sys_a, 40).terms
        b = expand_terms(sys_b, 40).terms
        product = Sequence([x * y for x, y in zip(a, b)])
        assert verify_annihilates(result.operator, product, result.validity_offset) is None
        assert expand_terms(result, 40).terms[:40] == product.terms

    def test_dense_order_three_product(self):
        # A = (2n+1) + (n-3)N + (2-n)N^2 + (n+1)N^3
        # B = (2-n) + (3n+1)N + (2n-1)N^2 + (n+3)N^3
        self.check(
            _poly_n([1, 2], [-3, 1], [2, -1], [1, 1]),
            _poly_n([2, -1], [1, 3], [-1, 2], [3, 1]),
        )

    def test_dense_order_three_degree_two_product(self):
        # A = (2n+1) + (n^2-3)N + (2-n)N^2 + (n^2+1)N^3
        # B = (2-n^2) + (3n+1)N + (2n-1)N^2 + (n^2+3)N^3
        self.check(
            _poly_n([1, 2], [-3, 0, 1], [2, -1], [1, 0, 1]),
            _poly_n([2, 0, -1], [1, 3], [-1, 2], [3, 0, 1]),
        )

    def test_sparse_order_three_product(self):
        # degree-1 coefficients only at the ends
        self.check(
            _poly_n([2, 1], [3], [-1], [1, 1]),
            _poly_n([-1, 2], [1], [2], [3, 1]),
        )


class TestIntegerCombinationMatrices:
    """The integer-polynomial combination matrices against a Q(n) reference
    (Q for constant coefficients): a sum's every column is the reference
    column times one polynomial, the last row's nested denominator; every
    other kind's row t is the reference row times the denominator returned
    for it, the nested denominator D_t of the row; and the nested
    denominators grow by one shifted lead per row."""

    class ReferenceRep:
        """a(mult*n + t) over the basis a(mult*n + i), i < r, with entries
        in Q(n) (or Q), one operator relation at a time."""

        def __init__(self, op, mult=1):
            self.op, self.mult, self.cache = op, mult, {}
            if op.ring is CoeffRing.POLY_N:
                self.lift, self.one = RationalFunction, RationalFunction(Poly([1], QQ, "n"))
            else:
                self.lift, self.one = Fraction, Fraction(1)
            self.zero = self.one * 0

        def vector(self, t):
            if t not in self.cache:
                r = self.op.order
                vec = [self.zero] * r
                if t < r:
                    vec[t] = self.one
                else:
                    coeff = [self.lift(self.op.shifted_coeff(i, t - r, self.mult))
                             for i in range(r + 1)]
                    for i in range(r):
                        sub = self.vector(t - r + i)
                        vec = [a - coeff[i] / coeff[r] * b for a, b in zip(vec, sub)]
                self.cache[t] = vec
            return self.cache[t]

    def reference(self, kind, a, b, mult, rows):
        if kind == SUBSEQUENCE:
            rep = self.ReferenceRep(a, mult)
            return [rep.vector(mult * t) for t in range(rows)]
        rep_a = self.ReferenceRep(a)
        if kind == PARTIAL_SUM:
            matrix, acc = [], [rep_a.zero] * a.order
            for t in range(rows):
                if t:
                    acc = [x + y for x, y in zip(acc, rep_a.vector(t))]
                matrix.append([rep_a.one] + acc)
            return matrix
        rep_b = self.ReferenceRep(b)
        u, w = [rep_a.vector(t) for t in range(rows)], [rep_b.vector(t) for t in range(rows)]
        if kind == ADD:
            return [x + y for x, y in zip(u, w)]
        return [[p * q for p in x for q in y] for x, y in zip(u, w)]

    @staticmethod
    def column_factors(matrix, reference, var):
        """For each column, the one factor P with column = reference * P;
        None for a zero column."""
        factors = []
        for j in range(len(reference[0])):
            factor = None
            for row, ref_row in zip(matrix, reference):
                entry, ref = Poly(row[j], QQ, var), ref_row[j]
                if not ref:
                    assert not entry
                    continue
                ratio = RationalFunction(entry) / ref
                assert ratio == (factor if factor is not None else ratio)
                factor = ratio
            if factor is not None:
                assert factor.den == Poly([1], QQ, var)
                factor = factor.num
            factors.append(factor)
        return factors

    @staticmethod
    def leads(op, mult, count):
        """c_r(mult*n + k) for k < count, as QQ polynomials."""
        lead = op.leading if isinstance(op.leading, Poly) else Poly([op.leading], QQ, "n")
        return [lead.compose_linear(mult, k) for k in range(count)]

    def nested(self, op, mult, t):
        """D_t: the product of the shifted leads up to the relation at t - r."""
        product = Poly([1], QQ, "n")
        for lead in self.leads(op, mult, t - op.order + 1):
            product = product * lead
        return product

    @staticmethod
    def proportional(p, q):
        return p.degree == q.degree and p.monic() == q.monic()

    @staticmethod
    def random_operator(rng, ring, order):
        def coeff(top):
            if ring is CoeffRing.CONSTANT:
                low = -5 if not top else 1
                return F(rng.randint(low, 5), rng.randint(1, 4))
            coeffs = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(rng.randint(1, 3))]
            if top:
                coeffs.append(F(rng.randint(1, 5), rng.randint(1, 6)))
            return Poly(coeffs, QQ, "n")

        return ShiftOperator(ring, [coeff(False) for _ in range(order)] + [coeff(True)])

    def test_columns_against_the_reference(self):
        rng = random.Random(1968)
        checked = set()
        for _ in range(10):
            for ring in (CoeffRing.POLY_N, CoeffRing.CONSTANT):
                a = self.random_operator(rng, ring, rng.randint(1, 3))
                b = self.random_operator(rng, ring, rng.randint(1, 2))
                cases = [(ADD, b, 1), (TERMWISE, b, 1), (PARTIAL_SUM, None, 1),
                         (SUBSEQUENCE, None, 2), (SUBSEQUENCE, None, 3)]
                for kind, other, mult in cases:
                    matrix, denominators = combination_matrix(kind, a, other, mult=mult)
                    rows = len(matrix)
                    reference = self.reference(kind, a, other, mult, rows)
                    if ring is CoeffRing.CONSTANT:
                        reference = [[RationalFunction(Poly([x], QQ, "n")) for x in row]
                                     for row in reference]
                    if kind == ADD:
                        # sums keep the column scaling: no row denominators
                        assert denominators is None
                        factors = self.column_factors(matrix, reference, "n")
                        last = rows - 1
                        expected = [self.nested(a, 1, last)] * a.order
                        expected += [self.nested(b, 1, last)] * b.order
                        assert len(factors) == len(expected)
                        for factor, want in zip(factors, expected):
                            assert factor is None or self.proportional(factor, want)
                        checked.add((ring, kind, mult))
                        continue
                    nested = {
                        TERMWISE: lambda t: self.nested(a, 1, t) * self.nested(b, 1, t),
                        PARTIAL_SUM: lambda t: self.nested(a, 1, t),
                        SUBSEQUENCE: lambda t: self.nested(a, mult, mult * t),
                    }[kind]
                    if denominators is None:
                        denominators = [[1]] * rows
                    assert len(denominators) == rows
                    for t, (row, ref_row, d) in enumerate(zip(matrix, reference, denominators)):
                        d = Poly(d, QQ, "n")
                        assert self.proportional(d, nested(t))
                        assert len(row) == len(ref_row)
                        for entry, ref in zip(row, ref_row):
                            # row t is exactly the reference row times D_t
                            assert Poly(entry, QQ, "n") * ref.den == ref.num * d
                    checked.add((ring, kind, mult))
        assert len(checked) == 10

    def test_nested_denominators_are_shifted_leads(self):
        from ansatzkit.closure import _RingShiftRep

        rng = random.Random(31)
        for _ in range(12):
            mult = rng.randint(1, 3)
            op = self.random_operator(rng, CoeffRing.POLY_N, rng.randint(1, 3))
            rep = _RingShiftRep(op, mult)
            reference = self.ReferenceRep(op, mult)
            top = op.order + 5
            for t in range(top + 1):
                # with t as the last shift, the row is p_t itself, over D_t
                (p_t,) = rep.vectors([t])
                d_t = Poly([1], QQ, "n")
                for lead in rep.leads[: t - op.order + 1]:
                    d_t = d_t * Poly(lead, QQ, "n")
                assert [Poly(p, QQ, "n") for p in p_t] == [
                    (x * d_t).num for x in reference.vector(t)
                ]
                (found,) = rep.denominators([t]) or [[1]]
                assert Poly(found, QQ, "n") == d_t
            # D_{t+1} / D_t is the next shifted lead c_r(mult*n + t + 1 - r)
            shifted = self.leads(op, mult, top - op.order + 1)
            assert len(rep.leads) == len(shifted)
            for lead, want in zip(rep.leads, shifted):
                assert self.proportional(Poly(lead, QQ, "n"), want)

    def test_cauchy_rows_against_the_reference(self):
        from ansatzkit.closure import _cauchy_matrix
        from ansatzkit.fields import as_rational_poly

        def reference_vectors(eq, count):
            """The old construction over Q(x): f^(u) over f, ..., f^(r-1)."""
            _, coeffs = eq.terms[0]
            polys = [RationalFunction(as_rational_poly(c)) for c in coeffs]
            r = len(polys) - 1
            one = RationalFunction(Poly([1], QQ, "x"))
            vectors = [[one if i == u else one * 0 for i in range(r)] for u in range(r)]
            while len(vectors) < count:
                prev = vectors[-1]
                vec = [f.derivative() for f in prev]
                for i in range(r - 1):
                    vec[i + 1] = vec[i + 1] + prev[i]
                vectors.append([v - prev[-1] * c / polys[-1] for v, c in zip(vec, polys)])
            return vectors, as_rational_poly(coeffs[-1])

        rng = random.Random(5)
        for _ in range(4):
            systems = []
            for _ in range(2):
                op = self.random_operator(rng, CoeffRing.POLY_N, 1)
                systems.append(RecurrenceSystem(op, [F(rng.randint(1, 5), rng.randint(1, 3))]))
            eq_a, eq_b = (homogenize(holonomic_to_diff(s)) for s in systems)
            rows = eq_a.order * eq_b.order + 1
            (va, lead_a), (vb, lead_b) = (reference_vectors(eq, rows) for eq in (eq_a, eq_b))
            reference = []
            for t in range(rows):
                row = [va[0][0] * 0] * (eq_a.order * eq_b.order)
                for u in range(t + 1):
                    for i in range(eq_a.order):
                        for j in range(eq_b.order):
                            row[i * eq_b.order + j] += math.comb(t, u) * va[u][i] * vb[t - u][j]
                reference.append(row)
            factors = self.column_factors(_cauchy_matrix(eq_a, eq_b, rows), reference, "x")
            # one common denominator: the leads to the power of the last derivative's
            expected = lead_a ** max(rows - eq_a.order, 0) * lead_b ** max(rows - eq_b.order, 0)
            for factor in factors:
                assert factor is None or self.proportional(factor, expected)
