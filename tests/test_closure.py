"""Closure constructions and the rigorous identity prover."""

import ast
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
    RecurrenceSystem,
    Sequence,
    ShiftOperator,
    c2_combine,
    cfinite_combine_gf,
    cfinite_subsequence,
    cfinite_termwise,
    combine,
    expand_terms,
    genfun_cfinite,
    holonomic_cauchy,
    holonomic_combine,
    holonomic_to_diff,
    homogenize,
    poly_closure,
    prove_identity,
    verify_annihilates,
)
from ansatzkit.closure import combination_matrix
from ansatzkit.errors import UnboundableExpression
from ansatzkit.linalg import clear_denominators
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
        matrix = combination_matrix(
            ADD, self.catalan.operator, self.harmonic.operator
        )
        cleared_rows = [clear_denominators(row) for row in matrix]
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

    def test_cli_reports_bound_violation_as_error(self, monkeypatch, capsys):
        from ansatzkit import closure
        from ansatzkit.cli import main
        from ansatzkit.optext import parse_recurrence_spec

        overlong = parse_recurrence_spec("N^9 - 1;0,0,0,0,0,0,0,0,1")
        monkeypatch.setattr(closure, "cfinite_from_rational", lambda gf: overlong)
        code = main(["closure", "--kind", "cauchy", "N^2-N-1;0,1", "N-2;1"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: result order 9 exceeds")
