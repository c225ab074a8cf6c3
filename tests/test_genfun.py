"""Recurrence <-> generating-function-equation conversions."""

import random
from fractions import Fraction

import pytest

from ansatzkit import (
    CoeffRing,
    DiffEquation,
    ExpPoly,
    NumberField,
    Poly,
    QQ,
    RATIONAL_FIELD,
    RationalGF,
    RecurrenceSystem,
    ShiftOperator,
    c2_homogenize,
    c2_to_diff,
    cfinite_from_rational,
    diff_to_c2,
    diff_to_holonomic,
    expand_terms,
    genfun_cfinite,
    genfun_polynomial,
    guess_polynomial,
    holonomic_to_diff,
    homogenize,
    verify_annihilates,
)
from ansatzkit.errors import DenominatorVanishesAtZero, UnsupportedField
from ansatzkit.genfun import falling_basis_constants
from ansatzkit.ratfunc import RationalFunction

import conftest as corpus

F = Fraction


def x_poly(coeffs):
    return Poly(coeffs, QQ, "x")


def rational_equation(term_coeffs, rhs=None):
    """Single-base equation over the rationals from plain coefficient lists."""
    return DiffEquation(
        RATIONAL_FIELD,
        [(1, [x_poly(c) for c in term_coeffs])],
        x_poly(rhs) if rhs else None,
    )


class TestGenfunPolynomial:
    def test_sum_of_squares(self):
        poly = Poly([0, F(1, 6), F(1, 2), F(1, 3)], QQ, "n")
        gf = genfun_polynomial(poly)
        assert gf == RationalGF(x_poly([0, 1, 1]), x_poly([1, -1]) ** 4)

    def test_constant_one(self):
        gf = genfun_polynomial(Poly([1], QQ, "n"))
        assert gf == RationalGF(x_poly([1]), x_poly([1, -1]))

    def test_identity_polynomial(self):
        gf = genfun_polynomial(Poly([0, 1], QQ, "n"))
        assert gf == RationalGF(x_poly([0, 1]), x_poly([1, -1]) ** 2)
        # series expansion matches n for a while
        assert gf.series(9) == [F(n) for n in range(9)]

    def test_series_matches_beyond_degree(self):
        poly = Poly([2, -1, 3], QQ, "n")
        gf = genfun_polynomial(poly)
        assert gf.series(8) == [poly.evaluate(F(n)) for n in range(8)]


class TestGenfunCFinite:
    def test_floor_square(self):
        gf = genfun_cfinite(corpus.floor_square_system())
        expected = RationalGF(x_poly([0, 0, 1]), x_poly([1, 1]) * x_poly([1, -1]) ** 3)
        assert gf == expected

    def test_fibonacci(self):
        gf = genfun_cfinite(corpus.fibonacci_system())
        assert gf == RationalGF(x_poly([0, 1]), x_poly([1, -1, -1]))

    def test_constant_sequence(self):
        system = RecurrenceSystem(ShiftOperator(CoeffRing.CONSTANT, [-1, 1]), [7])
        assert genfun_cfinite(system) == RationalGF(x_poly([7]), x_poly([1, -1]))


class TestRationalGF:
    """Reduced, with the denominator's constant term one."""

    a = RationalGF([0, 1], [1, -1, -1])  # Fibonacci
    b = RationalGF([1, 1], [1, 0, -1])  # the ones, 1/(1 - x) unreduced
    c = RationalGF([3], [3, -3])  # the ones again, scaled

    @staticmethod
    def parts(gf):
        return list(gf.num.coeffs), list(gf.den.coeffs)

    def test_normalisation(self):
        assert self.parts(self.b) == self.parts(self.c) == ([1], [1, -1])
        assert self.parts(RationalGF([0, 2], [2, -2, -2])) == self.parts(self.a)
        assert str(self.a) == "(x) / (-x^2 - x + 1)"

    def test_equality_and_hash(self):
        assert self.b == self.c and hash(self.b) == hash(self.c)
        twice = RationalGF([0, 2], [2, -2, -2])
        assert self.a == twice and hash(self.a) == hash(twice)
        assert self.a != self.b

    def test_equality_with_other_types(self):
        # compared as a RationalFunction: numbers and polynomials are
        # coerced, anything else is left to the other operand
        three = RationalGF([3], [1])
        assert three == 3 and three == x_poly([3])
        assert self.b != 1 and self.b != x_poly([1])
        assert self.b.__eq__("1") is NotImplemented and self.b != "1"
        # a RationalFunction keeps a monic denominator: the same value in
        # the other normalisation is a different (num, den) pair, yet both
        # classes compare and hash by the monic form
        monic = RationalFunction(x_poly([-1]), x_poly([-1, 1]))
        assert monic.evaluate(F(1, 2)) == self.b.evaluate(F(1, 2))
        assert self.parts(self.b) != self.parts(monic)
        assert self.b == monic and monic == self.b
        assert hash(self.b) == hash(monic)
        assert self.b - monic == 0
        assert RationalGF([1], [1, -1]) == RationalFunction(
            Poly([-1], QQ, "x"), Poly([-1, 1], QQ, "x")
        )
        fibonacci = RationalFunction(x_poly([0, -1]), x_poly([-1, 1, 1]))
        assert self.a == fibonacci and fibonacci == self.a
        assert hash(self.a) == hash(fibonacci)
        assert self.a != monic and monic != self.a

    def test_arithmetic(self):
        total = self.a + self.b
        assert isinstance(total, RationalGF)
        assert self.parts(total) == ([1, 0, -2], [1, -2, 0, 1])
        assert total.series(6) == [1, 2, 2, 3, 4, 6]
        product = self.a * self.b
        assert isinstance(product, RationalGF)
        assert self.parts(product) == ([0, 1], [1, -2, 0, 1])
        assert product.series(6) == [0, 1, 2, 4, 7, 12]
        assert self.parts(self.b + self.c) == ([2], [1, -1])
        assert self.parts(self.b * self.c) == ([1], [1, -2, 1])
        assert self.parts(self.a + self.a) == ([0, 2], [1, -1, -1])
        assert isinstance(self.a - self.a, RationalGF) and not self.a - self.a
        assert self.parts(-self.a) == ([0, -1], [1, -1, -1])

    def test_partial_sum(self):
        assert self.a.partial_sum() == self.a * self.b
        assert self.parts(self.c.partial_sum()) == ([1], [1, -2, 1])
        assert self.c.partial_sum().series(6) == [1, 2, 3, 4, 5, 6]

    def test_series(self):
        assert self.a.series(6) == [0, 1, 1, 2, 3, 5]
        assert self.b.series(4) == [1, 1, 1, 1]


class TestCFiniteFromRational:
    def test_fibonacci(self):
        system = cfinite_from_rational(RationalGF(x_poly([0, 1]), x_poly([1, -1, -1])))
        assert list(system.operator.coeffs) == [-1, -1, 1]
        assert list(system.initials) == [0, 1]

    def test_geometric(self):
        system = cfinite_from_rational(RationalGF(x_poly([1]), x_poly([1, -2])))
        assert list(system.operator.coeffs) == [-2, 1]
        assert list(system.initials) == [1]

    def test_floor_roundtrip(self):
        gf = RationalGF(x_poly([0, 0, 1]), x_poly([1, 1]) * x_poly([1, -1]) ** 3)
        system = cfinite_from_rational(gf)
        assert list(system.operator.coeffs) == [-1, 2, 0, -2, 1]
        assert list(system.initials) == [0, 0, 1, 2]
        reference = expand_terms(corpus.floor_square_system(), 20)
        assert list(expand_terms(system, 20).terms) == list(reference.terms)

    def test_improper_fraction_extends_validity(self):
        # x^3/(1-x) has series 0,0,0,1,1,1,...; polynomial part shifts validity
        gf = RationalGF(x_poly([0, 0, 0, 1]), x_poly([1, -1]))
        system = cfinite_from_rational(gf)
        assert system.validity_offset == 3
        seq = expand_terms(system, 10)
        assert list(seq.terms) == [0, 0, 0, 1, 1, 1, 1, 1, 1, 1]

    def test_denominator_vanishing_at_zero(self):
        with pytest.raises(DenominatorVanishesAtZero):
            RationalGF(x_poly([1]), x_poly([0, 1]))


class TestFallingBasisConstants:
    def test_basis_change_identity(self):
        from ansatzkit.polynomials import falling_factorial

        for s in range(9):
            for t in range(7):
                constants = falling_basis_constants(s, t)
                total = Poly([], QQ, "n")
                for j, c in enumerate(constants):
                    total = total + falling_factorial(Poly([t, 1], QQ, "n"), j).scale(c)
                assert total == Poly([0] * s + [1], QQ, "n")


class TestHolonomicToDiff:
    def test_factorial(self):
        equation = holonomic_to_diff(corpus.factorial_system())
        expected = rational_equation([[1, -1], [0, 0, -1]], [1])
        assert equation.scalar_multiple_of(expected)

    def test_catalan(self):
        equation = holonomic_to_diff(corpus.catalan_system())
        expected = rational_equation([[1, -2], [0, 1, -4]], [1])
        assert equation.scalar_multiple_of(expected)

    def test_floor_square(self):
        system = RecurrenceSystem(
            ShiftOperator(CoeffRing.POLY_N, [Poly([2, 1]), Poly([2]), Poly([0, -1])]),
            [0, 0],
        )
        equation = holonomic_to_diff(system)
        expected = rational_equation([[2, 2, 2], [0, -1, 0, 1]], None)
        assert equation.scalar_multiple_of(expected)

    def test_cfinite_input_gives_order_zero(self):
        equation = holonomic_to_diff(corpus.floor_square_system())
        expected = rational_equation([[1, -2, 0, 2, -1]], [0, 0, 1])
        assert equation.scalar_multiple_of(expected)

    def test_bounds(self):
        rng = random.Random(31)
        for _ in range(25):
            system = corpus.random_holonomic(rng)
            order = system.order
            degree = max(
                (c.degree for c in system.operator.coeffs if c), default=0
            )
            equation = holonomic_to_diff(system)
            assert equation.order <= max(degree, 0)
            assert equation.degree <= order + degree
            assert (not equation.rhs) or equation.rhs.degree <= order - 1


class TestHomogenize:
    def test_factorial(self):
        equation = homogenize(holonomic_to_diff(corpus.factorial_system()))
        expected = rational_equation([[1], [-1, 3], [0, 0, 1]], None)
        assert equation.scalar_multiple_of(expected)

    def test_already_homogeneous_unchanged(self):
        equation = rational_equation([[1], [-1, 3], [0, 0, 1]], None)
        assert homogenize(equation) == equation

    def test_catalan_series_still_solves(self):
        equation = homogenize(holonomic_to_diff(corpus.catalan_system()))
        terms = expand_terms(corpus.catalan_system(), 25).terms
        assert all(not r for r in equation.series_residual(terms, 20))

    def test_order_bound(self):
        base = holonomic_to_diff(corpus.factorial_system())
        result = homogenize(base)
        rhs_degree = base.rhs.degree if base.rhs else -1
        assert result.order <= base.order + rhs_degree + 1


class TestDiffToHolonomic:
    def test_factorial_roundtrip(self):
        equation = homogenize(holonomic_to_diff(corpus.factorial_system()))
        operator, validity = diff_to_holonomic(equation)
        terms = expand_terms(corpus.factorial_system(), 40)
        assert verify_annihilates(operator, terms, validity) is None
        assert operator.order <= equation.order + equation.degree
        assert max(c.degree for c in operator.coeffs if c) <= equation.order

    def test_exponential_series(self):
        equation = rational_equation([[-1], [1]], None)  # f' = f
        operator, validity = diff_to_holonomic(equation)
        assert validity == 0
        assert list(operator.coeffs) == [Poly([-1], QQ, "n"), Poly([1, 1], QQ, "n")]

    def test_catalan_roundtrip(self):
        equation = homogenize(holonomic_to_diff(corpus.catalan_system()))
        operator, validity = diff_to_holonomic(equation)
        terms = expand_terms(corpus.catalan_system(), 40)
        assert verify_annihilates(operator, terms, validity) is None


class TestHolonomicErrorContract:
    """The holonomic translations reject what the polynomial-coefficient
    (base 1, rational) case cannot express, with these error types."""

    def test_exponential_coefficients_rejected(self):
        with pytest.raises(ValueError, match="polynomial-coefficient"):
            holonomic_to_diff(corpus.doubling_tail_system())

    def test_inhomogeneous_equation_rejected(self):
        with pytest.raises(ValueError, match="homogeneous"):
            diff_to_holonomic(rational_equation([[-1], [1]], [1]))

    def test_two_base_equation_rejected(self):
        equation = DiffEquation(
            RATIONAL_FIELD,
            [(1, [x_poly([]), x_poly([1])]), (2, [x_poly([-2])])],
            None,
        )
        with pytest.raises(ValueError, match="single-base"):
            diff_to_holonomic(equation)

    def test_irrational_coefficient_rejected(self):
        field = NumberField([-5, 0, 1])  # Q(sqrt 5)
        root5 = field.generator()
        equation = DiffEquation(
            field,
            [(1, [Poly([root5], field, "x"), Poly([1], field, "x")])],
            None,
        )
        with pytest.raises(UnsupportedField, match="rational coefficients"):
            diff_to_holonomic(equation)


class TestC2ToDiff:
    def test_fibonorial_coefficients(self):
        equation = c2_to_diff(corpus.fibonorial_system())
        field = corpus.golden_field()
        gen = field.generator()
        plus, minus = gen, 1 - gen
        root5 = 2 * gen - 1
        c_plus = (field.one / root5) * plus ** 2
        c_minus = (field.one / root5).__neg__() * minus ** 2
        expected = DiffEquation(
            field,
            [
                (field.one, [Poly([field.one], field, "x")]),
                (plus, [Poly([field.zero, -c_plus], field, "x")]),
                (minus, [Poly([field.zero, -c_minus], field, "x")]),
            ],
            Poly([field.one], field, "x"),
        )
        assert equation.scalar_multiple_of(expected)

    def test_polynomial_times_power(self):
        coeff = ExpPoly(RATIONAL_FIELD, [(2, Poly([-1, -1], QQ, "n"))])
        system = RecurrenceSystem(
            ShiftOperator(
                CoeffRing.EXPPOLY, [coeff, ExpPoly.constant(1)]
            ),
            [1],
        )
        equation = c2_to_diff(system)
        expected = DiffEquation(
            RATIONAL_FIELD,
            [(1, [x_poly([1])]), (2, [x_poly([0, -1]), x_poly([0, 0, -1])])],
            x_poly([1]),
        )
        assert equation.scalar_multiple_of(expected)

    def test_doubling_tail(self):
        equation = c2_to_diff(corpus.doubling_tail_system())
        expected = DiffEquation(
            RATIONAL_FIELD,
            [(1, [x_poly([1, -1])]), (2, [x_poly([0, 0, -1])])],
            x_poly([1]),
        )
        assert equation.scalar_multiple_of(expected)

    def test_series_consistency(self):
        for system in (
            corpus.fibonorial_system(),
            corpus.doubling_tail_system(),
        ):
            equation = c2_to_diff(system)
            terms = expand_terms(system, 26).terms
            assert all(not r for r in equation.series_residual(terms, 20))


class TestDiffToC2Validity:
    def test_exponential_lead_zero_moves_the_validity(self):
        # (2^n - 4) a(n+1) + a(n) = 0: the leading coefficient vanishes at n = 2
        operator = ShiftOperator(
            CoeffRing.EXPPOLY,
            [ExpPoly.constant(1), ExpPoly.geometric(2) - ExpPoly.constant(4)],
        )
        equation = c2_to_diff(RecurrenceSystem(operator, [0]))
        assert equation.is_homogeneous
        recovered, validity = diff_to_c2(equation)
        assert not recovered.leading.evaluate(2)
        assert validity == 3


class TestC2Homogenize:
    def test_fibonorial(self):
        equation = c2_homogenize(c2_to_diff(corpus.fibonorial_system()))
        field = corpus.golden_field()
        gen = field.generator()
        plus, minus = gen, 1 - gen
        root5 = 2 * gen - 1
        c_plus = (field.one / root5) * plus ** 2
        c_minus = (-(field.one / root5)) * minus ** 2
        expected = DiffEquation(
            field,
            [
                (field.one, [Poly([], field, "x"), Poly([field.one], field, "x")]),
                (plus, [Poly([-c_plus], field, "x"), Poly([field.zero, -c_plus], field, "x")]),
                (minus, [Poly([-c_minus], field, "x"), Poly([field.zero, -c_minus], field, "x")]),
            ],
            None,
        )
        assert equation.scalar_multiple_of(expected)

    def test_doubling_tail_series(self):
        equation = c2_homogenize(c2_to_diff(corpus.doubling_tail_system()))
        terms = expand_terms(corpus.doubling_tail_system(), 26).terms
        assert all(not r for r in equation.series_residual(terms, 20))


class TestDiffToC2:
    def test_doubling_tail_roundtrip(self):
        equation = c2_homogenize(c2_to_diff(corpus.doubling_tail_system()))
        operator, validity = diff_to_c2(equation)
        bases = set()
        for coeff in operator.coeffs:
            for base, _ in coeff.terms:
                assert base.is_rational()
                bases.add(base.as_rational())
        assert bases <= {F(1), F(2)}
        terms = expand_terms(corpus.doubling_tail_system(), 30)
        assert verify_annihilates(operator, terms, validity) is None

    def test_zero_equation_rejected(self):
        with pytest.raises(ValueError):
            DiffEquation(RATIONAL_FIELD, [(1, [x_poly([])])], None)

    def test_dilation_only_equation(self):
        # f'(x) - 2 f(2x) = 0 forces (n+1) a(n+1) = 2^(n+1) a(n)
        equation = DiffEquation(
            RATIONAL_FIELD,
            [(1, [x_poly([]), x_poly([1])]), (2, [x_poly([-2])])],
            None,
        )
        operator, validity = diff_to_c2(equation)
        values = [F(1)]
        for n in range(14):
            values.append(values[-1] * F(2) ** (n + 1) / (n + 1))
        from ansatzkit import Sequence

        assert verify_annihilates(operator, Sequence(values), validity) is None

    def test_fibonorial_roundtrip(self):
        equation = c2_homogenize(c2_to_diff(corpus.fibonorial_system()))
        operator, validity = diff_to_c2(equation)
        terms = expand_terms(corpus.fibonorial_system(), 30)
        assert verify_annihilates(operator, terms, validity) is None


class TestSeriesAndBoundsProperties:
    def test_polynomial_gf_extraction(self):
        # coefficients of P(x)/(1-x)^(k+1) are fitted by a polynomial of
        # degree at most k
        rng = random.Random(404)
        from ansatzkit import Sequence

        for _ in range(30):
            k = rng.randint(0, 3)
            num = Poly(
                [F(rng.randint(-4, 4)) for _ in range(k + 1)], QQ, "x"
            )
            gf = RationalGF(num, x_poly([1, -1]) ** (k + 1))
            if gf.den.degree < 1:
                continue
            k_eff = gf.den.degree - 1
            series = gf.series(k_eff + 8)
            report = guess_polynomial(Sequence(series), max(k_eff, 0))
            assert report.result is not None
