"""Closed-form solutions and their reverse construction."""

import dataclasses
import random
from fractions import Fraction

import pytest

from ansatzkit import (
    BinomialForm,
    CoeffRing,
    ExpPoly,
    NumberField,
    Poly,
    QQ,
    RecurrenceSystem,
    Sequence,
    ShiftOperator,
    cfinite_closed_form,
    closed_form_to_recurrence,
    expand_terms,
    poly_binomial_form,
    verify_annihilates,
)
from ansatzkit import closedform
from ansatzkit.errors import NotPolynomial, UnsupportedFactorization

import conftest as corpus

F = Fraction


class TestBinomialForm:
    def test_sum_of_squares(self):
        seq = Sequence([F(n * (n + 1) * (2 * n + 1), 6) for n in range(15)])
        form = poly_binomial_form(seq, 3)
        assert list(form.coeffs) == [0, 1, 3, 2]

    def test_constant(self):
        form = poly_binomial_form(Sequence([7, 7, 7]), 0)
        assert list(form.coeffs) == [7]
        # a negative degree reads as degree 0
        assert str(poly_binomial_form(Sequence([7, 7, 7]), -1)) == "7"

    def test_squares(self):
        form = poly_binomial_form(Sequence([n * n for n in range(12)]), 2)
        assert list(form.coeffs) == [0, 1, 2]

    def test_evaluation_matches_beyond_fit(self):
        rng = random.Random(42)
        for _ in range(20):
            poly = corpus.random_polynomial_poly(rng, 4)
            degree = max(poly.degree, 0)
            seq = Sequence([poly.evaluate(F(n)) for n in range(degree + 11)])
            form = poly_binomial_form(seq, degree)
            for n in range(degree + 11):
                assert form.evaluate(n) == poly.evaluate(F(n))

    def test_evaluation_against_the_binomial_sum(self):
        def binomial_sum(coeffs, offset, n):
            # sum_i c_i C(n - offset, i), C(m, i) = m (m-1) ... (m-i+1) / i!
            total, choose = F(0), F(1)
            for i, c in enumerate(coeffs):
                total += c * choose
                choose = choose * (n - offset - i) / (i + 1)
            return total

        rng = random.Random(7)
        for _ in range(20):
            size = rng.randint(0, 6)
            coeffs = tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(size))
            offset = rng.randint(0, 5)
            form = BinomialForm(coeffs, offset)
            for n in [-40, -1, 0, offset - 1, offset, offset + 3, 10**6, 10**30 + 7]:
                assert form.evaluate(n) == binomial_sum(coeffs, offset, n)
            assert form.evaluate(F(7, 3)) == binomial_sum(coeffs, offset, F(7, 3))
        field = NumberField([-2, 0, 1])  # t^2 = 2
        form = BinomialForm((F(1), F(-2), F(3, 2), F(5)), 2)
        t = field.generator()
        value = form.evaluate(t)
        assert value.field == field and value == binomial_sum(form.coeffs, 2, t)

    def test_newton_polynomial_is_built_with_the_form(self, monkeypatch):
        coeffs = (F(1), F(-2), F(3, 2))
        form = BinomialForm(coeffs, 2)
        values = [form.evaluate(n) for n in range(-2, 8)]
        # the polynomial is no field of comparison, hashing or repr
        assert repr(form) == (
            "BinomialForm(coeffs=(Fraction(1, 1), Fraction(-2, 1), Fraction(3, 2)), offset=2)"
        )
        assert form == BinomialForm(coeffs, 2) and hash(form) == hash(BinomialForm(coeffs, 2))
        assert form != BinomialForm(coeffs, 3)
        moved = dataclasses.replace(form, offset=3)
        monkeypatch.setattr(closedform, "newton_poly", lambda *args: pytest.fail("rebuilt"))
        assert [form.evaluate(n) for n in range(-2, 8)] == values
        assert [moved.evaluate(n + 1) for n in range(-2, 8)] == values

    def test_long_sequence_reports_the_corrupted_index(self):
        terms = [F(n**5 - 3 * n**2 + 7, 2) for n in range(2000)]
        terms[1234] += 1
        with pytest.raises(NotPolynomial, match=r"degree <= 5 \(fails at n=1237\)$"):
            poly_binomial_form(Sequence(terms, 3), 5)

    def test_rejects_non_polynomial(self):
        seq = expand_terms(corpus.fibonacci_system(), 12)
        with pytest.raises(NotPolynomial):
            poly_binomial_form(seq, 4)
        with pytest.raises(NotPolynomial, match="fails at n=1"):
            poly_binomial_form(Sequence([1, 2, 3]), -1)


class TestCFiniteClosedForm:
    def test_floor_square(self):
        closed = cfinite_closed_form(corpus.floor_square_system())
        field = closed.expression.field
        expected = ExpPoly(
            field,
            [
                (1, Poly([F(-1, 8), 0, F(1, 4)], field, "n")),
                (-1, Poly([F(1, 8)], field, "n")),
            ],
        )
        assert closed.expression == expected
        assert closed.valid_from == 0

    def test_geometric(self):
        closed = cfinite_closed_form(
            RecurrenceSystem(ShiftOperator(CoeffRing.CONSTANT, [-2, 1]), [1])
        )
        assert closed.expression == ExpPoly.geometric(2)

    def test_fibonacci_in_quadratic_field(self):
        closed = cfinite_closed_form(corpus.fibonacci_system())
        seq = expand_terms(corpus.fibonacci_system(), 30)
        for n in range(30):
            assert closed.evaluate(n) == seq.value(n)
        bases = [base for base, _ in closed.expression.terms]
        assert len(bases) == 2 and not any(b.is_rational() for b in bases)

    def test_zero_root_exceptional_prefix(self):
        system = RecurrenceSystem(
            ShiftOperator(CoeffRing.CONSTANT, [0, -2, 1]), [5, 3]
        )
        closed = cfinite_closed_form(system)
        assert closed.valid_from == 1
        assert list(closed.exceptional) == [5]
        seq = expand_terms(system, 12)
        for n in range(12):
            assert closed.evaluate(n) == seq.value(n)

    def test_unsupported_cubic(self):
        system = RecurrenceSystem(
            ShiftOperator(CoeffRing.CONSTANT, [-1, -1, 0, 1]), [1, 1, 1]
        )
        with pytest.raises(UnsupportedFactorization):
            cfinite_closed_form(system)

    def test_two_quadratic_fields_rejected(self):
        # (N^2-2)(N^2-3)
        op = Poly([-2, 0, 1], QQ, "N") * Poly([-3, 0, 1], QQ, "N")
        system = RecurrenceSystem(
            ShiftOperator(CoeffRing.CONSTANT, op.coeffs), [1, 1, 1, 1]
        )
        with pytest.raises(UnsupportedFactorization):
            cfinite_closed_form(system)

    def test_solution_count_matches_order(self):
        # nonsingular square system whenever the characteristic polynomial
        # has no zero root
        rng = random.Random(12)
        checked = 0
        for _ in range(40):
            system = corpus.random_cfinite(rng, 3)
            if system.operator.coeffs[0] == 0:
                continue
            try:
                closed = cfinite_closed_form(system)
            except UnsupportedFactorization:
                continue
            total = sum(
                poly.degree + 1 for _, poly in closed.expression.terms
            ) if closed.expression else 0
            assert total <= system.order
            checked += 1
        assert checked > 10


class TestClosedFormToRecurrence:
    def test_floor_square_roundtrip(self):
        closed = cfinite_closed_form(corpus.floor_square_system())
        system = closed_form_to_recurrence(closed.expression)
        assert list(system.operator.coeffs) == [-1, 2, 0, -2, 1]
        assert list(system.initials) == [0, 0, 1, 2]

    def test_geometric(self):
        system = closed_form_to_recurrence(ExpPoly.geometric(2))
        assert list(system.operator.coeffs) == [-2, 1]
        assert list(system.initials) == [1]

    def test_linear_polynomial(self):
        system = closed_form_to_recurrence(
            ExpPoly.from_poly(Poly([1, 3], QQ, "n"))
        )
        assert list(system.operator.coeffs) == [1, -2, 1]
        assert list(system.initials) == [1, 4]

    def test_order_is_root_count(self):
        field = NumberField([-1, -1, 1])
        gen = field.generator()
        expression = ExpPoly(
            field,
            [
                (gen, Poly([field.one, field.one], field, "n")),
                (1 - gen, Poly([field.one, field.one], field, "n")),
                (field.from_rational(2), Poly([field.one], field, "n")),
            ],
        )
        system = closed_form_to_recurrence(expression)
        assert system.order == 5

    def test_conjugate_unbalanced_rejected(self):
        field = NumberField([-1, -1, 1])
        lopsided = ExpPoly(
            field, [(field.generator(), Poly([field.one], field, "n"))]
        )
        with pytest.raises(UnsupportedFactorization):
            closed_form_to_recurrence(lopsided)


class TestRoundTrips:
    def test_rational_and_quadratic_roundtrips(self):
        rng = random.Random(777)
        field = NumberField([-1, -1, 1])
        gen = field.generator()
        cases = 0
        while cases < 50:
            use_field = rng.random() < 0.4
            if use_field:
                shift = rng.randint(0, 3)
                poly_deg = rng.randint(0, 1)
                base_terms = []
                # conjugate-closed combination plus an optional rational term
                coeffs = [F(rng.randint(-3, 3)) for _ in range(poly_deg + 1)]
                if not any(coeffs):
                    coeffs[-1] = F(1)
                f_part = corpus.fibonacci_shift_closed_form(shift)
                expression = f_part.scale(field.from_rational(F(rng.randint(1, 3))))
                if rng.random() < 0.5:
                    expression = expression + ExpPoly(
                        field,
                        [(field.from_rational(2), Poly([field.coerce(c) for c in coeffs], field, "n"))],
                    )
            else:
                terms = []
                for base in (F(1), F(2), F(-1), F(1, 2)):
                    if rng.random() < 0.5:
                        coeffs = [F(rng.randint(-3, 3)) for _ in range(rng.randint(1, 2))]
                        if any(coeffs):
                            terms.append((base, Poly(coeffs, QQ, "n")))
                if not terms:
                    continue
                from ansatzkit import RATIONAL_FIELD

                expression = ExpPoly(
                    RATIONAL_FIELD,
                    [(RATIONAL_FIELD.from_rational(b), Poly([RATIONAL_FIELD.coerce(c) for c in p.coeffs], RATIONAL_FIELD, "n")) for b, p in terms],
                )
            if not expression:
                continue
            system = closed_form_to_recurrence(expression)
            closed = cfinite_closed_form(system)
            assert closed.valid_from == 0
            seq = expand_terms(system, 40)
            back = closed_form_to_recurrence(closed.expression)
            assert (
                verify_annihilates(back.operator, seq, 0) is None
            )
            for n in range(0, 40, 7):
                assert closed.evaluate(n) == seq.value(n)
            cases += 1
