"""Exact arithmetic foundation: matrices, roots, fields, exponential rings."""

import random
from fractions import Fraction

import pytest

from ansatzkit import (
    ExpPoly,
    ExpPolyFraction,
    NumberField,
    Poly,
    QQ,
    RationalFunction,
    left_null_space,
    rank,
    rref,
)
from ansatzkit.errors import UnsupportedField
from ansatzkit.linalg import clear_denominators, rational_adapter, solve_linear
from ansatzkit.polynomials import rational_roots, squarefree_decomposition

F = Fraction
QFIELD = rational_adapter()


def frac_rows(rows):
    return [[F(x) for x in row] for row in rows]


class TestRref:
    def test_identity_fixed(self):
        identity = frac_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert rref(identity, QFIELD) == identity

    def test_rank_deficient(self):
        reduced = rref(frac_rows([[2, 4], [1, 2]]), QFIELD)
        assert reduced == frac_rows([[1, 2], [0, 0]])

    def test_two_rows(self):
        reduced = rref(frac_rows([[1, 1, 1], [0, 1, 2]]), QFIELD)
        assert reduced == frac_rows([[1, 0, -1], [0, 1, 2]])

    def test_first_pivot_below_first_row(self):
        reduced = rref(frac_rows([[0, 2], [3, 0], [0, 0]]), QFIELD)
        assert reduced == frac_rows([[1, 0], [0, 1], [0, 0]])

    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(25):
            rows = [[F(rng.randint(-5, 5)) for _ in range(4)] for _ in range(3)]
            once = rref(rows, QFIELD)
            assert rref(once, QFIELD) == once

    def test_rank_matches_minor_oracle(self):
        rng = random.Random(11)

        def minor_rank(rows):
            from itertools import combinations

            def det(mat):
                if len(mat) == 1:
                    return mat[0][0]
                total = F(0)
                for j in range(len(mat)):
                    minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
                    total += (-1) ** j * mat[0][j] * det(minor)
                return total

            n_rows, n_cols = len(rows), len(rows[0])
            for size in range(min(n_rows, n_cols), 0, -1):
                for row_idx in combinations(range(n_rows), size):
                    for col_idx in combinations(range(n_cols), size):
                        sub = [[rows[r][c] for c in col_idx] for r in row_idx]
                        if det(sub):
                            return size
            return 0

        for _ in range(30):
            rows = [
                [F(rng.randint(-2, 2)) for _ in range(rng.randint(1, 3))]
                for _ in range(rng.randint(1, 3))
            ]
            rows = [row + [F(0)] * (max(len(r) for r in rows) - len(row)) for row in rows]
            computed = rank(rows, QFIELD)
            assert computed == minor_rank(rows)
            basis = left_null_space(rows, QFIELD)
            assert computed + len(basis) == len(rows)


class TestSolveLinear:
    def test_inconsistent_returns_none(self):
        rows = frac_rows([[1, 1], [2, 2]])
        assert solve_linear(rows, frac_rows([[1, 3]])[0], QFIELD) is None

    def test_rank_deficient_free_variables_zero(self):
        rows = frac_rows([[1, 2, 3], [2, 4, 7]])
        solution = solve_linear(rows, frac_rows([[1, 3]])[0], QFIELD)
        assert solution == frac_rows([[-2, 0, 1]])[0]

    def test_tall_consistent(self):
        rows = frac_rows([[1, 1], [1, -1], [2, 1], [0, 3]])
        rhs = frac_rows([[3, -1, 4, 6]])[0]
        assert solve_linear(rows, rhs, QFIELD) == frac_rows([[1, 2]])[0]


class TestLeftNullSpace:
    def test_subsequence_matrix(self):
        rows = frac_rows(
            [
                [1, 0, 0, 0],
                [0, 0, 1, 0],
                [1, -2, 0, 2],
                [4, -6, -3, 6],
                [9, -12, -8, 12],
            ]
        )
        basis = left_null_space(rows, QFIELD)
        target = [F(-1), F(3), F(-3), F(1), F(0)]
        assert any(
            all(v * target[0] == t * vec[0] for v, t in zip(vec, target))
            for vec in basis
        )
        for vec in basis:
            for col in range(4):
                assert sum(v * rows[r][col] for r, v in enumerate(vec)) == 0

    def test_full_rank_is_trivial(self):
        rows = frac_rows([[1, 2], [3, 4]])
        assert left_null_space(rows, QFIELD) == []

    def test_termwise_matrix(self):
        rows = frac_rows(
            [
                [1, 0, 0, 0, 0, 0, 0, 0],
                [0, 0, 0, 1, 0, 0, 0, 0],
                [0, 0, 0, 0, 1, 1, 0, 0],
                [0, 0, 0, 0, 0, 0, 1, 2],
                [2, 3, -4, -6, 0, 0, 4, 6],
                [6, 10, -9, -15, -6, -10, 12, 20],
                [20, 32, -30, -48, -15, -24, 30, 48],
                [48, 78, -64, -104, -48, -78, 72, 117],
                [117, 189, -156, -252, -104, -168, 156, 252],
            ]
        )
        basis = left_null_space(rows, QFIELD)
        assert len(basis) == 1
        target = [F(v) for v in (1, 2, -4, -8, 5, 8, -4, -2, 1)]
        vec = basis[0]
        scale = target[0] / vec[0]
        assert [v * scale for v in vec] == target


class TestClearDenominators:
    def test_single_denominator(self):
        n = Poly([0, 1], QQ, "n")
        vec = [
            RationalFunction(Poly([1], QQ, "n"), n + 2),
            RationalFunction(Poly([1], QQ, "n")),
        ]
        cleared = clear_denominators(vec)
        assert cleared == [Poly([1], QQ, "n"), n + 2]

    def test_common_denominator(self):
        n = Poly([0, 1], QQ, "n")
        vec = [
            RationalFunction(n + 1, n + 2),
            RationalFunction(Poly([3, 2], QQ, "n"), n + 2),
        ]
        cleared = clear_denominators(vec)
        assert cleared == [n + 1, Poly([3, 2], QQ, "n")]

    def test_content_and_sign(self):
        vec = [
            RationalFunction(Poly([0, -2], QQ, "n")),
            RationalFunction(Poly([-4, -2], QQ, "n")),
        ]
        cleared = clear_denominators(vec)
        assert cleared == [Poly([0, 1], QQ, "n"), Poly([2, 1], QQ, "n")]

    def test_spans_same_line(self):
        n = Poly([0, 1], QQ, "n")
        vec = [
            RationalFunction(Poly([2], QQ, "n"), n + 1),
            RationalFunction(Poly([0, 4], QQ, "n"), (n + 1) * (n + 3)),
        ]
        cleared = clear_denominators(vec)
        # cross-multiplied proportionality with the original entries
        assert cleared[0] * vec[1].num * vec[0].den == cleared[1] * vec[0].num * vec[1].den


class TestRationalRoots:
    def test_floor_characteristic(self):
        roots, cofactor = rational_roots(Poly([-1, 2, 0, -2, 1], QQ, "N"))
        assert sorted(roots) == [(F(-1), 1), (F(1), 3)]
        assert cofactor.degree == 0

    def test_fibonacci_characteristic(self):
        roots, cofactor = rational_roots(Poly([-1, -1, 1], QQ, "N"))
        assert roots == []
        assert cofactor == Poly([-1, -1, 1], QQ, "N")

    def test_linear(self):
        roots, cofactor = rational_roots(Poly([-2, 1], QQ, "N"))
        assert roots == [(F(2), 1)]
        assert cofactor.degree == 0

    def test_squarefree_decomposition(self):
        p = Poly([-1, 1], QQ, "N") ** 3 * Poly([1, 1], QQ, "N")
        parts = dict(
            (mult, factor) for factor, mult in squarefree_decomposition(p)
        )
        assert parts[3] == Poly([-1, 1], QQ, "N")
        assert parts[1] == Poly([1, 1], QQ, "N")


class TestNumberField:
    def test_inverse_roundtrip(self):
        field = NumberField([-1, -1, 1])
        rng = random.Random(3)
        for _ in range(40):
            element = field.element(
                [F(rng.randint(-5, 5)), F(rng.randint(-5, 5))]
            )
            if not element:
                continue
            assert element * element.inverse() == field.one

    def test_reducible_modulus_rejected(self):
        with pytest.raises(UnsupportedField):
            NumberField([-1, 0, 1])  # t^2 - 1 has rational roots

    def test_square_modulus_rejected(self):
        with pytest.raises(UnsupportedField):
            NumberField([0, 0, 1])  # t^2 is not square-free


class TestExpPoly:
    def test_ring_laws_by_evaluation(self):
        rng = random.Random(5)
        field = NumberField([-1, -1, 1])
        gen = field.generator()
        samples = []
        for _ in range(6):
            terms = []
            for base in (field.one, gen, 1 - gen, field.from_rational(2)):
                if rng.random() < 0.5:
                    terms.append(
                        (base, Poly([F(rng.randint(-2, 2)), F(rng.randint(-2, 2))], field, "n"))
                    )
            samples.append(ExpPoly(field, terms))
        for a in samples:
            for b in samples:
                total = a + b
                product = a * b
                for n in range(0, 31, 5):
                    assert total.evaluate(n) == a.evaluate(n) + b.evaluate(n)
                    assert product.evaluate(n) == a.evaluate(n) * b.evaluate(n)

    def test_shift_matches_evaluation(self):
        e = ExpPoly.geometric(2, poly=Poly([1, 1], QQ, "n"))
        shifted = e.shift(3)
        for n in range(10):
            assert shifted.evaluate_rational(n) == e.evaluate_rational(n + 3)

    def test_zero_is_empty(self):
        e = ExpPoly.geometric(2) - ExpPoly.geometric(2)
        assert not e
        assert e.deg == float("-inf")

    def test_unit_inverse(self):
        e = ExpPoly.geometric(F(2), poly=F(3))
        inv = e.inverse()
        assert (e * inv) == ExpPoly.constant(1)


class TestExpPolyFraction:
    def test_cross_multiplied_equality(self):
        field = ExpPoly.geometric(2).field
        a = ExpPoly.geometric(2) + ExpPoly.constant(1)
        b = ExpPoly.geometric(2)
        x = ExpPolyFraction(field, [a * b], [b])
        y = ExpPolyFraction(field, [a])
        assert x == y

    def test_structural_cancellation(self):
        field = ExpPoly.geometric(2).field
        a = ExpPoly.geometric(2) + ExpPoly.constant(1)
        b = ExpPoly.geometric(2) - ExpPoly.constant(1)
        quotient = ExpPolyFraction(field, [a, b]) / ExpPolyFraction(field, [b])
        assert quotient.den_factors == ()
        assert quotient == ExpPolyFraction(field, [a])

    def test_unit_detection(self):
        field = ExpPoly.geometric(2).field
        assert ExpPolyFraction(field, [ExpPoly.geometric(2)]).is_unit_value()
        two_term = ExpPoly.geometric(2) + ExpPoly.constant(1)
        assert not ExpPolyFraction(field, [two_term]).is_unit_value()
