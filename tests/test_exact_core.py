"""Exact arithmetic foundation: matrices, roots, fields, exponential rings."""

import copy
import math
import operator
import pickle
import random
import sys
import threading
from fractions import Fraction
from itertools import zip_longest
from math import gcd, isqrt, lcm

import pytest

from ansatzkit import (
    CAUCHY,
    PARTIAL_SUM,
    TERMWISE,
    CoeffRing,
    ExpPoly,
    ExpPolyFraction,
    NumberField,
    Poly,
    QQ,
    RATIONAL_FIELD,
    RationalFunction,
    RecurrenceSystem,
    Sequence,
    ShiftOperator,
    guess_polynomial,
    left_null_space,
    linalg,
    poly_binomial_form,
    poly_closure,
    rank,
    register_coefficient,
    rref,
)
from ansatzkit import exppoly, jsonio
from ansatzkit import fields as fields_module
from ansatzkit import closure as closure_module
from ansatzkit.closure import ADD, SUBSEQUENCE, c2_combine, combination_matrix
from ansatzkit.errors import (
    InternalError,
    UnsupportedCase,
    UnsupportedFactorization,
    UnsupportedField,
    ValidityUnproven,
)
from ansatzkit.exppoly import validity_offset
from ansatzkit.sequences import leading_validity_offset
from ansatzkit.fields import (
    NumberFieldElement,
    common_field,
    common_ratio,
    compare_modulus,
    quadratic_field,
    split_roots,
)
from ansatzkit.genfun import DiffEquation, falling_basis_constants
from ansatzkit.optext import parse_recurrence_spec
from ansatzkit.linalg import (
    PRIME,
    FieldAdapter,
    _minor_bound,
    _packed_primitive_vector,
    _primitive_vector,
    clear_denominators,
    clear_exppoly_denominators,
    null_vectors,
    rank_profile_mod_p,
    solve_linear,
)
from ansatzkit.polynomials import (
    SCAN_LIMIT,
    RationalDomain,
    _add,
    _sub,
    _zx_cleared,
    _zx_exact_div,
    _zx_largest_natural_root,
    _zx_mul,
    _zx_pack,
    _zx_roots,
    _zx_unpack,
    _zx_width,
    forward_differences,
    largest_natural_root,
    newton_poly,
    poly_gcd,
    power,
    rational_roots,
    series_inv,
    series_mul,
    squarefree_decomposition,
)

import conftest as corpus

F = Fraction
QFIELD = FieldAdapter(Fraction(0), Fraction(1))


def frac_rows(rows):
    return [[F(x) for x in row] for row in rows]


def zx_rows(rows):
    """A rational matrix times one common denominator, in the integer
    polynomial form ``null_vectors`` takes."""
    scale = lcm(*(x.denominator for row in rows for x in row))
    return [[[x.numerator * (scale // x.denominator)] if x else [] for x in row] for row in rows]


def ratfunc_rows(rows, var="n"):
    """An integer-polynomial matrix as rational functions, for the field kernel."""
    return [[RationalFunction(Poly(e, QQ, var)) for e in row] for row in rows]


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


class TestNullVectors:
    """``null_vectors`` against the field kernel's ``left_null_space``: one
    vector per basis vector, in the same order, each the basis vector's
    primitive integer form cut after its free column."""

    @staticmethod
    def primitive(vector):
        """A rational vector as coprime integers with a positive last entry,
        cut after its last nonzero entry, in integer-polynomial form."""
        vector = vector[: max(i for i, x in enumerate(vector) if x) + 1]
        scale = lcm(*(x.denominator for x in vector))
        ints = [x.numerator * (scale // x.denominator) for x in vector]
        content = gcd(*ints) if ints[-1] > 0 else -gcd(*ints)
        return [[c // content] if c else [] for c in ints]

    def check_rational(self, rows):
        expected = [self.primitive(v) for v in left_null_space(rows, QFIELD)]
        assert list(null_vectors(zx_rows(rows))) == expected
        return len(expected)

    def test_seeded_rational_matrices(self):
        rng = random.Random(1968)
        dimensions = set()
        for k in range(80):
            n_rows, n_cols = rng.randint(1, 6), rng.randint(1, 6)
            rows = [
                [F(rng.randint(-4, 4), rng.choice([1, 1, 2, 3, 5])) for _ in range(n_cols)]
                for _ in range(n_rows)
            ]
            if k % 4 == 1:  # a duplicated row, scaled
                rows.insert(rng.randrange(n_rows + 1), [F(-3, 2) * x for x in rng.choice(rows)])
            elif k % 4 == 2:  # a duplicated column
                col = rng.randrange(n_cols)
                rows = [row + [row[col]] for row in rows]
            elif k % 4 == 3:  # a zero column
                col = rng.randrange(n_cols + 1)
                rows = [row[:col] + [F(0)] + row[col:] for row in rows]
            dimensions.add(self.check_rational(rows))
        assert {0, 1, 2, 3} <= dimensions, dimensions

    def test_guess_shaped_matrices(self):
        rng = random.Random(7)
        dimensions = []
        for k in range(12):
            terms = [F(rng.randint(-9, 9), rng.randint(1, 2)) for _ in range(3)]
            for n in range(3, 30):  # a(n) = n a(n-1) - a(n-3) / 2, or noise
                terms.append(n * terms[-1] - terms[-3] / 2 if k % 3 else F(rng.randint(-99, 99)))
            order, degree = rng.randint(1, 4), rng.randint(0, 2)
            windows = len(terms) - order
            dimensions.append(self.check_rational(
                [[F(w) ** j * terms[w + i] for w in range(windows)]
                 for i in range(order + 1) for j in range(degree + 1)]
            ))
            dimensions.append(self.check_rational(
                [terms[i : i + windows] for i in range(order + 1)]
            ))
        assert 0 in dimensions and max(dimensions) >= 2, dimensions

    def test_empty_null_space(self):
        rows = frac_rows([[1, 2, 0], [3, 4, 0]])
        assert list(null_vectors(zx_rows(rows))) == []
        assert left_null_space(rows, QFIELD) == []
        assert linalg.least_null_vector(zx_rows(rows)) is None

    def test_combination_matrices_over_ratfunc(self):
        from ansatzkit.closure import ADD, SUBSEQUENCE, TERMWISE, combination_matrix
        from ansatzkit.sequences import CoeffRing, ShiftOperator

        one = RationalFunction(Poly([1], QQ, "n"))
        field = linalg.FieldAdapter(one - one, one)
        rng = random.Random(11)

        def operator():
            coeffs = [[rng.randint(-3, 3) for _ in range(rng.randint(1, 2))]
                      for _ in range(rng.randint(1, 2))]
            coeffs.append([rng.randint(1, 4), 1])
            return ShiftOperator(CoeffRing.POLY_N, [Poly(c, QQ, "n") for c in coeffs])

        for _ in range(4):
            a, b = operator(), operator()
            for matrix, _ in (
                combination_matrix(ADD, a, b, rows=a.order + b.order + 2),
                combination_matrix(TERMWISE, a, b, rows=a.order * b.order + 2),
                combination_matrix(SUBSEQUENCE, a, mult=2, rows=a.order + 2),
            ):
                expected = []
                for vector in left_null_space(ratfunc_rows(matrix), field):
                    free = max(i for i, x in enumerate(vector) if x)
                    expected.append(clear_denominators(vector[: free + 1]))
                found = [[Poly(c, QQ, "n") for c in v] for v in null_vectors(matrix)]
                assert found == expected
                assert len(found) >= 2  # one row past the bound


def schoolbook(a, b):
    """The product of two integer polynomials, coefficient by coefficient."""
    return series_mul(a, b, len(a) + len(b) - 1, 0) if a and b else []


def integer_primitive(equation):
    """An equation over the integer gcd of all its coefficients."""
    content = math.gcd(*[c for e in equation for c in e])
    return [[c // content for c in e] for e in equation] if content > 1 else equation


def reference_primitive(vector):
    """A vector over the gcd of its entries by ``poly_gcd`` over Q, cleared
    to integers with content one, the last nonzero entry's leading
    coefficient positive."""
    shared = None
    for v in vector:
        if v:
            shared = Poly(v) if shared is None else poly_gcd(shared, Poly(v))
    parts = [list(Poly(v).exact_div(shared).coeffs) if v else [] for v in vector]
    scale = math.lcm(*[c.denominator for p in parts for c in p])
    parts = [[int(c * scale) for c in p] for p in parts]
    content = math.gcd(*[c for p in parts for c in p])
    if next(p for p in reversed(parts) if p)[-1] < 0:
        content = -content
    return [[c // content for c in p] for p in parts]


def reference_null_vectors(rows, record=lambda entry: None):
    """The fraction-free kernel on integer-polynomial lists, unpacked: the
    equations over their integer content, the same pivots and read-off,
    with schoolbook products and each vector made primitive by gcds over
    Q, so it shares neither packing nor GCDHEU with the kernel it checks.
    ``record`` sees every entry it stores and every prev."""
    if not rows:
        return
    n_rows = len(rows)
    m = [[row[col] for row in rows] for col in range(len(rows[0]))]
    m = [integer_primitive(equation) for equation in m]
    unused = list(range(len(m)))
    pivots = []
    prev = [1]
    for col in range(n_rows):
        p = next((r for r in unused if m[r][col]), None)
        if p is None:
            vector = [[] for _ in range(col + 1)]
            vector[col] = prev
            for r, c in pivots:
                vector[c] = [-x for x in m[r][col]]
            yield reference_primitive(vector)
            continue
        unused.remove(p)
        pivot_row = m[p]
        piv = pivot_row[col]
        for i, row in enumerate(m):
            if i == p:
                continue
            factor = row[col]
            for j in range(col + 1, n_rows):
                row[j] = _zx_exact_div(
                    _sub(schoolbook(piv, row[j]), schoolbook(factor, pivot_row[j])), prev
                )
                record(row[j])
        pivots.append((p, col))
        prev = piv
        record(prev)


def seeded_polynomial_matrices():
    """Integer-polynomial matrices of degree at most 4: generic ones, and
    ones with a dependent row, a zero equation, one row or one equation."""
    rng = random.Random(1968)

    def entry(degree=4):
        if rng.random() < 0.2:
            return []
        coeffs = [rng.randint(-5, 5) for _ in range(rng.randint(1, degree + 1))]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        return coeffs

    for k in range(60):
        n_rows, n_cols = rng.randint(1, 5), rng.randint(1, 5)
        if k % 6 == 4:
            n_rows = 1
        elif k % 6 == 5:
            n_cols = 1
        rows = [[entry() for _ in range(n_cols)] for _ in range(n_rows)]
        if k % 6 == 1:  # a row that is a Z[x] combination of two others
            a, b = rng.choice(rows), rng.choice(rows)
            u, v = entry(1) or [1], entry(1) or [-1]
            combined = [_add(schoolbook(u, p), schoolbook(v, q)) for p, q in zip(a, b)]
            rows.insert(rng.randrange(n_rows + 1), combined)
        elif k % 6 == 2:  # a zero equation
            col = rng.randrange(n_cols + 1)
            rows = [row[:col] + [[]] + row[col:] for row in rows]
        elif k % 6 == 3:  # a duplicated equation, scaled
            col = rng.randrange(n_cols)
            rows = [row + [[-3 * c for c in row[col]]] for row in rows]
        yield rows


def guess_shaped_matrices():
    """Constant fit matrices on terms of about 10**40, as the guessers build
    them: w**j a(w + i) over the windows w, with and without a relation."""
    rng = random.Random(40)
    for k in range(8):
        terms = [rng.randint(-10**40, 10**40) for _ in range(3)]
        for n in range(3, 24):  # a(n) = n a(n-1) - 3 a(n-3), or noise
            terms.append(n * terms[-1] - 3 * terms[-3] if k % 2 else rng.randint(-10**40, 10**40))
        order, degree = (3, rng.randint(1, 2)) if k % 2 else (rng.randint(1, 3), rng.randint(0, 2))
        windows = len(terms) - order
        yield [[[x] if x else [] for x in (w**j * terms[w + i] for w in range(windows))]
               for i in range(order + 1) for j in range(degree + 1)]


class TestPackedKernel:
    """``null_vectors`` eliminates on packed integers; the Z[x] kernel it
    replaced is the reference, vector for vector."""

    @staticmethod
    def dense_operator(rng):
        coeffs = [[rng.randint(1, 5), rng.choice([-1, 1]) * rng.randint(1, 3)] for _ in range(4)]
        return ShiftOperator(CoeffRing.POLY_N, [Poly(c, QQ, "n") for c in coeffs])

    def test_polynomial_matrices_against_the_reference(self):
        dimensions = set()
        for rows in seeded_polynomial_matrices():
            found = list(null_vectors(rows))
            assert found == list(reference_null_vectors(rows)), rows
            dimensions.add(len(found))
        assert {0, 1, 2} <= dimensions, dimensions

    def test_guess_shaped_matrices_against_the_reference(self):
        dimensions = []
        for rows in guess_shaped_matrices():
            found = list(null_vectors(rows))
            assert found == list(reference_null_vectors(rows))
            dimensions.append(len(found))
        assert 0 in dimensions and max(dimensions) >= 1, dimensions

    def test_dense_termwise_product_against_the_reference(self):
        rng = random.Random(3)
        a, b = self.dense_operator(rng), self.dense_operator(rng)
        matrix, _ = combination_matrix(TERMWISE, a, b, rows=a.order * b.order + 1)
        found = list(null_vectors(matrix))
        assert found == list(reference_null_vectors(matrix))
        assert len(found) == 1

    @pytest.mark.parametrize("bound", [2, 3, 5, 7, 8, 9, 255, 256, 257, 10**40, 2**130])
    def test_packing_width_holds_the_bound_and_no_less(self, bound):
        rng = random.Random(bound)
        k = _zx_width(bound)
        polys = [[bound], [-bound], [bound, -bound, bound], [0, 0, -bound, bound]]
        polys += [[rng.randint(-bound, bound) for _ in range(5)] + [bound] for _ in range(20)]
        for poly in polys:
            assert _zx_unpack(_zx_pack(poly, k), k) == poly
        # one bit fewer: a coefficient of ``bound`` is read as a negative digit and a carry
        assert _zx_unpack(_zx_pack([bound], k - 1), k - 1) != [bound]
        assert _zx_unpack(_zx_pack([0, bound, -1], k - 1), k - 1) != [0, bound, -1]

    def test_kernel_unpacks_at_the_full_width(self):
        # one equation (1, c): the vector is (-c, 1) and the bound is 1 + c,
        # so c needs every bit of the width whenever 1 + c is no power of two
        for c in range(2, 70):
            for shape in ([c], [-c], [0, c]):
                rows = [[[1]], [shape]]
                assert list(null_vectors(rows)) == [[[-x for x in shape], [1]]]

    def closure_matrices(self):
        """Rows over their own denominators, which grow with the shift, so
        the bound takes the product of the row norms."""
        rng = random.Random(156)
        for _ in range(3):
            a, b = self.dense_operator(rng), self.dense_operator(rng)
            a, b = (ShiftOperator(CoeffRing.POLY_N, op.coeffs[1:]) for op in (a, b))
            yield combination_matrix(TERMWISE, a, b, rows=6)[0]
            yield combination_matrix(PARTIAL_SUM, a)[0]
            yield combination_matrix(SUBSEQUENCE, a, mult=3)[0]

    def test_reference_minors_stay_within_the_bound(self):
        by_row = 0
        for rows in [*seeded_polynomial_matrices(), *guess_shaped_matrices(), *self.closure_matrices()]:
            equations = [[row[col] for row in rows] for col in range(len(rows[0]))]
            equations = [integer_primitive(eq) for eq in equations]
            bound = _minor_bound(equations, len(rows))
            stored = [entry for eq in equations for entry in eq]
            list(reference_null_vectors(rows, stored.append))
            assert all(abs(c) <= bound for entry in stored for c in entry)
            norms = [sum(abs(c) for e in eq for c in e) for eq in equations]
            by_row += bound < math.prod(sorted(norms, reverse=True)[: len(rows)])
        assert by_row >= 9

    def test_inexact_step_is_internal_error(self, monkeypatch):
        # one cell off by one in the first step (a division by 1) breaks the
        # minors, so a later division leaves a remainder, which the kernel
        # reports rather than rounds
        exact = divmod
        monkeypatch.setattr(linalg, "divmod", lambda a, b: exact(a + 1, b), raising=False)
        rows = [[[2], [3], [5]], [[7], [11], [13]], [[17], [19], [23]], [[1], [4], [9]]]
        with pytest.raises(InternalError, match="not exact"):
            list(null_vectors(rows))

    def test_back_substitution_remainder_is_internal_error(self, monkeypatch):
        # one equation (2, 3) takes one pivot and no elimination step, so
        # the only division is the back substitution x[0] = -(3 * 2) / 2;
        # one added to every dividend leaves it a remainder, which the
        # kernel reports rather than rounds
        exact = divmod
        monkeypatch.setattr(linalg, "divmod", lambda a, b: exact(a + 1, b), raising=False)
        with pytest.raises(InternalError, match="back substitution is not exact"):
            list(null_vectors([[[2]], [[3]]]))

    @staticmethod
    def over_denominators(rng):
        """Seeded rows p_t over denominators D_t of their own: products of
        random shifted leads, some of them one or negative constants, and
        the same rows over one common denominator, as a column scaling
        would build them (row t times lcm / D_t)."""
        for rows in seeded_polynomial_matrices():
            leads = [[rng.choice([-2, -1, 1, 3])]] + [
                [rng.randint(-3, 3), rng.randint(1, 2)] for _ in range(3)
            ]
            denominators = []
            for _ in rows:
                d = [1]
                for lead in rng.sample(leads, rng.randint(0, 2)):
                    d = schoolbook(d, lead)
                denominators.append(d)
            common = [1]
            for d in denominators:
                common = schoolbook(common, d)
            scaled = [
                [schoolbook(_zx_exact_div(common, d), e) for e in row]
                for row, d in zip(rows, denominators)
            ]
            yield rows, denominators, scaled

    def test_rescaled_vectors_against_the_reference(self):
        """Entry t of a vector of the rows p_t, times D_t, is a vector of
        the rows p_t / D_t: the kernel's rescaled vectors are those of the
        reference on the rows over one common denominator."""
        rng = random.Random(34)
        dimensions, scaled_entries = set(), 0
        for rows, denominators, scaled in self.over_denominators(rng):
            found = list(null_vectors(rows, denominators))
            assert found == list(reference_null_vectors(scaled)), (rows, denominators)
            dimensions.add(len(found))
            scaled_entries += sum(d != [1] for v in found for d in denominators[: len(v)])
        assert {0, 1, 2} <= dimensions, dimensions
        assert scaled_entries >= 40

    def test_rescaled_vector_unpacks_at_the_scaled_width(self):
        # the equation (1, 1): the vector is (-1, 1), rescaled to (-1, d);
        # the minors alone are bounded by 2, a width of 3 bits, and only the
        # scales' norm in the bound, 2 |d|_1, makes room for d
        for c in range(2, 70):
            for d in ([1, c], [-1, c], [c, 1], [0, 0, c]):
                assert list(null_vectors([[[1]], [[1]]], [[1], d])) == [[[-1], d]]


class TestOneEquationKernel:
    """A one-equation matrix skips the elimination: its vectors, every
    one of them, against the reference, with zero entries before, between
    and after the pivot, and with rows over denominators of their own."""

    @staticmethod
    def one_equation_rows(rng):
        for _ in range(120):
            entries = []
            for _ in range(rng.randint(1, 5)):
                if rng.random() < 0.3:
                    entries.append([])
                else:
                    entries.append([rng.randint(-9, 9) for _ in range(rng.randint(0, 2))] + [rng.choice([-3, -1, 1, 2, 6])])
            yield [[e] for e in entries]

    def test_vectors_against_the_reference(self):
        rng = random.Random(35)
        shapes = set()
        for rows in self.one_equation_rows(rng):
            found = list(null_vectors(rows))
            assert found == list(reference_null_vectors(rows)), rows
            shapes.add((len(rows), next((t for t, row in enumerate(rows) if row[0]), None)))
        # pivots first, inside and last, and zero equations
        assert {(5, 0), (5, 3), (4, 3), (2, None)} <= shapes

    def test_rescaled_vectors_against_the_reference(self):
        rng = random.Random(36)
        for rows in self.one_equation_rows(rng):
            denominators = [rng.choice([[1], [1], [-2], [1, 1], [-1, 3]]) for _ in rows]
            common = [1]
            for d in denominators:
                common = schoolbook(common, d)
            scaled = [[schoolbook(_zx_exact_div(common, d), row[0])] for row, d in zip(rows, denominators)]
            found = list(null_vectors(rows, denominators))
            assert found == list(reference_null_vectors(scaled)), (rows, denominators)

    def test_later_back_substitution_remainder_is_internal_error(self, monkeypatch):
        # the pivot is the second entry, and the first vector, at the third
        # column, divides -(5 * 3) by 3
        exact = divmod
        monkeypatch.setattr(linalg, "divmod", lambda a, b: exact(a + 1, b), raising=False)
        vectors = null_vectors([[[]], [[3]], [[5]]])
        assert next(vectors) == [[1]]
        with pytest.raises(InternalError, match="back substitution is not exact"):
            next(vectors)


class TestRowsOverOwnDenominators:
    """The closures over constants and polynomials in n, whose rows sit over
    their own denominators and whose kernel rescales its vector, against
    the rows all over the last row's denominator (each column times one
    polynomial) run through ``reference_null_vectors``: the same operator,
    initials, validity offset and start."""

    @staticmethod
    def column_scaled(kind, op_a, op_b=None, mult=1, rows=None):
        """The matrix as a column scaling builds it, from the shift
        representation's numerators p_t and shifted leads alone: row t of
        each operand is p_t times D_last / D_t, the leads L_(t-r+1) ...
        L_(last-r), so every column is over the last row's denominator;
        a partial sum's first column is one."""
        from ansatzkit.closure import _RingShiftRep

        def over_last(op, mult, shifts):
            rep = _RingShiftRep(op, mult)
            rep.vectors(shifts)
            out, scale, j = [], [1], shifts[-1] - rep.order
            for t in reversed(shifts):
                while j > t - rep.order and j >= 0:
                    scale = schoolbook(scale, rep.leads[j])
                    j -= 1
                out.append([schoolbook(scale, p) for p in rep.numerators[t]])
            return out[::-1]

        if kind == SUBSEQUENCE:
            return over_last(op_a, mult, [mult * t for t in range(rows)])
        u = over_last(op_a, 1, list(range(rows)))
        if kind == PARTIAL_SUM:
            matrix, acc = [], [[]] * op_a.order
            for t, vec in enumerate(u):
                acc = [_add(x, y) for x, y in zip(acc, vec)] if t else acc
                matrix.append([[1]] + acc)
            return matrix
        w = over_last(op_b, 1, list(range(rows)))
        if kind == ADD:
            return [x + y for x, y in zip(u, w)]
        return [[schoolbook(p, q) for p in x for q in y] for x, y in zip(u, w)]

    def reference_combine(self, monkeypatch, kind, sys_a, sys_b, mult):
        """``combine`` with the column-scaled matrix and the reference
        kernel in place of the rows over their own denominators and the
        ring kernel."""

        def column_scaled(*args, **kwargs):
            return self.column_scaled(*args, **kwargs), None

        def reference_vector(rows, scales=None):
            assert scales is None
            return next(reference_null_vectors(rows), None)

        with monkeypatch.context() as patch:
            patch.setattr(closure_module, "combination_matrix", column_scaled)
            patch.setattr(closure_module, "least_null_vector", reference_vector)
            return closure_module.combine(kind, sys_a, sys_b, mult=mult)

    @staticmethod
    def operand(rng, ring):
        """A seeded system of order 1 or 2: low coefficients that are
        sometimes zero, and over polynomials a lead with a natural root
        half the time, so the system holds from one past it."""
        order = rng.randint(1, 2)
        if ring is CoeffRing.CONSTANT:
            low = [F(rng.choice([0, rng.randint(-4, 4)]), rng.randint(1, 3)) for _ in range(order)]
            coeffs, validity = low + [F(rng.choice([-2, 1, 3]), rng.randint(1, 2))], 0
        else:
            low = [Poly([F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(rng.randint(0, 2))])
                   for _ in range(order)]
            root = rng.randint(0, 3)
            lead = [-root, 1] if rng.random() < 0.5 else [rng.randint(1, 4), rng.randint(1, 2)]
            coeffs, validity = low + [Poly(lead)], (root + 1 if lead[0] == -root else 0)
        initials = [rng.randint(-5, 5) for _ in range(validity + order)]
        return RecurrenceSystem(ShiftOperator(ring, coeffs), initials, validity)

    def test_closures_against_column_scaled_rows(self, monkeypatch):
        rng = random.Random(2034)
        seen = {"zero coefficient": 0, "natural root": 0, "rescaled": 0}
        kinds = set()
        for _ in range(30):
            for ring in (CoeffRing.CONSTANT, CoeffRing.POLY_N):
                a, b = self.operand(rng, ring), self.operand(rng, ring)
                for kind, other, mult in [(ADD, b, 1), (TERMWISE, b, 1), (PARTIAL_SUM, None, 1),
                                          (SUBSEQUENCE, None, 2), (SUBSEQUENCE, None, 3)]:
                    found = closure_module.combine(kind, a, other, mult=mult)
                    expected = self.reference_combine(monkeypatch, kind, a, other, mult)
                    assert found.operator == expected.operator, (kind, a, other, mult)
                    assert found.initials == expected.initials
                    assert found.validity_offset == expected.validity_offset
                    assert found.offset == expected.offset
                    _, denominators = combination_matrix(kind, a.operator, other and other.operator, mult=mult)
                    seen["rescaled"] += denominators is not None
                    kinds.add((ring, kind, mult))
                operators = [a.operator, b.operator]
                seen["zero coefficient"] += any(not c for op in operators for c in op.coeffs)
                seen["natural root"] += a.validity_offset > 0 or b.validity_offset > 0
        assert len(kinds) == 10
        assert min(seen.values()) >= 20, seen


class TestPackedPrimitiveVector:
    """``null_vectors`` makes each vector primitive on its packed entries;
    ``_primitive_vector`` on the unpacked entries, and the gcds over Q of
    ``reference_primitive``, are the references."""

    @staticmethod
    def seeded_vectors():
        """Vectors of 1 to 6 integer polynomials with a nonzero last entry,
        packed at a width that holds their coefficients: most with a
        planted common factor and integer content, with zero entries and a
        negative last entry, and widths from the least one for their
        largest coefficient up."""
        rng = random.Random(4242)

        def poly(degree, bits):
            return [rng.randint(-(2**bits), 2**bits) for _ in range(degree)] + [
                rng.choice([-1, 1]) * rng.randint(1, 2**bits)
            ]

        for index in range(400):
            bits = rng.choice([1, 2, 3, 8, 30])
            shared = poly(rng.randint(1, 3), bits) if index % 4 else [1]
            content = rng.choice([1, 1, 2, 6, -3, 35])
            entries = [
                [content * c for c in _zx_mul(shared, poly(rng.randint(0, 3), bits))]
                if rng.random() < 0.75 or last == 0 else []
                for last in range(rng.randint(1, 6) - 1, -1, -1)
            ]
            top = max(abs(c) for e in entries for c in e)
            bound = rng.choice([top, 2 ** top.bit_length() - 1, 3 * top])
            yield entries, _zx_width(bound)

    def test_matches_the_unpacked_primitive_vector(self, monkeypatch):
        """Both paths give the reference's vector.  At the least width the
        norm check has no slack and about half the vectors fall back; with
        a bit or two to spare, as the kernel's minor bounds leave, almost
        none do."""
        fallbacks = []
        unpacked = _primitive_vector
        monkeypatch.setattr(linalg, "_primitive_vector", lambda v: fallbacks.append(v) or unpacked(v))
        seen = {"planted": 0, "content": 0, "zero": 0, "negative": 0, "least width": 0}
        spare = {False: 0, True: 0}
        for entries, k in self.seeded_vectors():
            before = len(fallbacks)
            found = _packed_primitive_vector([_zx_pack(e, k) for e in entries], k)
            assert found == unpacked(entries) == reference_primitive(entries), (entries, k)
            if k >= _zx_width(3 * max(abs(c) for e in entries for c in e)):
                spare[len(fallbacks) > before] += 1
            nonzero = [e for e in entries if e]
            shared = Poly(nonzero[0])
            for e in nonzero[1:]:
                shared = poly_gcd(shared, Poly(e))
            seen["planted"] += shared.degree > 0
            seen["content"] += math.gcd(*[c for e in entries for c in e]) > 1
            seen["zero"] += len(nonzero) < len(entries)
            seen["negative"] += entries[-1][-1] < 0
            seen["least width"] += k == _zx_width(max(abs(c) for e in entries for c in e))
        assert min(seen.values()) >= 40, seen
        assert len(fallbacks) >= 40
        assert spare[True] <= spare[False] // 20, spare

    def test_unlucky_point_fails_the_norm_check(self, monkeypatch):
        # x^2 (x + 2) and x^2 (2x + 1)(x - 1) are 18 and 495 times 2**8 at
        # x = 2**4, whose gcd unpacks to x^2 (x - 7): it divides both packed
        # values, but the quotients 2 and 3x + 7 are too large next to its
        # 1-norm 8, so the unpacked entries decide
        fallbacks = []
        unpacked = _primitive_vector
        monkeypatch.setattr(linalg, "_primitive_vector", lambda v: fallbacks.append(v) or unpacked(v))
        entries, k = [[0, 0, 2, 1], [0, 0, -1, -1, 2]], 4
        assert _zx_unpack(math.gcd(*[_zx_pack(e, k) for e in entries]), k) == [0, 0, -7, 1]
        found = _packed_primitive_vector([_zx_pack(e, k) for e in entries], k)
        assert found == [[2, 1], [-1, -1, 2]]
        assert fallbacks == [entries]

    def test_remainder_falls_back(self, monkeypatch):
        # every packed division is exact; one made to leave a remainder
        # hands the vector to the unpacked entries instead of rounding
        exact = divmod
        monkeypatch.setattr(linalg, "divmod", lambda a, b: (exact(a, b)[0], 1), raising=False)
        for entries, k in self.seeded_vectors():
            found = _packed_primitive_vector([_zx_pack(e, k) for e in entries], k)
            assert found == _primitive_vector(entries)


class TestShortProducts:
    """``_zx_mul`` convolves short factors directly and packs longer ones;
    both sides of ``SHORT_PRODUCT`` agree with the Kronecker product."""

    @staticmethod
    def kronecker(a, b):
        """The product by packing alone, at the width ``_zx_mul`` takes."""
        if not a or not b:
            return []
        k = _zx_width(max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b)))
        return _zx_unpack(_zx_pack(a, k) * _zx_pack(b, k), k)

    def test_both_sides_of_the_cutoff_agree_with_packing(self):
        from ansatzkit import polynomials

        rng = random.Random(36)
        sides, kinds = {False: 0, True: 0}, {"zero": 0, "negative": 0, "big": 0}
        for _ in range(600):
            bits = rng.choice([1, 3, 30, 64, 300])

            def poly(length):
                coeffs = [rng.choice([0, rng.randint(-(2**bits), 2**bits)]) for _ in range(length - 1)]
                return coeffs + [rng.choice([-1, 1]) * rng.randint(1, 2**bits)] if length else []

            a, b = poly(rng.randint(0, 14)), poly(rng.randint(0, 14))
            found = _zx_mul(a, b)
            assert found == self.kronecker(a, b) == schoolbook(a, b), (a, b)
            assert not found or found[-1], found  # no trailing zeros
            assert len(found) == (len(a) + len(b) - 1 if a and b else 0)
            sides[len(a) * len(b) <= polynomials.SHORT_PRODUCT and min(len(a), len(b)) > 1] += 1
            kinds["zero"] += 0 in a[:-1] or 0 in b[:-1] or not a or not b
            kinds["negative"] += any(c < 0 for c in a + b)
            kinds["big"] += bits == 300
        assert min(sides.values()) >= 150, sides
        assert min(kinds.values()) >= 100, kinds


class TestModularIndependence:
    def test_independent_rows(self):
        assert rank_profile_mod_p([[1, 2, 3], [0, 1, 4]]) is None
        assert rank_profile_mod_p([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) is None

    def test_dependent_rows(self):
        # the equations (columns) that raise the rank, in order, and the
        # first row that depends on the rows before it, as residues
        assert rank_profile_mod_p([[1, 2, 3], [2, 4, 6]]) == ([0], [PRIME - 2, 1])
        assert rank_profile_mod_p([[1, 2], [3, 4], [5, 6]]) == ([0, 1], [1, PRIME - 2, 1])
        assert rank_profile_mod_p([[0, 0, 0]]) == ([], [1])
        assert rank_profile_mod_p([[0, 1, 1], [0, 2, 3], [0, 3, 4]]) == (
            [1, 2],
            [PRIME - 1, PRIME - 1, 1],
        )
        # a pivot row after the dependent one is not part of its relation
        assert rank_profile_mod_p([[1, 0], [2, 0], [0, 1]]) == ([0, 1], [PRIME - 2, 1])
        # independent over Q, dependent mod p: the test only ever says "independent"
        assert rank_profile_mod_p([[1, 1], [1, 1 + PRIME]]) == ([0], [PRIME - 1, 1])

    def test_prime_is_one_digit(self):
        # every residue, and so every pivot and factor, is one CPython digit
        assert PRIME < 2**sys.int_info.bits_per_digit
        assert all(PRIME % d for d in range(2, isqrt(2**30) + 1))

    def test_largest_residues(self):
        # PRIME - 1 is -1 mod p: its products are the largest ones reduced
        top = PRIME - 1
        assert rank_profile_mod_p([[top]]) is None
        assert rank_profile_mod_p([[top] * 4 for _ in range(3)]) == ([0], [PRIME - 1, 1])

    def test_agrees_with_exact_rank(self):
        rng = random.Random(11)
        for _ in range(60):
            n_rows, n_cols = rng.randint(1, 5), rng.randint(1, 6)
            rows = [[rng.randint(-2, 2) for _ in range(n_cols)] for _ in range(n_rows)]
            exact = rank(frac_rows(rows), QFIELD)
            profile = rank_profile_mod_p([[x % PRIME for x in row] for row in rows])
            assert (profile is None) == (exact == n_rows)
            if profile is not None:
                picks, relation = profile
                # the relation is a left null vector mod p of every equation
                for column in zip(*rows):
                    assert sum(map(operator.mul, relation, column)) % PRIME == 0
                # the picked equations keep the left null space of all of them
                assert len(picks) == exact
                picked = [[row[c] for c in picks] for row in rows]
                assert left_null_space(frac_rows(picked), QFIELD) == left_null_space(
                    frac_rows(rows), QFIELD
                )


    def test_matches_the_right_looking_reference(self):
        rng = random.Random(2803)
        seen = {"none": 0, "stall": 0, "short": 0, "single": 0, "top": 0, "zero": 0, "after": 0}
        for _ in range(2400):
            rows = modular_profile_case(rng)
            picks = reference_rank_profile_mod_p(rows)
            if picks is None:
                assert rank_profile_mod_p(rows) is None
            else:
                relation = reference_first_relation(rows)
                assert rank_profile_mod_p(rows) == (picks, relation)
                # pivot rows after the dependent one
                seen["after"] += len(picks) > len(relation) - 1
            seen["none"] += picks is None
            seen["stall"] += picks is not None and 0 < len(picks) and picks[-1] >= len(picks)
            seen["short"] += len(rows[0]) < len(rows)
            seen["single"] += len(rows) == 1
            seen["top"] += any(x == PRIME - 1 for row in rows for x in row)
            seen["zero"] += any(not any(x % PRIME for x in column) for column in zip(*rows))
        assert min(seen.values()) >= 100, seen

    def test_a_fit_reads_few_single_entries(self):
        # 4 unknowns with one relation over 2000 equations: three picks and
        # one stall read single entries, the scan after it reads slices
        rng = random.Random(5)
        reads = [0]

        class CountingRow(list):
            def __getitem__(self, key):
                reads[0] += isinstance(key, int)
                return super().__getitem__(key)

        base = [[rng.randrange(PRIME) for _ in range(2000)] for _ in range(3)]
        last = [(2 * a + 3 * b + 5 * c) % PRIME for a, b, c in zip(*base)]
        rows = [CountingRow(row) for row in base + [last]]
        assert rank_profile_mod_p(rows) == ([0, 1, 2], [PRIME - 2, PRIME - 3, PRIME - 5, 1])
        assert reads[0] <= 2 * 4**2
        # a rise late in the scan resumes the elimination there
        rows[3][1500] = (rows[3][1500] + 1) % PRIME
        reads[0] = 0
        assert rank_profile_mod_p(rows) is None
        assert reads[0] <= 4 * 4**2


def reference_rank_profile_mod_p(rows):
    """The right-looking Gauss-Jordan rank profile: every kept equation is
    stored reduced at the rows without a pivot, and each pick updates them
    all; read one equation at a time."""
    pivots, rest, picks = [], [(t, []) for t in range(len(rows))], []
    for index in range(len(rows[0])):
        factors = [rows[p][index] for p in pivots]
        values = [
            (rows[t][index] - sum(map(operator.mul, factors, kept))) % PRIME for t, kept in rest
        ]
        first = next((i for i, a in enumerate(values) if a), None)
        if first is None:
            continue
        inverse = pow(values.pop(first), -1, PRIME)
        pivot, at_pivot = rest.pop(first)
        for (_, kept), value in zip(rest, values):
            value = value * inverse % PRIME
            if value:
                kept[:] = [(a - b * value) % PRIME for a, b in zip(kept, at_pivot)]
            kept.append(value)
        pivots.append(pivot)
        picks.append(index)
        if len(picks) == len(rows):
            return None
    return picks


def reference_first_relation(rows):
    """The first row mod PRIME that is a combination of the rows before it,
    as the left null vector that ends in one there: each row is reduced by
    an echelon basis of the rows before it, with its combination of them."""
    basis = []  # (reduced row, its combination of the rows, its pivot column)
    for t, row in enumerate(rows):
        reduced, combination = [x % PRIME for x in row], [0] * t + [1]
        for kept, kept_combination, col in basis:
            factor = reduced[col]
            if factor:
                reduced = [(a - factor * b) % PRIME for a, b in zip(reduced, kept)]
                combination = [
                    (a - factor * b) % PRIME
                    for a, b in zip_longest(combination, kept_combination, fillvalue=0)
                ]
        col = next((c for c, x in enumerate(reduced) if x), None)
        if col is None:
            return combination
        inverse = pow(reduced[col], -1, PRIME)
        basis.append(
            ([x * inverse % PRIME for x in reduced], [x * inverse % PRIME for x in combination], col)
        )
    return None


def modular_profile_case(rng):
    """Residue rows, k <= 10 by up to 60 equations, of column rank at most
    a chosen r: each equation is zero, a combination of the earlier ones
    (a stall) or a new combination of r random columns, in runs.  Entries
    are pushed to PRIME - 1, or left unreduced or negative."""
    k = rng.choice([1, 2, 3, 4, 5, 6, 8, 10])
    n_cols = rng.randint(1, 60)
    r = k if rng.random() < 0.2 else max(k - rng.randint(1, 3), 0)
    top = rng.random() < 0.2

    def draw():
        # sums of +-1 are often PRIME - 1, whose products are the largest
        if top:
            return rng.choice([0, 1, PRIME - 1])
        return rng.randrange(PRIME) if rng.random() < 0.8 else 0

    basis = [[draw() for _ in range(r)] for _ in range(k)]
    columns, kind = [], "new"
    for _ in range(n_cols):
        if rng.random() < 0.3:
            kind = rng.choice(["new", "new", "zero", "stall"])
        coeffs = [0] * r
        if kind == "stall" and columns:
            for earlier in rng.sample(columns, min(len(columns), 3)):
                scale = draw()
                coeffs = [(c + scale * e) % PRIME for c, e in zip(coeffs, earlier)]
        elif kind != "zero":
            coeffs = [draw() for _ in range(r)]
        columns.append(coeffs)
    rows = [[sum(map(operator.mul, b, c)) % PRIME for c in columns] for b in basis]
    for row in rows:
        for j, x in enumerate(row):
            roll = rng.random()
            if roll < 0.05:
                row[j] = x - PRIME * rng.randint(1, 3)
            elif roll < 0.1:
                row[j] = x + PRIME * rng.randint(1, 10**6)
    return rows


class TestExactDivision:
    def test_exact_quotient(self):
        n = Poly([0, 1], QQ, "n")
        assert (n * n - 1).exact_div(n + 1) == n - 1

    def test_remainder_is_internal_error(self):
        n = Poly([0, 1], QQ, "n")
        with pytest.raises(InternalError):
            (n * n + 1).exact_div(n + 1)


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


def divisor_pair_roots(p):
    """Reference root search: every candidate u/v with u | c_0 and v | c_d,
    in ascending order, tested by Horner over Fraction and divided out as
    often as it is a root."""

    def divisors(k):
        k = abs(k)
        return {d for j in range(1, isqrt(k) + 1) if not k % j for d in (j, k // j)}

    work, roots = p.monic(), []
    zeros = 0
    while work.degree > 0 and not work.coefficient(0):
        work, zeros = work.spawn(work.coeffs[1:]), zeros + 1
    if zeros:
        roots.append((F(0), zeros))
    scale = lcm(*(c.denominator for c in work.coeffs))
    low, high = int(work.coeffs[0] * scale), int(work.coeffs[-1] * scale)
    candidates = {
        sign * F(u, v) for u in divisors(low) for v in divisors(high) for sign in (1, -1)
    }
    for candidate in sorted(candidates):
        multiplicity = 0
        while work.degree > 0 and not work.evaluate(candidate):
            work = work.exact_div(Poly([-candidate, 1], QQ, work.var))
            multiplicity += 1
        if multiplicity:
            roots.append((candidate, multiplicity))
    return roots, work.monic()


class TestRationalRoots:
    # no rational roots; each is irreducible over Q
    IRREDUCIBLE = ([1, 0, 1], [-2, 0, 1], [3, 1, 2], [-2, 0, 0, 1], [1, 1, 0, 1], [5, -1, 0, 3])

    def random_poly(self, rng):
        p = Poly([F(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 3))], QQ, "N")
        for _ in range(rng.randint(0, 4)):
            kind = rng.random()
            if kind < 0.5:  # integer or rational non-integer root
                factor = [rng.randint(-12, 12), rng.randint(1, 4)]
            elif kind < 0.6:
                factor = [0, 1]
            elif kind < 0.8:
                factor = rng.choice(self.IRREDUCIBLE)
            else:
                factor = [rng.randint(-6, 6) for _ in range(rng.randint(2, 3))] + [rng.randint(1, 4)]
            p = p * Poly(factor, QQ, "N") ** rng.choice([1, 1, 1, 2, 3])
        return p

    def test_matches_divisor_pair_reference(self):
        rng = random.Random(2024)
        seen = {"fraction": 0, "zero": 0, "repeated": 0, "quadratic": 0, "cubic": 0}
        for _ in range(600):
            p = self.random_poly(rng)
            roots, cofactor = rational_roots(p)
            expected_roots, expected_cofactor = divisor_pair_roots(p)
            assert roots == expected_roots, p
            assert cofactor == expected_cofactor and cofactor.var == "N", p
            naturals = [int(r) for r, _ in roots if r >= 0 and r.denominator == 1]
            assert largest_natural_root(p) == max(naturals, default=None)
            seen["fraction"] += any(r.denominator > 1 for r, _ in roots)
            seen["zero"] += any(not r for r, _ in roots)
            seen["repeated"] += any(m > 1 for _, m in roots)
            seen["quadratic"] += cofactor.degree == 2
            seen["cubic"] += cofactor.degree == 3
        assert min(seen.values()) >= 20, seen

    def test_prime_search_moves_on(self):
        # 1 and 31 coincide mod 2, 3 and 5, so the search moves on to 7; 2
        # and 3 divide the leading coefficient of (6n-1)(n-4), so it moves
        # on to 5.  1 and 16 coincide mod 3 and 5, and 3 divides the leading
        # coefficient of (3n-1)(n-4); the prime 2 serves both.
        n = Poly([0, 1], QQ, "n")
        cases = {
            (1, 16): (n - 1) * (n - 16),
            (1, 31): (n - 1) * (n - 31),
            (F(1, 3), 4): (3 * n - 1) * (n - 4),
            (F(1, 6), 4): (6 * n - 1) * (n - 4),
        }
        for (low, high), p in cases.items():
            assert rational_roots(p) == ([(F(low), 1), (F(high), 1)], Poly([1], QQ, "n"))

    def test_eleven_digit_roots(self):
        # the divisor-pair search factors a 67-bit constant term
        p = Poly([100000000520000000627, -20000000052, 1], QQ, "N")
        roots, cofactor = rational_roots(p)
        assert roots == [(F(10000000019), 1), (F(10000000033), 1)]
        assert cofactor.degree == 0

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


def reference_largest_natural_root(f):
    """The largest natural root of a nonzero integer polynomial as the
    p-adic search alone decides it, for every bound."""
    roots = _zx_roots(f)[0]
    naturals = [r for r, _ in roots if r >= 0 and r.denominator == 1]
    return int(max(naturals)) if naturals else None


class TestNaturalRoots:
    """``largest_natural_root`` decides by the sign bound and scans up to
    ``SCAN_LIMIT``; the p-adic search is the reference."""

    @staticmethod
    def sign_bound(f):
        g = [c for c in f if c] if f[-1] > 0 else [-c for c in f if c]
        return -sum(c for c in g if c < 0) // g[-1]

    @staticmethod
    def random_poly(rng):
        f = [rng.choice([-1, 1]) * rng.randint(1, 6)]
        for _ in range(rng.randint(0, 4)):
            kind = rng.random()
            if kind < 0.15:
                factor = [0, 1]
            elif kind < 0.5:  # a natural root, around the scan limit too
                factor = [-rng.choice([1, rng.randint(1, 2 * SCAN_LIMIT + 4)]), 1]
            elif kind < 0.65:
                factor = [rng.randint(1, 30), 1]
            elif kind < 0.8:  # a rational non-integer root
                v = rng.randint(2, 4)
                factor = [-rng.choice([u for u in range(1, 40) if gcd(u, v) == 1]), v]
            else:
                factor = [rng.randint(-9, 9) for _ in range(rng.randint(2, 3))] + [rng.randint(1, 4)]
            for _ in range(rng.choice([1, 1, 1, 2, 3])):  # repeated roots too
                f = _zx_mul(f, factor)
        return f

    def test_seeded_integer_polynomials(self):
        rng = random.Random(8128)
        seen = {"zeros": 0, "negative lead": 0, "one": 0, "at bound": 0, "repeated": 0,
                "fraction": 0, "searched": 0, "scanned": 0, "none": 0}
        for _ in range(1500):
            f = self.random_poly(rng)
            expected = reference_largest_natural_root(f)
            assert _zx_largest_natural_root(f) == expected, f
            roots = _zx_roots(f)[0]
            seen["zeros"] += any(not r and m > 1 for r, m in roots)
            seen["negative lead"] += f[-1] < 0
            seen["one"] += expected == 1
            seen["at bound"] += expected is not None and expected == self.sign_bound(f) > 0
            seen["repeated"] += any(m > 1 and r > 0 for r, m in roots)
            seen["fraction"] += any(r.denominator > 1 for r, _ in roots)
            seen["searched"] += self.sign_bound(f) > SCAN_LIMIT
            seen["scanned"] += 0 < self.sign_bound(f) <= SCAN_LIMIT
            seen["none"] += expected is None
        assert min(seen.values()) >= 20, seen

    def test_seeded_rational_polynomials(self):
        rng = random.Random(496)
        for _ in range(600):
            p = Poly([F(1, rng.randint(1, 6))], QQ, "n") * Poly(self.random_poly(rng), QQ, "n")
            p = p.scale(F(rng.choice([-1, 1]) * rng.randint(1, 7), rng.randint(1, 9)))
            assert largest_natural_root(p) == reference_largest_natural_root(
                _zx_cleared([p.coeffs])[0]
            ), p

    @pytest.mark.parametrize(
        "factors, expected",
        [
            ([[-1, 1]], 1),  # a root at 1, at the bound 1
            ([[-5, 5]], 1),
            ([[0, 1], [0, 1], [0, 1]], 0),  # the zero root, thrice
            ([[0, 1], [0, 1], [-3, 2]], 0),
            ([[0, 1], [-4, 1], [-4, 1]], 4),
            ([[-3, 1], [-3, 1], [-5, 1], [-5, 1], [-5, 1]], 5),  # repeated roots
            ([[-5, 2], [-1, 3]], None),  # rational roots only
            ([[-SCAN_LIMIT, 1]], SCAN_LIMIT),  # the root at the bound, scanned
            ([[-SCAN_LIMIT - 1, 1]], SCAN_LIMIT + 1),  # just above: searched
            ([[-2 * SCAN_LIMIT - 1, 2]], None),  # bound SCAN_LIMIT, root SCAN_LIMIT + 1/2
            ([[-2 * SCAN_LIMIT - 3, 2]], None),  # bound SCAN_LIMIT + 1: searched
            ([[-SCAN_LIMIT, 1], [1, 1]], SCAN_LIMIT),  # bound 2 SCAN_LIMIT - 1: searched
            ([[-20000, 1], [3, 1]], 20000),
            ([[0, 1], [-20000, 1], [-20000, 1], [7, 0, 1]], 20000),
            ([[1, 1], [2, 0, 1]], None),  # no sign change
            ([[0, 1], [1, 1], [2, 1]], 0),
        ],
    )
    def test_edges(self, monkeypatch, factors, expected):
        from ansatzkit import polynomials

        searches = []
        search = polynomials._zx_roots
        monkeypatch.setattr(polynomials, "_zx_roots", lambda f: searches.append(f) or search(f))
        f = [1]
        for factor in factors:
            f = _zx_mul(f, factor)
        for sign in (1, -1):
            g = [sign * c for c in f]
            assert reference_largest_natural_root(g) == expected
            searches.clear()
            assert _zx_largest_natural_root(g) == expected
            assert len(searches) == (self.sign_bound(g) > SCAN_LIMIT)

    def test_validity_offset_of_random_operators(self):
        rng = random.Random(1729)
        for _ in range(300):
            lead = Poly(self.random_poly(rng), QQ, "n").scale(F(rng.randint(1, 5), rng.randint(1, 5)))
            low = [Poly([F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(3)], QQ, "n")]
            op = ShiftOperator(CoeffRing.POLY_N, low + [lead])
            root = reference_largest_natural_root(_zx_cleared([lead.coeffs])[0])
            assert leading_validity_offset(op) == (0 if root is None else root + 1)

    def test_closure_validity_on_the_integer_lead(self):
        # the closures decide on the kernel's integer vector; the reference
        # decides on the public operator's leading coefficient
        from conftest import random_holonomic

        from ansatzkit.closure import ADD, SUBSEQUENCE, _closure

        def operand(rng):
            # a leading coefficient with a natural root, so the results have some
            op = random_holonomic(rng, max_order=2).operator
            lead = op.leading * Poly([-rng.randint(0, 20), 1], QQ, "n")
            return ShiftOperator(CoeffRing.POLY_N, [*op.coeffs[:-1], lead])

        rng = random.Random(99)
        validities = []
        for _ in range(25):
            a, b = operand(rng), operand(rng)
            for operator, validity in (_closure(ADD, a, b), _closure(SUBSEQUENCE, a, mult=2)):
                lead = _zx_cleared([operator.leading.coeffs])[0]
                root = reference_largest_natural_root(lead)
                assert validity == (0 if root is None else root + 1)
                validities.append(validity)
        assert sum(v > 1 for v in validities) >= 20


def reference_newton_poly(diffs, start=0):
    """``newton_poly`` as it was: one ``Fraction`` Poly product per degree,
    by Horner's rule on C(m, j + 1) = C(m, j) (m - j) / (j + 1)."""
    result = Poly([], QQ, "n")
    for j in range(len(diffs) - 1, -1, -1):
        step = Poly([F(-start - j, j + 1), F(1, j + 1)], QQ, "n")
        result = result * step + diffs[j]
    return result


def _assert_same_poly(fast, full):
    assert fast.coeffs == full.coeffs
    assert [type(c) for c in fast.coeffs] == [type(c) for c in full.coeffs]
    assert fast.domain is full.domain and fast.var == full.var


class TestNewtonLayer:
    def test_matches_the_fraction_horner(self):
        rng = random.Random(2906)
        draws = [
            lambda: rng.randint(-99, 99),
            lambda: F(rng.randint(-(10**6), 10**6), rng.randint(1, 10**4)),
            lambda: rng.choice([0, 0, 1, -1, F(1, 3), F(-7, 2)]),
        ]
        for trial in range(1500):
            draw = draws[trial % 3]
            diffs = [draw() for _ in range(rng.randint(0, 10))]
            if diffs and rng.random() < 0.2:
                diffs[-1] = 0  # a top coefficient that vanishes
            start = rng.randint(-20, 20)
            if trial % 2:
                diffs = tuple(diffs)  # as a BinomialForm holds them
            _assert_same_poly(newton_poly(diffs, start), reference_newton_poly(diffs, start))

    def test_callers_build_the_same_polynomials(self, monkeypatch):
        """The polynomial guesser, the partial-sum and Cauchy closures of
        polynomials and the binomial form, against the reference body."""
        from ansatzkit import closedform, closure, guess

        rng = random.Random(2907)
        polys = [
            Poly([F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(1, 5))], QQ, "n")
            for _ in range(30)
        ]

        def results():
            out = []
            for i, p in enumerate(polys):
                offset = i % 4
                sequence = Sequence([p.evaluate(F(n)) for n in range(offset, offset + 12)], offset)
                report = guess_polynomial(sequence, 6)
                out.append(report.poly)
                out.append(poly_binomial_form(sequence, max(p.degree, 0)).poly)
                out.append(poly_closure(PARTIAL_SUM, p))
                out.append(poly_closure(CAUCHY, p, polys[i - 1]))
            return out

        fast = results()
        for module in (closedform, closure, guess):
            monkeypatch.setattr(module, "newton_poly", reference_newton_poly)
        full = results()
        assert len(fast) == len(full) == 120
        for a, b in zip(fast, full):
            _assert_same_poly(a, b)

    def test_differences_of_a_cubic(self):
        assert forward_differences([n**3 for n in range(5)]) == [0, 1, 6, 6, 0]
        assert forward_differences([]) == []

    def test_newton_form_reproduces_values(self):
        rng = random.Random(8)
        for _ in range(60):
            values = [F(rng.randint(-20, 20), rng.randint(1, 3)) for _ in range(rng.randint(0, 8))]
            start = rng.randint(-3, 3)
            poly = newton_poly(forward_differences(values), start)
            assert poly.var == "n" and poly.domain == QQ
            assert not poly or poly.degree < len(values)
            assert [poly.evaluate(F(start + i)) for i in range(len(values))] == values

    def test_polynomial_paths_run_no_elimination(self, monkeypatch):
        calls = []
        eliminate = linalg._eliminate

        def counted(*args, **kwargs):
            calls.append(args)
            return eliminate(*args, **kwargs)

        monkeypatch.setattr(linalg, "_eliminate", counted)
        squares = Sequence([n * n for n in range(2, 12)], 2)
        assert guess_polynomial(squares, 4).shape == ("polynomial", 3, 2)
        assert guess_polynomial(Sequence([2**n for n in range(12)]), 6).result is None
        a, b = Poly([1, 2, 3], QQ, "n"), Poly([F(1, 2), 0, 0, 1], QQ, "n")
        assert poly_closure(PARTIAL_SUM, a).degree == 3
        assert poly_closure(CAUCHY, a, b).degree == 6
        assert poly_binomial_form(squares, 2).coeffs == (4, 5, 2)
        assert falling_basis_constants.__wrapped__(5, 3)[-1] == 1
        assert calls == []
        # the counter sees the field kernel's entry points
        assert solve_linear([[F(2)]], [F(1)], QFIELD) == [F(1, 2)]
        assert len(calls) == 1


class TestNumberField:
    # t^2 - t - 1, t^2 + 1, t^2 - 2, t^2 + t + 1: c1 = 0 and c1 != 0, c0 of both signs
    MODULI = ([-1, -1, 1], [1, 0, 1], [-2, 0, 1], [1, 1, 1])

    def test_inverse_roundtrip(self):
        for modulus in self.MODULI:
            field = NumberField(modulus)
            minpoly = Poly(modulus, QQ, "t")
            rng = random.Random(3)
            previous = field.generator()
            for _ in range(40):
                element = field.element(
                    [F(rng.randint(-5, 5)), F(rng.randint(-5, 5))]
                )
                # reference product: multiply the coordinate polynomials and reduce
                reference = (
                    Poly(element.coords, QQ, "t") * Poly(previous.coords, QQ, "t")
                ) % minpoly
                assert element * previous == field.element(reference.coeffs)
                previous = element
                if not element:
                    continue
                assert element * element.inverse() == field.one
                assert element ** -3 == element.inverse() ** 3

    def test_modulus_brackets_and_comparison(self):
        # the real fields embed t as the larger root of the modulus
        rng = random.Random(11)
        for modulus in self.MODULI:
            field = NumberField(modulus)
            c0, c1 = modulus[0], modulus[1]
            root = complex(-c1, 0) / 2 + (complex(c1 * c1 - 4 * c0) ** 0.5) / 2
            values = []
            for _ in range(30):
                coords = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(2)]
                element = field.element(coords)
                if not element:
                    continue
                size = abs(float(coords[0]) + float(coords[1]) * root)
                for bits in (4, 16, 40):
                    low, high = element.abs_bounds(bits)
                    assert low <= high
                    assert float(low) <= size * (1 + 1e-12) and size <= float(high) * (1 + 1e-12)
                    assert high - low <= F(2, 2 ** bits) * (1 + abs(coords[1]))
                values.append((element, size))
            for a, size_a in values:
                for b, size_b in values:
                    sign = compare_modulus(a, b)
                    if abs(size_a - size_b) > 1e-9:
                        assert sign == (1 if size_a > size_b else -1)
                    elif a == b or a == -b:
                        assert sign == 0

    def test_reducible_modulus_rejected(self):
        # t^2 - 1, t^2 - 4 have rational roots; (t^2 + 1)(t^2 + 2) has none
        # and is square-free
        for modulus in ([-1, 0, 1], [-4, 0, 1], [2, 0, 3, 0, 1]):
            with pytest.raises(UnsupportedField):
                NumberField(modulus)

    def test_square_modulus_rejected(self):
        for modulus in ([0, 0, 1], [1, 2, 1]):  # t^2, (t + 1)^2 are not square-free
            with pytest.raises(UnsupportedField):
                NumberField(modulus)

    def test_cubic_modulus_rejected(self):
        with pytest.raises(UnsupportedField):
            NumberField([-2, 0, 0, 1])  # t^3 - 2 is irreducible but unsupported

    def test_two_quadratic_fields_raise(self):
        golden = NumberField([-1, -1, 1]).generator()
        root2 = NumberField([-2, 0, 1]).generator()
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(UnsupportedField):
                op(golden, root2)
        for name in ("__radd__", "__rsub__", "__rmul__", "__rtruediv__"):
            with pytest.raises(UnsupportedField):
                getattr(golden, name)(root2)
        assert not golden == root2
        assert golden != root2
        # and the fields' polynomials, exponential polynomials and fractions
        gf, rf = golden.field, root2.field
        with pytest.raises(UnsupportedField):
            common_field(gf, rf)
        with pytest.raises(UnsupportedField):
            gf.coerce(root2)
        with pytest.raises(UnsupportedField):
            Poly([golden], gf) + Poly([root2], rf)
        a, b = ExpPoly.geometric(golden, gf), ExpPoly.geometric(root2, rf)
        for op in (operator.add, operator.mul):
            with pytest.raises(UnsupportedField):
                op(a, b)
            with pytest.raises(UnsupportedField):
                op(ExpPolyFraction.from_exppoly(a), ExpPolyFraction.from_exppoly(b))

    def test_rational_meets_quadratic_field(self):
        three = RATIONAL_FIELD.from_rational(3)
        golden = NumberField([-1, -1, 1]).generator()
        assert three + golden == golden + 3
        assert golden + three == golden + 3
        assert three - golden == 3 - golden
        assert three * golden == golden * 3
        assert three / golden == 3 / golden
        assert (three / golden) * golden == 3
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            assert op(three, golden).field == golden.field

    def test_hash_agrees_with_equality_across_fields(self):
        a = NumberField([-1, -1, 1]).from_rational(3)
        b = RATIONAL_FIELD.from_rational(3)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


class TestOneFieldPerModulus:
    """``NumberField`` returns one object per modulus on every construction
    path, so field equality is identity."""

    def test_every_construction_path_returns_the_registered_field(self):
        golden = NumberField([-1, -1, 1])
        document = jsonio.dumps(DiffEquation(golden, [(golden.generator(), [1, 1])]))
        paths = {
            "list": NumberField([F(-1), F(-1), F(1)]),
            "tuple": NumberField((-1, -1, 1)),
            "poly": NumberField(Poly([-1, -1, 1], QQ, "t")),
            "quadratic_field": quadratic_field(Poly([-2, -2, 2], QQ, "x")),
            "split_roots": split_roots(Poly([-1, -1, 1], QQ, "x"))[0],
            "jsonio.loads": jsonio.loads(document).field,
            "copy.copy": copy.copy(golden),
            "copy.deepcopy": copy.deepcopy(golden),
            "deepcopy of an element": copy.deepcopy(golden.generator()).field,
            "pickle": pickle.loads(pickle.dumps(golden)),
        }
        assert {name: field is golden for name, field in paths.items()} == dict.fromkeys(paths, True)
        assert copy.deepcopy(RATIONAL_FIELD) is RATIONAL_FIELD
        assert pickle.loads(pickle.dumps(QQ)) is QQ and copy.deepcopy(QQ) is QQ

    def test_polynomials_and_their_holders_copy_and_pickle(self):
        field = NumberField([-5, 0, 1])
        t = field.generator()
        values = {
            "Poly over QQ": Poly([1, 2]),
            "Poly over Q(sqrt 5)": Poly([t, 1 - t], field, "m"),
            "ExpPoly": ExpPoly.geometric(2, poly=Poly([1, 1], QQ, "n")),
            "ShiftOperator": ShiftOperator(CoeffRing.POLY_N, [Poly([1, 1]), Poly([-1])]),
            "RecurrenceSystem": corpus.catalan_system(),
        }
        ways = {
            "copy": copy.copy,
            "deepcopy": copy.deepcopy,
            "pickle": lambda value: pickle.loads(pickle.dumps(value)),
        }
        for name, value in values.items():
            for way, how in ways.items():
                assert how(value) == value, (name, way)
        for how in ways.values():
            poly = how(values["Poly over Q(sqrt 5)"])
            assert (poly.domain, poly.var) == (field, "m")
            assert all(c.field is field for c in poly.coeffs)
        assert pickle.loads(pickle.dumps(Poly([]))) == Poly([])

    def test_fields_and_domains_compare_by_identity(self):
        for cls in (NumberField, RationalDomain):
            assert "__eq__" not in vars(cls) and "__hash__" not in vars(cls)
        assert NumberField([-1, -1, 1]) != NumberField([-5, 0, 1])

    def test_threads_building_one_new_modulus_get_one_field(self):
        modulus = [F(-7919, 13), F(1, 17), 1]
        assert Poly(modulus, QQ, "t").coeffs not in fields_module._FIELDS
        barrier = threading.Barrier(8)
        built = []

        def build():
            barrier.wait()
            built.append(NumberField(modulus))

        threads = [threading.Thread(target=build) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(built) == 8
        assert len({id(field) for field in built}) == 1
        assert built[0] is NumberField(modulus)

    def test_invalid_moduli_raise_and_are_not_registered(self):
        registered = dict(fields_module._FIELDS)
        # non-monic, reducible, a square, cubic, constant
        for modulus in ([-1, -1, 2], [-1, 0, 1], [1, 2, 1], [-2, 0, 0, 1], [1]):
            for _ in range(2):
                with pytest.raises(UnsupportedField):
                    NumberField(modulus)
        assert fields_module._FIELDS == registered

    def test_one_zero_fraction_per_field_across_closures(self, monkeypatch):
        zeros = []
        zero = ExpPolyFraction.zero.__func__

        def recorded(cls, field):
            zeros.append(zero(cls, field))
            return zeros[-1]

        monkeypatch.setattr(ExpPolyFraction, "zero", classmethod(recorded))
        fib = register_coefficient(parse_recurrence_spec("cfinite:N^2-N-1;0,1"))
        parsed = parse_recurrence_spec("c2:N - F(n+1);1", {"F": fib})
        c2_combine(TERMWISE, parsed.operator, parsed.operator)
        c2_combine(TERMWISE, corpus.fibonorial_system().operator, corpus.doubling_tail_system().operator)
        c2_combine(TERMWISE, corpus.doubling_tail_system().operator, corpus.doubling_tail_system().operator)
        monkeypatch.undo()
        by_field = {}
        for z in zeros:
            by_field.setdefault(z.field, set()).add(id(z))
        assert set(by_field) == {RATIONAL_FIELD, NumberField([-1, -1, 1])}
        for field, ids in by_field.items():
            assert ids == {id(ExpPolyFraction.zero(field))}


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

    def test_zero_product_of_zero_divisors_is_false(self):
        # (1 - (-1)^n)(1 + (-1)^n) = 0 though neither factor is zero
        a = ExpPoly(RATIONAL_FIELD, [(1, 1), (-1, -1)])
        b = ExpPoly(RATIONAL_FIELD, [(1, 1), (-1, 1)])
        f = ExpPolyFraction(RATIONAL_FIELD, [a, b])
        assert f == 0
        assert not f
        assert not f.is_unit_value()
        assert not ExpPolyFraction(RATIONAL_FIELD, [a, b], [a + 3])
        # a product of units and one other factor is no zero divisor
        assert ExpPolyFraction(RATIONAL_FIELD, [ExpPoly.geometric(-1), a])
        one = ExpPolyFraction.one(RATIONAL_FIELD)
        assert (f * one)._is_zero_form()
        assert (f + one) == one
        with pytest.raises(ZeroDivisionError):
            one / f

    def test_zero_test_never_expands_a_denominator(self, monkeypatch):
        n = Poly([0, 1], QQ, "n")
        op_a = ShiftOperator(
            CoeffRing.EXPPOLY,
            [ExpPoly.geometric(3), ExpPoly.from_poly(n + 1), ExpPoly.geometric(2) + 1],
        )
        op_b = ShiftOperator(
            CoeffRing.EXPPOLY,
            [-ExpPoly.geometric(2), ExpPoly.constant(-1), ExpPoly.constant(1)],
        )
        matrix, _ = combination_matrix(TERMWISE, op_a, op_b)
        assert any(entry.den_factors for row in matrix for entry in row)
        calls = {"den": 0, "zero_tests": 0}
        expanded_den, eq = ExpPolyFraction.expanded_den, ExpPolyFraction.__eq__
        truth = ExpPolyFraction.__bool__

        def counted_den(self):
            calls["den"] += 1
            return expanded_den(self)

        def counted_eq(self, other):
            calls["zero_tests"] += isinstance(other, ExpPolyFraction) and other._is_zero_form()
            return eq(self, other)

        def counted_bool(self):
            # a truth test made by the kernel itself, not inside the arithmetic
            calls["zero_tests"] += sys._getframe(1).f_code is linalg._eliminate.__code__
            return truth(self)

        monkeypatch.setattr(ExpPolyFraction, "expanded_den", counted_den)
        monkeypatch.setattr(ExpPolyFraction, "__eq__", counted_eq)
        monkeypatch.setattr(ExpPolyFraction, "__bool__", counted_bool)
        columns = [list(column) for column in zip(*matrix)]
        reduced, pivots = linalg._eliminate(
            columns, ExpPolyFraction.zero(RATIONAL_FIELD), ExpPolyFraction.is_unit_value
        )
        assert len(pivots) == len(columns)
        assert calls["zero_tests"] > 0
        assert calls["den"] == 0

    def test_clear_denominators_of_a_vector(self):
        # expected values and printed forms recorded from multiplying each
        # entry through every factor of the common denominator
        field = RATIONAL_FIELD
        n = ExpPoly.from_poly(Poly([0, 1], QQ, "n"))
        two = ExpPoly.geometric(2)
        a, b = n + 1, ExpPoly.geometric(-1) + n
        d, e = two + 1, ExpPoly.geometric(3) - 2
        zero = ExpPolyFraction.zero(field)
        # (1 - (-1)^n)(1 + (-1)^n) = 0 over a denominator of its own
        vanishing = ExpPolyFraction(
            field, [ExpPoly(field, [(1, 1), (-1, -1)]), ExpPoly(field, [(1, 1), (-1, 1)])], [e]
        )
        golden = NumberField([-1, -1, 1])
        phi = golden.generator()
        gd = ExpPoly.geometric(phi, golden) - 1
        ge = ExpPoly.geometric(1 - phi, golden) + ExpPoly.from_poly(Poly([0, 1], golden, "n"))
        frac = ExpPolyFraction
        cases = [
            # a shared denominator factor
            (
                [frac(field, [a], [d]), frac(field, [b], [d, e])],
                [a * e, b],
                ["-2*n - 2 + (n + 1)*3^n", "(-1)^n + n"],
            ),
            # a repeated factor
            (
                [frac(field, [a], [d, d]), frac(field, [b], [d]), frac(field, [two])],
                [a, b * d, two * d * d],
                ["n + 1", "(-2)^n + (-1)^n + n + n*2^n", "2^n + 2*4^n + 8^n"],
            ),
            # zero entries, whose denominators do not count
            (
                [zero, frac(field, [a], [e]), frac(field, [b], [d]), vanishing],
                [ExpPoly.zero(field), a * d, b * e, ExpPoly.zero(field)],
                ["0", "n + 1 + (n + 1)*2^n", "(-3)^n - 2*(-1)^n - 2*n + n*3^n", "0"],
            ),
            # an entry with no denominator
            (
                [frac(field, [a]), frac(field, [b], [d])],
                [a * d, b],
                ["n + 1 + (n + 1)*2^n", "(-1)^n + n"],
            ),
            # over Q(sqrt 5)
            (
                [
                    frac(golden, [ge], [gd]),
                    frac(golden, [gd], [ge]),
                    ExpPolyFraction.zero(golden),
                    frac(golden, [ExpPoly.constant(phi, golden)]),
                ],
                [ge * ge, gd * gd, ExpPoly.zero(golden), gd * ge * phi],
                [
                    "2*n*(-t + 1)^n + n^2 + (-t + 2)^n",
                    "-2*(t)^n + 1 + (t + 1)^n",
                    "0",
                    "t*(-1)^n + (t)*n*(t)^n - t*(-t + 1)^n + (-t)*n",
                ],
            ),
        ]
        for vector, values, printed in cases:
            cleared = clear_exppoly_denominators(vector)
            assert cleared == values
            assert [str(entry) for entry in cleared] == printed
            assert all(entry.field is vector[0].field for entry in cleared)
        with pytest.raises(ValueError):
            clear_exppoly_denominators([zero, vanishing])


def _planted(field, rng):
    """c * (n - r1) ... (n - rk) with natural roots r below 30."""
    poly = Poly([rng.choice([1, -1, 2, F(-1, 3), F(5, 2)])], field, "n")
    for _ in range(rng.randint(0, 2)):
        poly = poly * Poly([-rng.randint(0, 29), 1], field, "n")
    return poly


def _random_validity_case(rng):
    """Bases over Q, Q(sqrt 5) or Q(i), some paired with a root-of-unity
    multiple, times a planted common factor."""
    kind = rng.choice(["rational", "rational", "golden", "imaginary"])
    if kind == "rational":
        field = RATIONAL_FIELD
        pool = [field.from_rational(q) for q in (1, 2, 3, F(1, 2), F(3, 2))]
        units = [-field.one]
    elif kind == "golden":
        field = NumberField([-1, -1, 1])
        phi = field.generator()
        pool = [field.one, phi, 1 - phi, phi * phi, field.from_rational(2)]
        units = [-field.one]
    else:
        field = NumberField([5, -2, 1])  # t = 1 + 2i
        t = field.generator()
        pool = [field.one, t, 2 - t, field.from_rational(3), t * t]
        units = [-field.one, (t - 1) / 2]  # -1 and i
    paired = rng.random() < 0.3
    unit = rng.choice(units)
    terms = []
    for base in rng.sample(pool, rng.randint(1, 3)):
        terms.append((base, _planted(field, rng)))
        if paired:  # vanishes on a residue class when the unit is -1
            terms.append((base * unit, -terms[-1][1]))
        elif rng.random() < 0.4:
            terms.append((base * rng.choice(units), _planted(field, rng)))
    return ExpPoly(field, terms) * ExpPoly.from_poly(_planted(field, rng), field)


def _period(e):
    """The lcm of the root-of-unity orders of the base ratios of e."""
    bases = [base for base, _ in e.terms]
    orders = [
        next((k for k in (2, 3, 4, 6) if (a / b) ** k == 1), 1)
        for a in bases
        for b in bases
        if a != b
    ]
    return lcm(1, *orders)


class TestValidityOffset:
    def test_matches_a_direct_scan_past_the_tail_index(self, monkeypatch):
        starts = []  # the indices the tail test was asked about
        tail_test = exppoly._tail_test

        def recorded(top, rest):
            holds = tail_test(top, rest)

            def recording(m):
                starts.append(m)
                return holds(m)

            return recording

        monkeypatch.setattr(exppoly, "_tail_test", recorded)
        rng = random.Random(20261018)
        decided = vanishing = multi = unproven = late = 0
        for _ in range(60):
            e = _random_validity_case(rng)
            del starts[:]
            try:
                offset = validity_offset(e)
            except ValidityUnproven:
                unproven += 1
                assert e.field.minpoly.coeffs[0] > 0  # only the imaginary field ties
                continue
            multi += bool(starts)
            classes = [e.compose_arg(12, j) for j in range(12)]
            if offset is None:
                vanishing += 1
                assert not all(classes)
                continue
            assert all(classes)
            window = 2 * _period(e) * (max(starts, default=0) + 1) + 40
            zeros = [n for n in range(window) if not e.evaluate(n)]
            assert offset == (zeros[-1] + 1 if zeros else 0), str(e)
            decided += 1
            late += offset > 10
        assert decided >= 30 and vanishing >= 5 and multi >= 10 and unproven >= 1 and late >= 10

    def test_scan_stops_near_the_roots(self, monkeypatch):
        # (n - 259)(n - 261): the tail bound centred at the roots ends the
        # scan just past 261; uncentred it needs m near 630
        asked = []
        tail_test = exppoly._tail_test

        def recorded(top, rest):
            holds = tail_test(top, rest)
            return lambda m: asked.append(m) or holds(m)

        monkeypatch.setattr(exppoly, "_tail_test", recorded)
        p = ExpPoly.from_poly(Poly([67599, -520, 1], QQ, "n"))
        two = ExpPoly.geometric(2)
        for e, offset in ((p * (two + ExpPoly.constant(1)), 262), (two + p * ExpPoly.geometric(3), 0)):
            del asked[:]
            assert validity_offset(e) == offset
            assert max(asked) == 264

    def test_planted_cancellations(self):
        two, one = ExpPoly.geometric(2), ExpPoly.constant(1)
        n = ExpPoly.from_poly(Poly([0, 1], QQ, "n"))
        assert validity_offset(two - n.scale(2)) == 3  # 2^n = 2n at n = 1, 2
        assert validity_offset(two - one.scale(4)) == 3
        half, quarter = ExpPoly.geometric(F(1, 2)), ExpPoly.geometric(F(1, 4))
        assert validity_offset(half - quarter.scale(8)) == 4  # equal at n = 3
        # (n - 100) 2^n = 5 * 2^105 at n = 105 only, just past the root 100
        late = (n - 100) * two - one.scale(5 * 2**105)
        assert validity_offset(late) == 106
        assert validity_offset(one + ExpPoly.geometric(-1)) is None
        # zero at n = 5 on the odd class only: 2^n (1 - (-1)^n) (n - 5)
        alternating = (two - ExpPoly.geometric(-2)) * (n - 5)
        assert validity_offset(alternating) is None
        assert validity_offset(alternating + ExpPoly.geometric(4)) == 0

    def test_roots_of_unity_of_order_three_four_and_six(self):
        gaussian = NumberField([1, 0, 1])  # t = i
        eisenstein = NumberField([1, 1, 1])  # t = a primitive cube root of 1
        i, omega = gaussian.generator(), eisenstein.generator()
        for unit, order in ((i, 4), (omega, 3), (-omega, 6)):
            field = unit.field
            one = ExpPoly.constant(1, field)
            # unit^n - 1 vanishes exactly on the multiples of the order
            assert validity_offset(ExpPoly.geometric(unit, field) - one) is None
            # 3^n (unit^n - 1) + 2^n vanishes nowhere
            three = ExpPoly.geometric(3, field)
            mixed = three * ExpPoly.geometric(unit, field) - three + ExpPoly.geometric(2, field)
            assert validity_offset(mixed) == 0
            assert all(mixed.evaluate(n) for n in range(4 * order))

    def test_conjugate_top_terms_are_unproven(self):
        from ansatzkit import register_coefficient
        from ansatzkit.optext import parse_recurrence_spec

        h = register_coefficient(parse_recurrence_spec("cfinite:N^2-2*N+5;1,1"))
        assert len(h.terms) == 2
        with pytest.raises(ValidityUnproven, match="unproven"):
            validity_offset(h)
        # a larger third base settles it: |3| > |1 + 2i|
        assert validity_offset(h + ExpPoly.geometric(3).to_field(h.field)) == 0


class TestSplitRoots:
    """``fields.split_roots``: the one root finder in Q or a quadratic field."""

    @staticmethod
    def rebuild(field, roots, var="N"):
        product = Poly([field.one], field, var)
        for root, multiplicity in roots:
            product = product * Poly([-root, field.one], field, var) ** multiplicity
        return product

    def test_seeded_products_rebuild(self):
        rng = random.Random(1201)
        quadratics = [[-1, -1, 1], [-2, 0, 1], [1, 0, 1], [5, -4, 1], [1, 1, 1], [F(-1, 3), 0, 1]]
        for trial in range(60):
            candidates = [F(k, d) for k in range(-6, 7) for d in (1, 2, 3)]
            roots = rng.sample(candidates, rng.randint(0, 3))
            poly = Poly([rng.choice([1, -2, F(3, 4)])], QQ, "N")
            for root in set(roots):
                poly = poly * Poly([-root, 1], QQ, "N") ** rng.randint(1, 3)
            quadratic = rng.choice(quadratics + [None] * 3)
            if quadratic is not None:
                poly = poly * Poly(quadratic, QQ, "N") ** rng.randint(1, 2)
            field, found = split_roots(poly)
            assert (field.degree == 2) == (quadratic is not None), trial
            assert len({root for root, _ in found}) == len(found), trial
            rebuilt = self.rebuild(field, found)
            assert rebuilt == Poly(list(poly.monic().coeffs), field, "N"), trial
            rational = [root.as_rational() for root, _ in found if root.is_rational()]
            assert rational == sorted(rational, key=lambda r: (r != 0, r)), trial

    def test_unsupported_factors(self):
        cubic = Poly([-2, 0, 0, 1], QQ, "N") * Poly([-1, 1], QQ, "N")
        two_fields = Poly([-2, 0, 1], QQ, "N") * Poly([-3, 0, 1], QQ, "N") ** 2
        quartic = Poly([-2, 0, 1], QQ, "N") * Poly([-3, 0, 1], QQ, "N")
        for poly in (cubic, two_fields, quartic):
            with pytest.raises(UnsupportedFactorization) as info:
                split_roots(poly)
            assert isinstance(info.value, UnsupportedCase)


class TestSeries:
    """Truncated power series against a truncated Poly product."""

    @staticmethod
    def truncated(poly, length, zero):
        return (list(poly.coeffs) + [zero] * length)[:length]

    def test_mul_and_inverse_over_q(self):
        rng = random.Random(1202)
        for _ in range(40):
            a = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(rng.randint(0, 6))]
            b = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(rng.randint(0, 6))]
            length = rng.randint(0, 9)
            product = Poly(a, QQ, "x") * Poly(b, QQ, "x")
            assert series_mul(a, b, length, F(0)) == self.truncated(product, length, F(0))
            unit = [F(1)] + a
            inverse = series_inv(unit, length)
            assert len(inverse) == length
            identity = Poly(unit, QQ, "x") * Poly(inverse, QQ, "x")
            assert self.truncated(identity, length, F(0)) == [F(1), *[F(0)] * length][:length]

    def test_mul_and_inverse_over_a_quadratic_field(self):
        field = NumberField([-1, -1, 1])
        t = field.generator()
        a = [field.one, t, field.zero, 3 - t]
        b = [t, field.zero, 2 * t + 1]
        product = Poly(a, field, "x") * Poly(b, field, "x")
        assert series_mul(a, b, 5, field.zero) == self.truncated(product, 5, field.zero)
        identity = Poly(a, field, "x") * Poly(series_inv(a, 6), field, "x")
        assert self.truncated(identity, 6, field.zero) == [field.one] + [field.zero] * 5

    def test_inverse_needs_constant_term_one(self):
        with pytest.raises(InternalError):
            series_inv([F(2), F(1)], 3)


class TestPolyArithmetic:
    """Poly arithmetic over Q and Q(sqrt 5) against values at sample points,
    computed with plain Fraction and field-element arithmetic."""

    GOLDEN = NumberField([-1, -1, 1])

    @staticmethod
    def value(coeffs, x, zero):
        return sum((c * x**i for i, c in enumerate(coeffs)), zero)

    def polys(self, domain, draw, rng):
        """Seeded polynomials with zero coefficients, the zero polynomial
        and pairs whose leading terms cancel in a sum or a difference."""
        out = [Poly([], domain, "n")]
        for _ in range(10):
            coeffs = [draw() if rng.random() < 0.7 else 0 for _ in range(rng.randint(1, 5))]
            out.append(Poly(coeffs, domain, "n"))
        for p in out[1:4]:
            if p:
                tail = [draw() for _ in range(p.degree)]
                out.append(Poly(tail, domain, "n") - p)  # p + this drops the top
                out.append(p + Poly(tail[:1], domain, "n"))  # this - p too
        return out

    def cases(self):
        rng = random.Random(1616)
        t = self.GOLDEN.generator()

        def rational():
            return F(rng.randint(-4, 4), rng.randint(1, 3))

        def golden():
            return rational() + rational() * t

        yield QQ, F, rational, [F(k, 2) for k in range(-3, 4)], self.polys(QQ, rational, rng)
        points = [self.GOLDEN.from_rational(k) for k in (-2, 0, 3)] + [t, 1 - t, 2 * t + 1]
        yield self.GOLDEN, NumberFieldElement, golden, points, self.polys(self.GOLDEN, golden, rng)

    def check_form(self, poly, domain, kind):
        assert poly.domain == domain
        assert not poly.coeffs or poly.coeffs[-1]
        assert all(type(c) is kind for c in poly.coeffs)
        if kind is NumberFieldElement:
            assert all(c.field is domain for c in poly.coeffs)

    def test_against_values(self):
        for domain, kind, draw, points, polys in self.cases():
            zero = domain.zero

            def at(poly, x):
                return self.value(poly.coeffs, x, zero)

            for p in polys:
                c = draw()
                results = [-p, p.scale(c), p.derivative(), p.compose_linear(3, -2), p.monic()]
                for r in results:
                    self.check_form(r, domain, kind)
                if p:
                    assert p.monic().leading == domain.one
                for x in points:
                    assert p.evaluate(x) == at(p, x)
                    assert at(-p, x) == -at(p, x)
                    assert at(p.scale(c), x) == c * at(p, x)
                    derivative = sum(
                        (i * a * x ** (i - 1) for i, a in enumerate(p.coeffs) if i), zero
                    )
                    assert at(p.derivative(), x) == derivative
                    for scale, offset in ((1, 0), (1, 5), (3, -2), (-2, 1)):
                        assert at(p.compose_linear(scale, offset), x) == at(p, scale * x + offset)
                    if p:
                        assert at(p.monic(), x) * p.leading == at(p, x)
                for q in polys:
                    for r in (p + q, p - q, p * q):
                        self.check_form(r, domain, kind)
                    for x in points:
                        assert at(p + q, x) == at(p, x) + at(q, x)
                        assert at(p - q, x) == at(p, x) - at(q, x)
                        assert at(p * q, x) == at(p, x) * at(q, x)
                    if not q:
                        continue
                    quotient, remainder = divmod(p, q)
                    self.check_form(quotient, domain, kind)
                    self.check_form(remainder, domain, kind)
                    assert remainder.degree < q.degree
                    for x in points:
                        assert at(p, x) == at(quotient, x) * at(q, x) + at(remainder, x)

    def test_slots_cannot_be_assigned(self):
        """``_of`` stores the slots past the guard; assignment still raises,
        by attribute and by ``setattr``, and leaves the polynomial as it was."""
        p = Poly([1, 2], QQ, "n")
        q = p._of([F(3), F(0)])
        for poly in (p, q):
            before = (poly.coeffs, poly.domain, poly.var)
            with pytest.raises(AttributeError):
                poly.coeffs = (F(5),)
            with pytest.raises(AttributeError):
                setattr(poly, "domain", self.GOLDEN)
            with pytest.raises(AttributeError):
                poly.var = "x"
            assert (poly.coeffs, poly.domain, poly.var) == before

    def test_slots_cannot_be_deleted(self):
        """Deletion raises as assignment does, by ``del`` and by ``delattr``,
        and leaves every slot in place."""
        p = Poly([1, 2], QQ, "n")
        q = p._of([F(3), F(0)])
        for poly in (p, q):
            before = (poly.coeffs, poly.domain, poly.var)
            with pytest.raises(AttributeError, match="immutable"):
                del poly.coeffs
            with pytest.raises(AttributeError, match="immutable"):
                delattr(poly, "domain")
            with pytest.raises(AttributeError, match="immutable"):
                del poly.var
            assert (poly.coeffs, poly.domain, poly.var) == before
        assert q.coeffs == (F(3),)

    def test_cancelling_leading_terms_are_trimmed(self):
        for domain, _, draw, *_ in self.cases():
            p = Poly([draw(), draw(), 1], domain, "n")
            q = Poly([draw(), 3], domain, "n") - p
            assert (p + q).degree <= 1
            assert not p - p and (p - p).coeffs == ()
            assert not p * Poly([], domain, "n")
            assert p.scale(0).coeffs == ()
            assert (p ** 3).degree == 6


class TestMixedFields:
    """A rational operand meets one over Q(sqrt 5): the rational one is
    lifted into the field, in either order."""

    GOLDEN = NumberField([-1, -1, 1])
    ROOT2 = NumberField([-2, 0, 1])

    def test_poly_in_both_orders(self):
        t = self.GOLDEN.generator()
        for rational in (Poly([1, 2], QQ, "n"), Poly([1, 2], RATIONAL_FIELD, "n")):
            golden = Poly([t, 1], self.GOLDEN, "n")
            lifted = Poly([1, 2], self.GOLDEN, "n")
            for op in (operator.add, operator.sub, operator.mul):
                forward, backward = op(rational, golden), op(golden, rational)
                assert forward.domain == backward.domain == self.GOLDEN
                assert forward == op(lifted, golden)
                assert backward == op(golden, lifted)
            assert rational == lifted and lifted == rational
            assert hash(rational) == hash(lifted)
            assert rational != golden and golden != rational
        assert Poly([1, 2], QQ, "n") + Poly([t, 1], self.GOLDEN, "n") == Poly(
            [t + 1, 3], self.GOLDEN, "n"
        )

    def test_poly_over_two_quadratic_fields(self):
        golden = Poly([1, self.GOLDEN.generator()], self.GOLDEN, "n")
        root2 = Poly([1, self.ROOT2.generator()], self.ROOT2, "n")
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(UnsupportedField):
                op(golden, root2)
            with pytest.raises(UnsupportedField):
                op(root2, golden)
        assert golden != root2 and root2 != golden

    def test_exppoly_in_both_orders(self):
        t = self.GOLDEN.generator()
        a = ExpPoly.geometric(2)
        b = a.to_field(self.GOLDEN)
        assert a * b == b * a == ExpPoly.geometric(4, self.GOLDEN)
        assert a + b == b + a == ExpPoly.geometric(2, self.GOLDEN, 2)
        assert not a - b and not b - a
        for op in (operator.add, operator.sub, operator.mul):
            assert op(a, b).field == op(b, a).field == self.GOLDEN
        assert a == b and b == a
        assert hash(a) == hash(b)
        fa, fb = ExpPolyFraction.from_exppoly(a), ExpPolyFraction.from_exppoly(b)
        assert fa == fb and fb == fa
        c = ExpPoly.geometric(t, self.GOLDEN, Poly([1, 1], self.GOLDEN, "n")) + 1
        for op in (operator.add, operator.sub, operator.mul):
            forward, backward = op(a, c), op(c, a)
            for n in range(6):
                assert forward.evaluate(n) == op(a.evaluate(n), c.evaluate(n))
                assert backward.evaluate(n) == op(c.evaluate(n), a.evaluate(n))
        assert a != c and c != a

    def test_exppoly_fraction_in_both_orders(self):
        t = self.GOLDEN.generator()
        a = ExpPolyFraction.from_exppoly(ExpPoly.geometric(2))
        b = ExpPolyFraction.from_exppoly(ExpPoly.geometric(t, self.GOLDEN))
        c = ExpPolyFraction(
            self.GOLDEN,
            [ExpPoly.geometric(t, self.GOLDEN, Poly([1, 1], self.GOLDEN, "n"))],
            [ExpPoly.geometric(3, self.GOLDEN) + 1],
        )
        values = {
            id(a): lambda n: self.GOLDEN.coerce(2) ** n,
            id(b): lambda n: t ** n,
            id(c): lambda n: (n + 1) * t ** n / (3 ** n + 1),
        }

        def value(fraction, n):
            return fraction.expanded_num().evaluate(n) / fraction.expanded_den().evaluate(n)

        for x, y in ((a, b), (b, a), (a, c), (c, a)):
            for op in (operator.add, operator.sub, operator.mul, operator.truediv):
                result = op(x, y)
                assert result.field == self.GOLDEN
                for factor in result.num_factors + result.den_factors:
                    assert factor.field == self.GOLDEN
                for n in range(6):
                    assert value(result, n) == op(values[id(x)](n), values[id(y)](n))
            assert x != y and y != x
        lifted = a.to_field(self.GOLDEN)
        assert lifted.field == self.GOLDEN
        assert a == lifted and lifted == a
        assert a * b == b * a and a + c == c + a
        assert (a / b) * b == a and b * (a / b) == a

    def test_exppoly_over_two_quadratic_fields(self):
        golden = ExpPoly.geometric(self.GOLDEN.generator(), self.GOLDEN)
        root2 = ExpPoly.geometric(self.ROOT2.generator(), self.ROOT2)
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(UnsupportedField):
                op(golden, root2)
            with pytest.raises(UnsupportedField):
                op(root2, golden)
        assert golden != root2 and root2 != golden


def test_arithmetic_results_are_never_coerced(monkeypatch):
    """Same-domain Poly arithmetic and ExpPoly products build their results
    without a single ``coerce`` call."""
    golden = NumberField([-1, -1, 1])
    t = golden.generator()
    polys = {
        QQ: (Poly([1, F(-2, 3), 0, 5], QQ, "n"), Poly([F(1, 2), 3], QQ, "n")),
        golden: (Poly([t, 0, 1 - t, 2], golden, "n"), Poly([2, t], golden, "n")),
    }
    e = ExpPoly(golden, [(t, polys[golden][0]), (2, polys[golden][1]), (1, 3)])
    f = ExpPoly(golden, [(1 - t, polys[golden][1]), (2, 1)])
    calls = []
    number_field_coerce, rational_coerce = NumberField.coerce, type(QQ).coerce

    def counted(self, value):
        calls.append(value)
        return number_field_coerce(self, value)

    def counted_rational(value):
        calls.append(value)
        return rational_coerce(value)

    monkeypatch.setattr(NumberField, "coerce", counted)
    monkeypatch.setattr(type(QQ), "coerce", staticmethod(counted_rational))
    for p, q in polys.values():
        results = [p + q, p - q, q - p, -p, p * q, p ** 3, p.derivative(), p.monic()]
        results += [p.compose_linear(2, -3), *divmod(p, q), p // q, p % q]
        assert p.evaluate(t) == p.evaluate(t)
        assert all(isinstance(r, Poly) for r in results)
        assert p == p and p != q
    assert e * f == f * e
    assert (e * f) * e == e * (f * e)
    assert e + f - e == f
    assert calls == []
    p, q = polys[QQ]
    assert (p * 3).coeffs == p.scale(3).coeffs  # a scalar operand is coerced once
    assert calls == [3, 3]


class TestPower:
    """One repeated-squaring routine behind every ``__pow__``."""

    def test_against_repeated_products(self):
        field = NumberField([-2, 0, 1])
        x = Poly([1, 2, F(1, 3)], QQ, "n")
        e = ExpPoly(field, [(field.generator(), Poly([1, 1], field, "n")), (3, 2)])
        z = field.element([F(1, 2), -1])
        cases = ((x, Poly([1], QQ, "n")), (e, e.one_like()), (z, field.one), (F(-2, 3), 1))
        for value, one in cases:
            expected = one
            for exponent in range(10):
                assert power(value, exponent, one) == expected
                if not isinstance(value, Fraction):
                    assert value ** exponent == expected
                expected = expected * value
        assert z ** -3 * z ** 3 == field.one

    def test_multiplication_count(self):
        # the product starts from the base and the last bit takes no squaring
        class Counted:
            products = 0

            def __init__(self, value):
                self.value = value

            def __mul__(self, other):
                Counted.products += 1
                return Counted(self.value * other.value)

        for exponent, products in ((0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (8, 3)):
            Counted.products = 0
            assert power(Counted(3), exponent, Counted(1)).value == 3**exponent
            assert Counted.products == products


class TestCommonRatio:
    def test_ratio_and_mismatches(self):
        def pair(a, b):
            return tuple(map(F, a)), tuple(map(F, b))

        t = NumberField([-1, -1, 1]).generator()
        assert common_ratio([pair((2, 0, 4), (F(2, 5), 0, F(4, 5))), pair((1,), (F(1, 5),))]) == 5
        assert common_ratio([((3 * t, F(0)), (t, F(0))), pair((6,), (2,))]) == 3
        assert common_ratio([((t, 2 * t), pair((1, 2), ())[0])]) == t
        assert common_ratio([pair((1, 2), (2, 4)), pair((3,), (1,))]) is None  # ratios differ
        assert common_ratio([pair((1, 0, 2), (2, 1, 4))]) is None  # zero patterns differ
        assert common_ratio([pair((1, 2, 0), (2, 4, 1))]) is None
        assert common_ratio([pair((1, 2), (2, 4)), pair((0, 3), (1, 6))]) is None
        assert common_ratio([pair((1, 2), (1, 2, 3))]) is None  # lengths differ
        assert common_ratio([pair((0, 0), (0, 0)), pair((), ())]) is None  # nothing to compare
