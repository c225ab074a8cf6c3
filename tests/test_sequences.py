"""Recurrence execution: expansion, verification, validity offsets."""

import random
from fractions import Fraction

import pytest

from ansatzkit import (
    CoeffRing,
    Poly,
    QQ,
    RecurrenceSystem,
    Sequence,
    ShiftOperator,
    advanced_system,
    expand_terms,
    leading_validity_offset,
    verify_annihilates,
)
from ansatzkit.errors import InsufficientData, LeadingCoefficientZero

import conftest as corpus

F = Fraction


class TestExpandTerms:
    def test_fibonacci(self):
        seq = expand_terms(corpus.fibonacci_system(), 10)
        assert list(seq.terms) == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]

    def test_floor_square(self):
        seq = expand_terms(corpus.floor_square_system(), 8)
        assert list(seq.terms) == [0, 0, 1, 2, 4, 6, 9, 12]
        assert all(seq.value(n) == (n // 2) * ((n + 1) // 2) for n in range(8))

    def test_exponential_coefficient(self):
        seq = expand_terms(corpus.doubling_tail_system(), 6)
        assert list(seq.terms) == [1, 1, 2, 4, 12, 44]

    def test_harmonic_offset(self):
        seq = expand_terms(corpus.harmonic_system(), 5)
        assert seq.offset == 1
        assert list(seq.terms) == [1, F(3, 2), F(11, 6), F(25, 12), F(137, 60)]

    def test_leading_zero_raises(self):
        bad = RecurrenceSystem(
            ShiftOperator(CoeffRing.POLY_N, [Poly([2, 1]), Poly([2]), Poly([0, -1])]),
            [0, 0],
        )
        with pytest.raises(LeadingCoefficientZero) as info:
            expand_terms(bad, 5)
        assert info.value.index == 0

    def test_count_below_initials(self):
        with pytest.raises(InsufficientData):
            expand_terms(corpus.floor_square_system(), 3)


class TestVerifyAnnihilates:
    def test_geometric_passes(self):
        op = ShiftOperator(CoeffRing.CONSTANT, [-2, 1])
        assert verify_annihilates(op, Sequence([1, 2, 4, 8, 16])) is None

    def test_injected_error_located(self):
        op = ShiftOperator(CoeffRing.CONSTANT, [-2, 1])
        assert verify_annihilates(op, Sequence([1, 2, 4, 9])) == 2

    def test_holonomic_relation_on_floor_values(self):
        op = ShiftOperator(
            CoeffRing.POLY_N, [Poly([2, 1]), Poly([2]), Poly([0, -1])]
        )
        values = expand_terms(corpus.floor_square_system(), 20)
        assert verify_annihilates(op, values, 0) is None

    def test_window_too_short(self):
        op = ShiftOperator(CoeffRing.CONSTANT, [-1, -1, 1])
        with pytest.raises(InsufficientData):
            verify_annihilates(op, Sequence([1, 1]))


class TestLeadingValidityOffset:
    def test_vanishing_at_zero(self):
        op = ShiftOperator(
            CoeffRing.POLY_N, [Poly([2, 1]), Poly([2]), Poly([0, -1])]
        )
        assert leading_validity_offset(op) == 1

    def test_no_nonnegative_root(self):
        op = ShiftOperator(CoeffRing.POLY_N, [Poly([1]), Poly([2, 1])])
        assert leading_validity_offset(op) == 0

    def test_largest_root_wins(self):
        lead = Poly([-3, 1], QQ, "n") * Poly([-1, 1], QQ, "n")
        op = ShiftOperator(CoeffRing.POLY_N, [Poly([1]), lead])
        assert leading_validity_offset(op) == 4

    def test_matches_rational_roots(self):
        from ansatzkit.polynomials import largest_natural_root, rational_roots

        rng = random.Random(5)
        for _ in range(300):
            p = Poly([Fraction(rng.randint(1, 5), rng.randint(1, 3))], QQ, "n")
            for _ in range(rng.randint(0, 4)):
                if rng.random() < 0.6:
                    factor = [rng.randint(-30, 30), rng.randint(1, 3)]
                else:
                    factor = [rng.randint(-9, 9) for _ in range(rng.randint(1, 4))]
                    factor.append(rng.randint(1, 5))
                p = p * Poly(factor, QQ, "n")
            naturals = [
                int(root) for root, _ in rational_roots(p)[0]
                if root.denominator == 1 and root >= 0
            ] if p.degree > 0 else []
            assert largest_natural_root(p) == max(naturals, default=None)

    def test_huge_constant_term(self):
        # the constant term has 126 bits, far beyond trial division
        lead = Poly([-40, 1], QQ, "n")
        for prime in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                      53, 59, 61, 67, 71, 73, 79, 83, 89, 97):
            lead = lead * Poly([prime, 1], QQ, "n")
        op = ShiftOperator(CoeffRing.POLY_N, [Poly([1]), lead])
        assert leading_validity_offset(op) == 41

    def test_huge_lowest_coefficient_and_root_bound(self):
        # both are about 10**30: neither divisors nor a bounded scan finish
        from ansatzkit.polynomials import largest_natural_root

        assert largest_natural_root(Poly([-5, 1]) * Poly([10**30, 0, 1])) == 5


class TestRoundTrips:
    def test_expansion_always_verifies(self):
        rng = random.Random(1001)
        cases = []
        for _ in range(70):
            cases.append(corpus.random_cfinite(rng))
        for _ in range(70):
            cases.append(corpus.random_holonomic(rng))
        for _ in range(60):
            cases.append(corpus.random_c2(rng))
        assert len(cases) == 200
        for system in cases:
            count = len(system.initials) + system.order + 12
            seq = expand_terms(system, count)
            assert (
                verify_annihilates(system.operator, seq, system.validity_offset)
                is None
            )

    def test_index_translation(self):
        # the shifted operator comes from ShiftOperator.shifted_coeff in
        # every coefficient ring
        rng = random.Random(77)
        for generate in (corpus.random_holonomic, corpus.random_cfinite, corpus.random_c2):
            for _ in range(20):
                system = generate(rng)
                steps = rng.randint(1, 3)
                advanced = advanced_system(system, steps)
                full = expand_terms(system, 15 + steps)
                moved = expand_terms(advanced, 15)
                for n in range(15):
                    assert moved.value(n) == full.value(n + steps)
