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


def coefficient_value(operator, i, n):
    """c_i(n) as an exact rational, by Fraction arithmetic."""
    c = operator.coeffs[i]
    if operator.ring is CoeffRing.CONSTANT:
        return c
    return c.evaluate(Fraction(n))


def reference_expand(system, count):
    """``expand_terms`` as one Fraction loop, each coefficient evaluated at
    Fraction(n)."""
    op, r = system.operator, system.operator.order
    terms = list(system.initials)
    while len(terms) < count:
        n = system.offset + len(terms) - r
        lead = coefficient_value(op, r, n)
        if not lead:
            raise LeadingCoefficientZero(n)
        acc = Fraction(0)
        for i in range(r):
            acc += coefficient_value(op, i, n) * terms[n - system.offset + i]
        terms.append(-acc / lead)
    return terms[:count]


def reference_verify(operator, sequence, from_n):
    """``verify_annihilates`` as one Fraction loop."""
    for n in range(from_n, sequence.end - operator.order):
        acc = sum(
            coefficient_value(operator, i, n) * sequence.value(n + i)
            for i in range(operator.order + 1)
        )
        if acc:
            return n
    return None


class TestIntegerExpansion:
    """``expand_terms`` and ``verify_annihilates`` clear constant and
    polynomial coefficients to integers once; the terms and the indices
    they report equal the Fraction loop's."""

    @staticmethod
    def rational(rng):
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))  # zero one time in 19

    def random_system(self, rng):
        """Order 1 to 4, offset 0 to 3, rational coefficients with zeros; a
        polynomial lead sometimes has a root at an index the expansion
        reaches."""
        order = rng.randint(1, 4)
        offset = rng.randint(0, 3)
        validity = offset + rng.randint(0, 2)
        if rng.random() < 0.4:
            ring = CoeffRing.CONSTANT
            coeffs = [self.rational(rng) if rng.random() < 0.7 else 0 for _ in range(order)]
            coeffs.append(self.rational(rng) or Fraction(1, 2))
        else:
            ring = CoeffRing.POLY_N

            def poly():
                return Poly([self.rational(rng) for _ in range(rng.randint(0, 3))], QQ, "n")

            coeffs = [poly() for _ in range(order)]
            lead = poly() or Poly([Fraction(-3, 4)], QQ, "n")
            if rng.random() < 0.3:  # vanishes at some n >= validity
                lead = lead * Poly([-rng.randint(validity, validity + 12), 1], QQ, "n")
            coeffs.append(lead)
        operator = ShiftOperator(ring, coeffs)
        initials = [self.rational(rng) for _ in range(validity - offset + order)]
        return RecurrenceSystem(operator, initials, validity, offset)

    def test_against_the_fraction_loop(self):
        rng = random.Random(4242)
        raised = corrupted = 0
        for _ in range(300):
            system = self.random_system(rng)
            count = len(system.initials) + 20
            try:
                expected = reference_expand(system, count)
            except LeadingCoefficientZero as error:
                with pytest.raises(LeadingCoefficientZero) as info:
                    expand_terms(system, count)
                assert info.value.index == error.index
                raised += 1
                continue
            sequence = expand_terms(system, count)
            assert list(sequence.terms) == expected
            assert sequence.offset == system.offset
            for from_n in (system.offset, system.validity_offset):
                assert verify_annihilates(system.operator, sequence, from_n) == reference_verify(
                    system.operator, sequence, from_n
                )
            # one term changed: both loops report the same first violation
            terms = list(expected)
            terms[rng.randrange(len(terms))] += 1
            changed = Sequence(terms, system.offset)
            found = verify_annihilates(system.operator, changed, system.offset)
            assert found == reference_verify(system.operator, changed, system.offset)
            corrupted += found is not None
        assert raised >= 20 and corrupted >= 200

    def test_lead_vanishing_at_a_later_index(self):
        # lead (n - 5)/2: the relation at n = 5 cannot give a(6)
        operator = ShiftOperator(
            CoeffRing.POLY_N, [Poly([F(1, 3), F(-2, 7)]), Poly([]), Poly([F(-5, 2), F(1, 2)])]
        )
        system = RecurrenceSystem(operator, [F(1, 2), 3, F(-4, 5)], 1, 0)
        with pytest.raises(LeadingCoefficientZero) as info:
            expand_terms(system, 10)
        assert info.value.index == 5
        assert expand_terms(system, 7).terms == tuple(reference_expand(system, 7))


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


def proportional(a, b):
    """Whether the integer coefficient lists ``a`` and ``b`` are one
    another times one nonzero rational."""
    flat_a = [x for c in a for x in c]
    flat_b = [x for c in b for x in c]
    if [len(c) for c in a] != [len(c) for c in b] or len(flat_a) != len(flat_b):
        return False
    pivot = next(i for i, x in enumerate(flat_a) if x)
    ratio = F(flat_b[pivot], flat_a[pivot])
    return bool(ratio) and all(y == ratio * x for x, y in zip(flat_a, flat_b))


class TestIntegerForm:
    """``ShiftOperator._of_integers``, the constructor that keeps an integer
    form handed over, against the public constructor on seeded integer
    vectors, and the form that every other operator clears on first read."""

    @staticmethod
    def vectors():
        """Seeded integer vectors over constants and polynomials in n:
        zero entries, trailing zero entries and trailing zero coefficients
        included, and some all zero."""
        rng = random.Random(4242)
        for index in range(300):
            ring = CoeffRing.CONSTANT if index % 3 == 0 else CoeffRing.POLY_N
            width = 1 if ring is CoeffRing.CONSTANT else 4
            vector = []
            for _ in range(rng.randint(1, 5)):
                entry = [rng.randint(-60, 60) for _ in range(rng.randint(0, width))]
                if rng.random() < 0.3:
                    entry = [0] * len(entry)
                vector.append(entry)
            for _ in range(rng.choice([0, 0, 1, 2])):
                vector.append([0] * rng.randint(0, width))
            denominator = rng.choice([1, 1, rng.randint(-9, 9) or 1])
            yield ring, vector, denominator

    @staticmethod
    def public(ring, vector, denominator):
        return ShiftOperator(
            ring, [Poly([F(x, denominator) for x in c], QQ, "n") for c in vector]
        )

    def test_against_the_public_constructor(self):
        import copy
        import pickle

        from ansatzkit.jsonio import dumps

        built = zero = 0
        for ring, vector, denominator in self.vectors():
            try:
                expected = self.public(ring, vector, denominator)
            except ValueError as error:
                with pytest.raises(ValueError, match=str(error)):
                    ShiftOperator._of_integers(ring, [list(c) for c in vector], denominator)
                zero += 1
                continue
            op = ShiftOperator._of_integers(ring, [list(c) for c in vector], denominator)
            built += 1
            assert op == expected and hash(op) == hash(expected)
            assert op.order == expected.order and op.ring is ring
            assert str(op) == str(expected) and repr(op) == repr(expected)
            assert dumps(op) == dumps(expected)
            if ring is CoeffRing.CONSTANT:
                assert all(type(c) is Fraction for c in op.coeffs)
            else:
                assert all(type(x) is Fraction for c in op.coeffs for x in c.coeffs)
            assert proportional(op._integers, expected._integers)
            assert op._integers[-1] and all(not c or c[-1] for c in op._integers)
            for twin in (copy.deepcopy(op), pickle.loads(pickle.dumps(op))):
                assert twin == op and hash(twin) == hash(op) and str(twin) == str(op)
                assert twin._integers == op._integers
        assert built > 200 and zero > 5

    def test_constant_ring_holds_no_polynomial(self):
        with pytest.raises(ValueError, match="constant ring cannot hold a polynomial"):
            ShiftOperator._of_integers(CoeffRing.CONSTANT, [[1], [2, 1]])

    def test_promotion_keeps_the_integer_form(self):
        from ansatzkit.polynomials import _zx_cleared

        rng = random.Random(99)
        for _ in range(60):
            op = corpus.random_cfinite(rng).operator
            if rng.random() < 0.5:
                op = op.scaled(F(rng.randint(1, 9), rng.randint(1, 9)))
            promoted = op.promoted(CoeffRing.POLY_N)
            assert promoted == ShiftOperator(CoeffRing.POLY_N, op.coeffs)
            assert promoted._integers is op._integers
            cleared = _zx_cleared([c.coeffs for c in promoted.coeffs])
            assert proportional(promoted._integers, cleared)

    def test_the_form_is_invisible(self):
        op = ShiftOperator(CoeffRing.POLY_N, [Poly([F(1, 2), 1]), Poly([F(-1, 3)])])
        fresh = ShiftOperator(CoeffRing.POLY_N, op.coeffs)
        assert op._integers == [[3, 6], [-2]]
        assert op == fresh and hash(op) == hash(fresh) and repr(op) == repr(fresh)

    def test_expansion_hands_over_its_fractions(self):
        rng = random.Random(6)
        for generate in (corpus.random_cfinite, corpus.random_holonomic, corpus.random_c2):
            for _ in range(10):
                system = generate(rng)
                seq = expand_terms(system, len(system.initials) + 10)
                assert all(type(t) is Fraction for t in seq.terms)
                assert seq == Sequence(seq.terms, seq.offset)
        with pytest.raises(ValueError, match="offset"):
            Sequence._of_fractions([F(1)], -1)
