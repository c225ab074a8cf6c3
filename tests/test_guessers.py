"""Ansatz fitting: polynomial, constant and polynomial coefficients."""

import random
from fractions import Fraction

import pytest

from ansatzkit import (
    CoeffRing,
    Poly,
    QQ,
    Sequence,
    expand_terms,
    guess_cfinite,
    guess_holonomic,
    guess_polynomial,
    verify_annihilates,
)
from ansatzkit import guess as guess_module
from ansatzkit.errors import InsufficientData, InternalError
from ansatzkit.guess import GuessReport, holonomic_fit_length
from ansatzkit.linalg import (
    PRIME,
    FieldAdapter,
    left_null_space,
    rank_profile_mod_p,
    solve_linear,
)
from ansatzkit.polynomials import (
    difference_rows,
    forward_differences,
    newton_poly,
    rational_content,
)
from ansatzkit.sequences import RecurrenceSystem, ShiftOperator, leading_validity_offset

import conftest as corpus

F = Fraction
RATIONALS = FieldAdapter(Fraction(0), Fraction(1))


def proportional(coeffs_a, coeffs_b):
    if len(coeffs_a) != len(coeffs_b):
        return False
    ratio = None
    for a, b in zip(coeffs_a, coeffs_b):
        if bool(a) != bool(b):
            return False
        if a:
            if isinstance(a, Poly):
                if len(a.coeffs) != len(b.coeffs):
                    return False
                for ca, cb in zip(a.coeffs, b.coeffs):
                    if bool(ca) != bool(cb):
                        return False
                    if ca:
                        r = ca / cb
                        if ratio is None:
                            ratio = r
                        elif r != ratio:
                            return False
            else:
                r = a / b
                if ratio is None:
                    ratio = r
                elif r != ratio:
                    return False
    return ratio is not None


class TestGuessPolynomial:
    def test_sum_of_squares(self):
        seq = Sequence([sum(i * i for i in range(n + 1)) for n in range(21)])
        report = guess_polynomial(seq, 4)
        assert report.poly == Poly([0, F(1, 6), F(1, 2), F(1, 3)], QQ, "n")
        assert report.shape == ("polynomial", 4, 3)

    def test_constant(self):
        report = guess_polynomial(Sequence([5, 5, 5, 5, 5]), 3)
        assert report.poly == Poly([5], QQ, "n")
        assert report.shape[2] == 0

    def test_squares(self):
        report = guess_polynomial(Sequence([0, 1, 4, 9, 16, 25]), 2)
        assert report.poly == Poly([0, 0, 1], QQ, "n")

    def test_not_polynomial(self):
        seq = expand_terms(corpus.fibonacci_system(), 20)
        assert guess_polynomial(seq, 5).result is None

    def test_insufficient(self):
        with pytest.raises(InsufficientData):
            guess_polynomial(Sequence([1]), 3)

    def test_negative_max_degree_is_no_fit(self):
        # like an empty search of the other guessers: no shape, no fit
        seq = Sequence([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        report = guess_polynomial(seq, -1)
        assert report == GuessReport(None, ("polynomial", None, None), 0, 0)
        assert guess_cfinite(seq, 0).result is None
        assert guess_holonomic(seq, 1, -1).result is None
        with pytest.raises(InsufficientData):
            guess_polynomial(Sequence([1]), -1)

    def test_matches_vandermonde_reference(self):
        rng = random.Random(2028)
        seen = {"hit": 0, "none": 0, "proven": 0, "zero": 0}
        for k in range(378):
            degree, margin = k % 7, rng.randint(1, 3)
            coeffs = [F(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 7])) for _ in range(degree + 1)]
            if k % 9 == 0:
                coeffs = [F(0)]
            # exactly the fit + margin for the true degree, one below it, or longer
            length = max(degree + 1 + margin - rng.choice([0, 1, -rng.randint(1, 12)]), 2)
            offset = rng.randint(0, 3)
            terms = [Poly(coeffs, QQ, "n").evaluate(F(n)) for n in range(offset, offset + length)]
            place = (None, 0, length // 2, length - 1)[k % 4]
            if place is not None:
                terms[place] += F(1, rng.randint(1, 5))
            seq = Sequence(terms, offset)
            max_degree, assume_bound = rng.randint(0, 7), rng.random() < 0.5
            report = guess_polynomial(seq, max_degree, margin, assume_bound)
            summary = (report.shape, report.poly, report.terms_used_for_fit, report.terms_verified,
                       report.proven)
            if report.result is not None:
                system = report.result
                summary += (system.operator.coeffs, system.initials, system.offset,
                            system.validity_offset, verify_annihilates(system.operator, seq, offset))
            assert summary == vandermonde_guess_polynomial(seq, max_degree, margin, assume_bound)
            seen["hit"] += report.result is not None
            seen["none"] += report.result is None
            seen["proven"] += report.proven
            seen["zero"] += report.poly is not None and not report.poly
        assert seen["hit"] >= 40 and seen["none"] >= 40, seen
        assert seen["proven"] >= 10 and seen["zero"] >= 5, seen

    def test_long_no_fit_builds_no_full_difference_row(self, monkeypatch):
        # Each degree is rejected on the leading entry of row degree + 1,
        # from degree + 2 terms; only a zero leading entry costs a row over
        # all the terms.
        taken = []
        difference_rows = guess_module.difference_rows

        def counted(values):
            for row in difference_rows(values):
                taken.append(len(row))
                yield row

        monkeypatch.setattr(guess_module, "difference_rows", counted)
        rng = random.Random(8)
        noise = Sequence([rng.randint(-10**6, 10**6) for _ in range(2000)])
        assert guess_polynomial(noise, 3).result is None
        assert sum(taken) == 2000  # row 0, the terms themselves
        taken.clear()
        cubes = Sequence([n**3 - n for n in range(2000)])
        assert guess_polynomial(cubes, 6).shape == ("polynomial", 4, 3)
        assert taken == [2000, 1999, 1998, 1997]

    def test_matches_the_fraction_table(self):
        rng = random.Random(2806)
        seen = {"hit": 0, "none": 0, "mixed": 0, "zero": 0, "near": 0, "proven": 0}
        for k in range(600):
            degree, margin = k % 9, rng.randint(0, 3)
            dens = rng.choice([[1], [1, 2], [3, 7, 10], [4, 9, 25, 1]])
            coeffs = [F(rng.randint(-9, 9), rng.choice(dens)) for _ in range(degree + 1)]
            offset = rng.randint(0, 4)
            length = max(degree + margin + rng.randint(-2, 8), 2)
            terms = [Poly(coeffs, QQ, "n").evaluate(F(n)) for n in range(offset, offset + length)]
            if k % 7 == 0:
                terms = [F(0)] * length
            elif k % 5 == 0:
                # a near miss: the last term breaks the fit
                terms[-1] += F(1, rng.choice([1, 3, 8]))
                seen["near"] += 1
            seen["mixed"] += len({t.denominator for t in terms}) > 1
            seq = Sequence(terms, offset)
            max_degree, assume_bound = rng.randint(0, 8), rng.random() < 0.5
            report = guess_polynomial(seq, max_degree, margin, assume_bound)
            expected = fraction_guess_polynomial(seq, max_degree, margin, assume_bound)
            for name in ("result", "poly", "shape", "terms_used_for_fit", "terms_verified", "proven"):
                assert getattr(report, name) == getattr(expected, name), name
            seen["hit"] += report.result is not None
            seen["none"] += report.result is None
            seen["zero"] += report.poly is not None and not report.poly
            seen["proven"] += report.proven
        assert min(seen.values()) >= 40, seen


def fraction_guess_polynomial(sequence, max_degree, margin=1, assume_bound=False):
    """``guess_polynomial`` on a difference table of the terms themselves,
    in ``Fraction``, with the annihilator a power of a ``Poly``."""
    length = len(sequence)
    rows = enumerate(difference_rows(sequence.terms))
    depth, row = next(rows)
    for degree in range(0, max_degree + 1):
        fit = degree + 1
        if length < fit + max(margin, 1):
            break
        leading = forward_differences(sequence.terms[: degree + 2])
        if leading.pop():
            continue
        while depth < degree:
            depth, row = next(rows)
        if any(entry != row[0] for entry in row):
            continue
        annihilator = Poly([-1, 1], QQ, "N") ** (degree + 1)
        operator = ShiftOperator(CoeffRing.CONSTANT, annihilator.coeffs)
        system = RecurrenceSystem(
            operator, sequence.terms[: degree + 1], sequence.offset, sequence.offset
        )
        return GuessReport(
            result=system,
            shape=("polynomial", degree + 1, degree),
            terms_used_for_fit=fit,
            terms_verified=length - fit,
            poly=newton_poly(leading, sequence.offset),
            proven=assume_bound and length >= max_degree + 1,
        )
    return GuessReport(None, ("polynomial", None, None), 0, 0)


def vandermonde_guess_polynomial(seq, max_degree, margin, assume_bound):
    """Reference polynomial guesser: solve the Vandermonde system on the
    first degree + 1 terms for degree 0, 1, ... and check every term."""
    length, offset = len(seq), seq.offset
    for degree in range(max_degree + 1):
        fit = degree + 1
        if length < fit + margin:
            break
        points = range(offset, offset + fit)
        rows = [[F(n) ** j for j in range(fit)] for n in points]
        poly = Poly(solve_linear(rows, [seq.value(n) for n in points], RATIONALS), QQ, "n")
        if all(poly.evaluate(F(n)) == seq.value(n) for n in range(offset, seq.end)):
            annihilator = (Poly([-1, 1], QQ, "N") ** fit).coeffs
            proven = assume_bound and length >= max_degree + 1
            return (("polynomial", fit, degree), poly, fit, length - fit, proven,
                    annihilator, seq.terms[:fit], offset, offset, None)
    return (("polynomial", None, None), None, 0, 0, False)


class TestGuessCFinite:
    def test_floor_square(self):
        seq = expand_terms(corpus.floor_square_system(), 31)
        report = guess_cfinite(seq, 5)
        assert list(report.result.operator.coeffs) == [-1, 2, 0, -2, 1]
        assert report.shape == ("cfinite", 4, 0)

    def test_fibonacci(self):
        seq = expand_terms(corpus.fibonacci_system(), 20)
        report = guess_cfinite(seq, 3)
        assert list(report.result.operator.coeffs) == [-1, -1, 1]
        assert list(report.result.initials) == [0, 1]

    def test_geometric(self):
        seq = Sequence([2 ** n for n in range(16)])
        report = guess_cfinite(seq, 2)
        assert list(report.result.operator.coeffs) == [-2, 1]

    def test_minimality_preference(self):
        seq = expand_terms(corpus.fibonacci_system(), 25)
        report = guess_cfinite(seq, 5)
        assert report.shape[1] == 2

    def test_all_zero_flags_degenerate(self):
        report = guess_cfinite(Sequence([0] * 12), 3)
        assert report.degenerate
        assert list(report.result.operator.coeffs) == [0, 1]

    def test_soundness_invariant(self):
        seq = expand_terms(corpus.floor_square_system(), 31)
        report = guess_cfinite(seq, 5)
        assert verify_annihilates(report.result.operator, seq, 0) is None

    def test_is_the_degree_zero_holonomic_search(self):
        rng = random.Random(4217)
        found = misses = 0
        for k in range(48):
            if k % 4 == 3:  # no relation at all
                seq = Sequence([F(rng.randint(-40, 40), rng.randint(1, 3)) for _ in range(26)])
            else:
                seq = expand_terms(corpus.random_cfinite(rng, max_order=4), 26)
                if k % 4 == 1:
                    seq = Sequence(seq.terms[3:], 3)
                elif k % 4 == 2:
                    seq = Sequence([F(rng.randint(1, 9), rng.randint(2, 9)) * t for t in seq.terms])
            if not any(seq.terms):
                continue
            cfinite = guess_cfinite(seq, 4)
            holonomic = guess_holonomic(seq, 4, 0)
            if cfinite.result is None:
                assert holonomic.result is None
                misses += 1
                continue
            found += 1
            assert holonomic.shape == ("holonomic",) + cfinite.shape[1:]
            assert all(p.degree <= 0 for p in holonomic.result.operator.coeffs)
            constants = [p.coefficient(0) for p in holonomic.result.operator.coeffs]
            assert proportional(list(cfinite.result.operator.coeffs), constants)
            assert cfinite.result.operator.leading == 1
            assert cfinite.result.initials == holonomic.result.initials
            assert cfinite.result.validity_offset == holonomic.result.validity_offset
            assert cfinite.result.offset == holonomic.result.offset == seq.offset
        assert found >= 20 and misses >= 10, (found, misses)


class TestGuessHolonomic:
    def test_harmonic(self):
        seq = expand_terms(corpus.harmonic_system(), 35)
        report = guess_holonomic(seq, 2, 1)
        expected = [Poly([1, 1], QQ, "n"), Poly([-3, -2], QQ, "n"), Poly([2, 1], QQ, "n")]
        assert proportional(report.result.operator.coeffs, expected)
        assert report.shape == ("holonomic", 2, 1)

    def test_catalan(self):
        seq = expand_terms(corpus.catalan_system(), 20)
        report = guess_holonomic(seq, 1, 1)
        expected = [Poly([2, 4], QQ, "n"), Poly([-2, -1], QQ, "n")]
        assert proportional(report.result.operator.coeffs, expected)

    def test_opening_sequence(self):
        # a(n+2) = (n+3)a(n+1) + (n+2)a(n), a0 = a1 = 1
        values = [F(1), F(1)]
        while len(values) < 16:
            n = len(values) - 2
            values.append((n + 3) * values[-1] + (n + 2) * values[-2])
        assert values[:11] == [
            1, 1, 5, 23, 135, 925, 7285, 64755, 641075, 6993545, 83339745,
        ]
        report = guess_holonomic(Sequence(values), 2, 1)
        expected = [Poly([-2, -1], QQ, "n"), Poly([-3, -1], QQ, "n"), Poly([1], QQ, "n")]
        assert proportional(report.result.operator.coeffs, expected)
        assert report.shape == ("holonomic", 2, 1)

    def test_floor_square_leading_vanishes(self):
        seq = expand_terms(corpus.floor_square_system(), 25)
        report = guess_holonomic(seq, 2, 1)
        assert report.shape == ("holonomic", 2, 1)
        assert report.result.validity_offset == 1

class TestRigorMode:
    def test_known_shape_turns_into_proof(self):
        # knowing order 2 and degree 3 requires values a(0)..a(13)
        assert holonomic_fit_length(2, 3) == 14
        system = corpus.harmonic_from_zero()
        seq14 = expand_terms(system, 14)
        report = guess_holonomic(seq14, 2, 3, margin=0, assume_bound=True)
        assert report.proven
        seq13 = expand_terms(system, 13)
        report13 = guess_holonomic(seq13, 2, 3, margin=0, assume_bound=True)
        assert report13.result is None or not report13.proven

    def test_without_assertion_not_proven(self):
        seq = expand_terms(corpus.harmonic_from_zero(), 20)
        report = guess_holonomic(seq, 2, 1)
        assert not report.proven

    def test_huge_bounds_stop_at_the_data(self):
        # no shape past the number of terms fits, so bounds of 10**9 cost
        # what bounds of the sequence length cost, and prove nothing
        six = Sequence([1, 2, 3, 4, 5, 6])
        for report in (
            guess_holonomic(six, 10**9, 10**9, assume_bound=True),
            guess_cfinite(six, 10**9, assume_bound=True),
        ):
            assert report.result is None
        seq = expand_terms(corpus.catalan_system(), 20)
        report = guess_holonomic(seq, 10**9, 10**9, assume_bound=True)
        assert report == guess_holonomic(seq, 20, 20)
        assert report.shape == ("holonomic", 1, 1) and not report.proven
        fib = expand_terms(corpus.fibonacci_system(), 20)
        assert guess_cfinite(fib, 10**9, assume_bound=True) == guess_cfinite(fib, 20)


class TestRoundTrips:
    def test_cfinite_roundtrip(self):
        rng = random.Random(2024)
        for _ in range(100):
            system = corpus.random_cfinite(rng, max_order=4)
            minimum = 2 * system.order + 1
            data = expand_terms(system, 3 * minimum)
            report = guess_cfinite(data, system.order, margin=1)
            assert report.result is not None
            fresh = expand_terms(system, 50)
            assert verify_annihilates(report.result.operator, fresh, 0) is None

    def test_holonomic_roundtrip(self):
        rng = random.Random(2025)
        found = 0
        for _ in range(100):
            system = corpus.random_holonomic(rng, max_order=3, max_degree=2)
            minimum = holonomic_fit_length(system.order, 2)
            data = expand_terms(system, 3 * minimum)
            report = guess_holonomic(data, system.order, 2, margin=1)
            assert report.result is not None
            fresh = expand_terms(system, 50)
            assert (
                verify_annihilates(
                    report.result.operator, fresh, report.result.validity_offset
                )
                is None
            )
            found += 1
        assert found == 100

    def test_polynomial_roundtrip(self):
        rng = random.Random(2026)
        for _ in range(100):
            poly = corpus.random_polynomial_poly(rng, max_degree=4)
            seq = Sequence([poly.evaluate(F(n)) for n in range(16)])
            report = guess_polynomial(seq, 4)
            assert report.poly == poly


def count_calls(monkeypatch, name):
    """Record each call of the exact routine ``name`` as the guessers see it."""
    calls = []
    original = getattr(guess_module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(guess_module, name, counted)
    return calls


def says_nothing(rows):
    """A rank profile that says nothing: rank 0 and the relation [1], which
    reaches past no shape's lower bound, so every shape runs the kernel on
    all its equations."""
    return [], [1]


def report_summary(report):
    system = report.result
    if system is None:
        return (report.shape, None)
    return (
        report.shape,
        tuple(system.operator.coeffs),
        tuple(system.initials),
        system.validity_offset,
        report.terms_used_for_fit,
        report.terms_verified,
        report.proven,
    )


class TestModularPrefilter:
    def test_no_fit_runs_no_exact_elimination(self, monkeypatch):
        rng = random.Random(4)
        seq = Sequence([rng.randint(-10**6, 10**6) for _ in range(80)])
        null_calls = count_calls(monkeypatch, "null_vectors")
        assert guess_holonomic(seq, 3, 3).result is None
        assert guess_cfinite(seq, 10).result is None
        assert null_calls == []

    def test_multiples_of_p_take_exact_path(self, monkeypatch):
        # every residue is 0, so every shape is dependent mod p
        seq = expand_terms(corpus.catalan_system(), 20)
        scaled = Sequence([PRIME * t for t in seq.terms])
        lifts = count_calls(monkeypatch, "_lift")
        null_calls = count_calls(monkeypatch, "null_vectors")
        report = guess_holonomic(seq, 2, 2)
        # shapes (1, 0) and (2, 0) are rejected mod p, (1, 1) fits and its
        # relation mod p is lifted
        assert (len(lifts), len(null_calls)) == (1, 0)
        scaled_report = guess_holonomic(scaled, 2, 2)
        # rank 0 lifts nothing, and all three shapes run the kernel
        assert (len(lifts), len(null_calls)) == (1, 3)
        assert scaled_report.shape == report.shape == ("holonomic", 1, 1)
        assert scaled_report.result.operator.coeffs == report.result.operator.coeffs

    def test_multiples_of_p_cfinite(self, monkeypatch):
        seq = expand_terms(corpus.fibonacci_system(), 20)
        scaled = Sequence([PRIME * t for t in seq.terms])
        lifts = count_calls(monkeypatch, "_lift")
        null_calls = count_calls(monkeypatch, "null_vectors")
        report = guess_cfinite(seq, 3)
        assert (len(lifts), len(null_calls)) == (1, 0)
        scaled_report = guess_cfinite(scaled, 3)
        assert (len(lifts), len(null_calls)) == (1, 2)
        assert list(scaled_report.result.operator.coeffs) == [-1, -1, 1]
        assert report.result.operator.coeffs == scaled_report.result.operator.coeffs

    def test_denominator_p_falls_back(self, monkeypatch):
        # the residues come from the cleared terms, here the Catalan numbers
        # themselves, so the prefilter rejects (1, 0) and (2, 0) as it does
        # on the unscaled terms, and (1, 1) lifts its relation mod p
        seq = expand_terms(corpus.catalan_system(), 20)
        shrunk = Sequence([t / PRIME for t in seq.terms])
        assert all(t.denominator == PRIME for t in shrunk.terms)
        lifts = count_calls(monkeypatch, "_lift")
        null_calls = count_calls(monkeypatch, "null_vectors")
        report = guess_holonomic(shrunk, 2, 2)
        assert (len(lifts), len(null_calls)) == (1, 0)
        assert report.shape == ("holonomic", 1, 1)
        expected = guess_holonomic(seq, 2, 2).result.operator.coeffs
        assert report.result.operator.coeffs == expected
        assert list(report.result.initials) == [F(1, PRIME)]

    def test_unlucky_prime_reruns_on_all_equations(self, monkeypatch):
        # a term moved by PRIME keeps every residue, so mod p the fit rows
        # still show the Catalan relation and pick too few equations; the
        # exact check over all equations rejects its vector
        seq = expand_terms(corpus.catalan_system(), 24)
        n = Poly([0, 1], QQ, "n")
        for index, validity in ((3, 2), (20, 19)):
            terms = list(seq.terms)
            terms[index] += PRIME
            bad = Sequence(terms)
            null_calls = count_calls(monkeypatch, "null_vectors")
            report = guess_holonomic(bad, 2, 2)
            cfinite = guess_cfinite(bad, 4)
            # (1, 1), (2, 1), (1, 2) and (2, 2): a few picked equations, then all
            equations = [len(args[0][0]) for args in null_calls]
            assert equations[:8] == [3, 23, 4, 23, 4, 22, 5, 22]
            assert report.shape == ("holonomic", 2, 2)
            assert report.result.validity_offset == validity
            assert report == field_guess_holonomic(bad, 2, 2)
            if index == 3:
                assert report.result.operator.coeffs == (
                    28 * n**2 - 70 * n - 42,
                    -15 * n**2 + 3 * n + 54,
                    2 * n**2 + 4 * n - 6,
                )
            monkeypatch.setattr(guess_module, "rank_profile_mod_p", says_nothing)
            assert guess_holonomic(bad, 2, 2) == report
            assert guess_cfinite(bad, 4) == cfinite
            monkeypatch.undo()

    def test_reports_match_exact_search(self, monkeypatch):
        rng = random.Random(2027)
        sequences = []
        for k in range(36):
            if k % 3 == 0:
                system = corpus.random_holonomic(rng, max_order=2, max_degree=2)
                sequences.append(expand_terms(system, 30))
            elif k % 3 == 1:
                system = corpus.random_cfinite(rng, max_order=3)
                sequences.append(expand_terms(system, 24))
            else:
                sequences.append(Sequence([rng.randint(-50, 50) for _ in range(30)]))

        def run_all():
            return [
                (
                    report_summary(guess_holonomic(seq, 2, 2)),
                    report_summary(guess_cfinite(seq, 4)),
                )
                for seq in sequences
            ]

        null_calls = count_calls(monkeypatch, "null_vectors")
        filtered = run_all()
        filtered_calls = len(null_calls)
        monkeypatch.setattr(guess_module, "rank_profile_mod_p", says_nothing)
        assert run_all() == filtered
        assert len(null_calls) - filtered_calls > 2 * filtered_calls
        assert any(holonomic[1] is None for holonomic, _ in filtered)
        assert any(cfinite[1] is not None for _, cfinite in filtered)

    def test_reports_match_exact_search_with_p_in_denominators(self, monkeypatch):
        # a leading coefficient times PRIME puts PRIME into the denominators
        # of the terms past the integer initials, so the cleared terms there
        # are multiples of PRIME only at the initials
        rng = random.Random(61)

        def sequence(k):
            if k % 3 == 2:
                terms = [F(rng.randint(-50, 50)) for _ in range(30)]
                for index in rng.sample(range(30), 5):
                    terms[index] /= PRIME
                return Sequence(terms)
            if k % 3 == 0:
                system = corpus.random_holonomic(rng, max_order=2, max_degree=2)
            else:
                system = corpus.random_cfinite(rng, max_order=3)
            coeffs = list(system.operator.coeffs)
            coeffs[-1] = coeffs[-1] * PRIME
            operator = ShiftOperator(system.operator.ring, coeffs)
            return expand_terms(RecurrenceSystem(operator, system.initials), 24)

        sequences = []
        while len(sequences) < 24:
            seq = sequence(len(sequences))
            divisible = [t.denominator % PRIME == 0 for t in seq.terms]
            if any(divisible) and not all(divisible):
                sequences.append(seq)

        def run_all():
            return [
                (
                    report_summary(guess_holonomic(seq, 2, 2)),
                    report_summary(guess_cfinite(seq, 4)),
                )
                for seq in sequences
            ]

        filtered = run_all()
        monkeypatch.setattr(guess_module, "rank_profile_mod_p", says_nothing)
        assert run_all() == filtered
        assert any(holonomic[1] is None for holonomic, _ in filtered)
        assert any(holonomic[1] is not None for holonomic, _ in filtered)
        assert any(cfinite[1] is not None for _, cfinite in filtered)


class TestLiftedFits:
    """A shape's first relation mod p, lifted and checked exactly, against
    the kernel alone: every report must be the one the guessers give with
    the lift forced to fail."""

    # zero-heavy terms whose first fit vector at the shape found has a
    # leading coefficient with a natural root past the data, so the search
    # takes the kernel's next vector of that shape: in the first, (1, 3)
    # has the leading coefficient 5 n^2 - 1805 n + 15840 = 5 (n - 9) (n - 352)
    FURTHER = [
        ([3, 3, 0, 0, 0, 0, 0, 0, 0, 0, 1, -2, 2, 0, 0, 0, 0, 0, 0, 0, 0], 2),
        ([0, 0, 0, 0, -2, 0, -3, 0, 3, 0, 1, 0, 1, 0, 0], 1),
        ([0, -2, 0, 0, 0, 0, 0, 3, 0, 2, 0, -2, 0, 2, 0, 0, 0], 2),
    ]

    @classmethod
    def draws(cls):
        """(sequence, holonomic bounds, margin) over six kinds of data."""
        rng = random.Random(3307)
        for k in range(240):
            kind = k % 6
            if kind == 5:
                terms, margin = cls.FURTHER[k // 6 % len(cls.FURTHER)]
                scale = F(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4))
                yield Sequence([scale * t for t in terms], rng.randint(0, 3)), (2, 3), margin
                continue
            if k % 12 < 6:
                system = corpus.random_holonomic(rng, max_order=2, max_degree=2)
            else:
                system = corpus.random_cfinite(rng, max_order=3)
            if kind == 1:
                # coefficients above the reconstruction bound sqrt(p / 2)
                coeffs = list(system.operator.coeffs)
                coeffs[0] = coeffs[0] * rng.choice([23209, -30011, 99991])
                if not coeffs[0]:
                    coeffs[0] = coeffs[-1] * 46349
                operator = ShiftOperator(system.operator.ring, coeffs)
                system = RecurrenceSystem(operator, system.initials)
            terms = list(expand_terms(system, 26).terms)
            if kind == 2:  # every residue 0: rank 0
                terms = [PRIME * t for t in terms]
            elif kind == 3:  # one term moved by PRIME: an unlucky prime
                terms[rng.randrange(len(terms))] += PRIME
            elif kind == 4:  # no relation
                terms = [F(rng.randint(-9, 9), rng.randint(1, 2)) for _ in terms]
            if any(terms):
                yield Sequence(terms), (2, 2), 5

    def test_reports_match_the_kernel(self, monkeypatch):
        seen = dict.fromkeys(["rank 0", "held", "unreconstructed", "refuted", "further"], 0)
        state = {"lifted": None, "held": False}
        lift, holds, kernel = guess_module._lift, guess_module._holds, guess_module.null_vectors
        profile, relations = guess_module.rank_profile_mod_p, guess_module._relations

        def watched_profile(rows):
            found = profile(rows)
            seen["rank 0"] += found is not None and not found[0]
            return found

        def watched_relations(*args):
            state.update(lifted=None, held=False)
            return relations(*args)

        def watched_lift(relation):
            state["lifted"] = vector = lift(relation)
            seen["unreconstructed"] += vector is None
            return vector

        def watched_holds(coeffs, rows):
            held = holds(coeffs, rows)
            if coeffs is state["lifted"]:
                state["held"] = held
                seen["held" if held else "refuted"] += 1
            return held

        def watched_kernel(rows):
            # after a lifted vector that held, only a caller that asks
            # for a further vector runs the kernel
            seen["further"] += state["held"]
            return kernel(rows)

        def run_all():
            return [
                (
                    guess_holonomic(seq, *bounds, margin=margin),
                    guess_cfinite(seq, 4, margin=margin),
                )
                for seq, bounds, margin in self.draws()
            ]

        monkeypatch.setattr(guess_module, "rank_profile_mod_p", watched_profile)
        monkeypatch.setattr(guess_module, "_relations", watched_relations)
        monkeypatch.setattr(guess_module, "_lift", watched_lift)
        monkeypatch.setattr(guess_module, "_holds", watched_holds)
        monkeypatch.setattr(guess_module, "null_vectors", watched_kernel)
        lifted = run_all()
        assert min(seen.values()) >= 10, seen
        monkeypatch.setattr(guess_module, "_lift", lambda relation: None)
        assert run_all() == lifted
        assert len(lifted) >= 200
        hits = [report.shape for pair in lifted for report in pair if report.result is not None]
        assert len(hits) >= 200


def holonomic_of_shape(rng, order, degree, count=40):
    """A random holonomic system whose operator has exactly this shape and
    whose first ``count`` terms are nonzero (a zero trailing coefficient at
    some n can make the terms vanish from there on), with those terms."""
    while True:
        system = corpus.random_holonomic(rng, max_order=order, max_degree=degree)
        coeffs = system.operator.coeffs
        if len(coeffs) == order + 1 and max(c.degree for c in coeffs) == degree:
            seq = expand_terms(system, count)
            if all(seq.terms):
                return system, seq


def shape_calls(calls, seq, order, degree):
    """The recorded rank profiles of shape (order, degree): its
    (order + 1)(degree + 1) fit rows on all its len(seq) - order windows."""
    size, windows = (order + 1) * (degree + 1), len(seq) - order
    return [rows for (rows,) in calls if len(rows) == size and len(rows[0]) == windows]


class TestNoFitGate:
    """The staircase: once the rejected shapes have cost as much sum k^3
    as the maximal covered shapes, the search profiles each of those mod p
    on all its windows and stops when every one is independent."""

    def test_reports_match_exact_search(self, monkeypatch):
        rng = random.Random(24)
        cases = []  # (sequence, bounds, whether the staircase must run)
        for bounds in ((4, 4), (3, 3)):
            for _ in range(3):
                noise = [rng.randint(-99, 99) for _ in range(120)]
                cases.append((Sequence(noise), bounds, True))
            # a term divisible by PRIME has residue 0
            noise[rng.randrange(120)] = PRIME * rng.randint(1, 9)
            cases.append((Sequence(noise), bounds, True))
        for order in range(1, 5):
            for degree in range(5):
                seq = holonomic_of_shape(rng, order, degree)[1]
                # the staircase runs before the shapes of more than 16 unknowns
                gated = (order + 1) * (degree + 1) > 16
                cases.append((seq, (4, 4), gated))
                if order < 4 and degree < 4:
                    cases.append((seq, (3, 3), (order, degree) == (3, 3)))
        # hits at the maximal shapes whose first term is divisible by PRIME,
        # and whose terms all are: every residue 0 leaves the staircase
        # dependent
        for bounds in ((4, 4), (3, 3)):
            system = holonomic_of_shape(rng, *bounds)[0]
            initials = [PRIME] + list(system.initials[1:])
            seq = expand_terms(RecurrenceSystem(system.operator, initials), 40)
            cases.append((seq, bounds, True))
            cases.append((Sequence([PRIME * t for t in seq.terms]), bounds, True))

        calls = count_calls(monkeypatch, "rank_profile_mod_p")
        reports = []
        for seq, bounds, gated in cases:
            del calls[:]
            report = guess_holonomic(seq, *bounds)
            reports.append(report_summary(report))
            # every shape is covered, so the staircase is the bounds alone,
            # profiled once by the staircase and kept for when the search
            # gets there
            maximal = shape_calls(calls, seq, *bounds)
            assert len(maximal) == gated
        monkeypatch.setattr(guess_module, "rank_profile_mod_p", says_nothing)
        exact = [report_summary(guess_holonomic(seq, *bounds)) for seq, bounds, _ in cases]
        assert exact == reports
        assert sum(report[1] is None for report in reports) == 8
        hits = {report[0] for report in reports if report[1] is not None}
        shapes = {("holonomic", o, d) for o in range(1, 5) for d in range(5)}
        assert hits == shapes

    def test_no_fit_profiles_fewer_shapes(self, monkeypatch):
        rng = random.Random(5)
        seq = Sequence([rng.randint(-99, 99) for _ in range(120)])
        calls = count_calls(monkeypatch, "rank_profile_mod_p")
        assert guess_holonomic(seq, 4, 4).result is None
        # the staircase of the 20 shapes is (4, 4) alone: the 17 of at most
        # 16 unknowns cost sum k^3 = 18775 >= 25^3, then (4, 4) on all its
        # windows rejects the other three
        *shapes, (last,) = calls
        assert len(shapes) == 17 and all(len(rows) <= 16 for (rows,) in shapes)
        assert shape_calls(calls, seq, 4, 4) == [last]

    def test_uncovered_gate_shape_is_not_tested(self, monkeypatch):
        # 33 terms cover the fit length plus margin of the 19 shapes but
        # (4, 4), so the staircase is (3, 4) and (4, 3), of sum k^3 =
        # 2 * 20^3: after the 17 shapes of at most 16 unknowns both are
        # profiled on all their windows and the search stops
        rng = random.Random(6)
        seq = Sequence([rng.randint(-99, 99) for _ in range(33)])
        calls = count_calls(monkeypatch, "rank_profile_mod_p")
        assert guess_holonomic(seq, 4, 4).result is None
        *shapes, (first,), (second,) = calls
        assert len(shapes) == 17 and all(len(rows) <= 16 for (rows,) in shapes)
        assert shape_calls(calls, seq, 3, 4) == [first]
        assert shape_calls(calls, seq, 4, 3) == [second]
        assert not shape_calls(calls, seq, 4, 4)

    def test_staircase_ends_a_search_at_huge_bounds(self, monkeypatch):
        # at bounds 10**9 no covered shape is largest in both order and
        # degree: 100 terms cover 268 shapes, 16 of them maximal
        covered = {
            (r, d) for r in range(1, 100) for d in range(100)
            if holonomic_fit_length(r, d) + 5 <= 100
        }
        maximal = sorted(
            (r, d) for r, d in covered if (r + 1, d) not in covered and (r, d + 1) not in covered
        )
        assert (len(covered), len(maximal)) == (268, 16)
        rng = random.Random(32)
        terms = [rng.randint(-9, 9) for _ in range(100)]
        calls = count_calls(monkeypatch, "rank_profile_mod_p")
        for zeros in (False, True):
            if zeros:
                # window 10 of every order-1 shape is zero, so the K x K
                # square of the maximal order-1 shape (1, 46) is singular
                terms[10] = terms[11] = 0
            seq = Sequence(terms)
            del calls[:]
            assert guess_holonomic(seq, 10**9, 10**9).result is None
            assert len(calls) < len(covered)
            # the search ends on the staircase, each shape on all its windows
            assert [(len(rows), len(rows[0])) for (rows,) in calls[-16:]] == [
                ((r + 1) * (d + 1), 100 - r) for r, d in maximal
            ]
        (rows,) = calls[-16]
        assert rank_profile_mod_p([row[:94] for row in rows]) is not None


def field_guess_cfinite(seq, max_order, margin=5, assume_bound=False):
    """Reference C-finite guesser on the field kernel: the solution of the
    shifted-window system with the last coefficient one, by ``solve_linear``."""
    length, terms = len(seq), seq.terms
    for order in range(1, max_order + 1):
        fit = 2 * order
        if length < fit + max(margin, 1):
            break
        windows = length - order
        rows = [[terms[j + i] for i in range(order)] for j in range(windows)]
        rhs = [-terms[j + order] for j in range(windows)]
        coeffs = solve_linear(rows, rhs, RATIONALS)
        if coeffs is not None:
            operator = ShiftOperator(CoeffRing.CONSTANT, coeffs + [F(1)])
            system = RecurrenceSystem(operator, terms[:order], seq.offset, seq.offset)
            proven = assume_bound and length >= 2 * max_order
            return GuessReport(system, ("cfinite", order, 0), fit, length - fit, proven=proven)
    return GuessReport(None, ("cfinite", None, None), 0, 0)


def field_guess_holonomic(seq, max_order, max_degree, margin=5, assume_bound=False):
    """Reference holonomic guesser on the field kernel: every
    ``left_null_space`` vector of each shape, scaled to coprime integers
    with a positive leading coefficient of the N^order coefficient."""
    length, terms, offset = len(seq), seq.terms, seq.offset
    shapes = sorted(
        ((r, d) for r in range(1, max_order + 1) for d in range(max_degree + 1)),
        key=lambda s: ((s[0] + 1) * (s[1] + 1), s[0]),
    )
    for order, degree in shapes:
        fit = holonomic_fit_length(order, degree)
        if length < fit + max(margin, 1):
            continue
        windows = length - order
        rows = [
            [F(offset + w) ** j * terms[w + i] for w in range(windows)]
            for i in range(order + 1)
            for j in range(degree + 1)
        ]
        for vector in left_null_space(rows, RATIONALS):
            polys = [Poly(vector[i * (degree + 1) : (i + 1) * (degree + 1)], QQ, "n")
                     for i in range(order + 1)]
            if not polys[order]:
                continue
            content = rational_content([c for p in polys for c in p.coeffs])
            polys = [p.scale(1 / content) for p in polys]
            if polys[order].leading < 0:
                polys = [-p for p in polys]
            operator = ShiftOperator(CoeffRing.POLY_N, polys)
            validity = max(offset, leading_validity_offset(operator))
            needed = validity - offset + order
            if verify_annihilates(operator, seq, offset) is not None or length < needed:
                continue
            system = RecurrenceSystem(operator, terms[:needed], validity, offset)
            proven = assume_bound and length >= holonomic_fit_length(max_order, max_degree)
            return GuessReport(system, ("holonomic", order, degree), fit, length - fit,
                               proven=proven)
    return GuessReport(None, ("holonomic", None, None), 0, 0)


class TestFieldKernelReference:
    """The guessers against their fits on the field kernel."""

    @staticmethod
    def sequences():
        rng = random.Random(2031)
        for k in range(40):
            if k % 2:
                seq = expand_terms(corpus.random_holonomic(rng, max_order=2, max_degree=2), 28)
            else:
                seq = expand_terms(corpus.random_cfinite(rng, max_order=3), 24)
            if k % 5 == 1:  # rational terms
                scale = F(rng.randint(1, 9), rng.randint(2, 9))
                seq = Sequence([scale * t for t in seq.terms])
            elif k % 5 == 2:  # a later start
                start = rng.randint(1, 4)
                seq = Sequence(seq.terms[start:], start)
            elif k % 5 == 3:  # one perturbed term
                terms = list(seq.terms)
                terms[rng.randrange(len(terms))] += F(1, rng.randint(1, 4))
                seq = Sequence(terms, seq.offset)
            elif k % 5 == 4:  # no relation at all
                seq = Sequence([F(rng.randint(-50, 50), rng.randint(1, 3)) for _ in range(26)])
            if any(seq.terms):
                yield seq, k % 3 == 0

    def compare(self):
        found = {"cfinite": 0, "holonomic": 0, "none": 0}
        for seq, assume_bound in self.sequences():
            cfinite = guess_cfinite(seq, 4, assume_bound=assume_bound)
            assert cfinite == field_guess_cfinite(seq, 4, assume_bound=assume_bound)
            holonomic = guess_holonomic(seq, 2, 2, assume_bound=assume_bound)
            assert holonomic == field_guess_holonomic(seq, 2, 2, assume_bound=assume_bound)
            found["cfinite"] += cfinite.result is not None
            found["holonomic"] += holonomic.result is not None
            found["none"] += holonomic.result is None and cfinite.result is None
        return found

    def test_reports_match(self):
        found = self.compare()
        assert min(found.values()) >= 6, found

    def test_reports_match_without_prefilter(self, monkeypatch):
        # every shape, no-fits included, then runs exact elimination
        calls = count_calls(monkeypatch, "null_vectors")
        monkeypatch.setattr(guess_module, "rank_profile_mod_p", says_nothing)
        found = self.compare()
        assert min(found.values()) >= 6, found
        assert len(calls) > 40 * 4

    def test_failing_candidate_is_internal_error(self, monkeypatch):
        # a lifted vector that fails its check falls back to the kernel,
        # whose vectors, failing on all equations too, are an internal error
        original = guess_module.null_vectors
        original_lift = guess_module._lift

        def corrupted(rows):
            for vector in original(rows):
                yield vector[:-1] + [[2 * vector[-1][0]]]

        def corrupted_lift(relation):
            vector = original_lift(relation)
            return vector[:-1] + [2 * vector[-1]]

        monkeypatch.setattr(guess_module, "null_vectors", corrupted)
        monkeypatch.setattr(guess_module, "_lift", corrupted_lift)
        lifts = count_calls(monkeypatch, "_lift")
        catalan = expand_terms(corpus.catalan_system(), 20)
        with pytest.raises(InternalError, match="fails on its own data"):
            guess_holonomic(catalan, 2, 2)
        fibonacci = expand_terms(corpus.fibonacci_system(), 20)
        with pytest.raises(InternalError, match="fails on its own data"):
            guess_cfinite(fibonacci, 3)
        assert len(lifts) == 2
