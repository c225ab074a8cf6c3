"""Randomized property suites with fixed seeds.

Covers the guess/expand round trips, closure annihilation on directly
computed terms, generating-function series consistency, order/degree
bound assertions, closed-form round trips, and the canonical form of
exponential polynomials with the cached expansions it makes exact.
"""

import random
from fractions import Fraction

from ansatzkit import (
    ADD,
    CAUCHY,
    PARTIAL_SUM,
    RATIONAL_FIELD,
    SUBSEQUENCE,
    TERMWISE,
    ExpPoly,
    ExpPolyFraction,
    NumberField,
    Poly,
    Sequence,
    c2_to_diff,
    cfinite_closed_form,
    cfinite_from_rational,
    closed_form_to_recurrence,
    combine,
    expand_terms,
    genfun_cfinite,
    guess_cfinite,
    holonomic_to_diff,
    homogenize,
    poly_closure,
    verify_annihilates,
)
from ansatzkit.errors import UnsupportedFactorization

import conftest as corpus

F = Fraction


def combined_reference(kind, sys_a, sys_b, count, mult=2):
    if kind == SUBSEQUENCE:
        inner = expand_terms(sys_a, mult * (count - 1) + 1)
        return Sequence([inner.value(mult * n) for n in range(count)])
    if kind == PARTIAL_SUM:
        inner = expand_terms(sys_a, count)
        acc, out = F(0), []
        for v in inner.terms:
            acc += v
            out.append(acc)
        return Sequence(out)
    a = expand_terms(sys_a, count)
    b = expand_terms(sys_b, count)
    if kind == ADD:
        return Sequence([x + y for x, y in zip(a.terms, b.terms)])
    if kind == TERMWISE:
        return Sequence([x * y for x, y in zip(a.terms, b.terms)])
    if kind == CAUCHY:
        return Sequence(
            [
                sum((a.terms[i] * b.terms[n - i] for i in range(n + 1)), F(0))
                for n in range(count)
            ]
        )
    raise AssertionError(kind)


class TestClosureAnnihilation:
    """Closure outputs annihilate 50 directly computed terms."""

    def _check(self, kind, sys_a, sys_b, mult=2):
        system = combine(kind, sys_a, sys_b, mult=mult)
        count = max(50, len(system.initials) + system.order + 1)
        reference = combined_reference(kind, sys_a, sys_b, count, mult)
        assert (
            verify_annihilates(system.operator, reference, system.validity_offset)
            is None
        )

    def test_polynomial_class(self):
        rng = random.Random(31001)
        for _ in range(50):
            a = corpus.random_polynomial_poly(rng, 3)
            b = corpus.random_polynomial_poly(rng, 3)
            for kind in (ADD, TERMWISE, CAUCHY, PARTIAL_SUM, SUBSEQUENCE):
                if kind in (PARTIAL_SUM, SUBSEQUENCE):
                    result = poly_closure(kind, a, mult=2)
                else:
                    result = poly_closure(kind, a, b)
                reference = (
                    [a.evaluate(F(2 * n)) for n in range(12)]
                    if kind == SUBSEQUENCE
                    else None
                )
                if kind == ADD:
                    reference = [
                        a.evaluate(F(n)) + b.evaluate(F(n)) for n in range(12)
                    ]
                elif kind == TERMWISE:
                    reference = [
                        a.evaluate(F(n)) * b.evaluate(F(n)) for n in range(12)
                    ]
                elif kind == CAUCHY:
                    reference = [
                        sum(
                            (a.evaluate(F(i)) * b.evaluate(F(n - i)) for i in range(n + 1)),
                            F(0),
                        )
                        for n in range(12)
                    ]
                elif kind == PARTIAL_SUM:
                    acc, reference = F(0), []
                    for n in range(12):
                        acc += a.evaluate(F(n))
                        reference.append(acc)
                assert reference == [result.evaluate(F(n)) for n in range(12)]

    def test_cfinite_class(self):
        rng = random.Random(31002)
        for index in range(50):
            sys_a = corpus.random_cfinite(rng, 3)
            sys_b = corpus.random_cfinite(rng, 3)
            kind = (ADD, TERMWISE, CAUCHY, PARTIAL_SUM, SUBSEQUENCE)[index % 5]
            self._check(kind, sys_a, sys_b)

    def test_holonomic_class(self):
        rng = random.Random(31003)
        for index in range(50):
            sys_a = corpus.random_holonomic(rng, 2, 1)
            sys_b = corpus.random_holonomic(rng, 2, 1)
            kind = (ADD, TERMWISE, PARTIAL_SUM, SUBSEQUENCE)[index % 4]
            self._check(kind, sys_a, sys_b)

    def test_c2_class(self):
        rng = random.Random(31004)
        for index in range(50):
            sys_a = corpus.random_c2(rng, 2)
            sys_b = corpus.random_c2(rng, 2)
            kind = (ADD, TERMWISE, PARTIAL_SUM, SUBSEQUENCE)[index % 4]
            self._check(kind, sys_a, sys_b)


class TestGuessExpandRoundTrips:
    """Covered per class in test_guessers; here the cross-check reuses the
    closure RNG streams to vary shapes."""

    def test_cfinite_independent_stream(self):
        rng = random.Random(31005)
        for _ in range(40):
            system = corpus.random_cfinite(rng, 4)
            data = expand_terms(system, 6 * system.order + 3)
            report = guess_cfinite(data, system.order, margin=1)
            assert report.result is not None
            fresh = expand_terms(system, 50)
            assert verify_annihilates(report.result.operator, fresh, 0) is None


class TestSeriesConsistency:
    """Generating-function outputs reproduce 20 series terms exactly."""

    def test_fifty_cases(self):
        rng = random.Random(31006)
        for index in range(50):
            pick = index % 3
            if pick == 0:
                system = corpus.random_cfinite(rng, 3)
                gf = genfun_cfinite(system)
                terms = expand_terms(system, 20)
                assert gf.series(20) == list(terms.terms)
                back = cfinite_from_rational(gf)
                expanded = expand_terms(back, 20)
                assert list(expanded.terms) == list(terms.terms)
            elif pick == 1:
                system = corpus.random_holonomic(rng, 2, 1)
                equation = holonomic_to_diff(system)
                terms = expand_terms(system, 20 + equation.order)
                assert all(
                    not r for r in equation.series_residual(terms.terms, 20)
                )
                hom = homogenize(equation)
                assert all(not r for r in hom.series_residual(terms.terms, 18))
            else:
                system = corpus.random_c2(rng, 2)
                equation = c2_to_diff(system)
                terms = expand_terms(system, 20 + equation.order)
                assert all(
                    not r for r in equation.series_residual(terms.terms, 20)
                )


class TestClosedFormRoundTrips:
    """cfinite_closed_form and closed_form_to_recurrence are inverse."""

    def test_fifty_cases(self):
        rng = random.Random(31007)
        done = 0
        while done < 50:
            system = corpus.random_cfinite(rng, 3)
            try:
                closed = cfinite_closed_form(system)
            except UnsupportedFactorization:
                continue
            seq = expand_terms(system, 40)
            for n in range(40):
                assert closed.evaluate(n) == seq.value(n)
            if closed.expression:
                back = closed_form_to_recurrence(closed.expression)
                start = closed.valid_from
                assert verify_annihilates(back.operator, seq, start) is None
            done += 1


def _field_pools():
    golden = NumberField([-1, -1, 1])
    phi = golden.generator()
    rational = [RATIONAL_FIELD.from_rational(q) for q in (1, -1, 2, -2, F(1, 2), 3)]
    irrational = [golden.one, -golden.one, phi, -phi, 1 - phi, phi * phi, golden.from_rational(2)]
    return [(RATIONAL_FIELD, rational), (golden, irrational)]


def _random_pairs(rng, field, pool, most=4):
    """Raw (base, poly) pairs with repeated bases, so terms merge and cancel."""
    pairs = []
    for _ in range(rng.randint(0, most)):
        coeffs = [F(rng.randint(-2, 2), rng.choice([1, 1, 2])) for _ in range(rng.randint(1, 3))]
        pairs.append((rng.choice(pool), Poly([field.coerce(c) for c in coeffs], field, "n")))
    return pairs


def _assert_canonical(e):
    coords = [base.coords for base, _ in e.terms]
    assert coords == sorted(set(coords))
    assert all(poly for _, poly in e.terms)
    assert e.terms == ExpPoly(e.field, e.terms).terms


def _fresh_product(field, factors):
    product = ExpPoly.constant(1, field)
    for f in factors:
        product = product * f
    return product


def _assert_expansions_exact(x):
    assert x.expanded_num() == _fresh_product(x.field, x.num_factors)
    assert x.expanded_den() == _fresh_product(x.field, x.den_factors)


class TestExpPolyCanonicalForm:
    """Arithmetic results are the terms the public constructor builds from
    the raw pairs, and cached fraction expansions are the products of the
    factor lists."""

    def test_results_match_the_public_constructor(self):
        rng = random.Random(15001)
        for field, pool in _field_pools():
            two = field.from_rational(2)
            minus_one = -field.one
            fixed = [
                [(two, 1), (two, -1)],  # 2^n - 2^n
                [(minus_one, 1), (field.one, 1), (minus_one, -1)],
            ]
            for trial in range(80):
                pairs_a = fixed[trial] if trial < len(fixed) else _random_pairs(rng, field, pool)
                pairs_b = _random_pairs(rng, field, pool)
                a, b = ExpPoly(field, pairs_a), ExpPoly(field, pairs_b)
                value = field.from_rational(F(rng.randint(-3, 3), rng.randint(1, 3)))
                mult, offset = rng.randint(1, 3), rng.randint(-2, 3)
                cases = [
                    (a + b, list(a.terms) + list(b.terms)),
                    (a - b, list(a.terms) + [(base, -p) for base, p in b.terms]),
                    (a - a, list(a.terms) + [(base, -p) for base, p in a.terms]),
                    (-a, [(base, -p) for base, p in a.terms]),
                    (a * b, [(x * y, p * q) for x, p in a.terms for y, q in b.terms]),
                    (a.scale(value), [(base, p.scale(value)) for base, p in a.terms]),
                    (
                        a.compose_arg(mult, offset),
                        [
                            (base**mult, p.compose_linear(mult, offset).scale(base**offset))
                            for base, p in a.terms
                        ],
                    ),
                ]
                for result, raw in cases:
                    _assert_canonical(result)
                    assert result.terms == ExpPoly(field, raw).terms
                composed = a.compose_arg(mult, offset)
                for k in range(4):
                    if mult * k + offset >= 0:
                        assert composed.evaluate(k) == a.evaluate(mult * k + offset)
            assert not ExpPoly(field, fixed[0])

    def test_cached_expansions_are_fresh_products(self):
        rng = random.Random(15002)
        for field, pool in _field_pools():
            for _ in range(6):
                fractions = []
                while len(fractions) < 4:
                    e = ExpPoly(field, _random_pairs(rng, field, pool, most=2))
                    if e:
                        fractions.append(ExpPolyFraction.from_exppoly(e))
                for _ in range(14):
                    x, y = rng.choice(fractions), rng.choice(fractions)
                    for z in (x, y):
                        if rng.random() < 0.6:
                            z.expanded_num()
                        if rng.random() < 0.4:
                            z.expanded_den()
                    op = rng.choice(["mul", "div", "add", "sub", "neg"])
                    if op == "div" and not y:
                        continue
                    result = {
                        "mul": lambda: x * y,
                        "div": lambda: x / y,
                        "add": lambda: x + y,
                        "sub": lambda: x - y,
                        "neg": lambda: -x,
                    }[op]()
                    _assert_expansions_exact(result)
                    if len(result.num_factors) + len(result.den_factors) <= 6:
                        fractions.append(result)
        # a chain in which a factor cancels: the product of the cached
        # expansions is not the expansion of what is left
        field, pool = _field_pools()[1]
        a, b, c = (ExpPoly(field, [(pool[2], 1), (pool[i], 1)]) for i in (0, 4, 6))
        x = ExpPolyFraction(field, [a], [b])
        y = ExpPolyFraction(field, [b, c])
        for z in (x, y):
            z.expanded_num()
            z.expanded_den()
        product = x * y
        assert product.num_factors == (a, c) and product.den_factors == ()
        _assert_expansions_exact(product)
        quotient = product / ExpPolyFraction(field, [a])
        assert quotient.num_factors == (c,)
        _assert_expansions_exact(quotient)
        assert quotient.expanded_num() == c
        total = quotient + x
        _assert_expansions_exact(total)
        _assert_expansions_exact(total * product)
