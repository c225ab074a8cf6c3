"""Acceptance gate: one test per criterion, exact tolerances throughout.

Everything asserts exact symbolic equality (up to a nonzero rational
scalar where two normalizations of the same relation are in play).  The
only floating-point tolerances in the whole suite are the asymptotic
corroboration ratio (1e-4) and the growth-probe slope (1e-6), both stated
in their criteria.
"""

import math
import os
import random
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
    DiffEquation,
    ExpPoly,
    IdentityClaim,
    Poly,
    QQ,
    RATIONAL_FIELD,
    RationalGF,
    RecurrenceSystem,
    Sequence,
    ShiftOperator,
    c2_combine,
    c2_homogenize,
    c2_to_diff,
    cfinite_closed_form,
    cfinite_combine_gf,
    cfinite_subsequence,
    cfinite_termwise,
    combine,
    expand_terms,
    genfun_cfinite,
    genfun_polynomial,
    growth_probe,
    guess_cfinite,
    guess_holonomic,
    guess_polynomial,
    holonomic_cauchy,
    holonomic_combine,
    holonomic_to_diff,
    homogenize,
    leading_forms,
    prove_identity,
    refine_series,
    verify_annihilates,
)
from ansatzkit.cli import main
from ansatzkit.jsonio import dumps, loads

import conftest as corpus

F = Fraction
FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def x_poly(coeffs):
    return Poly(coeffs, QQ, "x")


def n_poly(coeffs):
    return Poly(coeffs, QQ, "N")


def proportional_coeffs(computed, expected):
    """Vectors of rationals/polys/exppolys equal up to one nonzero scalar."""
    if len(computed) != len(expected):
        return False
    pairs = []
    for a, b in zip(computed, expected):
        if bool(a) != bool(b):
            return False
        if isinstance(a, Poly):
            if len(a.coeffs) != len(b.coeffs):
                return False
            pairs.extend(zip(a.coeffs, b.coeffs))
        else:
            pairs.append((a, b))
    ratio = None
    for a, b in pairs:
        if bool(a) != bool(b):
            return False
        if a:
            r = F(a) / F(b)
            if ratio is None:
                ratio = r
            elif r != ratio:
                return False
    return ratio is not None


def exppoly_vectors_match(computed, expected):
    direct = all(a == b for a, b in zip(computed, expected))
    negated = all(a == -b for a, b in zip(computed, expected))
    return len(computed) == len(expected) and (direct or negated)


@pytest.fixture
def offline_cache(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    cache.mkdir()
    for name in os.listdir(FIXTURES):
        (cache / name).write_text(open(os.path.join(FIXTURES, name)).read())
    monkeypatch.setenv("ANSATZKIT_CACHE", str(cache))
    monkeypatch.setenv(
        "ANSATZKIT_OEIS_URL", "file://" + str(tmp_path / "none") + "/b{digits}.txt"
    )
    return cache


def test_criterion_1_paper_example_regression_corpus():
    # polynomial guess: sum of squares
    squares = Sequence([sum(i * i for i in range(n + 1)) for n in range(21)])
    report = guess_polynomial(squares, 4)
    assert report.poly == Poly([0, F(1, 6), F(1, 2), F(1, 3)], QQ, "n")

    # constant-coefficient guess on the floor sequence
    floor_values = expand_terms(corpus.floor_square_system(), 31)
    report = guess_cfinite(floor_values, 5)
    assert proportional_coeffs(report.result.operator.coeffs, [-1, 2, 0, -2, 1])

    # polynomial-coefficient guesses: harmonic numbers, and the opening sequence
    harmonic = expand_terms(corpus.harmonic_system(), 35)
    report = guess_holonomic(harmonic, 2, 1)
    assert proportional_coeffs(
        report.result.operator.coeffs,
        [Poly([1, 1], QQ, "n"), Poly([-3, -2], QQ, "n"), Poly([2, 1], QQ, "n")],
    )
    opening = [F(1), F(1)]
    while len(opening) < 16:
        n = len(opening) - 2
        opening.append((n + 3) * opening[-1] + (n + 2) * opening[-2])
    report = guess_holonomic(Sequence(opening), 2, 1)
    assert proportional_coeffs(
        report.result.operator.coeffs,
        [Poly([-2, -1], QQ, "n"), Poly([-3, -1], QQ, "n"), Poly([1], QQ, "n")],
    )

    # generating functions
    gf = genfun_polynomial(Poly([0, F(1, 6), F(1, 2), F(1, 3)], QQ, "n"))
    assert gf == RationalGF(x_poly([0, 1, 1]), x_poly([1, -1]) ** 4)
    gf = genfun_cfinite(corpus.floor_square_system())
    assert gf == RationalGF(x_poly([0, 0, 1]), x_poly([1, 1]) * x_poly([1, -1]) ** 3)

    # recurrence -> differential equation, all three worked cases
    def rational_eq(coeff_lists, rhs):
        return DiffEquation(
            RATIONAL_FIELD,
            [(1, [x_poly(c) for c in coeff_lists])],
            x_poly(rhs) if rhs else None,
        )

    assert holonomic_to_diff(corpus.factorial_system()).scalar_multiple_of(
        rational_eq([[1, -1], [0, 0, -1]], [1])
    )
    assert holonomic_to_diff(corpus.catalan_system()).scalar_multiple_of(
        rational_eq([[1, -2], [0, 1, -4]], [1])
    )
    floor_holo = RecurrenceSystem(
        ShiftOperator(CoeffRing.POLY_N, [Poly([2, 1]), Poly([2]), Poly([0, -1])]),
        [0, 0],
    )
    assert holonomic_to_diff(floor_holo).scalar_multiple_of(
        rational_eq([[2, 2, 2], [0, -1, 0, 1]], None)
    )

    # homogenization of the factorial equation
    assert homogenize(holonomic_to_diff(corpus.factorial_system())).scalar_multiple_of(
        rational_eq([[1], [-1, 3], [0, 0, 1]], None)
    )

    # closed form of the floor sequence
    closed = cfinite_closed_form(corpus.floor_square_system())
    field = closed.expression.field
    assert closed.expression == ExpPoly(
        field,
        [
            (1, Poly([F(-1, 8), 0, F(1, 4)], field, "n")),
            (-1, Poly([F(1, 8)], field, "n")),
        ],
    )

    # dilation equations for the three exponential-coefficient cases
    golden = corpus.golden_field()
    gen = golden.generator()
    plus, minus = gen, 1 - gen
    root5 = 2 * gen - 1
    c_plus = (golden.one / root5) * plus ** 2
    c_minus = (-(golden.one / root5)) * minus ** 2
    expected = DiffEquation(
        golden,
        [
            (golden.one, [Poly([golden.one], golden, "x")]),
            (plus, [Poly([golden.zero, -c_plus], golden, "x")]),
            (minus, [Poly([golden.zero, -c_minus], golden, "x")]),
        ],
        Poly([golden.one], golden, "x"),
    )
    assert c2_to_diff(corpus.fibonorial_system()).scalar_multiple_of(expected)

    linear_power = RecurrenceSystem(
        ShiftOperator(
            CoeffRing.EXPPOLY,
            [ExpPoly(RATIONAL_FIELD, [(2, Poly([-1, -1], QQ, "n"))]), ExpPoly.constant(1)],
        ),
        [1],
    )
    assert c2_to_diff(linear_power).scalar_multiple_of(
        DiffEquation(
            RATIONAL_FIELD,
            [(1, [x_poly([1])]), (2, [x_poly([0, -1]), x_poly([0, 0, -1])])],
            x_poly([1]),
        )
    )
    assert c2_to_diff(corpus.doubling_tail_system()).scalar_multiple_of(
        DiffEquation(
            RATIONAL_FIELD,
            [(1, [x_poly([1, -1])]), (2, [x_poly([0, 0, -1])])],
            x_poly([1]),
        )
    )

    # homogeneous dilation equation with Fibonacci-shift coefficients
    expected_hom = DiffEquation(
        golden,
        [
            (golden.one, [Poly([], golden, "x"), Poly([golden.one], golden, "x")]),
            (plus, [Poly([-c_plus], golden, "x"), Poly([golden.zero, -c_plus], golden, "x")]),
            (minus, [Poly([-c_minus], golden, "x"), Poly([golden.zero, -c_minus], golden, "x")]),
        ],
        None,
    )
    assert c2_homogenize(c2_to_diff(corpus.fibonorial_system())).scalar_multiple_of(
        expected_hom
    )


def test_criterion_2_closure_corpus():
    floor = corpus.floor_square_system()
    fib = corpus.fibonacci_system()
    gf_floor, gf_fib = genfun_cfinite(floor), genfun_cfinite(fib)

    order6 = (n_poly([1, 1]) * n_poly([-1, 1]) ** 3 * n_poly([-1, -1, 1])).coeffs
    _, added = cfinite_combine_gf(ADD, gf_floor, gf_fib)
    assert list(added.operator.coeffs) == list(order6)
    _, convolved = cfinite_combine_gf(CAUCHY, gf_floor, gf_fib)
    assert list(convolved.operator.coeffs) == list(order6)
    _, summed = cfinite_combine_gf(PARTIAL_SUM, gf_floor)
    assert list(summed.operator.coeffs) == list(
        (n_poly([1, 1]) * n_poly([-1, 1]) ** 4).coeffs
    )
    termwise = cfinite_termwise(floor.operator, fib.operator)
    assert list(termwise.coeffs) == list(
        (n_poly([-1, 1, 1]) * n_poly([-1, -1, 1]) ** 3).coeffs
    )
    subseq = cfinite_subsequence(2, floor.operator)
    assert list(subseq.coeffs) == list((n_poly([-1, 1]) ** 3).coeffs)

    # polynomial-coefficient closures
    catalan, harmonic = corpus.catalan_system(), corpus.harmonic_from_zero()
    added = holonomic_combine(ADD, catalan.operator, harmonic.operator)
    assert added.coeffs[3] == (
        Poly([3, 1], QQ, "n")
        * Poly([4, 1], QQ, "n")
        * Poly([4, 3], QQ, "n")
        * Poly([1, 1], QQ, "n") ** 2
    )
    assert added.coeffs[0] == (
        Poly([1, 1], QQ, "n")
        * Poly([7, 3], QQ, "n")
        * Poly([1, 2], QQ, "n")
        * Poly([2, 1], QQ, "n") ** 2
    ).scale(-2)
    termwise = holonomic_combine(TERMWISE, catalan.operator, harmonic.operator)
    assert list(termwise.coeffs) == [
        (Poly([3, 2], QQ, "n") * Poly([1, 2], QQ, "n") * Poly([1, 1], QQ, "n")).scale(4),
        (Poly([3, 2], QQ, "n") ** 2 * Poly([2, 1], QQ, "n")).scale(-2),
        Poly([2, 1], QQ, "n") ** 2 * Poly([3, 1], QQ, "n"),
    ]

    # Cauchy product through the homogeneous differential equations
    equation = holonomic_cauchy(
        homogenize(holonomic_to_diff(catalan)),
        homogenize(holonomic_to_diff(corpus.factorial_system())),
    )
    assert equation.order == 4
    lead = equation.coefficient(1, 4)
    expected_lead = (
        x_poly([0, 0, 0, 0, 0, 1])
        * x_poly([-1, 4]) ** 2
        * x_poly([-1, 10, -31, 24, 4])
    )
    ratio = None
    assert lead.degree == expected_lead.degree
    for got, want in zip(lead.coeffs, expected_lead.coeffs):
        assert bool(got) == bool(want)
        if want:
            r = got.as_rational() / want
            ratio = ratio or r
            assert r == ratio

    # exponential-coefficient closures of the worked pair
    fibonorial, doubling = corpus.fibonorial_system(), corpus.doubling_tail_system()
    golden = corpus.golden_field()
    two = ExpPoly.geometric(2).to_field(golden)
    f2 = corpus.fibonacci_shift_closed_form(2)
    f3 = corpus.fibonacci_shift_closed_form(3)
    f4 = corpus.fibonacci_shift_closed_form(4)

    add_op, add_validity = c2_combine(ADD, fibonorial.operator, doubling.operator)
    assert add_validity == 1
    assert exppoly_vectors_match(
        list(add_op.coeffs),
        [
            two * f2 * (f4 * f3 - f3 - two.scale(2)),
            f4 * f3 * f2 + (two * two).scale(2) - two.scale(2) * f3 * f2 - f3 * f2,
            two.scale(2) * f2 + f2 - f4 * f3 * f2 + two,
            f3 * f2 - f2 - two,
        ],
    )
    termwise_op, termwise_validity = c2_combine(
        TERMWISE, fibonorial.operator, doubling.operator
    )
    assert termwise_validity == 0
    assert exppoly_vectors_match(
        list(termwise_op.coeffs),
        [-(two * f2 * f3), -f3, ExpPoly.constant(1, golden)],
    )

    # the degenerate alternating pair needs one extra order
    alt_a, alt_b = corpus.alternating_sign_pair()
    degenerate_op, _ = c2_combine(ADD, alt_a.operator, alt_b.operator)
    assert degenerate_op.order == 3
    field = degenerate_op.coeffs[0].field
    half = F(1, 2)
    assert list(degenerate_op.coeffs) == [
        ExpPoly(field, [(1, half), (-1, -half)]),
        ExpPoly.zero(field),
        ExpPoly(field, [(1, half), (-1, half)]),
        ExpPoly.constant(1, field),
    ]


def test_criterion_3_identity_prover():
    floor = corpus.floor_square_system()
    nonlinear = (
        ClaimTerm(F(1), (("a", 1),)),
        ClaimTerm(F(-1), (("a", 0), ("a", 1))),
        ClaimTerm(F(1), (("a", 0), ("a", 2))),
        ClaimTerm(F(1), (("a", 1), ("a", 1))),
        ClaimTerm(F(-1), (("a", 1), ("a", 2))),
    )
    certificate = prove_identity(IdentityClaim({"a": floor}, nonlinear))
    assert certificate.verdict == "proven"
    assert certificate.order_bound == 68
    assert certificate.terms_checked == 68

    squared = (n_poly([1, 1]) ** 3 * n_poly([-1, 1]) ** 5).coeffs
    certificate = prove_identity(
        IdentityClaim(
            {"a": floor}, (ClaimTerm(F(1), (("a", 0), ("a", 0)), tuple(squared)),)
        )
    )
    assert certificate.verdict == "proven"
    assert certificate.order_bound == 16

    corrupted = nonlinear + (ClaimTerm(F(-1), ()),)
    certificate = prove_identity(IdentityClaim({"a": floor}, corrupted))
    assert certificate.verdict == "refuted"
    assert certificate.witness is not None
    assert certificate.witness_value != 0


def test_criterion_4_property_suites():
    rng = random.Random(90210)

    # guess/expand round trips, 100 cases per class at orders <= 4
    for _ in range(100):
        poly = corpus.random_polynomial_poly(rng, 4)
        values = Sequence([poly.evaluate(F(n)) for n in range(16)])
        assert guess_polynomial(values, 4).poly == poly
    for _ in range(100):
        system = corpus.random_cfinite(rng, 4)
        data = expand_terms(system, 6 * system.order + 3)
        report = guess_cfinite(data, system.order, margin=1)
        fresh = expand_terms(system, 50)
        assert verify_annihilates(report.result.operator, fresh, 0) is None
    for _ in range(100):
        system = corpus.random_holonomic(rng, 3, 1)
        data = expand_terms(system, 3 * ((system.order + 1) * 2 + system.order))
        report = guess_holonomic(data, system.order, 1, margin=1)
        fresh = expand_terms(system, 50)
        assert (
            verify_annihilates(
                report.result.operator, fresh, report.result.validity_offset
            )
            is None
        )

    # closure outputs annihilate 50 directly computed terms (spread across
    # operations and classes; bound assertions inside the library fire on
    # every call)
    from test_properties import combined_reference

    for index in range(50):
        kind = (ADD, TERMWISE, CAUCHY, PARTIAL_SUM, SUBSEQUENCE)[index % 5]
        sys_a = corpus.random_cfinite(rng, 3)
        sys_b = corpus.random_cfinite(rng, 3)
        system = combine(kind, sys_a, sys_b, mult=2)
        count = max(50, len(system.initials) + system.order + 1)
        reference = combined_reference(kind, sys_a, sys_b, count)
        assert (
            verify_annihilates(system.operator, reference, system.validity_offset)
            is None
        )
    for index in range(50):
        kind = (ADD, TERMWISE, PARTIAL_SUM, SUBSEQUENCE)[index % 4]
        sys_a = corpus.random_holonomic(rng, 2, 1)
        sys_b = corpus.random_holonomic(rng, 2, 1)
        system = combine(kind, sys_a, sys_b, mult=2)
        count = max(50, len(system.initials) + system.order + 1)
        reference = combined_reference(kind, sys_a, sys_b, count)
        assert (
            verify_annihilates(system.operator, reference, system.validity_offset)
            is None
        )
    for index in range(50):
        kind = (ADD, TERMWISE, PARTIAL_SUM, SUBSEQUENCE)[index % 4]
        sys_a = corpus.random_c2(rng, 2)
        sys_b = corpus.random_c2(rng, 2)
        system = combine(kind, sys_a, sys_b, mult=2)
        count = max(50, len(system.initials) + system.order + 1)
        reference = combined_reference(kind, sys_a, sys_b, count)
        assert (
            verify_annihilates(system.operator, reference, system.validity_offset)
            is None
        )

    # generating-function series consistency to 20 terms, 50 cases
    for index in range(50):
        pick = index % 3
        if pick == 0:
            system = corpus.random_cfinite(rng, 3)
            gf = genfun_cfinite(system)
            terms = expand_terms(system, 20)
            assert gf.series(20) == list(terms.terms)
        elif pick == 1:
            system = corpus.random_holonomic(rng, 2, 1)
            equation = holonomic_to_diff(system)
            terms = expand_terms(system, 20 + equation.order)
            assert all(not r for r in equation.series_residual(terms.terms, 20))
        else:
            system = corpus.random_c2(rng, 2)
            equation = c2_to_diff(system)
            terms = expand_terms(system, 20 + equation.order)
            assert all(not r for r in equation.series_residual(terms.terms, 20))

    # closed-form round trips over Q and one quadratic field, 50 cases
    from ansatzkit import closed_form_to_recurrence
    from ansatzkit.errors import UnsupportedFactorization

    done = 0
    while done < 50:
        system = corpus.random_cfinite(rng, 3)
        try:
            closed = cfinite_closed_form(system)
        except UnsupportedFactorization:
            continue
        seq = expand_terms(system, 40)
        assert all(closed.evaluate(n) == seq.value(n) for n in range(40))
        if closed.expression:
            back = closed_form_to_recurrence(closed.expression)
            assert verify_annihilates(back.operator, seq, closed.valid_from) is None
        done += 1
    golden_cases = 0
    while golden_cases < 10:
        shift = rng.randint(0, 4)
        scale = F(rng.randint(1, 5))
        expression = corpus.fibonacci_shift_closed_form(shift).scale(
            corpus.golden_field().from_rational(scale)
        )
        system = closed_form_to_recurrence(expression)
        closed = cfinite_closed_form(system)
        seq = expand_terms(system, 40)
        assert all(closed.evaluate(n) == seq.value(n) for n in range(40))
        golden_cases += 1


def test_criterion_5_asymptotics():
    factorial_op = corpus.factorial_system().operator
    forms = leading_forms(factorial_op)
    assert len(forms) == 1
    form = forms[0]
    assert form.mu0 == 1
    assert form.lam == form.field.one
    assert form.theta == form.field.coerce(F(1, 2))
    refined = refine_series(form, factorial_op, 2)
    assert refined.series[0] == form.field.coerce(F(1, 12))

    floor_op = ShiftOperator(
        CoeffRing.POLY_N, [Poly([2, 1]), Poly([2]), Poly([0, -1])]
    )
    branches = leading_forms(floor_op)
    assert len(branches) == 2
    by_lambda = {f.lam.as_rational(): f for f in branches}
    assert by_lambda[F(1)].theta.as_rational() == 2
    assert by_lambda[F(-1)].theta.as_rational() == 0
    refined_main = refine_series(by_lambda[F(1)], floor_op, 4)
    zero = refined_main.field.zero
    assert list(refined_main.series) == [
        zero,
        refined_main.field.coerce(F(-1, 2)),
        zero,
        zero,
    ]

    # numeric corroboration: fit the constant at n=400, check n=200
    def log_template(n):
        value = n * math.log(n) - n + 0.5 * math.log(n)
        series = 1.0 + float(refined.series[0].as_rational()) / n
        series += float(refined.series[1].as_rational()) / n ** 2
        return value + math.log(series)

    log_k = math.lgamma(401) - log_template(400)
    ratio = math.exp(math.lgamma(201) - (log_k + log_template(200)))
    assert abs(ratio - 1.0) < 1e-4
    # the universal constant itself is out of scope: nothing in the library
    # computes it, and the fitted value is only numerically close
    fitted = math.exp(log_k)
    assert fitted != math.sqrt(2 * math.pi)


def test_criterion_6_c2_regression():
    system = corpus.fibonorial_system()
    seq = expand_terms(system, 34)
    with open(os.path.join(FIXTURES, "b003266.txt")) as fh:
        catalog = {}
        for line in fh:
            if line.startswith("#"):
                continue
            index, value = line.split()
            catalog[int(index)] = F(value)
    for n in range(30):
        assert seq.value(n) == catalog[n + 1]
    for n in range(31):
        assert (
            seq.value(n) * seq.value(n + 1) * seq.value(n + 3)
            - seq.value(n) * seq.value(n + 2) ** 2
            - seq.value(n + 2) * seq.value(n + 1) ** 2
            == 0
        )
    doubling_product = RecurrenceSystem(
        ShiftOperator(
            CoeffRing.EXPPOLY, [-ExpPoly.geometric(2), ExpPoly.constant(1)]
        ),
        [1],
    )
    report = growth_probe(doubling_product, 60)
    assert abs(report.quadratic - math.log(2) / 2) < 1e-6


def test_criterion_7_cli_end_to_end(offline_cache, tmp_path, capsys):
    # guess on the catalogued Fibonacci values
    code = main(["guess", "--class", "cfinite", "--max-order", "5", "--oeis", "A000045"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "N^2 - N - 1"

    # JSON round trips byte-stable
    target = tmp_path / "result.json"
    argv = [
        "guess", "--class", "cfinite", "--max-order", "5",
        "--oeis", "A000045", "--json", str(target),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    first = target.read_text()
    assert dumps(loads(first.strip())) == first.strip()
    assert main(argv) == 0
    capsys.readouterr()
    assert target.read_text() == first

    # exit code 1: mathematical failure
    assert main(["guess", "--class", "cfinite", "--max-order", "1", "--oeis", "A000045"]) == 1
    capsys.readouterr()

    # exit code 2: usage error
    assert main(["genfun", "--class", "cfinite", "N^2 - @;0,1"]) == 2
    capsys.readouterr()

    # exit code 3: i/o error (unknown id, offline template)
    assert main(["fetch", "--oeis", "A987654"]) == 3
    capsys.readouterr()
