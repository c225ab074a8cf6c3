"""Number-field elements on integer numerators over one denominator.

A reference element kept here does the arithmetic on ``Fraction``
coordinates, as the elements once did; seeded values with denominators up
to 10**30 must give the same coordinates, equality, hashes, printing and
term order under both.  The fraction layer's fast products, quotients,
sums and negations must build the factor lists the full constructor
builds, and match a reference that keeps every unit numerator a factor of
its own in everything but the units.  Direct subtraction, the
constant-term paths of ``ExpPoly`` and the shift representation's factor
built in one step must give the lists, fields and values of the bodies
they replaced, kept here as references, on whole combination matrices
too.  A lint keeps ``Fraction`` out of the element arithmetic.
"""

import ast
import random
from fractions import Fraction
from pathlib import Path

from ansatzkit import (
    ADD,
    PARTIAL_SUM,
    QQ,
    RATIONAL_FIELD,
    SUBSEQUENCE,
    TERMWISE,
    CoeffRing,
    ExpPoly,
    ExpPolyFraction,
    NumberField,
    Poly,
    ShiftOperator,
)
from ansatzkit import closure
from ansatzkit.exppoly import _cancel, _is_one
from ansatzkit.linalg import clear_exppoly_denominators

F = Fraction

GOLDEN = NumberField([-1, -1, 1])  # t^2 = t + 1, Q(sqrt 5)
GAUSS = NumberField([1, 0, 1])  # t^2 = -1, Q(i)
# t^2 + t/2 + 3/4: a modulus with denominators, so the product and the
# inverse scale by its common denominator
SKEW = NumberField([F(3, 4), F(1, 2), 1])
FIELDS = [RATIONAL_FIELD, GOLDEN, GAUSS, SKEW]


class Reference:
    """a0 + a1*t on ``Fraction`` coordinates."""

    def __init__(self, field, coords):
        self.field = field
        self.coords = tuple(F(c) for c in coords)

    def _of(self, coords):
        return Reference(self.field, coords)

    def __add__(self, other):
        return self._of([a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other):
        return self._of([a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        return self._of([-a for a in self.coords])

    def __mul__(self, other):
        if self.field.degree == 1:
            return self._of([self.coords[0] * other.coords[0]])
        (a0, a1), (b0, b1), (c0, c1) = self.coords, other.coords, self.field.low
        return self._of([a0 * b0 - c0 * a1 * b1, a0 * b1 + a1 * b0 - c1 * a1 * b1])

    def norm(self):
        if self.field.degree == 1:
            return self.coords[0]
        (a0, a1), (c0, c1) = self.coords, self.field.low
        return a0 * a0 - c1 * a0 * a1 + c0 * a1 * a1

    def inverse(self):
        if self.field.degree == 1:
            return self._of([1 / self.coords[0]])
        (a0, a1), c1 = self.coords, self.field.low[1]
        norm = self.norm()
        return self._of([(a0 - c1 * a1) / norm, -a1 / norm])

    def __pow__(self, exponent):
        base = self.inverse() if exponent < 0 else self
        result = self._of([1] + [0] * (self.field.degree - 1))
        for _ in range(abs(exponent)):
            result = result * base
        return result

    def is_rational(self):
        return not any(self.coords[1:])

    def __str__(self):
        if self.is_rational():
            return str(self.coords[0])
        return str(Poly(self.coords, QQ, "t"))

    def sort_key(self):
        return (self.field.minpoly.coeffs, self.coords)


def _random_rational(rng):
    size = rng.choice([3, 10**6, 10**30])
    return F(rng.randint(-size, size), rng.randint(1, rng.choice([1, 12, size])))


def _random_pair(rng, field):
    """An element and its reference, sometimes rational, sometimes zero."""
    coords = [_random_rational(rng) for _ in range(field.degree)]
    roll = rng.random()
    if roll < 0.15:
        coords = [F(0)] * field.degree
    elif roll < 0.35:
        coords[1:] = [F(0)] * (field.degree - 1)
    return field.element(coords), Reference(field, coords)


def _assert_same(element, reference):
    assert element.field is reference.field
    assert element.coords == reference.coords
    assert all(type(c) is Fraction for c in element.coords)
    assert element.den > 0
    assert all(type(a) is int for a in element.nums) and type(element.den) is int
    assert bool(element) == any(reference.coords)
    assert str(element) == str(reference)
    assert element.sort_key() == reference.sort_key()
    assert element.norm() == reference.norm() and type(element.norm()) is Fraction


class TestElementsAgainstFractionCoordinates:
    def test_arithmetic(self):
        rng = random.Random(23001)
        for field in FIELDS:
            for _ in range(150):
                (x, rx), (y, ry) = _random_pair(rng, field), _random_pair(rng, field)
                _assert_same(x, rx)
                _assert_same(x + y, rx + ry)
                _assert_same(x - y, rx - ry)
                _assert_same(-x, -rx)
                _assert_same(x * y, rx * ry)
                _assert_same(x * x, rx * rx)
                q = _random_rational(rng)
                rq = Reference(field, [q] + [0] * (field.degree - 1))
                _assert_same(x + q, rx + rq)
                _assert_same(q - x, rq - rx)
                _assert_same(x * q, rx * rq)
                if y:
                    _assert_same(y.inverse(), ry.inverse())
                    _assert_same(x / y, rx * ry.inverse())
                    _assert_same(q / y, rq * ry.inverse())
                    exponent = rng.randint(-3, 3)
                    _assert_same(y**exponent, ry**exponent)
                _assert_same(x**2, rx * rx)
                assert (x == y) == (rx.coords == ry.coords)
                assert x == field.element(rx.coords) and hash(x) == hash(field.element(rx.coords))
                # the same value from unreduced integers
                k = rng.randint(2, 10**12)
                twin = type(x)(field, tuple([a * k for a in x.nums]), x.den * k)
                assert twin.nums == x.nums and twin.den == x.den
                assert twin == x and hash(twin) == hash(x)
                if rx.is_rational():
                    assert x == rx.coords[0] and x.as_rational() == rx.coords[0]
                    assert type(x.as_rational()) is Fraction

    def test_equal_values_are_equal_and_hash_alike(self):
        rng = random.Random(23002)
        for x, rx in [_random_pair(rng, field) for field in FIELDS for _ in range(40)]:
            if rx.is_rational():
                continue
            y = x.field.element(rx.coords)
            z = (x + x.field.one) - x.field.one
            assert x == y == z and len({x, y, z}) == 1
            assert x != y + x.field.generator()

    def test_rational_hash_is_the_value_hash(self):
        rng = random.Random(23003)
        values = [F(0), F(1), F(-1), F(7), F(-10**30), F(1, 2), F(-3, 10**30)]
        values += [_random_rational(rng) for _ in range(60)]
        for q in values:
            elements = [field.from_rational(q) for field in FIELDS]
            elements += [field.element([q, 0]) for field in FIELDS[1:]]
            for element in elements:
                assert hash(element) == hash(q)
                if q.denominator == 1:
                    assert hash(element) == hash(int(q)) and element == int(q)
                assert element == elements[0] and element == q
            assert len(set(elements)) == 1
            assert len({elements[0], q}) == 1

    def test_exppoly_term_order_is_the_value_order(self):
        rng = random.Random(23004)
        for field in FIELDS:
            for _ in range(60):
                pairs = []
                for _ in range(rng.randint(2, 7)):
                    base, _ = _random_pair(rng, field)
                    if rng.random() < 0.3 and pairs:
                        base = pairs[0][0] * rng.choice([1, -1, 2, F(1, 3)])
                    if base:
                        pairs.append((base, Poly([F(rng.randint(-3, 3))], field, "n")))
                merged = {}
                for base, poly in pairs:
                    merged[base.coords] = merged.get(base.coords, Poly([], field, "n")) + poly
                expected = sorted(coords for coords, poly in merged.items() if poly)
                e = ExpPoly(field, pairs)
                assert [base.coords for base, _ in e.terms] == expected


# -- the fraction layer's fast paths ---------------------------------------------

G = ExpPoly.geometric


def _factor_pool():
    """(field, factors) pools: units of base 1 and of other bases, the
    constant 1, and two-term factors that cancel in pairs; the Q(sqrt 5)
    pool holds the rational factors too."""
    phi = GOLDEN.generator()
    rational = [
        G(2),
        G(-1),
        ExpPoly.constant(3),
        ExpPoly.constant(1),
        G(2) + 1,
        G(2) - G(3),
        ExpPoly(RATIONAL_FIELD, [(1, Poly([1, 1]))]),
        G(-1) + 1,
        G(-1) - 1,
    ]
    golden = [
        G(phi, GOLDEN),
        ExpPoly.constant(-1, GOLDEN),
        G(phi, GOLDEN) + G(1 - phi, GOLDEN),
        G(phi, GOLDEN) - 1,
    ]
    return [(RATIONAL_FIELD, rational), (GOLDEN, rational + golden)]


def _random_fraction(rng, field, pool):
    roll = rng.random()
    if roll < 0.08:
        return ExpPolyFraction.zero(field)
    nums = [rng.choice(pool) for _ in range(rng.randint(0, 3))]
    dens = [rng.choice(pool) for _ in range(rng.randint(0, 2))]
    if roll < 0.16:
        # the product (1 - (-1)^n)(1 + (-1)^n) is zero but no zero factor
        nums = [G(-1) - 1, G(-1) + 1]
    return ExpPolyFraction(
        field, [f.to_field(field) for f in nums], [f.to_field(field) for f in dens]
    )


def _union_max(first, second):
    """The per-factor maximum of two factor lists, in order: ``first``,
    then each factor of ``second`` that ``first`` has no copy left of."""
    out, pool = list(first), list(first)
    for item in second:
        if item in pool:
            pool.remove(item)
        else:
            out.append(item)
    return out


def _subtract(big, small):
    """``big`` less one copy of each factor of ``small``, which it holds."""
    remaining = list(big)
    for item in small:
        remaining.remove(item)
    return remaining


def _lifted(a, b):
    if a.field == b.field:
        return a, b
    return a.to_field(GOLDEN), b.to_field(GOLDEN)


def _full_product(a, b):
    a, b = _lifted(a, b)
    if not a or not b:
        return ExpPolyFraction.zero(a.field)
    return ExpPolyFraction(a.field, a.num_factors + b.num_factors, a.den_factors + b.den_factors)


def _full_quotient(a, b):
    a, b = _lifted(a, b)
    return ExpPolyFraction(a.field, a.num_factors + b.den_factors, a.den_factors + b.num_factors)


def _full_sum(a, b):
    a, b = _lifted(a, b)
    if not a:
        return b
    if not b:
        return a
    den = _union_max(a.den_factors, b.den_factors)
    parts = []
    for x in (a, b):
        part = x.expanded_num()
        for f in _subtract(den, x.den_factors):
            part = part * f
        parts.append(part)
    return ExpPolyFraction(a.field, [parts[0] + parts[1]], den)


def _full_negation(a):
    nums = list(a.num_factors)
    for i, f in enumerate(nums):
        if f.is_unit() and f.terms[0][0] == a.field.one:
            nums[i] = f.scale(-1)
            break
    else:
        nums.insert(0, ExpPoly.constant(-1, a.field))
    return ExpPolyFraction(a.field, nums, a.den_factors)


def _assert_same_lists(fast, full):
    assert fast.num_factors == full.num_factors
    assert fast.den_factors == full.den_factors
    assert [f.field for f in fast.num_factors + fast.den_factors] == [
        f.field for f in full.num_factors + full.den_factors
    ]
    assert fast == full


class TestFractionFastPaths:
    def test_factor_lists_match_the_full_constructor(self):
        rng = random.Random(23005)
        counts = {"cancelled": 0, "unit_den": 0, "zero": 0, "mixed": 0}
        pools = _factor_pool()
        for _ in range(500):
            (fa, pa), (fb, pb) = rng.choice(pools), rng.choice(pools)
            a, b = _random_fraction(rng, fa, pa), _random_fraction(rng, fb, pb)
            counts["mixed"] += fa != fb
            counts["zero"] += not a or not b
            product = a * b
            _assert_same_lists(product, _full_product(a, b))
            counts["cancelled"] += len(product.num_factors) + len(product.den_factors) < len(
                a.num_factors + a.den_factors + b.num_factors + b.den_factors
            )
            if b:
                quotient = a / b
                _assert_same_lists(quotient, _full_quotient(a, b))
                counts["unit_den"] += any(f.is_unit() for f in b.num_factors)
            _assert_same_lists(a + b, _full_sum(a, b))
            _assert_same_lists(-a, _full_negation(a))
            _assert_same_lists(a - b, _full_sum(*_lifted(a, -b)))
        assert min(counts.values()) >= 20, counts

    def test_constant_one_denominator_leaves_no_factor(self):
        one = ExpPoly.constant(1)
        x = ExpPolyFraction(RATIONAL_FIELD, [G(2) + 1], [one])
        assert x.num_factors == (G(2) + 1,) and x.den_factors == ()
        assert ExpPolyFraction(RATIONAL_FIELD, [], [one]).num_factors == ()
        assert (-ExpPolyFraction(RATIONAL_FIELD, [ExpPoly.constant(-1)])).num_factors == ()


class KeepUnits:
    """A fraction that keeps every unit numerator a factor of its own, as
    fractions did before their units were folded into one: the full
    constructor's reduction, with products, quotients, sums and negations
    built through it and the old negation rule."""

    def __init__(self, field, nums, dens=()):
        self.field = field
        if not all(nums):
            self.num_factors, self.den_factors = (ExpPoly.zero(field),), ()
            return
        kept = [f for f in nums if not _is_one(f, field.one)]
        left = []
        for f in dens:
            if not f.is_unit():
                left.append(f)
            elif not _is_one(f, field.one):
                kept.append(f.inverse())
        self.den_factors = tuple(_cancel(left, kept))
        self.num_factors = tuple(kept)

    def expanded_num(self):
        product = ExpPoly.constant(1, self.field)
        for f in self.num_factors:
            product = product * f
        return product

    def __bool__(self):
        return bool(self.expanded_num())

    def __mul__(self, other):
        if not self or not other:
            return KeepUnits(self.field, [ExpPoly.zero(self.field)])
        nums, dens = self.num_factors + other.num_factors, self.den_factors + other.den_factors
        return KeepUnits(self.field, nums, dens)

    def __truediv__(self, other):
        nums, dens = self.num_factors + other.den_factors, self.den_factors + other.num_factors
        return KeepUnits(self.field, nums, dens)

    def __add__(self, other):
        if not self:
            return other
        if not other:
            return self
        den = _union_max(self.den_factors, other.den_factors)
        parts = []
        for x in (self, other):
            part = x.expanded_num()
            for f in _subtract(den, x.den_factors):
                part = part * f
            parts.append(part)
        return KeepUnits(self.field, [parts[0] + parts[1]], den)

    def __neg__(self):
        if self.num_factors and not self.num_factors[0]:
            return self
        nums = list(self.num_factors)
        for i, f in enumerate(nums):
            if f.is_unit() and f.terms[0][0] == self.field.one:
                nums[i] = f.scale(-1)
                break
        else:
            nums.insert(0, ExpPoly.constant(-1, self.field))
        return KeepUnits(self.field, nums, self.den_factors)


def _non_units(factors):
    return [f for f in factors if not f.is_unit()]


def _assert_like_keep_units(fast, reference):
    """The same value, denominators, non-unit numerators and expansion;
    the fast fraction has at most one unit numerator, first."""
    units = [i for i, f in enumerate(fast.num_factors) if f.is_unit()]
    assert units in ([], [0])
    assert fast.den_factors == reference.den_factors
    assert _non_units(fast.num_factors) == _non_units(reference.num_factors)
    assert fast.expanded_num() == reference.expanded_num()
    assert bool(fast) == bool(reference)
    assert fast == ExpPolyFraction(fast.field, reference.num_factors, reference.den_factors)


class TestOneUnitFactor:
    def test_against_a_reference_that_keeps_every_unit(self):
        rng = random.Random(25001)
        counts = {"folded": 0, "zero_divisor": 0, "cleared": 0}
        for field, pool in _factor_pool():
            pool = [f.to_field(field) for f in pool]
            pairs = []
            for _ in range(12):
                nums = [rng.choice(pool) for _ in range(rng.randint(0, 3))]
                dens = [rng.choice(pool) for _ in range(rng.randint(0, 2))]
                pairs.append((ExpPolyFraction(field, nums, dens), KeepUnits(field, nums, dens)))
            # (1 - (-1)^n)(1 + (-1)^n) is zero with no zero factor
            divisor = [G(-1).to_field(field) - 1, G(-1).to_field(field) + 1]
            pairs.append((ExpPolyFraction(field, divisor), KeepUnits(field, divisor)))
            for fast, reference in pairs:
                _assert_like_keep_units(fast, reference)
            for _ in range(400):
                (a, ra), (b, rb) = rng.choice(pairs), rng.choice(pairs)
                op = rng.choice(["mul", "div", "add", "sub", "neg"])
                if op == "mul":
                    result = a * b, ra * rb
                elif op == "div":
                    if not b:
                        continue
                    result = a / b, ra / rb
                elif op == "add":
                    result = a + b, ra + rb
                elif op == "sub":
                    result = a - b, ra + -rb
                else:
                    result = -a, -ra
                _assert_like_keep_units(*result)
                fast, reference = result
                counts["folded"] += sum(f.is_unit() for f in reference.num_factors) > 1
                counts["zero_divisor"] += len(_non_units(fast.num_factors)) > 1 and not fast
                # keep the pool small: few factors, short expansions
                if len(fast.num_factors) + len(fast.den_factors) <= 5 and (
                    len(fast.expanded_num().terms) <= 4
                ):
                    pairs.append(result)
            for _ in range(60):
                vector = [rng.choice(pairs) for _ in range(rng.randint(1, 4))]
                if not any(fast for fast, _ in vector):
                    continue
                counts["cleared"] += 1
                assert clear_exppoly_denominators([f for f, _ in vector]) == (
                    clear_exppoly_denominators([r for _, r in vector])
                )
        assert min(counts.values()) >= 20, counts

    def test_negation_flips_the_unit(self):
        x = ExpPolyFraction(RATIONAL_FIELD, [G(2) + 1, G(2), G(3)])
        assert x.num_factors == (G(6), G(2) + 1)
        assert (-x).num_factors == (G(6).scale(-1), G(2) + 1)
        assert (-(-x)).num_factors == x.num_factors
        y = ExpPolyFraction(RATIONAL_FIELD, [G(2) + 1], [G(2) + 1, G(2)])
        assert y.num_factors == (G(F(1, 2)),) and y.den_factors == ()
        assert (-ExpPolyFraction(RATIONAL_FIELD, [G(2) + 1])).num_factors == (
            ExpPoly.constant(-1),
            G(2) + 1,
        )


class TestUnitConstructors:
    """The zero, a unit's inverse and a product of two units skip the
    coercing constructor and the general product, with the same results."""

    @staticmethod
    def units():
        rng = random.Random(26)
        for field in FIELDS:
            elements = [field.coerce(F(rng.randint(-9, 9) or 1, rng.randint(1, 5))) for _ in range(4)]
            if field is not RATIONAL_FIELD:
                elements += [field.generator(), field.generator() + F(1, 3)]
            yield field, [
                ExpPoly(field, [(base, Poly([c], field, "n"))])
                for base in elements
                for c in (field.one, -field.coerce(F(2, 7)))
            ]

    def test_zero_and_inverse(self):
        for field, units in self.units():
            zero = ExpPoly.zero(field)
            assert zero.field is field and zero.terms == () and zero == ExpPoly(field, [])
            for u in units:
                base, poly = u.terms[0]
                inverse = u.inverse()
                assert inverse.field is field
                assert inverse.terms == ExpPoly(
                    field, [(base.inverse(), Poly([field.one / poly.coeffs[0]], field, "n"))]
                ).terms
                assert u * inverse == ExpPoly.constant(1, field)

    def test_unit_products_match_the_general_product(self):
        from ansatzkit.exppoly import _unit_product

        pairs = 0
        every = [u for _, units in self.units() for u in units]
        for a in every:
            for b in every[::3]:
                if RATIONAL_FIELD not in (a.field, b.field) and a.field is not b.field:
                    continue  # no supported field holds two quadratic fields
                product = _unit_product(a, b)
                assert product.terms == (a * b).terms and product.field is (a * b).field
                pairs += 1
        assert pairs > 300

    def test_folding_units_runs_no_general_product(self, monkeypatch):
        calls = []
        multiply = ExpPoly.__mul__

        def counted(self, other):
            calls.append(other)
            return multiply(self, other)

        monkeypatch.setattr(ExpPoly, "__mul__", counted)
        phi = GOLDEN.generator()
        x = ExpPolyFraction(GOLDEN, [G(2, GOLDEN), G(phi, GOLDEN), G(2, GOLDEN) + 1, G(-3, GOLDEN)])
        assert calls == []
        assert x.num_factors[0].terms == ((GOLDEN.coerce(-6) * phi, Poly([1], GOLDEN, "n")),)
        assert x.num_factors[1:] == (G(2, GOLDEN) + 1,)


# -- the field kernel's pivot column ----------------------------------------------


def reference_eliminate(rows, zero, prefer=None):
    """``linalg._eliminate`` computing every entry of a row it clears,
    the pivot column's a - a * 1 included."""
    m = [list(r) for r in rows]
    n_cols = len(m[0]) if m else 0
    pivots, used_rows, pivot_cols = [], set(), set()
    while len(used_rows) < len(m):
        chosen = fallback = None
        for col in range(n_cols):
            if col in pivot_cols:
                continue
            for r, row in enumerate(m):
                if r in used_rows or row[col] == zero:
                    continue
                if prefer is None or prefer(row[col]):
                    chosen = (r, col)
                    break
                if fallback is None:
                    fallback = (r, col)
            if chosen is not None:
                break
        chosen = chosen or fallback
        if chosen is None:
            break
        prow, pcol = chosen
        lead = m[prow][pcol]
        m[prow] = [entry / lead for entry in m[prow]]
        for r in range(len(m)):
            if r == prow:
                continue
            factor = m[r][pcol]
            if factor == zero:
                continue
            m[r] = [a - factor * b for a, b in zip(m[r], m[prow])]
        used_rows.add(prow)
        pivot_cols.add(pcol)
        pivots.append((prow, pcol))
    return m, pivots


def _deficient(rng, n_rows, n_cols, draw):
    """Random rows, the last one the sum of two others when there are
    three or more, so that some columns stay free."""
    rows = [[draw() for _ in range(n_cols)] for _ in range(n_rows)]
    if n_rows >= 3:
        a, b = rng.sample(range(n_rows - 1), 2)
        rows[-1] = [x + y for x, y in zip(rows[a], rows[b])]
    return rows


class TestEliminationPivotColumn:
    """The field kernel writes the field's zero into the pivot column of
    each row it clears; the reduced matrices are those it gets computing
    a - a * 1 there, entry by entry and representation by representation."""

    def test_exppoly_fractions_keep_their_factor_lists(self):
        from ansatzkit.linalg import _eliminate

        rng = random.Random(2804)
        pivots_seen = 0
        for field, pool in _factor_pool():
            zero = ExpPolyFraction.zero(field)
            for trial in range(40):
                n_rows, n_cols = rng.randint(1, 3), rng.randint(1, 4)
                rows = _deficient(rng, n_rows, n_cols, lambda: _random_fraction(rng, field, pool))
                prefer = ExpPolyFraction.is_unit_value if trial % 2 else None
                reduced, pivots = _eliminate(rows, zero, prefer)
                expected, expected_pivots = reference_eliminate(rows, zero, prefer)
                assert pivots == expected_pivots
                pivots_seen += len(pivots)
                for row, expected_row in zip(reduced, expected):
                    for entry, value in zip(row, expected_row):
                        assert entry.num_factors == value.num_factors
                        assert entry.den_factors == value.den_factors
        assert pivots_seen >= 30

    def test_number_field_and_float_zeros(self):
        from ansatzkit.linalg import _eliminate

        rng = random.Random(2805)
        for _ in range(40):
            n_rows, n_cols = rng.randint(1, 5), rng.randint(1, 6)
            rows = _deficient(rng, n_rows, n_cols, lambda: _random_pair(rng, GOLDEN)[0])
            reduced, pivots = _eliminate(rows, GOLDEN.zero)
            expected, expected_pivots = reference_eliminate(rows, GOLDEN.zero)
            assert pivots == expected_pivots
            for row, expected_row in zip(reduced, expected):
                assert [(x.nums, x.den) for x in row] == [(x.nums, x.den) for x in expected_row]
            floats = _deficient(rng, n_rows, n_cols, lambda: rng.uniform(-1e3, 1e3))
            reduced, pivots = _eliminate(floats, 0.0)
            expected, expected_pivots = reference_eliminate(floats, 0.0)
            assert pivots == expected_pivots
            # repr tells +0.0 from -0.0
            assert repr(reduced) == repr(expected)


# -- direct subtraction, constant terms and the shift factor ----------------------


def reference_fraction_sub(a, b):
    """``ExpPolyFraction.__sub__`` as it was: a plus a negated copy of b."""
    a, b = a._coerce(b)
    return a + (-b)


def reference_exppoly_sub(a, b):
    """``ExpPoly.__sub__`` as it was: a plus a negated copy of b."""
    a, b = a._coerce(b)
    return a + (-b)


def reference_exppoly_mul(a, b):
    """``ExpPoly.__mul__`` as it was: a general ``Poly`` product per pair
    of terms."""
    a, b = a._coerce(b)
    products = []
    for base_a, poly_a in a.terms:
        for base_b, poly_b in b.terms:
            products.append((base_a * base_b, poly_a * poly_b))
    return ExpPoly._of(a.field, products)


def reference_compose_arg(e, mult, offset):
    """``ExpPoly.compose_arg`` as it was: every term polynomial shifted."""
    out = []
    for base, poly in e.terms:
        new_poly = poly.compose_linear(mult, offset)
        if base == e.field.one:
            out.append((base, new_poly))
        else:
            out.append((base**mult, new_poly.scale(base**offset)))
    return ExpPoly._of(e.field, out)


def reference_zero(cls, field):
    """``ExpPolyFraction.zero`` as it was: a new fraction every call."""
    return cls(field, [ExpPoly.zero(field)])


class ReferenceShiftRep(closure._FieldShiftRep):
    """``_FieldShiftRep.vectors`` as it was: each factor -c_i/c_r is the
    quotient of the negation of one ``from_exppoly`` fraction by another."""

    def _coeff(self, i, shift):
        return ExpPolyFraction.from_exppoly(self.operator.shifted_coeff(i, shift, self.mult))

    def vectors(self, shifts):
        r = self.order
        vecs = [[self.one if i == t else self.zero for i in range(r)] for t in range(r)]
        for t in range(r, shifts[-1] + 1):
            lead = self._coeff(r, t - r)
            vec = [self.zero] * r
            for i in range(r):
                c = self._coeff(i, t - r)
                if not c:
                    continue
                factor = (-c) / lead
                vec = [a + factor * b for a, b in zip(vec, vecs[t - r + i])]
            vecs.append(vec)
        return [vecs[t] for t in shifts]


def _install_reference_bodies(patch):
    """Put the bodies above in place with ``patch.setattr``."""
    patch.setattr(ExpPolyFraction, "__sub__", reference_fraction_sub)
    patch.setattr(ExpPolyFraction, "zero", classmethod(reference_zero))
    patch.setattr(ExpPoly, "__sub__", reference_exppoly_sub)
    patch.setattr(ExpPoly, "__mul__", reference_exppoly_mul)
    patch.setattr(ExpPoly, "__rmul__", reference_exppoly_mul)
    patch.setattr(ExpPoly, "compose_arg", reference_compose_arg)
    patch.setattr(closure, "_FieldShiftRep", ReferenceShiftRep)


def _assert_same_fraction(fast, full):
    """The same lists, factor by factor, the same field object and value."""
    _assert_same_lists(fast, full)
    assert fast.field is full.field


def _assert_same_exppoly(fast, full):
    assert fast.terms == full.terms
    assert fast.field is full.field


N_ = Poly([0, 1])


def _exppoly(*terms):
    """An ExpPoly over Q of (base, coefficient list) pairs."""
    return ExpPoly(RATIONAL_FIELD, [(base, Poly(coeffs)) for base, coeffs in terms])


def _operator(coeffs):
    return ShiftOperator(CoeffRing.EXPPOLY, coeffs)


def _matrix_or_error(*args, **kwargs):
    try:
        return closure.combination_matrix(*args, **kwargs)
    except ZeroDivisionError:
        return ZeroDivisionError


class TestDirectSubtractionAndConstantTerms:
    """Subtraction without a negated copy, products and argument changes of
    constant term polynomials without a general ``Poly`` operation, and the
    shift representation's factor built in one step give the lists, fields
    and values of the bodies they replace, kept here as references."""

    def test_fraction_subtraction(self):
        rng = random.Random(2901)
        counts = {"zero_left": 0, "zero_right": 0, "zero_divisor": 0, "mixed": 0, "units": 0}
        pools = _factor_pool()
        for _ in range(600):
            (fa, pa), (fb, pb) = rng.choice(pools), rng.choice(pools)
            a, b = _random_fraction(rng, fa, pa), _random_fraction(rng, fb, pb)
            _assert_same_fraction(a - b, reference_fraction_sub(a, b))
            counts["zero_left"] += not a
            counts["zero_right"] += not b
            counts["zero_divisor"] += not a._is_zero_form() and not a or (
                not b._is_zero_form() and not b
            )
            counts["mixed"] += fa is not fb
            counts["units"] += bool(a.num_factors) and a.num_factors[0].is_unit()
        assert min(counts.values()) >= 20, counts

    def test_exppoly_subtraction_product_and_argument_change(self):
        rng = random.Random(2902)
        counts = {"constant_pairs": 0, "general_pairs": 0, "constant_shifts": 0, "mixed": 0}
        pools = _factor_pool()
        for field, pool in pools:
            lifted = [f.to_field(field) for f in pool]
            # products of two factors bring terms of higher degree
            lifted += [rng.choice(lifted) * rng.choice(lifted) for _ in range(12)]
            for _ in range(250):
                e, f = rng.choice(lifted), rng.choice(lifted + pools[0][1])
                counts["mixed"] += e.field is not f.field
                _assert_same_exppoly(e - f, reference_exppoly_sub(e, f))
                _assert_same_exppoly(e * f, reference_exppoly_mul(e, f))
                degrees = [(len(p.coeffs), len(q.coeffs)) for _, p in e.terms for _, q in f.terms]
                counts["constant_pairs"] += (1, 1) in degrees
                counts["general_pairs"] += any(pair != (1, 1) for pair in degrees)
                mult, offset = rng.randint(1, 3), rng.randint(-3, 3)
                _assert_same_exppoly(e.compose_arg(mult, offset), reference_compose_arg(e, mult, offset))
                counts["constant_shifts"] += any(len(p.coeffs) == 1 for _, p in e.terms)
        assert min(counts.values()) >= 20, counts

    def test_shift_factor_lists(self):
        """Each -c/lead of the fast build is the quotient of fractions made
        by ``from_exppoly``: unit and non-unit c, c equal to the lead, the
        constant 1 and unit and non-unit leads."""
        rng = random.Random(2903)
        seen = {"unit": 0, "non_unit": 0, "cancelled": 0, "unit_lead": 0}
        for field, pool in _factor_pool():
            # one operator's coefficients share a field
            pool = [f.to_field(field) for f in pool + [_exppoly((2, [0, 1]), (3, [0, 1]), (1, [-1]))]]
            minus_one = ExpPoly.constant(-1, field)
            for _ in range(300):
                c, lead = rng.choice(pool), rng.choice(pool)
                nums = [-c] if c.is_unit() else [minus_one, c]
                fast = ExpPolyFraction(c.field, nums, [lead])
                full = (-ExpPolyFraction.from_exppoly(c)) / ExpPolyFraction.from_exppoly(lead)
                _assert_same_fraction(fast, full)
                seen["unit" if c.is_unit() else "non_unit"] += 1
                seen["cancelled"] += c == lead and not c.is_unit()
                seen["unit_lead"] += lead.is_unit()
        assert min(seen.values()) >= 20, seen

    def test_combination_matrices_of_all_kinds(self, monkeypatch):
        """Whole matrices against the reference bodies, on operators with
        non-unit leads such as (2^n + 3^n)*N - 1, leads that vanish under a
        multiplier, and coefficients equal to the lead."""
        rng = random.Random(2904)
        two_three = _exppoly((2, [0, 1]), (3, [0, 1]), (1, [-1]))  # (2^n + 3^n) n - 1
        operators = [
            _operator([G(2) + 1, ExpPoly.from_poly(N_ + 1), two_three]),
            _operator([G(-1), two_three, G(3), G(2) - G(3)]),
            _operator([G(3) - 1, G(-1) + 1]),  # the lead 1 + (-1)^n vanishes on odd n
            _operator([two_three, G(F(1, 2)), two_three]),
        ]
        for field, pool in _factor_pool():
            pool = [f.to_field(field) for f in pool + [two_three]]
            for _ in range(8):
                order = rng.randint(1, 2)
                lead = rng.choice([f for f in pool if not f.is_unit()])
                operators.append(_operator([rng.choice(pool + [lead]) for _ in range(order)] + [lead]))
        cases = []
        for op in operators:
            cases.append((PARTIAL_SUM, op, None, 1))
            cases += [(SUBSEQUENCE, op, None, mult) for mult in (2, 3)]
            other = rng.choice(operators)
            cases += [(ADD, op, other, 1), (TERMWISE, op, other, 1)]
        entries = errors = 0
        for kind, op_a, op_b, mult in cases:
            rows = 3 if kind == TERMWISE else None
            fast = _matrix_or_error(kind, op_a, op_b, mult, rows)
            with monkeypatch.context() as patch:
                _install_reference_bodies(patch)
                full = _matrix_or_error(kind, op_a, op_b, mult, rows)
            if full is ZeroDivisionError:
                assert fast is ZeroDivisionError
                errors += 1
                continue
            assert len(fast) == len(full)
            for row, full_row in zip(fast, full):
                assert len(row) == len(full_row)
                for entry, value in zip(row, full_row):
                    _assert_same_fraction(entry, value)
                    entries += 1
        assert entries >= 800 and errors >= 1, (entries, errors)


# -- the representation lint ------------------------------------------------------

FIELDS_SOURCE = Path(__file__).resolve().parents[1] / "src" / "ansatzkit" / "fields.py"
INTEGER_METHODS = ("__add__", "__sub__", "__mul__", "__neg__", "inverse", "__eq__", "__bool__")


def test_element_arithmetic_names_no_fraction():
    tree = ast.parse(FIELDS_SOURCE.read_text())
    element = next(
        node
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "NumberFieldElement"
    )
    methods = {
        node.name: node
        for node in element.body
        if isinstance(node, ast.FunctionDef) and node.name in INTEGER_METHODS
    }
    assert sorted(methods) == sorted(INTEGER_METHODS)
    found = [
        f"{name}:{node.lineno}"
        for name, method in methods.items()
        for node in ast.walk(method)
        if (isinstance(node, ast.Name) and node.id == "Fraction")
        or (isinstance(node, ast.Attribute) and node.attr in ("Fraction", "coords"))
    ]
    assert found == []
