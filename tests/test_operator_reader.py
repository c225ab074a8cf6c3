"""The operator reader against the coefficient-class evaluator it replaced.

``reference_parse_operator`` below is the reader as it was before it
evaluated text as one table per value: every value a dict {power of N:
coefficient} of ``Fraction``, ``Poly`` or ``ExpPoly``, each operation
coercing both sides through ``join_rings`` and ``coerce_coeff``.  It is kept
unchanged, as ``reference_null_vectors`` is for the elimination kernel, and
the reader must agree with it on every text: the same operator, ring and
coefficient classes (fields and domains included), or the same exception
with the same message and position.
"""

import random
import re
from fractions import Fraction

import pytest

from ansatzkit import (
    CoeffRing,
    ExpPoly,
    Poly,
    QQ,
    ShiftOperator,
    register_coefficient,
)
from ansatzkit.cli import main
from ansatzkit.errors import (
    MixedRing,
    OperatorSyntaxError,
    UnknownCoefficient,
    UnsupportedField,
)
from ansatzkit.fields import NumberFieldElement
from ansatzkit.optext import (
    parse_operator,
    parse_polynomial,
    parse_rational,
    parse_recurrence_spec,
)
from ansatzkit.sequences import coerce_coeff, join_rings


# -- the reference reader ---------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<number>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<symbol>[-+*/^(),;]))"
)


def _tokenize(text):
    tokens = []
    position = 0
    while position < len(text):
        match = _TOKEN.match(text, position)
        if not match or match.end() == position:
            bad = _first_nonspace(text, position)
            if bad < len(text):
                raise OperatorSyntaxError(
                    f"unexpected character {text[bad]!r}", bad
                )
            break
        if match.group("number"):
            tokens.append(("number", int(match.group("number")), match.start()))
        elif match.group("name"):
            tokens.append(("name", match.group("name"), match.start()))
        else:
            tokens.append(("symbol", match.group("symbol"), match.start()))
        position = match.end()
    tokens.append(("end", None, len(text)))
    return tokens


def _first_nonspace(text, position):
    while position < len(text) and text[position].isspace():
        position += 1
    return position


# -- coefficient expression values ------------------------------------------
#
# Values are dicts {power of N: coefficient}; coefficients are Fraction,
# Poly in n, or ExpPoly, lifted into the larger ring as needed.


def _ring_of(coefficient):
    if isinstance(coefficient, ExpPoly):
        return CoeffRing.EXPPOLY
    if isinstance(coefficient, Poly):
        return CoeffRing.POLY_N
    return CoeffRing.CONSTANT


def _coeff_add(a, b):
    ring = join_rings(_ring_of(a), _ring_of(b))
    return coerce_coeff(ring, a) + coerce_coeff(ring, b)


def _coeff_mul(a, b):
    ring = join_rings(_ring_of(a), _ring_of(b))
    return coerce_coeff(ring, a) * coerce_coeff(ring, b)


def _value_add(a, b):
    out = dict(a)
    for power, coeff in b.items():
        out[power] = _coeff_add(out[power], coeff) if power in out else coeff
    return out


def _value_mul(a, b):
    out = {}
    for pa, ca in a.items():
        for pb, cb in b.items():
            power = pa + pb
            piece = _coeff_mul(ca, cb)
            out[power] = _coeff_add(out[power], piece) if power in out else piece
    return out


def _value_neg(a):
    return {p: _coeff_mul(c, Fraction(-1)) for p, c in a.items()}


def _is_constant(value):
    return set(value) <= {0} and _ring_of(value.get(0, Fraction(0))) is CoeffRing.CONSTANT


class _ReferenceParser:
    def __init__(self, text, declarations=None):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0
        self.declarations = declarations or {}

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect_symbol(self, symbol):
        kind, value, position = self.advance()
        if kind != "symbol" or value != symbol:
            raise OperatorSyntaxError(f"expected {symbol!r}", position)

    def at_symbol(self, *symbols):
        kind, value, _ = self.peek()
        return kind == "symbol" and value in symbols

    # expression := term (('+'|'-') term)*
    def expression(self):
        value = self.term()
        while self.at_symbol("+", "-"):
            _, op, _ = self.advance()
            rhs = self.term()
            value = _value_add(value, rhs if op == "+" else _value_neg(rhs))
        return value

    # term := factor (('*'|'/') factor)*
    def term(self):
        value = self.factor()
        while self.at_symbol("*", "/"):
            _, op, position = self.advance()
            rhs = self.factor()
            if op == "*":
                value = _value_mul(value, rhs)
            else:
                if not _is_constant(rhs) or not rhs.get(0):
                    raise OperatorSyntaxError(
                        "division only by nonzero numbers", position
                    )
                value = _value_mul(value, {0: 1 / rhs[0]})
        return value

    # factor := atom ['^' exponent]
    def factor(self):
        value = self.atom()
        if self.at_symbol("^"):
            _, _, position = self.advance()
            kind, exponent, exppos = self.advance()
            if kind == "name" and exponent == "n":
                if not _is_constant(value) or not value.get(0):
                    raise MixedRing(
                        "only nonzero numbers can be raised to the power n"
                    )
                return {0: ExpPoly.geometric(value[0])}
            if kind != "number":
                raise OperatorSyntaxError("expected integer exponent", exppos)
            result = {0: Fraction(1)}
            for _ in range(exponent):
                result = _value_mul(result, value)
            return result
        return value

    def atom(self):
        kind, value, position = self.advance()
        if kind == "number":
            return {0: Fraction(value)}
        if kind == "symbol" and value == "(":
            inner = self.expression()
            self.expect_symbol(")")
            return inner
        if kind == "symbol" and value == "-":
            return _value_neg(self.factor())
        if kind == "symbol" and value == "+":
            return self.factor()
        if kind == "name":
            if value == "N":
                return {1: Fraction(1)}
            if value == "n":
                return {0: Poly([0, 1], QQ, "n")}
            if self.at_symbol("("):
                shift = self.shifted_argument()
                if value not in self.declarations:
                    raise UnknownCoefficient(value)
                return {0: self.declarations[value].shift(shift)}
            raise OperatorSyntaxError(f"unknown symbol {value!r}", position)
        raise OperatorSyntaxError("expected a term", position)

    def shifted_argument(self):
        """Parse (n), (n+k) or (n-k); returns the shift k."""
        self.expect_symbol("(")
        kind, value, position = self.advance()
        if kind != "name" or value != "n":
            raise OperatorSyntaxError("coefficient argument must be n", position)
        shift = 0
        if self.at_symbol("+", "-"):
            _, sign, _ = self.advance()
            kind, amount, position = self.advance()
            if kind != "number":
                raise OperatorSyntaxError("expected integer shift", position)
            shift = amount if sign == "+" else -amount
        self.expect_symbol(")")
        return shift

    def finished(self):
        return self.peek()[0] == "end"


def _parse_value(text, declarations):
    """Operator text as {power of N: coefficient}, with its inferred ring."""
    parser = _ReferenceParser(text, declarations)
    value = parser.expression()
    if not parser.finished():
        raise OperatorSyntaxError("trailing input", parser.peek()[2])
    if not value:
        raise OperatorSyntaxError("empty operator", 0)
    return value, join_rings(*(_ring_of(c) for c in value.values()))


def reference_parse_operator(text, declarations=None):
    """Parse operator text into a ShiftOperator, inferring the ring."""
    value, ring = _parse_value(text, declarations)
    coeffs = [value.get(power, Fraction(0)) for power in range(max(value) + 1)]
    return ShiftOperator(ring, coeffs)


def reference_parse_polynomial(text, declarations=None):
    """Parse text free of N into a polynomial in n, zero included; None when
    it has N or an exponential coefficient."""
    value, ring = _parse_value(text, declarations)
    if set(value) != {0} or ring is CoeffRing.EXPPOLY:
        return None
    return coerce_coeff(CoeffRing.POLY_N, value[0])



# -- comparing outcomes -----------------------------------------------------------


def structure(value):
    """``value`` as nested tuples that tell apart every class, field and
    domain: equal structures are the same object graph up to identity."""
    if isinstance(value, ShiftOperator):
        return ("operator", value.ring, tuple(structure(c) for c in value.coeffs))
    if isinstance(value, ExpPoly):
        terms = tuple((structure(b), structure(p)) for b, p in value.terms)
        return ("exppoly", value.field.minpoly.coeffs, terms)
    if isinstance(value, Poly):
        domain = "QQ" if value.domain is QQ else value.domain.minpoly.coeffs
        return ("poly", domain, value.var, tuple(structure(c) for c in value.coeffs))
    if isinstance(value, NumberFieldElement):
        return ("element", value.field.minpoly.coeffs, value.nums, value.den)
    if value is None:
        return None
    return (type(value).__name__, value)


def outcome(parse, text, declarations):
    try:
        return ("value", structure(parse(text, declarations)))
    except Exception as exc:  # the exception itself is what is compared
        return ("raised", type(exc), str(exc), getattr(exc, "position", None))


def declarations():
    """F and L over Q(sqrt 5), P over Q, and G over Q(sqrt 2) for clashes."""
    specs = {
        "F": "cfinite:N^2-N-1;0,1",
        "L": "cfinite:N^2-N-1;2,1",
        "P": "cfinite:N^2-3*N+2;0,1",
        "G": "cfinite:N^2-2;1,1",
    }
    return {name: register_coefficient(parse_recurrence_spec(spec)) for name, spec in specs.items()}


DECLARED = declarations()


# -- a seeded corpus of operator texts --------------------------------------------


def _atom(rng, depth):
    roll = rng.random()
    if roll < 0.25:
        return str(rng.choice([0, 1, 1, 2, 3, 5, 12]))
    if roll < 0.42:
        return "N"
    if roll < 0.57:
        return "n"
    if roll < 0.67:
        bases = ["2", "3", "(-1)", "(1/2)", "(-2/3)", "1", "0", "(n-n+2)", "N"]
        base = rng.choices(bases, weights=[4, 3, 3, 3, 2, 2, 1, 1, 1])[0]
        return f"{base}^n"
    if roll < 0.77:
        name = rng.choices("FLPG", weights=[6, 2, 2, 1])[0]
        shift = rng.randint(-3, 3)
        argument = "n" if shift == 0 else f"n{shift:+d}"
        return f"{name}({argument})"
    if roll < 0.87 and depth > 0:
        return f"({_expression(rng, depth - 1)})"
    if roll < 0.93:
        return "-" + _factor(rng, depth - 1) if depth > 0 else "-N"
    return str(rng.randint(0, 40))


def _factor(rng, depth):
    atom = _atom(rng, depth)
    roll = rng.random()
    if roll < 0.2:
        return f"{atom}^{rng.randint(0, 3)}"
    if roll < 0.22:
        return f"({atom})^n"
    return atom


def _term(rng, depth):
    text = _factor(rng, depth)
    for _ in range(rng.randint(0, 2)):
        if rng.random() < 0.85:
            text += "*" + _factor(rng, depth)
        else:
            divisors = ["2", "3", "(1/2)", "(3*4)", "(-5)", "0", "n", "(2-2)", "2^n", "N"]
            text += "/" + rng.choices(divisors, weights=[4, 3, 3, 2, 2, 1, 1, 1, 1, 1])[0]
    return text


def _expression(rng, depth):
    text = _term(rng, depth)
    for _ in range(rng.randint(0, 3)):
        text += rng.choice([" + ", " - ", "+", "-"]) + _term(rng, depth)
    return text


def _damaged(rng, text):
    """``text`` with one character dropped, doubled or replaced."""
    at = rng.randrange(len(text))
    roll = rng.random()
    if roll < 0.4:
        return text[:at] + text[at + 1:]
    if roll < 0.7:
        return text[:at] + text[at] + text[at:]
    return text[:at] + rng.choice("@)(^;,/ ") + text[at + 1:]


def corpus(seed, size):
    rng = random.Random(f"operator-reader:{seed}")
    texts = []
    for _ in range(size):
        text = _expression(rng, 2)
        if rng.random() < 0.15:
            text = _damaged(rng, text)
        texts.append(text)
    return texts


# -- the tests --------------------------------------------------------------------


class TestDifferential:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_reader_matches_the_reference(self, seed):
        rings, errors = set(), set()
        for text in corpus(seed, 300):
            expected = outcome(reference_parse_operator, text, DECLARED)
            assert outcome(parse_operator, text, DECLARED) == expected, text
            assert outcome(parse_polynomial, text, DECLARED) == outcome(
                reference_parse_polynomial, text, DECLARED
            ), text
            if expected[0] == "value":
                rings.add(expected[1][1])
            else:
                errors.add(expected[1])
        # the corpus reaches every ring and every way the reader fails
        assert rings == set(CoeffRing)
        assert {OperatorSyntaxError, MixedRing, ValueError} <= errors

    def test_the_corpus_reaches_field_clashes_and_unknown_names(self):
        texts = corpus(1, 300) + corpus(2, 300) + corpus(3, 300)
        errors = {outcome(reference_parse_operator, text, DECLARED)[1] for text in texts}
        assert UnsupportedField in errors
        assert UnknownCoefficient in {
            outcome(reference_parse_operator, text, {})[1] for text in texts
        }

    def test_without_declarations(self):
        for text in corpus(4, 200):
            assert outcome(parse_operator, text, None) == outcome(
                reference_parse_operator, text, None
            ), text


class TestPinnedTexts:
    """Texts whose answer rests on what the atoms are, not on the values."""

    @pytest.mark.parametrize(
        "text, ring",
        [
            ("N + (n - n)", CoeffRing.POLY_N),
            ("N + n^0", CoeffRing.CONSTANT),
            ("N + 1^n", CoeffRing.EXPPOLY),
            ("N*(n - n) + 1", CoeffRing.POLY_N),
            ("N + (F(n) - F(n))", CoeffRing.EXPPOLY),
        ],
    )
    def test_ring_follows_the_atoms(self, text, ring):
        assert parse_operator(text, DECLARED).ring is ring
        assert outcome(parse_operator, text, DECLARED) == outcome(
            reference_parse_operator, text, DECLARED
        )

    def test_zero_polynomial_and_constant_ring(self):
        assert parse_polynomial("n - n") == Poly([], QQ, "n")
        assert parse_polynomial("n^0") == Poly([1], QQ, "n")
        assert parse_polynomial("1^n") is None

    def test_cancelled_declared_name_keeps_its_field(self):
        # a zero coefficient below the top still lifts the operator into
        # the name's field; a zero top coefficient is dropped, field and all
        middle = parse_operator("N^2 + (F(n) - F(n))*N + 2^n", DECLARED)
        assert middle.coeffs[0].field is DECLARED["F"].field
        top = parse_operator("(F(n) - F(n))*N + 2^n", DECLARED)
        assert top.coeffs[0].field.degree == 1

    @pytest.mark.parametrize("text", ["(n-n+2)^n", "0^n", "N^n", "(N-N+2)^n", "F(n)^n"])
    def test_power_n_of_a_non_number(self, text):
        with pytest.raises(MixedRing, match="only nonzero numbers can be raised"):
            parse_operator(text, DECLARED)
        assert outcome(parse_operator, text, DECLARED) == outcome(
            reference_parse_operator, text, DECLARED
        )

    @pytest.mark.parametrize("text, position", [("N/n", 1), ("N/0", 1), ("N /(2-2)", 1)])
    def test_division_only_by_nonzero_numbers(self, text, position):
        with pytest.raises(OperatorSyntaxError) as info:
            parse_operator(text)
        assert str(info.value) == f"division only by nonzero numbers (at position {position})"
        assert outcome(parse_operator, text, None) == outcome(reference_parse_operator, text, None)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("N^ - 1", "expected integer exponent (at position 2)"),
            ("N - 1;", "trailing input (at position 5)"),
            ("N - @", "unexpected character '@' (at position 4)"),
            ("  N -  3 )", "trailing input (at position 8)"),
        ],
    )
    def test_syntax_error_messages(self, text, message):
        with pytest.raises(OperatorSyntaxError) as info:
            parse_operator(text)
        assert str(info.value) == message
        assert outcome(parse_operator, text, None) == outcome(reference_parse_operator, text, None)

    def test_spec_with_two_separators(self):
        with pytest.raises(OperatorSyntaxError, match=re.escape("trailing input (at position 5)")):
            parse_recurrence_spec("N - 1;;1")

    @pytest.mark.parametrize(
        "text",
        [
            "N - F(n) - G(n)",
            "F(n)*N + G(n)",
            "(F(n)*N + G(n))^2",
            # two clashes: the message names the fields of the first one,
            # taken in the order the powers of N were first written
            "F(n)*N + G(n) + (G(n)*N + F(n))",
            "G(n)*N + F(n)*N^2 + (G(n)*N + F(n))*N",
        ],
    )
    def test_two_quadratic_fields(self, text):
        with pytest.raises(UnsupportedField, match="no supported field contains both"):
            parse_operator(text, DECLARED)
        assert outcome(parse_operator, text, DECLARED) == outcome(
            reference_parse_operator, text, DECLARED
        )

    def test_zero_operator_is_a_usage_error(self, capsys):
        with pytest.raises(ValueError, match="zero shift operator"):
            parse_recurrence_spec("N - N;1")
        assert main(["genfun", "--class", "cfinite", "N - N;1"]) == 2
        assert capsys.readouterr().err == "usage error: zero shift operator\n"


class TestParseRational:
    @pytest.mark.parametrize(
        "text, kind",
        [
            ("7", int), (" 12 ", int), ("-3", int), ("+4", int), ("0", int), ("-0", int),
            ("\u0663", int), ("1/2", Fraction), (" -6/4 ", Fraction), ("1.5", Fraction),
            ("2e3", Fraction),
        ],
    )
    def test_agrees_with_fraction(self, text, kind):
        # a plain integer literal is read as an int, anything else as Fraction
        value = parse_rational(text)
        assert value == Fraction(text)
        assert type(value) is kind

    @pytest.mark.parametrize("text", ["", " ", "-", "+-1", "1/0", "x", "\u00b2"])
    def test_rejects_what_fraction_rejects(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)
