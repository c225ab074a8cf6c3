"""Textual syntax for shift operators, and the claim expression language.

Operators look like ``N^4 - 2*N^3 + 2*N - 1``, ``(n+2) + 2*N - n*N^2``,
``N^2 - N - 2^n`` or ``N - F(n+2)`` where F was declared separately as a
constant-coefficient recurrence.  The coefficient ring is inferred: plain
numbers give constants, n gives polynomials, q^n or coefficient names give
exponential polynomials.  ``parse_operator(operator_to_text(op)) == op``
holds structurally for everything this module prints.
"""

import re
from fractions import Fraction

from .errors import MixedRing, OperatorSyntaxError, UnknownCoefficient
from .exppoly import ExpPoly
from .fields import RATIONAL_FIELD
from .polynomials import Poly, QQ
from .sequences import CoeffRing, ShiftOperator

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
# Poly in n, or ExpPoly, promoted as needed.


def _level(coefficient):
    if isinstance(coefficient, Fraction):
        return 0
    if isinstance(coefficient, Poly):
        return 1
    return 2


def _promote(coefficient, level):
    current = _level(coefficient)
    if current == level:
        return coefficient
    if current == 0 and level == 1:
        return Poly([coefficient], QQ, "n")
    if current == 0 and level == 2:
        return ExpPoly.constant(coefficient)
    if current == 1 and level == 2:
        return ExpPoly.from_poly(coefficient)
    raise MixedRing("cannot demote a coefficient")


def _coeff_add(a, b):
    level = max(_level(a), _level(b))
    return _promote(a, level) + _promote(b, level)


def _coeff_mul(a, b):
    level = max(_level(a), _level(b))
    if level == 2:
        return _promote(a, 2) * _promote(b, 2)
    return _promote(a, level) * _promote(b, level)


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
    return set(value) <= {0} and (_level(value.get(0, Fraction(0))) == 0)


class _Parser:
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


def parse_operator(text, declarations=None):
    """Parse operator text into a ShiftOperator, inferring the ring."""
    parser = _Parser(text, declarations)
    value = parser.expression()
    if not parser.finished():
        raise OperatorSyntaxError("trailing input", parser.peek()[2])
    if not value:
        raise OperatorSyntaxError("empty operator", 0)
    order = max(value)
    levels = [_level(c) for c in value.values()]
    top = max(levels)
    ring = (
        CoeffRing.CONSTANT,
        CoeffRing.POLY_N,
        CoeffRing.EXPPOLY,
    )[top]
    coeffs = []
    for power in range(order + 1):
        coeff = value.get(power, Fraction(0))
        coeffs.append(_promote(coeff, top))
    return ShiftOperator(ring, coeffs)


# -- printing -----------------------------------------------------------------


def _poly_text(poly):
    return str(poly)


def _exppoly_rational_ratio(a, b):
    """Fraction q with a == q*b (structurally), or None."""
    if len(a.terms) != len(b.terms):
        return None
    ratio = None
    for (base_a, poly_a), (base_b, poly_b) in zip(a.terms, b.terms):
        if base_a != base_b or len(poly_a.coeffs) != len(poly_b.coeffs):
            return None
        for ca, cb in zip(poly_a.coeffs, poly_b.coeffs):
            if bool(ca) != bool(cb):
                return None
            if ca:
                r = ca / cb
                if not r.is_rational():
                    return None
                r = r.as_rational()
                if ratio is None:
                    ratio = r
                elif r != ratio:
                    return None
    return ratio


def _exppoly_text(coeff, declarations):
    """Render an exponential polynomial coefficient, preferring declared
    names, then rational-base exponential terms."""
    for name, closed in (declarations or {}).items():
        target = closed if closed.field == coeff.field else None
        if target is None:
            try:
                target = closed.to_field(coeff.field)
            except Exception:
                continue
        for shift in range(0, 24):
            ratio = _exppoly_rational_ratio(coeff, target.shift(shift))
            if ratio is not None:
                argument = "n" if shift == 0 else f"n+{shift}"
                if ratio == 1:
                    return f"{name}({argument})", False
                if ratio == -1:
                    return f"-{name}({argument})", False
                return f"{ratio}*{name}({argument})", True
    if any(not base.is_rational() for base, _ in coeff.terms):
        # no declared name matches and the bases leave the rationals; fall
        # back to the raw closed form (readable, not re-parseable)
        return str(coeff), True
    parts = []
    for base, poly in coeff.terms:
        q = base.as_rational()
        rational_coeffs = [c.as_rational() for c in poly.coeffs]
        qq_poly = Poly(rational_coeffs, QQ, "n")
        if q == 1:
            parts.append(_poly_text(qq_poly))
            continue
        base_text = f"{q}^n" if q > 0 and q.denominator == 1 else f"({q})^n"
        if qq_poly == Poly([1], QQ, "n"):
            parts.append(base_text)
        elif qq_poly == Poly([-1], QQ, "n"):
            parts.append(f"-{base_text}")
        elif qq_poly.degree == 0:
            parts.append(f"{qq_poly.coefficient(0)}*{base_text}")
        else:
            parts.append(f"({qq_poly})*{base_text}")
    text = parts[0]
    for part in parts[1:]:
        text += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
    return text, len(parts) > 1 or ("*" in text or "+" in text or " - " in text)


def operator_to_text(operator, declarations=None):
    """Canonical text for an operator, highest shift first."""
    pieces = []
    for power in range(operator.order, -1, -1):
        coeff = operator.coeffs[power]
        if not coeff:
            continue
        if operator.ring is CoeffRing.CONSTANT:
            body, needs_parens, negative = str(abs(coeff)), False, coeff < 0
            if power > 0 and abs(coeff) == 1:
                body = ""
        elif operator.ring is CoeffRing.POLY_N:
            if coeff.degree == 0:
                value = coeff.coefficient(0)
                body, needs_parens, negative = str(abs(value)), False, value < 0
                if power > 0 and abs(value) == 1:
                    body = ""
            else:
                body, needs_parens, negative = _poly_text(coeff), True, False
        else:
            text, composite = _exppoly_text(coeff, declarations)
            if text.startswith("-"):
                negative, text = True, text[1:]
            else:
                negative = False
            if text == "1" and power > 0:
                text = ""
            body, needs_parens = text, composite
        if power == 0:
            term = f"({body})" if needs_parens else body
            if not term:
                term = "1"
        else:
            n_part = "N" if power == 1 else f"N^{power}"
            if body:
                wrapped = f"({body})" if needs_parens else body
                term = f"{wrapped}*{n_part}"
            else:
                term = n_part
        pieces.append((negative, term))
    first_negative, first_term = pieces[0]
    text = ("-" if first_negative else "") + first_term
    for negative, term in pieces[1:]:
        text += f" - {term}" if negative else f" + {term}"
    return text


# -- recurrence system and claim specs ----------------------------------------


def parse_recurrence_spec(spec, declarations=None):
    """Parse ``class:operator;v0,v1,...`` into a RecurrenceSystem.

    Supplying more than ``order`` initial values moves the validity offset
    forward, which is how relations with early leading-coefficient zeros
    (like a leading coefficient of n) are written down.
    """
    from .sequences import RecurrenceSystem, leading_validity_offset

    match = re.match(r"^\s*(poly|cfinite|holonomic|c2)\s*:(.*)$", spec, re.S)
    body = spec
    if match:
        body = match.group(2)
    if ";" not in body:
        raise OperatorSyntaxError("missing ';' before initial values", len(spec))
    operator_text, initials_text = body.rsplit(";", 1)
    operator = parse_operator(operator_text.strip(), declarations)
    initials = [
        Fraction(part.strip()) for part in initials_text.split(",") if part.strip()
    ]
    validity = len(initials) - operator.order
    if validity < 0:
        raise OperatorSyntaxError(
            f"operator of order {operator.order} needs at least that many"
            " initial values",
            len(spec),
        )
    if operator.ring is CoeffRing.POLY_N and validity < leading_validity_offset(operator):
        raise OperatorSyntaxError(
            "leading coefficient vanishes at an index the initial values do"
            " not cover; supply more of them",
            len(spec),
        )
    return RecurrenceSystem(operator, initials, validity, 0)


def parse_claim_terms(text, known_names):
    """Parse a claim expression into ClaimTerm tuples.

    Grammar: sum of products of NAME(n+shift)^power factors with optional
    leading rational coefficients, e.g.
    ``a(n+1) - a(n)*a(n+1) + a(n)*a(n+2) + a(n+1)^2 - a(n+1)*a(n+2)``.
    """
    from .closure import ClaimTerm

    parser = _Parser(text)
    terms = []
    sign = 1
    while True:
        if parser.at_symbol("+"):
            parser.advance()
        elif parser.at_symbol("-"):
            parser.advance()
            sign = -sign
        coeff = Fraction(sign)
        factors = []
        while True:
            kind, value, position = parser.peek()
            if kind == "number":
                parser.advance()
                number = Fraction(value)
                if parser.at_symbol("/"):
                    parser.advance()
                    kind2, den, pos2 = parser.advance()
                    if kind2 != "number":
                        raise OperatorSyntaxError("expected denominator", pos2)
                    number /= den
                coeff *= number
            elif kind == "name":
                parser.advance()
                if value not in known_names:
                    raise UnknownCoefficient(value)
                shift = parser.shifted_argument()
                power = 1
                if parser.at_symbol("^"):
                    parser.advance()
                    kind2, power, pos2 = parser.advance()
                    if kind2 != "number":
                        raise OperatorSyntaxError("expected integer power", pos2)
                factors.extend([(value, shift)] * power)
            else:
                raise OperatorSyntaxError("expected a factor", position)
            if parser.at_symbol("*"):
                parser.advance()
                continue
            break
        terms.append(ClaimTerm(coeff, tuple(factors)))
        if parser.finished():
            break
        if not parser.at_symbol("+", "-"):
            raise OperatorSyntaxError("expected + or -", parser.peek()[2])
        sign = 1
    return tuple(terms)
