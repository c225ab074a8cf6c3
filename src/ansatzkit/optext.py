"""Textual syntax for shift operators, and the claim expression language.

Operators look like ``N^4 - 2*N^3 + 2*N - 1``, ``(n+2) + 2*N - n*N^2``,
``N^2 - N - 2^n`` or ``N - F(n+2)`` where F was declared separately as a
constant-coefficient recurrence.  The coefficient ring is inferred: plain
numbers give constants, n gives polynomials, q^n or coefficient names give
exponential polynomials.  ``parse_operator(operator_to_text(op)) == op``
holds structurally for everything this module prints.

The reader evaluates operator text as one table per value, {(power of N,
power of n, base): coefficient}, in plain numbers (ints until a division,
field elements for the terms of a declared name), and builds the
``Fraction``, ``Poly`` or ``ExpPoly`` coefficients and the ``ShiftOperator``
once, from the finished table.  Besides its terms a table carries what the
coefficient classes would have carried: the ring of the atoms it was built
from (``n - n`` is polynomial, ``n^0`` constant, ``1^n`` exponential), the
powers of N it has written, zero or not (so ``N - N`` is an operator text
and not a number), and the quadratic field of each power that a declared
name reached, so a clash of two fields raises where coefficient arithmetic
would raise it.
"""

import re
from fractions import Fraction
from itertools import accumulate
from operator import itemgetter

from .errors import (
    MixedRing,
    OperatorSyntaxError,
    UnknownCoefficient,
    UnsupportedField,
    ValidityUnproven,
)
from .exppoly import ExpPoly
from .fields import RATIONAL_FIELD, as_rational_poly, common_field, common_ratio
from .polynomials import Poly, QQ, _signed_join
from .sequences import (
    CoeffRing,
    RecurrenceSystem,
    ShiftOperator,
    coerce_coeff,
    join_rings,
    leading_validity_offset,
)

_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
# a token is (text, number, name, symbol): the match, white space before
# it included, and the one non-empty string among the other three
_TOKEN = re.compile(rf"(\s*(?:(\d+)|({_NAME.pattern})|([-+*/^(),;])))")
# a character that is no white space and starts no token
_UNEXPECTED = re.compile(r"[^\s\dA-Za-z_+\-*/^(),;]")
_END = ("", "", "", "")


def is_name(text):
    """Whether ``text`` reads as one name in operator and claim text."""
    return _NAME.fullmatch(text) is not None


def _tokenize(text):
    """The tokens of ``text``, closed by the end token, and where each
    starts: at the white space before it, the end at ``len(text)``."""
    tokens = _TOKEN.findall(text)
    positions = list(accumulate(map(len, map(itemgetter(0), tokens)), initial=0))
    # the matches tile the text up to its trailing white space unless the
    # scan skipped a character no token starts with
    if positions[-1] != len(text.rstrip()):
        bad = _UNEXPECTED.search(text)
        raise OperatorSyntaxError(f"unexpected character {bad.group()!r}", bad.start())
    positions[-1] = len(text)
    tokens.append(_END)
    return tokens, positions


# -- coefficient expression values ------------------------------------------


class _Table:
    """One value of operator text: ``terms`` {(i, j, base): c} stands for
    the sum of c * n^j * base^n * N^i with c nonzero; ``ring`` is the ring
    of the atoms it was built from; ``powers`` lists each i the value has
    written a coefficient for, zero or not, in the order first written;
    ``fields`` maps such an i to the quadratic field of a declared name
    that reached it.  Tables are never changed once built, and share their
    ``fields``."""

    __slots__ = ("terms", "ring", "powers", "fields")

    def __init__(self, terms, ring, powers=(0,), fields=None):
        self.terms = terms
        self.ring = ring
        self.powers = powers
        self.fields = fields or _NO_FIELDS

    def scalar(self):
        """The value of a nonzero number, something to divide by or raise
        to the power n, else None."""
        if self.powers == (0,) and self.ring is CoeffRing.CONSTANT and self.terms:
            return self.terms[_ONE_KEY]
        return None


_NO_FIELDS = {}
_ONE_KEY = (0, 0, 1)


def _ring(a, b):
    return a.ring if a.ring is b.ring else join_rings(a.ring, b.ring)


def _meet(fields, power, field):
    """Record ``field`` at ``power``; two quadratic fields raise
    UnsupportedField, the earlier one named first, as the coefficient
    arithmetic raises it."""
    prev = fields.get(power)
    fields[power] = field if prev is None else common_field(prev, field)


def _add(a, b):
    terms = dict(a.terms)
    for key, c in b.terms.items():
        prev = terms.get(key)
        if prev is None:
            terms[key] = c
        else:
            total = prev + c
            if total:
                terms[key] = total
            else:
                del terms[key]
    powers = a.powers
    if b.powers != powers:
        powers = tuple(dict.fromkeys(powers + b.powers))
    fields = a.fields
    if b.fields:
        fields = dict(fields)
        for i in b.powers:
            if i in b.fields:
                _meet(fields, i, b.fields[i])
    return _Table(terms, _ring(a, b), powers, fields)


def _mul(a, b):
    terms = {}
    for (i, j, base), c in a.terms.items():
        for (k, l, other), d in b.terms.items():
            key = (i + k, j + l, base * other)
            prev = terms.get(key)
            if prev is None:
                terms[key] = c * d
            else:
                total = prev + c * d
                if total:
                    terms[key] = total
                else:
                    del terms[key]
    powers = tuple(dict.fromkeys([i + k for i in a.powers for k in b.powers]))
    fields = _NO_FIELDS
    if a.fields or b.fields:
        fields = {}
        for i in a.powers:
            fa = a.fields.get(i)
            for k in b.powers:
                fb = b.fields.get(k)
                if fa is not None or fb is not None:
                    field = fb if fa is None else fa if fb is None else common_field(fa, fb)
                    _meet(fields, i + k, field)
    return _Table(terms, _ring(a, b), powers, fields)


def _scaled(a, factor):
    terms = {key: c * factor for key, c in a.terms.items()}
    return _Table(terms, a.ring, a.powers, a.fields)


def _negated(a):
    terms = {key: -c for key, c in a.terms.items()}
    return _Table(terms, a.ring, a.powers, a.fields)


_ONE = _Table({_ONE_KEY: 1}, CoeffRing.CONSTANT)
_SHIFT = _Table({(1, 0, 1): 1}, CoeffRing.CONSTANT, (1,))
_INDEX = _Table({(0, 1, 1): 1}, CoeffRing.POLY_N)


def _number(value):
    return _Table({_ONE_KEY: value} if value else {}, CoeffRing.CONSTANT)


def _declared(coeff):
    """The table of an ExpPoly coefficient, in its own field."""
    terms = {
        (0, j, base): c
        for base, poly in coeff.terms
        for j, c in enumerate(poly.coeffs)
        if c
    }
    fields = {0: coeff.field} if coeff.field.degree > 1 else None
    return _Table(terms, CoeffRing.EXPPOLY, (0,), fields)


class _Parser:
    """Recursive descent over the tokens of one text.  The evaluation reads
    the token tuples; ``peek`` and ``advance`` give (kind, value,
    position) triples, kind "number", "name", "symbol" or "end"."""

    def __init__(self, text, declarations=None):
        self.text = text
        self.tokens, self.positions = _tokenize(text)
        self.index = 0
        self.declarations = declarations or {}

    def peek(self):
        _, number, name, symbol = self.tokens[self.index]
        position = self.positions[self.index]
        if number:
            return "number", int(number), position
        if name:
            return "name", name, position
        if symbol:
            return "symbol", symbol, position
        return "end", None, position

    def advance(self):
        token = self.peek()
        self.index += 1
        return token

    def expect_symbol(self, symbol):
        if self.tokens[self.index][3] != symbol:
            raise OperatorSyntaxError(f"expected {symbol!r}", self.positions[self.index])
        self.index += 1

    def at_symbol(self, *symbols):
        return self.tokens[self.index][3] in symbols

    # expression := term (('+'|'-') term)*
    def expression(self):
        value = self.term()
        while self.at_symbol("+", "-"):
            op = self.tokens[self.index][3]
            self.index += 1
            rhs = self.term()
            value = _add(value, rhs if op == "+" else _negated(rhs))
        return value

    # term := factor (('*'|'/') factor)*
    def term(self):
        value = self.factor()
        while self.at_symbol("*", "/"):
            at = self.index
            self.index += 1
            rhs = self.factor()
            if self.tokens[at][3] == "*":
                value = _mul(value, rhs)
            else:
                divisor = rhs.scalar()
                if divisor is None:
                    raise OperatorSyntaxError(
                        "division only by nonzero numbers", self.positions[at]
                    )
                value = _scaled(value, 1 / Fraction(divisor))
        return value

    # factor := atom ['^' exponent]
    def factor(self):
        value = self.atom()
        if not self.at_symbol("^"):
            return value
        at = self.index + 1
        _, number, name, _ = self.tokens[at]
        self.index += 2
        if name == "n":
            base = value.scalar()
            if base is None:
                raise MixedRing("only nonzero numbers can be raised to the power n")
            return _Table({(0, 0, base): 1}, CoeffRing.EXPPOLY)
        if not number:
            raise OperatorSyntaxError("expected integer exponent", self.positions[at])
        exponent = int(number)
        # 1 * value is value itself
        result = _ONE if not exponent else value
        for _ in range(exponent - 1):
            result = _mul(result, value)
        return result

    def atom(self):
        at = self.index
        _, number, name, symbol = self.tokens[at]
        self.index += 1
        if number:
            return _number(int(number))
        if symbol == "(":
            inner = self.expression()
            self.expect_symbol(")")
            return inner
        if symbol == "-":
            return _negated(self.factor())
        if symbol == "+":
            return self.factor()
        if name == "N":
            return _SHIFT
        if name == "n":
            return _INDEX
        if name:
            if self.at_symbol("("):
                shift = self.shifted_argument()
                if name not in self.declarations:
                    raise UnknownCoefficient(name)
                return _declared(self.declarations[name].shift(shift))
            raise OperatorSyntaxError(f"unknown symbol {name!r}", self.positions[at])
        raise OperatorSyntaxError("expected a term", self.positions[at])

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
        return self.tokens[self.index] is _END


def _parse_value(text, declarations):
    """Operator text as a finished table."""
    parser = _Parser(text, declarations)
    value = parser.expression()
    if not parser.finished():
        raise OperatorSyntaxError("trailing input", parser.positions[parser.index])
    return value


def _polynomial(columns, domain):
    """The polynomial in n of {power of n: coefficient} over ``domain``."""
    coeffs = [0] * (max(columns) + 1) if columns else []
    for j, c in columns.items():
        coeffs[j] = c
    return Poly(coeffs, domain, "n")


def _coefficients(value):
    """The coefficients of N^0 .. N^top of a finished table, one per power
    of N the text wrote (the others 0), in the table's ring."""
    ring = value.ring
    size = max(value.powers) + 1
    if ring is CoeffRing.CONSTANT:
        coeffs = [0] * size
        for (i, _, _), c in value.terms.items():
            coeffs[i] = c
        return coeffs
    cells = [{} for _ in range(size)]
    if ring is CoeffRing.POLY_N:
        for (i, j, _), c in value.terms.items():
            cells[i][j] = c
        return [_polynomial(columns, QQ) for columns in cells]
    for (i, j, base), c in value.terms.items():
        cells[i].setdefault(base, {})[j] = c
    coeffs = []
    for i, groups in enumerate(cells):
        field = value.fields.get(i, RATIONAL_FIELD)
        pairs = [(base, _polynomial(columns, field)) for base, columns in groups.items()]
        coeffs.append(ExpPoly(field, pairs))
    return coeffs


def parse_operator(text, declarations=None):
    """Parse operator text into a ShiftOperator, inferring the ring."""
    value = _parse_value(text, declarations)
    return ShiftOperator(value.ring, _coefficients(value))


def parse_polynomial(text, declarations=None):
    """Parse text free of N into a polynomial in n, zero included; None when
    it has N or an exponential coefficient."""
    value = _parse_value(text, declarations)
    if value.powers != (0,) or value.ring is CoeffRing.EXPPOLY:
        return None
    return _polynomial({j: c for (_, j, _), c in value.terms.items()}, QQ)


# -- printing -----------------------------------------------------------------


def _bases(e):
    return [base for base, _ in e.terms]


def _exppoly_text(coeff, declarations):
    """Render an exponential polynomial coefficient, preferring declared
    names, then rational-base exponential terms.

    A name prints as q*NAME(n+s) with q rational and 0 <= s <= 23.  A shift
    keeps the bases, so a name whose bases differ from the coefficient's
    is never shifted, and shift s+1 is one step from shift s."""
    bases = _bases(coeff)
    for name, closed in (declarations or {}).items():
        if _bases(closed) != bases:
            continue
        try:
            target = closed.to_field(coeff.field)
        except UnsupportedField:
            continue
        for shift in range(0, 24):
            if shift:
                target = target.shift(1)
            ratio = common_ratio(
                (pa.coeffs, pb.coeffs) for (_, pa), (_, pb) in zip(coeff.terms, target.terms)
            )
            if ratio is None or not ratio.is_rational():
                continue
            ratio = ratio.as_rational()
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
        qq_poly = as_rational_poly(poly)
        if q == 1:
            parts.append(str(qq_poly))
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
    text = _signed_join(parts)
    return text, len(parts) > 1 or ("*" in text or "+" in text or " - " in text)


def operator_to_text(operator, declarations=None):
    """Canonical text for an operator, highest shift first."""
    pieces = []
    for power in range(operator.order, -1, -1):
        coeff = operator.coeffs[power]
        if not coeff:
            continue
        if operator.ring is CoeffRing.POLY_N and coeff.degree > 0:
            body, needs_parens, negative = str(coeff), True, False
        elif operator.ring is not CoeffRing.EXPPOLY:
            value = coerce_coeff(CoeffRing.CONSTANT, coeff)
            body, needs_parens, negative = str(abs(value)), False, value < 0
            if power > 0 and abs(value) == 1:
                body = ""
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


def parse_rational(text):
    """The rational number ``text`` as ``Fraction`` reads it; ValueError on
    malformed text and on a zero denominator.  A plain integer, the usual
    initial value or term, is read by ``int`` and returned as an ``int``,
    which ``Sequence`` and ``RecurrenceSystem`` take in one step."""
    digits = text.strip()
    if digits.isdecimal() or (digits[1:].isdecimal() and digits[0] in "+-"):
        return int(digits)
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text.strip()!r}") from None


_SPEC_PREFIX = re.compile(r"^\s*(poly|cfinite|holonomic|c2)\s*:(.*)$", re.S)

# the coefficient ring each spec class prefix admits
_PREFIX_RINGS = {
    "poly": CoeffRing.CONSTANT,
    "cfinite": CoeffRing.CONSTANT,
    "holonomic": CoeffRing.POLY_N,
    "c2": CoeffRing.EXPPOLY,
}


def parse_recurrence_spec(spec, declarations=None):
    """Parse ``class:operator;v0,v1,...`` into a RecurrenceSystem.

    The optional class prefix bounds the operator's inferred ring: an
    operator outside the prefix's ring raises MixedRing, and a larger ring
    than the operator needs is accepted and changes nothing.

    Supplying more than ``order`` initial values moves the validity offset
    forward, which is how relations with early leading-coefficient zeros
    (like a leading coefficient of n or 2^n - 1) are written down.  A
    leading coefficient that vanishes on a residue class of n raises
    LeadingAlwaysZero; one whose zeros are undecided is taken as written.
    """
    match = _SPEC_PREFIX.match(spec)
    body = spec
    if match:
        body = match.group(2)
    if ";" not in body:
        raise OperatorSyntaxError("missing ';' before initial values", len(spec))
    operator_text, initials_text = body.rsplit(";", 1)
    operator = parse_operator(operator_text.strip(), declarations)
    if match:
        ring = _PREFIX_RINGS[match.group(1)]
        if ring is not operator.ring and join_rings(ring, operator.ring) is not ring:
            raise MixedRing(
                f"class {match.group(1)!r} admits {ring.value} coefficients,"
                f" not {operator.ring.value} ones"
            )
    initials = [
        parse_rational(part) for part in initials_text.split(",") if part.strip()
    ]
    validity = len(initials) - operator.order
    if validity < 0:
        raise OperatorSyntaxError(
            f"operator of order {operator.order} needs at least that many"
            " initial values",
            len(spec),
        )
    try:
        needed = leading_validity_offset(operator)
    except ValidityUnproven:
        needed = 0
    if validity < needed:
        raise OperatorSyntaxError(
            "leading coefficient vanishes at an index the initial values do"
            " not cover; supply more of them",
            len(spec),
        )
    return RecurrenceSystem(operator, initials, validity, 0)


def parse_claim_terms(text, known_names):
    """Parse a claim expression into ``(coefficient, ((name, shift), ...))``
    pairs, one per term, the arguments of a ``closure.ClaimTerm``.

    Grammar: sum of products of NAME(n+shift)^power factors with optional
    leading rational coefficients, e.g.
    ``a(n+1) - a(n)*a(n+1) + a(n)*a(n+2) + a(n+1)^2 - a(n+1)*a(n+2)``.
    """
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
                    if not den:
                        raise OperatorSyntaxError(
                            "division only by nonzero numbers", pos2
                        )
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
        terms.append((coeff, tuple(factors)))
        if parser.finished():
            break
        if not parser.at_symbol("+", "-"):
            raise OperatorSyntaxError("expected + or -", parser.peek()[2])
        sign = 1
    return tuple(terms)
