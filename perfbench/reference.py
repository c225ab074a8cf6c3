"""Independent answer checks for the benchmark.

Nothing here calls ansatzkit arithmetic.  Library answers are read as plain
data (coefficient lists, JSON documents, printed text) and evaluated with
Python's ``Fraction`` and a small pair arithmetic for quadratic fields
Q[t]/(t^2 + c1*t + c0).  A field element is a pair (a, b) meaning a + b*t;
rational numbers are pairs with b = 0 and need no modulus.
"""

import json
import math
import re
from fractions import Fraction

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))
RATIONAL = (Fraction(0), Fraction(0))  # modulus unused when every b is 0


# -- pair arithmetic -------------------------------------------------------


def q(value):
    return (Fraction(value), Fraction(0))


def qadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def qneg(x):
    return (-x[0], -x[1])


def qmul(x, y, mod):
    a, b = x
    c, d = y
    bd = b * d
    return (a * c - bd * mod[0], a * d + b * c - bd * mod[1])


def qinv(x, mod):
    a, b = x
    c0, c1 = mod
    norm = a * a - c1 * a * b + c0 * b * b
    if not norm:
        raise ZeroDivisionError("inverse of zero")
    return ((a - c1 * b) / norm, -b / norm)


def qpow(x, n, mod):
    result, base = ONE, x
    while n:
        if n & 1:
            result = qmul(result, base, mod)
        base = qmul(base, base, mod)
        n >>= 1
    return result


def rational(x):
    if x[1]:
        raise ValueError(f"{x} is not rational")
    return x[0]


# -- plain exponential polynomials ----------------------------------------
# A coefficient is a list of (base, [c0, c1, ...]) with pair entries; its
# value at n is sum over terms of base^n * (c0 + c1*n + ...).


def exppoly_value(terms, n, mod):
    if mod is RATIONAL:
        value = Fraction(0)
        for base, poly in terms:
            acc = Fraction(0)
            for c in reversed(poly):
                acc = acc * n + c[0]
            value += acc * base[0] ** n
        return (value, Fraction(0))
    total = ZERO
    nn = q(n)
    for base, poly in terms:
        acc = ZERO
        for c in reversed(poly):
            acc = qadd(qmul(acc, nn, mod), c)
        total = qadd(total, qmul(acc, qpow(base, n, mod), mod))
    return total


def poly_coeff(coeffs):
    """Plain coefficient for a polynomial in n with rational coefficients."""
    return [(ONE, [q(c) for c in coeffs])]


def operator_values(coeffs, n, mod):
    return [exppoly_value(c, n, mod) for c in coeffs]


def unroll(coeffs, initials, count, mod=RATIONAL):
    """First ``count`` terms of sum_i c_i(n) a(n+i) = 0 from the initials."""
    r = len(coeffs) - 1
    if mod is RATIONAL:
        terms = [Fraction(v) for v in initials]
        while len(terms) < count:
            n = len(terms) - r
            values = [v[0] for v in operator_values(coeffs, n, mod)]
            acc = sum((values[i] * terms[n + i] for i in range(r)), Fraction(0))
            terms.append(-acc / values[r])
        return terms[:count]
    terms = [q(v) for v in initials]
    while len(terms) < count:
        n = len(terms) - r
        values = operator_values(coeffs, n, mod)
        acc = ZERO
        for i in range(r):
            acc = qadd(acc, qmul(values[i], terms[n + i], mod))
        terms.append(qmul(qneg(acc), qinv(values[r], mod), mod))
    return [rational(t) for t in terms[:count]]


def annihilation_defect(coeffs, terms, start, mod=RATIONAL):
    """First n >= start where the operator does not annihilate ``terms``
    or its leading coefficient vanishes; None when there is none."""
    r = len(coeffs) - 1
    for n in range(start, len(terms) - r):
        values = operator_values(coeffs, n, mod)
        if mod is RATIONAL:
            if not values[r][0] or sum(values[i][0] * terms[n + i] for i in range(r + 1)):
                return n
            continue
        if values[r] == ZERO:
            return n
        acc = ZERO
        for i in range(r + 1):
            acc = qadd(acc, qmul(values[i], q(terms[n + i]), mod))
        if acc != ZERO:
            return n
    return None


def check_system(coeffs, initials, validity, terms, mod=RATIONAL, min_checked=8):
    """A returned recurrence system describes ``terms`` from n = 0.

    The initials must be the first terms, the operator must annihilate the
    terms from its validity offset on, and its leading coefficient must not
    vanish there.  At least ``min_checked`` relation instances are tested.
    """
    r = len(coeffs) - 1
    if r < 0 or len(initials) != validity + r:
        return False
    if list(initials) != list(terms[: len(initials)]):
        return False
    if len(terms) - r - validity < min_checked:
        raise ValueError("reference too short for the returned order")
    return annihilation_defect(coeffs, terms, validity, mod) is None


# -- ansatzkit values read as plain data -----------------------------------


def _coords(element):
    coords = element.coords
    return (Fraction(coords[0]), Fraction(coords[1]) if len(coords) > 1 else Fraction(0))


def field_modulus(field):
    coeffs = field.minpoly.coeffs
    if len(coeffs) == 2:
        return RATIONAL
    if len(coeffs) != 3 or coeffs[2] != 1:
        raise ValueError("only monic quadratic fields are checked")
    return (Fraction(coeffs[0]), Fraction(coeffs[1]))


def library_operator(operator):
    """(plain coefficients, modulus) of a ShiftOperator, by its ring name."""
    ring = operator.ring.value
    if ring == "constant":
        return [poly_coeff([c]) for c in operator.coeffs], RATIONAL
    if ring == "poly":
        return [poly_coeff(c.coeffs) for c in operator.coeffs], RATIONAL
    mod = field_modulus(operator.coeffs[-1].field)
    plain = []
    for c in operator.coeffs:
        plain.append([(_coords(base), [_coords(x) for x in poly.coeffs]) for base, poly in c.terms])
    return plain, mod


def check_library_system(system, terms, min_checked=8):
    if system.offset != 0:
        return False
    coeffs, mod = library_operator(system.operator)
    return check_system(coeffs, system.initials, system.validity_offset, terms, mod, min_checked)


# -- JSON documents (as written by ``--json``) ------------------------------


def _pair(strings):
    a = Fraction(strings[0])
    b = Fraction(strings[1]) if len(strings) > 1 else Fraction(0)
    return (a, b)


def _json_modulus(minpoly):
    values = [Fraction(x) for x in minpoly]
    if len(values) == 2:
        return RATIONAL
    if len(values) != 3 or values[2] != 1:
        raise ValueError("only monic quadratic fields are checked")
    return (values[0], values[1])


def json_operator(doc):
    """(plain coefficients, modulus) of a recurrence document."""
    klass = doc["class"]
    if klass == "cfinite":
        return [poly_coeff([Fraction(c)]) for c in doc["coeffs"]], RATIONAL
    if klass == "holonomic":
        return [poly_coeff([Fraction(x) for x in c]) for c in doc["coeffs"]], RATIONAL
    mod = RATIONAL
    plain = []
    for coeff in doc["coeffs"]:
        terms = []
        for item in coeff:
            mod = _json_modulus(item["base"]["minpoly"])
            terms.append((_pair(item["base"]["rep"]), [_pair(c) for c in item["poly"]]))
        plain.append(terms)
    return plain, mod


def check_json_system(text, terms, min_checked=8):
    doc = json.loads(text)
    if doc.get("type") != "recurrence" or doc["offset"] != 0:
        return False
    coeffs, mod = json_operator(doc)
    if len(coeffs) - 1 != doc["order"]:
        return False
    initials = [Fraction(v) for v in doc["initials"]]
    return check_system(coeffs, initials, doc["validity_offset"], terms, mod, min_checked)


def check_json_rational_gf(text, terms):
    """den(x) * sum a_n x^n == num(x) on every coefficient the terms fix."""
    doc = json.loads(text)
    if doc.get("type") != "rational_gf":
        return False
    num = [Fraction(c) for c in doc["num"]]
    den = [Fraction(c) for c in doc["den"]]
    if not den or not den[0]:
        return False
    for m in range(len(terms)):
        acc = sum((den[i] * terms[m - i] for i in range(min(m, len(den) - 1) + 1)), Fraction(0))
        want = num[m] if m < len(num) else Fraction(0)
        if acc != want:
            return False
    return True


def check_json_diff_equation(text, terms):
    """sum_b sum_j q_{b,j}(x) (d/dx)^j f(b x) == rhs(x) coefficientwise,
    for every coefficient of x^m that the given terms determine."""
    doc = json.loads(text)
    if doc.get("type") != "diff_equation":
        return False
    mod = _json_modulus(doc["minpoly"])
    order = max(len(item["coeffs"]) for item in doc["terms"]) - 1
    rhs = [_pair(c) for c in doc["rhs"]]
    count = len(terms) - order
    if count < 8:
        raise ValueError("reference too short for the returned order")
    residual = [ZERO] * count
    for item in doc["terms"]:
        base = _pair(item["base"])
        for j, poly in enumerate(item["coeffs"]):
            # (d/dx)^j f(bx) = sum_n (n+1)...(n+j) a_{n+j} b^{n+j} x^n
            series = []
            for n in range(count):
                falling = math.prod(range(n + 1, n + j + 1))
                value = qmul(q(falling * terms[n + j]), qpow(base, n + j, mod), mod)
                series.append(value)
            for p, c in enumerate(poly):
                c = _pair(c)
                if c == ZERO:
                    continue
                for m in range(p, count):
                    residual[m] = qadd(residual[m], qmul(c, series[m - p], mod))
    for m in range(count):
        want = rhs[m] if m < len(rhs) else ZERO
        if residual[m] != want:
            return False
    return True


# -- printed expressions ---------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([a-z]+)|(.))")


def _tokens(text):
    out = []
    for number, name, symbol in _TOKEN.findall(text):
        if number:
            out.append(("num", int(number)))
        elif name:
            out.append(("name", name))
        elif symbol.strip():
            out.append(("sym", symbol))
    out.append(("end", None))
    return out


def evaluate_expression(text, n, mod):
    """Value of a printed closed form in t and n at integer ``n``.

    Grammar: sums and products of integers, ``t``, ``n`` and parenthesised
    expressions, with ``/`` by integers and ``^`` by integers or ``n``.
    """
    tokens = _tokens(text)
    pos = 0

    def peek():
        return tokens[pos]

    def take():
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def expression():
        if peek() == ("sym", "-"):
            take()
            value = qneg(product())
        else:
            value = product()
        while peek() in (("sym", "+"), ("sym", "-")):
            sign = take()[1]
            rhs = product()
            value = qadd(value, rhs if sign == "+" else qneg(rhs))
        return value

    def product():
        value = power()
        while peek() in (("sym", "*"), ("sym", "/")):
            op = take()[1]
            rhs = power()
            value = qmul(value, rhs if op == "*" else qinv(rhs, mod), mod)
        return value

    def power():
        value = atom()
        if peek() == ("sym", "^"):
            take()
            kind, exponent = take()
            if kind == "name" and exponent == "n":
                exponent = n
            elif kind != "num":
                raise ValueError(f"bad exponent in {text!r}")
            value = qpow(value, exponent, mod)
        return value

    def atom():
        kind, value = take()
        if kind == "num":
            return q(value)
        if kind == "name" and value == "n":
            return q(n)
        if kind == "name" and value == "t":
            return (Fraction(0), Fraction(1))
        if (kind, value) == ("sym", "("):
            inner = expression()
            if take() != ("sym", ")"):
                raise ValueError(f"unbalanced parentheses in {text!r}")
            return inner
        if (kind, value) == ("sym", "-"):
            return qneg(atom())
        raise ValueError(f"unexpected {value!r} in {text!r}")

    value = expression()
    if peek()[0] != "end":
        raise ValueError(f"trailing text in {text!r}")
    return value


def check_closed_form(text, terms, mod):
    """A printed ``expression [(for n >= k)]`` reproduces the terms."""
    match = re.fullmatch(r"(.*?)(?: \(for n >= (\d+)\))?", text.strip())
    expression, start = match.group(1), int(match.group(2) or 0)
    for n in range(start, len(terms)):
        if evaluate_expression(expression, n, mod) != q(terms[n]):
            return False
    return True


_FORM = re.compile(
    r"K \* (?:\(n/e\)\^(?:n|\((-?\d+)\*n\)) \* )?\((-?[\d/]+)\)\^n \* n\^\((-?[\d/]+)\)"
    r" \* \(1((?: \+ \(-?[\d/]+\)/n\^\d+)*)\)"
)


# -- truncated power series in u = 1/n, as Fraction lists --------------------


def series_mul(a, b, length):
    out = [Fraction(0)] * length
    for i, x in enumerate(a[:length]):
        if x:
            for j, y in enumerate(b[: length - i]):
                out[i + j] += x * y
    return out


def series_inverse(a, length):
    out = [1 / Fraction(a[0])]
    for n in range(1, length):
        acc = sum((a[k] * out[n - k] for k in range(1, min(n, len(a) - 1) + 1)), Fraction(0))
        out.append(-acc / a[0])
    return out


def series_exp(x, length):
    """exp of a series with zero constant term: n e_n = sum k x_k e_(n-k)."""
    out = [Fraction(1)]
    for n in range(1, length):
        acc = sum((k * x[k] * out[n - k] for k in range(1, min(n, len(x) - 1) + 1)), Fraction(0))
        out.append(acc / n)
    return out


def check_hypergeometric_form(text, mu, tops, bottoms):
    """Check a printed growth template of a(n+1)/a(n) = mu prod(n + a_i) /
    prod(n + b_j) exactly, as a formal series in u = 1/n.

    The template K (n/e)^(k n) lam^n n^theta S(n), S = 1 + sum_j c_j u^j,
    has T(n+1)/T(n) = n^k lam exp(k s(u)) (1+u)^theta S(u/(1+u))/S(u) with
    s(u) = (1/u + 1) log(1+u) - 1 = sum_j (-1)^(j+1) u^j / (j (j+1)).  It
    must equal the ratio through order u^(m+1), where every printed c_j
    (j <= m) enters; k and lam must match the degrees and mu.
    """
    match = _FORM.fullmatch(text.strip())
    if not match:
        return False
    k = int(match.group(1)) if match.group(1) else (1 if "(n/e)" in text else 0)
    lam, theta = Fraction(match.group(2)), Fraction(match.group(3))
    coeffs = {int(p): Fraction(c) for c, p in re.findall(r"\((-?[\d/]+)\)/n\^(\d+)", match.group(4))}
    m = max(coeffs, default=0)
    if k != len(tops) - len(bottoms) or lam != mu:
        return False
    length = m + 2
    s = [Fraction(0)] + [Fraction((-1) ** (j + 1), j * (j + 1)) for j in range(1, length)]
    log1p = [Fraction(0)] + [Fraction((-1) ** (j + 1), j) for j in range(1, length)]
    ratio = series_exp([k * c for c in s], length)
    ratio = series_mul(ratio, series_exp([theta * c for c in log1p], length), length)
    big_s = [Fraction(1)] + [coeffs.get(j, Fraction(0)) for j in range(1, length)]
    shifted = [Fraction(0)] * length  # S(v) with v = u/(1+u) = u - u^2 + ...
    v = [Fraction(0)] + [Fraction((-1) ** (j + 1)) for j in range(1, length)]
    power = [Fraction(1)] + [Fraction(0)] * (length - 1)
    for j in range(length):
        shifted = [a + big_s[j] * b for a, b in zip(shifted, power)]
        power = series_mul(power, v, length)
    ratio = series_mul(ratio, series_mul(shifted, series_inverse(big_s, length), length), length)
    want = [Fraction(1)] + [Fraction(0)] * (length - 1)
    for a in tops:
        want = series_mul(want, [Fraction(1), Fraction(a)], length)
    for b in bottoms:
        want = series_mul(want, series_inverse([Fraction(1), Fraction(b)], length), length)
    return ratio == want
