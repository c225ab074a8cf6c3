"""Dense univariate polynomials over an exact field.

The coefficient field is described by a lightweight domain object with
``zero``, ``one`` and ``coerce``; plain rationals use the :data:`QQ`
singleton and algebraic extensions plug in a ``NumberField``.  Degree of
the zero polynomial is the ``NEG_INFINITY`` sentinel so degree bounds can
be compared with ``max``/``<=`` directly.

One list arithmetic serves every coefficient ring: ``_add``, ``_sub``,
``series_mul`` (truncated, or in full for a product), ``_derivative``,
``_value`` (Horner) and ``_compose_linear`` (Taylor shift) use only +, -
and *, so ints, ``Fraction``s and number-field elements share each body:
``Poly``, the integer polynomials and the power series.  ``Poly`` builds its
results by ``_of``, which trims trailing zeros and does not coerce; an
operand over a smaller field is lifted into the other's domain once.  The
``_zx_`` prefix marks only the integer-only helpers, which the
fraction-free ring kernel of ``linalg``, the integer combination matrices
of ``closure`` and the root search share.  Among them ``_zx_pack`` and
``_zx_unpack`` are the one Kronecker substitution, at the width
``_zx_width`` gives for a coefficient bound: ``_zx_mul`` packs its factors,
the ring kernel packs a whole matrix and eliminates on integers, and the
heuristic gcd (GCDHEU) packs any number of operands at one width and
unpacks their integer gcd.
``rational_roots`` and ``largest_natural_root`` run one root search, by
p-adic lifting on the squarefree part, in time polynomial in the degree
and the coefficients' bit size: its lifts stop above twice Cauchy's bound
on a times a root, a the leading coefficient.

Every polynomial interpolation goes through Newton's forward-difference
form: ``forward_differences`` reads the coefficients d_j off the leading
entries of the difference table and ``newton_poly`` builds
sum_j d_j C(n - start, j), by Horner's rule on integers with one division
at the end.  Its users are the polynomial guesser (degree d
fits when row d + 1 of the table vanishes), the partial-sum and Cauchy
closures of polynomial sequences, ``poly_binomial_form`` and the
evaluation of a ``BinomialForm``, and the falling-factorial basis change
of the generating-function translations.  One ``falling_factorial``
serves integers and polynomials alike.

``power``, the repeated squaring behind every ``__pow__``, and
``series_inv`` serve every ring too; with ``series_mul`` it expands rational
generating functions, forms Cauchy products of values and carries the
asymptotic series in 1/n.
"""

from fractions import Fraction
from math import gcd, isqrt, lcm

from .errors import InternalError

NEG_INFINITY = float("-inf")


class RationalDomain:
    """Domain tag for plain Fraction coefficients."""

    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def coerce(value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        raise TypeError(f"cannot coerce {value!r} into the rationals")

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalDomain)

    def __hash__(self):
        return hash("RationalDomain")


QQ = RationalDomain()


class Poly:
    """Immutable polynomial; ``coeffs[i]`` is the coefficient of the i-th power."""

    __slots__ = ("coeffs", "domain", "var")

    def __init__(self, coeffs, domain=QQ, var="n"):
        self._fill([domain.coerce(c) for c in coeffs], domain, var)

    def _fill(self, coeffs, domain, var):
        """Trim the list ``coeffs`` in place and store the slots through
        their descriptors, past the immutability guard."""
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        _set_coeffs(self, tuple(coeffs))
        _set_domain(self, domain)
        _set_var(self, var)

    def _of(self, coeffs):
        """Our domain's polynomial of a fresh list of its elements: the public
        constructor without its coercion, for every arithmetic result."""
        result = object.__new__(Poly)
        result._fill(coeffs, self.domain, self.var)
        return result

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- basic structure -------------------------------------------------

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INFINITY

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        # coefficients compare and hash by value, across domains too
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def coefficient(self, power):
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return self.domain.zero

    @property
    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == self.domain.one

    def spawn(self, coeffs):
        return Poly(coeffs, self.domain, self.var)

    # -- arithmetic ------------------------------------------------------

    def _coerce_operand(self, other):
        """``self`` and ``other`` over one domain, the one over the smaller
        field coerced once, or (None, None) for a foreign operand."""
        if isinstance(other, Poly):
            if other.domain is self.domain or other.domain == self.domain:
                return self, other
            # QQ has no degree: it sits below every NumberField
            if getattr(self.domain, "degree", 0) < getattr(other.domain, "degree", 0):
                return Poly(self.coeffs, other.domain, self.var), other
            return self, Poly(other.coeffs, self.domain, self.var)
        try:
            return self, self._of([self.domain.coerce(other)])
        except TypeError:
            return None, None

    def __add__(self, other):
        a, b = self._coerce_operand(other)
        if a is None:
            return NotImplemented
        return a._of(_add(a.coeffs, b.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return self._of([-c for c in self.coeffs])

    def __sub__(self, other):
        a, b = self._coerce_operand(other)
        if a is None:
            return NotImplemented
        return a._of(_sub(a.coeffs, b.coeffs))

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        a, b = self._coerce_operand(other)
        if a is None:
            return NotImplemented
        length = len(a.coeffs) + len(b.coeffs) - 1
        return a._of(series_mul(a.coeffs, b.coeffs, length, a.domain.zero))

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if exponent < 0:
            raise ValueError("negative polynomial power")
        return power(self, exponent, self._of([self.domain.one]))

    def scale(self, factor):
        factor = self.domain.coerce(factor)
        return self._of([c * factor for c in self.coeffs])

    def __divmod__(self, other):
        a, b = self._coerce_operand(other)
        if a is None:
            return NotImplemented
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(a.coeffs)
        den = b.coeffs
        dd = len(den) - 1
        lead = den[-1]
        quot = [a.domain.zero] * max(0, len(rem) - dd)
        for i in range(len(rem) - 1, dd - 1, -1):
            if not rem[i]:
                continue
            q = rem[i] / lead
            quot[i - dd] = q
            for j, d in enumerate(den):
                rem[i - dd + j] = rem[i - dd + j] - q * d
        return a._of(quot), a._of(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other):
        q, r = divmod(self, other)
        if r:
            raise InternalError("polynomial division is not exact")
        return q

    def monic(self):
        if not self.coeffs:
            return self
        lead = self.coeffs[-1]
        return self._of([c / lead for c in self.coeffs])

    # -- evaluation and composition ---------------------------------------

    def evaluate(self, point):
        """Horner evaluation; works for any value supporting + and *."""
        return _value(self.coeffs, point) if self.coeffs else self.domain.zero

    def compose_linear(self, scale, offset):
        """p(x) -> p(scale*x + offset) with integer scale and offset."""
        return self._of(_compose_linear(self.coeffs, scale, offset))

    def derivative(self):
        return self._of(_derivative(self.coeffs))

    # -- printing ----------------------------------------------------------

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for power in range(len(self.coeffs) - 1, -1, -1):
            c = self.coefficient(power)
            if not c:
                continue
            cs = str(c)
            if power == 0:
                term = cs
            else:
                base = self.var if power == 1 else f"{self.var}^{power}"
                if cs == "1":
                    term = base
                elif cs == "-1":
                    term = f"-{base}"
                else:
                    if not cs.lstrip("-").isdigit() and "/" not in cs:
                        cs = f"({cs})"
                    term = f"{cs}*{base}"
            parts.append(term)
        return _signed_join(parts)

    def __repr__(self):
        return f"Poly({self})"


_set_coeffs, _set_domain, _set_var = Poly.coeffs.__set__, Poly.domain.__set__, Poly.var.__set__


def _signed_join(parts):
    """Printed terms joined by " + ", or by " - " before a negative term:
    the sum layout every printer shares."""
    text = parts[0]
    for part in parts[1:]:
        text += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
    return text


def power(base, exponent, one):
    """base ** exponent for an integer exponent >= 0 by repeated squaring;
    every ring's ``__pow__`` goes through it.  ``one`` is the answer for
    exponent 0; otherwise the product starts from ``base`` itself and the
    last bit takes no squaring, so base ** 1 costs no multiplication and
    base ** 2 one."""
    result = None
    while True:
        if exponent & 1:
            result = base if result is None else result * base
        exponent >>= 1
        if not exponent:
            return one if result is None else result
        base = base * base


# -- coefficient lists and truncated power series ------------------------------
#
# Dense lists or tuples, lowest power first, over any ring; each result is a
# fresh list.  Sums and differences end in a concatenation, which sizes the
# list exactly: the integer kernel keeps many of them.


def _trimmed(coeffs):
    """``coeffs`` without its trailing zeros, in place."""
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _add(a, b):
    if len(a) < len(b):
        a, b = b, a
    return _trimmed([x + y for x, y in zip(a, b)] + [*a[len(b):]])


def _sub(a, b):
    head = [x - y for x, y in zip(a, b)]
    if len(a) < len(b):
        return _trimmed(head + [-y for y in b[len(a):]])
    return _trimmed(head + [*a[len(b):]])


def series_mul(a, b, length, zero):
    """The first ``length`` coefficients of the product of two series; with
    ``length`` len(a) + len(b) - 1, the product of two polynomials."""
    out = [zero] * length
    terms = [(j, y) for j, y in enumerate(b[:length]) if y]
    for i, x in enumerate(a[:length]):
        if not x:
            continue
        for j, y in terms:
            if i + j >= length:
                break
            out[i + j] = out[i + j] + x * y
    return out


def _derivative(a):
    return [i * a[i] for i in range(1, len(a))]


def _value(a, point):
    """a(point) by Horner's rule, for a nonzero a."""
    acc = a[-1]
    for c in reversed(a[:-1]):
        acc = acc * point + c
    return acc


def _compose_linear(a, scale, offset):
    """a(scale*x + offset) for integers scale and offset, by a Taylor shift
    (repeated synthetic division by x - offset) and a scaling of x."""
    a = list(a)
    if offset:
        for i in range(len(a) - 1):
            for j in range(len(a) - 2, i - 1, -1):
                a[j] += offset * a[j + 1]
    if scale != 1:
        a = [c * scale**j for j, c in enumerate(a)]
    return a


def series_inv(a, length):
    """The first ``length`` coefficients of 1/a for a series a whose
    constant term is one."""
    one = a[0]
    if one != 1:
        raise InternalError("series inverse needs constant term one")
    zero = one - one
    out = [one] + [zero] * (length - 1)
    for m in range(1, length):
        acc = zero
        for i in range(1, min(m, len(a) - 1) + 1):
            if a[i]:
                acc = acc + a[i] * out[m - i]
        out[m] = -acc
    return out[:length]


# -- gcd machinery ---------------------------------------------------------


def poly_gcd(a, b):
    """Monic gcd over the coefficient field."""
    while b:
        a, b = b, a % b
    return a.monic() if a else a


def squarefree_decomposition(p):
    """Yun's algorithm: list of (squarefree factor, multiplicity), monic factors."""
    if p.degree <= 0:
        return []
    p = p.monic()
    d = p.derivative()
    a = poly_gcd(p, d)
    b = p.exact_div(a)
    c = d.exact_div(a)
    out = []
    multiplicity = 1
    while b.degree > 0:
        step = poly_gcd(b, c - b.derivative())
        if step.degree > 0:
            out.append((step, multiplicity))
        b2 = b.exact_div(step)
        c = (c - b.derivative()).exact_div(step)
        b = b2
        multiplicity += 1
    return out


# -- rational utilities ------------------------------------------------------


def rational_content(values):
    """gcd of a list of Fractions: gcd of numerators over lcm of denominators."""
    num = 0
    den = 1
    for v in values:
        if not v:
            continue
        num = gcd(num, abs(v.numerator))
        den = den * v.denominator // gcd(den, v.denominator)
    return Fraction(num, den) if num else Fraction(0)


# -- integer polynomials -----------------------------------------------------
#
# A list of ints, lowest power first, without trailing zeros; the zero
# polynomial is the empty list.


def _zx_mul(a, b):
    """Product by Kronecker substitution: both factors packed into integers
    at x = 2**k, with k wide enough for every coefficient of the product,
    multiplied once and unpacked."""
    if not a or not b:
        return []
    if len(a) == 1 or len(b) == 1:  # a constant factor scales the other
        return [x * y for x in a for y in b]
    k = _zx_width(max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b)))
    return _zx_unpack(_zx_pack(a, k) * _zx_pack(b, k), k)


def _zx_width(bound):
    """The least k whose signed k-bit digits, in [-2**(k-1), 2**(k-1)), hold
    every integer of absolute value at most ``bound``: evaluation at
    x = 2**k is then injective on the integer polynomials whose
    coefficients are that small, and ``_zx_unpack`` inverts it."""
    return bound.bit_length() + 1


def _zx_pack(a, k):
    """The value of a at x = 2**k."""
    value = 0
    for c in reversed(a):
        value = (value << k) + c
    return value


def _zx_unpack(value, k):
    """The integer polynomial with value ``value`` at x = 2**k whose
    coefficients are signed k-bit digits: the one ``_zx_pack`` packed, if
    its coefficients fit the width."""
    out = []
    mask, half = (1 << k) - 1, 1 << (k - 1)
    # L digits suffice: a nonzero top digit at power L - 1 leaves
    # |value| > 2**(k (L - 1)) / 3, so k (L - 1) <= bit_length + 1; a fixed
    # count also ends the loop at a width too small for the value
    for _ in range((value.bit_length() + 1) // k + 1):
        digit = value & mask
        value >>= k
        if digit >= half:
            digit -= 1 << k
            value += 1
        out.append(digit)
    return _trimmed(out)


def _zx_quotient(a, b):
    """a / b in Z[x], or None when b does not divide a there."""
    db = len(b) - 1
    if len(a) <= db:
        return None if a else []
    rem = list(a)
    lead = b[-1]
    quot = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        if not rem[i]:
            continue
        q, r = divmod(rem[i], lead)
        if r:
            return None
        quot[i - db] = q
        for j in range(db):
            rem[i - db + j] -= q * b[j]
    if any(rem[:db]):
        return None
    return quot


def _zx_exact_div(a, b):
    """a / b in Z[x]; a remainder (such as a broken minor) is an internal error."""
    if b == [1]:
        return a
    quotient = _zx_quotient(a, b)
    if quotient is None:
        raise InternalError("integer polynomial division is not exact")
    return quotient


def _zx_primitive(a):
    """The primitive part of a nonzero a, with a positive leading coefficient."""
    content = gcd(*a)
    if a[-1] < 0:
        content = -content
    return a if content == 1 else [c // content for c in a]


def _zx_cleared(polys):
    """Rational coefficient lists, all times one common integer, as integer
    polynomials."""
    # star arguments from a list: see sequences.Sequence
    scale = lcm(*[c.denominator for p in polys for c in p])
    return [[c.numerator * (scale // c.denominator) for c in p] for p in polys]


def _heuristic_gcd(*operands):
    """The gcd g of primitive integer polynomials of positive degree by
    evaluation (Char, Geddes and Gonnet, "GCDHEU", 1989), with each operand
    divided by g; None when no try finds it.

    Every operand is packed at one x = 2**k, with 2**k > 2 m + 2 for m the
    least of the operands' largest coefficients, and the integer gcd of the
    packed values is unpacked into G, with signed k-bit digits.  The
    candidate pp(G) is the gcd exactly when it divides every operand, which
    each try checks by the divisions whose quotients it returns; each
    failed try widens k by about a quarter.

    Why a candidate that divides every operand is the gcd, for any number
    of operands: write x for 2**k.  A candidate dividing each operand
    divides g, and g = pp(G) c with c in Z[x] (Gauss's lemma; g is
    primitive).  g(x) divides every packed value, so it divides their gcd
    G(x) = cont(G) pp(G)(x), and c(x) divides cont(G), which is nonzero and
    at most x / 2 in size, as G's digits are.  If c had a root, it would be
    a root of the operand a with the least largest coefficient m (c divides
    g, which divides a), so of size below 1 + m (Cauchy); then
    |c(x)| > (x - 1 - m)**deg c >= (x / 2)**deg c >= x / 2, since
    x > 2 m + 2.  So c is a constant, and ±1 since g is primitive.  Only
    one operand's root bound enters, so the argument holds for any number
    of operands.
    """
    k = _zx_width(2 * min([max(map(abs, a)) for a in operands]) + 29)
    for _ in range(6):
        # star arguments from a list: see sequences.Sequence
        candidate = _zx_primitive(_zx_unpack(gcd(*[_zx_pack(a, k) for a in operands]), k))
        if candidate == [1]:
            return candidate, list(operands)
        quotients = []
        for a in operands:
            quotient = _zx_quotient(a, candidate)
            if quotient is None:
                break
            quotients.append(quotient)
        else:
            return candidate, quotients
        k += k // 4 + 2
    return None


def _zx_common_factor(operands):
    """The gcd g of nonzero primitive integer polynomials with positive
    leading coefficients, primitive with a positive leading coefficient,
    and each operand divided by g.  An operand of degree at most one is
    irreducible, so g is 1 or that operand, which divisions decide;
    otherwise one GCDHEU pass finds g, and ``poly_gcd`` over Q decides when
    the heuristic fails."""
    if len(operands) == 1:
        return operands[0], [[1]]
    least = min(operands, key=len)
    if len(least) == 1:
        return [1], list(operands)
    if len(least) == 2:
        quotients = [_zx_quotient(a, least) for a in operands]
        return ([1], list(operands)) if None in quotients else (least, quotients)
    found = _heuristic_gcd(*operands)
    if found is not None:
        return found
    shared = Poly(operands[0])
    for a in operands[1:]:
        shared = poly_gcd(shared, Poly(a))
    g = _zx_primitive(_zx_cleared([shared.coeffs])[0])
    return g, [_zx_exact_div(a, g) for a in operands]


def _zx_gcd(a, b):
    """gcd of two primitive integer polynomials, primitive with a positive
    leading coefficient."""
    return _zx_common_factor([a, b])[0]


def _zx_roots(f):
    """The rational roots of a nonzero integer polynomial f with their
    multiplicities, zero first and then the others ascending, and the
    cofactor: the primitive part of f divided by x^m and by (v x - u)^m for
    each root u/v of multiplicity m.

    p-adic lifting (Loos, SIAM J. Comput. 1983) on the squarefree part s
    with leading coefficient a: a root u/v has v | a, and by Cauchy's bound
    |a u/v| < |a| + max |s_i|.  For the first prime l that does not divide
    a and leaves every root of s mod l simple, Newton's iteration lifts
    each root mod l to the l-adic root it belongs to, modulo more than
    twice that bound; then a times a rational root is the symmetric residue
    of a times its lift, and a lift is a root when (v x - u) divides f.
    The work is polynomial in the degree and in the bit size of the
    coefficients.
    """
    zeros = next(i for i, c in enumerate(f) if c)
    f = _zx_primitive(f[zeros:])
    roots = [(Fraction(0), zeros)] if zeros else []
    if len(f) == 1:
        return roots, f
    s = _zx_exact_div(f, _zx_gcd(f, _zx_primitive(_derivative(f))))
    ds = _derivative(s)
    lead = s[-1]
    bound = 2 * (lead + max(map(abs, s)))
    ell = 1
    while True:
        ell += 1
        if not lead % ell or any(not ell % q for q in range(2, isqrt(ell) + 1)):
            continue
        residues = [r for r in range(ell) if not _value(s, r) % ell]
        if all(_value(ds, r) % ell for r in residues):
            break
    candidates = []
    for r in residues:
        modulus = ell
        while modulus <= bound:
            modulus *= modulus
            r = (r - _value(s, r) * pow(_value(ds, r), -1, modulus)) % modulus
        y = lead * r % modulus
        candidates.append(Fraction(y - modulus if 2 * y > modulus else y, lead))
    for root in sorted(candidates):
        factor = [-root.numerator, root.denominator]
        multiplicity = 0
        while (quotient := _zx_quotient(f, factor)) is not None:
            f, multiplicity = quotient, multiplicity + 1
        if multiplicity:
            roots.append((root, multiplicity))
    return roots, f


def rational_roots(p):
    """All rational roots of a QQ polynomial with multiplicities.

    Returns ``(roots, cofactor)`` where ``roots`` is a list of
    ``(Fraction, multiplicity)``, the zero root first and then the others
    in ascending order, and ``cofactor`` is the monic remaining factor with
    no rational roots.
    """
    if not p:
        raise ValueError("zero polynomial has every root")
    roots, cofactor = _zx_roots(_zx_cleared([p.coeffs])[0])
    return roots, p.spawn(cofactor).monic()


def largest_natural_root(p):
    """The largest nonnegative integer root of a nonzero QQ polynomial, or
    None when it has none."""
    roots = _zx_roots(_zx_cleared([p.coeffs])[0])[0]
    naturals = [r for r, _ in roots if r >= 0 and r.denominator == 1]
    return int(max(naturals)) if naturals else None


def falling_factorial(n, j):
    """(n)_j = n (n-1) ... (n-j+1), starting from n ** 0: for ints and
    polynomials alike."""
    result = n ** 0
    for i in range(j):
        result = result * (n - i)
    return result


# -- Newton's forward-difference form -----------------------------------------


def difference_rows(values):
    """The rows of the forward-difference table of ``values``, lazily: the
    values, their first differences, and so on down to a single entry."""
    row = list(values)
    while row:
        yield row
        row = [b - a for a, b in zip(row, row[1:])]


def forward_differences(values):
    """The leading entries (Delta^j v)(0) of the difference table of ``values``,
    the Newton coefficients of the polynomial of degree < len(values) through them."""
    return [row[0] for row in difference_rows(values)]


def newton_poly(diffs, start=0):
    """sum_j diffs[j] C(n - start, j) as a QQ polynomial in n, for rational
    ``diffs``.  With L their common denominator and d = len(diffs) - 1,
    L d! times it is sum_j (L diffs[j]) (d!/j!) (m)_j with m = n - start,
    an integer polynomial built by Horner's rule on (m)_(j+1) = (m)_j (m - j);
    one division by L d! ends."""
    if not diffs:
        return Poly([], QQ, "n")
    scale = lcm(*[c.denominator for c in diffs])
    cleared = [c.numerator * (scale // c.denominator) for c in diffs]
    acc, weight = [cleared[-1]], 1  # weight = d!/j!
    for j in range(len(diffs) - 2, -1, -1):
        weight *= j + 1
        root = start + j
        # acc * (n - root) + weight * cleared[j]
        acc = [weight * cleared[j] - root * acc[0]] + [
            low - root * high for low, high in zip(acc, acc[1:])
        ] + [acc[-1]]
    den = scale * weight
    return Poly([Fraction(c, den) for c in acc], QQ, "n")
