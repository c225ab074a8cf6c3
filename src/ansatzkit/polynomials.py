"""Dense univariate polynomials over an exact field.

The coefficient field is described by a lightweight domain object with
``zero``, ``one`` and ``coerce``; plain rationals use the :data:`QQ`
singleton and algebraic extensions plug in a ``NumberField``.  Degree of
the zero polynomial is the ``NEG_INFINITY`` sentinel so degree bounds can
be compared with ``max``/``<=`` directly.
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
        coerced = [domain.coerce(c) for c in coeffs]
        while coerced and not coerced[-1]:
            coerced.pop()
        object.__setattr__(self, "coeffs", tuple(coerced))
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "var", var)

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
        return self.coeffs == other.coeffs and self.domain == other.domain

    def __hash__(self):
        return hash((self.coeffs, self.domain))

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

    @classmethod
    def constant(cls, value, domain=QQ, var="n"):
        return cls([value], domain, var)

    @classmethod
    def identity(cls, domain=QQ, var="n"):
        return cls([domain.zero, domain.one], domain, var)

    # -- arithmetic ------------------------------------------------------

    def _coerce_operand(self, other):
        if isinstance(other, Poly):
            return other
        try:
            return Poly([self.domain.coerce(other)], self.domain, self.var)
        except TypeError:
            return None

    def __add__(self, other):
        other = self._coerce_operand(other)
        if other is None:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return self.spawn(
            [self.coefficient(i) + other.coefficient(i) for i in range(n)]
        )

    __radd__ = __add__

    def __neg__(self):
        return self.spawn([-c for c in self.coeffs])

    def __sub__(self, other):
        other = self._coerce_operand(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce_operand(other)
        if other is None:
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return self.spawn([])
        out = [self.domain.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return self.spawn(out)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if exponent < 0:
            raise ValueError("negative polynomial power")
        result = self.spawn([self.domain.one])
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def scale(self, factor):
        factor = self.domain.coerce(factor)
        return self.spawn([c * factor for c in self.coeffs])

    def __divmod__(self, other):
        if not isinstance(other, Poly):
            other = self._coerce_operand(other)
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        den = other.coeffs
        dd = len(den) - 1
        lead = den[-1]
        quot = [self.domain.zero] * max(0, len(rem) - dd)
        for i in range(len(rem) - 1, dd - 1, -1):
            if not rem[i]:
                continue
            q = rem[i] / lead
            quot[i - dd] = q
            for j, d in enumerate(den):
                rem[i - dd + j] = rem[i - dd + j] - q * d
        return self.spawn(quot), self.spawn(rem)

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
        return self.spawn([c / lead for c in self.coeffs])

    # -- evaluation and composition ---------------------------------------

    def evaluate(self, point):
        """Horner evaluation; works for any value supporting + and *."""
        if not self.coeffs:
            return self.domain.zero
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * point + c
        return acc

    def shift_arg(self, offset):
        """p(x) -> p(x + offset) for an integer or field offset."""
        shifted = self.spawn([])
        point = Poly([self.domain.coerce(offset), self.domain.one], self.domain, self.var)
        for c in reversed(self.coeffs):
            shifted = shifted * point + Poly([c], self.domain, self.var)
        return shifted

    def compose_linear(self, scale, offset):
        """p(x) -> p(scale*x + offset) with integer scale and offset."""
        arg = Poly(
            [self.domain.coerce(offset), self.domain.coerce(scale)], self.domain, self.var
        )
        result = self.spawn([])
        for c in reversed(self.coeffs):
            result = result * arg + Poly([c], self.domain, self.var)
        return result

    def derivative(self):
        return self.spawn([self.coeffs[i] * i for i in range(1, len(self.coeffs))])

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
        text = parts[0]
        for term in parts[1:]:
            text += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return text

    def __repr__(self):
        return f"Poly({self})"


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


def _divisors(n):
    n = abs(n)
    small, large = [], []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return small + large[::-1]


def rational_roots(p):
    """All rational roots of a QQ polynomial with multiplicities.

    Returns ``(roots, cofactor)`` where ``roots`` is a list of
    ``(Fraction, multiplicity)`` and ``cofactor`` is the monic remaining
    factor with no rational roots.
    """
    if not p:
        raise ValueError("zero polynomial has every root")
    roots = []
    work = p.monic()
    zero_mult = 0
    while work.coefficient(0) == 0 and work.degree > 0:
        work = work.spawn(work.coeffs[1:])
        zero_mult += 1
    if zero_mult:
        roots.append((Fraction(0), zero_mult))
    if work.degree <= 0:
        return roots, work
    scale = 1
    for c in work.coeffs:
        scale = scale * c.denominator // gcd(scale, c.denominator)
    ints = [int(c * scale) for c in work.coeffs]
    content = 0
    for c in ints:
        content = gcd(content, abs(c))
    ints = [c // content for c in ints]
    candidates = set()
    for pnum in _divisors(ints[0]):
        for pden in _divisors(ints[-1]):
            candidates.add(Fraction(pnum, pden))
            candidates.add(Fraction(-pnum, pden))
    for candidate in sorted(candidates):
        if work.degree <= 0:
            break
        multiplicity = 0
        while work.degree > 0 and work.evaluate(candidate) == 0:
            work = work.exact_div(
                Poly([-candidate, Fraction(1)], work.domain, work.var)
            )
            multiplicity += 1
        if multiplicity:
            roots.append((candidate, multiplicity))
    return roots, work.monic()


def _ceil_root(x, k):
    """The least integer r >= 0 with r**k >= x, for integers x >= 0, k >= 1."""
    if x <= 1:
        return x
    r = 1 << -(-x.bit_length() // k)  # r**k > x
    while True:  # Newton's iteration descends to the floor of the root
        s = ((k - 1) * r + x // r ** (k - 1)) // k
        if s >= r:
            break
        r = s
    return r if r ** k >= x else r + 1


def largest_natural_root(p):
    """The largest nonnegative integer root of a nonzero QQ polynomial, or
    None when it has none.

    A positive integer root divides the lowest nonzero coefficient and is
    at most Fujiwara's bound 2 max_i |c_(d-i)/c_d|^(1/i); the candidates
    come from whichever of the two is cheaper to enumerate.
    """
    scale = lcm(*(c.denominator for c in p.coeffs))
    ints = [c.numerator * (scale // c.denominator) for c in p.coeffs]
    zero_root = not ints[0]
    while not ints[0]:
        ints.pop(0)
    low, lead, degree = abs(ints[0]), abs(ints[-1]), len(ints) - 1
    bound = 0
    for i in range(1, degree + 1):
        bound = max(bound, 2 * _ceil_root(-(-abs(ints[degree - i]) // lead), i))
    bound = min(bound, low)
    if bound <= isqrt(low):
        candidates = (k for k in range(bound, 0, -1) if not low % k)
    else:
        candidates = (k for k in reversed(_divisors(low)) if k <= bound)
    for k in candidates:
        value = 0
        for c in reversed(ints):
            value = value * k + c
        if not value:
            return k
    return 0 if zero_root else None


def binomial(n, k):
    """C(n, k) for integer k >= 0 and a rational or field-element n."""
    if k < 0:
        raise ValueError("negative binomial index")
    if isinstance(n, int):
        n = Fraction(n)
    result = Fraction(1)
    for i in range(k):
        result = (n - i) * result / (i + 1)
    return result


def falling_factorial(n, j):
    """(n)_j = n (n-1) ... (n-j+1); works for ints and polynomials."""
    result = 1
    for i in range(j):
        result = result * (n - i)
    return result


def falling_factorial_poly(shift, j, domain=QQ, var="n"):
    """(n + shift)_j as a polynomial in n over the given domain."""
    result = Poly([domain.one], domain, var)
    for i in range(j):
        result = result * Poly([domain.coerce(shift - i), domain.one], domain, var)
    return result
