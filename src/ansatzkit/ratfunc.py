"""Rational functions num/den over an exact coefficient field.

Always kept reduced with a monic denominator.  Arithmetic builds the left
operand's class, so a subclass with another normalisation
(``genfun.RationalGF``) keeps it, and equality compares the monic form.
"""

from .polynomials import Poly, poly_gcd


def _monic(num, den):
    """num/den scaled to a monic denominator."""
    lead = den.leading
    if lead == den.domain.one:
        return num, den
    return num.spawn([c / lead for c in num.coeffs]), den.monic()


class RationalFunction:
    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = Poly([1], num.domain, num.var)
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if num:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = num.exact_div(g)
                den = den.exact_div(g)
            num, den = _monic(num, den)
        else:
            num = num.spawn([])
            den = Poly([1], num.domain, num.var)
        self.num = num
        self.den = den

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, Poly):
            return RationalFunction(other)
        try:
            return RationalFunction(
                Poly([self.num.domain.coerce(other)], self.num.domain, self.num.var)
            )
        except TypeError:
            return None

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _monic(self.num, self.den) == _monic(other.num, other.den)

    def __hash__(self):
        return hash(_monic(self.num, self.den))

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return type(self)(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return type(self)(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return type(self)(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division by zero rational function")
        return type(self)(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def derivative(self):
        return type(self)(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def evaluate(self, point):
        den_value = self.den.evaluate(point)
        if not den_value:
            raise ZeroDivisionError(f"pole at {point}")
        return self.num.evaluate(point) / den_value

    def __str__(self):
        if self.den.degree == 0:
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self):
        return f"RationalFunction({self})"
