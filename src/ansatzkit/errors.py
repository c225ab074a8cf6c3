"""Exception hierarchy shared by all ansatzkit modules."""


class AnsatzError(Exception):
    """Base class for all toolkit errors."""


class InsufficientData(AnsatzError):
    """Not enough sequence terms to run the requested fit or check."""


class LeadingCoefficientZero(AnsatzError):
    """The leading coefficient of a recurrence vanishes at a needed index."""

    def __init__(self, index):
        super().__init__(f"leading coefficient vanishes at n={index}")
        self.index = index


class NotPolynomial(AnsatzError):
    """Sequence data is not matched by a polynomial of the requested degree."""


class UnsupportedField(AnsatzError):
    """An algebraic number cannot be represented in the supported fields."""


class UnsupportedCase(AnsatzError):
    """Input outside the implemented subclass: an asymptotic template, an
    exponential-polynomial Cauchy product, roots outside Q and one quadratic
    field or an undecided validity."""


class UnsupportedFactorization(UnsupportedCase):
    """A characteristic polynomial has roots the closed forms do not cover:
    an irreducible factor of degree >= 3, two quadratic fields, or a root
    at zero in a coefficient sequence."""


class ValidityUnproven(UnsupportedCase):
    """The zeros of an exponential-polynomial leading coefficient are not
    decided: its two largest terms have equal modulus and degree, and their
    base ratio is no root of unity (the Skolem-Mahler-Lech obstacle)."""


class InconsistentSystem(AnsatzError):
    """No series refinement matches the proposed leading form."""


class InternalError(AnsatzError):
    """A check on the toolkit's own invariants failed (a bug, not bad input)."""


class BoundViolated(InternalError):
    """A closure result exceeds the order bound its construction guarantees."""


class NullSpaceEmpty(InternalError):
    """A guaranteed-nontrivial null space came back empty (internal shape bug)."""


class LeadingAlwaysZero(AnsatzError):
    """A leading coefficient vanishes on a whole residue class of n, so the
    relation determines no tail; a closure raises it when every candidate
    does."""


class UnboundableExpression(AnsatzError):
    """An identity expression leaves the classes with known order bounds."""


class DenominatorVanishesAtZero(AnsatzError):
    """A generating function denominator vanishes at x=0, so it has no power series."""


class ZeroTail(AnsatzError):
    """The probed tail of a sequence is identically zero."""


class OperatorSyntaxError(AnsatzError):
    """Shift operator text failed to parse."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownCoefficient(AnsatzError):
    """An operator references a coefficient name that was never declared."""

    def __init__(self, name):
        super().__init__(f"unknown coefficient name {name!r}")
        self.name = name


class MixedRing(AnsatzError):
    """Operator text combines coefficient forms that fit no single ring."""


class OeisError(AnsatzError):
    """Base class for sequence download problems."""


class NetworkError(OeisError):
    """Transient download failure; retrying may help."""


class NotFound(OeisError):
    """The requested sequence id does not exist upstream."""


class BFileParseError(OeisError):
    """A b-file line could not be parsed."""

    def __init__(self, line_number, line):
        super().__init__(f"bad b-file line {line_number}: {line!r}")
        self.line_number = line_number
        self.line = line
