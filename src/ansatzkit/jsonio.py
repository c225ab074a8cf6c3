"""JSON encoding of the core value types.

Rationals are encoded as strings (exact for arbitrarily large values);
polynomial coefficient lists run low to high.  ``dumps`` is deterministic
(sorted keys, fixed separators) so serialize-parse-serialize is
byte-stable.
"""

import json
from fractions import Fraction

from .exppoly import ExpPoly
from .fields import NumberField, RATIONAL_FIELD
from .genfun import DiffEquation, RationalGF
from .polynomials import Poly, QQ
from .sequences import CoeffRing, RecurrenceSystem, Sequence, ShiftOperator

_CLASS_BY_RING = {
    CoeffRing.CONSTANT: "cfinite",
    CoeffRing.POLY_N: "holonomic",
    CoeffRing.EXPPOLY: "c2",
}
_RING_BY_CLASS = {name: ring for ring, name in _CLASS_BY_RING.items()}


def _rational_list(values):
    return [str(Fraction(v)) for v in values]


def _element_coords(element):
    return _rational_list(element.coords)


def _exppoly_jsonable(coeff):
    minpoly = _rational_list(coeff.field.minpoly.coeffs)
    return [
        {
            "base": {"minpoly": minpoly, "rep": _element_coords(base)},
            "poly": [_element_coords(c) for c in poly.coeffs],
        }
        for base, poly in coeff.terms
    ]


def _coeffs_jsonable(operator):
    if operator.ring is CoeffRing.CONSTANT:
        return _rational_list(operator.coeffs)
    if operator.ring is CoeffRing.POLY_N:
        return [_rational_list(c.coeffs) for c in operator.coeffs]
    return [_exppoly_jsonable(c) for c in operator.coeffs]


def to_jsonable(obj):
    if isinstance(obj, Sequence):
        return {
            "type": "sequence",
            "offset": obj.offset,
            "terms": _rational_list(obj.terms),
        }
    if isinstance(obj, ShiftOperator):
        return {
            "type": "operator",
            "class": _CLASS_BY_RING[obj.ring],
            "order": obj.order,
            "coeffs": _coeffs_jsonable(obj),
        }
    if isinstance(obj, RecurrenceSystem):
        return {
            "type": "recurrence",
            "class": _CLASS_BY_RING[obj.operator.ring],
            "order": obj.order,
            "coeffs": _coeffs_jsonable(obj.operator),
            "initials": _rational_list(obj.initials),
            "offset": obj.offset,
            "validity_offset": obj.validity_offset,
        }
    if isinstance(obj, RationalGF):
        return {
            "type": "rational_gf",
            "num": _rational_list(obj.num.coeffs),
            "den": _rational_list(obj.den.coeffs),
        }
    if isinstance(obj, DiffEquation):
        return {
            "type": "diff_equation",
            "minpoly": _rational_list(obj.field.minpoly.coeffs),
            "terms": [
                {
                    "base": _element_coords(base),
                    "coeffs": [[_element_coords(c) for c in p.coeffs] for p in coeffs],
                }
                for base, coeffs in obj.terms
            ],
            "rhs": [_element_coords(c) for c in obj.rhs.coeffs],
        }
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _field_from(minpoly_list):
    return NumberField([Fraction(c) for c in minpoly_list])


def _poly_from(field, data, var):
    """A polynomial over ``field`` from its coefficients' coordinate lists."""
    return Poly([field.element(c) for c in data], field, var)


def _exppoly_from(data):
    if not data:
        return ExpPoly.zero(RATIONAL_FIELD)
    field = _field_from(data[0]["base"]["minpoly"])
    terms = [
        (field.element(item["base"]["rep"]), _poly_from(field, item["poly"], "n"))
        for item in data
    ]
    return ExpPoly(field, terms)


def _operator_from(data):
    ring = _RING_BY_CLASS[data["class"]]
    if ring is CoeffRing.CONSTANT:
        coeffs = [Fraction(c) for c in data["coeffs"]]
    elif ring is CoeffRing.POLY_N:
        coeffs = [Poly([Fraction(x) for x in c], QQ, "n") for c in data["coeffs"]]
    else:
        coeffs = [_exppoly_from(c) for c in data["coeffs"]]
    return ShiftOperator(ring, coeffs)


def from_jsonable(data):
    kind = data.get("type")
    if kind == "sequence":
        return Sequence([Fraction(t) for t in data["terms"]], data["offset"])
    if kind == "operator":
        return _operator_from(data)
    if kind == "recurrence":
        operator = _operator_from(data)
        return RecurrenceSystem(
            operator,
            [Fraction(v) for v in data["initials"]],
            data.get("validity_offset", 0),
            data.get("offset", 0),
        )
    if kind == "rational_gf":
        return RationalGF(
            Poly([Fraction(c) for c in data["num"]], QQ, "x"),
            Poly([Fraction(c) for c in data["den"]], QQ, "x"),
        )
    if kind == "diff_equation":
        field = _field_from(data["minpoly"])
        terms = [
            (field.element(item["base"]), [_poly_from(field, p, "x") for p in item["coeffs"]])
            for item in data["terms"]
        ]
        rhs = _poly_from(field, data["rhs"], "x")
        return DiffEquation(field, terms, rhs if rhs else None)
    raise ValueError(f"unknown document type {kind!r}")


def dumps(obj):
    return json.dumps(to_jsonable(obj), sort_keys=True, separators=(",", ":"))


def loads(text):
    return from_jsonable(json.loads(text))
