"""Exact Gaussian elimination over pluggable fields.

There is one elimination kernel, ``_eliminate``: ``rref``, ``rank``,
``solve_linear`` and ``left_null_space`` all read their answers off its
reduced matrix and pivot list.  A small adapter carries the field's
zero/one and a pivot-quality hook.  Over honest fields (rationals,
rational functions, number fields) every nonzero entry is an equally good
pivot.  Over the formal fraction ring of exponential polynomials some
nonzero entries vanish at infinitely many indices; the null-space routine
there prefers unit pivots, which is what steers degenerate combinations
towards relations with a usable leading coefficient.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalError
from .polynomials import Poly, poly_gcd, poly_lcm, rational_content


@dataclass(frozen=True)
class FieldAdapter:
    zero: object
    one: object
    is_unit: callable = None  # pivot preference; None means "any nonzero"
    normalize_basis: bool = True  # scale null basis vectors to first entry 1


def rational_adapter():
    return FieldAdapter(Fraction(0), Fraction(1))


def numberfield_adapter(field):
    return FieldAdapter(field.zero, field.one)


def ratfunc_adapter(rf_one):
    """Adapter from a sample one-element of the rational function field."""
    return FieldAdapter(rf_one - rf_one, rf_one)


def exppoly_fraction_adapter(field):
    from .exppoly import ExpPolyFraction

    return FieldAdapter(
        ExpPolyFraction.zero(field),
        ExpPolyFraction.one(field),
        is_unit=lambda x: x.is_unit_value(),
        normalize_basis=False,
    )


def _eliminate(rows, zero, prefer=None):
    """Gauss-Jordan reduction, the one elimination routine of this module.

    Returns (matrix, pivots) where pivots is a list of (row, col) and each
    pivot row is scaled to a pivot of one.  Rows are never swapped.  A
    pivot is the first unused nonzero entry of the leftmost column that has
    one; with ``prefer`` set, a later column with a preferred pivot wins
    over earlier ones whose available entries are all non-preferred.
    """
    m = [list(r) for r in rows]
    n_cols = len(m[0]) if m else 0
    pivots = []
    used_rows = set()
    pivot_cols = set()
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


def rref(rows, field):
    """Reduced row echelon form: the pivot rows in pivot-column order, then
    the zero rows; row space is preserved."""
    reduced, pivots = _eliminate(rows, field.zero)
    # without a pivot preference the pivots come in column order
    pivot_rows = [r for r, _ in pivots]
    zero_rows = [row for r, row in enumerate(reduced) if r not in pivot_rows]
    return [reduced[r] for r in pivot_rows] + zero_rows


def rank(rows, field):
    return len(_eliminate(rows, field.zero)[1])


def left_null_space(rows, field):
    """Basis of {P : P . rows = 0}; empty list when the null space is trivial.

    Over honest fields each basis vector is scaled so its first nonzero
    entry is one; adapters may turn that off when division is costly.
    """
    n_rows = len(rows)
    if n_rows == 0:
        return []
    n_cols = len(rows[0])
    transposed = [[rows[r][c] for r in range(n_rows)] for c in range(n_cols)]
    reduced, pivots = _eliminate(transposed, field.zero, field.is_unit)
    pivot_for_col = {col: row for row, col in pivots}
    free_cols = [c for c in range(n_rows) if c not in pivot_for_col]
    basis = []
    for free in free_cols:
        vec = [field.zero] * n_rows
        vec[free] = field.one
        for col, row in pivot_for_col.items():
            entry = reduced[row][free]
            if entry != field.zero:
                vec[col] = field.zero - entry
        if field.normalize_basis:
            lead = next(x for x in vec if x != field.zero)
            vec = [x / lead for x in vec]
        basis.append(vec)
    return basis


def solve_linear(rows, rhs, field):
    """One exact solution of rows . x = rhs with free variables set to zero.

    Returns None when the system is inconsistent, which is exactly when the
    right-hand-side column takes a pivot.
    """
    if not rows:
        return []
    n_cols = len(rows[0])
    augmented = [list(r) + [b] for r, b in zip(rows, rhs)]
    reduced, pivots = _eliminate(augmented, field.zero)
    solution = [field.zero] * n_cols
    for row, col in pivots:
        if col == n_cols:
            return None
        # a pivot row is zero in the other pivot columns and free variables
        # stay zero, so the pivot variable is the rhs entry
        solution[col] = reduced[row][n_cols]
    return solution


def clear_denominators(vector):
    """Turn a rational-function vector into a coprime polynomial vector.

    Multiplies by the least common denominator, divides out the polynomial
    and rational content, and fixes the sign so the highest-index nonzero
    entry has a positive leading rational.
    """
    entries = list(vector)
    nonzero = [e for e in entries if e]
    if not nonzero:
        raise ValueError("cannot normalize the zero vector")
    sample = nonzero[0].num
    lcd = Poly([1], sample.domain, sample.var)
    for e in nonzero:
        lcd = poly_lcm(lcd, e.den)
    polys = []
    for e in entries:
        if e:
            polys.append(e.num * lcd.exact_div(e.den))
        else:
            polys.append(Poly([], sample.domain, sample.var))
    shared = Poly([], sample.domain, sample.var)
    for p in polys:
        if p:
            shared = poly_gcd(shared, p) if shared else p.monic()
    if shared.degree > 0:
        polys = [p.exact_div(shared) if p else p for p in polys]
    content = rational_content([c for p in polys for c in p.coeffs])
    if content and content != 1:
        polys = [p.scale(Fraction(1) / content) for p in polys]
    top = max(i for i, p in enumerate(polys) if p)
    if polys[top].leading < 0:
        polys = [-p for p in polys]
    return polys


def clear_exppoly_denominators(vector):
    """Multiply an ExpPolyFraction vector through by a common denominator.

    The common denominator is the per-factor maximum of the entries'
    denominator multisets, so structural cancellation removes every
    denominator and no ring division is ever attempted.
    """
    from .exppoly import _multiset_union_max

    entries = list(vector)
    if not any(entries):
        raise ValueError("cannot normalize the zero vector")
    common = []
    for e in entries:
        if e:
            common = _multiset_union_max(common, e.den_factors)
    out = []
    for e in entries:
        value = e
        for factor in common:
            value = value * factor
        if value.den_factors:
            raise InternalError("common denominator failed to clear")
        out.append(value.expanded_num())
    return out
