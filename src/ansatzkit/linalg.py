"""Exact linear algebra: one ring kernel and one field kernel.

The ring kernel, ``null_vectors``, finds the left null vectors of a matrix
of integer polynomials, the one form it takes: callers clear their
fractions before, by one scale per equation (the guessers scale the terms
by one common denominator, the closures build their matrices over Z[n]).
Each equation is divided by its integer content, and a fraction-free
(Bareiss, Math. Comp. 1968) Gaussian elimination over Z[x], one step at a
time on the rows not yet used, leaves the pivot rows in echelon form; at
each free column one vector is solved from them by back substitution,
each division exact because every value it stores is a minor (Cramer's
rule), and made primitive on its packed entries: their integer gcd,
unpacked once, is the GCDHEU candidate, and a norm check on the quotients
proves it (``_packed_primitive_vector``).  A caller whose rows sit over
denominators of their own passes them, and the vector is rescaled by them
before that one primitive step.  It runs on packed integers: every entry
is evaluated once at x = 2**k, a ring homomorphism Z[x] -> Z, so each
step is one integer product, difference and exact division.  The packing
is exact because every entry is a minor, whose coefficients a 1-norm
bound caps (times the largest denominator's 1-norm for a rescaled
vector), and k is wide enough for signed k-bit digits to hold that bound:
evaluation is then injective on the entries, and the vectors yielded are
unpacked digit by digit.  The guessers and the constant and
polynomial-coefficient closures use it; its packing and its gcd come from
``polynomials``.

The field kernel, ``_eliminate``, is Gauss-Jordan over a pluggable field:
``rref``, ``rank``, ``solve_linear`` and ``left_null_space`` all read
their answers off its reduced matrix and pivot list.  Callers describe the
field by a ``FieldAdapter``: its zero, its one and an optional pivot
preference.  The library needs the kernel only over number fields and
over the formal fraction ring of exponential polynomials, whose zero
divisors rule out exact fraction-free division; there some nonzero
entries vanish at infinitely many indices, and the preference for unit
pivots steers degenerate combinations towards relations with a usable
leading coefficient.

Beside the exact kernels sits one modular routine, ``rank_profile_mod_p``:
it finds, modulo the fixed prime ``PRIME``, the equations (columns) of
integer rows that raise the rank, in order.  ``PRIME`` is below 2**30,
so every residue is one CPython digit; a smaller prime only raises the
chance that a minor vanishes mod p (about 2**-30 each), which costs
callers time, not correctness.  When the rank reaches the number of
rows it stops and proves the rows independent over Q; otherwise it
returns the equations that raised the rank and the first relation of the
rows mod p.  Its elimination is left-looking and runs in C-level loops:
each new equation costs one forward substitution and one dot product per
row, and after an equation that raises nothing one bulk scan finds the
next that does.  The guessers use the routine both ways: most shapes
they try have no relation and are rejected after a few equations, and
the others lift the relation to the rationals and check it on every
equation, with the exact kernel on the picked equations as the fallback.
"""

from dataclasses import dataclass
from itertools import compress, count
from math import gcd, prod
from operator import mul, sub

from .errors import InternalError
from .exppoly import _over_common_denominator
from .polynomials import (
    Poly,
    QQ,
    _zx_cleared,
    _zx_common_factor,
    _zx_pack,
    _zx_primitive,
    _zx_unpack,
    _zx_width,
    poly_gcd,
)


@dataclass(frozen=True)
class FieldAdapter:
    """The field kernel's view of a field: its zero and one, and the one
    knob ``is_unit``, a pivot preference for a ring with zero divisors.
    Without a preference the field is honest and null basis vectors are
    scaled to a first nonzero entry of one; with one they are left as
    read, since division there is costly."""

    zero: object
    one: object
    is_unit: callable = None  # pivot preference; None means "any nonzero"


def _eliminate(rows, zero, prefer=None):
    """Gauss-Jordan reduction, the one elimination routine of this module.

    Returns (matrix, pivots) where pivots is a list of (row, col) and each
    pivot row is scaled to a pivot of one.  Rows are never swapped.  A
    pivot is the first unused nonzero entry of the leftmost column that has
    one; with ``prefer`` set, a later column with a preferred pivot wins
    over earlier ones whose available entries are all non-preferred.
    Entries are tested for zero by their truth value, which every field
    here shares with ``== zero`` and answers in one call; ``zero`` fills
    the pivot column.
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
                if r in used_rows or not row[col]:
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
            if not factor:
                continue
            # the pivot column's a - a * 1 is the field's zero, which over
            # exponential-polynomial fractions costs a full expansion
            m[r] = [
                zero if c == pcol else a - factor * b
                for c, (a, b) in enumerate(zip(m[r], m[prow]))
            ]
        used_rows.add(prow)
        pivot_cols.add(pcol)
        pivots.append((prow, pcol))
    return m, pivots


PRIME = 2**30 - 35  # the largest prime below 2**30: each residue is one CPython digit


def rank_profile_mod_p(rows):
    """The equations (columns) that raise the rank mod PRIME of integer
    rows, given by their residues and taken in order, with the first
    relation of the rows mod PRIME; None once that rank reaches the number
    of rows.

    Reduction mod PRIME is a ring homomorphism on the integers, so a minor
    that is nonzero mod PRIME is nonzero over Z, hence over Q: None proves
    the rows independent over Q (no left null vector), and the kept
    equations are independent over Q.  When the rank over Q is no larger,
    they span every equation and have its left null space; a smaller rank
    mod PRIME shows only when a vector is checked on all equations, which
    callers do.  An empty list of picks (rank 0) says nothing.

    The picks are the rank profile of the matrix mod PRIME, whatever order
    the elimination takes; this one is left-looking (Crout).  The kept
    equations factor as L U, with L one at each pivot row and zero there
    for later picks.  Each row is stored with its row of L, one multiplier
    per pick made while the row had no pivot, so a pick only appends.  A
    new equation a has coordinates y with L y = a on the pivot rows
    (forward substitution), and its residue at a remaining row t is
    a_t - L_t . y, which is the same whatever the elimination order; the
    first remaining row with a nonzero residue takes the pivot.  An
    equation with no nonzero residue raises nothing, and ``_next_rise``
    scans the rest in bulk for the next one that does.

    The relation comes with the picks as a list of residues v of length
    t + 1, where t is the least row that never took a pivot: v[t] = 1 and
    v[s] = -z_t[s] at the rows s < t, z_t = L_t L_P^-1 over the pivot rows
    P, one back substitution as in ``_next_rise``.  Row t has residue a_t -
    z_t . a_P = 0 at every equation a, so v is a left null vector mod
    PRIME, and it ends at t.  The residue of a row r at an equation is r's
    entry there minus the combination of the pivot rows that matches r at
    the picks so far: linear in r, and zero at the pivot rows.  So a row
    that is a combination of earlier rows has as residue the same
    combination of the residues of the earlier rows without a pivot, and
    where it is nonzero, one of those is too and comes first: no row that
    depends on earlier rows takes a pivot.  The pivot rows span the rows,
    so they are exactly the rows independent of the rows before them, the
    first basis of the rows in row order.  Hence the rows before t are all
    pivot rows, independent, and row t is the first row that depends on
    the rows before it; the pivot rows being independent, z_t is zero at
    those after t.  At rank 0 the relation is [1]: row 0 vanishes.
    """
    pivots, rest, picks = [], [(row, []) for row in rows], []
    places, pivot_places = list(range(len(rows))), []  # row indices of rest, pivots
    index, n_cols = 0, len(rows[0])
    while index < n_cols:
        coords = []
        for row, multipliers in pivots:
            coords.append((row[index] - sum(map(mul, multipliers, coords))) % PRIME)
        values = [
            (row[index] - sum(map(mul, multipliers, coords))) % PRIME for row, multipliers in rest
        ]
        first = next(compress(count(), values), None)
        if first is None:
            index = _next_rise(pivots, rest, index + 1)
            if index is None:
                break
            continue
        inverse = pow(values.pop(first), -1, PRIME)
        pivots.append(rest.pop(first))
        pivot_places.append(places.pop(first))
        for (_, multipliers), value in zip(rest, values):
            multipliers.append(value * inverse % PRIME)
        picks.append(index)
        if len(picks) == len(rows):
            return None
        index += 1
    t = places[0]
    relation = [0] * t + [1]
    z = _back_substitution(rest[0][1], _columns_below(pivots))
    for place, c in zip(reversed(pivot_places), z):
        if place < t:
            relation[place] = -c % PRIME
    return picks, relation


def _columns_below(pivots):
    """Column l of L_P below its diagonal, for each pivot row l of
    ``rank_profile_mod_p``, from the last pivot row up."""
    return [[m[l] for _, m in reversed(pivots[l + 1 :])] for l in range(len(pivots))]


def _back_substitution(multipliers, below):
    """z_t = L_t L_P^-1 mod PRIME from its last entry back, for a row t
    with its ``multipliers`` L_t and the columns ``below`` of L_P."""
    z = []
    for l in reversed(range(len(below))):
        z.append((multipliers[l] - sum(map(mul, z, below[l]))) % PRIME)
    return z


def _next_rise(pivots, rest, start):
    """The first equation from ``start`` on that has a nonzero residue at
    some remaining row of ``rank_profile_mod_p``'s elimination, or None;
    ``pivots`` and ``rest`` hold its rows with their multipliers.

    The residue at row t is a linear functional of the equation a: a_t -
    L_t . y with L_P y = a_P on the pivot rows P, that is a_t - z_t . a_P
    with z_t = L_t L_P^-1, one back substitution per row.  It is applied
    to every later equation at once, as a combination of row slices; each
    row's scan ends at the first rise found so far."""
    below = _columns_below(pivots)
    found = None
    for row, multipliers in rest:
        residues = row[start:found]
        for (pivot_row, _), c in zip(reversed(pivots), _back_substitution(multipliers, below)):
            if c:
                residues = map(sub, residues, map(c.__mul__, pivot_row[start:found]))
        rise = next(compress(count(start), map(PRIME.__rmod__, residues)), None)
        if rise is not None:
            found = rise
    return found


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

    Without a pivot preference (over honest fields) each basis vector is
    scaled so its first nonzero entry is one; with one it is left as read.
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
            if entry:
                vec[col] = field.zero - entry
        if field.is_unit is None:
            lead = next(x for x in vec if x)
            vec = [x / lead for x in vec]
        basis.append(vec)
    return basis


def solve_linear(rows, rhs, field):
    """One exact solution of rows . x = rhs with free variables set to zero;
    of ``field`` (a ``FieldAdapter`` or a ``NumberField``) only the zero is read.

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
    """Turn a vector of rational functions over Q into a coprime polynomial
    vector: multiplied through by one common factor, with the polynomial
    and integer content divided out and the highest-index nonzero entry's
    leading coefficient positive."""
    entries = list(vector)
    if not any(entries):
        raise ValueError("cannot normalize the zero vector")
    var = entries[0].num.var
    common = Poly([1], QQ, var)  # the lcm of the (monic) denominators
    for e in entries:
        common = common * e.den.exact_div(poly_gcd(common, e.den))
    numerators = [(e.num * common.exact_div(e.den)).coeffs for e in entries]
    return [Poly(c, QQ, var) for c in _primitive_vector(_zx_cleared(numerators))]


def clear_exppoly_denominators(vector):
    """Multiply an ExpPolyFraction vector through by a common denominator,
    the one ``ExpPolyFraction.__add__`` uses: ``exppoly`` alone combines
    factor lists, and no ring division is attempted."""
    entries = list(vector)
    if not any(entries):
        raise ValueError("cannot normalize the zero vector")
    return _over_common_denominator(entries)[1]


# ---------------------------------------------------------------------------
# the ring kernel: fraction-free elimination over Z[x], on the integer
# polynomials of ``polynomials`` packed into integers


def _primitive_vector(vector):
    """Divide out the polynomial gcd and the integer content of the entries,
    and make the leading coefficient of the last nonzero entry positive.
    ``clear_denominators`` uses it, and the ring kernel when the packed
    candidate of ``_packed_primitive_vector`` fails its check.

    Each nonzero entry is its signed content s times a primitive part with
    a positive leading coefficient; one GCDHEU pass divides the parts by
    their gcd, and the quotients stay primitive (Gauss's lemma), so the
    vector's integer content is the gcd of the s."""
    nonzero = [v for v in vector if v]
    signed = [gcd(*v) if v[-1] > 0 else -gcd(*v) for v in nonzero]
    _, quotients = _zx_common_factor(
        [v if s == 1 else [c // s for c in v] for v, s in zip(nonzero, signed)]
    )
    # star arguments from a list: see sequences.Sequence
    content = gcd(*signed)
    if signed[-1] < 0:
        content = -content
    parts = iter([[c * (s // content) for c in q] for s, q in zip(signed, quotients)])
    return [next(parts) if v else [] for v in vector]


def _packed_primitive_vector(vector, k):
    """``_primitive_vector`` of the integer polynomials packed at x = 2**k
    into ``vector``, whose last entry is nonzero, read off the packed
    values: their integer gcd G is unpacked once, and its primitive part c,
    with a positive leading coefficient, is the GCDHEU candidate for the
    gcd of the entries.  Each packed entry is divided by c(2**k) and the
    quotient q unpacked; the division is exact, as c(2**k) divides G, which
    divides every entry, and a remainder falls back all the same.  When
    every |q|_inf |c|_1 < 2**(k - 1), the coefficients of q c and of the
    entry are signed k-bit digits with one packed value, so q c is the
    entry: c divides every entry in Z[x].  Otherwise ``_primitive_vector``
    decides on the unpacked entries.

    A candidate dividing every entry is their gcd h (primitive, up to
    sign) when 2**k >= 2 m + 2, m the largest coefficient of some nonzero
    entry a: c divides h (Gauss's lemma), and h = c e with e in Z[x]; h(x)
    divides G = cont(G) c(x), so e(x) divides cont(G), which is nonzero and
    at most x / 2 in size, as G's digits are.  A root of e is one of a, so
    of size below 1 + m (Cauchy, strictly), and a nonconstant e has
    |e(x)| > (x - 1 - m)**deg e >= (x / 2)**deg e >= x / 2.  So e is
    constant, and ±1 as h is primitive.  The width meets the condition:
    ``null_vectors`` takes k = b + 1 for a bound B >= m of b bits, so
    2**k = 2**(b + 1) >= 2 B + 2 >= 2 m + 2.

    Dividing the quotients by their integer content, signed by the last
    entry's leading coefficient, gives ``_primitive_vector``'s answer."""
    candidate = _zx_primitive(_zx_unpack(gcd(*vector), k))
    if candidate == [1]:
        quotients = [_zx_unpack(v, k) for v in vector]
    else:
        packed, norm, half = _zx_pack(candidate, k), sum(map(abs, candidate)), 1 << (k - 1)
        quotients = []
        for v in vector:
            q, r = divmod(v, packed)
            q = _zx_unpack(q, k)
            if r or (q and max(map(abs, q)) * norm >= half):
                return _primitive_vector([_zx_unpack(v, k) for v in vector])
            quotients.append(q)
    # star arguments from a list: see sequences.Sequence
    content = gcd(*[c for q in quotients for c in q])
    if quotients[-1][-1] < 0:
        content = -content
    return quotients if content == 1 else [[c // content for c in q] for q in quotients]


def _integer_primitive(equation):
    """An equation divided by the integer gcd of all its coefficients."""
    # star arguments from a list: see sequences.Sequence
    content = gcd(*[c for e in equation for c in e])
    return equation if content < 2 else [[c // content for c in e] for e in equation]


def _minor_bound(equations, size):
    """A bound on the coefficients of every minor of at most ``size`` rows
    of ``equations`` (lists of integer polynomials, one entry per row):
    the lesser of the product of the ``size`` largest equation 1-norms
    and the product of as many largest row 1-norms as a minor can have
    rows, a row's 1-norm summed over all the equations.  A minor's terms
    take one entry from each of its equations and each of its rows, and
    the 1-norm of a product is at most the product of the 1-norms, so the
    minor's 1-norm, which bounds its coefficients, is at most the product
    of its equations' 1-norms (the sum over its terms, expanded, runs
    over a subset of the product's terms) and, the same way, of its rows'.
    Closure rows grow with the shift, so each equation's norm is about its
    last row's entry, and the row product, which counts that row once, is
    the far smaller one on their matrices (156 against 349 bits on the
    term-wise product of two dense order-3 operators)."""
    norms = [[sum(map(abs, e)) for e in eq] for eq in equations]
    by_equation = sorted(map(sum, norms), reverse=True)[:size]
    by_row = sorted(map(sum, zip(*norms)), reverse=True)[: len(equations)]
    return min(prod(filter(None, by_equation)), prod(filter(None, by_row)))


def null_vectors(rows, scales=None):
    """The left null vectors of a matrix over Z[x], one per free column, in
    free-column order: the basis ``left_null_space`` returns over Q(x), up
    to scale.  Entries are integer polynomials (lists of ints, lowest power
    first, ``[]`` for zero); callers with rational entries scale each
    column (each equation) by a common denominator first, which leaves the
    null space unchanged.  Each vector is truncated after its free column
    f, so it has order exactly f, and its entries are integer polynomials:
    coprime, with a positive leading coefficient in the last entry.

    A caller may instead put row t over a denominator of its own and pass
    the nonzero integer polynomials ``scales``, one per row: the rows are
    then D M for the diagonal D of the scales, u is a left null vector of
    D M exactly when v = D u is one of M, and each vector yielded is v,
    entry t of u times scales[t], made primitive once.

    Each equation is first divided by the integer gcd of its coefficients
    only: Bareiss divides exactly whatever the equations' polynomial
    content, and the yielded vectors are made primitive anyway.  Then a
    one-step fraction-free Gaussian elimination (Bareiss, Math. Comp. 1968)
    on the transposed matrix, with the pivot rule of ``_eliminate``
    (leftmost column, first unused row), so the pivot columns are those of
    the reduced form over the field.  Each step sets M[i][j] = (piv M[i][j]
    - M[i][c] M[p][j]) / prev for the unused rows only, an exact division
    because every entry is a minor; a pivot row keeps the minors it had
    when it took its pivot, the rows U of an echelon form.  At a free
    column f the vector x is solved from the pivot rows, the last one
    first: x[f] = prev, zero at the other free columns, and for the pivot
    (U[i], c) x[c] = -(U[i][f] prev + sum_j U[i][c_j] x[c_j]) / U[i][c],
    over the later pivot columns c_j.  Row i of the solved system reads
    U[i] . x = 0, U[i] being zero at the earlier pivot columns (its stale
    entries there are never read), so x is the null vector with
    x[f] = prev, which the nonsingular pivot block makes unique: by
    Cramer's rule, with prev the determinant of that block, each x[c] is a
    minor up to sign, so each division is exact, and x is the vector a
    Gauss-Jordan Bareiss elimination, which also updates the pivot rows,
    reads off as x[c] = -M[r][f] at each pivot (r, c).  The elimination
    runs on only when the caller asks for the next vector.

    The elimination runs on packed integers: each entry is evaluated once
    at x = 2**k (Kronecker substitution), and only the vectors yielded are
    unpacked.  Evaluation is a ring homomorphism Z[x] -> Z, so every step
    computes the packed value of the Z[x] step, division included.  Every
    stored entry, every prev and every x[c] is a minor of at most as many
    rows as the matrix has, of the equations as stored, whose coefficients
    ``_minor_bound`` bounds by B; the sums of the back substitution are
    never unpacked, only divided exactly.  Entry t of a rescaled vector has
    coefficients of size at most B |scales[t]|_1 (a 1-norm bounds a
    product's coefficients with the other factor's largest), and k is the
    width at which signed k-bit digits hold B times the largest such norm;
    so packing is injective on every value unpacked or tested for zero,
    and the zero tests, the pivots and the vectors are those of the
    elimination over Z[x].  A remainder would break that invariant and is
    an internal error.  Each vector is made primitive on the packed values
    before it is unpacked (``_packed_primitive_vector``), with
    ``_primitive_vector`` on the unpacked entries as its fallback.
    """
    if not rows:
        return
    n_rows = len(rows)
    # each column is one equation; scaling equations keeps the null space
    m = [_integer_primitive([row[col] for row in rows]) for col in range(len(rows[0]))]
    bound = _minor_bound(m, n_rows)
    if scales is not None:
        bound *= max([sum(map(abs, s)) for s in scales])
    k = _zx_width(bound)
    unused = [[_zx_pack(e, k) for e in equation] for equation in m]
    pivots = []  # (pivot row, pivot column), in pivot order
    prev = 1
    for col in range(n_rows):
        p = next((i for i, row in enumerate(unused) if row[col]), None)
        if p is None:
            vector = [0] * (col + 1)
            vector[col] = prev
            for row, c in reversed(pivots):
                q, r = divmod(-sum(map(mul, row[c + 1 : col + 1], vector[c + 1 :])), row[c])
                if r:
                    raise InternalError("back substitution is not exact")
                vector[c] = q
            if scales is not None:
                vector = [v if s == [1] else v * _zx_pack(s, k) for v, s in zip(vector, scales)]
            yield _packed_primitive_vector(vector, k)
            continue
        pivot_row = unused.pop(p)
        piv = pivot_row[col]
        for row in unused:
            factor = row[col]
            for j in range(col + 1, n_rows):
                q, r = divmod(piv * row[j] - factor * pivot_row[j], prev)
                if r:
                    raise InternalError("fraction-free elimination step is not exact")
                row[j] = q
        pivots.append((pivot_row, col))
        prev = piv


def least_null_vector(rows, scales=None):
    """The first of ``null_vectors``, of least order; None when there is none."""
    return next(null_vectors(rows, scales), None)
