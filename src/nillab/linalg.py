"""Exact linear algebra over Q and over Q extended by formal symbols.

Entries are Fractions or :class:`~nillab.scalars.ExtScalar` polynomials; a
symbol-free entry is always a Fraction (scalar arithmetic returns one).  Since
the symbols are algebraically independent, linear algebra over the fraction
field Q(t_1, ..., t_r) is done division-free: elimination uses
cross-multiplication, so entries stay polynomial.  Pivoting is leftmost-nonzero
with a fixed normalization rule, so an echelon basis is fixed by its input rows
and their order; over Q(t) it is not a canonical form of the span (see
:func:`echelon`).
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import ExtScalar

_ZERO = Fraction(0)


def _unit_divisor(x):
    """A rational by which a row may be divided to normalize pivot x."""
    if isinstance(x, ExtScalar):
        lead = min(x.terms)  # lexicographically smallest monomial, fixed rule
        return x.terms[lead]
    return Fraction(x)


def _cross(p, r: list, c, s: list) -> list:
    """p r - c s entrywise, forming only the products with no zero factor."""
    return [(p * a - c * b if a else -(c * b)) if b else (p * a if a else a)
            for a, b in zip(r, s)]


def echelon(rows: list[list]) -> list[list]:
    """Echelon basis of the row span, with every pivot column cleared in the other rows.

    Works over the fraction field of the scalars without dividing by
    polynomials: elimination is by cross-multiplication, and rows are finally
    scaled by a rational so the pivot's leading coefficient is 1.  The result
    is fixed by the input rows in their order; over Q it is the reduced echelon
    form, over Q(t) rows may differ by polynomial factors between orders
    (``[[t, 1], [1, t]]`` and its reverse give different rows), so compare
    spans by membership, not with ``==``.
    """
    rows = [r for r in rows if any(r)]
    if not rows:
        return []
    ncols = len(rows[0])
    out: list[list] = []
    pivots: list[int] = []
    work = [list(r) for r in rows]
    for col in range(ncols):
        piv_idx = None
        for i, r in enumerate(work):
            if r[col]:
                piv_idx = i
                break
        if piv_idx is None:
            continue
        piv = work.pop(piv_idx)
        p = piv[col]
        rest = []
        for r in work:
            c = r[col]
            if not c:
                rest.append(r)
                continue
            newr = _cross(p, r, c, piv)
            if any(newr):
                rest.append(newr)
        work = rest
        out.append(piv)
        pivots.append(col)
    # back-substitute to clear entries above each pivot, then normalize
    for i in range(len(out) - 1, -1, -1):
        p_i = pivots[i]
        piv_entry = out[i][p_i]
        for k in range(i):
            c = out[k][p_i]
            if c:
                out[k] = _cross(piv_entry, out[k], c, out[i])
    normed = []
    for r, p in zip(out, pivots):
        d = _unit_divisor(r[p])
        normed.append([x / d if x else _ZERO for x in r])
    return normed


def pivot_columns(rows: list[list]) -> list[int]:
    return [next(j for j, x in enumerate(r) if x) for r in rows]


def reduce_vector(rows: list[list], v: list) -> list:
    """Reduce v against an echelon basis by cross-multiplication.

    The result is zero iff v lies in the span (over the scalar fraction field).
    The result is a nonzero multiple of the true remainder.
    """
    for r in rows:
        p = next((j for j, x in enumerate(r) if x), None)
        if p is None or not v[p]:
            continue
        v = _cross(r[p], v, v[p], r)
    return v


def in_span(rows: list[list], v: list) -> bool:
    return not any(reduce_vector(rows, v))


def nullspace(rows: list[list]) -> list[list]:
    """Echelon basis of the right nullspace {x : M x = 0} over the fraction field."""
    e = echelon(rows)
    if not e:
        ncols = len(rows[0]) if rows else 0
        return [[Fraction(1) if j == i else Fraction(0) for j in range(ncols)] for i in range(ncols)]
    ncols = len(e[0])
    pivs = pivot_columns(e)
    free = [j for j in range(ncols) if j not in pivs]
    basis = []
    for f in free:
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        # back-solve pivot coordinates; only rational pivots can be divided by
        for i in range(len(e) - 1, -1, -1):
            p = pivs[i]
            if isinstance(e[i][p], ExtScalar):
                raise ValueError("nullspace over polynomial pivots is not supported")
            s = 0
            for j in range(p + 1, ncols):
                if x[j] and e[i][j]:
                    s = s + e[i][j] * x[j]
            x[p] = (0 - s) / e[i][p]
        basis.append(x)
    return echelon(basis)


def primitive_integer_vector(v: list[Fraction]) -> list[int]:
    """Scale a rational vector to a primitive integer vector (gcd 1, first nonzero > 0)."""
    from math import gcd

    fracs = [Fraction(x) for x in v]
    if all(f == 0 for f in fracs):
        return [0] * len(fracs)
    lcm = 1
    for f in fracs:
        lcm = lcm * f.denominator // gcd(lcm, f.denominator)
    ints = [int(f * lcm) for f in fracs]
    g = 0
    for i in ints:
        g = gcd(g, abs(i))
    ints = [i // g for i in ints]
    first = next(i for i in ints if i != 0)
    if first < 0:
        ints = [-i for i in ints]
    return ints
