"""Independent reference implementations used as oracles by the tests.

The exact matrix arithmetic is deliberately written from scratch against
unitriangular matrix groups (lists of lists over Fraction/ExtScalar), with no
use of the library's Lie-algebraic code paths, so that agreement is
meaningful.  ``seminorm_power`` is the full-batch form of the seminorm
recursion that the library evaluates chunk by chunk.  ``exp_2pi_i_exact``
computes e(x) = exp(2 pi i x) in exact and decimal arithmetic, with no float
exponential.
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from nillab.scalars import ExtScalar


def zeros(n):
    return [[Fraction(0) for _ in range(n)] for _ in range(n)]


def eye(n):
    m = zeros(n)
    for i in range(n):
        m[i][i] = Fraction(1)
    return m


def madd(a, b):
    n = len(a)
    return [[a[i][j] + b[i][j] for j in range(n)] for i in range(n)]


def mscale(c, a):
    n = len(a)
    return [[c * a[i][j] for j in range(n)] for i in range(n)]


def mmul(a, b):
    n = len(a)
    out = zeros(n)
    for i in range(n):
        for k in range(n):
            if a[i][k] == 0 and not isinstance(a[i][k], ExtScalar):
                continue
            for j in range(n):
                out[i][j] = out[i][j] + a[i][k] * b[k][j]
    return out


def mat_exp(m):
    """exp of a strictly upper-triangular matrix (nilpotent, exact)."""
    n = len(m)
    out = eye(n)
    term = eye(n)
    fact = 1
    for k in range(1, n):
        term = mmul(term, m)
        fact *= k
        out = madd(out, mscale(Fraction(1, fact), term))
    return out


def mat_log(m):
    """log of a unitriangular matrix: log(I + N) with N strictly upper."""
    n = len(m)
    N = [[m[i][j] - (1 if i == j else 0) for j in range(n)] for i in range(n)]
    out = zeros(n)
    term = eye(n)
    for k in range(1, n):
        term = mmul(term, N)
        out = madd(out, mscale(Fraction((-1) ** (k + 1), k), term))
    return out


def elem(n, i, j, t):
    m = eye(n)
    m[i][j] = m[i][j] + t
    return m


# basis of matrix units: (row, col) of each Lie-algebra basis vector
H3_UNITS = [(0, 1), (1, 2), (0, 2)]
H4_UNITS = [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3), (0, 3)]


def vec_to_matrix(units, n, v):
    """Lie algebra vector -> strictly upper-triangular matrix."""
    m = zeros(n)
    for (i, j), c in zip(units, v):
        m[i][j] = m[i][j] + c
    return m


def matrix_to_vec(units, m):
    """Inverse of vec_to_matrix; asserts no stray entries."""
    n = len(m)
    v = [m[i][j] for (i, j) in units]
    for i in range(n):
        for j in range(n):
            if (i, j) not in units and i != j:
                assert m[i][j] == 0, "stray entry at %r" % ((i, j),)
    return v


def psi_matrix(units, n, coords):
    """Second-kind coordinates -> group matrix: product of one-parameter factors."""
    out = eye(n)
    for (i, j), t in zip(units, coords):
        out = mmul(out, mat_exp(vec_to_matrix([(i, j)], n, [t])))
    return out


def seminorm_power(G, s, H_levels):
    """||g||_{U^s}^{2^s} from the whole orbit matrix G[t, i] = g(T^t x_i).

    Each level is a plain mean of H full-batch products, with shifts
    h = 1..H; the base case is the mean of G[0].
    """
    if s == 0:
        return complex(np.mean(G[0]))
    H = H_levels[s - 1]
    depth = 1 + sum(H_levels[: s - 1])
    acc = 0.0j
    for h in range(1, H + 1):
        acc += seminorm_power(G[h : h + depth] * np.conj(G[:depth]), s - 1, H_levels)
    return acc / H


def observable_direct(f, pts):
    """f(pts) for an Observable f, one exponential per term.

    Each term's phase <k, x> is summed coordinate by coordinate and then
    exponentiated: sum_k a_k exp(2 pi i <k, x>), with no powers or products
    of characters.
    """
    out = np.zeros(np.shape(pts[0]) if f.dim else (), dtype=complex)
    for k, a in f.terms.items():
        phase = 0.0
        for kj, xj in zip(k, pts):
            if kj:
                phase = phase + kj * np.asarray(xj, dtype=float)
        out = out + a * np.exp(1j * (2.0 * np.pi) * phase)
    return out


#: pi to 50 significant digits.
PI_DECIMAL = Decimal("3.1415926535897932384626433832795028841971693993751")


def exp_2pi_i_exact(x: float) -> complex:
    """e(x) = exp(2 pi i x) for a float x, each part the float nearest a 40-digit value.

    x is reduced exactly as a Fraction: 4x = q + 4s with q = round(4x) and
    |s| <= 1/8, so e(x) = i^q e(s).  cos and sin of 2 pi s then come from 30
    terms of their Taylor series (the rest is below 1e-35) in 40-digit
    decimal arithmetic.  Non-finite x gives nan + nan i.
    """
    if not math.isfinite(x):
        return complex(math.nan, math.nan)
    r = 4 * Fraction(x)
    q = round(r)
    s = (r - q) / 4
    with localcontext() as ctx:
        ctx.prec = 40
        theta = 2 * PI_DECIMAL * s.numerator / s.denominator
        parts = [Decimal(0), Decimal(0)]  # cos, sin
        term = Decimal(1)  # theta^n / n!
        for n in range(30):
            parts[n % 2] += term if n % 4 < 2 else -term
            term = term * theta / (n + 1)
    c, s = (float(v) for v in parts)
    return (complex(c, s), complex(-s, c), complex(-c, -s), complex(s, -c))[q % 4]
