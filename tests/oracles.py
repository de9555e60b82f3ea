"""Independent reference implementations used as oracles by the tests.

The exact matrix arithmetic is deliberately written from scratch against
unitriangular matrix groups (lists of lists over Fraction/ExtScalar), with no
use of the library's Lie-algebraic code paths, so that agreement is
meaningful.  ``seminorm_power`` is the full-batch form of the seminorm
recursion, and ``correlations`` the whole-batch walk of the autocorrelations,
both of which the library evaluates chunk by chunk; ``seminorm_power_full_width``
is the library's symmetric kernel with its s = 2 level on whole rows, which
the library forms on column blocks.  ``exp_2pi_i_exact``
computes e(x) = exp(2 pi i x) in exact and decimal arithmetic, with no float
exponential.  ``polynomial_map_float`` and ``exp_2pi_i_table`` are the plain,
out-of-place forms of the library's in-place float kernels, which must agree
with them bit for bit.  ``bracket_dense``, ``jacobi_failure_dense``,
``automorphism_failure_dense``, ``matmul_dense``, ``echelon_dense``,
``reduce_vector_dense`` and ``polynomial_map_exact`` are the dense forms of
the library's exact kernels, which form only the products with no zero factor
and must return equal values of equal types.  ``quotient_system`` derives a
factor as a system of its own (quotient algebra, induced automorphisms and
shifts, its projection taken from N's echelon basis here): the reference for
``structure.factor_projection``, through which the library reads every factor.
"""

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import combinations

import numpy as np

from nillab import group as gp
from nillab import linalg, spectral
from nillab import structure as st
from nillab.algebra import NilLieAlgebra, RationalIdeal
from nillab.group import UnipotentAutomorphism
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


def seminorm_power_full_width(g, s, H_levels):
    """The library's seminorm kernel with its s = 2 level on whole rows.

    Each unordered shift pair (a, t), t < a, is summed once as one full-width
    product of n + 1 rows g[a : a + n + 1] conj(g[: n + 1]) passed to the s = 1
    level, and the diagonal as one product of every other row; the library
    forms the same products on column blocks.  s = 0 and 1 call the library,
    and s = 3 runs its recursion over this s = 2 level.
    """
    if s < 2:
        return spectral._seminorm_power(g, s, H_levels)
    if s == 3:
        depth = 1 + sum(H_levels[:2])
        base = np.conj(g[:depth])
        acc = 0.0j
        for h in range(1, H_levels[2] + 1):
            acc += seminorm_power_full_width(g[h : h + depth] * base, 2, H_levels)
        return acc / H_levels[2]
    low, high = sorted(H_levels[:2])
    base = np.conj(g[: low + 1])
    acc = complex(np.dot((g[2 : 2 * low + 1 : 2] * base[1:] ** 2).sum(0), g[0]))
    for a in range(2, high + 1):
        n = min(a - 1, low)
        pair = spectral._seminorm_power(g[a : a + n + 1] * base[: n + 1], 1, (n,))
        acc += (2 if a <= low else 1) * n * pair
    return acc / (low * high)


def correlations(sys, fs, K1, K2, N, seed):
    """Row-major boxes of c_q(n1, n2), |n1| <= K1 and |n2| <= K2, by the whole-batch walk.

    All N sample points z walk at once: 2 K2 steps along T2, keeping every
    conj f(T2^j z) in one (2 K2 + 1) x N block, then y = T2^K2 z walks K1
    steps along T1, and c(n1, n2) = np.mean(conj f(T2^(K2 - n2) z) . f(T1^n1 y)),
    but for c(0, 0), the real sum of |f(y)|^2 over N.  Each f is called on each
    batch in list order.  The rows n1 = 0, n2 < 0 and n1 < 0 are mirrored by
    c(-n) = conj(c(n)).
    """
    def hermitian(half):
        return np.concatenate([np.conj(np.flip(half[1:])), half])

    num = sys.numeric()
    z = num.sample_points(N, seed)
    kept = np.empty((len(fs), 2 * K2 + 1, N), dtype=complex)
    for j in range(2 * K2 + 1):
        if j:
            z = num.step2(z)
        for q, f in enumerate(fs):
            kept[q, j] = np.conj(f(z))
        if j == K2:
            x = z
    half = np.empty((len(fs), K1 + 1, 2 * K2 + 1), dtype=complex)
    for n1 in range(K1 + 1):
        if n1:
            x = num.step(x)
        for q, f in enumerate(fs):
            fx = f(x)
            for i in range(K2 if n1 == 0 else 0, 2 * K2 + 1):  # i = K2 + n2
                half[q, n1, i] = np.mean(kept[q, 2 * K2 - i] * fx)
            if n1 == 0:  # the real sum of |f|^2, divided by N as np.mean divides a complex sum
                half[q, 0, K2] = np.complex128(np.sum(np.square(fx.real) + np.square(fx.imag))) / N
    for h in half:
        h[0] = hermitian(h[0, K2:])
    return [hermitian(h).ravel() for h in half]


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


def polynomial_map_float(pmap, values, floors_at=None):
    """``pmap(values, floors_at)`` at a float point, by the plain loop.

    Per output, acc = 0, then acc = acc + c * x_j1 * x_j2 * ... term by term,
    a fresh value for every product and partial sum; with ``floors_at``, each
    output's floor is written to ``values[floors_at + i]`` before output i + 1.
    """
    values = [float(v) if isinstance(v, (int, Fraction, ExtScalar)) else v for v in values]
    out = []
    for i, poly in enumerate(pmap.exact):
        acc = 0
        for c, mono in poly:
            c = float(c)
            for j in mono:
                c = c * values[j]
            acc = acc + c
        if floors_at is not None:
            k = np.floor(acc)
            r = acc - k  # rounds up to 1.0 for acc = -1e-20
            values[floors_at + i], acc = k, r - (r >= 1.0)
        out.append(acc)
    return out if floors_at is None else (out, values[floors_at:])


def exp_2pi_i_table(x):
    """e(x) by the phase table of ``spectral._exp_2pi_i``, every step a fresh array."""
    with np.errstate(invalid="ignore"):  # inf - inf is nan, as wanted
        u = (x - np.rint(x)) * spectral.PHASES
    rounded = u + spectral._ROUNDER
    theta = (u - (rounded - spectral._ROUNDER)) * (spectral.TWO_PI / spectral.PHASES)
    theta2 = theta * theta
    out = np.empty(np.shape(x), dtype=complex)
    out.real = 1.0 - theta2 * (0.5 - theta2 * (1.0 / 24.0))
    out.imag = theta * (1.0 - theta2 * (1.0 / 6.0))
    out *= spectral._phase_table().take(rounded.view(np.int64) & (spectral.PHASES - 1))
    return out


# ---------------------------------------------------------------------------
# Dense exact kernels: every product formed, zero or not
# ---------------------------------------------------------------------------


def bracket_dense(brackets, x, y):
    """[x, y] from structure constants {(i, j): {k: c}}, every pair's cross
    product x_i y_j - x_j y_i formed."""
    res = [Fraction(0)] * len(x)
    for (i, j), cs in brackets.items():
        t = x[i] * y[j] - x[j] * y[i]
        if t == 0:
            continue
        for k, c in cs.items():
            res[k] = res[k] + c * t
    return res


def _basis(dim):
    return [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]


def jacobi_failure_dense(dim, brackets):
    """The first basis triple (i, j, k), i < j < k, whose Jacobi sum of
    brackets of dense basis vectors is nonzero, or None."""
    e = _basis(dim)

    def br(x, y):
        return bracket_dense(brackets, x, y)

    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                terms = (br(br(e[i], e[j]), e[k]), br(br(e[j], e[k]), e[i]),
                         br(br(e[k], e[i]), e[j]))
                if any(a + b + c != 0 for a, b, c in zip(*terms)):
                    return (i, j, k)
    return None


def _apply(matrix, v):
    return [sum((row[j] * v[j] for j in range(len(v))), start=Fraction(0)) for row in matrix]


def automorphism_failure_dense(brackets, matrix):
    """The first pair (i, j), i < j, with M [xi_i, xi_j] != [M xi_i, M xi_j],
    each side from dense basis vectors, or None."""
    e = _basis(len(matrix))
    images = [_apply(matrix, v) for v in e]
    for i in range(len(e)):
        for j in range(i + 1, len(e)):
            lhs = _apply(matrix, bracket_dense(brackets, e[i], e[j]))
            rhs = bracket_dense(brackets, images[i], images[j])
            if any(a - b != 0 for a, b in zip(lhs, rhs)):
                return (i, j)
    return None


def matmul_dense(a, b):
    m = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(m)), start=Fraction(0)) for j in range(m)]
            for i in range(m)]


def echelon_dense(rows):
    """``linalg.echelon`` with every cross-multiplication dense."""
    from nillab.linalg import _unit_divisor

    work = [list(r) for r in rows if any(x != 0 for x in r)]
    if not work:
        return []
    ncols = len(work[0])
    out = []
    for col in range(ncols):
        piv_idx = next((i for i, r in enumerate(work) if r[col] != 0), None)
        if piv_idx is None:
            continue
        piv = work.pop(piv_idx)
        p = piv[col]
        rest = []
        for r in work:
            if r[col] == 0:
                rest.append(r)
                continue
            c = r[col]
            newr = [p * r[j] - c * piv[j] for j in range(ncols)]
            if any(x != 0 for x in newr):
                rest.append(newr)
        work = rest
        out.append(piv)
    pivots = [next(j for j in range(ncols) if r[j] != 0) for r in out]
    for i in range(len(out) - 1, -1, -1):
        p_i = pivots[i]
        for k in range(i):
            c = out[k][p_i]
            if c != 0:
                out[k] = [out[i][p_i] * out[k][j] - c * out[i][j] for j in range(ncols)]
    return [[x / _unit_divisor(r[p]) for x in r] for r, p in zip(out, pivots)]


def reduce_vector_dense(rows, v):
    for r in rows:
        p = next((j for j in range(len(r)) if r[j] != 0), None)
        if p is None or v[p] == 0:
            continue
        c, piv = v[p], r[p]
        v = [piv * v[j] - c * r[j] for j in range(len(v))]
    return v


def polynomial_map_exact(pmap, values, floors_at=None):
    """``pmap(values, floors_at)`` at an exact point, every term formed:
    acc = 0, then acc = acc + c * x_j1 * x_j2 * ... term by term."""
    values = list(values)
    out = []
    for i, poly in enumerate(pmap.exact):
        acc = 0
        for c, mono in poly:
            for j in mono:
                c = c * values[j]
            acc = acc + c
        if floors_at is not None:
            k = Fraction(math.floor(acc if not isinstance(acc, ExtScalar) else acc.as_rational()))
            values[floors_at + i], acc = k, acc - k
        out.append(acc)
    return out if floors_at is None else (out, values[floors_at:])


@dataclass
class FactorData:
    """Quotient of an affine nilsystem by a rational invariant ideal.

    ``proj_matrix`` acts on first-kind coordinates; ``nonpivot`` lists the
    parent coordinates that survive as quotient coordinates.
    """

    kernel: RationalIdeal
    quotient: st.AffineNilsystem
    proj_matrix: list
    nonpivot: list

    def project_log(self, w):
        return gp.PolynomialMap.linear(self.proj_matrix)(w)

    def project_point(self, x):
        """Second-kind coordinates downstairs of a point given upstairs."""
        w = gp.second_to_first(self.kernel.parent, x)
        return gp.first_to_second(self.quotient.algebra, self.project_log(w))

    def lift_vector(self, v):
        """Section of a quotient first-kind vector: insert zeros at kernel pivots."""
        out = [Fraction(0)] * self.kernel.parent.dim
        for q, i in enumerate(self.nonpivot):
            out[i] = v[q]
        return out


def quotient_system(sys, N):
    """Validated quotient system on G0/N with the induced automorphism and
    shift; N must be a rational ideal invariant under every generator."""
    alg = sys.algebra
    if N.parent is not alg:
        raise st.SystemValidationError("ideal belongs to a different algebra")
    st.check_factor_kernel(sys, N)
    pivots = N.pivot_columns()
    nonpivot = [j for j in range(alg.dim) if j not in pivots]
    mq = len(nonpivot)
    # reduce a first-kind vector by N's echelon basis, keep the nonpivots; N is
    # rational with unit pivots, so the reduction is linear and exact
    basis = alg.basis()
    reduced_basis = [linalg.reduce_vector(N.basis, e) for e in basis]
    proj_rows = [[Fraction(r[i]) for r in reduced_basis] for i in nonpivot]
    project_log = gp.PolynomialMap.linear(proj_rows)
    qalg = NilLieAlgebra.from_brackets(mq, {
        (a, b): dict(enumerate(project_log(alg.bracket(basis[i], basis[j]))))
        for (a, i), (b, j) in combinations(enumerate(nonpivot), 2)
    })

    def induced(A, g):
        """The map x -> g A(x) of the quotient: A on the surviving basis, g projected."""
        cols = [project_log(A.apply_vector(alg.basis_vector(i))) for i in nonpivot]
        qA = UnipotentAutomorphism(qalg, [[col[k] for col in cols] for k in range(mq)])
        return qA, gp.first_to_second(qalg, project_log(gp.second_to_first(alg, g)))

    qsys = st.AffineNilsystem(qalg, [induced(A, g) for A, g in sys.generators],
                              context=sys.context, name=sys.name + "/N" if sys.name else "",
                              default_assignment=sys.default_assignment)
    return FactorData(kernel=N, quotient=qsys, proj_matrix=proj_rows, nonpivot=nonpivot)


def discrete_factor(sys):
    """The discrete-spectrum factor: the quotient system by J."""
    return quotient_system(sys, sys.J)
