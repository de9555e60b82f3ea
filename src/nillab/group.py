"""Group layer: the group law in Mal'cev coordinates, lattice reduction, Haar
sampling, and unipotent automorphisms.

Group elements are coordinate vectors in the second-kind chart
psi(t) = exp(t_1 xi_1) ... exp(t_m xi_m); the lattice is psi(Z^m).  In these
coordinates the group law, both charts, lattice reduction and automorphisms
are polynomial maps (the Hall polynomials), each derived once from its exact
definition and evaluated by :class:`PolynomialMap` on exact coordinates
(Fractions, ExtScalars) or numeric ones (floats, or numpy arrays of shape (P,)
per coordinate, so every operation vectorizes over point batches).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, wraps

import numpy as np

from . import linalg
from .algebra import NilLieAlgebra, vec_is_zero, zero_vector
from .scalars import ExtScalar, SymbolContext, floor_scalar

MAX_BCH_STEP = 5


class UnsupportedStepError(ValueError):
    pass


class AutomorphismError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Dynkin series
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def dynkin_terms(step: int) -> tuple[tuple[Fraction, tuple[int, ...]], ...]:
    """Coefficient table of the BCH/Dynkin series truncated at word length ``step``.

    Each entry is (coefficient, word) with word a tuple over {0, 1} (0 = first
    argument, 1 = second); the word stands for its right-nested commutator
    [l_1, [l_2, [..., [l_{k-1}, l_k]]]].  Generated programmatically from
    Dynkin's explicit formula; words longer than ``step`` vanish in a
    ``step``-nilpotent algebra and are omitted.
    """
    if step > MAX_BCH_STEP:
        raise UnsupportedStepError(
            "BCH table is generated up to step %d; got step %d" % (MAX_BCH_STEP, step)
        )
    acc: dict[tuple[int, ...], Fraction] = {}

    def extend(seq: list[tuple[int, int]], used: int):
        n = len(seq)
        if n >= 1:
            total = sum(p + q for p, q in seq)
            coeff = Fraction((-1) ** (n - 1), n) * Fraction(1, total)
            for p, q in seq:
                coeff /= math.factorial(p) * math.factorial(q)
            word = tuple(
                letter for p, q in seq for letter in (0,) * p + (1,) * q
            )
            acc[word] = acc.get(word, Fraction(0)) + coeff
        if used >= step or len(seq) >= step:
            return
        for p in range(0, step - used + 1):
            for q in range(0, step - used - p + 1):
                if p + q == 0:
                    continue
                extend(seq + [(p, q)], used + p + q)

    extend([], 0)
    return tuple((c, w) for w, c in sorted(acc.items()) if c != 0)


def bch(alg: NilLieAlgebra, x: list, y: list) -> list:
    """log(exp(x) exp(y)) by the Dynkin series truncated at the algebra step (exact)."""
    m = alg.dim
    res = zero_vector(m)
    args = (x, y)
    for coeff, word in dynkin_terms(alg.step):
        v = args[word[-1]]
        for letter in reversed(word[:-1]):
            v = alg.bracket(args[letter], v)
            if vec_is_zero(v):
                break
        else:
            for k in range(m):
                if v[k]:
                    res[k] = res[k] + coeff * v[k]
    return res


def vec_neg(x: list) -> list:
    return [-a for a in x]


# ---------------------------------------------------------------------------
# Polynomial maps and the compiled group law
# ---------------------------------------------------------------------------

_EXACT_TYPES = (int, Fraction, ExtScalar)


def _exact_floor(t) -> tuple:
    k = Fraction(floor_scalar(t))
    return k, t - k


class PolynomialMap:
    """Polynomial map with exact coefficients, evaluated at exact or float points.

    ``polys`` lists, per output coordinate, its (coefficient, monomial) terms;
    a monomial is the tuple of its variable indices, each repeated by its
    exponent.  Evaluation is the one place that picks the arithmetic, floor
    included: a point of ints, Fractions and ExtScalars is evaluated exactly;
    a point with any float or numpy array entry is evaluated in floats,
    coefficients and exact entries alike, by a plan (:func:`_float_plan`)
    built on first use for each pattern of array and scalar entries.

    A float point mixes scalars with arrays of one shape, read as float64.
    No entry is written: every output array, and every floor array of a
    ``floors_at`` call, is a fresh array.
    """

    def __init__(self, polys):
        self.exact = tuple(tuple(poly) for poly in polys)
        self._plans: dict[tuple, object] = {}

    @classmethod
    def linear(cls, matrix: list[list]) -> "PolynomialMap":
        return cls(
            [(c, (j,)) for j, c in enumerate(row) if not linalg.is_zero_scalar(c)]
            for row in matrix
        )

    def __call__(self, values: list, floors_at: int | None = None):
        """The outputs at ``values``; with ``floors_at = j``, the pair (fractional
        parts, floors), each output's floor written to ``values[j + i]`` before
        output i + 1 is evaluated."""
        if all(isinstance(v, _EXACT_TYPES) for v in values):
            return self._exact(list(values), floors_at)
        values = [_float_entry(v) for v in values]
        key = (tuple(isinstance(v, np.ndarray) for v in values), floors_at)
        if key not in self._plans:
            self._plans[key] = _float_plan([(self.exact, floors_at, (None,) * len(values))],
                                           key[0])
        return self._plans[key](*values)

    def _exact(self, values: list, floors_at: int | None):
        """The plain loop, acc = 0 then acc = acc + c * x_j1 * x_j2 * ..., with
        each term that has a zero factor skipped.  A skipped term can only
        change the type of an int sum (to a Fraction), so it is added then."""
        out = []
        for i, poly in enumerate(self.exact):
            acc = 0
            for c0, mono in poly:
                c = c0
                for j in mono:
                    x = values[j]
                    if not x:
                        if acc.__class__ is int:
                            acc = acc + _term(c0, mono, values)
                        break
                    c = c * x
                else:
                    acc = acc + c
            if floors_at is not None:
                values[floors_at + i], acc = _exact_floor(acc)
            out.append(acc)
        return out if floors_at is None else (out, values[floors_at:])


def _term(c, mono: tuple, values: list):
    for j in mono:
        c = c * values[j]
    return c


def _float_entry(v):
    """A float point's entry: an array as float64, else a scalar."""
    if isinstance(v, np.ndarray):
        return v.astype(np.float64, copy=False) if v.ndim else v[()]
    return float(v) if isinstance(v, _EXACT_TYPES) else v


def _float_plan(stages, arrays: tuple, floors_out: bool = True):
    """The float evaluation of a chain of polynomial maps at entries x0, x1,
    ..., those where ``arrays`` is true being arrays, compiled once into one
    Python function that returns what the last map returns, less its floors
    when ``floors_out`` is false.

    Each stage is (polys, floors_at, known): ``known[j]`` is the float value
    of the stage's entry j when it is known as the plan is built, else None.
    The unknown entries are the plan's arguments in order for the first
    stage, and the previous stage's outputs in order for each later one.

    Each stage keeps the arithmetic of the plain loop, in its order: per
    output, acc = 0, then acc = acc + c * x_j1 * x_j2 * ... term by term, each
    product taken left to right.  Scalar factors before a monomial's first
    array factor are multiplied into the coefficient as scalars, the leading
    known ones when the plan is built; from there on the work is in place.
    An output's first array term becomes the output array, to which the
    running scalar is added (so 0 + -0.0 is 0.0, as in the loop); each later
    array term is multiplied into one scratch buffer and added in place.  A
    coefficient of exactly 1.0 or -1.0 that meets an array factor first is
    not multiplied: the rest of the product is added or subtracted, which is
    exact.  With ``floors_at``, an array output is split in place into its
    fractional part and a fresh floor array, the fractional part set to 0.0
    where t - floor(t) rounds up to 1.0; a scalar output is split as in the
    loop.  No entry is written.

    Two shortcuts keep the plan's outputs bit for bit at finite entries.  A
    term with a known factor of +-0.0 is skipped, as the exact loop skips a
    term with a zero factor (an output whose array terms all have one keeps
    the first, so it stays an array): the term is +-0.0, and adding +-0.0
    changes no sum started from the int 0, as such a sum is never -0.0.  At
    a non-finite entry the term would have been NaN.  And in a loose stage,
    one whose outputs only sums read, an output is not started from 0: a lone
    entry is passed on as it is, and an entry followed by another term is
    added to that term out of place (or, with floors, split out of place).
    Every stage but the last is loose, and so is the last when its floors
    are not returned.  A loose output, and so a later stage's, can differ
    only in the sign of a zero, which changes only terms that are +-0.0: the
    last stage's sums, started from 0, absorb those, and its fractional
    parts t - floor(t) are +0.0 at either zero.
    """
    entries = [("x%d" % j, a) for j, a in enumerate(arrays)]  # (source text, is array)
    args = ", ".join(text for text, _ in entries)
    first_array = next((text for text, a in entries if a), None)
    lines, scratch = [], False
    for n, (polys, floors_at, known) in enumerate(stages):
        loose = n < len(stages) - 1 or floors_at is not None and not floors_out
        read = iter(entries)
        entries = [next(read) if k is None else (repr(k), False) for k in known]
        known = list(known)
        outs = []
        for i, poly in enumerate(polys):
            terms = []  # (coefficient, unfolded factors, is zero, has an array factor)
            for c, mono in poly:
                c, lead = float(c), 0
                while lead < len(mono) and known[mono[lead]] is not None:
                    c, lead = c * known[mono[lead]], lead + 1
                mono = mono[lead:]
                terms.append((c, mono, c == 0.0 or any(known[j] == 0.0 for j in mono),
                              any(entries[j][1] for j in mono)))
            spare = not any(arr and not zero for _, _, zero, arr in terms)
            o, start, s, skipped = "o%d_%d" % (n, i), None, "0", False
            # the sum so far: "s", the scalar s (the int 0 until a scalar term
            # is added); "start", the entry start; "o", the array o
            state = "s"
            for c, mono, zero, arr in terms:
                if zero and not (arr and spare):
                    skipped = True
                    continue
                spare = spare and not arr
                k = next((p for p, j in enumerate(mono) if entries[j][1]), len(mono))
                scalar = "(%s)" % " * ".join([repr(c)] + [entries[j][0] for j in mono[:k]])
                op = "np.add"
                if k == len(mono):
                    value = scalar
                else:
                    unit = c in (1.0, -1.0) and k == 0
                    factors = ([] if unit else [scalar]) + [entries[j][0] for j in mono[k:]]
                    if unit and c < 0:
                        op = "np.subtract"
                    value = factors[0]
                    if len(factors) > 1:
                        # the product into the output (its first array term) or the scratch
                        value = "b" if state == "o" else o
                        scratch |= value == "b"
                        lines.append("%s = np.multiply(%s, %s%s)" % (
                            value, factors[0], factors[1], ", out=b" if value == "b" else ""))
                        lines += ["np.multiply(%s, %s, out=%s)" % (value, f, value)
                                  for f in factors[2:]]
                if state == "o":
                    lines.append("%s(%s, %s, out=%s)" % (op, o, value, o))
                elif state == "start":
                    lines.append("%s = %s(%s, %s%s)" % (
                        o, op, start, value, ", out=%s" % o if value == o else ""))
                    state = "o"
                elif not arr:
                    lines.append("s = %s + %s" % (s, value))
                    s = "s"
                elif loose and s == "0" and op == "np.add":
                    if value != o:
                        state, start = "start", value
                        continue
                    state = "o"
                else:
                    lines.append("%s = %s(%s, %s%s)" % (
                        o, op, s, value, ", out=%s" % o if value == o else ""))
                    state = "o"
            if state == "s":  # a skipped term would have made an int 0 a float
                lines.append("%s = %s" % (o, "0.0" if skipped and s == "0" else s))
            if floors_at is not None:
                f = "f%d_%d" % (n, i)
                lines.append("%s = np.floor(%s)" % (f, start if state == "start" else o))
                if state == "s":
                    lines += ["%s = %s - %s" % (o, o, f), "%s = %s - (%s >= 1.0)" % (o, o, o)]
                else:
                    lines += ["np.subtract(%s, %s, out=%s)" % (o, f, o) if state == "o"
                              else "%s = np.subtract(%s, %s)" % (o, start, f),
                              "%s[%s >= 1.0] = 0.0" % (o, o)]
                    state = "o"
                entries[floors_at + i], known[floors_at + i] = (f, state != "s"), None
            outs.append((start if state == "start" else o, state != "s"))
        result = "[%s]" % ", ".join(text for text, _ in outs)
        if floors_at is not None and floors_out:
            result += ", [%s]" % ", ".join(text for text, _ in entries[floors_at:])
        entries = outs
    if scratch:
        lines.insert(0, "b = np.empty_like(%s)" % first_array)
    source = "def plan(%s):\n    %s\n    return %s\n" % (args, "\n    ".join(lines), result)
    namespace = {"np": np}
    exec(source, namespace)
    return namespace["plan"]


_TABLES: dict[tuple, PolynomialMap] = {}


def _table(key: tuple, fn, nvars: int) -> PolynomialMap:
    """``fn`` as a polynomial map, derived once per ``key`` by running it
    exactly on coordinate symbols x_0..x_{nvars-1}."""
    if key not in _TABLES:
        ctx = SymbolContext("x%d" % i for i in range(nvars))
        _TABLES[key] = PolynomialMap(
            [(c, tuple(i for i, e in enumerate(expo) for _ in range(e)))
             for expo, c in sorted(ExtScalar.lift(p, ctx).terms.items())]
            for p in fn(list(ctx.symbols())))
    return _TABLES[key]


def _compiled(law):
    """Evaluate the group-law function ``law(alg, *coords)`` through its Hall
    polynomials, derived by running ``law`` itself on coordinate symbols and
    reachable as ``table(alg)``; ``__wrapped__`` is ``law`` unchanged.  Tables
    are keyed by structure constants, not by algebra object: catalog
    constructions build equal algebras afresh on every call.
    """
    nargs = law.__code__.co_argcount - 1

    def table(alg: NilLieAlgebra) -> PolynomialMap:
        m = alg.dim
        return _table((law.__name__, alg.key), lambda x: law(
            alg, *(x[a * m:(a + 1) * m] for a in range(nargs))), nargs * m)

    @wraps(law)
    def compiled(alg: NilLieAlgebra, *coords: list) -> list:
        return table(alg)([t for c in coords for t in c])

    compiled.table = table
    return compiled


# ---------------------------------------------------------------------------
# Coordinate charts and the group law, defined by BCH
# ---------------------------------------------------------------------------


def _coord_vector(m: int, i: int, t) -> list:
    v = zero_vector(m)
    v[i] = t
    return v


@_compiled
def second_to_first(alg: NilLieAlgebra, coords: list) -> list:
    """Single-exponential (first-kind) coordinates of psi(coords)."""
    m = alg.dim
    w = zero_vector(m)
    for i in range(m - 1, -1, -1):
        w = bch(alg, _coord_vector(m, i, coords[i]), w)
    return w


@_compiled
def first_to_second(alg: NilLieAlgebra, w: list) -> list:
    """Peel second-kind coordinates off a first-kind (log) vector."""
    m = alg.dim
    coords = []
    cur = w
    for i in range(m):
        t = cur[i]
        coords.append(t)
        cur = bch(alg, _coord_vector(m, i, -t), cur)
    return coords


def identity_element(alg: NilLieAlgebra) -> list:
    return zero_vector(alg.dim)


@_compiled
def multiply(alg: NilLieAlgebra, g: list, h: list) -> list:
    return first_to_second(alg, bch(alg, second_to_first(alg, g), second_to_first(alg, h)))


#: multiply's table for the step plans, bound once, so that rebinding the
#: module's name ``multiply`` (as perfbench's tracer does) leaves them intact
_multiply_table = multiply.table


@_compiled
def inverse(alg: NilLieAlgebra, g: list) -> list:
    return first_to_second(alg, vec_neg(second_to_first(alg, g)))


def commutator(alg: NilLieAlgebra, g: list, h: list) -> list:
    gh = multiply(alg, g, h)
    return multiply(alg, gh, multiply(alg, inverse(alg, g), inverse(alg, h)))


# ---------------------------------------------------------------------------
# Lattice reduction
# ---------------------------------------------------------------------------


@_compiled
def _times_lattice(alg: NilLieAlgebra, g: list, k: list) -> list:
    """g * psi(-k_1 e_1) ... psi(-k_m e_m)."""
    for i, t in enumerate(k):
        g = multiply(alg, g, _coord_vector(alg.dim, i, -t))
    return g


def reduce_mod_lattice(alg: NilLieAlgebra, g: list) -> tuple[list, list]:
    """Fundamental-domain representative and lattice part.

    Returns (rep, lat) with rep = g * gamma, all rep coordinates in [0, 1),
    and gamma = product of psi(-lat_i e_i) in ascending coordinate order.
    Each tail of an adapted basis spans an ideal, so rep_i depends only on
    lat_1..lat_i, and on lat_i only through the term -lat_i.
    """
    return _times_lattice.table(alg)(list(g) + [0] * alg.dim, floors_at=alg.dim)


# ---------------------------------------------------------------------------
# Haar sampling
# ---------------------------------------------------------------------------


class SobolRangeError(ValueError):
    pass


SOBOL_BITS = 30

#: (primitive polynomial, initial direction numbers) of the first 32 Sobol
#: dimensions, from the Joe & Kuo (2008) table "new-joe-kuo-6.21201".  The
#: polynomial's bits are x^deg ... x^0 with both ends set; dimension 1 (degree
#: 0) is the van der Corput sequence.
_SOBOL_TABLE = (
    (1, ()), (3, (1,)), (7, (1, 3)), (11, (1, 3, 1)), (13, (1, 1, 1)),
    (19, (1, 1, 3, 3)), (25, (1, 3, 5, 13)), (37, (1, 1, 5, 5, 17)),
    (41, (1, 1, 5, 5, 5)), (47, (1, 1, 7, 11, 19)), (55, (1, 1, 5, 1, 1)),
    (59, (1, 1, 1, 3, 11)), (61, (1, 3, 5, 5, 31)), (67, (1, 3, 3, 9, 7, 49)),
    (91, (1, 1, 1, 15, 21, 21)), (97, (1, 3, 1, 13, 27, 49)),
    (103, (1, 1, 1, 15, 7, 5)), (109, (1, 3, 1, 15, 13, 25)),
    (115, (1, 1, 5, 5, 19, 61)), (131, (1, 3, 7, 11, 23, 15, 103)),
    (137, (1, 3, 7, 13, 13, 15, 69)), (143, (1, 1, 3, 13, 7, 35, 63)),
    (145, (1, 3, 5, 9, 1, 25, 53)), (157, (1, 3, 1, 13, 9, 35, 107)),
    (167, (1, 3, 1, 5, 27, 61, 31)), (171, (1, 1, 5, 11, 19, 41, 61)),
    (185, (1, 3, 5, 3, 3, 13, 69)), (191, (1, 1, 7, 13, 1, 19, 1)),
    (193, (1, 3, 7, 5, 13, 19, 59)), (203, (1, 1, 3, 9, 25, 29, 41)),
    (211, (1, 3, 5, 13, 23, 1, 55)), (213, (1, 3, 7, 3, 13, 59, 17)),
)
#: bit position of digit k (most significant first) in a direction number
_DIGIT_SHIFTS = np.arange(SOBOL_BITS - 1, -1, -1, dtype=np.uint32)


@lru_cache(maxsize=None)
def _sobol_directions(m: int) -> np.ndarray:
    """Unscrambled direction numbers of dimensions 1..m, shape (m, SOBOL_BITS),
    each in the top bits of a uint32: v_i = v_{i-d} ^ (v_{i-d} >> d) ^
    sum_{0<k<d} a_k v_{i-k} for a degree-d polynomial with inner bits a_k."""
    rows = []
    for poly, vinit in _SOBOL_TABLE[:m]:
        deg = poly.bit_length() - 1
        if deg == 0:
            rows.append([1 << s for s in _DIGIT_SHIFTS.tolist()])
            continue
        v = [x << (SOBOL_BITS - 1 - i) for i, x in enumerate(vinit)]
        for i in range(deg, SOBOL_BITS):
            x = v[i - deg] ^ (v[i - deg] >> deg)
            for k in range(1, deg):
                if poly >> (deg - k) & 1:
                    x ^= v[i - k]
            v.append(x)
        rows.append(v)
    table = np.array(rows, dtype=np.uint32).reshape(m, SOBOL_BITS)
    table.flags.writeable = False
    return table


def haar_sample(m: int, count: int, seed: int | None) -> np.ndarray:
    """Deterministic low-discrepancy points in [0, 1)^m, shape (count, m).

    The first ``count`` points of the 30-bit Sobol sequence with the Joe–Kuo
    (2008) direction numbers.  An integer ``seed`` applies LMS + digital-shift
    scrambling drawn from ``np.random.default_rng(seed)``; ``seed=None`` gives
    the unscrambled sequence.  The points are bit-equal to SciPy's
    ``qmc.Sobol(d=m, scramble=seed is not None, seed=seed)``.  Haar measure on
    the nilmanifold is Lebesgue measure in the second-kind coordinate cube.
    """
    return next(haar_chunks(m, count, seed, 1 << max(count - 1, 0).bit_length())).T


def haar_chunks(m: int, count: int, seed: int | None, size: int):
    """The points of :func:`haar_sample`, transposed, in blocks of ``size``
    columns (a power of two), each drawn when it is reached; the arguments
    are checked at the call.

    Only the first block is built, by Gray-code doubling.  For j < size the
    Gray code of lo + j is that of lo xor that of j, so block lo..lo+size-1
    is the first block xor the direction numbers v_k over the bits k of
    lo ^ (lo >> 1).
    """
    if size < 1 or size & (size - 1):
        raise ValueError("chunk size must be a power of two, got %d" % size)
    if count < 1:
        raise ValueError("count must be >= 1")
    if count > 1 << SOBOL_BITS:
        raise SobolRangeError("at most 2^%d Sobol points, got %d" % (SOBOL_BITS, count))
    if not 0 <= m <= len(_SOBOL_TABLE):
        raise SobolRangeError(
            "Sobol dimension must be in 0..%d, got %d" % (len(_SOBOL_TABLE), m))
    return _haar_blocks(m, count, seed, size)


def _haar_blocks(m: int, count: int, seed: int | None, size: int):
    """The blocks of :func:`haar_chunks`, whose arguments are already checked."""
    v = _sobol_directions(m)
    shift = np.zeros(m, dtype=np.uint32)
    if seed is not None:
        rng = np.random.default_rng(seed)
        # digital shift: m x SOBOL_BITS bits, least significant first
        shift = rng.integers(2, size=(m, SOBOL_BITS), dtype=np.uint32) @ (
            np.uint32(1) << _DIGIT_SHIFTS[::-1])
        # lower-triangular bit matrices, unit diagonal: digit p of each
        # scrambled direction number is the parity of ltm[p, :p+1] . digits
        ltm = np.tril(rng.integers(2, size=(m, SOBOL_BITS, SOBOL_BITS), dtype=np.uint32))
        ltm[:, range(SOBOL_BITS), range(SOBOL_BITS)] = 1
        digits = (v[:, :, None] >> _DIGIT_SHIFTS) & 1
        scrambled = (digits @ ltm.transpose(0, 2, 1)) & 1
        v = (scrambled << _DIGIT_SHIFTS).sum(axis=2, dtype=np.uint32)
    # Gray-code order by doubling: point 2^k + j is point 2^k - 1 - j xor v_k
    first = min(size, count)
    q = np.empty((m, first), dtype=np.uint32)
    q[:, 0] = shift
    for k in range((first - 1).bit_length()):
        lo = 1 << k
        n = min(lo, first - lo)
        np.bitwise_xor(q[:, lo - n:lo][:, ::-1], v[:, k:k + 1], out=q[:, lo:lo + n])
    for lo in range(0, count, size):
        gray = lo ^ (lo >> 1)
        key = np.bitwise_xor.reduce(v[:, [k for k in range(SOBOL_BITS) if gray >> k & 1]], axis=1)
        block = q[:, :count - lo] ^ key[:, None] if lo else q
        yield np.multiply(block, 2.0 ** -SOBOL_BITS, dtype=np.float64)


# ---------------------------------------------------------------------------
# Unipotent automorphisms
# ---------------------------------------------------------------------------


class UnipotentAutomorphism:
    """m x m matrix acting on first-kind (Lie algebra) coordinates.

    Validated at construction: (M - I) must be strictly index-raising in the
    adapted basis and M must respect the bracket exactly.
    """

    def __init__(self, alg: NilLieAlgebra, matrix: list[list]):
        self.alg = alg
        m = alg.dim
        if len(matrix) != m or any(len(r) != m for r in matrix):
            raise AutomorphismError("matrix must be %d x %d" % (m, m))
        self.matrix = [list(row) for row in matrix]
        self._map = PolynomialMap.linear(self.matrix)
        self.key = repr(self.matrix)  # with the algebra's key, names the map
        for k in range(m):
            for i in range(k, m):
                if (self.matrix[k][i] != 1) if k == i else self.matrix[k][i]:
                    raise AutomorphismError(
                        "not unipotent in the adapted ordering: entry (%d, %d)" % (k, i)
                    )
        # M [xi_i, xi_j] = sum_k c_ij^k M xi_k must equal [M xi_i, M xi_j],
        # with M xi_i the i-th column
        cols = [list(col) for col in zip(*self.matrix)]
        for i in range(m):
            for j in range(i + 1, m):
                lhs = zero_vector(m)
                for k, c in alg.brackets.get((i, j), {}).items():
                    for r, a in enumerate(cols[k]):
                        if a:
                            lhs[r] = lhs[r] + c * a
                if lhs != alg.bracket(cols[i], cols[j]):
                    raise AutomorphismError(
                        "matrix is not a Lie algebra automorphism on pair (%d, %d)" % (i, j)
                    )

    @property
    def is_rational(self) -> bool:
        return not any(isinstance(x, ExtScalar) for row in self.matrix for x in row)

    @property
    def is_identity(self) -> bool:
        return all(x == int(i == j) for i, row in enumerate(self.matrix) for j, x in enumerate(row))

    def apply_vector(self, w: list) -> list:
        """Apply to a first-kind coordinate vector."""
        return self._map(w)

    def compose(self, other: "UnipotentAutomorphism") -> "UnipotentAutomorphism":
        return UnipotentAutomorphism(self.alg, _matmul(self.matrix, other.matrix))

    def preserves_lattice(self) -> bool:
        """Whether the induced group map sends psi(Z^m) into psi(Z^m)."""
        return self.is_rational and all(
            t.denominator == 1
            for e in self.alg.basis() for t in apply_automorphism(self.alg, self, e))


def _matmul(a: list[list], b: list[list]) -> list[list]:
    """a b, each entry a sum from Fraction(0) over the nonzero products only."""
    m = len(a)
    return [
        [sum((x * b[k][j] for k, x in enumerate(row) if x and b[k][j]), start=Fraction(0))
         for j in range(m)]
        for row in a
    ]


def _automorphism_table(alg: NilLieAlgebra, A: UnipotentAutomorphism) -> PolynomialMap:
    return _table(("automorphism", alg.key, A.key),
                  lambda x: first_to_second(alg, A.apply_vector(second_to_first(alg, x))),
                  alg.dim)


def apply_automorphism(alg: NilLieAlgebra, A: UnipotentAutomorphism, g: list) -> list:
    """first_to_second o A o second_to_first as one table per structure
    constants and rational matrix (the identity table for A = I)."""
    return _automorphism_table(alg, A)(g)


def adjoint(alg: NilLieAlgebra, g: list) -> UnipotentAutomorphism:
    """Matrix of Ad_g = d/dx (g x g^-1) in the adapted basis, computed exactly
    as exp(ad w) with w = log g: the series sum_k ad_w^k / k!, finite because
    ad_w^step = 0."""
    w = second_to_first(alg, g)
    cols = terms = alg.basis()  # terms: ad_w^k e / k! for each basis vector e
    for k in range(1, alg.step):
        terms = [[Fraction(1, k) * t if t else t for t in alg.bracket(w, v)] for v in terms]
        cols = [[a + b if b else a for a, b in zip(c, v)] for c, v in zip(cols, terms)]
    return UnipotentAutomorphism(alg, [list(row) for row in zip(*cols)])


def identity_automorphism(alg: NilLieAlgebra) -> UnipotentAutomorphism:
    return UnipotentAutomorphism(
        alg, [[Fraction(1) if i == j else Fraction(0) for j in range(alg.dim)] for i in range(alg.dim)]
    )


# ---------------------------------------------------------------------------
# Float orbit steps
# ---------------------------------------------------------------------------

_STEP_PLANS: dict[tuple, object] = {}


def affine_step(alg: NilLieAlgebra, A: UnipotentAutomorphism | None, g: list):
    """The float step x -> g * A(x) reduced mod the lattice, A None for the
    identity and g a list of floats, as a function of a float point that
    returns the reduced point.  At finite points it is bit for bit
    ``reduce_mod_lattice(alg, multiply(alg, g, apply_automorphism(alg, A, x)))[0]``.

    The three tables run as one plan (:func:`_float_plan`) with g and the
    lattice table's zero starts known, so a zero coordinate of g, and the
    whole translation when g is the identity, costs nothing.  The plan is
    compiled on the first call for each pattern of array and scalar entries
    and kept under (alg.key, A.key, g's bit patterns, that pattern), shared by
    every system with an equal generator; building the function compiles
    nothing.
    """
    m = alg.dim
    g = [float(t) for t in g]
    head = (alg.key, None if A is None else A.key, np.array(g, dtype=np.float64).tobytes())

    def step(values: list) -> list:
        values = [_float_entry(v) for v in values]
        key = head + (tuple(isinstance(v, np.ndarray) for v in values),)
        plan = _STEP_PLANS.get(key)
        if plan is None:
            stages = [] if A is None else [(_automorphism_table(alg, A).exact, None, (None,) * m)]
            stages += [(_multiply_table(alg).exact, None, tuple(g) + (None,) * m),
                       (_times_lattice.table(alg).exact, m, (None,) * m + (0.0,) * m)]
            plan = _STEP_PLANS[key] = _float_plan(stages, key[-1], floors_out=False)
        return plan(*values)

    return step
