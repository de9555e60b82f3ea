import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as hst

from nillab import group as gp
from nillab import linalg
from nillab.algebra import (
    AlgebraValidationError,
    NilLieAlgebra,
    RationalIdeal,
    derived_subalgebra,
    full_algebra,
    lower_central_series,
    rational_hull,
    smallest_ideal_containing,
)
from nillab.scalars import SymbolContext

import oracles
from oracles import H3_UNITS, H4_UNITS, matrix_to_vec, mmul, vec_to_matrix
from test_group import adapted_algebras, small_fractions


def h3():
    return NilLieAlgebra(3, 2, {(0, 1): {2: Fraction(1)}})


def h4():
    return NilLieAlgebra(6, 3, {
        (0, 1): {3: Fraction(1)},
        (1, 2): {4: Fraction(1)},
        (0, 4): {5: Fraction(1)},
        (2, 3): {5: Fraction(-1)},
    })


def test_validation_rejects_non_adapted():
    with pytest.raises(AlgebraValidationError):
        NilLieAlgebra(3, 2, {(0, 1): {1: Fraction(1)}})


def test_validation_rejects_component_beyond_dimension():
    # [x1, x2] = x4 in a 3-dimensional algebra: no basis vector x4 exists
    with pytest.raises(AlgebraValidationError, match="beyond dimension 3"):
        NilLieAlgebra(3, 2, {(0, 1): {3: Fraction(1)}})


def test_validation_rejects_bad_jacobi():
    # [x1,x2]=x4 and [x3,x4]=x5 leave [[x1,x2],x3] unmatched in the Jacobi sum
    with pytest.raises(AlgebraValidationError):
        NilLieAlgebra(5, 3, {
            (0, 1): {3: Fraction(1)},
            (2, 3): {4: Fraction(1)},
        })


@pytest.mark.parametrize("brackets", [
    {(0, 1): {3: 1}, (2, 3): {4: 1}},  # only [[x1, x2], x3] is nonzero
    {(1, 2): {3: 1}, (0, 3): {4: 1}},  # only [[x2, x3], x1]
    {(0, 2): {3: 1}, (1, 3): {4: 1}},  # only [[x3, x1], x2]
])
def test_jacobi_check_reads_each_cyclic_term(brackets):
    assert oracles.jacobi_failure_dense(5, brackets) == (0, 1, 2)
    with pytest.raises(AlgebraValidationError, match=re.escape("basis triple (0, 1, 2)")):
        NilLieAlgebra.from_brackets(5, brackets)


def test_validation_rejects_wrong_step():
    with pytest.raises(AlgebraValidationError):
        NilLieAlgebra(3, 1, {(0, 1): {2: Fraction(1)}})


def test_from_brackets_infers_step():
    assert NilLieAlgebra.from_brackets(3, {(0, 1): {2: Fraction(1)}}).step == 2
    assert NilLieAlgebra.from_brackets(2, {}).step == 1
    assert NilLieAlgebra.from_brackets(0, {}).step == 0
    assert h4().step == 3


def test_bracket_matches_matrix_oracle_h3():
    alg = h3()
    pairs = [
        ([1, 2, 3], [4, 5, 6]),
        ([0, 1, 0], [1, 0, 0]),
        ([Fraction(1, 2), Fraction(-1, 3), 0], [2, 0, Fraction(5)]),
    ]
    for x, y in pairs:
        x = [Fraction(v) for v in x]
        y = [Fraction(v) for v in y]
        X = vec_to_matrix(H3_UNITS, 3, x)
        Y = vec_to_matrix(H3_UNITS, 3, y)
        comm = [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(mmul(X, Y), mmul(Y, X))]
        assert alg.bracket(x, y) == matrix_to_vec(H3_UNITS, comm)


def test_bracket_matches_matrix_oracle_h4():
    import random

    alg = h4()
    rng = random.Random(7)
    for _ in range(25):
        x = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(6)]
        y = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(6)]
        X = vec_to_matrix(H4_UNITS, 4, x)
        Y = vec_to_matrix(H4_UNITS, 4, y)
        comm = [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(mmul(X, Y), mmul(Y, X))]
        assert alg.bracket(x, y) == matrix_to_vec(H4_UNITS, comm)


def test_lower_central_series():
    series = lower_central_series(full_algebra(h4()))
    dims = [s.dim for s in series]
    assert dims == [6, 3, 1, 0]
    series3 = lower_central_series(full_algebra(h3()))
    assert [s.dim for s in series3] == [3, 1, 0]
    # an algebra stands for its full algebra, and its series is ideals too
    assert [s.dim for s in lower_central_series(h4())] == [6, 3, 1, 0]


def test_smallest_ideal_containing():
    alg = h3()
    ideal = smallest_ideal_containing(alg, [alg.basis_vector(0)])
    assert ideal.dim == 2  # xi1 and [xi1, xi2] = xi3
    assert ideal.is_ideal
    assert ideal.contains(alg.basis_vector(2))


def test_rational_ideal_flags():
    alg = h3()
    center = RationalIdeal(alg, [alg.basis_vector(2)])
    assert center.is_rational and center.is_ideal
    not_ideal = RationalIdeal(alg, [alg.basis_vector(0)])
    assert not not_ideal.is_ideal


def test_rational_hull_slices_symbolic_line():
    # span{(1, t)} in the abelian plane closes to the full plane
    ctx = SymbolContext(("t",))
    alg = NilLieAlgebra(2, 1, {})
    t = ctx.symbol("t")
    V = RationalIdeal(alg, [[ctx.constant(1), t]])
    hull = rational_hull(V)
    assert hull.dim == 2
    assert hull.is_rational


def test_rational_hull_idempotent_on_rational_ideal():
    alg = h3()
    V = RationalIdeal(alg, [alg.basis_vector(2)])
    assert rational_hull(V).equals(V)


def test_derived_subalgebra():
    alg = h4()
    d = derived_subalgebra(full_algebra(alg))
    assert d.dim == 3
    for i in (3, 4, 5):
        assert d.contains(alg.basis_vector(i))


def _bracket_levels(alg, rows, against, depth):
    """Echelon span of rows and their brackets with ``against``, ``depth``
    levels deep (with the span itself when ``against`` is None)."""
    span_rows = level = linalg.echelon(rows)
    for _ in range(depth):
        others = span_rows if against is None else against
        level = linalg.echelon([alg.bracket(v, e) for v in level for e in others])
        span_rows = linalg.echelon(span_rows + level)
    return span_rows


@settings(max_examples=30, deadline=None)
@given(hst.data())
def test_ideal_closures_on_random_adapted_algebras(data):
    alg = data.draw(adapted_algebras())
    vecs = data.draw(hst.lists(
        hst.lists(small_fractions, min_size=alg.dim, max_size=alg.dim), min_size=1, max_size=2))
    ideal = smallest_ideal_containing(alg, vecs)
    assert ideal.basis == _bracket_levels(alg, vecs, alg.basis(), alg.step)
    assert ideal.is_ideal and ideal.is_rational
    V = RationalIdeal(alg, vecs)
    brackets = [alg.bracket(a, b) for a in V.basis for b in V.basis]
    derived = derived_subalgebra(V)
    assert derived.basis == _bracket_levels(alg, brackets, None, alg.step)
    # a symbolic line v0 + t v1: its hull is the ideal of its two rational slices
    ctx = SymbolContext(("t",))
    t = ctx.symbol("t")
    sym = RationalIdeal(alg, [[ctx.constant(a) + t * b for a, b in zip(vecs[0], vecs[-1])]])
    hull = rational_hull(sym)
    assert hull.is_rational and hull.is_ideal
    assert hull.contains_ideal(sym)
    assert rational_hull(hull).basis == hull.basis
    assert hull.equals(smallest_ideal_containing(alg, [vecs[0], vecs[-1]]))


def _sparse_scalars(t):
    """Mostly zeros, else a rational or a polynomial in t."""
    zero = hst.just(Fraction(0))
    return hst.one_of(zero, zero, zero, small_fractions,
                      hst.builds(lambda a, b: a + b * t, small_fractions, small_fractions),
                      hst.builds(lambda a: a * t * t, small_fractions))


def _same(got, want):
    """Equal values of equal types, entry by entry, in nested lists."""
    assert got == want
    assert _types(got) == _types(want)


def _types(v):
    return [_types(x) for x in v] if isinstance(v, (list, tuple)) else type(v)


@settings(max_examples=40, deadline=None)
@given(hst.data())
def test_sparse_kernels_match_dense_oracles(data):
    alg = data.draw(adapted_algebras())
    m = alg.dim
    t = SymbolContext(("t",)).symbol("t")
    vectors = hst.lists(_sparse_scalars(t), min_size=m, max_size=m)
    x, y = data.draw(vectors), data.draw(vectors)
    _same(alg.bracket(x, y), oracles.bracket_dense(alg.brackets, x, y))
    rows = data.draw(hst.lists(vectors, min_size=1, max_size=4))
    basis = linalg.echelon(rows)
    _same(basis, oracles.echelon_dense(rows))
    _same(linalg.reduce_vector(basis, x), oracles.reduce_vector_dense(basis, x))
    # one more adapted structure constant: Jacobi fails exactly when the
    # dense sum does, and on the same first triple
    assert oracles.jacobi_failure_dense(m, alg.brackets) is None
    i, j, k = sorted(data.draw(hst.lists(hst.integers(0, m - 1), min_size=3, max_size=3,
                                         unique=True)))
    bent = {ij: dict(cs) for ij, cs in alg.brackets.items()}
    bent.setdefault((i, j), {})
    bent[i, j][k] = bent[i, j].get(k, 0) + data.draw(small_fractions.filter(bool))
    failure = oracles.jacobi_failure_dense(m, bent)
    if failure is None:
        NilLieAlgebra.from_brackets(m, bent)
    else:
        with pytest.raises(AlgebraValidationError, match=re.escape("triple %r" % (failure,))):
            NilLieAlgebra.from_brackets(m, bent)
    # Ad_g at a symbolic g is an automorphism; an elementary shear may not be
    A = gp.adjoint(alg, x)
    assert oracles.automorphism_failure_dense(alg.brackets, A.matrix) is None
    shear = [[Fraction(int(r == c)) for c in range(m)] for r in range(m)]
    shear[data.draw(hst.sampled_from([j, k]))][i] = data.draw(small_fractions.filter(bool))
    failure = oracles.automorphism_failure_dense(alg.brackets, shear)
    if failure is None:
        gp.UnipotentAutomorphism(alg, shear)
    else:
        with pytest.raises(gp.AutomorphismError, match=re.escape("pair %r" % (failure,))):
            gp.UnipotentAutomorphism(alg, shear)
    _same(gp._matmul(A.matrix, shear), oracles.matmul_dense(A.matrix, shear))
    # exact polynomial maps: a chart at the sparse point, lattice reduction
    # at a rational one with the integer zeros it is called with
    chart = gp.second_to_first.table(alg)
    _same(chart(x), oracles.polynomial_map_exact(chart, x))
    lattice = gp._times_lattice.table(alg)
    g = data.draw(hst.lists(hst.one_of(hst.just(Fraction(0)), small_fractions),
                            min_size=m, max_size=m)) + [0] * m
    _same(lattice(g, floors_at=m), oracles.polynomial_map_exact(lattice, g, floors_at=m))
