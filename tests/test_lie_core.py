import pytest
from hypothesis import given, settings, strategies as st

import dense_oracle
from codimlab.exponent import compute_d
from codimlab.fixtures import (
    Workbench,
    abelian,
    gl2,
    heisenberg,
    metabelian,
    metabelian_diag,
    sl2,
    sl2_sl2,
)
from codimlab.lie_core import LieAlgebra
from codimlab.linalg import MatrixExact
from codimlab.scalar import FieldSpec, RATIONALS
from codimlab.symmetry import FiniteGroup
from helpers import all_fixtures, change_of_basis


def test_all_builtin_tables_satisfy_jacobi():
    for alg in (sl2(), gl2(), heisenberg(), metabelian(3),
                metabelian_diag(3), sl2_sl2(), abelian(4)):
        report = alg.validate()
        assert report.ok, report.failures


def test_validate_catches_broken_jacobi():
    f = RATIONALS
    bad = LieAlgebra(f, ("x", "y", "w"), {
        (0, 1): {0: f.one()},
        (0, 2): {1: f.one()},
    })
    report = bad.validate()
    assert not report.ok
    assert any("Jacobi" in msg for msg in report.failures)


def test_bracket_antisymmetry_structural():
    alg = sl2()
    e, h = alg.basis_vector(0), alg.basis_vector(1)
    assert alg.bracket(e, h) == tuple(-x for x in alg.bracket(h, e))
    assert not any(alg.bracket(e, e))


def test_sl2_killing_form_matrix():
    # in the basis e, h, f: kappa(e,f) = 4, kappa(h,h) = 8, rest zero
    k = sl2().killing_form()
    f = RATIONALS
    expect = MatrixExact(f, [
        [f.from_rational(x) for x in row]
        for row in ((0, 0, 4), (0, 8, 0), (4, 0, 0))])
    assert k == expect
    assert k.rank() == 3


def test_killing_degenerate_on_gl2():
    k = gl2().killing_form()
    assert k.rank() == 3
    # the radical of kappa is the scalar matrices
    rad = k.kernel()
    assert rad.dim == 1
    f = RATIONALS
    scalars = [f.one(), f.zero(), f.zero(), f.one()]
    assert rad.contains_vector(scalars)


def test_solvable_radicals():
    assert sl2().solvable_radical().dim == 0
    assert sl2_sl2().solvable_radical().dim == 0
    g = gl2()
    rad = g.solvable_radical()
    assert rad.dim == 1
    f = RATIONALS
    assert rad.contains_vector([f.one(), f.zero(), f.zero(), f.one()])
    m = metabelian(2)
    assert m.solvable_radical() == m.full_space()


def test_annihilator_on_metabelian():
    m = metabelian(2)
    b_span = m.span([m.basis_vector(2), m.basis_vector(3)])
    ann = m.annihilator(b_span, m.zero_space())
    # only the b's kill every b
    assert ann == b_span
    # relative version: [x, b-span] inside b-span is everything
    assert m.annihilator(b_span, b_span) == m.full_space()


def test_annihilator_sl2_faithful():
    s = sl2()
    assert s.annihilator(s.full_space(), s.zero_space()).dim == 0


def test_is_ideal():
    m = metabelian(2)
    b_span = m.span([m.basis_vector(2), m.basis_vector(3)])
    a_span = m.span([m.basis_vector(0), m.basis_vector(1)])
    assert m.is_ideal(b_span)
    assert not m.is_ideal(a_span)


def test_ad_nilpotency_probe():
    # the oracle that checks structure's derived nilradical
    m = metabelian(2)
    assert dense_oracle.ad_is_nilpotent(m, m.basis_vector(2))
    assert not dense_oracle.ad_is_nilpotent(m, m.basis_vector(0))
    s = sl2()
    assert dense_oracle.ad_is_nilpotent(s, s.basis_vector(0))
    assert not dense_oracle.ad_is_nilpotent(s, s.basis_vector(1))


def test_fourier_basis_change_reproduces_diag_table():
    # c_j = sum_k zeta^(-jk) a_(k+1), d_j likewise, turns the pairwise
    # table into [c_i, d_j] = d_(i+j)
    field = FieldSpec(3)
    m = metabelian(3, field)
    zeta = field.root_of_unity()
    rows = []
    for j in range(3):
        rows.append(tuple(zeta ** ((-j * k) % 3) for k in range(3))
                    + (field.zero(),) * 3)
    for j in range(3):
        rows.append((field.zero(),) * 3
                    + tuple(zeta ** ((-j * k) % 3) for k in range(3)))
    names = tuple(f"c{j}" for j in range(3)) + tuple(
        f"d{j}" for j in range(3))
    changed = change_of_basis(m, rows, names)
    expect = metabelian_diag(3, field)
    assert changed.table == expect.table


def test_change_of_basis_rejects_a_basis_that_does_not_span():
    # the tests' rebasing helper
    field = RATIONALS
    z, o = field.zero(), field.one()
    for alg in (sl2(), abelian(3)):
        with pytest.raises(ValueError, match="new basis does not span"):
            change_of_basis(alg, [(o, z, z), (z, o, z), (o, o, z)],
                            ("u", "v", "w"))


def test_direct_sum_blocks_commute():
    s = sl2_sl2()
    left = s.basis_vector(0)
    right = s.basis_vector(4)
    assert not any(s.bracket(left, right))
    report = s.validate()
    assert report.ok


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=6, max_size=6),
       st.lists(st.integers(-3, 3), min_size=6, max_size=6))
def test_bracket_bilinear_on_sl2sl2(u, v):
    s = sl2_sl2()
    f = RATIONALS
    uu = tuple(f.from_rational(x) for x in u)
    vv = tuple(f.from_rational(x) for x in v)
    two = f.from_rational(2)
    scaled = tuple(two * x for x in uu)
    assert s.bracket(scaled, vv) == tuple(
        two * x for x in s.bracket(uu, vv))
    assert s.bracket(uu, vv) == tuple(-x for x in s.bracket(vv, uu))


def test_ad_matrix_matches_bracket():
    g = gl2()
    for i in range(4):
        m = g.ad_basis(i)
        for j in range(4):
            assert m.apply(g.basis_vector(j)) == g.bracket(
                g.basis_vector(i), g.basis_vector(j))


# -- the integer table against the Scalar oracle ----------------------


def _sl2_over_zeta3(scales):
    """sl2 over Q(zeta_3) in the basis zeta^a e, zeta^b h, zeta^c f
    for scales (a, b, c)."""
    field = FieldSpec(3)
    base = sl2(field)
    zero = field.zero()
    rows = [tuple(field.root_of_unity(a) if k == i else zero
                  for k in range(3)) for i, a in enumerate(scales)]
    return change_of_basis(base, rows, ("E", "H", "F"))


def _irrational(alg):
    return any(c.as_rational() is None
               for comp in alg.table.values() for c in comp.values())


def _oracle_algebras():
    """The bundled fixture algebras and sl2 over Q(zeta_3) in the basis
    zeta e, h, f, where [zeta e, f] = zeta h: the only algebra here
    with constants outside Q, so the only one whose integer table is
    built at the field degree from its own constants.  (In the basis
    zeta e, h, zeta^-1 f the constants stay rational.)"""
    algebras = [(b.name, b.algebra) for b in all_fixtures()]
    algebras.append(("sl2_zeta3", _sl2_over_zeta3((1, 0, 0))))
    return algebras


def _samples(alg):
    """Subspaces of L over its field: 0, L, lines and planes through
    basis vectors, one with an irrational vector where the field has
    one, and [L, L]."""
    field, n = alg.field, alg.dim
    c = field.root_of_unity() if field.degree > 1 else \
        field.from_rational(2)
    e = alg.basis_vector
    mixed = tuple(a + c * b for a, b in zip(e(0), e(n - 1)))
    spans = [alg.zero_space(), alg.full_space(), alg.span([e(0)]),
             alg.span([e(n - 1)]), alg.span([mixed]),
             alg.span([e(k) for k in range(n // 2)]),
             alg.span([mixed, e(n // 2)])]
    spans.append(alg.bracket_subspaces(alg.full_space(),
                                       alg.full_space()))
    return spans


def _pair(sub):
    return sub.basis, sub.pivots


def test_zeta3_sl2_has_irrational_constants():
    assert _irrational(_sl2_over_zeta3((1, 0, 0)))
    assert not _irrational(_sl2_over_zeta3((1, 0, 2)))


def _sparse(vec):
    return {k: c for k, c in enumerate(vec) if c}


def test_bracket_and_ad_match_oracle():
    """bracket, bracket_sparse, ad and ad-nilpotency on the oracle
    algebras: the 10 fixtures and sl2 in the basis zeta e, h, f."""
    for name, alg in _oracle_algebras():
        vectors = [alg.basis_vector(k) for k in range(alg.dim)]
        vectors += [v for sub in _samples(alg)[4:] for v in sub.basis]
        for u in vectors:
            for v in vectors:
                want = dense_oracle.bracket(alg, u, v)
                assert alg.bracket(u, v) == want, name
                assert alg.bracket_sparse(_sparse(u), _sparse(v)) == \
                    _sparse(want), name
        for i in range(alg.dim):
            ad = alg.ad_basis(i)
            assert ad.data == dense_oracle.ad_basis(alg, i), name
            assert ad == MatrixExact(alg.field, ad.data)
            for v in vectors:
                assert ad.apply(v) == dense_oracle.bracket(
                    alg, alg.basis_vector(i), v), name


def test_killing_radical_and_jacobi_match_oracle():
    for name, alg in _oracle_algebras():
        assert alg.killing_form().data == dense_oracle.killing_form(alg)
        assert _pair(alg.solvable_radical()) == \
            dense_oracle.solvable_radical(alg), name
        assert alg.validate().ok and not dense_oracle.jacobi_failures(alg)


def test_jacobi_failures_match_oracle():
    zeta3 = FieldSpec(3)
    for f, c in ((RATIONALS, RATIONALS.from_rational(3)),
                 (zeta3, zeta3.root_of_unity())):
        bad = LieAlgebra(f, ("w", "x", "y", "u"), {
            (0, 1): {0: c}, (0, 2): {1: f.one()}, (1, 3): {2: c},
            (2, 3): {3: f.one()}})
        names = [", ".join(bad.basis_names[k] for k in triple)
                 for triple in dense_oracle.jacobi_failures(bad)]
        assert names
        assert bad.validate().failures == [
            f"Jacobi fails on ({n})" for n in names]


def test_subspace_products_match_oracle():
    for name, alg in _oracle_algebras():
        samples = _samples(alg)
        for a in samples:
            assert alg.is_ideal(a) == dense_oracle.is_ideal(alg, a.basis)
            for b in samples:
                assert _pair(alg.bracket_subspaces(a, b)) == \
                    dense_oracle.bracket_subspaces(alg, a.basis,
                                                   b.basis), name
                assert _pair(alg.annihilator(a, b)) == \
                    dense_oracle.annihilator(alg, a.basis, b.basis), name


def test_zeta3_sl2_exponent_matches_sl2():
    group = FiniteGroup.trivial()
    want = compute_d(Workbench("sl2", sl2(), group)).d
    assert want == 3
    for scales in ((1, 0, 0), (1, 0, 2), (2, 1, 0)):
        bench = Workbench("sl2_zeta3", _sl2_over_zeta3(scales), group)
        assert compute_d(bench).d == want, scales
