from hypothesis import given, settings, strategies as st

from codimlab.fixtures import (
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
    m = metabelian(2)
    assert m.ad_is_nilpotent(m.basis_vector(2))
    assert not m.ad_is_nilpotent(m.basis_vector(0))
    s = sl2()
    assert s.ad_is_nilpotent(s.basis_vector(0))
    assert not s.ad_is_nilpotent(s.basis_vector(1))


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
    changed = m.change_of_basis(rows, names)
    expect = metabelian_diag(3, field)
    assert changed.table == expect.table


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
