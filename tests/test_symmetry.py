from fractions import Fraction
from itertools import accumulate
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

import dense_oracle
from codimlab.exponent import _eigenprojections, resolve_action
from codimlab.fixtures import (
    FIXTURE_BUILDERS,
    Workbench,
    build_fixture,
    fixture_gl2_z2_action,
    fixture_gl2_z2_graded,
    fixture_metabelian_cyclic,
    fixture_sl2xsl2_swap,
    gl2,
    sl2,
)
from codimlab.linalg import MatrixExact
from codimlab.scalar import FieldSpec, RATIONALS
from codimlab.symmetry import (
    FiniteGroup,
    Grading,
    GroupAction,
    action_to_grading,
    average_projection,
    character_value,
    dual_group,
    escaping_element,
    grading_to_action,
    orbits,
    primitive_root_in,
    trivial_action,
)
from helpers import change_of_basis, rebased, relabelled


def test_group_table_validation():
    FiniteGroup.cyclic(4)
    with pytest.raises(ValueError):
        FiniteGroup(("e", "t"), ((0, 1), (1, 1)))
    with pytest.raises(ValueError):
        FiniteGroup(("t", "e"), ((1, 0), (0, 1)))


def test_declared_invariant_factors_must_give_the_table():
    # abelian_element_tuples numbers element g by tuples()[g], so a
    # declared table must be the product table in that order
    for m in range(1, 8):
        assert FiniteGroup.cyclic(m).table == \
            FiniteGroup.abelian((m,)).table
    for orders in [(), (1,), (2, 2), (2, 3), (3, 1, 2)]:
        assert FiniteGroup.abelian(orders).order == prod(orders)
    z6 = FiniteGroup.cyclic(6)
    with pytest.raises(ValueError, match="product of cyclic groups"):
        FiniteGroup(z6.names, z6.table, abelian_orders=(2, 3))
    klein = FiniteGroup.abelian((2, 2))
    with pytest.raises(ValueError, match="product of cyclic groups"):
        FiniteGroup(klein.names, klein.table, abelian_orders=(4,))
    with pytest.raises(ValueError, match="at least one element"):
        FiniteGroup((), ())


def test_cyclic_group_basics():
    g = FiniteGroup.cyclic(3, gen_name="tau")
    assert g.names == ("e", "tau", "tau^2")
    assert g.mul(1, 2) == 0
    assert g.inv(1) == 2
    assert g.exponent() == 3
    assert g.is_abelian()
    assert g.element_order(1) == 3


def test_klein_four():
    g = FiniteGroup.abelian((2, 2))
    assert g.order == 4
    assert g.exponent() == 2
    assert all(g.inv(x) == x for x in range(4))


def test_fixture_actions_validate():
    for name in ("gl2_z2_action", "sl2xsl2_swap",
                 "metabelian_m2_cyclic", "metabelian_m3_cyclic"):
        wb = build_fixture(name)
        assert wb.action.validate(wb.algebra) == []


def test_fixture_gradings_validate():
    for name in ("gl2_z2_graded", "metabelian_graded_m2"):
        wb = build_fixture(name)
        assert wb.grading.validate(wb.algebra) == []


def test_broken_action_rejected():
    # swapping e and h in sl2 is not a bracket homomorphism
    alg = sl2()
    group = FiniteGroup.cyclic(2)
    f = RATIONALS
    z, o = f.zero(), f.one()
    swap_eh = MatrixExact(f, [[z, o, z], [o, z, z], [z, z, o]])
    act = GroupAction(group, [MatrixExact.identity(f, 3), swap_eh])
    problems = act.validate(alg)
    assert any("homomorphism" in p for p in problems)


def test_cyclotomic_action_wrong_on_one_pair_rejected():
    """sl2 over Q(zeta_3) in the basis zeta e, h, f, so [E, F] = zeta H
    is not rational.  diag(zeta, 1, zeta^2) is the torus, an
    automorphism of order 3; diag(zeta, 1, zeta) fixes [E, H] and
    [H, F] but sends [E, F] = zeta H to zeta H, not to zeta^3 H."""
    field = FieldSpec(3)
    z, o, zeta = field.zero(), field.one(), field.root_of_unity()
    alg = change_of_basis(sl2(field), [(zeta, z, z), (z, o, z), (z, z, o)],
                          ("E", "H", "F"))
    assert alg.bracket_basis(0, 2)[1] == zeta
    group = FiniteGroup.cyclic(3)

    def diagonal(exponents):
        return GroupAction(group, [MatrixExact(field, [
            [zeta ** (k * exponents[i]) if i == j else z for j in range(3)]
            for i in range(3)]) for k in range(3)])

    assert diagonal((1, 0, 2)).validate(alg) == []
    assert diagonal((1, 0, 1)).validate(alg) == [
        "rho(t) is not a bracket homomorphism on (E, F)",
        "rho(t^2) is not a bracket homomorphism on (E, F)"]


def test_non_homomorphism_rejected():
    alg = sl2()
    group = FiniteGroup.cyclic(2)
    f = RATIONALS
    two = MatrixExact.identity(f, 3).scale(f.from_rational(2))
    act = GroupAction(group, [MatrixExact.identity(f, 3), two])
    problems = act.validate(alg)
    assert problems


def test_broken_grading_rejected():
    alg = gl2()
    group = FiniteGroup.cyclic(2)
    bad = Grading(group, (0, 0, 1, 0))
    assert bad.validate(alg)


def test_primitive_roots_available():
    assert primitive_root_in(RATIONALS, 2) == RATIONALS.from_rational(-1)
    assert primitive_root_in(RATIONALS, 3) is None
    f3 = FieldSpec(3)
    z = primitive_root_in(f3, 3)
    assert z == f3.root_of_unity()
    # -zeta_3 has order 6 inside Q(zeta_3)
    w = primitive_root_in(f3, 6)
    assert w is not None and w ** 6 == f3.one() and w ** 3 != f3.one()


def test_character_values_z2():
    g = FiniteGroup.cyclic(2)
    one = RATIONALS.one()
    assert character_value(g, RATIONALS, (0,), 1) == one
    assert character_value(g, RATIONALS, (1,), 1) == -one
    assert character_value(g, RATIONALS, (1,), 0) == one


def test_character_orthogonality_z3():
    f = FieldSpec(3)
    g = FiniteGroup.cyclic(3)
    for t in ((0,), (1,), (2,)):
        total = f.zero()
        for x in range(3):
            total = total + character_value(g, f, t, x)
        expect = f.from_rational(3) if t == (0,) else f.zero()
        assert total == expect


def test_dual_group_names():
    d = dual_group(FiniteGroup.cyclic(2))
    assert d.names == ("e", "psi")
    d3 = dual_group(FiniteGroup.cyclic(3))
    assert d3.order == 3


def test_grading_to_action_on_gl2_matches_psi():
    wb = fixture_gl2_z2_graded()
    dual, act = grading_to_action(wb.algebra, wb.grading)
    expect = fixture_gl2_z2_action()
    assert [m.data for m in act.matrices] == [
        m.data for m in expect.action.matrices]
    assert act.validate(wb.algebra) == []


def test_action_to_grading_on_gl2_recovers_components():
    wb = fixture_gl2_z2_action()
    induced = action_to_grading(wb.algebra, wb.action)
    graded = fixture_gl2_z2_graded()
    alg = graded.algebra
    for ci, comp in induced.components.items():
        assert comp == alg.span([
            alg.basis_vector(i)
            for i, label in enumerate(graded.grading.labels)
            if label == ci])


def test_duality_round_trip_on_metabelian_z3():
    # action -> grading -> action lands back on the same eigenspaces
    wb = fixture_metabelian_cyclic(3)
    induced = action_to_grading(wb.algebra, wb.action)
    assert sum(c.dim for c in induced.components.values()) == 6
    changed = change_of_basis(wb.algebra, induced.new_basis,
                              tuple(f"v{i}" for i in range(6)))
    grading = Grading(dual_group(wb.group), induced.labels)
    assert grading.validate(changed) == []
    dual, act2 = grading_to_action(changed, grading)
    assert act2.validate(changed) == []


def test_fourier_grading_components_match_eigenspaces():
    # eigenspace splitting of the cyclic permutation action agrees with
    # the explicit Fourier vectors
    wb = fixture_metabelian_cyclic(3)
    field = wb.algebra.field
    zeta = field.root_of_unity()
    induced = action_to_grading(wb.algebra, wb.action)
    # the label enumeration is (0,), (1,), (2,); the tau-eigenvalue of
    # sum_k zeta^(-jk) a_(k+1) under the shift is zeta^j
    for j in range(3):
        vec = [field.zero()] * 6
        for k in range(3):
            vec[k] = zeta ** ((-j * k) % 3)
        comp = induced.components[j]
        assert comp.contains_vector(vec)


def test_average_projection_equivariant():
    wb = fixture_sl2xsl2_swap()
    f = wb.algebra.field
    z, o = f.zero(), f.one()
    # projector onto the first sl2 block, not equivariant by itself
    p = MatrixExact(f, [[o if i == j and i < 3 else z
                        for j in range(6)] for i in range(6)])
    avg = average_projection(p, wb.action)
    for g in range(2):
        rg = wb.action.matrix(g)
        assert rg @ avg == avg @ rg
    half = f.from_rational(Fraction(1, 2))
    assert avg == MatrixExact.identity(f, 6).scale(half)


def test_average_projection_fixes_invariant_image():
    wb = build_fixture("metabelian_m2_cyclic")
    f = wb.algebra.field
    z, o = f.zero(), f.one()
    # projector onto the b-span along the a-span; already equivariant
    p = MatrixExact(f, [[o if i == j and i >= 2 else z
                        for j in range(4)] for i in range(4)])
    avg = average_projection(p, wb.action)
    assert avg == p


def test_orbits_of_cycle():
    wb = fixture_metabelian_cyclic(3)
    # tau^k sends a_i to a_(i+k) and b_i to b_(i+k)
    perms = [tuple([(i + k) % 3 for i in range(3)]
                   + [3 + (i + k) % 3 for i in range(3)])
             for k in range(3)]
    for k, perm in enumerate(perms):
        m = wb.action.matrix(k)
        assert all(m[i, j] == (1 if i == perm[j] else 0)
                   for i in range(6) for j in range(6))
    orbs = orbits(wb.group, perms)
    assert sorted(len(o) for o in orbs) == [3, 3]


def test_invariant_subspace_probe():
    wb = fixture_sl2xsl2_swap()
    alg = wb.algebra
    block = alg.span([alg.basis_vector(i) for i in range(3)])
    assert escaping_element(wb.action, block) is not None
    diag = alg.span([
        tuple(a + b for a, b in zip(alg.basis_vector(i),
                                    alg.basis_vector(i + 3)))
        for i in range(3)])
    assert escaping_element(wb.action, diag) is None


def test_trivial_action():
    alg = sl2()
    act = trivial_action(alg)
    assert act.group.order == 1
    assert act.validate(alg) == []


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 6))
def test_dual_group_is_isomorphic_shape(m):
    g = FiniteGroup.cyclic(m)
    d = dual_group(g)
    assert d.order == m
    assert d.exponent() == g.exponent()


# -- the eigen-split against its Scalar oracle -------------------------


def _sl2_z4_twisted():
    """Z_4 acting on sl2 over Q(zeta_4) by e -> i e, f -> -i f, written
    in the basis e + h, e - h, f, so the generator's matrix is neither
    diagonal nor rational and the powers' denominators differ."""
    field = FieldSpec(4)
    alg = sl2(field)
    o, z, i = field.one(), field.zero(), field.root_of_unity()
    d = MatrixExact(field, [[i, z, z], [z, o, z], [z, z, -i]])
    mats = [MatrixExact.identity(field, 3)]
    for _ in range(3):
        mats.append(d @ mats[-1])
    group = FiniteGroup.cyclic(4)
    bench = rebased(Workbench("sl2_z4", alg, group, GroupAction(group, mats)),
                    [(o, o, z), (o, -o, z), (z, z, o)])
    return bench.algebra, bench.action


def _eigen_split_cases():
    for name in sorted(FIXTURE_BUILDERS):
        bench = build_fixture(name)
        if bench.group.abelian_orders is None:
            continue
        for seed, copy in ((0, bench),
                           (1, relabelled(bench, 1)),
                           (2, relabelled(bench, 2))):
            yield f"{name}/{seed}", copy.algebra, resolve_action(copy)
    wb = fixture_metabelian_cyclic(5)
    yield "metabelian_m5_cyclic", wb.algebra, wb.action
    yield "sl2_z4_twisted", *_sl2_z4_twisted()


EIGEN_SPLIT_CASES = list(_eigen_split_cases())


@pytest.mark.parametrize("case", EIGEN_SPLIT_CASES, ids=lambda case: case[0])
def test_action_to_grading_matches_scalar_oracle(case):
    """The integer eigen-split gives the components, new basis and
    labels of the Scalar projector sums, on every bundled fixture with
    invariant factors, two basis relabellings of each, and actions
    over Q(zeta_5) and Q(zeta_4)."""
    _, algebra, action = case
    field = algebra.field
    components, new_basis, labels = dense_oracle.action_to_grading(
        field, action.group, action.matrices)
    induced = action_to_grading(algebra, action)
    assert {ci: (c.basis, c.pivots)
            for ci, c in induced.components.items()} == components
    assert [tuple(v) for v in induced.new_basis] == new_basis
    assert induced.labels == labels
    assert sum(c.dim for c in induced.components.values()) == algebra.dim


@pytest.mark.parametrize("case", EIGEN_SPLIT_CASES, ids=lambda case: case[0])
def test_eigenprojections_match_scalar_oracle(case):
    """For a cyclic group, the eigenprojections of its generator, the
    first |G| that _eigenprojections lists, are the oracle's character
    projectors, in character order; and there are |C| of them for each
    nontrivial cyclic subgroup C, none for its other generators."""
    _, algebra, action = case
    group = action.group
    if group.order == 1:
        assert _eigenprojections(algebra, action) == []
        return
    assert group.abelian_orders == (group.order,)
    expect = [dense_oracle.character_projector(
        algebra.field, group, action.matrices, t)
        for t in group.abelian_element_tuples()]
    projections = _eigenprojections(algebra, action)
    assert [p.data for p in projections[:group.order]] == expect
    cyclic = {frozenset(accumulate([g] * group.order, group.mul))
              for g in range(1, group.order)}
    assert len(projections) == sum(map(len, cyclic))
