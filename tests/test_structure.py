"""Levi/complement/nilradical decomposition and equivariant splitting."""
import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

import dense_oracle
from codimlab.exponent import composition_chain, resolve_action
from codimlab.fixtures import (FIXTURE_BUILDERS, Workbench, abelian,
                               build_fixture, gl2, heisenberg, metabelian,
                               sl2, sl2_sl2)
from codimlab.lie_core import LieAlgebra, StructureAnnotation, direct_sum
from codimlab.scalar import RATIONALS, FieldSpec
from codimlab.structure import (_nilradical, _verify_levi,
                                _verify_nilradical, decompose,
                                equivariant_complement, equivariant_split)
from codimlab.symmetry import FiniteGroup, grading_to_action
from helpers import (all_fixtures, basis_change, change_of_basis,
                     label_preserving_rows, rebased, relabelled)


def fixture_action(bench):
    if bench.action is not None:
        return bench.action
    if bench.grading is not None:
        return grading_to_action(bench.algebra, bench.grading)[1]
    return None


def spans(algebra, vectors):
    return algebra.span(vectors)


def complement_of(algebra, d, action=None, annotation=None):
    """S as exponent.ann_decomposition_check takes it: the annotated
    complement, else the equivariant complement of R over N."""
    if annotation is not None and annotation.complement is not None:
        return annotation.complement
    return equivariant_complement(algebra, d.levi, action, d.radical,
                                  d.nilradical)


def test_semisimple_shapes():
    alg = sl2()
    d = decompose(alg)
    assert d.levi == alg.full_space()
    assert d.radical.dim == 0 and d.nilradical.dim == 0
    assert complement_of(alg, d).dim == 0
    assert d.nilpotency_index == 1
    assert decompose(sl2_sl2()).levi.dim == 6


def test_solvable_shapes():
    alg = metabelian(2)
    d = decompose(alg)
    assert d.levi.dim == 0 and d.radical == alg.full_space()
    b_span = spans(alg, [alg.basis_vector(2), alg.basis_vector(3)])
    a_span = spans(alg, [alg.basis_vector(0), alg.basis_vector(1)])
    assert d.nilradical == b_span
    assert complement_of(alg, d) == a_span
    assert d.nilpotency_index == 2


def test_gl2_annotated_decomposition():
    bench = build_fixture("gl2_z2_action")
    alg = bench.algebra
    annotation = dense_oracle.gl2_annotation(alg)
    d = decompose(alg, annotation, bench.action)
    one, z = alg.field.one(), alg.field.zero()
    assert d.nilradical == spans(alg, [(one, z, z, one)])
    assert d.levi == spans(alg, [alg.basis_vector(1),
                                 alg.basis_vector(2),
                                 (one, z, z, -one)])
    assert complement_of(alg, d, bench.action, annotation).dim == 0
    assert d.nilpotency_index == 2


def test_gl2_levi_is_derived():
    # the radical of gl2 is its centre, so the Levi factor is [L, L]
    alg = gl2()
    one, z = alg.field.one(), alg.field.zero()
    assert decompose(alg).levi == spans(alg, [alg.basis_vector(1),
                                              alg.basis_vector(2),
                                              (one, z, z, -one)])


def test_non_central_radical_requires_annotation():
    # sl2 + heisenberg: the radical is proper and [L, R] != 0
    alg = direct_sum(sl2(), heisenberg())
    with pytest.raises(ValueError, match="must be annotated"):
        decompose(alg)
    levi = spans(alg, [alg.basis_vector(i) for i in range(3)])
    d = decompose(alg, StructureAnnotation(levi=levi))
    assert d.levi == levi
    assert d.radical == spans(alg, [alg.basis_vector(i)
                                    for i in range(3, 6)])


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", ["gl2_z2_graded", "gl2_z2_action"])
def test_derived_levi_matches_annotated(name, seed):
    """The derived decomposition of gl2 equals the one the fixtures got
    from their hand-written Levi annotation, in every relabelled
    basis."""
    annotated = build_fixture(name)
    annotated.annotation = dense_oracle.gl2_annotation(annotated.algebra)
    annotated = relabelled(annotated, seed)
    plain = relabelled(build_fixture(name), seed)
    assert annotated.annotation.levi is not None
    assert plain.annotation is None
    want = decompose(annotated.algebra, annotated.annotation,
                     resolve_action(annotated))
    got = decompose(plain.algebra, None, resolve_action(plain))
    assert got == want


def test_levi_annotation_rejections():
    alg = gl2()
    solvable_sub = spans(alg, [alg.basis_vector(0), alg.basis_vector(1)])
    too_small = StructureAnnotation(levi=spans(alg, [alg.basis_vector(1)]))
    with pytest.raises(ValueError, match="levi annotation rejected"):
        decompose(alg, too_small)
    padded = StructureAnnotation(levi=spans(
        alg, [alg.basis_vector(0), alg.basis_vector(1),
              alg.basis_vector(2)]))
    with pytest.raises(ValueError, match="levi annotation rejected"):
        decompose(alg, padded)
    del solvable_sub


def test_nilradical_annotation_rejections():
    alg = metabelian(2)
    a_span = spans(alg, [alg.basis_vector(0), alg.basis_vector(1)])
    with pytest.raises(ValueError, match="annotated nilradical rejected"):
        decompose(alg, StructureAnnotation(nilradical=a_span))
    with pytest.raises(ValueError, match="annotated nilradical rejected"):
        decompose(alg, StructureAnnotation(nilradical=alg.zero_space()))


def test_nilpotent_and_abelian():
    d = decompose(build_fixture("heisenberg").algebra)
    assert d.nilradical.dim == 3 and d.nilpotency_index == 3
    d = decompose(abelian(3))
    assert d.nilradical.dim == 3 and d.nilpotency_index == 2


def test_nilradical_of_metabelian_in_a_basis_of_no_ideal_vector():
    # in the basis a1, a2, b1 + a1, b2 only b2 of the basis vectors is
    # ad-nilpotent, yet N = <b1, b2> = <u2 - u0, u3>
    alg = metabelian(2)
    o, z = alg.field.one(), alg.field.zero()
    moved = change_of_basis(alg, [(o, z, z, z), (z, o, z, z),
                                  (o, z, o, z), (z, z, z, o)])
    d = decompose(moved)
    assert d.nilradical == moved.span([(-o, z, o, z), (z, z, z, o)])
    assert d.nilpotency_index == 2
    # over Q(zeta_3) in the basis zeta a1, a2, zeta^2 a1 + b1, b2 the
    # constants are irrational, and N = <u2 - zeta u0, u3> is read on
    # the realified table
    f = FieldSpec(3)
    zeta, o, z = f.root_of_unity(), f.one(), f.zero()
    moved = change_of_basis(metabelian(2, f), [
        (zeta, z, z, z), (z, o, z, z), (zeta * zeta, z, o, z),
        (z, z, z, o)])
    assert moved._deg == 2
    assert decompose(moved).nilradical == moved.span([(-zeta, z, o, z),
                                                      (z, z, z, o)])


def rotation_algebra():
    """<x, y1, y2> with [x, y1] = y1 + y2, [x, y2] = -y1 + y2: ad x has
    eigenvalues 1 +- i on <y1, y2>, and tr(ad x ad x) = 0."""
    f = RATIONALS
    o = f.one()
    return LieAlgebra(f, ("x", "y1", "y2"), {(0, 1): {1: o, 2: o},
                                             (0, 2): {1: -o, 2: o}})


def test_nilradical_is_not_the_killing_kernel_of_the_radical():
    # the trace form of the ad r alone vanishes on x, which is not
    # ad-nilpotent; the trace form of their products separates it
    alg = rotation_algebra()
    assert alg.killing_form()[0, 0] == alg.field.zero()
    o, z = alg.field.one(), alg.field.zero()
    assert decompose(alg).nilradical == alg.span([(z, o, z), (z, z, o)])
    moved = change_of_basis(alg, [(o, z, z), (o, o, z), (z, z, o)])
    assert decompose(moved).nilradical == moved.span([(-o, o, z),
                                                      (z, z, o)])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(FIXTURE_BUILDERS)), st.integers(0, 2 ** 32))
def test_decompose_follows_any_label_preserving_rebasing(name, seed):
    """decompose in a random label-preserving basis returns the radical,
    nilradical and nilpotency index of the fixture's own basis, moved,
    and every basis vector of its nilradical is ad-nilpotent."""
    bench = build_fixture(name)
    d = decompose(bench.algebra, None, resolve_action(bench))
    rows = label_preserving_rows(bench, random.Random(seed))
    moved = rebased(bench, rows)
    _, to_new = basis_change(bench.algebra.field, rows)
    alg = moved.algebra
    got = decompose(alg, None, resolve_action(moved))
    for old, new in ((d.radical, got.radical),
                     (d.nilradical, got.nilradical)):
        assert new == alg.span([to_new.apply(v) for v in old.basis])
    assert got.nilpotency_index == d.nilpotency_index
    assert all(dense_oracle.ad_is_nilpotent(alg, v)
               for v in got.nilradical.basis)


def test_series_stops_at_zero_or_a_repeat():
    # sl2 is perfect, so its lower central series repeats at once
    s = sl2()
    assert s._series(s.full_space(), False)[-1].dim
    h = build_fixture("heisenberg").algebra
    assert not h._series(h.full_space(), False)[-1].dim
    # span(e, f) is not closed: its series cycles through span(h), and
    # an annotation naming it is rejected instead of looping
    ef = s.span([s.basis_vector(0), s.basis_vector(2)])
    assert s._series(ef, False)[-1].dim
    with pytest.raises(ValueError, match="candidate is not nilpotent"):
        decompose(s, StructureAnnotation(nilradical=ef))


@pytest.mark.parametrize("name, radical_dim, nilpotency_index", [
    ("sl2_trivial", 0, 1),
    ("gl2_z2_graded", 1, 2),
    ("gl2_z2_action", 1, 2),
    ("sl2xsl2_swap", 0, 1),
    ("heisenberg", 3, 3),
    ("metabelian_m1_cyclic", 2, 2),
    ("metabelian_m2_cyclic", 4, 2),
    ("metabelian_m3_cyclic", 6, 2),
    ("metabelian_m2_trivial", 4, 2),
    ("metabelian_graded_m2", 4, 2),
])
def test_fixture_radical_and_nilpotency_index(name, radical_dim,
                                              nilpotency_index):
    bench = build_fixture(name)
    d = decompose(bench.algebra, bench.annotation, fixture_action(bench))
    assert d.radical.dim == radical_dim
    assert d.nilpotency_index == nilpotency_index


def test_every_fixture_splits_cleanly():
    for bench in all_fixtures():
        alg = bench.algebra
        action = fixture_action(bench)
        d = decompose(alg, bench.annotation, action)
        comp = complement_of(alg, d, action, bench.annotation)
        # direct sum L = B + S + N, checked against primitives
        total = d.levi.add(comp).add(d.nilradical)
        assert total == alg.full_space(), bench.name
        assert d.levi.dim + comp.dim + d.nilradical.dim == alg.dim
        # [B, S] = 0
        for b in d.levi.basis:
            for s in comp.basis:
                assert not any(alg.bracket(b, s)), bench.name
        # N is a nilpotent ideal containing [L, R]
        assert alg.is_ideal(d.nilradical)
        assert not alg._series(d.nilradical, False)[-1].dim
        commutator = alg.bracket_subspaces(alg.full_space(), d.radical)
        assert d.nilradical.contains(commutator), bench.name
        # G stabilizes every part
        if action is not None:
            for part in (d.levi, comp, d.nilradical):
                for g in range(1, action.group.order):
                    for v in part.basis:
                        assert part.contains_vector(
                            action.apply(g, v)), bench.name


def test_complement_is_group_invariant_average():
    bench = build_fixture("metabelian_m2_cyclic")
    alg = bench.algebra
    d = decompose(alg, None, bench.action)
    assert complement_of(alg, d, bench.action) == spans(
        alg, [alg.basis_vector(0), alg.basis_vector(1)])


def test_equivariant_complement_edges():
    bench = build_fixture("gl2_z2_action")
    alg = bench.algebra
    d = decompose(alg, bench.annotation, bench.action)
    one, z = alg.field.one(), alg.field.zero()
    # complement of the center inside L is the traceless part
    t = equivariant_complement(alg, d.levi, bench.action,
                               alg.full_space(), d.nilradical)
    assert t == spans(alg, [alg.basis_vector(1), alg.basis_vector(2),
                            (one, z, z, -one)])
    # degenerate ends
    assert equivariant_complement(alg, d.levi, bench.action,
                                  d.nilradical, d.nilradical).dim == 0
    assert equivariant_complement(alg, d.levi, bench.action,
                                  d.nilradical,
                                  alg.zero_space()) == d.nilradical


def test_hom_dimension_detects_multiplicity():
    # a-type sections of the metabelian algebra admit several invariant
    # complements; the Hom dimension reports exactly that
    bench = build_fixture("metabelian_m2_cyclic")
    alg = bench.algebra
    d = decompose(alg, None, bench.action)
    plus = tuple(a + b for a, b in zip(alg.basis_vector(0),
                                       alg.basis_vector(1)))
    middle = alg.span(list(d.nilradical.basis) + [plus])
    assert equivariant_split(
        alg, d.levi, bench.action, middle, d.nilradical)[1] == 1
    # while the adjoint-over-center section of gl2 has a unique one
    bench2 = build_fixture("gl2_z2_action")
    d2 = decompose(bench2.algebra, bench2.annotation, bench2.action)
    assert equivariant_split(
        bench2.algebra, d2.levi, bench2.action,
        bench2.algebra.full_space(), d2.nilradical)[1] == 0


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", sorted(FIXTURE_BUILDERS))
def test_equivariant_split_matches_ambient_projection(name, seed):
    """The complement and its multiplicity from one system in the
    section frame equal the kernel in upper of the averaged n x n
    projection and the second system's kernel, on decompose's split
    and on every chain section."""
    bench = relabelled(build_fixture(name), seed)
    alg = bench.algebra
    action = resolve_action(bench)
    d = decompose(alg, bench.annotation, action)
    pairs = [(d.radical, d.nilradical)] + [
        (sec.upper, sec.lower)
        for sec in composition_chain(bench, d).sections]
    for upper, lower in pairs:
        comp, hom_dim = equivariant_split(alg, d.levi, action, upper,
                                          lower)
        assert comp == dense_oracle.ambient_complement(
            alg, d.levi, action, upper, lower)
        assert hom_dim == dense_oracle.hom_dimension(
            alg, d.levi, action, upper, lower)


def test_trivial_group_complement():
    bench = Workbench("plain", metabelian(2), FiniteGroup.trivial())
    d = decompose(bench.algebra)
    comp = complement_of(bench.algebra, d)
    assert comp.dim == 2
    assert d.radical.contains(comp)


# -- the trimmed Levi and nilradical checks against every clause -------


def sl2_v1(field=RATIONALS) -> LieAlgebra:
    """sl2 acting on its standard module: basis e, h, f, v1, v2 with
    e v2 = v1, h v1 = v1, h v2 = -v2, f v1 = v2 on an abelian ideal."""
    one, two = field.one(), field.from_rational(2)
    return LieAlgebra(field, ("e", "h", "f", "v1", "v2"), {
        (0, 1): {0: -two}, (0, 2): {1: one}, (1, 2): {2: -two},
        (0, 4): {3: one}, (1, 3): {3: one}, (1, 4): {4: -one},
        (2, 3): {4: one},
    })


def _gl2_levi(alg):
    return dense_oracle.gl2_annotation(alg).levi.basis


def _first_three(alg):
    return [alg.basis_vector(i) for i in range(3)]


MIXED = {
    "gl2": (gl2, _gl2_levi),
    "sl2+heisenberg": (lambda: direct_sum(sl2(), heisenberg()),
                       _first_three),
    "sl2+V1": (sl2_v1, _first_three),
}


def _exp_ad(alg, v, x):
    """exp(ad v) x for ad-nilpotent v: an automorphism of L, so it
    carries a Levi factor to another one."""
    field = alg.field
    out, term = list(x), tuple(x)
    for k in range(1, alg.dim + 1):
        term = alg.bracket(v, term)
        if not any(term):
            break
        scale = field.from_rational(Fraction(1, factorial(k)))
        out = [a + scale * b for a, b in zip(out, term)]
    return tuple(out)


def _combination(alg, rnd, vectors):
    field = alg.field
    out = [field.zero()] * alg.dim
    for vec in vectors:
        c = field.from_rational(rnd.randint(-2, 2))
        out = [a + c * b for a, b in zip(out, vec)]
    return tuple(out)


def _random_basis(alg, rnd):
    """alg in a random basis, and the map from old coordinates to
    new."""
    field = alg.field
    while True:
        rows = [[field.from_rational(rnd.randint(-2, 2))
                 for _ in range(alg.dim)] for _ in range(alg.dim)]
        try:
            _, to_new = basis_change(field, rows)
        except ValueError:
            continue
        return change_of_basis(alg, rows), to_new.apply


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(MIXED)), st.integers(0, 2 ** 32))
def test_levi_and_nilradical_checks_agree_with_every_clause(name, seed):
    """The dimension, meet and closure checks accept a Levi candidate
    exactly when the Killing test on it as an algebra does too, and the
    nilradical checks without the radical containment accept exactly
    what they accepted with it, on complements of R, exp(ad v)-conjugate
    Levi factors and plain subspaces in a random basis."""
    rnd = random.Random(seed)
    build, levi_of = MIXED[name]
    old = build()
    alg, to_new = _random_basis(old, rnd)
    assert alg.validate().ok
    radical = alg.solvable_radical()
    levi = [to_new(b) for b in levi_of(old)]
    nil = _nilradical(alg, radical)
    v = _combination(alg, rnd, nil.basis)
    candidates = [
        levi,
        [_exp_ad(alg, v, b) for b in levi],
        [tuple(a + c for a, c in zip(b, _combination(alg, rnd,
                                                     radical.basis)))
         for b in levi],
        levi[:-1] + [_combination(alg, rnd, radical.basis)],
        [_combination(alg, rnd, alg.full_space().basis)
         for _ in range(len(levi))],
    ]
    # the Levi factor and its conjugate are Levi factors
    assert not any(_verify_levi(alg, alg.span(c), radical)
                   for c in candidates[:2])
    for vectors in candidates:
        cand = alg.span(vectors)
        assert bool(_verify_levi(alg, cand, radical)) == \
            bool(dense_oracle.verify_levi(alg, cand, radical))
    commutator = alg.bracket_subspaces(alg.full_space(), radical)
    candidates = [
        nil.basis,
        list(nil.basis) + [_combination(alg, rnd, radical.basis)],
        list(nil.basis) + [levi[0]],
        [_combination(alg, rnd, radical.basis)],
        [_combination(alg, rnd, alg.full_space().basis)
         for _ in range(rnd.randint(1, alg.dim))],
    ]
    for vectors in candidates:
        cand = alg.span(vectors)
        series = alg._series(cand, False)
        assert bool(_verify_nilradical(alg, cand, commutator, series)) == \
            bool(dense_oracle.verify_nilradical(alg, cand, radical,
                                                series))
