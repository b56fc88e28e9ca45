"""Levi/complement/nilradical decomposition and equivariant splitting."""
import pytest

import dense_oracle
from codimlab.exponent import composition_chain, resolve_action
from codimlab.fixtures import (FIXTURE_BUILDERS, Workbench, abelian,
                               build_fixture, gl2, metabelian, sl2, sl2_sl2)
from codimlab.lie_core import StructureAnnotation
from codimlab.structure import (adapted_basis, decompose,
                                equivariant_complement, equivariant_split)
from codimlab.symmetry import FiniteGroup, grading_to_action
from helpers import all_fixtures, relabelled


def fixture_action(bench):
    if bench.action is not None:
        return bench.action
    if bench.grading is not None:
        return grading_to_action(bench.algebra, bench.grading)[1]
    return None


def spans(algebra, vectors):
    return algebra.span(vectors)


def test_semisimple_shapes():
    d = decompose(sl2())
    assert d.levi == sl2().full_space()
    assert d.radical.dim == 0 and d.nilradical.dim == 0
    assert d.complement.dim == 0
    assert d.nilpotency_index == 1
    assert decompose(sl2_sl2()).levi.dim == 6


def test_solvable_shapes():
    alg = metabelian(2)
    d = decompose(alg)
    assert d.levi.dim == 0 and d.radical == alg.full_space()
    b_span = spans(alg, [alg.basis_vector(2), alg.basis_vector(3)])
    a_span = spans(alg, [alg.basis_vector(0), alg.basis_vector(1)])
    assert d.nilradical == b_span
    assert d.complement == a_span
    assert d.nilpotency_index == 2


def test_gl2_annotated_decomposition():
    bench = build_fixture("gl2_z2_action")
    alg = bench.algebra
    d = decompose(alg, bench.annotation, bench.action)
    one, z = alg.field.one(), alg.field.zero()
    assert d.nilradical == spans(alg, [(one, z, z, one)])
    assert d.levi == spans(alg, [alg.basis_vector(1),
                                 alg.basis_vector(2),
                                 (one, z, z, -one)])
    assert d.complement.dim == 0
    assert d.nilpotency_index == 2


def test_gl2_requires_annotation():
    with pytest.raises(ValueError, match="must be annotated"):
        decompose(gl2())


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
        # direct sum L = B + S + N, checked against primitives
        total = d.levi.add(d.complement).add(d.nilradical)
        assert total == alg.full_space(), bench.name
        assert d.levi.dim + d.complement.dim + d.nilradical.dim == alg.dim
        # [B, S] = 0
        for b in d.levi.basis:
            for s in d.complement.basis:
                assert not any(alg.bracket(b, s)), bench.name
        # N is a nilpotent ideal containing [L, R]
        assert alg.is_ideal(d.nilradical)
        assert not alg._series(d.nilradical, False)[-1].dim
        commutator = alg.bracket_subspaces(alg.full_space(), d.radical)
        assert d.nilradical.contains(commutator), bench.name
        # G stabilizes every part
        if action is not None:
            for part in (d.levi, d.complement, d.nilradical):
                for g in range(1, action.group.order):
                    for v in part.basis:
                        assert part.contains_vector(
                            action.apply(g, v)), bench.name


def test_complement_is_group_invariant_average():
    bench = build_fixture("metabelian_m2_cyclic")
    alg = bench.algebra
    d = decompose(alg, None, bench.action)
    assert d.complement == spans(alg, [alg.basis_vector(0),
                                       alg.basis_vector(1)])


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


def test_adapted_basis_extends():
    alg = metabelian(2)
    lower = spans(alg, [alg.basis_vector(2)])
    upper = spans(alg, [alg.basis_vector(2), alg.basis_vector(3)])
    ext = adapted_basis(alg.field, upper, lower)
    assert len(ext) == 1
    assert upper.contains_vector(ext[0])
    assert not lower.contains_vector(ext[0])


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


def test_summary_keys():
    d = decompose(sl2())
    summary = d.summary()
    assert summary == {"dim": 3, "levi_dim": 3, "radical_dim": 0,
                       "nilradical_dim": 0, "complement_dim": 0,
                       "nilpotency_index": 1}


def test_trivial_group_complement():
    bench = Workbench("plain", metabelian(2), FiniteGroup.trivial())
    d = decompose(bench.algebra)
    assert d.complement.dim == 2
    assert d.radical.contains(d.complement)
