"""Composition chains, irreducibility certificates, and the
chain-restricted annihilator maximum."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import dense_oracle
from codimlab.config import Refusal, RunConfig
from codimlab.exponent import (_module_operators, ann_decomposition_check,
                               bracket_chains, composition_chain, compute_d,
                               condition2, envelope_dim, resolve_action,
                               section_matrices)
from codimlab.fixtures import (FIXTURE_BUILDERS, Workbench, abelian,
                               build_fixture, metabelian,
                               permutation_action, sl2_sl2)
from codimlab.linalg import MatrixExact, proper_invariant_subspace, spin
from codimlab.scalar import RATIONALS, FieldSpec
from codimlab.structure import (Decomposition, decompose,
                                equivariant_complement)
from codimlab.symmetry import FiniteGroup, GroupAction, orbits
from helpers import all_fixtures


# Frozen outcomes.  Witness tuples index chain sections top down, so 0
# is the section just below L and the last entry sits on the
# nilradical end of the chain.
EXPECTED = {
    "sl2_trivial": dict(d=3, witness={"sections": [0], "q": [0]},
                        tuples=1, dims=[3], ann=[0], hom=[0]),
    "gl2_z2_graded": dict(d=3, witness={"sections": [0], "q": [0]},
                          tuples=6, dims=[3, 1], ann=[1, 4],
                          hom=[0, 0]),
    "gl2_z2_action": dict(d=3, witness={"sections": [0], "q": [0]},
                          tuples=6, dims=[3, 1], ann=[1, 4],
                          hom=[0, 0]),
    "sl2xsl2_swap": dict(d=6, witness={"sections": [0], "q": [0]},
                         tuples=1, dims=[6], ann=[0], hom=[0]),
    "heisenberg": dict(d=0, witness={"sections": [0], "q": [0]},
                       tuples=39, dims=[1, 1, 1], ann=[3, 3, 3],
                       hom=[2, 1, 0]),
    "metabelian_m1_cyclic": dict(d=1,
                                 witness={"sections": [0, 1],
                                          "q": [0, 0]},
                                 tuples=6, dims=[1, 1], ann=[2, 1],
                                 hom=[1, 0]),
    "metabelian_m2_cyclic": dict(d=2,
                                 witness={"sections": [0, 2],
                                          "q": [0, 0]},
                                 tuples=12, dims=[1, 1, 2],
                                 ann=[4, 4, 2], hom=[1, 1, 0]),
    "metabelian_m3_cyclic": dict(d=3,
                                 witness={"sections": [0, 3],
                                          "q": [0, 0]},
                                 tuples=20, dims=[1, 1, 1, 3],
                                 ann=[6, 6, 6, 3], hom=[1, 1, 1, 0]),
    "metabelian_m2_trivial": dict(d=1,
                                  witness={"sections": [0, 2],
                                           "q": [0, 0]},
                                  tuples=20, dims=[1, 1, 1, 1],
                                  ann=[4, 4, 3, 3], hom=[3, 2, 1, 0]),
    "metabelian_graded_m2": dict(d=2,
                                 witness={"sections": [0, 2],
                                          "q": [0, 0]},
                                 tuples=12, dims=[1, 1, 2],
                                 ann=[4, 4, 2], hom=[1, 1, 0]),
}

CHAIN_DIMS = {
    "sl2_trivial": [3, 0],
    "gl2_z2_graded": [4, 1, 0],
    "gl2_z2_action": [4, 1, 0],
    "sl2xsl2_swap": [6, 0],
    "heisenberg": [3, 2, 1, 0],
    "metabelian_m1_cyclic": [2, 1, 0],
    "metabelian_m2_cyclic": [4, 3, 2, 0],
    "metabelian_m3_cyclic": [6, 5, 4, 3, 0],
    "metabelian_m2_trivial": [4, 3, 2, 1, 0],
    "metabelian_graded_m2": [4, 3, 2, 0],
}


def rational_m3_bench():
    """metabelian(3) with the cyclic permutation action but no cube
    roots of unity in the field."""
    alg = metabelian(3)
    group = FiniteGroup.cyclic(3, gen_name="tau")
    perms = []
    for k in range(3):
        perm = [0] * 6
        for i in range(3):
            perm[i] = (i + k) % 3
            perm[3 + i] = 3 + (i + k) % 3
        perms.append(tuple(perm))
    return Workbench("metabelian_m3_rational", alg, group,
                     action=permutation_action(alg, group, perms))


def chain_for(bench):
    algebra = bench.algebra
    action = resolve_action(bench)
    decomp = decompose(algebra, bench.annotation, action)
    return decomp, action, composition_chain(bench, decomp)


def test_resolve_action_flavors():
    graded = build_fixture("gl2_z2_graded")
    assert graded.action is None
    assert resolve_action(graded).group.order == 2
    plain = build_fixture("sl2_trivial")
    assert resolve_action(plain).group.order == 1


def test_chain_shapes():
    for bench in all_fixtures():
        _, _, chain = chain_for(bench)
        dims = [m.dim for m in chain.members]
        assert dims == CHAIN_DIMS[bench.name], bench.name


def test_chain_members_are_invariant_ideals_through_nilradical():
    for bench in all_fixtures():
        decomp, action, chain = chain_for(bench)
        members = chain.members
        assert members[0] == bench.algebra.full_space()
        assert members[-1].dim == 0
        assert any(m == decomp.nilradical for m in members), bench.name
        for i, member in enumerate(members):
            assert bench.algebra.is_ideal(member), bench.name
            if i:
                assert members[i - 1].contains(member)
                assert members[i - 1].dim > member.dim
            for g in range(1, action.group.order):
                for v in member.basis:
                    assert member.contains_vector(action.apply(g, v))


def test_every_section_recertifies():
    for bench in all_fixtures():
        _, action, chain = chain_for(bench)
        field = bench.algebra.field
        for sec in chain.sections:
            mats = section_matrices(
                field, _module_operators(bench.algebra, action),
                sec.upper, sec.lower)
            assert envelope_dim(field, sec.dim, mats) == sec.dim ** 2, (
                bench.name, sec.index)


def test_adjoint_sl2_envelope():
    bench = build_fixture("sl2_trivial")
    action = resolve_action(bench)
    alg = bench.algebra
    mats = section_matrices(alg.field, _module_operators(alg, action),
                            alg.full_space(), alg.zero_space())
    assert envelope_dim(alg.field, 3, mats) == 9


def test_reducible_witness_without_symmetry():
    # with G trivial the derived part of the metabelian algebra splits,
    # and the spin from b1 exhibits the proper submodule
    bench = build_fixture("metabelian_m2_trivial")
    alg = bench.algebra
    action = resolve_action(bench)
    decomp = decompose(alg)
    mats = section_matrices(alg.field, _module_operators(alg, action),
                            decomp.nilradical, alg.zero_space())
    one, zero = alg.field.one(), alg.field.zero()
    witness = proper_invariant_subspace(alg.field, 2, mats, [(one, zero)])
    assert witness.dim == 1
    assert witness.contains_vector((one, zero))
    # the envelope of a reducible module is not the full matrix algebra
    assert envelope_dim(alg.field, 2, mats) < 4


def test_undecided_when_field_lacks_eigenvalues():
    # a rotation of the rational plane has no invariant line, but its
    # envelope is commutative, so neither criterion resolves it
    from codimlab.scalar import FieldSpec
    field = FieldSpec(1)
    one, zero = field.one(), field.zero()
    rot = MatrixExact(field, [[zero, -one], [one, zero]])
    assert proper_invariant_subspace(field, 2, [rot], [(one, zero)]) is None
    assert envelope_dim(field, 2, [rot]) == 2


def test_condition2_single_nonzero():
    bench = build_fixture("sl2_trivial")
    alg = bench.algebra
    chains = [bracket_chains(alg, alg.full_space(), 3)]
    assert condition2(alg, chains, 3) == (0,)
    dead = [bracket_chains(alg, alg.zero_space(), 3)]
    assert condition2(alg, dead, 3) is None


def test_condition2_two_derived_sections_fail():
    alg = metabelian(2)
    t2 = alg.span([alg.basis_vector(3)])
    t3 = alg.span([alg.basis_vector(2)])
    chains = [bracket_chains(alg, t2, 4), bracket_chains(alg, t3, 4)]
    assert condition2(alg, chains, 4) is None


def test_condition2_cross_factor_fail():
    alg = sl2_sl2()
    b1 = alg.span([alg.basis_vector(i) for i in range(3)])
    b2 = alg.span([alg.basis_vector(i) for i in range(3, 6)])
    same = [bracket_chains(alg, b1, 2), bracket_chains(alg, b1, 2)]
    assert condition2(alg, same, 2) == (0, 0)
    crossed = [bracket_chains(alg, b2, 2), bracket_chains(alg, b1, 2)]
    assert condition2(alg, crossed, 2) is None


def test_compute_d_frozen_values(monkeypatch):
    # a one-dimensional section is irreducible on its face, so only
    # sections of dimension 2 or more build section matrices: the 7
    # that the chain keeps, and three first spins that reach the target
    # without certifying it (4/2 on metabelian_m2_cyclic, 6/3 and 6/4
    # on metabelian_m3_cyclic), after which the search goes on.  The
    # exhaustive search (dense_oracle) certified the 7 alone but made
    # 128 candidate spins where the early stop makes 59.
    built, spins = [], []

    def recording(field, operators, upper, lower):
        built.append(upper.dim - lower.dim)
        return section_matrices(field, operators, upper, lower)

    def counting(*args, **kwargs):
        spins.append(1)
        return spin(*args, **kwargs)

    monkeypatch.setattr("codimlab.exponent.section_matrices", recording)
    monkeypatch.setattr("codimlab.exponent.spin", counting)
    for bench in all_fixtures():
        want = EXPECTED[bench.name]
        report = compute_d(bench)
        assert report.d == want["d"], bench.name
        assert report.witness == want["witness"], bench.name
        assert report.tuples_examined == want["tuples"], bench.name
        assert [s["dim"] for s in report.sections] == want["dims"]
        assert [s["ann_dim"] for s in report.sections] == want["ann"]
        assert [s["complement_hom_dim"]
                for s in report.sections] == want["hom"]
    assert sorted(built) == [2, 2, 2, 2, 3, 3, 3, 3, 3, 6]
    assert len(spins) == 59


def rebased(bench, decomp, rnd):
    """bench and decomp in a random basis, every new vector a
    combination of old ones of its own grading label, so the labels
    stay; the action is conjugated into the new basis, and the parts of
    decomp are moved, as decompose reads its nilradical off the basis."""
    alg = bench.algebra
    field, n = alg.field, alg.dim
    labels = bench.grading.labels if bench.grading else (0,) * n
    while True:
        rows = [[field.from_rational(rnd.choice((0, 0, 1, -1, 2)))
                 if labels[i] == labels[j] else field.zero()
                 for j in range(n)] for i in range(n)]
        columns = MatrixExact(field, list(zip(*rows)))
        try:
            to_new = columns.inverse()
        except ArithmeticError:
            continue
        break
    new = alg.change_of_basis(rows, tuple(f"u{i}" for i in range(n)))
    action = None
    if bench.action is not None:
        action = GroupAction(bench.group, [to_new @ m @ columns
                                           for m in bench.action.matrices])
        assert not action.validate(new)
    assert bench.annotation is None

    def move(sub):
        return new.span([to_new.apply(v) for v in sub.basis])

    return (Workbench(bench.name, new, bench.group, action, bench.grading),
            Decomposition(move(decomp.levi), move(decomp.radical),
                          move(decomp.nilradical), decomp.nilpotency_index))


def chain_outcome(chain_of, bench, decomp):
    """The chain members, or the refusal's reason and details."""
    try:
        return chain_of(bench, decomp)
    except Refusal as refusal:
        return refusal.reason, refusal.details


def plain_sl2_pair():
    return Workbench("sl2_sl2_plain", sl2_sl2(), FiniteGroup.trivial())


BENCHES = {**FIXTURE_BUILDERS, "sl2_sl2_plain": plain_sl2_pair}


def test_chain_matches_exhaustive_search():
    for bench in all_fixtures():
        decomp, _, chain = chain_for(bench)
        assert chain.members == dense_oracle.exhaustive_composition_chain(
            bench, decomp), bench.name


def certified_dims(bench, members):
    """The member dimensions, after checking that every section is
    certified irreducible: one-dimensional or of full envelope."""
    alg = bench.algebra
    operators = _module_operators(alg, resolve_action(bench))
    for upper, lower in zip(members, members[1:]):
        m = upper.dim - lower.dim
        assert m == 1 or envelope_dim(alg.field, m, section_matrices(
            alg.field, operators, upper, lower)) == m * m
    return [member.dim for member in members]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(BENCHES)), st.integers(0, 2 ** 32))
def test_chain_matches_exhaustive_search_in_any_basis(name, seed):
    """In a random basis the candidates change, and the exhaustive
    search may refuse a section (a nilpotent algebra whose centre is no
    candidate).  Where it certifies, the early stop gives its chain.
    Where it refuses, the kernel step finds a certified chain through
    sections of the dimensions in the fixture's own basis; only on the
    plain sl2 + sl2, whose operator kernels mix the two factors, may it
    keep the exhaustive search's refusal."""
    bench = BENCHES[name]()
    decomp = decompose(bench.algebra, None, resolve_action(bench))
    own = [member.dim for member in composition_chain(bench, decomp).members]
    bench, decomp = rebased(bench, decomp, random.Random(seed))
    fast = chain_outcome(
        lambda b, d: composition_chain(b, d).members, bench, decomp)
    slow = chain_outcome(dense_oracle.exhaustive_composition_chain, bench,
                         decomp)
    if isinstance(slow, list):
        assert fast == slow
    elif name == "sl2_sl2_plain" and isinstance(fast, tuple):
        assert fast == slow
    else:
        assert certified_dims(bench, fast) == own


def test_kernel_step_certifies_every_rebased_fixture():
    # the exhaustive search refuses 15 of these 20 rebasings of
    # heisenberg and 8 of metabelian_m2_trivial
    for bench in all_fixtures():
        decomp = decompose(bench.algebra, None, resolve_action(bench))
        own = [m.dim for m in composition_chain(bench, decomp).members]
        for seed in range(20):
            moved, moved_decomp = rebased(bench, decomp, random.Random(seed))
            members = composition_chain(moved, moved_decomp).members
            assert certified_dims(moved, members) == own, (bench.name, seed)


def test_kernel_step_finds_the_centre():
    # in the basis x, y, z + x of the Heisenberg algebra every candidate
    # spins onto a 2-dimensional span(v, z) whose envelope is 2 of 4;
    # the kernel of ad y on it is the centre
    bench = build_fixture("heisenberg")
    alg = bench.algebra
    one, zero = alg.field.one(), alg.field.zero()
    rows = [[one if i == j or (i, j) == (2, 0) else zero for j in range(3)]
            for i in range(3)]
    moved = Workbench("heisenberg_moved", alg.change_of_basis(
        rows, ("u0", "u1", "u2")), FiniteGroup.trivial())
    decomp = decompose(moved.algebra)
    with pytest.raises(Refusal) as slow:
        dense_oracle.exhaustive_composition_chain(moved, decomp)
    assert slow.value.details == {"section_dim": 2, "envelope_dim": 2}
    members = composition_chain(moved, decomp).members
    assert certified_dims(moved, members) == [3, 2, 1, 0]
    centre = moved.algebra.span([[one, zero, -one]])
    assert members[2] == centre


def test_smaller_spin_after_an_uncertified_target(monkeypatch):
    # in the basis e + e', h, f, e', h', f' of sl2 + sl2 the first
    # candidate spins onto all of L, whose envelope (two 3 x 3 blocks,
    # 18 of 36) certifies nothing; the second spins onto the first
    # factor, which is certified on its own, and the first candidate
    # then certifies L over it at once
    alg = sl2_sl2()
    one, zero = alg.field.one(), alg.field.zero()
    rows = [[one if i == j or (i, j) == (0, 3) else zero for j in range(6)]
            for i in range(6)]
    bench = Workbench("sl2_sl2_mixed", alg.change_of_basis(
        rows, tuple(f"u{i}" for i in range(6))), FiniteGroup.trivial())
    decomp = decompose(bench.algebra)
    built = []

    def recording(field, operators, upper, lower):
        built.append((upper.dim, lower.dim))
        return section_matrices(field, operators, upper, lower)

    monkeypatch.setattr("codimlab.exponent.section_matrices", recording)
    members = composition_chain(bench, decomp).members
    assert [m.dim for m in members] == [6, 3, 0]
    assert built == [(6, 0), (3, 0), (6, 3)]
    assert members == dense_oracle.exhaustive_composition_chain(
        bench, decomp)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(sorted(BENCHES)), st.integers(0, 2 ** 32))
def test_section_matrices_match_the_frame_oracle_in_any_basis(name, seed):
    """The matrices of one module in two bases are similar, so tr M and
    tr M M' agree over the operators, on L/N, N/0 and L/0 for N the
    nilradical; a random basis gives lower pivots other than 1."""
    bench = BENCHES[name]()
    decomp = decompose(bench.algebra, None, resolve_action(bench))
    bench, decomp = rebased(bench, decomp, random.Random(seed))
    alg = bench.algebra
    operators = _module_operators(alg, resolve_action(bench))
    full, nil, zero = alg.full_space(), decomp.nilradical, alg.zero_space()
    for upper, lower in ((full, nil), (nil, zero), (full, zero)):
        if upper.dim == lower.dim:
            continue
        fast = section_matrices(alg.field, operators, upper, lower)
        slow = dense_oracle.frame_section_matrices(alg.field, operators,
                                                   upper, lower)
        for mats in (fast, slow):
            assert all(m.rows == upper.dim - lower.dim for m in mats)
        assert [m.trace() for m in fast] == [m.trace() for m in slow]
        assert [(a @ b).trace() for a in fast for b in fast] == \
            [(a @ b).trace() for a in slow for b in slow]


def test_refusal_matches_exhaustive_search():
    bench = rational_m3_bench()
    decomp = decompose(bench.algebra, None, bench.action)
    with pytest.raises(Refusal) as fast:
        composition_chain(bench, decomp)
    with pytest.raises(Refusal) as slow:
        dense_oracle.exhaustive_composition_chain(bench, decomp)
    assert fast.value.reason == slow.value.reason == "undecided"
    assert fast.value.details == slow.value.details == {
        "section_dim": 3, "envelope_dim": 3}


ENVELOPE_FIELDS = [RATIONALS, FieldSpec(3)]


@st.composite
def operator_sets(draw):
    """A field, Q or Q(zeta_3), a size m <= 3 and up to three m x m
    operators with small mostly-zero entries, upper triangular (a
    reducible set) about a third of the time."""
    field = draw(st.sampled_from(ENVELOPE_FIELDS))
    coeff = st.fractions(-2, 2, max_denominator=2)
    m = draw(st.integers(1, 3))
    upper = draw(st.integers(0, 2)) == 0

    def scalar(i, j):
        if (upper and i > j) or draw(st.integers(0, 2)) == 0:
            return field.zero()
        return field.scalar([draw(coeff) for _ in range(field.degree)])

    ops = [MatrixExact(field, [[scalar(i, j) for j in range(m)]
                               for i in range(m)])
           for _ in range(draw(st.integers(1, 3)))]
    return field, m, ops


@settings(max_examples=150, deadline=None)
@given(operator_sets())
def test_envelope_matches_kronecker_oracle(problem):
    field, m, ops = problem
    assert envelope_dim(field, m, ops) == \
        dense_oracle.kronecker_envelope_dim(field, m, ops)


def test_envelope_named_cases():
    for field in ENVELOPE_FIELDS:
        one, zero = field.one(), field.zero()
        unit12 = MatrixExact(field, [[zero, one, zero], [zero, zero, one],
                                     [zero, zero, zero]])
        unit31 = MatrixExact(field, [[zero, zero, zero], [zero, zero, zero],
                                     [one, zero, zero]])
        two = field.from_rational(Fraction(2))
        three = field.from_rational(Fraction(3))
        triangular = MatrixExact(field, [[one, two, zero], [zero, two, one],
                                         [zero, zero, three]])
        rotation = MatrixExact(field, [[zero, -one], [one, zero]])
        cases = [(3, [unit12, unit31], 9),          # the full envelope
                 (3, [triangular, unit12], 6),      # upper triangular
                 (2, [rotation], 2)]                # span(1, rotation)
        for m, ops, want in cases:
            assert envelope_dim(field, m, ops) == want
            assert dense_oracle.kronecker_envelope_dim(field, m, ops) == want


def test_closed_form_rules():
    by_name = {b.name: compute_d(b) for b in all_fixtures()}
    for name, report in by_name.items():
        for check in report.closed_form_checks:
            assert check["agrees"], (name, check)
    rules = {name: {c["rule"] for c in rep.closed_form_checks}
             for name, rep in by_name.items()}
    assert rules["sl2_trivial"] == {"simple_full_dimension",
                                    "semisimple_max_component"}
    assert rules["sl2xsl2_swap"] == {"simple_full_dimension",
                                     "semisimple_max_component"}
    assert rules["heisenberg"] == {"nilpotent_zero"}
    assert rules["gl2_z2_graded"] == set()
    assert rules["metabelian_m2_cyclic"] == set()


def test_orbit_size_oracle_for_metabelian():
    # the invariant should equal the largest orbit of G on the index
    # pairs (a_i, b_i)
    for m in (1, 2, 3):
        bench = build_fixture(f"metabelian_m{m}_cyclic")
        group = bench.group
        images = [tuple((i + k) % m for i in range(m))
                  for k in range(group.order)]
        largest = max(len(orbit) for orbit in orbits(group, images))
        assert compute_d(bench).d == largest == m
    bench = build_fixture("metabelian_m2_trivial")
    images = [tuple(range(2))]
    largest = max(len(orbit) for orbit in orbits(bench.group, images))
    assert compute_d(bench).d == largest == 1


def test_duality_invariance():
    assert compute_d(build_fixture("gl2_z2_graded")).d == \
        compute_d(build_fixture("gl2_z2_action")).d == 3
    assert compute_d(build_fixture("metabelian_graded_m2")).d == \
        compute_d(build_fixture("metabelian_m2_cyclic")).d == 2


def test_bounds():
    for bench in all_fixtures():
        report = compute_d(bench)
        decomp = decompose(bench.algebra, bench.annotation,
                           resolve_action(bench))
        assert 0 <= report.d <= bench.algebra.dim
        nilpotent = decomp.nilradical.dim == bench.algebra.dim
        assert (report.d == 0) == nilpotent, bench.name


def test_report_roundtrip_and_determinism():
    bench = build_fixture("gl2_z2_action")
    first = compute_d(bench).to_json()
    second = compute_d(bench).to_json()
    assert first == second
    payload = compute_d(bench).to_dict()
    assert set(payload) == {"name", "d", "witness", "tuples_examined",
                            "closed_form_checks", "sections", "table"}
    assert payload["name"] == "gl2_z2_action"


def test_witness_is_lexicographic_minimum():
    for bench in all_fixtures():
        report = compute_d(bench)
        rows = [(tuple(r["sections"]), tuple(r["q"]))
                for r in report.table if r["value"] == report.d]
        assert rows, bench.name
        best = min(rows)
        assert report.witness == {"sections": list(best[0]),
                                  "q": list(best[1])}


def test_table_accounts_for_every_tuple():
    report = compute_d(build_fixture("heisenberg"))
    assert len(report.table) == report.tuples_examined == 39
    satisfied = [r for r in report.table if r["value"] is not None]
    assert satisfied and all(r["value"] == 0 for r in satisfied)


def test_rational_field_refusal():
    with pytest.raises(Refusal) as exc:
        compute_d(rational_m3_bench())
    assert exc.value.reason == "undecided"
    assert "section_dim" in exc.value.details
    assert "envelope_dim" in exc.value.details


def test_annihilator_splits_along_decomposition():
    for bench in all_fixtures():
        decomp, _, chain = chain_for(bench)
        for sec in chain.sections:
            result = ann_decomposition_check(bench, decomp, sec.upper,
                                             sec.lower)
            assert result["holds"], (bench.name, sec.index,
                                     result["problems"])
            assert result["ann_dim"] == (result["levi_part_dim"]
                                         + result["complement_part_dim"]
                                         + result["nilradical_dim"])


def test_extra_benches():
    report = compute_d(plain_sl2_pair())
    assert report.d == 3
    assert [s["dim"] for s in report.sections] == [3, 3]
    flat = Workbench("abelian3", abelian(3), FiniteGroup.trivial())
    assert compute_d(flat).d == 0


def test_complement_matches_section_complement():
    # the tuple machinery uses the same equivariant complements the
    # structure module produces; spot-check one against a hand value
    bench = build_fixture("metabelian_m2_cyclic")
    alg = bench.algebra
    decomp = decompose(alg, None, bench.action)
    _, _, chain = chain_for(bench)
    sec = chain.sections[0]
    comp = equivariant_complement(alg, decomp.levi, bench.action,
                                  sec.upper, sec.lower)
    diff = tuple(a - b for a, b in zip(alg.basis_vector(0),
                                       alg.basis_vector(1)))
    assert comp == alg.span([diff])


def test_sweep_budget_prices_the_largest_fixture():
    # 4 sections, q in 0..6, tuples of length r <= 2, at 6^3 each:
    # (28 + 28^2) 216 = 175392 scalar multiplications
    bench = build_fixture("metabelian_m3_cyclic")
    assert compute_d(bench, RunConfig(budget=175392)).d == \
        compute_d(bench).d
    with pytest.raises(Refusal) as refused:
        compute_d(bench, RunConfig(budget=175391))
    assert refused.value.reason == "budget"
    assert refused.value.details == {
        "cost": 175392, "budget": 175391, "sections": 4, "q_max": 6,
        "r_max": 2}
