"""Composition chains, irreducibility certificates, and the
chain-restricted annihilator maximum."""
import pytest

from codimlab.config import Refusal, RunConfig
from codimlab.exponent import (_module_operators, ann_decomposition_check,
                               bracket_chains, composition_chain, compute_d,
                               condition2, envelope_dim, resolve_action,
                               section_matrices)
from codimlab.fixtures import (Workbench, abelian, build_fixture,
                               metabelian, permutation_action, sl2_sl2)
from codimlab.linalg import MatrixExact, proper_invariant_subspace
from codimlab.structure import decompose, equivariant_complement
from codimlab.symmetry import FiniteGroup, orbits
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
    # the 7 sections of dimension 2 or more build section matrices
    built = []

    def recording(field, operators, upper, lower):
        built.append(upper.dim - lower.dim)
        return section_matrices(field, operators, upper, lower)

    monkeypatch.setattr("codimlab.exponent.section_matrices", recording)
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
    assert sorted(built) == [2, 2, 3, 3, 3, 3, 6]


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
    plain_pair = Workbench("sl2_sl2_plain", sl2_sl2(),
                           FiniteGroup.trivial())
    report = compute_d(plain_pair)
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
