"""Codimension engine, identity checking, and cocharacters.

The oracle here evaluates monomials densely from the definition, with
no base-row sharing, no relabeling, and no sparse elimination, then
takes the rank with the dense matrix code.  Engine values are compared
against it at small n and frozen as goldens at the sizes the oracle
cannot reach.
"""
from fractions import Fraction
from itertools import permutations, product
from math import prod

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import dense_oracle
from codimlab import codim as codim_module
from codimlab.codim import (
    _CHECK_PRIMES,
    CodimReport,
    IntRowSpace,
    _blocks,
    cocharacter,
    cocharacters,
    codimension,
    colength,
    empirical_exponent,
    is_identity,
    nth_root_display,
    spanning_cost,
)
from codimlab.cli import main as cli_main
from codimlab.config import Refusal, RunConfig
from codimlab.fixtures import (FIXTURE_BUILDERS, Workbench, abelian,
                               build_fixture, metabelian,
                               permutation_action)
from codimlab.free_polys import parse
from codimlab.lie_core import LieAlgebra
from codimlab.linalg import MatrixExact, _int_rref, modular_rank
from codimlab.partitions import (hook_dim, induced_product, kostka,
                                 mn_character, partitions)
from codimlab.scalar import RATIONALS, FieldSpec
from codimlab.symmetry import (FiniteGroup, Grading, action_to_grading,
                               grading_to_action)
from helpers import all_fixtures
from lattice_oracle import (first_letter_closure, full_closure,
                            full_closure_ranks)
from multilinear_oracle import (LeftNormedMonomial, _block_character,
                                _block_space, _Evaluator, _permute_columns,
                                _row_space, _trace_prime, evaluation_vector,
                                oracle_block_multiplicities,
                                primitive_integer_row)


def oracle_row(bench, flavor, perm, gelts):
    """Dense evaluation vector straight from the definition."""
    L = bench.algebra
    n = len(perm)
    row = []
    for sub in product(range(L.dim), repeat=n):
        value = None
        dead = False
        for t in range(n):
            j = sub[perm[t] - 1]
            if flavor == "graded":
                if bench.grading.labels[j] != gelts[t]:
                    dead = True
                    break
                vec = L.basis_vector(j)
            elif flavor == "g_action":
                vec = bench.action.apply(gelts[t], L.basis_vector(j))
            else:
                vec = L.basis_vector(j)
            value = vec if value is None else L.bracket(value, vec)
        if dead:
            row.extend(L.zero_vector())
        else:
            row.extend(value)
    return row


def oracle_codim(bench, flavor, n):
    gorder = bench.group.order if flavor != "ordinary" else 1
    rows = []
    for perm in permutations(range(1, n + 1)):
        for gelts in product(range(gorder), repeat=n):
            rows.append(oracle_row(bench, flavor, perm, gelts))
    return MatrixExact(bench.algebra.field, rows).rank()


def trivial_bench(name, algebra):
    return Workbench(name, algebra, FiniteGroup.trivial())


# -- evaluation vectors ----------------------------------------------


def test_evaluation_vector_identity_map():
    bench = build_fixture("sl2_trivial")
    row = evaluation_vector(bench, "ordinary", LeftNormedMonomial((1,), (0,)))
    dim = bench.algebra.dim
    one = bench.algebra.field.one()
    assert row == {j * dim + j: one for j in range(dim)}


def test_evaluation_vector_graded_zero():
    # both slots in the diagonal component: bracket of diagonals is zero
    bench = build_fixture("gl2_z2_graded")
    row = evaluation_vector(bench, "graded",
                            LeftNormedMonomial((1, 2), (0, 0)))
    assert row == {}


def test_evaluation_vector_abelian_zero():
    bench = trivial_bench("abelian3", abelian(3))
    row = evaluation_vector(bench, "ordinary",
                            LeftNormedMonomial((1, 2), (0, 0)))
    assert row == {}


def test_evaluation_vector_matches_oracle():
    cases = [
        ("sl2_trivial", "ordinary", (2, 1, 3), (0, 0, 0)),
        ("gl2_z2_graded", "graded", (2, 1), (0, 1)),
        ("gl2_z2_action", "g_action", (1, 3, 2), (1, 0, 1)),
        ("metabelian_m2_cyclic", "g_action", (2, 1), (1, 1)),
    ]
    for name, flavor, perm, gelts in cases:
        bench = build_fixture(name)
        dim = bench.algebra.dim
        sparse = evaluation_vector(
            bench, flavor, LeftNormedMonomial(perm, gelts))
        dense = oracle_row(bench, flavor, perm, gelts)
        rebuilt = list(bench.algebra.zero_vector()) * (dim ** len(perm))
        for key, c in sparse.items():
            rebuilt[key] = c
        assert rebuilt == dense, (name, perm, gelts)


# -- codimension values ----------------------------------------------


ORACLE_POINTS = [
    ("sl2_trivial", "ordinary", 4),
    ("heisenberg", "ordinary", 4),
    ("metabelian_m1_trivial_alias", "ordinary", 4),
    ("gl2_z2_graded", "graded", 3),
    ("gl2_z2_action", "g_action", 3),
    ("metabelian_m2_cyclic", "g_action", 3),
    ("metabelian_graded_m2", "graded", 3),
    ("metabelian_m3_cyclic", "g_action", 3),
    ("sl2xsl2_swap", "g_action", 3),
]


@pytest.mark.parametrize("name,flavor,nmax", ORACLE_POINTS)
def test_codimension_matches_dense_oracle(name, flavor, nmax):
    if name == "metabelian_m1_trivial_alias":
        bench = build_fixture("metabelian_m1_cyclic")
    else:
        bench = build_fixture(name)
    for n in range(1, nmax + 1):
        assert codimension(bench, flavor, n) == \
            oracle_codim(bench, flavor, n), (name, flavor, n)


def test_sl2_ordinary_goldens():
    bench = build_fixture("sl2_trivial")
    values = [codimension(bench, "ordinary", n) for n in range(1, 6)]
    assert values == [1, 1, 2, 6, 14]


def test_gl2_duality_goldens():
    graded = build_fixture("gl2_z2_graded")
    acted = build_fixture("gl2_z2_action")
    gr = [codimension(graded, "graded", n) for n in range(1, 5)]
    ga = [codimension(acted, "g_action", n) for n in range(1, 5)]
    assert gr == [2, 3, 8, 25]
    assert ga == gr


def test_metabelian_duality_goldens():
    graded = build_fixture("metabelian_graded_m2")
    acted = build_fixture("metabelian_m2_cyclic")
    gr = [codimension(graded, "graded", n) for n in range(1, 5)]
    ga = [codimension(acted, "g_action", n) for n in range(1, 5)]
    assert gr == [2, 4, 16, 48]
    assert ga == gr


def test_metabelian_ordinary_is_n_minus_one():
    for m in (1, 2, 3):
        bench = build_fixture(f"metabelian_m{m}_cyclic")
        for n in range(2, 7):
            assert codimension(bench, "ordinary", n) == n - 1, (m, n)


def test_nilpotent_codimensions_vanish():
    bench = build_fixture("heisenberg")
    assert codimension(bench, "ordinary", 2) == 1
    for n in (3, 4, 5):
        assert codimension(bench, "ordinary", n) == 0


def test_abelian_codimensions():
    bench = trivial_bench("abelian2", abelian(2))
    assert codimension(bench, "ordinary", 1) == 1
    assert codimension(bench, "ordinary", 2) == 0


def test_sandwich_bounds_small():
    for name in ("gl2_z2_action", "metabelian_m2_cyclic",
                 "sl2xsl2_swap", "metabelian_m3_cyclic"):
        bench = build_fixture(name)
        gorder = bench.group.order
        for n in range(1, 4):
            plain = codimension(bench, "ordinary", n)
            acted = codimension(bench, "g_action", n)
            assert plain <= acted <= gorder ** n * plain, (name, n)


def test_dimension_bound():
    for name in ("sl2_trivial", "gl2_z2_graded", "gl2_z2_action",
                 "heisenberg", "metabelian_graded_m2"):
        bench = build_fixture(name)
        flavor = ("graded" if bench.grading is not None
                  else "g_action" if bench.action is not None
                  else "ordinary")
        dim = bench.algebra.dim
        for n in range(1, 4):
            assert codimension(bench, flavor, n) <= dim ** (n + 1)


def test_verify_crosscheck_path():
    bench = build_fixture("sl2_trivial")
    config = RunConfig(verify=True)
    assert codimension(bench, "ordinary", 4, config) == 6


# -- budget ----------------------------------------------------------


def test_budget_refusal():
    bench = build_fixture("sl2_trivial")
    with pytest.raises(Refusal) as exc:
        codimension(bench, "ordinary", 6, RunConfig(budget=1000))
    refusal = exc.value
    assert refusal.reason == "budget"
    assert refusal.details["cost"] == spanning_cost(3, 6, 1)
    assert refusal.details["max_feasible_n"] == 3
    assert spanning_cost(3, 3, 1) <= 1000 < spanning_cost(3, 4, 1)
    payload = refusal.to_dict()
    assert payload["refused"] and payload["reason"] == "budget"


def test_budget_env_override(monkeypatch, capsys):
    """The budget is read exactly, however large; a value that is no
    finite number is refused with the message, and the CLI exits 2."""
    for raw, value in [("123456", 123456), ("1e9", 10 ** 9),
                       ("1e400", 10 ** 400),
                       ("1000000000000000000000001", 10 ** 24 + 1)]:
        monkeypatch.setenv("CODIMLAB_BUDGET", raw)
        assert RunConfig().budget == value
    monkeypatch.setenv("CODIMLAB_BUDGET", "0")
    with pytest.raises(ValueError):
        RunConfig()
    for raw in ("inf", "nan", "1/0"):
        monkeypatch.setenv("CODIMLAB_BUDGET", raw)
        with pytest.raises(ValueError, match="must be numeric"):
            RunConfig()
        assert cli_main(["codim", "--algebra", "sl2_trivial", "--flavor",
                         "ordinary", "--n", "1"]) == 2
        assert "must be numeric" in capsys.readouterr().err


# -- identity checking -----------------------------------------------


def test_is_identity_action_example():
    bench = build_fixture("gl2_z2_action")
    poly = parse("[x1 + x1^psi, x2 + x2^psi]", bench.group,
                 bench.algebra.field)
    report = is_identity(bench, "g_action", poly)
    assert report.is_identity and report.witness is None


def test_is_identity_graded_example():
    bench = build_fixture("gl2_z2_graded")
    poly = parse("[x1^e, x2^e]", bench.group, bench.algebra.field)
    assert is_identity(bench, "graded", poly).is_identity
    odd = parse("[x1^t, x2^t]", bench.group, bench.algebra.field)
    report = is_identity(bench, "graded", odd)
    assert not report.is_identity
    assert set(report.witness["substitution"]) == {"x1", "x2"}


def test_is_identity_graded_rejects_a_variable_in_two_degrees():
    # L_e and L_t share no basis vector, so no substitution would be
    # tried and the verdict would hold vacuously
    bench = build_fixture("gl2_z2_graded")
    for text in ("[x1 + x1^t, x2]", "[x1^e + x1^t, x2^e]"):
        poly = parse(text, bench.group, bench.algebra.field)
        with pytest.raises(ValueError, match="x1 appears in degrees e, t"):
            is_identity(bench, "graded", poly)
    # a decoration is rho(psi) in the action flavour and is ignored
    # in the ordinary one, so mixing them is fine there
    action = build_fixture("gl2_z2_action")
    mixed = parse("[x1 + x1^psi, x2]", action.group, action.algebra.field)
    assert not is_identity(action, "g_action", mixed).is_identity
    mixed = parse("[x1 + x1^t, x2]", bench.group, bench.algebra.field)
    assert not is_identity(bench, "ordinary", mixed).is_identity


def test_is_identity_ordinary_witness():
    bench = build_fixture("sl2_trivial")
    poly = parse("[x1, x2]")
    report = is_identity(bench, "ordinary", poly)
    assert not report.is_identity
    assert report.witness["substitution"].keys() == {"x1", "x2"}


def test_is_identity_rejects_nonmultilinear():
    bench = build_fixture("sl2_trivial")
    with pytest.raises(ValueError):
        is_identity(bench, "ordinary", parse("[x1, x2, x1]"))
    with pytest.raises(ValueError):
        is_identity(bench, "ordinary", parse("[x1, x2] + x3"))


# -- reports ---------------------------------------------------------


def test_nth_root_display():
    assert nth_root_display(8, 3) == 2
    assert nth_root_display(0, 4) == 0
    assert nth_root_display(1, 7) == 1
    assert nth_root_display(5, 2) == Fraction(2236, 1000)
    assert nth_root_display(14, 5) == Fraction(1695, 1000)


def test_codim_report_formats():
    bench = build_fixture("sl2_trivial")
    report = empirical_exponent(bench, "ordinary", 3)
    assert isinstance(report, CodimReport)
    csv = report.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "n,flavor,c_n,root_num,root_den"
    assert lines[1] == "1,ordinary,1,1,1"
    assert lines[3] == "3,ordinary,2,1259,1000"
    again = empirical_exponent(bench, "ordinary", 3)
    assert again.to_json() == report.to_json()


def test_empirical_exponent_budget_precheck():
    bench = build_fixture("sl2_trivial")
    with pytest.raises(Refusal):
        empirical_exponent(bench, "ordinary", 8, RunConfig(budget=10 ** 6))


# -- cocharacters ----------------------------------------------------


def cycle_type_of(perm):
    n = len(perm)
    seen = [False] * n
    lengths = []
    for i in range(n):
        if seen[i]:
            continue
        j, count = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j] - 1
            count += 1
        lengths.append(count)
    return tuple(sorted(lengths, reverse=True))


def oracle_multiplicity(bench, flavor, n, lam):
    """m(lam) from the isotypic projector: the rank of
    { sum_sigma chi(sigma) (sigma . w) : w in W } is m * hook_dim."""
    from multilinear_oracle import _row_space

    ev, space, _ = _row_space(bench, flavor, n)
    dim = ev.dim
    field = ev.field
    rational = field.order == 1
    basis_rows = list(space.pivots.values())
    if rational:
        basis_rows = [{k: Fraction(v) for k, v in row.items()}
                      for row in basis_rows]
    projected = []
    for row in basis_rows:
        acc = {}
        for sigma in permutations(range(1, n + 1)):
            chi = mn_character(lam, cycle_type_of(sigma))
            if not chi:
                continue
            for key, c in _permute_columns(row, sigma, dim, n).items():
                cur = acc.get(key, 0 if rational else field.zero())
                val = cur + c * chi
                if val:
                    acc[key] = val
                else:
                    acc.pop(key, None)
        projected.append(acc)
    if rational:
        rows = [[r.get(k, Fraction(0)) for k in sorted(
            {kk for rr in projected for kk in rr})] for r in projected]
    else:
        rows = [[r.get(k, field.zero()) for k in sorted(
            {kk for rr in projected for kk in rr})] for r in projected]
    if not rows or not rows[0]:
        return 0
    rank = MatrixExact(field, [
        [field.from_rational(v) if rational else v for v in row]
        for row in rows]).rank()
    assert rank % hook_dim(lam) == 0
    return rank // hook_dim(lam)


def test_cocharacter_sl2_degree3():
    bench = build_fixture("sl2_trivial")
    report = cocharacter(bench, "ordinary", 3)
    assert report.multiplicities == {(2, 1): 1}
    assert report.codim == 2
    assert report.colength == 1


def test_cocharacter_abelian():
    bench = trivial_bench("abelian2", abelian(2))
    assert cocharacter(bench, "ordinary", 2).multiplicities == {}
    report = cocharacter(bench, "ordinary", 1)
    assert report.multiplicities == {(1,): 1}
    assert colength(bench, "ordinary", 1) == 1


def test_cocharacter_row_limit():
    # multiplicities vanish once the diagram is taller than dim L
    for name, flavor in [("sl2_trivial", "ordinary"),
                         ("gl2_z2_action", "g_action"),
                         ("metabelian_m1_cyclic", "ordinary")]:
        bench = build_fixture(name)
        dim = bench.algebra.dim
        for n in range(1, 5):
            report = cocharacter(bench, flavor, n)
            for lam in report.multiplicities:
                assert len(lam) <= dim, (name, n, lam)


def test_cocharacter_bookkeeping():
    for name, flavor in [("sl2_trivial", "ordinary"),
                         ("gl2_z2_graded", "graded"),
                         ("gl2_z2_action", "g_action"),
                         ("metabelian_m2_cyclic", "g_action"),
                         ("metabelian_m3_cyclic", "g_action"),
                         ("heisenberg", "ordinary")]:
        bench = build_fixture(name)
        for n in range(1, 4):
            report = cocharacter(bench, flavor, n)
            total = sum(m * hook_dim(lam)
                        for lam, m in report.multiplicities.items())
            assert total == report.codim
            assert report.codim == codimension(bench, flavor, n)
            assert all(m > 0 for m in report.multiplicities.values())


def test_cocharacter_against_isotypic_oracle():
    cases = [("sl2_trivial", "ordinary", 3),
             ("sl2_trivial", "ordinary", 4),
             ("metabelian_m1_cyclic", "ordinary", 3),
             ("gl2_z2_action", "g_action", 2),
             ("metabelian_m3_cyclic", "g_action", 2)]
    for name, flavor, n in cases:
        bench = build_fixture(name)
        report = cocharacter(bench, flavor, n)
        for lam in partitions(n):
            expected = oracle_multiplicity(bench, flavor, n, lam)
            assert report.multiplicities.get(lam, 0) == expected, \
                (name, flavor, n, lam)


def test_cocharacter_metabelian_golden():
    bench = build_fixture("metabelian_m1_cyclic")
    report = cocharacter(bench, "ordinary", 3)
    assert report.codim == 2
    assert sum(m * hook_dim(lam)
               for lam, m in report.multiplicities.items()) == 2


def test_cocharacter_report_json_deterministic():
    bench = build_fixture("gl2_z2_action")
    a = cocharacter(bench, "g_action", 2).to_json()
    b = cocharacter(bench, "g_action", 2).to_json()
    assert a == b
    assert '"codim_check"' in a


def test_colength_one_at_degree_one():
    for name in ("sl2_trivial", "heisenberg"):
        bench = build_fixture(name)
        assert colength(bench, "ordinary", 1) == 1


def test_cocharacters_match_one_element_ranges():
    """The range 1..5 read off one lattice gives the reports that each
    n gives on its own, on every bundled fixture and flavour."""
    config = RunConfig(budget=10 ** 30)
    for bench in all_fixtures():
        flavors = ["ordinary"] + ["graded"] * (bench.grading is not None) \
            + ["g_action"] * (bench.action is not None)
        for flavor in flavors:
            assert cocharacters(bench, flavor, 1, 5, config) == \
                [cocharacter(bench, flavor, n, config)
                 for n in range(1, 6)], (bench.name, flavor)


def test_cocharacter_rejects_degrees_below_one():
    bench = build_fixture("sl2_trivial")
    for n in (0, -1):
        with pytest.raises(ValueError, match="n must be at least 1"):
            cocharacter(bench, "ordinary", n)
        with pytest.raises(ValueError, match="n must be at least 1"):
            cocharacters(bench, "ordinary", n, 3)
    with pytest.raises(ValueError, match="n_max must be at least n_min"):
        cocharacters(bench, "ordinary", 4, 3)


# -- rational trace prime --------------------------------------------


def test_trace_prime_guard():
    p, q = _CHECK_PRIMES
    assert _trace_prime([1, -3, 7], 5) == p
    # a lead divisible by the first prime moves the choice on
    assert _trace_prime([2, -p], 5) == q
    with pytest.raises(ArithmeticError):
        _trace_prime([p * q], 5)
    # the symmetric residue needs p > 2 c_n
    assert _trace_prime([1], p // 2) == p
    with pytest.raises(ArithmeticError):
        _trace_prime([1], p // 2 + 1)


@st.composite
def offered_rows(draw):
    """Sparse integer rows over the keys 0..7 whose elimination runs
    both steps of IntRowSpace.add: the first row is primitive with lead
    b >= 2 at key 0, the second has lead q b there (the exact quotient)
    and the third b q + 1, which b does not divide (the scaled step);
    random rows follow."""
    entries = st.integers(-6, 6)
    tail = st.dictionaries(st.integers(1, 7), entries, max_size=5)
    b = draw(st.integers(2, 4))
    q = draw(st.integers(-3, 3).filter(bool))
    first = {**draw(tail), 0: b, 7: 1}
    rows = [first, {**draw(tail), 0: q * b}, {**draw(tail), 0: q * b + 1}]
    rows += draw(st.lists(st.dictionaries(st.integers(0, 7), entries,
                                          max_size=6), max_size=8))
    return [{k: v for k, v in row.items() if v} for row in rows]


@settings(max_examples=80, deadline=None)
@given(offered_rows())
def test_int_row_space_add_against_dense_oracle(rows):
    """IntRowSpace.add keeps the rank of the Scalar RREF and of the
    modular ranks, its pivots have distinct least keys and span the
    offered rows, and every offered dict is left as it was given.  The
    Lie layer's RREF, the other caller of linalg.reduce_row, is the
    Scalar RREF scaled to primitive rows, and leaves its rows as given."""
    given_rows = [dict(row) for row in rows]
    space = IntRowSpace()
    kept = [space.add(row) for row in rows]
    assert rows == given_rows
    dense = [[row.get(k, 0) for k in range(8)] for row in rows]
    f = RATIONALS
    reduced, pivots = dense_oracle.rref_rows(
        f, [[f.from_rational(x) for x in r] for r in dense], 8)
    given_dense = [list(r) for r in dense]
    assert _int_rref(dense, 8) == (
        [primitive_integer_row(r) for r in reduced], pivots)
    assert dense == given_dense
    rank = len(pivots)
    assert space.rank == sum(kept) == rank
    for p in _CHECK_PRIMES:
        assert modular_rank(dense, p) == rank
    assert all(min(pivot) == k for k, pivot in space.pivots.items())
    pivots = [[pivot.get(k, 0) for k in range(8)]
              for pivot in space.pivots.values()]
    assert modular_rank(dense + pivots, _CHECK_PRIMES[0]) == rank


def test_int_row_space_add_steps():
    """The exact-quotient step subtracts (a // b) pivot and the scaled
    step keeps the row's multiple (b / g) row - (a / g) pivot, each
    reduced to its content when it becomes a pivot."""
    space = IntRowSpace()
    assert space.add({0: -2, 1: 1})
    exact = {0: 6, 1: 1, 2: 4}
    # 6 = (-3)(-2): the row minus -3 times the pivot is {1: 4, 2: 4}
    assert space.add(exact) and space.pivots[1] == {1: 1, 2: 1}
    assert exact == {0: 6, 1: 1, 2: 4}
    scaled = {0: 3, 2: 5, 3: 2}
    # -2 does not divide 3: -2 row - 3 pivot is {1: -3, 2: -10, 3: -4},
    # then + 3 times {1: 1, 2: 1} leaves {2: -7, 3: -4}
    assert space.add(scaled) and space.pivots[2] == {2: -7, 3: -4}
    assert scaled == {0: 3, 2: 5, 3: 2}
    # 3 times the sum of the three pivots
    assert not space.add({0: -6, 1: 6, 2: -18, 3: -12})
    assert space.rank == 3


def test_verify_cross_checks_the_rows_as_offered(monkeypatch):
    """--verify keeps every offered row for its modular cross-check;
    add never changes them, so the cross-check reads each row as it
    was offered, for every V(nu) built."""
    offered, checked = [], []
    original, check = IntRowSpace.add, codim_module._cross_check_rank

    def recording(self, row):
        offered.append(dict(row))
        return original(self, row)

    def spy(int_rows, expected):
        checked.extend(dict(row) for row in int_rows)
        check(int_rows, expected)

    monkeypatch.setattr(IntRowSpace, "add", recording)
    monkeypatch.setattr(codim_module, "_cross_check_rank", spy)
    bench = build_fixture("sl2xsl2_swap")
    assert codimension(bench, "g_action", 4, RunConfig(verify=True)) == 96
    # each V(nu) is cross-checked on the rows it was offered, in order,
    # the starts of the V(e_r) included
    assert checked and checked == offered


def test_coordinates_mod_p_read_back():
    space = IntRowSpace()
    assert space.add({0: 2, 2: 1})
    assert space.add({1: 2, 2: 1})
    p = _CHECK_PRIMES[0]
    # {0: 1, 1: 1, 2: 1} = 1/2 (2, 0, 1) + 1/2 (0, 2, 1)
    half = pow(2, -1, p)
    assert space.coordinates({0: 1, 1: 1, 2: 1}, p) == {0: half, 1: half}
    assert space.coordinates({0: -4, 1: 2, 2: -1}, p) == {0: p - 2, 1: 1}
    assert space.coordinates({2: 5}, p) is None


# -- generated algebras ----------------------------------------------


DIM_CAP = 5


def _unit_bracket(a, b):
    """[E_a, E_b] for distinct matrix units a = (i, j), b = (k, l)."""
    out = {}
    if a[1] == b[0]:
        out[(a[0], b[1])] = 1
    if b[1] == a[0]:
        out[(b[0], a[1])] = -1
    return out


@st.composite
def matrix_unit_algebras(draw):
    """(units, node degrees, m): a set of gl_3 or gl_4 matrix units
    closed under the commutator, and a Z_m degree per matrix index.

    The strictly-upper units are closed under (i,j),(j,k) -> (i,k);
    any diagonal units may be added, since they only rescale upper
    ones.  deg(E_ij) = g_j - g_i then grades the span."""
    size = draw(st.sampled_from([3, 4]))
    pairs = [(i, j) for i in range(size) for j in range(i + 1, size)]
    upper = set(draw(st.lists(st.sampled_from(pairs), max_size=3,
                              unique=True)))
    while True:
        extra = {(i, l) for i, j in upper for k, l in upper
                 if j == k} - upper
        if not extra:
            break
        upper |= extra
    diagonal = draw(st.lists(st.integers(0, size - 1), max_size=size,
                             unique=True))
    units = sorted(upper) + [(i, i) for i in sorted(diagonal)]
    assume(1 <= len(units) <= DIM_CAP)
    m = draw(st.sampled_from([2, 3]))
    nodes = draw(st.lists(st.integers(0, m - 1), min_size=size,
                          max_size=size))
    return units, nodes, m


def _unit_algebra(units, field, shifts=None):
    """The span of the units, in the basis zeta^shifts[a] E_a when
    shifts are given, so that the bracket constants are powers of
    zeta."""
    index = {u: i for i, u in enumerate(units)}
    shifts = shifts or [0] * len(units)
    brackets = {}
    for a in range(len(units)):
        for b in range(a + 1, len(units)):
            comp = _unit_bracket(units[a], units[b])
            brackets[(a, b)] = {
                index[u]: field.from_rational(c) * field.root_of_unity(
                    shifts[a] + shifts[b] - shifts[index[u]])
                for u, c in comp.items()}
    names = [f"E{i + 1}{j + 1}" for i, j in units]
    return LieAlgebra(field, names, brackets)


def _check_against_oracles(bench, flavor, n_max=3):
    codims = []
    for n in range(1, n_max + 1):
        c = codimension(bench, flavor, n)
        assert c == oracle_codim(bench, flavor, n), (flavor, n)
        report = cocharacter(bench, flavor, n)
        for lam in partitions(n):
            assert report.multiplicities.get(lam, 0) == \
                oracle_multiplicity(bench, flavor, n, lam), (flavor, n, lam)
        codims.append(c)
    return codims


@settings(max_examples=12, deadline=None)
@given(matrix_unit_algebras())
def test_generated_algebras_match_dense_oracles(spec):
    units, nodes, m = spec
    group = FiniteGroup.cyclic(m)
    labels = tuple((nodes[j] - nodes[i]) % m for i, j in units)
    grading = Grading(group, labels)
    graded_alg = _unit_algebra(units, RATIONALS)
    assert graded_alg.validate().ok
    assert not grading.validate(graded_alg)
    graded = Workbench("units", graded_alg, group, grading=grading)
    gr = _check_against_oracles(graded, "graded")

    # the dual action needs m-th roots of unity
    field = RATIONALS if m == 2 else FieldSpec(m)
    acted_alg = _unit_algebra(units, field)
    dual, action = grading_to_action(acted_alg, grading)
    assert not action.validate(acted_alg)
    acted = Workbench("units_dual", acted_alg, dual, action=action)
    assert action_to_grading(acted_alg, action).labels == tuple(
        sorted(labels))
    ga = _check_against_oracles(acted, "g_action")
    assert gr == ga


# -- blocks against the per-tuple path -------------------------------


def _per_tuple(bench, flavor, n):
    """c_n and multiplicities of one row space over all |G|^n
    decoration tuples, traced under the whole of S_n."""
    ev, space, _ = _row_space(bench, flavor, n)
    if not space.rank:
        return 0, {}
    chars = _block_character(ev, space, (n,), n)
    return space.rank, {shapes[0]: m for shapes, m in chars.items()}


def _abelian_orders_dropped(bench):
    group = FiniteGroup(bench.group.names, bench.group.table)
    return Workbench(bench.name + "_plain", bench.algebra, group,
                     action=type(bench.action)(group,
                                               bench.action.matrices))


def _generated_workbenches(spec):
    """(graded, acted, plain) of a matrix_unit_algebras draw: the
    graded span over Q, the dual action over a field with the m-th
    roots of unity, and that action with its abelian_orders dropped,
    which the engine does not dualise."""
    units, nodes, m = spec
    group = FiniteGroup.cyclic(m)
    grading = Grading(group, tuple((nodes[j] - nodes[i]) % m
                                   for i, j in units))
    graded = Workbench("units", _unit_algebra(units, RATIONALS), group,
                       grading=grading)
    field = RATIONALS if m == 2 else FieldSpec(m)
    acted_alg = _unit_algebra(units, field)
    dual, action = grading_to_action(acted_alg, grading)
    acted = Workbench("units_dual", acted_alg, dual, action=action)
    return graded, acted, _abelian_orders_dropped(acted)


@settings(max_examples=8, deadline=None)
@given(matrix_unit_algebras())
def test_generated_blocks_match_per_tuple_path(spec):
    graded, acted, plain = _generated_workbenches(spec)
    assert _blocks(acted, "g_action", 2)[0].flavor == "graded"
    assert _blocks(plain, "g_action", 2)[0].flavor == "g_action"
    for n in range(1, 5):
        report = cocharacter(graded, "graded", n)
        assert report.codim == codimension(graded, "graded", n) \
            == _row_space(graded, "graded", n)[1].rank, n
        for lam in partitions(n):
            assert report.multiplicities.get(lam, 0) == \
                oracle_multiplicity(graded, "graded", n, lam), (n, lam)
        dualised = cocharacter(acted, "g_action", n)
        assert (dualised.codim, dualised.multiplicities) == \
            _per_tuple(acted, "g_action", n) == \
            (report.codim, report.multiplicities), n
        fallback = cocharacter(plain, "g_action", n)
        assert (fallback.codim, fallback.multiplicities) == \
            (report.codim, report.multiplicities), n
        assert codimension(plain, "g_action", n) == report.codim


def test_metabelian_m3_fallback_over_q_matches_dual_path():
    """Z_3 cycling the index pairs of metabelian(3) over Q has no
    cube roots of unity to dualise with, so it takes the per-tuple
    block; the bundled fixture over Q(zeta_3) takes the dual grading.
    Rank does not change under field extension."""
    over_q = metabelian(3)
    group = FiniteGroup.cyclic(3, gen_name="tau")
    perms = [tuple([(i + k) % 3 for i in range(3)]
                   + [3 + (i + k) % 3 for i in range(3)])
             for k in range(3)]
    plain = Workbench("metabelian_m3_q", over_q, group,
                      action=permutation_action(over_q, group, perms))
    bundled = build_fixture("metabelian_m3_cyclic")
    assert _blocks(plain, "g_action", 2)[0].flavor == "g_action"
    assert _blocks(bundled, "g_action", 2)[0].flavor == "graded"
    config = RunConfig(budget=10 ** 12)
    for n in range(1, 6):
        assert codimension(plain, "g_action", n, config) == \
            codimension(bundled, "g_action", n, config), n
    for n in range(1, 5):
        a = cocharacter(plain, "g_action", n)
        b = cocharacter(bundled, "g_action", n)
        assert (a.codim, a.multiplicities) == \
            (b.codim, b.multiplicities), n


def test_blocks_weights_and_young_parts():
    ev, blocks = _blocks(build_fixture("gl2_z2_action"), "g_action", 4)
    assert ev.bench.name == "gl2_z2_action"
    assert blocks == [((0, 4), 1), ((1, 3), 4), ((2, 2), 6), ((3, 1), 4),
                      ((4, 0), 1)]
    ev, blocks = _blocks(build_fixture("sl2_trivial"), "ordinary", 4)
    assert blocks == [((4,), 1)]


def test_block_rows_move_decorations_with_variables():
    """A block's rows are those of its x_1-first monomials, each
    variable keeping its own decoration."""
    bench = build_fixture("gl2_z2_graded")
    ev = _Evaluator(bench, "graded")
    d = (0, 0, 1, 1)
    expected = [evaluation_vector(bench, "graded", LeftNormedMonomial(
        (1,) + rest, tuple(d[v - 1] for v in (1,) + rest)))
        for rest in permutations(range(2, 5))]
    assert list(ev.rows(4, [d])) == [row for row in expected if row]


def test_degree_one_field_takes_integer_rows():
    bench = build_fixture("metabelian_graded_m2")
    assert bench.algebra.field == FieldSpec(2)
    ev = _Evaluator(bench, "graded")
    space, _ = _block_space(ev, 3, [(0, 1, 1)])
    assert isinstance(space, IntRowSpace) and space.rank
    report = cocharacter(bench, "graded", 4)
    assert report.codim == codimension(bench, "graded", 4) == 48


def test_verify_cross_checks_every_component(monkeypatch):
    built, checked, calls = [], [], []
    init = IntRowSpace.__init__
    check = codim_module._cross_check_rank
    lattice = codim_module._lattice_ranks

    def build(self):
        built.append(self)
        init(self)

    def spy(int_rows, expected):
        checked.append(expected)
        check(int_rows, expected)

    def ranks(*args):
        calls.append(lattice(*args))
        return calls[-1]

    monkeypatch.setattr(IntRowSpace, "__init__", build)
    monkeypatch.setattr(codim_module, "_cross_check_rank", spy)
    monkeypatch.setattr(codim_module, "_lattice_ranks", ranks)
    bench = build_fixture("gl2_z2_action")
    assert codimension(bench, "g_action", 4, RunConfig(verify=True)) == 25
    # per composition (a, 4 - a) of the dual grading, the targets are
    # one partition of a and one of 4 - a, each with at most dim L_g
    # parts; every block shares one lattice with min(4, dim L_g)
    # letters of degree g, the targets padded with zeros to them.  One
    # V(nu) is built for every nu that the first-letter terms reach
    # from a target of any block, and each is cross-checked at the
    # rank it ends with
    [shared] = calls
    ev, blocks = _blocks(bench, "g_action", 4)
    widths = [len(ev.bench.grading.component_indices(g)) for g in (0, 1)]
    slots = [min(4, w) for w in widths]
    tops, total = set(), 0
    for parts, weight in blocks:
        targets = list(product(*([mu for mu in partitions(a) if len(mu) <= w]
                                 for a, w in zip(parts, widths))))
        tops |= {sum((mu + (0,) * (k - len(mu))
                      for mu, k in zip(mus, slots)), ()) for mus in targets}
        # the target ranks, solved through the Kostka matrices and
        # weighted back to c_4
        solved = {}
        for mus in targets:
            m = shared[mus] - sum(
                mult * prod(kostka(lam, mu) for lam, mu in zip(lams, mus))
                for lams, mult in solved.items())
            assert m >= 0
            solved[mus] = m
        total += weight * sum(m * prod(hook_dim(lam) for lam in lams)
                              for lams, m in solved.items())
    # 42 compositions lie below the targets; the first-letter rule
    # reaches 34 of them
    assert len(full_closure(tops)) == 42
    spaces = len(first_letter_closure(tops))
    assert checked == [space.rank for space in built]
    assert len(checked) == spaces == 34
    assert total == 25


def test_verify_catches_a_row_lost_at_an_inner_level(monkeypatch):
    """An elimination that wrongly rejects one independent row leaves
    a weight space too small, and every V(nu) above it is built from
    that space; --verify cross-checks every V(nu) it builds, so it
    raises at the level where the row is lost."""
    bench = build_fixture("sl2_trivial")
    init, original = IntRowSpace.__init__, IntRowSpace.add
    spaces, calls = [], []  # in creation order; (space, absorbed)

    def build(self):
        spaces.append(self)
        init(self)

    def recording(self, row):
        calls.append((self, original(self, row)))
        return calls[-1][1]

    monkeypatch.setattr(IntRowSpace, "__init__", build)
    monkeypatch.setattr(IntRowSpace, "add", recording)
    assert codimension(bench, "ordinary", 5) == 14
    # the lattice is built level by level: first V(e_r) for the three
    # letters, last the five targets (5), (4,1), (3,2), (3,1,1),
    # (2,2,1); the victim is a space between them offered one row,
    # which it absorbs, so nothing later can make up for its loss
    victim = next(space for space in spaces[3:]
                  if [ok for s, ok in calls if s is space] == [True])
    assert spaces.index(victim) < len(spaces) - 5
    lost = next(k for k, (s, _) in enumerate(calls) if s is victim)
    count = iter(range(len(calls)))

    def faulty(self, row):
        if next(count) == lost:
            return False
        return original(self, row)

    monkeypatch.setattr(IntRowSpace, "add", faulty)
    with pytest.raises(ArithmeticError, match="cross-check"):
        codimension(bench, "ordinary", 5, RunConfig(verify=True))


def test_verify_cross_checks_cyclotomic_components(monkeypatch):
    """--verify cross-checks the components of a fixture over
    Q(zeta_3) whether its rows descend to Q or are realified."""
    checked = []
    original = codim_module._cross_check_rank

    def spy(int_rows, expected):
        checked.append(expected)
        original(int_rows, expected)

    monkeypatch.setattr(codim_module, "_cross_check_rank", spy)
    bench = build_fixture("metabelian_m3_cyclic")
    config = RunConfig(budget=10 ** 12)
    verified = RunConfig(budget=10 ** 12, verify=True)
    # the dual grading has rational constants: rows descend to Q
    assert codimension(bench, "g_action", 5, verified) == \
        codimension(bench, "g_action", 5, config)
    assert checked
    # the same grading as a diagonal Q(zeta_3) action, taken as one
    # block: the rows are realified, and each rational rank is even
    dual = _blocks(bench, "g_action", 1)[0].bench
    group, action = grading_to_action(dual.algebra, dual.grading)
    diagonal = _abelian_orders_dropped(
        Workbench("diagonal", dual.algebra, group, action=action))
    assert codim_module._letter_data(
        codim_module._Evaluator(diagonal, "g_action"))[0] == 2
    checked.clear()
    for n in range(1, 4):
        assert codimension(diagonal, "g_action", n, verified) == \
            codimension(bench, "g_action", n, config), n
    assert checked and all(rank % 2 == 0 for rank in checked)


@st.composite
def keyed_rows(draw):
    dim = draw(st.integers(1, 4))
    n = draw(st.integers(1, 5))
    keys = draw(st.sets(st.integers(0, dim ** (n + 1) - 1), max_size=12))
    perm = tuple(draw(st.permutations(range(1, n + 1))))
    return {key: draw(st.integers(-3, 3)) for key in keys}, perm, dim, n


def digit_list_permute(row, perm, dim, n):
    """Oracle: spell each key as its list of n + 1 base-dim digits,
    move the n substitution digits by perm, and spell it back."""
    out = {}
    for key, c in row.items():
        digits = []
        for _ in range(n + 1):
            key, d = divmod(key, dim)
            digits.append(d)
        digits.reverse()
        subs, k = digits[:n], digits[n]
        new = 0
        for d in [subs[perm[j] - 1] for j in range(n)] + [k]:
            new = new * dim + d
        out[new] = c
    return out


@settings(max_examples=150, deadline=None)
@given(keyed_rows())
def test_permute_columns_matches_digit_lists(problem):
    row, perm, dim, n = problem
    assert _permute_columns(row, perm, dim, n) == \
        digit_list_permute(row, perm, dim, n)


# -- weight-space engine against the multilinear oracle ---------------


def _oracle_cocharacter(bench, flavor, n):
    """(c_n, multiplicities, per-block characters) from the multilinear
    block oracle, induced to S_n."""
    c_n, mults, per_block = 0, {}, []
    for parts, weight, chars in oracle_block_multiplicities(bench, flavor,
                                                            n):
        per_block.append(chars)
        for shapes, m in chars.items():
            c_n += weight * m * prod(hook_dim(lam) for lam in shapes)
            for lam, c in induced_product(shapes).items():
                mults[lam] = mults.get(lam, 0) + m * c
    return c_n, mults, per_block


def _check_against_multilinear(bench, flavor, n):
    c_n, mults, per_block = _oracle_cocharacter(bench, flavor, n)
    engine = [chars for _, _, chars in codim_module._block_characters(
        bench, flavor, n, n, RunConfig())[n]]
    assert engine == per_block, (flavor, n)
    report = cocharacter(bench, flavor, n)
    assert (report.codim, report.multiplicities) == (c_n, mults), \
        (flavor, n)
    assert codimension(bench, flavor, n) == c_n, (flavor, n)


# draws whose lattice takes a slice (test_oracle_draws_include_slices),
# each with zeta shifts for the cyclotomic test: E11 in <E12, E11>, and
# E12 + E13 in the degree-1 part of <E12, E13, E11, E22>, whose
# degree-0 part is abelian
SLICED_DRAWS = [(([(0, 1), (0, 0)], [0, 0, 0], 2), [0, 1, 0, 0, 0]),
                (([(0, 1), (0, 2), (0, 0), (1, 1)], [0, 1, 1], 2),
                 [0, 1, 2, 0, 0])]


@settings(max_examples=10, deadline=None)
@given(matrix_unit_algebras())
@example(SLICED_DRAWS[0][0])
@example(SLICED_DRAWS[1][0])
def test_generated_weight_engine_matches_multilinear_oracle(spec):
    graded, acted, plain = _generated_workbenches(spec)
    for n in range(1, 6):
        _check_against_multilinear(graded, "graded", n)
        _check_against_multilinear(graded, "ordinary", n)
        _check_against_multilinear(acted, "g_action", n)
    for n in range(1, 5):
        _check_against_multilinear(plain, "g_action", n)


@settings(max_examples=8, deadline=None)
@given(matrix_unit_algebras(),
       st.lists(st.integers(0, 2), min_size=DIM_CAP, max_size=DIM_CAP))
@example(*SLICED_DRAWS[0])
@example(*SLICED_DRAWS[1])
def test_generated_cyclotomic_constants_match_multilinear_oracle(spec,
                                                                 shifts):
    """The generated algebras over Q(zeta_3) in a basis rescaled by
    powers of zeta, where some bracket constants are not rational: the
    realified integer rows against the oracle's cyclotomic row space,
    in every flavour and through both G-action routes."""
    units, nodes, m = spec
    field = FieldSpec(3)
    algebra = _unit_algebra(units, field, shifts)
    assert algebra.validate().ok
    assume(any(c.as_rational() is None for comp in algebra.table.values()
               for c in comp.values()))
    group = FiniteGroup.cyclic(m)
    grading = Grading(group, tuple((nodes[j] - nodes[i]) % m
                                   for i, j in units))
    graded = Workbench("units_zeta", algebra, group, grading=grading)
    dual, action = grading_to_action(algebra, grading)
    acted = Workbench("units_zeta_dual", algebra, dual, action=action)
    plain = _abelian_orders_dropped(acted)
    for bench, flavor in ((graded, "ordinary"), (graded, "graded"),
                          (plain, "g_action")):
        ev = codim_module._Evaluator(bench, flavor)
        assert codim_module._letter_data(ev)[0] == field.degree, flavor
    for n in range(1, 5):
        _check_against_multilinear(graded, "ordinary", n)
        _check_against_multilinear(graded, "graded", n)
        _check_against_multilinear(acted, "g_action", n)
        _check_against_multilinear(plain, "g_action", n)


def test_oracle_draws_include_slices():
    """The explicit draws of the two oracle tests above take a slice of
    a letter with two options, over Q and over Q(zeta_3) with constants
    that are not rational: the first in every flavour, the second,
    whose generic element has a centraliser of dimension 2, in the
    graded ones."""
    expected = [["ordinary", "graded", "g_action"], ["graded", "g_action"]]
    for ((units, nodes, m), shifts), flavors in zip(SLICED_DRAWS, expected):
        group = FiniteGroup.cyclic(m)
        grading = Grading(group, tuple((nodes[j] - nodes[i]) % m
                                       for i, j in units))
        for algebra in (_unit_algebra(units, RATIONALS),
                        _unit_algebra(units, FieldSpec(3), shifts)):
            graded = Workbench("units", algebra, group, grading=grading)
            dual, action = grading_to_action(algebra, grading)
            acted = Workbench("units_dual", algebra, dual, action=action)
            sliced = []
            for bench, flavor in ((graded, "ordinary"), (graded, "graded"),
                                  (acted, "g_action")):
                ev, _ = _blocks(bench, flavor, 2)
                g, _ = codim_module._certified_slice(ev)
                if g is not None and len(ev._options[g]) == 2:
                    sliced.append(flavor)
            assert sliced == flavors, units
        assert any(c.as_rational() is None
                   for comp in algebra.table.values() for c in comp.values())


# -- the first-letter lattice against the full closure ----------------


def _lattice_against_full_closure(bench, flavor, n_max):
    """Run every n up to n_max through the engine and require the
    ranks of its one lattice to equal those of the full-closure oracle
    on the same arguments; returns those arguments."""
    seen = []
    lattice = codim_module._lattice_ranks

    def spy(*args):
        seen.append((args, lattice(*args)))
        return seen[-1][1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(codim_module, "_lattice_ranks", spy)
        codim_module._block_characters(bench, flavor, 1, n_max,
                                       RunConfig(budget=10 ** 40))
    [(args, ranks)] = seen
    assert ranks == full_closure_ranks(*args), (bench.name, flavor)
    return args


@pytest.mark.parametrize("name", sorted(FIXTURE_BUILDERS))
def test_first_letter_lattice_matches_full_closure_on_fixtures(name):
    bench = build_fixture(name)
    flavors = ["ordinary"] + ["graded"] * (bench.grading is not None) + [
        "g_action"] * (bench.action is not None)
    for flavor in flavors:
        _lattice_against_full_closure(bench, flavor, 6)


@settings(max_examples=20, deadline=None)
@given(matrix_unit_algebras())
@example(SLICED_DRAWS[0][0])
@example(SLICED_DRAWS[1][0])
def test_first_letter_lattice_matches_full_closure_on_generated(spec):
    graded, acted, plain = _generated_workbenches(spec)
    for bench, flavor in ((graded, "graded"), (graded, "ordinary"),
                          (acted, "g_action")):
        _lattice_against_full_closure(bench, flavor, 5)
    _lattice_against_full_closure(plain, "g_action", 4)


def test_first_letter_lattice_matches_full_closure_over_q_zeta3():
    """Constants that are not rational: the realified rows, whose first
    letter is spanned by zeta^j X_a, in both graded routes."""
    (units, nodes, m), shifts = SLICED_DRAWS[1]
    algebra = _unit_algebra(units, FieldSpec(3), shifts)
    grading = Grading(FiniteGroup.cyclic(m), tuple(
        (nodes[j] - nodes[i]) % m for i, j in units))
    graded = Workbench("units_zeta", algebra, grading.group,
                       grading=grading)
    dual, action = grading_to_action(algebra, grading)
    acted = Workbench("units_zeta_dual", algebra, dual, action=action)
    for bench, flavor in ((graded, "graded"), (acted, "g_action")):
        ev, (deg, _), *_ = _lattice_against_full_closure(bench, flavor, 5)
        assert deg == 2 and ev.flavor == "graded", flavor


def test_first_letter_lattice_matches_full_closure_undualised():
    """An undualised G-action: the first letter may carry any
    decoration, and the words that begin with it still span."""
    bench = _abelian_orders_dropped(build_fixture("sl2xsl2_swap"))
    ev, _, types, *_ = _lattice_against_full_closure(bench, "g_action", 5)
    assert ev.flavor == "g_action" and types == [(0, 1)]


# full multiplicity maps of the multilinear block engine, which these
# sizes take it seconds to minutes to reach
WEIGHT_GOLDENS = [
    ("sl2_trivial", "ordinary", 7, 90, {
        (6, 1): 1, (5, 2): 1, (4, 3): 1, (4, 2, 1): 1, (3, 2, 2): 1}),
    ("gl2_z2_graded", "graded", 8, 1569, {
        (8,): 4, (7, 1): 11, (6, 2): 9, (6, 1, 1): 6, (5, 3): 10,
        (5, 2, 1): 6, (4, 4): 2, (4, 3, 1): 5, (4, 2, 2): 1,
        (3, 3, 2): 2}),
    ("metabelian_m2_cyclic", "g_action", 9, 4096, {
        (9,): 8, (8, 1): 24, (7, 2): 18, (7, 1, 1): 14, (6, 3): 12,
        (6, 2, 1): 10, (5, 4): 6, (5, 3, 1): 6, (4, 4, 1): 2}),
]


@pytest.mark.parametrize("name,flavor,n,c_n,mults", WEIGHT_GOLDENS)
def test_weight_engine_goldens(name, flavor, n, c_n, mults):
    report = cocharacter(build_fixture(name), flavor, n,
                         RunConfig(budget=10 ** 18))
    assert (report.codim, report.multiplicities) == (c_n, mults)


def test_negative_multiplicity_raises(monkeypatch):
    # ranks 5, 1, 2 for the components (3), (2,1), (1,1,1) of sl2 at
    # n = 3 would need m_(2,1) = 1 - K((3), (2,1)) * 5 < 0
    monkeypatch.setattr(codim_module, "_lattice_ranks",
                        lambda *args: {((3,),): 5, ((2, 1),): 1,
                                       ((1, 1, 1),): 2})
    with pytest.raises(ArithmeticError, match="non-negative"):
        cocharacter(build_fixture("sl2_trivial"), "ordinary", 3)


def _fractional_basis(bench):
    """The same workbench in the basis f_i = e_i / (i + 2) + e_(i+1) / 3,
    where structure constants and action entries are fractions."""
    L, field = bench.algebra, bench.algebra.field
    dim = L.dim
    rows = [[field.from_rational(Fraction(1, i + 2) if k == i else
                                 Fraction(1, 3) if k == i + 1 else 0)
             for k in range(dim)] for i in range(dim)]
    algebra = L.change_of_basis(rows, [f"f{i + 1}" for i in range(dim)])
    p = MatrixExact(field, [[rows[j][i] for j in range(dim)]
                            for i in range(dim)])
    action = type(bench.action)(bench.group, [
        p.inverse() @ mat @ p for mat in bench.action.matrices])
    assert not action.validate(algebra)
    return Workbench(bench.name, algebra, bench.group, action=action)


def test_fractional_constants_scale_to_integer_rows():
    bench = build_fixture("sl2xsl2_swap")
    scaled = _fractional_basis(bench)
    assert any(c.den > 1 for comp in scaled.algebra.table.values()
               for c in comp.values())
    for case in (scaled, _abelian_orders_dropped(scaled)):
        for flavor, n in (("ordinary", 5), ("g_action", 4)):
            a = cocharacter(case, flavor, n)
            b = cocharacter(bench, flavor, n)
            assert (a.codim, a.multiplicities) == \
                (b.codim, b.multiplicities), (flavor, n)


# -- certified slice --------------------------------------------------


def test_slice_certificate_accepts_h_and_rejects_e_and_f_on_sl2():
    ev = codim_module._Evaluator(build_fixture("sl2_trivial"), "ordinary")
    one, derivations = ev.field.one(), codim_module._derivations(ev)
    # ad L e = <h, e> and ad L f = <h, f>; ad L h = <e, f>
    assert [codim_module._tangent_dim(ev, derivations, {j: one})
            for j in range(3)] == [2, 3, 2]
    assert codim_module._certified_slice(ev) == (0, {1: one})


def test_slice_candidates_follow_basis_order():
    """In the basis (f, e, h) the options f and e fail and h passes;
    in the basis (e + f, h, e - f) the first option passes."""
    base = build_fixture("sl2_trivial").algebra
    field = base.field
    z, o = field.zero(), field.one()
    for rows, expected in ((((z, z, o), (o, z, z), (z, o, z)), 2),
                           (((o, z, o), (z, o, z), (o, z, -o)), 0)):
        algebra = base.change_of_basis(rows, ("u", "v", "w"))
        ev = codim_module._Evaluator(
            Workbench("sl2", algebra, FiniteGroup.trivial()), "ordinary")
        assert codim_module._certified_slice(ev) == (0, {expected: o})


@pytest.mark.parametrize("name,flavor", [
    ("gl2_z2_graded", "graded"), ("gl2_z2_action", "g_action")])
def test_abelian_degree_zero_certifies_nothing_on_gl2_z2(name, flavor):
    """L_0 is the diagonal torus, abelian, so no vector of L_0 is
    certified.  ad L_0 acts on L_1 = <E12, E21> by opposite weights:
    E12 and E21 fail, their sum passes, and the torus moves the line
    through E12 + E21 onto a dense subset of L_1."""
    ev, _ = _blocks(build_fixture(name), flavor, 2)
    one, derivations = ev.field.one(), codim_module._derivations(ev)
    zero_degree = [vec for _, vec in ev._options[0]]
    for s in zero_degree + [{j: one for vec in zero_degree for j in vec}]:
        assert codim_module._tangent_dim(ev, derivations, s) == 1
    odd = [vec for _, vec in ev._options[1]]
    assert [codim_module._tangent_dim(ev, derivations, s)
            for s in odd] == [1, 1]
    assert codim_module._certified_slice(ev) == \
        (1, {j: one for vec in odd for j in vec})


def _unsliced(monkeypatch):
    monkeypatch.setattr(codim_module, "_certified_slice",
                        lambda ev: (None, None))


@pytest.mark.parametrize("name,flavor,n_max", [
    ("gl2_z2_graded", "graded", 9), ("gl2_z2_action", "g_action", 9),
    ("sl2_trivial", "ordinary", 10), ("sl2xsl2_swap", "g_action", 6),
    ("metabelian_m3_cyclic", "g_action", 7),
    ("metabelian_graded_m2", "graded", 9)])
def test_sliced_lattice_matches_the_plain_lattice(monkeypatch, name, flavor,
                                                  n_max):
    bench = build_fixture(name)
    config = RunConfig(budget=10 ** 40)
    ev, _ = _blocks(bench, flavor, 2)
    assert codim_module._certified_slice(ev)[0] is not None
    sliced = [r.to_json() for r in cocharacters(bench, flavor, 1, n_max,
                                                 config)]
    _unsliced(monkeypatch)
    assert sliced == [r.to_json() for r in cocharacters(
        bench, flavor, 1, n_max, config)]


@pytest.mark.parametrize("name,flavor", [
    ("heisenberg", "ordinary"), ("metabelian_m2_trivial", "ordinary"),
    ("gl2_z2_graded", "ordinary"), ("sl2xsl2_swap", "ordinary")])
def test_fixture_without_certified_slice_runs_the_plain_lattice(
        monkeypatch, name, flavor):
    seen = []
    lattice = codim_module._lattice_ranks

    def spy(ev, letters, types, targets, verify, sliced):
        seen.append((sliced, sorted(letters[1], key=str)))
        return lattice(ev, letters, types, targets, verify, sliced)

    monkeypatch.setattr(codim_module, "_lattice_ranks", spy)
    bench = build_fixture(name)
    ev, _ = _blocks(bench, flavor, 2)
    assert codim_module._certified_slice(ev) == (None, None)
    codimension(bench, flavor, 4)
    assert seen == [(None, [0])]


def test_undualised_action_takes_no_slice():
    bench = _abelian_orders_dropped(build_fixture("sl2xsl2_swap"))
    ev, _ = _blocks(bench, "g_action", 2)
    assert ev.flavor == "g_action"
    assert codim_module._certified_slice(ev) == (None, None)


def test_uncertified_slice_gives_a_wrong_codimension(monkeypatch):
    """The certificate carries the result: the exact ranks of the
    lattice with its first letter restricted to xi e are those of the
    wrong matrices, and c_4 of sl2 comes out 5, not 6."""
    bench = build_fixture("sl2_trivial")
    one = bench.algebra.field.one()
    assert codimension(bench, "ordinary", 4) == 6
    monkeypatch.setattr(codim_module, "_certified_slice",
                        lambda ev: (0, {0: one}))
    assert codimension(bench, "ordinary", 4) == 5


# from the lattice before the slice; slicing one letter of every degree
# gives multiplicity -1 on sl2xsl2_swap at n = 6
SLICE_GOLDENS = [
    ("sl2xsl2_swap", "g_action", 6, 2304, {
        (6,): 6, (5, 1): 30, (4, 2): 36, (4, 1, 1): 42, (3, 3): 24,
        (3, 2, 1): 52, (3, 1, 1, 1): 22, (2, 2, 2): 10, (2, 2, 1, 1): 18,
        (2, 1, 1, 1, 1): 4}),
    ("sl2_trivial", "ordinary", 12, 11298, {
        (11, 1): 1, (10, 1, 1): 1, (9, 3): 1, (9, 2, 1): 1, (8, 3, 1): 1,
        (7, 5): 1, (7, 4, 1): 1, (7, 3, 2): 1, (6, 5, 1): 1, (6, 3, 3): 1,
        (5, 5, 2): 1, (5, 4, 3): 1}),
]


@pytest.mark.parametrize("name,flavor,n,c_n,mults", SLICE_GOLDENS)
def test_sliced_goldens(name, flavor, n, c_n, mults):
    report = cocharacter(build_fixture(name), flavor, n,
                         RunConfig(budget=10 ** 40))
    assert (report.codim, report.multiplicities) == (c_n, mults)
