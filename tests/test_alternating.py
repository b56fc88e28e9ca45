from fractions import Fraction
from itertools import combinations, permutations, product
from math import prod

import pytest
from hypothesis import example, given, settings, strategies as st

from codimlab.alternating import (
    PIPELINE_DIM_CAP,
    RegevPolynomial,
    RepresentationInstance,
    _sweep,
    choose_gamma,
    evaluate_poly,
    insert_double_brackets,
    is_alternating,
    joint_eigenspaces,
    matrix_unit_centrality,
    poly_variables,
    regev_polynomial,
    scalar_separating_polynomial,
    square_root_in,
    trace_factor_check,
    verify_alternating_nonidentity,
)
from codimlab.fixtures import (abelian, diagonal_action, gl2,
                               permutation_action, sl2)
from codimlab.free_polys import (alternate, perm_sign, permute,
                                 poly_scale)
from codimlab.linalg import MatrixExact
from codimlab.scalar import RATIONALS, FieldSpec
from codimlab.symmetry import FiniteGroup, trivial_action

Q = RATIONALS
F3 = FieldSpec(3)
F4 = FieldSpec(4)


def mat(field, rows):
    return MatrixExact(field, [[field.from_rational(Fraction(x))
                                for x in row] for row in rows])


def matrix_units(field):
    return [mat(field, [[1, 0], [0, 0]]), mat(field, [[0, 1], [0, 0]]),
            mat(field, [[0, 0], [1, 0]]), mat(field, [[0, 0], [0, 1]])]


def gl2_defining():
    alg = gl2()
    return RepresentationInstance(
        alg, trivial_action(alg), matrix_units(Q),
        [MatrixExact.identity(Q, 2)], faithful=True,
        irreducible_with_group=True).validate()


def gl2_defining_psi(field=Q):
    """Same module, Z2 acting by conjugation with diag(1, -1)."""
    alg = gl2(field)
    group = FiniteGroup.cyclic(2, gen_name="psi")
    one = field.one()
    action = diagonal_action(alg, group,
                             [(one, one, one, one),
                              (one, -one, -one, one)])
    return RepresentationInstance(
        alg, action, matrix_units(field),
        [MatrixExact.identity(field, 2), mat(field, [[1, 0], [0, -1]])],
        faithful=True, irreducible_with_group=True).validate()


def sl2_adjoint():
    alg = sl2()
    return RepresentationInstance(
        alg, trivial_action(alg),
        [alg.ad_basis(i) for i in range(3)],
        [MatrixExact.identity(Q, 3)], faithful=True,
        irreducible_with_group=True).validate()


def gl1_instance():
    alg = abelian(1)
    return RepresentationInstance(
        alg, trivial_action(alg), [mat(Q, [[2]])],
        [MatrixExact.identity(Q, 1)], faithful=True,
        irreducible_with_group=True).validate()


def swap_centre_instance():
    """2-dim centre acting by the two coordinate projections on F^2,
    Z2 swapping the eigenlines."""
    alg = abelian(2)
    group = FiniteGroup.cyclic(2, gen_name="s")
    action = permutation_action(alg, group, [(0, 1), (1, 0)])
    return RepresentationInstance(
        alg, action,
        [mat(Q, [[1, 0], [0, 0]]), mat(Q, [[0, 0], [0, 1]])],
        [MatrixExact.identity(Q, 2), mat(Q, [[0, 1], [1, 0]])],
        faithful=True, irreducible_with_group=True).validate()


def flip_centre_instance():
    """1-dim centre acting by diag(1, -1), Z2 swapping the eigenlines
    and negating the centre: exercises the projection completion."""
    alg = abelian(1)
    group = FiniteGroup.cyclic(2, gen_name="s")
    action = diagonal_action(alg, group, [(Q.one(),), (-Q.one(),)])
    return RepresentationInstance(
        alg, action, [mat(Q, [[1, 0], [0, -1]])],
        [MatrixExact.identity(Q, 2), mat(Q, [[0, 1], [1, 0]])],
        faithful=True, irreducible_with_group=True).validate()


# -- Regev's polynomial ------------------------------------------------


def test_regev_q1():
    reg = regev_polynomial(1)
    assert reg.poly == {((1, 0), (2, 0)): Q.one()}
    assert reg.term_count == 1
    assert reg.x_vars == (1,) and reg.y_vars == (2,)


def test_regev_q2_shape():
    reg = regev_polynomial(2)
    assert reg.term_count == 576
    assert reg.x_vars == (1, 2, 3, 4)
    assert reg.y_vars == (5, 6, 7, 8)
    one = Q.one()
    for word, coeff in reg.poly.items():
        assert len(word) == 8
        assert coeff in (one, -one)
        # block pattern x y xxx yyy
        assert [v <= 4 for v, _ in word] == [
            True, False, True, True, True, False, False, False]


def test_regev_q2_alternates_in_each_block():
    reg = regev_polynomial(2)
    assert is_alternating(reg.poly, reg.x_vars)
    assert is_alternating(reg.poly, reg.y_vars)
    assert not is_alternating(reg.poly, (1, 5))


def test_is_alternating_set_past_the_last_variable():
    reg = regev_polynomial(1)
    assert is_alternating(reg.poly, reg.x_vars)
    assert not is_alternating(reg.poly, (1, 3))
    assert not is_alternating(reg.poly, (2, 9))
    sep = scalar_separating_polynomial(swap_centre_instance())
    assert not is_alternating(sep.polynomial, (1, 2, 3))
    report = verify_alternating_nonidentity(
        sep.polynomial, swap_centre_instance(), [(1, 2, 3)])
    assert report.per_set == [False] and not report.alternating


@st.composite
def alternation_problems(draw):
    """A multilinear word polynomial in x_1..x_n, often alternated over
    a subset, and a variable set that may run past x_n."""
    n = draw(st.integers(1, 4))
    words = draw(st.lists(st.permutations(range(1, n + 1)), min_size=1,
                          max_size=4))
    poly = {tuple((v, 0) for v in word):
            Q.from_rational(draw(st.sampled_from([-2, -1, 1, 2])))
            for word in words}
    var_set = draw(st.sets(st.integers(1, n + 2), max_size=4))
    if n > 1 and draw(st.booleans()):
        alt = draw(st.sets(st.integers(1, n), min_size=2))
        poly = alternate(poly, sorted(alt), n, Q)
        if draw(st.booleans()):
            # a subset of the alternated set, alone or with others
            var_set = draw(st.sets(st.sampled_from(sorted(alt)),
                                   min_size=2)) | (
                var_set if draw(st.booleans()) else set())
    return poly, var_set, n


def all_transpositions_alternate(poly, var_set, n):
    """Oracle: every transposition inside var_set negates poly."""
    if not poly:
        return True
    size = max(n, *var_set) if var_set else n
    minus = {k: -c for k, c in poly.items()}
    for i, j in combinations(sorted(var_set), 2):
        perm = list(range(1, size + 1))
        perm[i - 1], perm[j - 1] = j, i
        if permute(poly, tuple(perm)) != minus:
            return False
    return True


def adjacent_permutes_alternate(poly, var_set, n):
    """Oracle: permute poly by each adjacent transposition of the
    sorted set and compare with its negated copy."""
    if not poly:
        return True
    negated = poly_scale(poly, Q.from_rational(-1))
    size = max(n, *var_set) if var_set else n
    ordered = sorted(var_set)
    for i, j in zip(ordered, ordered[1:]):
        perm = list(range(1, size + 1))
        perm[i - 1], perm[j - 1] = j, i
        if permute(poly, tuple(perm)) != negated:
            return False
    return True


@settings(max_examples=150, deadline=None)
@given(alternation_problems())
def test_is_alternating_matches_all_transpositions(problem):
    poly, var_set, n = problem
    assert is_alternating(poly, var_set) == \
        all_transpositions_alternate(poly, var_set, n) == \
        adjacent_permutes_alternate(poly, var_set, n)


def test_regev_q3_unsupported():
    with pytest.raises(ValueError, match=r"\(9!\)\^2"):
        regev_polynomial(3)
    with pytest.raises(ValueError):
        regev_polynomial(0)


def test_centrality_q1():
    rep = matrix_unit_centrality(1)
    assert rep.all_scalar
    assert rep.substitutions == 1
    assert rep.nonzero_count == 1
    assert rep.witness == ((1, 1), (1, 1))
    assert rep.witness_value == 1


def test_centrality_q2_exhaustive():
    rep = matrix_unit_centrality(2)
    assert rep.all_scalar
    assert rep.substitutions == 4 ** 8
    # nonzero exactly when each block runs through all four units
    assert rep.nonzero_count == 576
    assert rep.witness == ((1, 1), (1, 2), (2, 1), (2, 2),
                           (1, 1), (1, 2), (2, 1), (2, 2))
    assert rep.witness_value == Fraction(-3)
    assert "central" in rep.summary()


def swept_centrality(q):
    """The centrality report's fields from evaluating every
    matrix-unit substitution injective on both blocks: the oracle of
    the one-evaluation certificate."""
    reg = regev_polynomial(q)
    units = [(r, c) for r in range(q) for c in range(q)]
    operators = {(u, 0): mat(Q, [[int((i, j) == unit) for j in range(q)]
                                 for i in range(q)])
                 for u, unit in enumerate(units)}
    nonzero = 0
    all_scalar = True
    witness = witness_value = None
    for _, combo, value in _sweep(reg.poly, Q, q, operators, len(units),
                                  [reg.x_vars, reg.y_vars]):
        if value.is_zero():
            continue
        corner = value.data[0][0]
        all_scalar &= value == MatrixExact.identity(Q, q).scale(corner)
        nonzero += 1
        if witness is None:
            witness = tuple((units[u][0] + 1, units[u][1] + 1)
                            for u in combo)
            witness_value = corner.as_rational()
    return (q, len(units) ** (2 * q * q), all_scalar, nonzero, witness,
            witness_value)


@pytest.mark.parametrize("q", [1, 2])
def test_centrality_certificate_matches_the_sweep(q):
    rep = matrix_unit_centrality(q)
    assert (rep.q, rep.substitutions, rep.all_scalar, rep.nonzero_count,
            rep.witness, rep.witness_value) == swept_centrality(q)


def test_centrality_refuses_a_polynomial_that_does_not_alternate(
        monkeypatch):
    # one flipped sign breaks alternation at q=2 (at q=1 the blocks
    # are single variables, so every polynomial alternates in them)
    reg = regev_polynomial(2)
    poly = dict(reg.poly)
    word = next(iter(poly))
    poly[word] = -poly[word]
    tampered = RegevPolynomial(2, poly, reg.x_vars, reg.y_vars)
    monkeypatch.setattr("codimlab.alternating.regev_polynomial",
                        lambda _: tampered)
    with pytest.raises(ValueError, match="does not alternate"):
        matrix_unit_centrality(2)


# -- gamma selection ---------------------------------------------------


def test_gamma_worked_examples():
    assert choose_gamma([Q.zero()], [Q.one()], 1) == Q.one()
    # gamma = 1 is forbidden because 1 + 1 * (-1) = 0
    assert choose_gamma(
        [Q.one(), Q.zero()],
        [Q.from_rational(-1), Q.from_rational(2)], 2) \
        == Q.from_rational(2)
    assert choose_gamma(
        [Q.from_rational(3), Q.from_rational(5), Q.zero()],
        [Q.zero(), Q.one(), Q.from_rational(7)], 3) == Q.one()


def test_gamma_preconditions():
    with pytest.raises(ValueError):
        choose_gamma([Q.one()], [Q.one()], 1)        # alpha_k nonzero
    with pytest.raises(ValueError):
        choose_gamma([Q.zero()], [Q.zero()], 1)      # beta_k zero
    with pytest.raises(ValueError):
        choose_gamma([Q.zero(), Q.zero()],
                     [Q.one(), Q.one()], 2)          # alpha below k zero
    with pytest.raises(ValueError):
        choose_gamma([Q.zero()], [Q.one()], 2)       # k out of range


nonzero_ints = st.integers(-6, 6).filter(bool)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_gamma_property(data):
    k = data.draw(st.integers(1, 4))
    alpha = [Q.from_rational(data.draw(nonzero_ints))
             for _ in range(k - 1)] + [Q.zero()]
    beta = [Q.from_rational(data.draw(st.integers(-6, 6)))
            for _ in range(k - 1)] \
        + [Q.from_rational(data.draw(nonzero_ints))]
    gamma = choose_gamma(alpha, beta, k)
    assert all(alpha[i] + gamma * beta[i] for i in range(k))
    g = gamma.as_rational()
    assert g.denominator == 1 and g >= 1
    # minimality: every smaller positive integer is forbidden
    forbidden = {(-(alpha[i] / beta[i])).as_rational()
                 for i in range(k - 1) if beta[i]}
    for m in range(1, g.numerator):
        assert Fraction(m) in forbidden


# -- square roots ------------------------------------------------------


def test_square_roots_rational():
    assert square_root_in(Q, Q.from_rational(Fraction(9, 4))) \
        == Q.from_rational(Fraction(3, 2))
    assert square_root_in(Q, Q.zero()) == Q.zero()
    assert square_root_in(Q, Q.from_rational(2)) is None
    assert square_root_in(Q, Q.from_rational(-1)) is None


def test_square_roots_quadratic_cyclotomic():
    i4 = F4.scalar((0, 1))
    root = square_root_in(F4, F4.from_rational(-1))
    assert root in (i4, -i4)
    for value in (F4.scalar((0, 2)), F3.from_rational(-3),
                  F3.scalar((0, 1))):
        field = value.field
        root = square_root_in(field, value)
        assert root is not None and root * root == value
    assert square_root_in(F4, F4.scalar((1, 1))) is None


def test_square_roots_large_field_rejected():
    f5 = FieldSpec(5)
    with pytest.raises(ValueError, match="order-5"):
        square_root_in(f5, f5.one())


@settings(max_examples=40, deadline=None)
@given(st.integers(-5, 5), st.integers(-5, 5),
       st.sampled_from([3, 4, 6]))
def test_square_root_roundtrip(a, b, order):
    field = FieldSpec(order)
    value = field.scalar((a, b))
    square = value * value
    root = square_root_in(field, square)
    assert root is not None
    assert root * root == square


# -- joint eigenspaces -------------------------------------------------


def test_joint_eigenspaces_splits_and_rejects():
    assert [c.dim for c in joint_eigenspaces(
        Q, [mat(Q, [[1, 0], [0, 2]])], 2)] == [1, 1]
    assert [c.dim for c in joint_eigenspaces(
        Q, [MatrixExact.identity(Q, 2)], 2)] == [2]
    with pytest.raises(ValueError, match="non-semisimply"):
        joint_eigenspaces(Q, [mat(Q, [[1, 1], [0, 1]])], 2)
    with pytest.raises(ValueError, match="too small"):
        joint_eigenspaces(Q, [mat(Q, [[0, -1], [1, 0]])], 2)
    comps = joint_eigenspaces(F4, [mat(F4, [[0, -1], [1, 0]])], 2)
    assert [c.dim for c in comps] == [1, 1]


# -- instance validation -----------------------------------------------


def test_instances_validate():
    gl2_defining()
    gl2_defining_psi()
    sl2_adjoint()
    gl1_instance()
    swap_centre_instance()
    flip_centre_instance()


def test_validation_refutes_wrong_flags():
    alg = gl2()
    with pytest.raises(ValueError, match="faithful"):
        RepresentationInstance(
            alg, trivial_action(alg), matrix_units(Q),
            [MatrixExact.identity(Q, 2)], faithful=False).validate()
    # diag(1, 2) on F^2 has the first eigenline as a submodule
    ab = abelian(1)
    with pytest.raises(ValueError, match="proper"):
        RepresentationInstance(
            ab, trivial_action(ab), [mat(Q, [[1, 0], [0, 2]])],
            [MatrixExact.identity(Q, 2)], faithful=True,
            irreducible_with_group=True).validate()


def test_validation_refutes_broken_structure():
    alg = abelian(2)
    group = FiniteGroup.cyclic(2, gen_name="s")
    action = permutation_action(alg, group, [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="equivariance"):
        RepresentationInstance(
            alg, action,
            [mat(Q, [[1, 0], [0, 0]]), mat(Q, [[0, 0], [0, 1]])],
            [MatrixExact.identity(Q, 2), MatrixExact.identity(Q, 2)],
            faithful=True).validate()
    # sl2 brackets do not match commutators of matrix units
    with pytest.raises(ValueError, match="commutator"):
        RepresentationInstance(
            sl2(), trivial_action(sl2()),
            [mat(Q, [[1, 0], [0, 0]]), mat(Q, [[0, 1], [0, 0]]),
             mat(Q, [[0, 0], [1, 0]])],
            [MatrixExact.identity(Q, 2)], faithful=True).validate()


# -- the scalar-separating polynomial ----------------------------------


def test_separation_trivial_centre():
    sep = scalar_separating_polynomial(sl2_adjoint())
    assert sep.trivial and sep.t == 0 and sep.q == 1
    assert sep.polynomial == {(): Q.one()}
    assert sep.determinant == Q.one()
    assert sep.evaluated == MatrixExact.identity(Q, 3)


def test_separation_single_component():
    sep = scalar_separating_polynomial(gl1_instance())
    assert (sep.t, sep.q) == (1, 1) and not sep.trivial
    assert sep.polynomial == {((1, 0),): Q.one()}
    assert sep.determinant == Q.from_rational(2)
    # gl2: centre spanned by the identity matrix, one 2-dim component
    sep = scalar_separating_polynomial(gl2_defining())
    assert (sep.t, sep.q) == (1, 1)
    assert sep.polynomial == {((1, 0),): Q.one()}
    assert sep.determinant == Q.one()


def test_separation_swapped_eigenlines():
    inst = swap_centre_instance()
    sep = scalar_separating_polynomial(inst)
    assert (sep.t, sep.q) == (2, 2)
    assert [c.dim for c in sep.components] == [1, 1]
    assert [[s.as_rational() for s in row] for row in sep.eigentable] \
        == [[1, 0], [0, 1]]
    assert sep.group_choices == [(0, 1), (1, 0)]
    # one gamma step suffices: f = x1 x2^s - x2 x1^s
    assert sep.gammas == [(0, Q.one())]
    assert sep.polynomial == {((1, 0), (2, 1)): Q.one(),
                              ((2, 0), (1, 1)): -Q.one()}
    assert sep.determinant == Q.from_rational(-1)
    assert is_alternating(sep.polynomial, (1, 2))
    assert sep.evaluated.det() == sep.determinant
    # the evaluated operator commutes with every conjugated centre op
    for g in range(2):
        for i in range(2):
            cg = inst.conjugate(g, inst.algebra_maps[i])
            assert sep.evaluated @ cg == cg @ sep.evaluated


def test_separation_projection_completion():
    # t = 1 < q = 2 forces completion by a projection
    sep = scalar_separating_polynomial(flip_centre_instance())
    assert (sep.t, sep.q) == (1, 2)
    assert sep.polynomial == {((1, 1),): -Q.one()}
    assert sep.determinant == Q.from_rational(-1)
    assert sep.gammas == [(0, Q.one())]


def test_separation_error_paths():
    rot = mat(Q, [[0, -1], [1, 0]])
    ab = abelian(1)
    inst = RepresentationInstance(
        ab, trivial_action(ab), [rot], [MatrixExact.identity(Q, 2)],
        faithful=True, irreducible_with_group=True).validate()
    with pytest.raises(ValueError, match="too small"):
        scalar_separating_polynomial(inst)
    # over Q(i) the module splits but the trivial group cannot permute
    # the components: reported as an input inconsistency
    ab4 = abelian(1, field=F4)
    inst4 = RepresentationInstance(
        ab4, trivial_action(ab4), [mat(F4, [[0, -1], [1, 0]])],
        [MatrixExact.identity(F4, 2)], faithful=True).validate()
    with pytest.raises(ValueError, match="transitive"):
        scalar_separating_polynomial(inst4)


def test_separation_dimension_cap():
    assert PIPELINE_DIM_CAP == 2
    ab = abelian(1)
    inst = RepresentationInstance(
        ab, trivial_action(ab),
        [MatrixExact.identity(Q, 3)],
        [MatrixExact.identity(Q, 3)], faithful=True).validate()
    with pytest.raises(ValueError, match=r"\(9!\)\^2"):
        scalar_separating_polynomial(inst)


# -- evaluation --------------------------------------------------------


def test_evaluate_sparse_and_dense_paths_agree():
    inst = gl2_defining()
    units = matrix_units(Q)
    poly = {((1, 0), (2, 0)): Q.one()}
    # single-cell letters take the index-chain path
    assert evaluate_poly(poly, inst, {1: units[0], 2: units[1]}) \
        == units[1]
    # a two-cell letter falls back to dense products
    dense = units[0] + units[1]
    assert evaluate_poly(poly, inst, {1: dense, 2: units[2]}) \
        == units[0]
    assert evaluate_poly({}, inst, {}).is_zero()
    assert evaluate_poly({(): Q.one()}, inst, {}) \
        == MatrixExact.identity(Q, 2)


def test_regev_vanishes_on_equal_arguments():
    reg = regev_polynomial(2)
    inst = gl2_defining()
    units = matrix_units(Q)
    assignment = {1: units[0], 2: units[0], 3: units[1], 4: units[2],
                  5: units[0], 6: units[1], 7: units[2], 8: units[3]}
    assert evaluate_poly(reg.poly, inst, assignment).is_zero()


def test_decorated_letters_conjugate():
    inst = gl2_defining_psi()
    units = matrix_units(Q)
    out = evaluate_poly({((1, 1),): Q.one()}, inst, {1: units[1]})
    assert out == units[1].scale(-Q.one())


def test_poly_variables():
    reg = regev_polynomial(2)
    assert poly_variables(reg.poly) == list(range(1, 9))
    assert poly_variables({(): Q.one()}) == []


def dense_oracle(poly, inst, assignment):
    """Sum of coefficient times the dense product of each word, every
    decorated letter conjugated by rho(g) on the spot."""
    field, m = inst.field, inst.module_dim
    group = inst.action.group
    acc = MatrixExact.zeros(field, m, m)
    for word, coeff in poly.items():
        prod = MatrixExact.identity(field, m)
        for v, g in word:
            prod = prod @ inst.group_maps[g] @ assignment[v] \
                @ inst.group_maps[group.inv(g)]
        acc = acc + prod.scale(coeff)
    return acc


small_fractions = st.fractions(-2, 2, max_denominator=3)
decorated_words = st.lists(st.tuples(st.integers(1, 3), st.integers(0, 1)),
                           max_size=4).map(tuple)


def field_elements(field):
    """Small elements of field with fractional coordinates: rational,
    or, over a cyclotomic field, any coordinates."""
    rational = small_fractions.map(field.from_rational)
    if field.degree == 1:
        return rational
    return rational | st.lists(small_fractions, min_size=field.degree,
                               max_size=field.degree).map(field.scalar)


@st.composite
def operators(draw, field):
    """Zero, a matrix unit, or a dense 2 x 2 matrix."""
    kind = draw(st.sampled_from(["zero", "unit", "dense"]))
    if kind == "zero":
        return MatrixExact.zeros(field, 2, 2)
    if kind == "unit":
        return draw(st.sampled_from(matrix_units(field)))
    return MatrixExact(field, [[draw(field_elements(field))
                                for _ in range(2)] for _ in range(2)])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_evaluate_matches_dense_oracle(data):
    """Operators and coefficients with denominators, over Q and over
    Q(zeta_3) and Q(zeta_4) with entries that need not be rational."""
    field = data.draw(st.sampled_from([Q, F3, F4]))
    inst = gl2_defining_psi(field)
    coeffs = field_elements(field).filter(bool)
    assignment = {v: data.draw(operators(field)) for v in (1, 2, 3)}
    poly = {word: data.draw(coeffs)
            for word in data.draw(st.lists(decorated_words, max_size=6))}
    if data.draw(st.booleans()):
        poly[()] = data.draw(coeffs)
    if data.draw(st.booleans()):
        # x2 doubles x1, so a word and its x1 -> x2 twin cancel
        assignment[2] = assignment[1]
        word = ((1, data.draw(st.integers(0, 1))),) \
            + data.draw(decorated_words)
        twin = tuple((2 if v == 1 else v, g) for v, g in word)
        coeff = data.draw(coeffs)
        poly[word], poly[twin] = coeff, -coeff
        assert evaluate_poly({word: coeff, twin: -coeff}, inst,
                             assignment).is_zero()
    assert evaluate_poly(poly, inst, assignment) \
        == dense_oracle(poly, inst, assignment)


# -- the verification harness ------------------------------------------


def test_verify_commutator_identity_on_1x1():
    comm = {((1, 0), (2, 0)): Q.one(), ((2, 0), (1, 0)): -Q.one()}
    rep = verify_alternating_nonidentity(comm, gl1_instance(), [(1, 2)])
    assert rep.alternating and rep.per_set == [True]
    assert rep.is_identity is True
    assert rep.searched == 1 and rep.mode == "exhaustive"
    assert "identity" in rep.summary()


def test_verify_commutator_witness_on_2x2():
    comm = {((1, 0), (2, 0)): Q.one(), ((2, 0), (1, 0)): -Q.one()}
    rep = verify_alternating_nonidentity(comm, gl2_defining(), [(1, 2)])
    assert rep.alternating
    assert rep.is_identity is False
    # [E11, E12] = E12 is the first nonzero value in substitution order
    assert rep.witness_assignment == (0, 1)
    assert rep.witness_value == matrix_units(Q)[1]


def brute_force_search(poly, inst):
    """(is_identity, witness, searched), evaluating every basis
    substitution in order with the dense oracle."""
    variables = poly_variables(poly)
    searched = 0
    for combo in product(range(inst.algebra.dim), repeat=len(variables)):
        searched += 1
        assignment = {v: inst.algebra_maps[c]
                      for v, c in zip(variables, combo)}
        if not dense_oracle(poly, inst, assignment).is_zero():
            return False, combo, searched
    return True, None, searched


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_verify_skip_rule_matches_brute_force(data):
    inst = gl2_defining_psi()
    words = st.lists(st.tuples(st.integers(1, 4), st.integers(0, 1)),
                     min_size=1, max_size=3).map(tuple)
    seed = {word: Q.from_rational(data.draw(nonzero_ints))
            for word in data.draw(st.lists(words, min_size=1,
                                           max_size=3))}
    alt_set = data.draw(st.sampled_from([(1, 2), (2, 3), (1, 3),
                                         (1, 2, 3), (2, 3, 4)]))
    poly = alternate(seed, alt_set, 4, Q)
    # a second set the polynomial need not alternate in
    rest = tuple(v for v in poly_variables(poly) if v not in alt_set)
    sets = [alt_set] + ([rest] if len(rest) > 1 else [])
    rep = verify_alternating_nonidentity(poly, inst, sets)
    assert rep.per_set[0]
    identity, witness, searched = brute_force_search(poly, inst)
    assert rep.mode == "exhaustive"
    assert (rep.is_identity, rep.witness_assignment, rep.searched) \
        == (identity, witness, searched)
    if witness is not None:
        assignment = {v: inst.algebra_maps[c]
                      for v, c in zip(poly_variables(poly), witness)}
        assert rep.witness_value == dense_oracle(poly, inst, assignment)


def injective_oracle(n, ell, sets):
    """(index, combo) for the combos of product(range(ell), repeat=n)
    injective on every set, variable v sitting at position v - 1; a
    variable past n is left out of its set."""
    positions = [[v - 1 for v in s if v <= n] for s in sets]
    return [(index, combo) for index, combo
            in enumerate(product(range(ell), repeat=n))
            if all(len({combo[k] for k in s}) == len(s)
                   for s in positions)]


@st.composite
def sweep_problems(draw):
    """n variables, ell operators, disjoint sets drawn from x_1 ..
    x_(n+1), so that a set may name x_(n+1), which the polynomial does
    not use, and random-mode samples."""
    n = draw(st.integers(0, 6))
    ell = draw(st.integers(1, 4))
    owners = draw(st.lists(st.integers(-1, 2), min_size=n + 1,
                           max_size=n + 1))
    sets = [tuple(v for v, o in enumerate(owners, 1) if o == s)
            for s in range(3)]
    samples = draw(st.lists(st.tuples(*[st.integers(0, ell - 1)] * n),
                            max_size=8))
    return n, ell, [s for s in sets if s], samples


@settings(max_examples=150, deadline=None)
@given(sweep_problems())
@example((0, 3, [(1,)], [()]))
@example((3, 2, [(1,), (2, 3, 4)], [(0, 1, 0), (1, 1, 0), (1, 0, 1)]))
@example((6, 4, [(1, 3, 5, 6), (2, 4)], []))
def test_sweep_visits_the_injective_combos_in_product_order(problem):
    """Only which combos the sweep visits, and their indices, are
    checked here, so the polynomial x1 x2 .. xn need not alternate."""
    n, ell, sets, samples = problem
    poly = {tuple((v, 0) for v in range(1, n + 1)): Q.one()}
    operators = {(c, 0): mat(Q, [[c + 2]]) for c in range(ell)}
    expected = injective_oracle(n, ell, sets)
    stream = list(_sweep(poly, Q, 1, operators, ell, sets))
    assert [(index, combo) for index, combo, _ in stream] == expected
    for _, combo, value in stream:
        assert value == mat(Q, [[prod(c + 2 for c in combo)]])
    # random mode keeps each sample's position and drops the repeats
    injective = {combo for _, combo in expected}
    kept = [(index, combo) for index, combo, _ in
            _sweep(poly, Q, 1, operators, ell, sets, samples)]
    assert kept == [(index, combo) for index, combo in enumerate(samples)
                    if combo in injective]


def test_verify_does_not_skip_sets_that_fail_alternation():
    # x1 x2 is not alternating in (1, 2), so the repeated substitution
    # E11, E11 is evaluated and is the witness
    rep = verify_alternating_nonidentity({((1, 0), (2, 0)): Q.one()},
                                         gl2_defining(), [(1, 2)])
    assert rep.per_set == [False]
    assert rep.witness_assignment == (0, 0)
    assert rep.searched == 1
    # the zero polynomial alternates in any set but has no variables
    rep = verify_alternating_nonidentity({}, gl2_defining(), [(1, 2)])
    assert rep.per_set == [True] and rep.is_identity is True
    assert rep.searched == 1


def test_verify_rejects_overlapping_sets():
    comm = {((1, 0), (2, 0)): Q.one()}
    with pytest.raises(ValueError, match="disjoint"):
        verify_alternating_nonidentity(comm, gl1_instance(),
                                       [(1, 2), (2,)])


def test_verify_regev_on_gl2():
    reg = regev_polynomial(2)
    rep = verify_alternating_nonidentity(
        reg.poly, gl2_defining(), [reg.x_vars, reg.y_vars])
    assert rep.alternating and rep.per_set == [True, True]
    assert rep.is_identity is False
    # first witness assigns all four matrix units to each block
    assert rep.witness_assignment == (0, 1, 2, 3, 0, 1, 2, 3)
    assert rep.searched == 6940
    assert rep.mode == "exhaustive"
    assert rep.witness_value == MatrixExact.identity(Q, 2).scale(
        Q.from_rational(-3))


def test_verify_random_mode():
    wide = {tuple((i, 0) for i in range(1, 9)): Q.one()}
    rep = verify_alternating_nonidentity(
        wide, gl2_defining(), [(1, 2)], exhaustive_limit=10, samples=50)
    assert rep.mode == "random"
    assert rep.is_identity is False and rep.searched <= 50
    again = verify_alternating_nonidentity(
        wide, gl2_defining(), [(1, 2)], exhaustive_limit=10, samples=50)
    assert again.witness_assignment == rep.witness_assignment
    # nothing found in random mode stays inconclusive
    comm = {((1, 0), (2, 0)): Q.one(), ((2, 0), (1, 0)): -Q.one()}
    rep = verify_alternating_nonidentity(
        comm, gl1_instance(), [(1, 2)], exhaustive_limit=0, samples=5)
    assert rep.is_identity is None
    assert "inconclusive" in rep.summary()


# -- the trace-factor recursion ----------------------------------------


def st3_polynomial():
    poly = {}
    for p in permutations((1, 2, 3)):
        poly[tuple((v, 0) for v in p)] = Q.from_rational(perm_sign(p))
    return poly


def test_insert_double_brackets_expansion():
    tiny = {((1, 0),): Q.one()}
    out = insert_double_brackets(tiny, (1,), 2, 3)
    assert out == {((2, 0), (3, 0), (1, 0)): Q.one(),
                   ((2, 0), (1, 0), (3, 0)): -Q.one(),
                   ((3, 0), (1, 0), (2, 0)): -Q.one(),
                   ((1, 0), (3, 0), (2, 0)): Q.one()}
    # decorated occurrences decorate the inserted letters
    out = insert_double_brackets({((1, 1),): Q.one()}, (1,), 2, 3)
    assert set(out) == {((2, 1), (3, 1), (1, 1)),
                        ((2, 1), (1, 1), (3, 1)),
                        ((3, 1), (1, 1), (2, 1)),
                        ((1, 1), (3, 1), (2, 1))}
    with pytest.raises(ValueError, match="fresh"):
        insert_double_brackets(tiny, (1,), 1, 3)
    with pytest.raises(ValueError, match="multilinear"):
        insert_double_brackets({((1, 0), (1, 0)): Q.one()}, (1,), 2, 3)


def test_trace_factor_on_adjoint_sl2():
    inst = sl2_adjoint()
    poly = st3_polynomial()
    assignment = {i + 1: inst.algebra_maps[i] for i in range(3)}
    assert not evaluate_poly(poly, inst, assignment).is_zero()
    # killing form in the (e, h, f) basis: k(h,h) = 8, k(e,f) = 4
    for u, v, expect in [(1, 1, 8), (0, 2, 4), (0, 0, 0), (0, 1, 0)]:
        res = trace_factor_check(inst, poly, (1, 2, 3), assignment,
                                 u, v)
        assert res["matches"]
        assert res["trace_factor"] == Q.from_rational(expect)


def test_trace_factor_on_gl2_regev():
    inst = gl2_defining()
    reg = regev_polynomial(2)
    units = matrix_units(Q)
    assignment = {i + 1: units[i] for i in range(4)}
    assignment.update({i + 5: units[i] for i in range(4)})
    # gl2 killing form: k(x, y) = 4 tr(xy) - 2 tr(x) tr(y)
    for u, v, expect in [(1, 2, 4), (0, 3, -2), (0, 0, 2)]:
        res = trace_factor_check(inst, reg.poly, reg.x_vars,
                                 assignment, u, v)
        assert res["matches"]
        assert res["trace_factor"] == Q.from_rational(expect)
