"""Alternating polynomial constructions on small matrix representations.

Regev's central polynomial for q x q matrices, deterministic gamma
selection, the scalar-separating polynomial built from the joint
eigenspaces of a commuting central family, and a harness that checks
formal alternation and searches for non-identity witnesses.

Associative G-polynomials are dicts mapping words, tuples of
(variable, group element) pairs, to scalars, matching free_polys.
The empty word is the multiplicative unit.

One evaluator, on integer rows over every field, walks a prefix tree
of the words, so shared prefixes are multiplied once and a product
that dies prunes the words below it.  The verification harness sweeps
its substitutions through it; the Regev centrality check needs one
evaluation.  The substitutions that repeat an operator inside a set
the polynomial alternates in are 0 in characteristic 0; an exhaustive
sweep never generates them, yet counts them.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from math import factorial, isqrt, lcm
from random import Random

from codimlab.free_polys import perm_sign, poly_add, poly_scale, rename_key
from codimlab.lie_core import LieAlgebra
from codimlab.linalg import (Echelon, MatrixExact, Subspace,
                             proper_invariant_subspace)
from codimlab.scalar import RATIONALS, FieldSpec, Scalar, realifier
from codimlab.symmetry import GroupAction

PIPELINE_DIM_CAP = 2


# -- module instances -------------------------------------------------


@dataclass
class RepresentationInstance:
    """A module over a Lie algebra with G-action, given by matrices.

    algebra_maps[i] is the operator of the i-th algebra basis vector
    and group_maps[g] the operator of group element g, all acting on
    column vectors of F^m.  The flags record what the supplier claims;
    validate() refutes them where that is decidable.
    """

    algebra: LieAlgebra
    action: GroupAction
    algebra_maps: list
    group_maps: list
    faithful: bool = False
    irreducible_with_group: bool = False

    @property
    def module_dim(self) -> int:
        return self.group_maps[0].rows

    @property
    def field(self) -> FieldSpec:
        return self.algebra.field

    def operator_of(self, vec) -> MatrixExact:
        """phi extended linearly to an arbitrary algebra element."""
        acc = MatrixExact.zeros(self.field, self.module_dim,
                                self.module_dim)
        for i, c in enumerate(vec):
            if c:
                acc = acc + self.algebra_maps[i].scale(c)
        return acc

    def conjugate(self, g: int, mat: MatrixExact) -> MatrixExact:
        rho = self.group_maps[g]
        return rho @ mat @ self.group_maps[self.action.group.inv(g)]

    def validate(self) -> "RepresentationInstance":
        alg, group = self.algebra, self.action.group
        m = self.module_dim
        problems = []
        if len(self.algebra_maps) != alg.dim:
            raise ValueError("need one operator per algebra basis vector")
        if len(self.group_maps) != group.order:
            raise ValueError("need one operator per group element")
        for mat in list(self.algebra_maps) + list(self.group_maps):
            if mat.rows != m or mat.cols != m:
                raise ValueError("module operators must be square of "
                                 "one common size")
        ident = MatrixExact.identity(self.field, m)
        if self.group_maps[0] != ident:
            problems.append("group identity does not act as identity")
        for g in range(group.order):
            for h in range(group.order):
                gh = group.mul(g, h)
                if self.group_maps[g] @ self.group_maps[h] \
                        != self.group_maps[gh]:
                    problems.append(f"group operators break at "
                                    f"({group.names[g]}, {group.names[h]})")
        for i in range(alg.dim):
            for j in range(i + 1, alg.dim):
                lhs = (self.algebra_maps[i] @ self.algebra_maps[j]
                       - self.algebra_maps[j] @ self.algebra_maps[i])
                rhs = self.operator_of(alg.bracket(
                    alg.basis_vector(i), alg.basis_vector(j)))
                if lhs != rhs:
                    problems.append(
                        f"bracket of ({alg.basis_names[i]}, "
                        f"{alg.basis_names[j]}) does not match the "
                        "operator commutator")
        for g in range(1, group.order):
            for i in range(alg.dim):
                lhs = self.group_maps[g] @ self.algebra_maps[i]
                rhs = self.operator_of(self.action.apply(
                    g, alg.basis_vector(i))) @ self.group_maps[g]
                if lhs != rhs:
                    problems.append(
                        f"equivariance fails at (g={group.names[g]}, "
                        f"{alg.basis_names[i]})")
        flat = MatrixExact(self.field, [
            [mat.data[r][c] for r in range(m) for c in range(m)]
            for mat in self.algebra_maps]) if alg.dim else None
        actually_faithful = flat is not None and flat.rank() == alg.dim
        if self.faithful != actually_faithful:
            problems.append("faithful flag does not match the kernel "
                            "of the representation")
        if self.irreducible_with_group:
            # spin unit vectors and their pairwise sums: a proper
            # invariant subspace refutes irreducibility, finding none
            # proves nothing
            units = ident.data
            seeds = list(units) + [tuple(x + y for x, y in zip(a, b))
                                   for a, b in combinations(units, 2)]
            witness = proper_invariant_subspace(
                self.field, m,
                list(self.algebra_maps) + list(self.group_maps[1:]), seeds)
            if witness is not None:
                problems.append("declared irreducible, but a proper "
                                f"submodule of dimension {witness.dim} "
                                "exists")
        if problems:
            raise ValueError("; ".join(problems))
        return self


# -- Regev's central polynomial ---------------------------------------


@dataclass
class RegevPolynomial:
    q: int
    poly: dict
    x_vars: tuple
    y_vars: tuple

    @property
    def term_count(self) -> int:
        return len(self.poly)


def regev_polynomial(q: int) -> RegevPolynomial:
    """The double-alternating central polynomial for q x q matrices,
    with x-runs and y-runs of lengths 1, 3, ..., 2q-1 interleaved."""
    if q < 1:
        raise ValueError("q must be positive")
    if q > 2:
        raise ValueError(
            f"explicit expansion for q = {q} is unsupported: the sum "
            f"has ({q * q}!)^2 terms")
    n = q * q
    x_vars = tuple(range(1, n + 1))
    y_vars = tuple(range(n + 1, 2 * n + 1))
    runs = [2 * k + 1 for k in range(q)]
    poly = {}
    perms = [(p, perm_sign(tuple(v + 1 for v in p)))
             for p in permutations(range(n))]
    for sigma, s_sign in perms:
        for tau, t_sign in perms:
            word = []
            sx = sy = 0
            for run in runs:
                for _ in range(run):
                    word.append((x_vars[sigma[sx]], 0))
                    sx += 1
                for _ in range(run):
                    word.append((y_vars[tau[sy]], 0))
                    sy += 1
            poly[tuple(word)] = RATIONALS.from_rational(s_sign * t_sign)
    return RegevPolynomial(q, poly, x_vars, y_vars)


@dataclass
class CentralityReport:
    q: int
    substitutions: int
    all_scalar: bool
    nonzero_count: int
    witness: tuple | None  # matrix units as 1-based (row, col) pairs
    witness_value: Fraction | None

    def summary(self) -> str:
        status = "central" if self.all_scalar else "NOT central"
        return (f"q={self.q}: {self.substitutions} substitutions, "
                f"{status}, {self.nonzero_count} nonzero values")


def matrix_unit_centrality(q: int) -> CentralityReport:
    """Decide on all matrix-unit substitutions whether the Regev
    polynomial's value is a scalar matrix, from one evaluation.

    The polynomial must alternate (is_alternating) in its x and in its
    y variables, disjoint blocks of ell = q^2 covering all of them, or
    ValueError.  Then a substitution that repeats a unit in a block is
    0, and one that runs through the units in each block is sgn(sigma)
    sgn(tau) V, V being the value at the witness, where each block
    takes the units in order.  All ell^(2 ell) substitutions count.
    """
    reg = regev_polynomial(q)
    field = RATIONALS
    one, zero = field.one(), field.zero()
    units = [(r, c) for r in range(q) for c in range(q)]
    ell = len(units)
    variables = poly_variables(reg.poly)
    blocks = (reg.x_vars, reg.y_vars)
    # equal sorted lists: the blocks are disjoint and cover variables
    if (any(len(b) != ell for b in blocks)
            or sorted(reg.x_vars + reg.y_vars) != variables
            or not all(is_alternating(reg.poly, b) for b in blocks)):
        raise ValueError(f"the q={q} Regev polynomial does not alternate "
                         f"in two disjoint blocks of {ell} variables "
                         f"covering all of its variables")
    unit_of = {v: u for b in blocks for u, v in enumerate(sorted(b))}
    operators = {(u, 0): MatrixExact(field, [
        [one if (i, j) == unit else zero for j in range(q)]
        for i in range(q)]) for u, unit in enumerate(units)}
    value = _evaluate_words(_integer_words(reg.poly, field, q, operators),
                            {(v, 0): (u, 0) for v, u in unit_of.items()})
    substitutions = ell ** len(variables)
    if value.is_zero():
        return CentralityReport(q, substitutions, True, 0, None, None)
    corner = value.data[0][0]
    witness = tuple((units[unit_of[v]][0] + 1, units[unit_of[v]][1] + 1)
                    for v in variables)
    return CentralityReport(
        q, substitutions,
        value == MatrixExact.identity(field, q).scale(corner),
        factorial(ell) ** 2, witness, corner.as_rational())


# -- gamma selection --------------------------------------------------


def choose_gamma(alpha, beta, k: int) -> Scalar:
    """Smallest positive integer gamma with alpha_i + gamma beta_i
    nonzero for i = 1..k, given alpha_i != 0 below k, alpha_k = 0 and
    beta_k != 0."""
    alpha, beta = list(alpha), list(beta)
    if not 1 <= k <= min(len(alpha), len(beta)):
        raise ValueError("k out of range")
    if any(not alpha[i] for i in range(k - 1)):
        raise ValueError("alpha entries below k must be nonzero")
    if alpha[k - 1]:
        raise ValueError("alpha_k must be zero")
    if not beta[k - 1]:
        raise ValueError("beta_k must be nonzero")
    field = beta[k - 1].field
    forbidden = [-(alpha[i] / beta[i]) for i in range(k - 1) if beta[i]]
    m = 1
    while True:
        gamma = field.from_rational(m)
        if all(gamma != bad for bad in forbidden):
            break
        m += 1
    for i in range(k):
        if not alpha[i] + gamma * beta[i]:
            raise ArithmeticError("gamma verification failed")
    return gamma


# -- square roots for eigenvalue splitting ----------------------------


def _fraction_sqrt(value: Fraction) -> Fraction | None:
    if value < 0:
        return None
    num, den = isqrt(value.numerator), isqrt(value.denominator)
    if num * num == value.numerator and den * den == value.denominator:
        return Fraction(num, den)
    return None


# coordinates of sqrt(delta) in the (1, zeta) basis for the quadratic
# cyclotomic fields; delta is the squarefree radicand
_QUADRATIC = {3: (-3, Fraction(1), Fraction(2)),
              4: (-1, Fraction(0), Fraction(1)),
              6: (-3, Fraction(-1), Fraction(2))}


def square_root_in(field: FieldSpec, value: Scalar) -> Scalar | None:
    """An exact square root of value inside the field, or None.

    Complete for the rationals and the quadratic cyclotomic fields
    (orders 1, 2, 3, 4, 6); other fields raise.
    """
    if field.degree == 1:
        root = _fraction_sqrt(value.as_rational())
        return None if root is None else field.from_rational(root)
    if field.order not in _QUADRATIC:
        raise ValueError(
            f"square roots in the order-{field.order} cyclotomic field "
            "are not supported; supply eigenvalues over a quadratic "
            "field or the rationals")
    delta, s0, s1 = _QUADRATIC[field.order]
    a, b = value.coeffs
    # rewrite value = p + q sqrt(delta)
    q_part = b / s1
    p_part = a - q_part * s0

    def assemble(u: Fraction, v: Fraction) -> Scalar:
        # u + v sqrt(delta) back in the (1, zeta) basis
        return field.scalar((u + v * s0, v * s1))

    if q_part == 0:
        root = _fraction_sqrt(p_part)
        if root is not None:
            return field.from_rational(root)
        root = _fraction_sqrt(p_part / delta)
        if root is not None:
            return assemble(Fraction(0), root)
        return None
    norm_root = _fraction_sqrt(p_part * p_part - q_part * q_part * delta)
    if norm_root is None:
        return None
    for cand in ((p_part + norm_root) / 2, (p_part - norm_root) / 2):
        u = _fraction_sqrt(cand)
        if u:
            v = q_part / (2 * u)
            if u * u + v * v * delta == p_part:
                return assemble(u, v)
    return None


# -- joint eigenspaces and the separating polynomial ------------------


def _restriction(field, operator: MatrixExact, comp: Subspace):
    rows = [comp.coordinates(operator.apply(v)) for v in comp.basis]
    if any(r is None for r in rows):
        raise ArithmeticError("component is not invariant")
    return MatrixExact(field, [[rows[j][i] for j in range(len(rows))]
                               for i in range(len(rows))])


def joint_eigenspaces(field: FieldSpec, operators, dim: int):
    """Common eigenspace decomposition of a commuting semisimple
    family on F^dim, for dim <= 2."""
    components = [Subspace.full(field, dim)]
    for op in operators:
        refined = []
        for comp in components:
            if comp.dim == 1:
                refined.append(comp)
                continue
            rest = _restriction(field, op, comp)
            tr, det = rest.trace(), rest.det()
            disc = tr * tr - det.field.from_rational(4) * det
            half = field.from_rational(Fraction(1, 2))
            if not disc:
                if rest != MatrixExact.identity(field, comp.dim).scale(
                        tr * half):
                    raise ValueError(
                        "input inconsistency: a centre element acts "
                        "non-semisimply on the module")
                refined.append(comp)
                continue
            root = square_root_in(field, disc)
            if root is None:
                raise ValueError(
                    "the field is too small to split the centre "
                    "eigenvalues; extend it and retry")
            for lam in ((tr + root) * half, (tr - root) * half):
                shifted = rest - MatrixExact.identity(
                    field, comp.dim).scale(lam)
                local = shifted.kernel()
                if local.dim != 1:
                    raise ValueError(
                        "input inconsistency: a centre element acts "
                        "non-semisimply on the module")
                lifted = []
                for v in local.basis:
                    amb = [field.zero()] * dim
                    for c, basis_vec in zip(v, comp.basis):
                        for i, entry in enumerate(basis_vec):
                            amb[i] = amb[i] + c * entry
                    lifted.append(tuple(amb))
                refined.append(Subspace(field, dim, lifted))
        components = refined
    return components


@dataclass
class ScalarSeparation:
    t: int
    q: int
    trivial: bool
    components: list
    projections: list
    eigentable: list          # eigentable[i][k]: r_i scalar on M_k
    group_choices: list       # per target j, tuple of g_i
    per_component: list       # f_j polynomials
    gammas: list              # (component, gamma) steps taken
    polynomial: dict
    evaluated: MatrixExact
    determinant: Scalar


def _scalar_on(field, operator: MatrixExact, comp: Subspace) -> Scalar:
    first = comp.basis[0]
    idx = next(i for i, c in enumerate(first) if c)
    lam = operator.apply(first)[idx] / first[idx]
    for v in comp.basis:
        if tuple(lam * c for c in v) != tuple(operator.apply(v)):
            raise ArithmeticError(
                "operator is not scalar on the component")
    return lam


def scalar_separating_polynomial(inst: RepresentationInstance,
                                 ) -> ScalarSeparation:
    """An alternating polynomial in the centre variables whose value at
    the centre basis is a nondegenerate operator on the module."""
    field, m = inst.field, inst.module_dim
    alg = inst.algebra
    centre = alg.annihilator(alg.full_space(), alg.zero_space())
    t = centre.dim
    ident = MatrixExact.identity(field, m)
    if t == 0:
        return ScalarSeparation(
            0, 1, True, [Subspace.full(field, m)], [ident], [], [],
            [], [], {(): field.one()}, ident, field.one())
    if m > PIPELINE_DIM_CAP:
        raise ValueError(
            f"the construction is limited to modules of dimension at "
            f"most {PIPELINE_DIM_CAP}; dimension {m} needs the "
            f"q = {m} Regev expansion with ({m * m}!)^2 terms")

    phis = [inst.operator_of(r) for r in centre.basis]
    components = joint_eigenspaces(field, phis, m)
    q = len(components)
    eigentable = [[_scalar_on(field, phi, comp) for comp in components]
                  for phi in phis]

    # projections onto each component along the others
    columns = MatrixExact(field, [
        [vec[i] for comp in components for vec in comp.basis]
        for i in range(m)])
    inv = columns.inverse()
    projections = []
    offset = 0
    for comp in components:
        sel = MatrixExact(field, [
            [field.one() if i == j and offset <= i < offset + comp.dim
             else field.zero() for j in range(m)] for i in range(m)])
        projections.append(columns @ sel @ inv)
        offset += comp.dim

    # how G permutes the components
    group = inst.action.group
    perm_of = []
    for g in range(group.order):
        images = []
        for comp in components:
            image = Subspace(field, m, [inst.group_maps[g].apply(v)
                                        for v in comp.basis])
            images.append(components.index(image))
        perm_of.append(tuple(images))
    orbit = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for g in range(group.order):
            j = perm_of[g][i]
            if j not in orbit:
                orbit.add(j)
                frontier.append(j)
    if len(orbit) != q:
        raise ValueError(
            "input inconsistency: the group orbit on the eigenspace "
            "components is not transitive, contradicting irreducibility")

    # basis completion of the eigenvalue rows inside F^q
    row_space = Subspace(field, q, [tuple(row) for row in eigentable])
    if row_space.dim != t:
        raise ValueError("input inconsistency: the centre does not act "
                         "faithfully on the module")
    span = Echelon(field, q, row_space)
    units = MatrixExact.identity(field, q).data
    completion = [c for c in range(q) if span.add(units[c])]

    group_choices = []
    per_component = []
    for j in range(q):
        choices = tuple(min(g for g in range(group.order)
                            if perm_of[g][i] == j) for i in range(q))
        group_choices.append(choices)
        f_j = {}
        for sigma in permutations(range(q)):
            sgn = perm_sign(tuple(v + 1 for v in sigma))
            comp_hits = []
            word = []
            for i in range(q):
                v = sigma[i]
                if v < t:
                    word.append((v + 1, choices[i]))
                else:
                    comp_hits.append(
                        perm_of[choices[i]][completion[v - t]])
            if any(c != j for c in comp_hits):
                continue
            key = tuple(word)
            val = f_j.get(key, field.zero()) + field.from_rational(sgn)
            if val:
                f_j[key] = val
            elif key in f_j:
                del f_j[key]
        per_component.append(f_j)

    assignment = {i + 1: phis[i] for i in range(t)}
    values = []
    for f_j in per_component:
        op = evaluate_poly(f_j, inst, assignment)
        values.append([_scalar_on(field, op, comp)
                       for comp in components])
    for j in range(q):
        if not values[j][j]:
            raise ArithmeticError(
                "construction failed: the component polynomial "
                "vanishes on its own component")

    combined = {}
    current = [field.zero()] * q
    gammas = []
    while True:
        dead = [k for k in range(q) if not current[k]]
        if not dead:
            break
        k = dead[0]
        gamma = choose_gamma(current, values[k], k + 1)
        combined = poly_add(combined, poly_scale(per_component[k],
                                                 gamma))
        current = [c + gamma * b for c, b in zip(current, values[k])]
        gammas.append((k, gamma))

    evaluated = evaluate_poly(combined, inst, assignment)
    determinant = evaluated.det()
    if not determinant:
        raise ArithmeticError("construction failed: the combined "
                              "polynomial is degenerate")
    return ScalarSeparation(t, q, False, components, projections,
                            eigentable, group_choices, per_component,
                            gammas, combined, evaluated, determinant)


# -- evaluation and the verification harness --------------------------


def _word_tree(terms) -> dict:
    """The words of the (word, value) pairs terms as a prefix tree:
    each node maps a letter to its child node, and the key None holds
    the value of the word that ends there."""
    tree = {}
    for word, value in terms:
        node = tree
        for letter in word:
            node = node.setdefault(letter, {})
        node[None] = value
    return tree


def _integer_words(poly: dict, field: FieldSpec, m: int,
                   operators: dict) -> tuple:
    """poly and its m x m operators as integers, once per sweep: the
    tuple (field, m, deg, tables, tree, top, D, C) that
    _evaluate_words reads.

    A vector sum_k a_k e_k of K^m has deg rational coordinates per k:
    coordinate c = k deg + t is the coefficient of zeta^t in a_k, so
    right multiplication by a K-matrix is one Q-linear map; deg and
    the coordinates come from scalar.realifier.  tables[key][c] holds
    the (shift, value) pairs of zeta^t times row k of operators[key],
    times D, the common denominator of the operator entries.  tree is
    the prefix tree of the words (_word_tree) with each coefficient
    times C, the common denominator of the coefficients, as its
    (shift, value) pairs per t.  top is the length of the longest
    word.
    """
    coeffs = list(poly.values())
    entries = [x for op in operators.values() for row in op.data
               for x in row if x]
    deg, realify = realifier(field, entries + coeffs)
    op_den = lcm(*(x.den for x in entries))

    def table(op):
        rows = [[(j, realify(x, op_den)) for j, x in enumerate(r) if x]
                for r in op.data]
        return [[(j * deg - k * deg + s - t, v)
                 for j, mults in row for s, v in mults[t]]
                for k, row in enumerate(rows) for t in range(deg)]

    tables = {key: table(op) for key, op in operators.items()}
    coeff_den = lcm(*(c.den for c in coeffs))
    # one table per distinct coefficient, shared by its words
    scaled = {c: [[(s - t, v) for s, v in mult]
                  for t, mult in enumerate(realify(c, coeff_den))]
              for c in set(coeffs)}
    tree = _word_tree((word, scaled[c]) for word, c in poly.items())
    top = max(map(len, poly), default=0)
    return field, m, deg, tables, tree, top, op_den, coeff_den


def _evaluate_words(words: tuple, choice: dict) -> MatrixExact:
    """Sum over the words of coefficient times product, words being
    the _integer_words of a polynomial and choice mapping each of its
    letters to the key of the letter's operator.

    A product is carried as one integer vector keyed by i w + c, for
    start row i and coordinate c < w = m deg, walking the prefix tree
    of the words, so words sharing a prefix share its product, and a
    product that dies prunes every word below it.  A word of length d
    ends in the accumulator of depth d, which is divided by D^d C when
    the value is read.
    """
    field, m, deg, tables, tree, top, op_den, coeff_den = words
    width = m * deg
    letters = {letter: tables[key] for letter, key in choice.items()}
    accs = [{} for _ in range(top + 1)]

    def walk(node, rows, depth):
        for letter, child in node.items():
            if letter is None:
                acc = accs[depth]
                get = acc.get
                for key, x in rows.items():
                    for shift, c in child[key % deg]:
                        nk = key + shift
                        acc[nk] = get(nk, 0) + x * c
                continue
            table = letters[letter]
            new = {}
            get = new.get
            for key, x in rows.items():
                for shift, y in table[key % width]:
                    nk = key + shift
                    new[nk] = get(nk, 0) + x * y
            if 0 in new.values():
                new = {nk: v for nk, v in new.items() if v}
            if new:
                walk(child, new, depth + 1)

    walk(tree, {i * (width + deg): 1 for i in range(m)}, 0)
    total = {}
    for depth, acc in enumerate(accs):
        scale = op_den ** (top - depth)
        for key, v in acc.items():
            total[key] = total.get(key, 0) + v * scale
    den = op_den ** top * coeff_den
    pad = [0] * (field.degree - deg)
    zero = field.zero()
    grid = []
    for i in range(m):
        row = []
        for j in range(m):
            nums = [total.get(i * width + j * deg + t, 0)
                    for t in range(deg)]
            row.append(field.scalar([Fraction(v, den) for v in nums] + pad)
                       if any(nums) else zero)
        grid.append(row)
    return MatrixExact(field, grid)


def evaluate_poly(poly: dict, inst: RepresentationInstance,
                  assignment: dict) -> MatrixExact:
    """Evaluate an associative G-polynomial; assignment maps variable
    indices to module operators, decorations conjugate by rho(g).

    One call of the integer evaluator, whose operators are the letters
    themselves."""
    letters = {letter for word in poly for letter in word}
    operators = {(v, g): inst.conjugate(g, assignment[v])
                 for v, g in letters}
    words = _integer_words(poly, inst.field, inst.module_dim, operators)
    return _evaluate_words(words, {letter: letter for letter in letters})


def _injective_combos(n: int, ell: int, sets):
    """(index, combo) for each combo of product(range(ell), repeat=n)
    that is injective on every set of positions in sets, in
    lexicographic order, index being its position in that product.

    A depth-first walk that never enters a value already taken inside
    the set of the position, so it never builds a combo it skips."""
    # taken[k]: the values taken by the earlier positions of the set
    # of position k, shared by every position of that set
    taken = [set() for _ in range(n)]
    for positions in sets:
        shared = set()
        for k in positions:
            taken[k] = shared
    weights = [ell ** (n - 1 - k) for k in range(n)]
    combo = [0] * n

    def walk(k, index):
        if k == n:
            yield index, tuple(combo)
            return
        used = taken[k]
        for c in range(ell):
            if c not in used:
                combo[k] = c
                used.add(c)
                yield from walk(k + 1, index + c * weights[k])
                used.discard(c)

    return walk(0, 0)


def _sweep(poly: dict, field: FieldSpec, m: int, operators: dict,
           ell: int, sets, samples=None):
    """Yield (index, combo, value) for each substitution that can be
    nonzero, value being an m x m MatrixExact.

    combo[k] names the operator of the k-th variable of poly in
    increasing order, operators[c, g] being operator c conjugated by
    rho(g).  poly must alternate in every set in sets: a combo that
    repeats an operator inside one is 0 in characteristic 0, as
    swapping the two equal arguments negates the value, so it is not
    evaluated.  Without samples, the combos are the n-tuples over
    range(ell) injective on every set, generated without visiting the
    others (_injective_combos), and index is the position of the combo
    in product(range(ell), repeat=n), so ell ** n counts them all.
    With samples, an iterable of combos, index is the position of the
    combo in it and the repeating ones are dropped one by one.  The
    operators and coefficients become integers once per sweep
    (_integer_words), and _evaluate_words evaluates each combo.
    """
    variables = poly_variables(poly)
    at = {v: k for k, v in enumerate(variables)}
    # a set that passed is_alternating names only variables of poly,
    # unless it has one variable or poly is empty
    sets = [[at[v] for v in s if v in at] for s in sets]
    if samples is None:
        combos = _injective_combos(len(variables), ell, sets)
    else:
        combos = ((index, combo) for index, combo in enumerate(samples)
                  if all(len({combo[k] for k in s}) == len(s)
                         for s in sets))
    letters = {letter for word in poly for letter in word}
    words = _integer_words(poly, field, m, operators)
    for index, combo in combos:
        yield index, combo, _evaluate_words(
            words, {(v, g): (combo[at[v]], g) for v, g in letters})


def poly_variables(poly: dict) -> list[int]:
    return sorted({v for word in poly for v, _ in word})


def is_alternating(poly: dict, var_set) -> bool:
    """Does every transposition inside var_set negate the polynomial?

    The adjacent transpositions of the sorted set generate its
    symmetric group, and a product of permutations that each negate the
    polynomial acts by its sign, so only those are tried, each by
    looking up the swapped key of every term.  A set of two or more
    variables that names one the polynomial does not use is not
    alternating, unless the polynomial is 0."""
    ordered = sorted(var_set)
    negated = [(key, -c) for key, c in poly.items()]
    for i, j in zip(ordered, ordered[1:]):
        swap = {i: j, j: i}
        if any(poly.get(rename_key(key, swap)) != c for key, c in negated):
            return False
    return True


@dataclass
class AlternationReport:
    alternating: bool
    per_set: list
    is_identity: bool | None  # None when a random search found nothing
    witness_assignment: tuple | None
    witness_value: MatrixExact | None
    searched: int
    mode: str

    def summary(self) -> str:
        alt = "alternating" if self.alternating else "not alternating"
        if self.is_identity is None:
            verdict = "inconclusive"
        elif self.is_identity:
            verdict = "identity"
        else:
            verdict = f"non-identity (witness {self.witness_assignment})"
        return f"{alt}; {verdict} after {self.searched} {self.mode} " \
            "substitutions"


def verify_alternating_nonidentity(poly: dict,
                                   inst: RepresentationInstance,
                                   sets, exhaustive_limit: int = 200000,
                                   seed: int = 0,
                                   samples: int = 2000,
                                   ) -> AlternationReport:
    """Check formal alternation in each variable set and search basis
    substitutions for a nonvanishing value."""
    sets = [tuple(s) for s in sets]
    flat = [v for s in sets for v in s]
    if len(flat) != len(set(flat)):
        raise ValueError("alternation sets must be disjoint")
    variables = poly_variables(poly)
    per_set = [is_alternating(poly, s) for s in sets]

    ell = inst.algebra.dim
    if ell ** len(variables) <= exhaustive_limit:
        mode, searched, draws = "exhaustive", ell ** len(variables), None
    else:
        mode, searched = "random", samples
        rng = Random(seed)
        draws = (tuple(rng.randrange(ell) for _ in variables)
                 for _ in range(samples))
    decorations = {g for word in poly for _, g in word}
    operators = {(c, g): inst.conjugate(g, op)
                 for c, op in enumerate(inst.algebra_maps)
                 for g in decorations}
    alternating = [s for s, ok in zip(sets, per_set) if ok]
    witness = value = None
    for index, combo, out in _sweep(poly, inst.field, inst.module_dim,
                                    operators, ell, alternating, draws):
        if not out.is_zero():
            witness, value, searched = combo, out, index + 1
            break
    identity = (False if witness is not None
                else True if mode == "exhaustive" else None)
    return AlternationReport(all(per_set), per_set, identity, witness,
                             value, searched, mode)


# -- the trace-factor recursion ---------------------------------------


def insert_double_brackets(poly: dict, x_vars, u_var: int,
                           v_var: int) -> dict:
    """Sum over i in x_vars of poly with x_i replaced by the double
    commutator [u, [v, x_i]], expanded into associative words.

    A decorated occurrence x_i^g picks up the same decoration on the
    inserted u and v letters."""
    for word in poly:
        vs = [v for v, _ in word]
        if u_var in vs or v_var in vs:
            raise ValueError("u and v variables must be fresh")
    out = {}
    for target in x_vars:
        for word, coeff in poly.items():
            positions = [k for k, (v, _) in enumerate(word)
                         if v == target]
            if len(positions) != 1:
                raise ValueError("polynomial must be multilinear in "
                                 "the alternation variables")
            k = positions[0]
            g = word[k][1]
            u, v, x = (u_var, g), (v_var, g), word[k]
            expansions = [((u, v, x), 1), ((u, x, v), -1),
                          ((v, x, u), -1), ((x, v, u), 1)]
            for middle, sgn in expansions:
                new = word[:k] + middle + word[k + 1:]
                add = coeff * coeff.field.from_rational(sgn)
                cur = out.get(new)
                val = add if cur is None else cur + add
                if val:
                    out[new] = val
                elif new in out:
                    del out[new]
    return out


def trace_factor_check(inst: RepresentationInstance, poly: dict,
                       x_vars, assignment: dict, u_index: int,
                       v_index: int) -> dict:
    """Evaluate the double-bracket insertion against its factored form
    tr(ad u ad v) * poly, as operators on the module.

    Valid when the x variables are assigned the full algebra basis.
    """
    n = max(poly_variables(poly), default=0)
    u_var, v_var = n + 1, n + 2
    inserted = insert_double_brackets(poly, x_vars, u_var, v_var)
    full = dict(assignment)
    full[u_var] = inst.algebra_maps[u_index]
    full[v_var] = inst.algebra_maps[v_index]
    lhs = evaluate_poly(inserted, inst, full)
    killing = inst.algebra.killing_form()
    factor = killing.data[u_index][v_index]
    rhs = evaluate_poly(poly, inst, assignment).scale(factor)
    return {"matches": lhs == rhs, "trace_factor": factor,
            "lhs": lhs, "rhs": rhs}
