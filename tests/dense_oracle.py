"""Scalar Gauss-Jordan elimination and the Scalar Lie layer, kept as
differential oracles.

Every entry is a Scalar and each pivot row is scaled by the inverse of
its pivot, the way codimlab.linalg eliminated before it moved to
integer rows.  The helpers build rank, kernel, solve, the
Zassenhaus intersection, coordinates and matrix products on it, in the
same conventions as linalg, and on those the brackets, ad matrices, Killing
form, annihilators, ideal and nilpotency tests, solvable radical and
Jacobi check of codimlab.lie_core, so the tests can require equal
results.  The last sections keep the equivariant complement of
codimlab.structure as it was built through an n x n projection, and
its Levi and nilradical checks with the clauses the others imply: the
levi rebuilt as an algebra and its Killing form tested, and the
nilradical tested for lying in the radical; with them the Levi factor
of gl2 written out by hand, as the gl2 fixtures once carried it.  The
last two keep MatrixExact's solve and its retired inverse as they read
a Subspace's Scalar basis (tests/helpers.py rebases algebras through
that inverse), and codimlab.exponent's composition chain as it searched
every candidate, with section matrices read through the section frame
and envelopes spun under dense Kronecker matrices, and its condition-2
sweep as it formed every bracket of every q-vector.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import product

from codimlab.config import Refusal
from codimlab.exponent import (_candidate_vectors, _eigenprojections,
                               _module_operators, resolve_action)
from codimlab.lie_core import LieAlgebra, StructureAnnotation
from codimlab.linalg import Echelon, MatrixExact, Subspace, spin
from codimlab.structure import _equivariance_equations, section_frame
from codimlab.symmetry import average_projection, character_value


def rref_rows(field, vectors, cols):
    """(nonzero RREF rows, pivot columns) of Scalar vectors of length
    cols: scans columns left to right, takes the first nonzero entry."""
    work = [list(v) for v in vectors]
    pivots = []
    rank = 0
    for col in range(cols):
        piv = next((r for r in range(rank, len(work)) if work[r][col]),
                   None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = work[rank][col].inverse()
        work[rank] = [inv * x for x in work[rank]]
        prow = work[rank]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], prow)]
        pivots.append(col)
        rank += 1
        if rank == len(work):
            break
    return [tuple(r) for r in work[:rank]], pivots


def span(field, ambient, vectors):
    """(basis, pivots) as Subspace stores them."""
    basis, pivots = rref_rows(field, vectors, ambient)
    return tuple(basis), tuple(pivots)


def coordinates(basis, pivots, vec):
    """Coefficients of vec on an RREF basis by back-substitution, or
    None if vec is outside its span."""
    v = list(vec)
    coords = []
    for pc, row in zip(pivots, basis):
        c = v[pc]
        coords.append(c)
        if c:
            v = [a - c * b for a, b in zip(v, row)]
    if any(v):
        return None
    return tuple(coords)


def rank(m) -> int:
    return len(rref_rows(m.field, m.data, m.cols)[1])


def kernel(m):
    reduced, pivots = rref_rows(m.field, m.data, m.cols)
    z, o = m.field.zero(), m.field.one()
    basis = []
    for j in (j for j in range(m.cols) if j not in pivots):
        vec = [z] * m.cols
        vec[j] = o
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][j]
        basis.append(vec)
    return span(m.field, m.cols, basis)


def solve(m, rhs):
    aug = [list(r) + [b] for r, b in zip(m.data, rhs)]
    reduced, pivots = rref_rows(m.field, aug, m.cols + 1)
    if m.cols in pivots:
        return None
    x = [m.field.zero()] * m.cols
    for r, pc in enumerate(pivots):
        x[pc] = reduced[r][m.cols]
    return tuple(x)


def intersect(field, ambient, a_vectors, b_vectors):
    z = field.zero()
    block = [list(v) + list(v) for v in a_vectors]
    block += [list(v) + [z] * ambient for v in b_vectors]
    reduced, _ = rref_rows(field, block, 2 * ambient)
    return span(field, ambient, [row[ambient:] for row in reduced
                                 if not any(row[:ambient])])


def apply(m, vec):
    z = m.field.zero()
    return tuple(sum((a * x for a, x in zip(row, vec)), z)
                 for row in m.data)


def matmul(a, b):
    """Rows of a @ b."""
    cols = [apply(a, b.column(j)) for j in range(b.cols)]
    return tuple(tuple(c[i] for c in cols) for i in range(a.rows))


# -- the Lie layer on Scalars -------------------------------------------
#
# The structure-constant computations of codimlab.lie_core as they read
# before the integer table: every bracket is a sum of Scalar products
# over LieAlgebra.bracket_basis, and every span goes through rref_rows
# above.  Subspaces are returned as span() pairs (basis, pivots).


def bracket(alg, u, v):
    """[u, v] for dense Scalar tuples u, v."""
    out = [alg.field.zero()] * alg.dim
    for i, ui in enumerate(u):
        if ui:
            for j, vj in enumerate(v):
                if vj:
                    for k, c in alg.bracket_basis(i, j).items():
                        out[k] = out[k] + ui * vj * c
    return tuple(out)


def bracket_subspaces(alg, a_basis, b_basis):
    return span(alg.field, alg.dim,
                [bracket(alg, u, v) for u in a_basis for v in b_basis])


def ad_basis(alg, i):
    """Rows of the matrix of ad e_i."""
    cols = [bracket(alg, alg.basis_vector(i), alg.basis_vector(j))
            for j in range(alg.dim)]
    return tuple(tuple(c[r] for c in cols) for r in range(alg.dim))


def killing_form(alg):
    """Rows of tr(ad e_i ad e_j)."""
    ads = [_Rows(alg.field, ad_basis(alg, i)) for i in range(alg.dim)]
    z = alg.field.zero()
    return tuple(tuple(sum((row[t] for t, row in enumerate(
        matmul(ads[i], ads[j]))), z) for j in range(alg.dim))
        for i in range(alg.dim))


def annihilator(alg, i_basis, j_basis):
    """{x : [x, I] <= J}: the kernel of x -> residuals of [x, b] mod J
    over b in I, the residual eliminating against J's RREF."""
    j_rows, j_pivots = span(alg.field, alg.dim, j_basis)

    def reduce(vec):
        v = list(vec)
        for pc, row in zip(j_pivots, j_rows):
            if v[pc]:
                f = v[pc]
                v = [a - f * b for a, b in zip(v, row)]
        return v

    rows = []
    for b in i_basis:
        cols = [reduce(bracket(alg, alg.basis_vector(k), b))
                for k in range(alg.dim)]
        rows += [[cols[k][c] for k in range(alg.dim)]
                 for c in range(alg.dim)]
    if not rows:
        return span(alg.field, alg.dim, [alg.basis_vector(k)
                                         for k in range(alg.dim)])
    return kernel(_Rows(alg.field, rows))


def is_ideal(alg, basis):
    full = [alg.basis_vector(k) for k in range(alg.dim)]
    bracketed, _ = bracket_subspaces(alg, basis, full)
    return span(alg.field, alg.dim, list(basis) + list(bracketed)) \
        == span(alg.field, alg.dim, basis)


def solvable_radical(alg):
    """The Killing-orthogonal complement of [L, L]."""
    full = [alg.basis_vector(k) for k in range(alg.dim)]
    derived, _ = bracket_subspaces(alg, full, full)
    kappa = _Rows(alg.field, killing_form(alg))
    rows = [apply(kappa, d) for d in derived]
    if not rows:
        return span(alg.field, alg.dim, full)
    return kernel(_Rows(alg.field, rows))


def ad_is_nilpotent(alg, v):
    cols = [bracket(alg, v, alg.basis_vector(j)) for j in range(alg.dim)]
    m = _Rows(alg.field, [[c[r] for c in cols] for r in range(alg.dim)])
    power = m
    for _ in range(alg.dim):
        if not any(any(r) for r in power.data):
            return True
        power = _Rows(alg.field, matmul(power, m))
    return not any(any(r) for r in power.data)


def jacobi_failures(alg):
    """The basis triples (a, b, c), a < b < c, on which Jacobi fails."""
    out = []
    n = alg.dim
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                ea, eb, ec = (alg.basis_vector(x) for x in (a, b, c))
                terms = (bracket(alg, bracket(alg, ea, eb), ec),
                         bracket(alg, bracket(alg, eb, ec), ea),
                         bracket(alg, bracket(alg, ec, ea), eb))
                if any(x + y + z for x, y, z in zip(*terms)):
                    out.append((a, b, c))
    return out


class _Rows:
    """The attributes of a MatrixExact that the helpers above read."""

    def __init__(self, field, rows):
        self.field = field
        self.data = tuple(tuple(r) for r in rows)
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else 0

    def column(self, j):
        return tuple(r[j] for r in self.data)


# -- the eigen-split on Scalars ------------------------------------------
#
# codimlab.symmetry.action_to_grading as it read before its projectors
# were summed on integer rows: every projector is summed entry by entry
# from Scalar products, and its column span goes through rref_rows.


def character_projector(field, group, matrices, t):
    """Rows of (1/|G|) sum_g chi_t(g)^-1 rho(g), for chi_t the character
    of codimlab.symmetry.character_value indexed by the tuple t."""
    n = matrices[0].rows
    acc = [[field.zero()] * n for _ in range(n)]
    for g in range(group.order):
        c = character_value(group, field, t, group.inv(g))
        for i, row in enumerate(matrices[g].data):
            acc[i] = [a + c * x for a, x in zip(acc[i], row)]
    inv = field.from_rational(Fraction(1, group.order))
    return tuple(tuple(inv * x for x in row) for row in acc)


def action_to_grading(field, group, matrices):
    """(components, new_basis, labels): components[ci] is the span()
    pair of the columns of the projector of the ci-th character tuple,
    new_basis their bases in character order, labels the character
    index of each basis vector."""
    components, new_basis, labels = {}, [], []
    for ci, t in enumerate(group.abelian_element_tuples()):
        proj = character_projector(field, group, matrices, t)
        basis, pivots = span(field, len(proj), list(zip(*proj)))
        components[ci] = (basis, pivots)
        new_basis.extend(basis)
        labels.extend([ci] * len(basis))
    return components, new_basis, tuple(labels)


# -- the equivariant complement through the ambient projection ----------
#
# codimlab.structure's complement and its multiplicity as they read
# before one system in the section frame gave both: the B-equivariant
# projection solved in the frame is extended by zero outside upper to an
# n x n matrix, averaged by codimlab.symmetry.average_projection, and
# its kernel met with upper; the multiplicity is the kernel of a second
# system on a second frame that also holds the rho(g).


def _levi_operators(algebra, levi):
    return [lambda v, b=b: algebra.bracket(b, v) for b in levi.basis]


def adapted_basis(field, upper, lower):
    """Vectors of upper extending lower's basis, from upper's own RREF
    (the section frame's extension before it took the quotient's)."""
    span = Echelon(field, upper.ambient, lower)
    return [v for v in upper.basis if span.add(v)]


def ambient_complement(algebra, levi, action, upper, lower):
    """The kernel in upper of the averaged ambient projection onto
    lower, as a Subspace; ArithmeticError when no B-equivariant
    projection exists."""
    field = algebra.field
    n = algebra.dim
    frame = section_frame(field, upper, lower)
    j_vecs, c_vecs, _ = frame
    s, t = len(j_vecs), len(c_vecs)
    if t == 0:
        return algebra.zero_space()
    if s == 0:
        return upper
    z = field.zero()
    rows, rhs = _equivariance_equations(field, frame,
                                        _levi_operators(algebra, levi))
    if rows:
        solution = MatrixExact(field, rows).solve(rhs)
        if solution is None:
            raise ArithmeticError("no B-equivariant projection")
    else:
        solution = (z,) * (t * s)
    # identity on lower, the solved values on the extension, zero
    # outside upper
    outside = adapted_basis(field, algebra.full_space(), upper)
    images = list(j_vecs)
    for q in range(t):
        img = (z,) * n
        for u in range(s):
            x = solution[q * s + u]
            if x:
                img = tuple(a + x * b for a, b in zip(img, j_vecs[u]))
        images.append(img)
    images += [(z,) * n] * len(outside)
    columns = MatrixExact(field, [[vec[i] for vec in
                                   j_vecs + c_vecs + outside]
                                  for i in range(n)])
    proj = MatrixExact(field, [[vec[i] for vec in images]
                               for i in range(n)]) @ subspace_inverse(
                                   columns)
    if action is not None and action.group.order > 1:
        proj = average_projection(proj, action)
    return proj.kernel().intersect(upper)


def hom_dimension(algebra, levi, action, upper, lower):
    """dim of the B- and G-equivariant maps upper/lower -> lower."""
    field = algebra.field
    frame = section_frame(field, upper, lower)
    s, t = len(frame[0]), len(frame[1])
    if s == 0 or t == 0:
        return 0
    operators = _levi_operators(algebra, levi)
    if action is not None:
        operators += [lambda v, g=g: action.apply(g, v)
                      for g in range(1, action.group.order)]
    rows, _ = _equivariance_equations(field, frame, operators)
    if not rows:
        return t * s
    return MatrixExact(field, rows).kernel().dim


# -- the Levi and nilradical checks with every clause ------------------


def gl2_annotation(alg) -> StructureAnnotation:
    """Levi part of gl2 in the matrix-unit basis: the traceless
    matrices span(E12, E21, E11 - E22)."""
    one = alg.field.one()
    z = alg.field.zero()
    return StructureAnnotation(levi=alg.span([
        alg.basis_vector(1), alg.basis_vector(2), (one, z, z, -one)]))


def restrict_to_subalgebra(algebra, sub):
    """The bracket of `sub` in its own basis, or None if not closed."""
    brackets = {}
    for i in range(sub.dim):
        for j in range(i + 1, sub.dim):
            w = algebra.bracket(sub.basis[i], sub.basis[j])
            coords = sub.coordinates(w)
            if coords is None:
                return None
            entry = {k: c for k, c in enumerate(coords) if c}
            if entry:
                brackets[(i, j)] = entry
    names = tuple(f"v{i}" for i in range(sub.dim))
    return LieAlgebra(algebra.field, names, brackets)


def verify_levi(algebra, levi, radical):
    problems = []
    if levi.dim + radical.dim != algebra.dim:
        problems.append("levi and radical dimensions do not fill L")
    if levi.intersect(radical).dim != 0:
        problems.append("levi meets the radical")
    as_algebra = restrict_to_subalgebra(algebra, levi)
    if as_algebra is None:
        problems.append("levi is not closed under the bracket")
    elif levi.dim and as_algebra.killing_form().kernel().dim != 0:
        problems.append("levi has a degenerate Killing form")
    return problems


def verify_nilradical(algebra, nil, radical, series):
    problems = []
    if not radical.contains(nil):
        problems.append("nilradical not inside the radical")
    if not algebra.is_ideal(nil):
        problems.append("nilradical candidate is not an ideal")
    if series[-1].dim:
        problems.append("nilradical candidate is not nilpotent")
    commutator = algebra.bracket_subspaces(algebra.full_space(), radical)
    if not nil.contains(commutator):
        problems.append("[L, R] is not inside the nilradical candidate")
    return problems


# -- solve and inverse through a Subspace ---------------------------------
#
# MatrixExact.solve as it read before it took its answer off the integer
# RREF, and the inverse MatrixExact had before no production code
# inverted a matrix: the augmented rows become a Subspace, whose Scalar
# basis is read at its pivots.


def subspace_solve(m, rhs):
    aug = Subspace(m.field, m.cols + 1,
                   [list(r) + [b] for r, b in zip(m.data, rhs)])
    if m.cols in aug.pivots:
        return None
    x = [m.field.zero()] * m.cols
    for v, pc in zip(aug.basis, aug.pivots):
        x[pc] = v[m.cols]
    return tuple(x)


def subspace_inverse(m):
    n = m.rows
    ident = MatrixExact.identity(m.field, n).data
    aug = Subspace(m.field, 2 * n,
                   [list(r) + list(e) for r, e in zip(m.data, ident)])
    if aug.pivots[:n] != tuple(range(n)):
        raise ArithmeticError("matrix is singular")
    return MatrixExact(m.field, [v[n:] for v in aug.basis])


# -- the exhaustive composition-chain search ------------------------------
#
# codimlab.exponent's chain as it read before the search stopped at a
# certified target: every candidate outside the current member is spun,
# the smallest spin is certified on matrices read through
# structure.section_frame, and the envelope spins the identity under the
# dense m^2 x m^2 Scalar matrices I_m (x) op^T of X -> X op.


def frame_section_matrices(field, operators, upper, lower):
    """Matrices on upper/lower in the section frame's extension basis."""
    _, c_vecs, split = section_frame(field, upper, lower)
    t = len(c_vecs)
    mats = []
    for op in operators:
        cols = [split(op.apply(v))[1] for v in c_vecs]
        mats.append(MatrixExact(field, [[cols[q][i] for q in range(t)]
                                        for i in range(t)]))
    return mats


def kronecker_envelope_dim(field, dim_m, operators):
    z, size = field.zero(), dim_m * dim_m
    right_multipliers = [MatrixExact(field, [
        [op.data[c % dim_m][r % dim_m] if c // dim_m == r // dim_m else z
         for c in range(size)] for r in range(size)]) for op in operators]
    identity = tuple(e for row in MatrixExact.identity(field, dim_m).data
                     for e in row)
    return spin(field, size, right_multipliers, [identity]).dim


def exhaustive_minimal_above(algebra, operators, candidates, cur):
    best = None
    for v in candidates:
        if cur.contains_vector(v):
            continue
        grown = spin(algebra.field, algebra.dim, operators, [v],
                     closed=cur)
        if best is None or grown.dim < best.dim:
            best = grown
        if best.dim == cur.dim + 1:
            break
    dim_m = best.dim - cur.dim
    if dim_m == 1:
        return best
    mats = frame_section_matrices(algebra.field, operators, best, cur)
    env = kronecker_envelope_dim(algebra.field, dim_m, mats)
    if env == dim_m * dim_m:
        return best
    raise Refusal("undecided", "section not certified",
                  section_dim=dim_m, envelope_dim=env)


def exhaustive_composition_chain(bench, decomp):
    """The chain members, L first and 0 last."""
    algebra = bench.algebra
    action = resolve_action(bench)
    operators = _module_operators(algebra, action)
    projections = _eigenprojections(algebra, action)
    ascending = [algebra.zero_space()]
    targets = []
    if decomp.nilradical.dim > 0:
        targets.append(decomp.nilradical)
    if decomp.nilradical.dim < algebra.dim:
        targets.append(algebra.full_space())
    for top in targets:
        candidates = _candidate_vectors(projections, top)
        while ascending[-1] != top:
            ascending.append(exhaustive_minimal_above(
                algebra, operators, candidates, ascending[-1]))
    return list(reversed(ascending))


# codimlab.exponent's condition-2 sweep as it read before the walk:
# every term of every bracket chain formed, and every q-vector in
# lexicographic order bracketing its whole prefix again.


def bracket_chain(algebra, complement, q_max):
    """[T, L, .., L] with 0..q_max copies of L, left-normed."""
    chain = [complement]
    for _ in range(q_max):
        chain.append(algebra.bracket_subspaces(chain[-1],
                                               algebra.full_space()))
    return chain


def product_sweep_condition2(algebra, chains, q_max):
    """First q-vector (lexicographic) making the left-normed bracket of
    the iterated subspaces nonzero, or None."""
    for qvec in product(range(q_max + 1), repeat=len(chains)):
        space = chains[0][qvec[0]]
        for k in range(1, len(chains)):
            if space.dim == 0:
                break
            space = algebra.bracket_subspaces(space, chains[k][qvec[k]])
        if space.dim:
            return qvec
    return None
