"""Scalar Gauss-Jordan elimination and the Scalar Lie layer, kept as
differential oracles.

Every entry is a Scalar and each pivot row is scaled by the inverse of
its pivot, the way codimlab.linalg eliminated before it moved to
integer rows.  The helpers build rank, kernel, solve, inverse, the
Zassenhaus intersection and matrix products on it, in the same
conventions as linalg, and on those the brackets, ad matrices, Killing
form, annihilators, ideal and nilpotency tests, solvable radical and
Jacobi check of codimlab.lie_core, so the tests can require equal
results.
"""
from __future__ import annotations


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


def inverse(m):
    """Rows of the inverse of a square matrix; ArithmeticError when
    it is singular."""
    n = m.rows
    z, o = m.field.zero(), m.field.one()
    aug = [list(r) + [o if i == j else z for j in range(n)]
           for i, r in enumerate(m.data)]
    reduced, pivots = rref_rows(m.field, aug, 2 * n)
    if pivots[:n] != list(range(n)):
        raise ArithmeticError("matrix is singular")
    return tuple(r[n:] for r in reduced)


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
