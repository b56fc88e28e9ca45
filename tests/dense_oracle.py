"""Scalar Gauss-Jordan elimination, kept as a differential oracle.

Every entry is a Scalar and each pivot row is scaled by the inverse of
its pivot, the way codimlab.linalg eliminated before it moved to
integer rows.  The helpers build rank, kernel, solve, inverse, the
Zassenhaus intersection and matrix products on it, in the same
conventions as linalg, so the tests can require equal results.
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
