"""Exact dense linear algebra over the scalar fields.

Matrices are small here (dimensions are bounded by dim L and its low
tensor powers), so the representation is a plain tuple of row tuples of
Scalars.  Rank, kernel, solve, inverse and Subspace all go through one
exact Gauss-Jordan elimination, _rref_rows, on every field.  Subspaces
are value objects: two subspaces are equal exactly when their reduced
row echelon bases coincide.  A span grown one vector at a time goes
through Echelon, and the closure of vectors under linear maps through
spin.
"""
from __future__ import annotations

from codimlab.scalar import FieldSpec


class MatrixExact:
    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: FieldSpec, data):
        data = tuple(tuple(x for x in row) for row in data)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", len(data[0]) if data else 0)
        for row in data:
            if len(row) != self.cols:
                raise ValueError("ragged rows")

    def __setattr__(self, *a):
        raise AttributeError("MatrixExact is immutable")

    @classmethod
    def zeros(cls, field, rows, cols):
        z = field.zero()
        return cls(field, [[z] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, field, n):
        z, o = field.zero(), field.one()
        return cls(field, [[o if i == j else z for j in range(n)]
                           for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def column(self, j):
        return tuple(self.data[i][j] for i in range(self.rows))

    def __eq__(self, other):
        return (isinstance(other, MatrixExact)
                and self.field == other.field and self.data == other.data)

    def __hash__(self):
        return hash((self.field, self.data))

    def __add__(self, other):
        return MatrixExact(self.field, [
            [a + b for a, b in zip(r1, r2)]
            for r1, r2 in zip(self.data, other.data)])

    def __sub__(self, other):
        return MatrixExact(self.field, [
            [a - b for a, b in zip(r1, r2)]
            for r1, r2 in zip(self.data, other.data)])

    def __neg__(self):
        return MatrixExact(self.field, [[-a for a in r] for r in self.data])

    def scale(self, c) -> "MatrixExact":
        return MatrixExact(self.field, [[c * a for a in r]
                                        for r in self.data])

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        z = self.field.zero()
        out = []
        for i in range(self.rows):
            ri = self.data[i]
            row = []
            for j in range(other.cols):
                acc = z
                for k in range(self.cols):
                    if ri[k]:
                        acc = acc + ri[k] * other.data[k][j]
                row.append(acc)
            out.append(row)
        return MatrixExact(self.field, out)

    def apply(self, vec):
        """Matrix times column vector, given and returned as a tuple."""
        z = self.field.zero()
        out = []
        for i in range(self.rows):
            acc = z
            ri = self.data[i]
            for k in range(self.cols):
                if ri[k] and vec[k]:
                    acc = acc + ri[k] * vec[k]
            out.append(acc)
        return tuple(out)

    def transpose(self):
        return MatrixExact(self.field,
                           [[self.data[i][j] for i in range(self.rows)]
                            for j in range(self.cols)])

    def trace(self):
        acc = self.field.zero()
        for i in range(min(self.rows, self.cols)):
            acc = acc + self.data[i][i]
        return acc

    def is_zero(self):
        return not any(any(r) for r in self.data)

    def rank(self) -> int:
        _, pivots = _rref_rows(self.field,
                               [list(r) for r in self.data], self.cols)
        return len(pivots)

    def kernel(self) -> "Subspace":
        """Right kernel {x : M x = 0} as a subspace of F^cols."""
        reduced, pivots = _rref_rows(self.field,
                                     [list(r) for r in self.data], self.cols)
        z, o = self.field.zero(), self.field.one()
        free = [j for j in range(self.cols) if j not in pivots]
        basis = []
        for j in free:
            vec = [z] * self.cols
            vec[j] = o
            for r, pc in enumerate(pivots):
                vec[pc] = -reduced[r][j]
            basis.append(vec)
        return Subspace(self.field, self.cols, basis)

    def solve(self, rhs):
        """One solution x of M x = rhs, or None if inconsistent."""
        aug = [list(r) + [b] for r, b in zip(self.data, rhs)]
        reduced, pivots = _rref_rows(self.field, aug, self.cols + 1)
        if self.cols in pivots:
            return None
        z = self.field.zero()
        x = [z] * self.cols
        for r, pc in enumerate(pivots):
            x[pc] = reduced[r][self.cols]
        return tuple(x)

    def inverse(self) -> "MatrixExact":
        """Inverse of a square matrix, by Gauss-Jordan on [M | I]."""
        n = self.rows
        if n != self.cols:
            raise ValueError("inverse needs a square matrix")
        ident = MatrixExact.identity(self.field, n).data
        aug = [list(r) + list(e) for r, e in zip(self.data, ident)]
        reduced, pivots = _rref_rows(self.field, aug, 2 * n)
        if pivots[:n] != list(range(n)):
            raise ArithmeticError("matrix is singular")
        return MatrixExact(self.field, [r[n:] for r in reduced])

    def det(self):
        if self.rows != self.cols:
            raise ValueError("det needs a square matrix")
        work = [list(r) for r in self.data]
        n = self.rows
        sign = 1
        acc = self.field.one()
        for col in range(n):
            piv = next((r for r in range(col, n) if work[r][col]), None)
            if piv is None:
                return self.field.zero()
            if piv != col:
                work[col], work[piv] = work[piv], work[col]
                sign = -sign
            lead = work[col][col]
            acc = acc * lead
            inv = lead.inverse()
            for r in range(col + 1, n):
                if work[r][col]:
                    f = work[r][col] * inv
                    work[r] = [a - f * b
                               for a, b in zip(work[r], work[col])]
        return acc if sign > 0 else -acc

    def __repr__(self):
        body = "; ".join(" ".join(repr(x) for x in row) for row in self.data)
        return f"MatrixExact[{body}]"


def _rref_rows(field, work, cols):
    """In-place Gauss-Jordan on a list of scalar row lists.

    Returns (nonzero reduced rows, pivot column list).  Deterministic:
    scans columns left to right, takes the first nonzero entry.
    """
    pivots = []
    rank = 0
    for col in range(cols):
        piv = None
        for r in range(rank, len(work)):
            if work[r][col]:
                piv = r
                break
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
    return work[:rank], pivots


class Subspace:
    """Subspace of F^ambient stored by its canonical RREF basis."""

    __slots__ = ("field", "ambient", "basis", "pivots")

    def __init__(self, field: FieldSpec, ambient: int, vectors):
        reduced, pivots = _rref_rows(field, [list(v) for v in vectors],
                                     ambient)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "basis",
                           tuple(tuple(r) for r in reduced))
        object.__setattr__(self, "pivots", tuple(pivots))

    def __setattr__(self, *a):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def zero(cls, field, ambient):
        return cls(field, ambient, [])

    @classmethod
    def full(cls, field, ambient):
        return cls(field, ambient,
                   MatrixExact.identity(field, ambient).data)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and self.field == other.field
                and self.ambient == other.ambient
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.field, self.ambient, self.basis))

    def reduce(self, vec):
        """Residual of vec after eliminating against the RREF basis.

        Zero residual means membership; the residual is linear in vec
        with kernel exactly this subspace.
        """
        v = list(vec)
        for pc, row in zip(self.pivots, self.basis):
            f = v[pc]
            if f:
                v = [a - f * b for a, b in zip(v, row)]
        return tuple(v)

    def contains_vector(self, vec) -> bool:
        return not any(self.reduce(vec))

    def contains(self, other: "Subspace") -> bool:
        return all(self.contains_vector(v) for v in other.basis)

    def coordinates(self, vec):
        """Coefficients of vec on the RREF basis, or None if outside."""
        v = list(vec)
        coords = []
        for pc, row in zip(self.pivots, self.basis):
            c = v[pc]
            coords.append(c)
            if c:
                v = [a - c * b for a, b in zip(v, row)]
        if any(v):
            return None
        return tuple(coords)

    def add(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        return Subspace(self.field, self.ambient,
                        list(self.basis) + list(other.basis))

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: row reduce [A | A; B | 0], rows whose left block
        vanished have right blocks spanning the intersection."""
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        n = self.ambient
        z = self.field.zero()
        block = [list(v) + list(v) for v in self.basis]
        block += [list(v) + [z] * n for v in other.basis]
        reduced, _ = _rref_rows(self.field, block, 2 * n)
        out = [row[n:] for row in reduced if not any(row[:n])]
        return Subspace(self.field, n, out)

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


class Echelon:
    """A span grown one vector at a time.

    Kept rows are (pivot, row) pairs in semi-echelon form: each row is
    1 at its pivot and 0 at the pivots of the rows kept before it, so
    one pass in insertion order reduces a vector to a residual that
    vanishes at every pivot.  No RREF is rebuilt until subspace().
    """

    __slots__ = ("field", "ambient", "rows")

    def __init__(self, field: FieldSpec, ambient: int, vectors=()):
        self.field = field
        self.ambient = ambient
        self.rows = []
        for v in vectors:
            self.add(v)

    def add(self, vec) -> bool:
        """Keep vec if it is outside the span; True when it was kept."""
        v = list(vec)
        for pc, row in self.rows:
            f = v[pc]
            if f:
                v = [a - f * b for a, b in zip(v, row)]
        pc = next((j for j, x in enumerate(v) if x), None)
        if pc is None:
            return False
        inv = v[pc].inverse()
        self.rows.append((pc, [inv * x for x in v]))
        return True

    def subspace(self) -> Subspace:
        return Subspace(self.field, self.ambient,
                        [row for _, row in self.rows])


def spin(field: FieldSpec, ambient: int, maps, seeds,
         closed=()) -> Subspace:
    """Smallest subspace of F^ambient containing the seeds and closed
    under every linear map in maps (callables from vectors to vectors).

    Every kept vector is pushed through every map once; a rejected
    image lies in the span of kept vectors, so by linearity its images
    do too.  The vectors in closed span a subspace already closed under
    the maps: they join the span but are never pushed.  Once the span
    fills F^ambient no push can add to it, so none is made.
    """
    span = Echelon(field, ambient, closed)
    fresh = [v for v in seeds if span.add(v)]
    while fresh and len(span.rows) < ambient:
        v = fresh.pop()
        for op in maps:
            w = op(v)
            if span.add(w):
                fresh.append(w)
                if len(span.rows) == ambient:
                    break
    return span.subspace()


def proper_invariant_subspace(field: FieldSpec, ambient: int, maps,
                              seeds) -> Subspace | None:
    """The spin of the first seed whose span under the maps is proper
    and nonzero, or None when every seed spins to 0 or F^ambient."""
    for seed in seeds:
        spun = spin(field, ambient, maps, [seed])
        if 0 < spun.dim < ambient:
            return spun
    return None


def modular_rank(int_rows, prime: int) -> int:
    """Rank of integer rows modulo a prime, straight dense elimination.

    A cross-check helper: the result is a lower bound for the rational
    rank, with equality unless the prime divides a critical minor.
    """
    work = [[v % prime for v in row] for row in int_rows]
    work = [r for r in work if any(r)]
    if not work:
        return 0
    cols = len(work[0])
    rank = 0
    for col in range(cols):
        piv = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = pow(work[rank][col], prime - 2, prime)
        work[rank] = [(inv * x) % prime for x in work[rank]]
        prow = work[rank]
        for r in range(rank + 1, len(work)):
            f = work[r][col]
            if f:
                work[r] = [(a - f * b) % prime
                           for a, b in zip(work[r], prow)]
        rank += 1
        if rank == len(work):
            break
    return rank
