"""Exact dense linear algebra over the scalar fields, on integer rows.

Matrices are small here (dimensions are bounded by dim L and its low
tensor powers).  MatrixExact holds rows of Scalars and Subspace its
RREF basis, so two subspaces are equal exactly when those bases
coincide; Scalars appear only at that boundary.  A vector over the
field K = Q(zeta) of degree deg is one integer row over Q
(scalar.integer_row), and a K-span is the Q-span of those rows times
zeta^j, j < deg (scalar.zeta_multiples).  Rank, kernel, solve,
inverse and Subspace go through one fraction-free Gauss-Jordan,
_int_rref, at deg = 1 when every entry is rational
(scalar.realified_degree).  The realified span is stable under zeta, so
each K-pivot owns the Q-pivots of its deg coordinates, and the K-RREF
is the Q-RREF rows whose pivot is a zeta^0 coordinate.  Echelon grows
a span of integer rows one vector at a time and spin closes it under
matrices, pushing rows through each matrix's integer form, cached on
the immutable MatrixExact, which apply and @ use too.
"""
from __future__ import annotations

from math import gcd

from codimlab.scalar import (FieldSpec, integer_row, realified_degree,
                             row_scalars, zeta_multiples)


class MatrixExact:
    __slots__ = ("field", "rows", "cols", "data", "_form")

    def __init__(self, field: FieldSpec, data):
        data = tuple(tuple(x for x in row) for row in data)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", len(data[0]) if data else 0)
        object.__setattr__(self, "_form", None)
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
        columns = [self.apply(other.column(j)) for j in range(other.cols)]
        return MatrixExact(self.field, [[col[i] for col in columns]
                                        for i in range(self.rows)])

    def apply(self, vec):
        """Matrix times column vector, given and returned as a tuple."""
        deg = self.field.degree
        form = self._integer_form()
        row, den = integer_row(vec, deg)
        return row_scalars(self.field, _push(form, row), den * form[1], deg)

    def _integer_form(self):
        """(columns, den, width), built once: columns[k * deg + t] holds
        the nonzero (out, c) of the integer row den * M zeta^t e_k, of
        the given width, den being the entries' common denominator."""
        if self._form is None:
            deg = self.field.degree
            h = self.rows * deg
            flat, den = integer_row((x for k in range(self.cols)
                                     for x in self.column(k)), deg)
            columns = [[(o, c) for o, c in enumerate(w) if c]
                       for k in range(self.cols)
                       for w in zeta_multiples(self.field,
                                               flat[k * h:(k + 1) * h], deg)]
            object.__setattr__(self, "_form", (columns, den, h))
        return self._form

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
        return len(_rref_rows(self.field, self.data, self.cols)[1])

    def kernel(self) -> "Subspace":
        """Right kernel {x : M x = 0} as a subspace of F^cols."""
        reduced, pivots = _rref_rows(self.field, self.data, self.cols)
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


def _primitive(row):
    g = gcd(*row)
    return row if g <= 1 else [x // g for x in row]


def _eliminate(row, prow, col):
    """row minus the multiple of prow that clears column col, over its
    content (scaled by a nonzero integer, positive when prow[col] is)."""
    a, b = prow[col], row[col]
    g = gcd(a, b)
    return _primitive([a // g * x - b // g * y for x, y in zip(row, prow)])


def _push(form, row):
    """The integer row den * M v, for v given as an integer row and
    (columns, den, width) the integer form of M."""
    columns, _, width = form
    out = [0] * width
    for x, col in zip(row, columns):
        if x:
            for o, c in col:
                out[o] += x * c
    return out


def _int_rref(work, cols):
    """Fraction-free Gauss-Jordan on a list of integer rows, in place:
    r <- a r - b p, then r over its content, so no fraction is made.

    Returns (nonzero rows, pivot column list); each row is primitive,
    positive at its pivot and 0 at every other pivot, so a row over its
    pivot entry is a row of the RREF.  Deterministic: scans columns left
    to right, takes the first nonzero entry.
    """
    pivots = []
    rank = 0
    for col in range(cols):
        piv = next((r for r in range(rank, len(work)) if work[r][col]),
                   None)
        if piv is None:
            continue
        prow = _primitive(work[piv])
        if prow[col] < 0:
            prow = [-x for x in prow]
        work[piv] = work[rank]
        work[rank] = prow
        for r, row in enumerate(work):
            if row[col] and r != rank:
                work[r] = _eliminate(row, prow, col)
        pivots.append(col)
        rank += 1
        if rank == len(work):
            break
    return work[:rank], pivots


def _rref_rows(field, vectors, cols):
    """The RREF of Scalar vectors of length cols, as (nonzero rows,
    pivot column list), read back from the Q-RREF of their realification
    (module docstring)."""
    vectors = [tuple(v) for v in vectors]
    deg = realified_degree(field, (x for v in vectors for x in v))
    rows = [w for v in vectors
            for w in zeta_multiples(field, integer_row(v, deg)[0], deg)]
    reduced, pivots = _int_rref(rows, cols * deg)
    out, kept = [], []
    for row, p in zip(reduced, pivots):
        if p % deg == 0:
            out.append(row_scalars(field, row, row[p], deg))
            kept.append(p // deg)
    return out, kept


class Subspace:
    """Subspace of F^ambient stored by its canonical RREF basis."""

    __slots__ = ("field", "ambient", "basis", "pivots")

    def __init__(self, field: FieldSpec, ambient: int, vectors):
        reduced, pivots = _rref_rows(field, vectors, ambient)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "basis", tuple(reduced))
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
    """A span grown one vector at a time, on integer rows.

    Kept rows are (pivot, row) pairs in semi-echelon form: each is
    nonzero at its pivot and 0 at the pivots of the rows kept before
    it, so one pass in insertion order reduces a row to a residual that
    vanishes at every pivot.  A kept vector brings its zeta-multiples,
    and generators holds one integer row per K-dimension.  No RREF is
    built until subspace().
    """

    __slots__ = ("field", "ambient", "rows", "generators")

    def __init__(self, field: FieldSpec, ambient: int, vectors=()):
        self.field = field
        self.ambient = ambient
        self.rows = []
        self.generators = []
        for v in vectors:
            self.add(v)

    def add(self, vec) -> bool:
        """Keep vec if it is outside the span; True when it was kept."""
        return self.add_row(integer_row(vec, self.field.degree)[0])

    def add_row(self, row) -> bool:
        """add for a vector given as an integer row (scalar.integer_row
        at the field degree)."""
        # the span is stable under zeta, so the zeta-multiples of a row
        # outside it stay independent: only the first can reduce to 0
        for w in zeta_multiples(self.field, row, self.field.degree):
            for pc, kept in self.rows:
                if w[pc]:
                    w = _eliminate(w, kept, pc)
            pc = next((j for j, x in enumerate(w) if x), None)
            if pc is None:
                return False
            self.rows.append((pc, w))
        self.generators.append(row)
        return True

    def subspace(self) -> Subspace:
        return Subspace(self.field, self.ambient, [
            row_scalars(self.field, row, 1, self.field.degree)
            for row in self.generators])


def spin(field: FieldSpec, ambient: int, operators, seeds,
         closed=()) -> Subspace:
    """Smallest subspace of F^ambient containing the seeds and closed
    under every matrix in operators.

    Every kept vector is pushed, as an integer row, through the integer
    form of every matrix once; a rejected image lies in the span of kept
    vectors, so by linearity its images do too.  The vectors in closed
    span a subspace already closed under the matrices: they join the
    span but are never pushed.  Once the span fills F^ambient no push
    can add to it, so none is made.
    """
    span = Echelon(field, ambient, closed)
    fresh = [row for row in (integer_row(v, field.degree)[0] for v in seeds)
             if span.add_row(row)]
    forms = [op._integer_form() for op in operators]
    while fresh and len(span.generators) < ambient:
        v = fresh.pop()
        for form in forms:
            w = _primitive(_push(form, v))
            if span.add_row(w):
                fresh.append(w)
                if len(span.generators) == ambient:
                    break
    return span.subspace()


def proper_invariant_subspace(field: FieldSpec, ambient: int, operators,
                              seeds) -> Subspace | None:
    """The spin of the first seed whose span under the matrices is
    proper and nonzero, or None when every seed spins to 0 or F^ambient."""
    for seed in seeds:
        spun = spin(field, ambient, operators, [seed])
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
