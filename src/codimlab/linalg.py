"""Exact dense linear algebra over the scalar fields, on integer rows.

Matrices are small here (dimensions are bounded by dim L and its low
tensor powers).  A vector over the field K = Q(zeta) of degree deg is
one integer row over Q (scalar.integer_row), and a K-span is the
Q-span of those rows times zeta^j, j < deg (scalar.zeta_multiples), its
realification.  Everything eliminates with one fraction-free
Gauss-Jordan, _int_rref, at deg = 1 when every entry is rational
(scalar.realified_degree).  The realified span is stable under zeta, so
each K-pivot owns the Q-pivots of its deg coordinates, and the K-RREF
is the Q-RREF rows whose pivot is a zeta^0 coordinate.

Subspace keeps the Q-RREF of its realification as integer rows, at
deg = 1 whenever its K-RREF is rational (the span descends to Q), so
the rows are canonical and decide equality and hashing; its basis over
K is read as Scalars only when a caller asks for it.  Sums,
intersections, containment and kernels work on those rows and hand
integer rows to the next Subspace (Subspace.from_rows, kernel_of), as
lie_core's brackets do.  MatrixExact holds rows of Scalars and an
integer form, built once or handed over by lie_core's table, through
which apply, @ and spin push integer rows; rank, solve and inverse
read their RREF back as Scalars.  Echelon grows a span of integer rows
one vector at a time and spin closes it under matrices.
"""
from __future__ import annotations

from math import gcd, lcm

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
    def from_integer_form(cls, field, columns, den):
        """The square matrix whose integer form (_integer_form) has the
        given columns and den; column k is read off columns[k * deg]."""
        deg = field.degree
        h = len(columns)
        out = []
        for k in range(0, h, deg):
            dense = [0] * h
            for o, c in columns[k]:
                dense[o] = c
            out.append(row_scalars(field, dense, den, deg))
        m = cls(field, list(zip(*out)))
        object.__setattr__(m, "_form", (columns, den, h))
        return m

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
        """Right kernel {x : M x = 0} as a subspace of F^cols: the
        kernel over Q of the realified map (module docstring)."""
        field = self.field
        deg = realified_degree(field, (x for r in self.data for x in r))
        rows = [integer_row(r, deg)[0] for r in self.data]
        if deg > 1:
            # row (i, t) reads the zeta^t coordinate of (M x)_i off the
            # coordinates (k, s) of x, from zeta^s times row i of M
            rows = [[w[k * deg + t] for k in range(self.cols) for w in zms]
                    for zms in (zeta_multiples(field, r, deg) for r in rows)
                    for t in range(deg)]
        return Subspace.kernel_of(field, self.cols, rows, deg)

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
    reduced, pivots = _int_rref(_realified(
        field, [integer_row(v, deg)[0] for v in vectors], deg), cols * deg)
    out, kept = [], []
    for row, p in zip(reduced, pivots):
        if p % deg == 0:
            out.append(row_scalars(field, row, row[p], deg))
            kept.append(p // deg)
    return out, kept


def _kernel_rows(rows, cols):
    """Integer rows spanning {x in Q^cols : r x = 0 for every row r}:
    one per free column f of the RREF, lead at f and -lead r[f] / r[p]
    at the pivot p of each row r, lead the lcm of the pivot entries."""
    reduced, pivots = _int_rref(list(rows), cols)
    lead = lcm(*(r[p] for r, p in zip(reduced, pivots)))
    out = []
    taken = set(pivots)
    for f in range(cols):
        if f not in taken:
            v = [0] * cols
            v[f] = lead
            for r, p in zip(reduced, pivots):
                if r[f]:
                    v[p] = -(lead // r[p]) * r[f]
            out.append(v)
    return out


def _in_span(rows, pivots, v) -> bool:
    """Whether the integer row v lies in the Q-span of RREF rows."""
    for p, r in zip(pivots, rows):
        if v[p]:
            v = _eliminate(v, r, p)
    return not any(v)


class Subspace:
    """Subspace of F^ambient stored by its canonical integer RREF.

    rows is the Q-RREF of the span's realification at deg (module
    docstring): each row primitive, positive at its pivot and 0 at the
    other pivots.  deg is 1 when the span has a rational basis, else the
    field degree, so two subspaces are equal exactly when their rows
    are.  The basis over the field, the rows whose pivot is a zeta^0
    coordinate over that entry, is read as Scalars on first use.
    """

    __slots__ = ("field", "ambient", "deg", "rows", "qpivots", "_basis")

    def __init__(self, field: FieldSpec, ambient: int, vectors):
        vectors = [tuple(v) for v in vectors]
        deg = realified_degree(field, (x for v in vectors for x in v))
        self._set(field, ambient, deg, _realified(
            field, [integer_row(v, deg)[0] for v in vectors], deg))

    def _set(self, field, ambient, deg, rows):
        """Store the RREF of integer rows at deg that span the
        realification over Q."""
        reduced, pivots = _int_rref(rows, ambient * deg)
        if deg > 1 and all(not any(x for i, x in enumerate(r) if i % deg)
                           for r, p in zip(reduced, pivots) if p % deg == 0):
            # a rational basis: the span descends to Q (module docstring)
            reduced = [r[::deg] for r, p in zip(reduced, pivots)
                       if p % deg == 0]
            pivots = [p // deg for p in pivots if p % deg == 0]
            deg = 1
        put = object.__setattr__
        put(self, "field", field)
        put(self, "ambient", ambient)
        put(self, "deg", deg)
        put(self, "rows", tuple(tuple(r) for r in reduced))
        put(self, "qpivots", tuple(pivots))
        put(self, "_basis", None)

    @classmethod
    def from_rows(cls, field: FieldSpec, ambient: int, rows, deg: int,
                  stable: bool = False) -> "Subspace":
        """The span of integer rows at deg (scalar.integer_row's
        layout); stable says their Q-span is already closed under zeta,
        so no zeta-multiples need adding."""
        out = object.__new__(cls)
        out._set(field, ambient, deg,
                 list(rows) if stable else _realified(field, rows, deg))
        return out

    @classmethod
    def kernel_of(cls, field: FieldSpec, ambient: int, rows,
                  deg: int) -> "Subspace":
        """The subspace whose realification at deg is the kernel of the
        integer rows, {x : r x = 0 for every row r}; the kernel must be
        closed under zeta, as that of a linear map over the field is."""
        return cls.from_rows(field, ambient,
                             _kernel_rows(rows, ambient * deg), deg,
                             stable=True)

    def __setattr__(self, *a):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def zero(cls, field, ambient):
        return cls.from_rows(field, ambient, [], 1)

    @classmethod
    def full(cls, field, ambient):
        return cls.from_rows(field, ambient,
                             [[int(i == j) for j in range(ambient)]
                              for i in range(ambient)], 1)

    @property
    def dim(self) -> int:
        return len(self.rows) // self.deg

    @property
    def pivots(self) -> tuple:
        deg = self.deg
        return tuple(p // deg for p in self.qpivots if p % deg == 0)

    @property
    def basis(self) -> tuple:
        if self._basis is None:
            deg = self.deg
            object.__setattr__(self, "_basis", tuple(
                row_scalars(self.field, r, r[p], deg)
                for r, p in zip(self.rows, self.qpivots) if p % deg == 0))
        return self._basis

    def rows_at(self, deg: int):
        """(rows, pivots): the Q-RREF of the realification at deg, a
        multiple of self.deg; a rational row r becomes r zeta^t."""
        if deg == self.deg:
            return self.rows, self.qpivots
        rows, pivots = [], []
        for r, p in zip(self.rows, self.qpivots):
            for t in range(deg):
                w = [0] * (len(r) * deg)
                w[t::deg] = r
                rows.append(w)
                pivots.append(p * deg + t)
        return rows, pivots

    def basis_rows(self, deg: int) -> list:
        """Integer rows at deg of the basis over the field."""
        return [r for r, p in zip(*self.rows_at(deg)) if p % deg == 0]

    def residuals(self, rows, deg: int) -> list:
        """lead v - sum (lead v[p] / r[p]) r over the RREF rows r at deg,
        for each integer row v: linear in v, 0 exactly on the span,
        lead being the lcm of the pivot entries."""
        own, pivots = self.rows_at(deg)
        lead = lcm(*(r[p] for r, p in zip(own, pivots)))
        out = []
        for v in rows:
            w = [lead * x for x in v]
            for r, p in zip(own, pivots):
                if v[p]:
                    f = lead // r[p] * v[p]
                    w = [a - f * b for a, b in zip(w, r)]
            out.append(w)
        return out

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and self.field == other.field
                and self.ambient == other.ambient
                and self.deg == other.deg
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.field, self.ambient, self.deg, self.rows))

    def contains_vector(self, vec) -> bool:
        vec = tuple(vec)
        deg = max(self.deg, realified_degree(self.field, vec))
        return _in_span(*self.rows_at(deg), integer_row(vec, deg)[0])

    def contains(self, other: "Subspace") -> bool:
        if other.dim > self.dim:
            return False
        deg = max(self.deg, other.deg)
        rows, pivots = self.rows_at(deg)
        return all(_in_span(rows, pivots, v) for v in other.basis_rows(deg))

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
        deg = max(self.deg, other.deg)
        return Subspace.from_rows(
            self.field, self.ambient,
            [*self.rows_at(deg)[0], *other.rows_at(deg)[0]], deg,
            stable=True)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: row reduce [A | A; B | 0], rows whose left block
        vanished have right blocks spanning the intersection."""
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        deg = max(self.deg, other.deg)
        n = self.ambient * deg
        block = [(*r, *r) for r in self.rows_at(deg)[0]]
        block += [(*r, *(0,) * n) for r in other.rows_at(deg)[0]]
        reduced, pivots = _int_rref(block, 2 * n)
        return Subspace.from_rows(
            self.field, self.ambient,
            [r[n:] for r, p in zip(reduced, pivots) if p >= n], deg,
            stable=True)

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


def _realified(field, rows, deg):
    """The integer rows and their zeta-multiples, whose Q-span is the
    realification of the span of the rows over the field."""
    if deg == 1:
        return list(rows)
    return [w for r in rows for w in zeta_multiples(field, r, deg)]


class Echelon:
    """A span grown one vector at a time, on integer rows.

    Kept rows are (pivot, row) pairs in semi-echelon form: each is
    nonzero at its pivot and 0 at the pivots of the rows kept before
    it, so one pass in insertion order reduces a row to a residual that
    vanishes at every pivot.  A kept vector brings its zeta-multiples,
    and generators holds one integer row per K-dimension.  The span
    starts from a subspace, whose RREF rows are kept as they are.  No
    RREF is built until subspace().
    """

    __slots__ = ("field", "ambient", "rows", "generators")

    def __init__(self, field: FieldSpec, ambient: int,
                 start: Subspace | None = None):
        self.field = field
        self.ambient = ambient
        self.rows = []
        self.generators = []
        if start is not None:
            rows, pivots = start.rows_at(field.degree)
            self.rows = list(zip(pivots, rows))
            self.generators = start.basis_rows(field.degree)

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
        return Subspace.from_rows(self.field, self.ambient,
                                  [w for _, w in self.rows],
                                  self.field.degree, stable=True)


def spin(field: FieldSpec, ambient: int, operators, seeds,
         closed: Subspace | None = None) -> Subspace:
    """Smallest subspace of F^ambient containing the seeds and closed
    under every matrix in operators.

    Every kept vector is pushed, as an integer row, through the integer
    form of every matrix once; a rejected image lies in the span of kept
    vectors, so by linearity its images do too.  The subspace closed is
    already closed under the matrices: it joins the span but its
    vectors are never pushed.  Once the span fills F^ambient no push
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
