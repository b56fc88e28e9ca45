"""Exact dense linear algebra over the scalar fields, on integer rows.

Matrices are small here (dimensions are bounded by dim L and its low
tensor powers).  A vector over the field K = Q(zeta) of degree deg is
one integer row over Q (scalar.integer_row), and a K-span is the
Q-span of those rows times zeta^j, j < deg (scalar.zeta_multiples), its
realification.  Everything eliminates with reduce_row, the one
fraction-free reduction step of the package (codim's lattice uses it
too), at deg = 1 when every entry is rational (scalar.realified_degree).
The realified span is stable under zeta, so each K-pivot owns the
Q-pivots of its deg coordinates, and the K-RREF is the Q-RREF rows whose
pivot is a zeta^0 coordinate.

Subspace keeps the Q-RREF of its realification as integer rows, at
deg = 1 whenever its K-RREF is rational (the span descends to Q), so
the rows are canonical and decide equality and hashing; it keeps them
sparse as well, as reduce_row takes them, and reads its basis over K
as Scalars only when a caller asks for it.  Sums, intersections,
containment and kernels work on those rows and hand integer rows to the
next Subspace (Subspace.from_rows, kernel_of), as lie_core's brackets
do.  MatrixExact holds rows of Scalars and an integer form, built once
or handed over by lie_core's table, through which apply, @ and spin
push integer rows; rank counts the semi-echelon rows of its rows, and
solve reads only the Scalars it returns off the RREF of [M | rhs], with
no Subspace built.  Nothing inverts a matrix: coordinates on an RREF
basis are entries at its pivots (Subspace.coordinates).  Echelon grows
a span one vector at a time, and spin closes it under matrices, through
spin_forms, which works on their integer forms; block_form lays out
I (x) M, under which an associative envelope is spun.
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
        return row_scalars(self.field, _push(form, enumerate(row)),
                           den * form[1], deg)

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
        deg, pivots = _echelon_of_vectors(self.field, self.data)
        return len(pivots) // deg

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
        """One solution x of M x = rhs, or None if inconsistent: x is 0
        off the pivots of [M | rhs]'s RREF and reads the last column at
        them (module docstring), None when that column holds a pivot."""
        n = self.cols
        deg, reduced = _rref_of_vectors(
            self.field, [list(r) + [b] for r, b in zip(self.data, rhs)])
        x = [self.field.zero()] * n
        for p, r in reduced.items():
            if p // deg == n:
                return None
            if p % deg == 0:
                x[p // deg] = row_scalars(self.field, [
                    r.get(n * deg + t, 0) for t in range(deg)], r[p], deg)[0]
        return tuple(x)

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


def _sparse(row) -> dict:
    return {j: x for j, x in enumerate(row) if x}


def _dense(row: dict, width) -> list:
    out = [0] * width
    for j, x in row.items():
        out[j] = x
    return out


def _normalized(row: dict, k) -> dict:
    """A sparse row over its content, signed to be positive at key k."""
    g = gcd(*row.values())
    if row[k] < 0:
        g = -g
    return row if g == 1 else {j: x // g for j, x in row.items()}


def reduce_row(pivots: dict, row: dict):
    """(residual, its least key, None when the residual is 0) of a
    sparse integer row reduced against pivots, {least key: sparse
    integer row}, fraction-free as in Bareiss's elimination.  Each step
    clears the least key k against its pivot p by row - (a // b) p when
    b = p[k] divides a = row[k], else by (b / g) row - (a / g) p with
    g = gcd(a, b); the first step copies the row and the later ones
    update that copy in place, so neither the row nor pivots changes."""
    own = False
    while row:
        k = min(row)
        pivot = pivots.get(k)
        if pivot is None:
            return row, k
        a, b = row[k], pivot[k]
        if a % b:
            g = gcd(a, b)
            ma, q = b // g, a // g
            row = {kk: v * ma for kk, v in row.items()}
        else:
            q = a // b
            if not own:
                row = dict(row)
        own = True
        get = row.get
        for kk, v in pivot.items():
            cur = get(kk, 0) - q * v
            if cur:
                row[kk] = cur
            else:
                # cur is 0 only where row held q v, as q and v are
                # nonzero
                del row[kk]
    return row, None


def _push(form, entries):
    """The integer row den * M v, for v given by the (index, value)
    pairs of its integer row and (columns, den, width) the integer form
    of M."""
    columns, _, width = form
    out = [0] * width
    for k, x in entries:
        if x:
            for o, c in columns[k]:
                out[o] += x * c
    return out


def shift_product(row: dict, table, width: int) -> dict:
    """The sparse integer row of the x s at key + shift, over the (key,
    x) of the sparse row and the (shift, s) of table[key % width], zeros
    dropped: a linear map whose table repeats with period width, as
    codim's lattice and alternating's word evaluator lay theirs out."""
    new = {}
    get = new.get
    for key, x in row.items():
        for shift, s in table[key % width]:
            nk = key + shift
            new[nk] = get(nk, 0) + x * s
    if 0 in new.values():
        new = {nk: v for nk, v in new.items() if v}
    return new


def _int_rref(rows, cols):
    """The RREF of integer rows of length cols, as (rows, pivot column
    list); each row is primitive, positive at its pivot and 0 at every
    other pivot, so a row over its pivot entry is a row of the RREF."""
    reduced = _rref_of(_semi_echelon(rows))
    return [_dense(r, cols) for r in reduced.values()], list(reduced)


def _semi_echelon(rows) -> dict:
    """_echelon of dense integer rows."""
    return _echelon({}, map(_sparse, filter(any, rows)))


def _echelon_of_vectors(field, vectors):
    """(deg, semi-echelon pivots) of Scalar vectors: their integer rows
    at their realified_degree deg, with the zeta-multiples that
    realify them (module docstring)."""
    vectors = [tuple(v) for v in vectors]
    deg = realified_degree(field, (x for v in vectors for x in v))
    return deg, _semi_echelon(_realified(
        field, [integer_row(v, deg)[0] for v in vectors], deg))


def _rref_of_vectors(field, vectors):
    """(deg, RREF at deg as {pivot: sparse row}) of Scalar vectors: the
    K-RREF rows are those whose pivot is a zeta^0 coordinate, over
    their pivot entry (module docstring)."""
    deg, pivots = _echelon_of_vectors(field, vectors)
    return deg, _rref_of(pivots)


def _echelon(pivots: dict, rows) -> dict:
    """pivots, {least key: sparse row}, with the sparse rows reduced
    into it, each kept primitive and positive at its least key."""
    for row in rows:
        row, k = reduce_row(pivots, row)
        if k is not None:
            pivots[k] = _normalized(row, k)
    return pivots


def _rref_of(pivots: dict) -> dict:
    """The RREF of semi-echelon pivots as {pivot: sparse row}, in pivot
    order, by back substitution with reduce_row from the largest pivot
    down.  A row that meets the pivots done has those and its own
    relabelled, j to -1 - j, the larger first: reduce_row clears them
    and stops at its own."""
    done = {}
    for k in sorted(pivots, reverse=True):
        row = pivots[k]
        if not done.keys().isdisjoint(row):
            keys = done.keys() | {k}
            row = _normalized(reduce_row(
                {-1 - j: _relabel(done[j], keys) for j in row if j in done},
                _relabel(row, keys))[0], -1 - k)
            row[k] = row.pop(-1 - k)
        done[k] = row
    return dict(reversed(done.items()))


def _relabel(row: dict, keys) -> dict:
    return {(-1 - j if j in keys else j): x for j, x in row.items()}


def _kernel_rows(rows, cols):
    """Integer rows spanning {x in Q^cols : r x = 0 for every row r}:
    one per free column f of the RREF, lead at f and -lead r[f] / r[p]
    at the pivot p of each row r, lead the lcm of the pivot entries."""
    reduced, pivots = _int_rref(rows, cols)
    lead = lcm(*(r[p] for r, p in zip(reduced, pivots)))
    out = []
    for f in range(cols):
        if f not in pivots:
            v = [0] * cols
            v[f] = lead
            for r, p in zip(reduced, pivots):
                if r[f]:
                    v[p] = -(lead // r[p]) * r[f]
            out.append(v)
    return out


def _in_span(pivots, v) -> bool:
    """Whether the sparse integer row v lies in the Q-span of the
    pivots."""
    return reduce_row(pivots, v)[1] is None


class Subspace:
    """Subspace of F^ambient stored by its canonical integer RREF.

    rows is the Q-RREF of the span's realification at deg (module
    docstring): each row primitive, positive at its pivot and 0 at the
    other pivots.  deg is 1 when the span has a rational basis, else the
    field degree, so two subspaces are equal exactly when their rows
    are.  The basis over the field, the rows whose pivot is a zeta^0
    coordinate over that entry, is read as Scalars on first use.
    """

    __slots__ = ("field", "ambient", "deg", "rows", "_by_pivot", "_basis")

    def __init__(self, field: FieldSpec, ambient: int, vectors):
        self._set(field, ambient, *_echelon_of_vectors(field, vectors))

    def _set(self, field, ambient, deg, pivots):
        """Store the RREF at deg of the span of semi-echelon pivots."""
        reduced = _rref_of(pivots)
        if deg > 1 and all(j % deg == 0 for p, r in reduced.items()
                           if p % deg == 0 for j in r):
            # a rational basis: the span descends to Q (module docstring)
            reduced = {p // deg: {j // deg: x for j, x in r.items()}
                       for p, r in reduced.items() if p % deg == 0}
            deg = 1
        put = object.__setattr__
        put(self, "field", field)
        put(self, "ambient", ambient)
        put(self, "deg", deg)
        put(self, "rows", tuple(tuple(_dense(r, ambient * deg))
                                for r in reduced.values()))
        put(self, "_basis", None)
        put(self, "_by_pivot", reduced)

    @classmethod
    def from_rows(cls, field: FieldSpec, ambient: int, rows, deg: int,
                  stable: bool = False) -> "Subspace":
        """The span of integer rows at deg (scalar.integer_row's
        layout); stable says their Q-span is already closed under zeta,
        so no zeta-multiples need adding."""
        return cls._of_echelon(field, ambient, deg, _semi_echelon(
            rows if stable else _realified(field, rows, deg)))

    @classmethod
    def _of_echelon(cls, field, ambient, deg, pivots) -> "Subspace":
        out = object.__new__(cls)
        out._set(field, ambient, deg, pivots)
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
        return cls._of_echelon(field, ambient, 1,
                               {k: {k: 1} for k in range(ambient)})

    @property
    def dim(self) -> int:
        return len(self.rows) // self.deg

    @property
    def pivots(self) -> tuple:
        deg = self.deg
        return tuple(p // deg for p in self._by_pivot if p % deg == 0)

    @property
    def basis(self) -> tuple:
        if self._basis is None:
            deg = self.deg
            object.__setattr__(self, "_basis", tuple(
                row_scalars(self.field, r, r[p], deg)
                for r, p in zip(self.rows, self._by_pivot) if p % deg == 0))
        return self._basis

    def rows_at(self, deg: int) -> dict:
        """The Q-RREF of the realification at deg, a multiple of
        self.deg, as reduce_row takes it, {pivot: sparse row}, never to
        be changed; a rational row r becomes r zeta^t."""
        if deg == self.deg:
            return self._by_pivot
        return {p * deg + t: {j * deg + t: x for j, x in r.items()}
                for p, r in self._by_pivot.items() for t in range(deg)}

    def basis_rows(self, deg: int) -> list:
        """Sparse integer rows at deg of the basis over the field."""
        return [r for p, r in self.rows_at(deg).items() if p % deg == 0]

    def residuals(self, rows, deg: int) -> list:
        """lead v - sum (lead v[p] / r[p]) r over the RREF rows r at deg,
        for each integer row v: linear in v, 0 exactly on the span,
        lead being the lcm of the pivot entries."""
        own = self.rows_at(deg)
        lead = lcm(*(r[p] for p, r in own.items()))
        out = []
        for v in rows:
            w = [lead * x for x in v]
            for p, r in own.items():
                if v[p]:
                    f = lead // r[p] * v[p]
                    for j, b in r.items():
                        w[j] -= f * b
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
        return _in_span(self.rows_at(deg),
                        _sparse(integer_row(vec, deg)[0]))

    def contains(self, other: "Subspace") -> bool:
        if other.dim > self.dim:
            return False
        deg = max(self.deg, other.deg)
        pivots = self.rows_at(deg)
        return all(_in_span(pivots, v) for v in other.basis_rows(deg))

    def coordinates(self, vec):
        """Coefficients of vec on the RREF basis, or None if outside:
        each basis vector is 1 at its own pivot and 0 at the others, so
        they are the entries of vec at the pivots."""
        vec = tuple(vec)
        if not self.contains_vector(vec):
            return None
        return tuple(vec[p] for p in self.pivots)

    def add(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        deg = max(self.deg, other.deg)
        return Subspace._of_echelon(self.field, self.ambient, deg, _echelon(
            dict(self.rows_at(deg)), other.rows_at(deg).values()))

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: row reduce [A | A; B | 0], rows whose left block
        vanished have right blocks spanning the intersection."""
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        deg = max(self.deg, other.deg)
        n = self.ambient * deg
        block = [{**r, **{j + n: x for j, x in r.items()}}
                 for r in self.rows_at(deg).values()]
        block += other.rows_at(deg).values()
        return Subspace._of_echelon(self.field, self.ambient, deg, {
            k - n: {j - n: x for j, x in r.items()}
            for k, r in _echelon({}, block).items() if k >= n})

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


def combination_rows(field: FieldSpec, terms):
    """(rows, den) with rows[k] the integer row den (sum c M) e_k at the
    field degree (scalar.integer_row's layout), over the (Scalar c,
    square MatrixExact M) of terms, all of one size.  With
    c = sum_s c.num[s] zeta^s / c.den, c M e_k is the sum of c.num[s]
    times column k deg + s of M's integer form, over c.den times M's
    den; den is the lcm of those denominators."""
    deg = field.degree
    forms = [(c, m._integer_form()) for c, m in terms]
    den = lcm(*(c.den * form[1] for c, form in forms))
    width = forms[0][1][2]
    rows = []
    for k in range(0, width, deg):
        out = [0] * width
        for c, (columns, d, _) in forms:
            scale = den // (c.den * d)
            for s, a in enumerate(c.num):
                if a:
                    for o, x in columns[k + s]:
                        out[o] += scale * a * x
        rows.append(out)
    return rows, den


def _realified(field, rows, deg):
    """The integer rows and their zeta-multiples, whose Q-span is the
    realification of the span of the rows over the field."""
    if deg == 1:
        return list(rows)
    return [w for r in rows for w in zeta_multiples(field, r, deg)]


class Echelon:
    """A span grown one vector at a time, on integer rows.

    rows holds the kept rows as reduce_row takes them, {least key:
    sparse row}, a semi-echelon; a row outside the span reduces to a
    residual whose least key is new.  A kept vector brings its
    zeta-multiples, deg rows per K-dimension.  The span starts from a
    subspace, whose RREF rows are kept as they are.  No RREF is built
    until subspace().
    """

    __slots__ = ("field", "ambient", "rows")

    def __init__(self, field: FieldSpec, ambient: int,
                 start: Subspace | None = None):
        self.field = field
        self.ambient = ambient
        self.rows = {} if start is None else dict(
            start.rows_at(field.degree))

    def add(self, vec) -> bool:
        """Keep vec if it is outside the span; True when it was kept."""
        return self.add_row(integer_row(vec, self.field.degree)[0])

    def add_row(self, row) -> bool:
        """add for a vector given as an integer row (scalar.integer_row
        at the field degree)."""
        # the span is stable under zeta, so the zeta-multiples of a row
        # outside it stay independent: only the first can reduce to 0
        for w in zeta_multiples(self.field, row, self.field.degree):
            w, k = reduce_row(self.rows, _sparse(w))
            if k is None:
                return False
            self.rows[k] = _normalized(w, k)
        return True

    def subspace(self) -> Subspace:
        return Subspace._of_echelon(self.field, self.ambient,
                                    self.field.degree, self.rows)


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
    return spin_forms(field, ambient,
                      [op._integer_form() for op in operators],
                      [integer_row(v, field.degree)[0] for v in seeds],
                      closed).subspace()


def spin_forms(field: FieldSpec, ambient: int, forms, rows,
               closed: Subspace | None = None) -> Echelon:
    """spin for matrices given by their integer forms
    (MatrixExact._integer_form) and seeds given as integer rows at the
    field degree; the span is returned as its Echelon, so a caller that
    needs only its dimension builds no RREF."""
    span = Echelon(field, ambient, closed)
    full = ambient * field.degree
    fresh = [row for row in rows if span.add_row(row)]
    while fresh and len(span.rows) < full:
        v = fresh.pop()
        for form in forms:
            w = _primitive(_push(form, enumerate(v)))
            if span.add_row(w):
                fresh.append(w)
                if len(span.rows) == full:
                    break
    return span


def block_form(form, m: int):
    """The integer form of I_m (x) M, which applies M to each of m
    stacked vectors, from the integer form (columns, den, width) of M:
    on m x m matrices X flattened column by column it is X -> M X, the
    left multiplication that spins an associative envelope."""
    columns, den, width = form
    return ([[(c * width + o, x) for o, x in col]
             for c in range(m) for col in columns], den, m * width)


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
