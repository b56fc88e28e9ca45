"""Finite-dimensional Lie algebras by structure constants, on integer rows.

The bracket table stores [e_i, e_j] for i < j only, as Scalars; it is
what an algebra is built from and written back to.  Everything derived
from it reads an integer table instead, built once on the algebra for
each realified degree deg in use (see linalg): the degree of the
constants, 1 when every constant is rational, and the field degree
when an irrational subspace, vector or ad matrix asks for it.  With D
the common denominator of the constants, entry (i deg + s, j deg + t)
holds the nonzero (out, c) of the integer row of D zeta^(s + t)
[e_i, e_j], so row i deg of the table at the field degree is the
integer form of ad e_i that MatrixExact keeps.  The bracket of two
integer rows is bilinear integer arithmetic over the table, and
subspaces are bracketed, annihilated and tested for ideals on the
integer rows Subspace keeps; Scalars are read only where a caller or a
report needs them.  Antisymmetry is structural; Jacobi is checked on
every triple of basis indices by validate(), which callers are
expected to run once per input before trusting anything else here.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import combinations
from math import lcm

from codimlab.linalg import MatrixExact, Subspace
from codimlab.scalar import (FieldSpec, integer_row, realified_degree,
                             row_scalars, zeta_multiples)


@dataclass
class ValidationReport:
    ok: bool
    failures: list[str] = dc_field(default_factory=list)


@dataclass
class StructureAnnotation:
    """User-supplied structure data, verified before use.

    levi: semisimple subalgebra B with L = B + R direct;
    nilradical: nilpotent ideal N with [L, R] <= N;
    complement: subspace S with R = S + N direct and [B, S] = 0.
    Any field may be left None to request automatic computation.
    """

    levi: Subspace | None = None
    nilradical: Subspace | None = None
    complement: Subspace | None = None


def _nonzero(row):
    return [(a, x) for a, x in enumerate(row) if x]


def _bracket_rows(table, u, v, width):
    """The integer row D [u, v] at the table's degree, for u and v given
    by the nonzero (index, value) of their integer rows."""
    out = [0] * width
    for a, x in u:
        entries = table[a]
        for b, y in v:
            xy = x * y
            for o, c in entries[b]:
                out[o] += xy * c
    return out


class LieAlgebra:
    """dim, named basis, and sparse bracket table over a FieldSpec."""

    def __init__(self, field: FieldSpec, basis_names, brackets):
        """brackets: {(i, j): {k: Scalar}} for i < j, missing pairs
        bracket to zero."""
        self.field = field
        self.basis_names = tuple(basis_names)
        self.dim = len(self.basis_names)
        table = {}
        for (i, j), comp in brackets.items():
            if not (0 <= i < j < self.dim):
                raise ValueError(f"bad bracket pair ({i}, {j})")
            if any(not 0 <= k < self.dim for k in comp):
                raise ValueError(f"bracket ({i}, {j}) hits an index "
                                 f"outside 0..{self.dim - 1}")
            entry = {k: v for k, v in comp.items() if v}
            if entry:
                table[(i, j)] = entry
        self.table = table
        constants = [v for comp in table.values() for v in comp.values()]
        self._den = lcm(*(v.den for v in constants))
        self._deg = realified_degree(field, constants)
        self._tables = {}
        self._full = self._zero = None

    def _structure(self, deg: int):
        """The integer table at deg (module docstring), built once;
        deg is self._deg or the field degree."""
        table = self._tables.get(deg)
        if table is None:
            field, width = self.field, self.dim * deg
            zero = field.zero()
            table = [[()] * width for _ in range(width)]
            for (i, j), comp in self.table.items():
                row, den = integer_row(
                    (comp.get(k, zero) for k in range(self.dim)), deg)
                row = [c * (self._den // den) for c in row]
                powers = zeta_multiples(field, row, deg)
                powers += zeta_multiples(field, powers[-1], deg)[1:]
                for s in range(deg):
                    for t in range(deg):
                        entry = [(o, c) for o, c in enumerate(powers[s + t])
                                 if c]
                        table[i * deg + s][j * deg + t] = entry
                        table[j * deg + t][i * deg + s] = [
                            (o, -c) for o, c in entry]
            self._tables[deg] = table
        return table

    # -- bracket ------------------------------------------------------

    def bracket_basis(self, i: int, j: int) -> dict:
        """[e_i, e_j] as a sparse {index: Scalar} dict."""
        if i == j:
            return {}
        if i < j:
            return self.table.get((i, j), {})
        flipped = self.table.get((j, i), {})
        return {k: -v for k, v in flipped.items()}

    def bracket(self, u, v):
        """[u, v] for dense coefficient tuples u, v."""
        u, v = tuple(u), tuple(v)
        deg = max(self._deg, realified_degree(self.field, u + v))
        ur, u_den = integer_row(u, deg)
        vr, v_den = integer_row(v, deg)
        out = _bracket_rows(self._structure(deg), _nonzero(ur),
                            _nonzero(vr), self.dim * deg)
        return row_scalars(self.field, out, u_den * v_den * self._den, deg)

    def bracket_sparse(self, u: dict, v: dict) -> dict:
        out = {}
        for i, ui in u.items():
            for j, vj in v.items():
                for k, c in self.bracket_basis(i, j).items():
                    cur = out.get(k)
                    val = ui * vj * c if cur is None else cur + ui * vj * c
                    out[k] = val
        return {k: v for k, v in out.items() if v}

    def basis_vector(self, i: int):
        z, o = self.field.zero(), self.field.one()
        return tuple(o if k == i else z for k in range(self.dim))

    def zero_vector(self):
        return (self.field.zero(),) * self.dim

    def ad_basis(self, i: int) -> MatrixExact:
        """Matrix of ad e_i = [e_i, .] in the given basis, with its
        integer form read off the table."""
        deg = self.field.degree
        return MatrixExact.from_integer_form(
            self.field, self._structure(deg)[i * deg], self._den)

    # -- validation ---------------------------------------------------

    def validate(self) -> ValidationReport:
        """Jacobi on every triple of basis vectors, as integer rows of
        D^2 [[e_a, e_b], e_c]."""
        deg, n = self._deg, self.dim
        table = self._structure(deg)

        def nested(a, b, c):
            out = [0] * (n * deg)
            for o, x in table[a * deg][b * deg]:
                for o2, y in table[o][c * deg]:
                    out[o2] += x * y
            return out

        failures = []
        for a, b, c in combinations(range(n), 3):
            if any(map(sum, zip(nested(a, b, c), nested(b, c, a),
                                nested(c, a, b)))):
                na, nb, nc = (self.basis_names[x] for x in (a, b, c))
                failures.append(f"Jacobi fails on ({na}, {nb}, {nc})")
        return ValidationReport(not failures, failures)

    # -- subspace machinery -------------------------------------------

    def full_space(self) -> Subspace:
        if self._full is None:
            self._full = Subspace.full(self.field, self.dim)
        return self._full

    def zero_space(self) -> Subspace:
        if self._zero is None:
            self._zero = Subspace.zero(self.field, self.dim)
        return self._zero

    def span(self, vectors) -> Subspace:
        return Subspace(self.field, self.dim, vectors)

    def bracket_subspaces(self, a: Subspace, b: Subspace) -> Subspace:
        """[A, B], spanned by the brackets of their basis rows."""
        if not (a.dim and b.dim):
            return self.zero_space()
        deg = max(self._deg, a.deg, b.deg)
        width = self.dim * deg
        table = self._structure(deg)
        right = [_nonzero(v) for v in b.basis_rows(deg)]
        return Subspace.from_rows(self.field, self.dim, [
            _bracket_rows(table, u, v, width)
            for u in map(_nonzero, a.basis_rows(deg)) for v in right], deg)

    # -- classical invariants -----------------------------------------

    def killing_form(self) -> MatrixExact:
        """tr(ad e_i ad e_j) summed over the constants: D [e_j, e_k]
        has coordinate x at zeta^s e_l, and the e_k coordinates of
        D [e_i, zeta^s e_l] times x add up to D^2 times the trace."""
        deg, n = self._deg, self.dim
        table = self._structure(deg)
        values = {}
        for i in range(n):
            for j in range(i, n):
                acc = [0] * deg
                for k in range(n):
                    for o, x in table[j * deg][k * deg]:
                        for o2, c in table[i * deg][o]:
                            if o2 // deg == k:
                                acc[o2 % deg] += x * c
                values[i, j] = values[j, i] = row_scalars(
                    self.field, acc, self._den ** 2, deg)[0]
        return MatrixExact(self.field, [[values[i, j] for j in range(n)]
                                        for i in range(n)])

    def solvable_radical(self) -> Subspace:
        """Orthogonal complement of [L, L] under the Killing form.

        This is the solvable radical in characteristic zero; the result
        is verified to be an ideal whose derived series reaches zero
        before being returned.
        """
        derived = self.bracket_subspaces(self.full_space(),
                                         self.full_space())
        kappa = self.killing_form()
        # x in R  iff  kappa(x, d) = 0 for every d in a basis of [L,L]
        rows = [kappa.apply(d) for d in derived.basis]
        if rows:
            rad = MatrixExact(self.field, rows).kernel()
        else:
            rad = self.full_space()
        if not self.is_ideal(rad):
            raise ArithmeticError("radical candidate is not an ideal")
        if self._series(rad, True)[-1].dim:
            raise ArithmeticError("radical candidate is not solvable")
        return rad

    def _series(self, sub: Subspace, derived: bool) -> list[Subspace]:
        """sub, then each term bracketed with itself (derived) or with
        sub (lower central), until a term is zero or repeats an earlier
        one; the repeat is not listed.  The series reaches zero exactly
        when its last term is zero.  A subalgebra's series descends, so
        a repeat is of the term before; a subspace that is not closed
        can cycle, as span(e, f) -> span(h) -> span(e, f) in sl2."""
        out = [sub]
        while out[-1].dim:
            cur = out[-1]
            nxt = self.bracket_subspaces(cur, cur if derived else sub)
            if nxt in out:
                break
            out.append(nxt)
        return out

    def subspace_nilpotent_in(self, sub: Subspace) -> bool:
        """Whether the lower central series of `sub`, bracketed with
        sub itself, reaches zero."""
        return not self._series(sub, False)[-1].dim

    def annihilator(self, sub_i: Subspace, sub_j: Subspace) -> Subspace:
        """{x in L : [x, I] <= J} for subspaces I, J.

        Linear in x, and closed under zeta, so it is the kernel over Q
        of the map sending the realified x to the residuals mod J
        (Subspace.residuals) of D [x, b] over a basis b of I.
        """
        deg = max(self._deg, sub_i.deg, sub_j.deg)
        width = self.dim * deg
        table = self._structure(deg)
        taken = set(sub_j.rows_at(deg)[1])
        kept = [c for c in range(width) if c not in taken]
        rows = []
        for b in map(_nonzero, sub_i.basis_rows(deg)):
            images = sub_j.residuals(
                [_bracket_rows(table, [(a, 1)], b, width)
                 for a in range(width)], deg)
            rows += [[w[c] for w in images] for c in kept]
        return Subspace.kernel_of(self.field, self.dim, rows, deg)

    def is_ideal(self, sub: Subspace) -> bool:
        return sub.contains(self.bracket_subspaces(sub, self.full_space()))

    def ad_is_nilpotent(self, v) -> bool:
        """Whether (ad v)^dim = 0: the images [v, [v, .. L]] shrink to
        zero within dim steps exactly then."""
        line, image = self.span([v]), self.full_space()
        for _ in range(self.dim):
            image = self.bracket_subspaces(line, image)
            if not image.dim:
                return True
        return not image.dim

    # -- basis change (used when re-emitting documents) ---------------

    def change_of_basis(self, new_basis_rows, new_names) -> "LieAlgebra":
        """Rewrite the bracket table in the basis given by the rows of
        new_basis_rows (each row = old coordinates of a new vector)."""
        n = self.dim
        if len(new_basis_rows) != n:
            raise ValueError("need exactly dim basis vectors")
        p = MatrixExact(self.field,
                        [[new_basis_rows[j][i] for j in range(n)]
                         for i in range(n)])
        # columns of p are the new vectors; p^-1 v gives the coords
        try:
            inverse = p.inverse()
        except ArithmeticError:
            raise ValueError("new basis does not span") from None
        brackets = {}
        for i in range(n):
            for j in range(i + 1, n):
                coords = inverse.apply(
                    self.bracket(new_basis_rows[i], new_basis_rows[j]))
                entry = {k: c for k, c in enumerate(coords) if c}
                if entry:
                    brackets[(i, j)] = entry
        return LieAlgebra(self.field, new_names, brackets)


def direct_sum(a: LieAlgebra, b: LieAlgebra,
               names_a=None, names_b=None) -> LieAlgebra:
    if a.field != b.field:
        raise ValueError("field mismatch")
    names = list(names_a or a.basis_names) + list(names_b or b.basis_names)
    brackets = {}
    for (i, j), comp in a.table.items():
        brackets[(i, j)] = dict(comp)
    off = a.dim
    for (i, j), comp in b.table.items():
        brackets[(i + off, j + off)] = {k + off: v for k, v in comp.items()}
    return LieAlgebra(a.field, names, brackets)
