"""Finite-dimensional Lie algebras by structure constants.

The bracket table stores [e_i, e_j] for i < j only; antisymmetry is
structural rather than checked.  Jacobi is checked on every triple of
basis indices by validate(), which callers are expected to run once per
input before trusting anything else here.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import combinations

from codimlab.linalg import MatrixExact, Subspace
from codimlab.scalar import FieldSpec


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
            entry = {k: v for k, v in comp.items() if v}
            if entry:
                table[(i, j)] = entry
        self.table = table

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
        out = {}
        for i, ui in enumerate(u):
            if not ui:
                continue
            for j, vj in enumerate(v):
                if not vj:
                    continue
                for k, c in self.bracket_basis(i, j).items():
                    cur = out.get(k)
                    out[k] = ui * vj * c if cur is None else cur + ui * vj * c
        z = self.field.zero()
        return tuple(out.get(k, z) for k in range(self.dim))

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

    def ad(self, v) -> MatrixExact:
        """Matrix of ad v = [v, .] in the given basis."""
        cols = [self.bracket(v, self.basis_vector(j))
                for j in range(self.dim)]
        return MatrixExact(self.field,
                           [[cols[j][i] for j in range(self.dim)]
                            for i in range(self.dim)])

    def ad_basis(self, i: int) -> MatrixExact:
        return self.ad(self.basis_vector(i))

    # -- validation ---------------------------------------------------

    def validate(self) -> ValidationReport:
        failures = []
        for (i, j), comp in self.table.items():
            for k in comp:
                if not (0 <= k < self.dim):
                    failures.append(
                        f"bracket ({i},{j}) hits invalid index {k}")
        for a, b, c in combinations(range(self.dim), 3):
            ea, eb, ec = (self.basis_vector(x) for x in (a, b, c))
            total = _vec_add(
                self.field,
                self.bracket(self.bracket(ea, eb), ec),
                self.bracket(self.bracket(eb, ec), ea),
                self.bracket(self.bracket(ec, ea), eb))
            if any(total):
                na, nb, nc = (self.basis_names[x] for x in (a, b, c))
                failures.append(
                    f"Jacobi fails on ({na}, {nb}, {nc})")
        return ValidationReport(not failures, failures)

    # -- subspace machinery -------------------------------------------

    def full_space(self) -> Subspace:
        return Subspace.full(self.field, self.dim)

    def zero_space(self) -> Subspace:
        return Subspace.zero(self.field, self.dim)

    def span(self, vectors) -> Subspace:
        return Subspace(self.field, self.dim, vectors)

    def bracket_subspaces(self, a: Subspace, b: Subspace) -> Subspace:
        vecs = [self.bracket(u, v) for u in a.basis for v in b.basis]
        return Subspace(self.field, self.dim, vecs)

    # -- classical invariants -----------------------------------------

    def killing_form(self) -> MatrixExact:
        ads = [self.ad_basis(i) for i in range(self.dim)]
        return MatrixExact(self.field,
                           [[(ads[i] @ ads[j]).trace()
                             for j in range(self.dim)]
                            for i in range(self.dim)])

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

        Linear in x, so it is the kernel of the map sending x to the
        residuals of [x, b] mod J over a basis b of I.
        """
        rows = []
        for b in sub_i.basis:
            cols = [sub_j.reduce(self.bracket(self.basis_vector(k), b))
                    for k in range(self.dim)]
            for comp in range(self.dim):
                rows.append([cols[k][comp] for k in range(self.dim)])
        if not rows:
            return self.full_space()
        return MatrixExact(self.field, rows).kernel()

    def is_ideal(self, sub: Subspace) -> bool:
        return sub.contains(self.bracket_subspaces(sub, self.full_space()))

    def ad_is_nilpotent(self, v) -> bool:
        m = self.ad(v)
        power = m
        for _ in range(self.dim):
            if power.is_zero():
                return True
            power = power @ m
        return power.is_zero()

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
        # columns of p are the new vectors; solve p * c = v for coords
        brackets = {}
        for i in range(n):
            for j in range(i + 1, n):
                w = self.bracket(new_basis_rows[i], new_basis_rows[j])
                coords = p.solve(w)
                if coords is None:
                    raise ValueError("new basis does not span")
                entry = {k: c for k, c in enumerate(coords) if c}
                if entry:
                    brackets[(i, j)] = entry
        return LieAlgebra(self.field, new_names, brackets)


def _vec_add(field, *vecs):
    out = list(vecs[0])
    for v in vecs[1:]:
        for i, x in enumerate(v):
            out[i] = out[i] + x
    return tuple(out)


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
