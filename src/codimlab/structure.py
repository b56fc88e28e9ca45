"""Levi-style decomposition L = B + S + N with a finite symmetry.

The split is deliberately not fully automatic.  B comes for free when
the Killing form is nondegenerate (B = L) or the radical is everything
(B = 0); any other shape must be annotated and is verified.  N is the
span of the ad-nilpotent basis vectors of the radical when that span
passes the nilpotent-ideal checks, otherwise it too must be annotated.
S is produced by averaging a B-equivariant projection over the group,
so it is a G-invariant complement with [B, S] = 0 by construction.
"""
from __future__ import annotations

from dataclasses import dataclass

from codimlab.lie_core import LieAlgebra, StructureAnnotation
from codimlab.linalg import Echelon, MatrixExact, Subspace
from codimlab.symmetry import (GroupAction, average_projection,
                               escaping_element, invariant_subspace)


@dataclass
class Decomposition:
    algebra: LieAlgebra
    levi: Subspace
    radical: Subspace
    nilradical: Subspace
    complement: Subspace
    nilpotency_index: int  # least p with all p-fold products in N zero

    def summary(self) -> dict:
        return {
            "dim": self.algebra.dim,
            "levi_dim": self.levi.dim,
            "radical_dim": self.radical.dim,
            "nilradical_dim": self.nilradical.dim,
            "complement_dim": self.complement.dim,
            "nilpotency_index": self.nilpotency_index,
        }


def _check_invariant(label: str, sub: Subspace, action: GroupAction | None,
                     problems: list):
    if action is None:
        return
    g = escaping_element(action, sub)
    if g is not None:
        problems.append(f"{label} is not invariant under "
                        f"{action.group.names[g]}")


def _restrict_to_subalgebra(algebra: LieAlgebra,
                            sub: Subspace) -> LieAlgebra | None:
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


def _verify_levi(algebra: LieAlgebra, levi: Subspace, radical: Subspace):
    problems = []
    if levi.dim + radical.dim != algebra.dim:
        problems.append("levi and radical dimensions do not fill L")
    if levi.intersect(radical).dim != 0:
        problems.append("levi meets the radical")
    as_algebra = _restrict_to_subalgebra(algebra, levi)
    if as_algebra is None:
        problems.append("levi is not closed under the bracket")
    elif levi.dim and as_algebra.killing_form().kernel().dim != 0:
        problems.append("levi has a degenerate Killing form")
    return problems


def _verify_nilradical(algebra: LieAlgebra, nil: Subspace,
                       radical: Subspace, series: list[Subspace]):
    """Problems with nil as the nilradical; series is its lower central
    series from LieAlgebra._series."""
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


def decompose(algebra: LieAlgebra,
              annotation: StructureAnnotation | None = None,
              action: GroupAction | None = None) -> Decomposition:
    """Split L into levi + complement + nilradical, verified throughout.

    Raises ValueError when a part can neither be derived nor validated
    from the annotation.
    """
    annotation = annotation or StructureAnnotation()
    radical = algebra.solvable_radical()

    if radical.dim == 0:
        levi = algebra.full_space()
    elif radical.dim == algebra.dim:
        levi = algebra.zero_space()
    elif annotation.levi is not None:
        levi = annotation.levi
        problems = _verify_levi(algebra, levi, radical)
        if problems:
            raise ValueError("levi annotation rejected: "
                             + "; ".join(problems))
    else:
        raise ValueError(
            "the Killing form is degenerate and the radical is proper, "
            "so the levi part must be annotated")

    if annotation.nilradical is not None:
        nil = annotation.nilradical
    else:
        nil = algebra.span([v for v in radical.basis
                            if algebra.ad_is_nilpotent(v)])
    series = algebra._series(nil, False)
    problems = _verify_nilradical(algebra, nil, radical, series)
    if problems:
        source = "annotated" if annotation.nilradical is not None \
            else "derived"
        raise ValueError(f"{source} nilradical rejected: "
                         + "; ".join(problems))

    if annotation.complement is not None:
        comp = annotation.complement
    else:
        comp = equivariant_complement(algebra, levi, action, radical, nil)
    problems = _verify_complement(algebra, levi, comp, radical, nil,
                                  action)
    if problems:
        raise ValueError("complement rejected: " + "; ".join(problems))

    final = []
    _check_invariant("levi", levi, action, final)
    _check_invariant("radical", radical, action, final)
    _check_invariant("nilradical", nil, action, final)
    if final:
        raise ValueError("; ".join(final))

    return Decomposition(algebra, levi, radical, nil, comp, len(series))


def _verify_complement(algebra, levi, comp, radical, nil, action):
    problems = []
    if comp.dim + nil.dim != radical.dim or comp.intersect(nil).dim != 0:
        problems.append("R is not the direct sum of S and N")
    elif not radical.contains(comp):
        problems.append("S is not inside R")
    for b in levi.basis:
        for s in comp.basis:
            if any(algebra.bracket(b, s)):
                problems.append("[B, S] != 0")
                break
        else:
            continue
        break
    _check_invariant("complement", comp, action, problems)
    return problems


# -- equivariant complements ------------------------------------------


def adapted_basis(field, upper: Subspace, lower: Subspace):
    """Vectors of upper extending lower's basis, from upper's own RREF."""
    span = Echelon(field, upper.ambient, lower)
    return [v for v in upper.basis if span.add(v)]


def section_frame(field, upper: Subspace, lower: Subspace):
    """(lower basis, adapted extension, split) for the section
    upper/lower.

    split(w) returns w's coordinates on the lower basis and on the
    extension, and raises ArithmeticError when w is not in upper.  A
    vector of upper is fixed by its entries at upper's pivots, so one
    inverted basis-change matrix serves every call.
    """
    if not upper.contains(lower):
        raise ValueError("lower is not inside upper")
    j_vecs = list(lower.basis)
    c_vecs = adapted_basis(field, upper, lower)
    s = len(j_vecs)
    change = MatrixExact(field, [[v[p] for p in upper.pivots]
                                 for v in j_vecs + c_vecs])
    to_frame = change.inverse().transpose()

    def split(w):
        coords = upper.coordinates(w)
        if coords is None:
            raise ArithmeticError("vector escapes the section span; "
                                  "upper is not closed under the data")
        out = to_frame.apply(coords)
        return out[:s], out[s:]

    return j_vecs, c_vecs, split


def _equivariance_equations(field, frame, operators):
    """Rows and right-hand sides of op(f(c)) - f(op(c)) = lower part of
    op(c), for every operator op and extension vector c, in the
    unknowns f(c_q) = sum_u x[q*s + u] j_u.

    The solutions are the equivariant projections of upper onto lower;
    the kernel is the space of equivariant maps upper/lower -> lower.
    """
    j_vecs, c_vecs, split = frame
    s, t = len(j_vecs), len(c_vecs)
    z = field.zero()
    rows, rhs = [], []
    for op in operators:
        j_images = [split(op(jv))[0] for jv in j_vecs]
        for q in range(t):
            alpha, beta = split(op(c_vecs[q]))
            for w in range(s):
                row = [z] * (t * s)
                for u in range(s):
                    row[q * s + u] = row[q * s + u] + j_images[u][w]
                for r in range(t):
                    if beta[r]:
                        row[r * s + w] = row[r * s + w] - beta[r]
                rows.append(row)
                rhs.append(alpha[w])
    return rows, rhs


def _levi_operators(algebra: LieAlgebra, levi: Subspace):
    return [lambda v, b=b: algebra.bracket(b, v) for b in levi.basis]


def equivariant_complement(algebra: LieAlgebra, levi: Subspace,
                           action: GroupAction | None,
                           upper: Subspace, lower: Subspace) -> Subspace:
    """G-invariant B-submodule T with upper = lower + T direct.

    A B-equivariant projection of upper onto lower is found by solving
    the equivariance constraints exactly, then averaged over the group.
    The kernel of the averaged projection inside upper is the
    complement.  Raises ArithmeticError when no projection exists or
    the averaged map fails to split, either of which signals an
    inconsistent levi or chain input.
    """
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
            raise ArithmeticError(
                "no B-equivariant projection onto the lower part exists; "
                "the levi annotation is inconsistent")
    else:
        solution = (z,) * (t * s)

    # projection in ambient coordinates: identity on lower, the solved
    # values on the extension, zero outside upper
    outside = adapted_basis(field, algebra.full_space(), upper)
    images = list(j_vecs)
    for q in range(t):
        img = algebra.zero_vector()
        for u in range(s):
            x = solution[q * s + u]
            if x:
                img = tuple(a + x * b for a, b in zip(img, j_vecs[u]))
        images.append(img)
    images += [algebra.zero_vector()] * len(outside)
    columns = MatrixExact(field, [[vec[i] for vec in
                                   j_vecs + c_vecs + outside]
                                  for i in range(n)])
    proj = MatrixExact(field, [[vec[i] for vec in images]
                               for i in range(n)]) @ columns.inverse()

    if action is not None and action.group.order > 1:
        proj = average_projection(proj, action)

    complement = proj.kernel().intersect(upper)
    _assert_complement(algebra, levi, action, upper, lower, complement)
    return complement


def _assert_complement(algebra, levi, action, upper, lower, comp):
    if comp.dim + lower.dim != upper.dim \
            or comp.intersect(lower).dim != 0:
        raise ArithmeticError("averaged projection failed to split the "
                              "section")
    for b in levi.basis:
        for v in comp.basis:
            if not comp.contains_vector(algebra.bracket(b, v)):
                raise ArithmeticError("complement is not a B-submodule")
    if action is not None and not invariant_subspace(algebra, action,
                                                     comp):
        raise ArithmeticError("complement is not G-invariant")


def equivariant_hom_dimension(algebra: LieAlgebra, levi: Subspace,
                              action: GroupAction | None,
                              upper: Subspace, lower: Subspace) -> int:
    """dim of the B- and G-equivariant maps upper/lower -> lower.

    Zero means the equivariant complement is unique; a positive value
    is reported as a complement-multiplicity warning, since Condition 2
    is only tested on the canonical complement.
    """
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
