"""Levi-style decomposition L = B + S + N with a finite symmetry.

B is derived where the algebra fixes it: L when the Killing form is
nondegenerate, 0 when the radical is everything, and [L, L] when the
radical is central (a reductive algebra is [L, L] + Z(L)).  Any other
shape must be annotated and is verified.  N is derived in any basis as
the x in R with tr(ad x a) = 0 for every a in the unital algebra A
spanned by products of the ad r, r in R.  In characteristic 0 the
trace form of a matrix algebra vanishes exactly on its radical
(Dickson); ad R is solvable, so A is triangularizable (Lie) and its
radical holds exactly its nilpotent elements, so N is the set of
ad-nilpotent elements of R, the nilradical.  An annotated N is used
instead; either is verified as a nilpotent ideal holding [L, R].  An
annotated complement S of N in R is verified; none is derived, as d
does not read S.  Each chain section's complement averages a
B-equivariant projection over the group in the section frame
(equivariant_split), so it is G-invariant and a B-submodule by
construction.  The frame is lower's RREF basis and the quotient's
(section_quotient, the basis of exponent's section matrices too), on
which coordinates are entries at pivots, with no matrix inverted.
"""
from __future__ import annotations

from dataclasses import dataclass

from codimlab.lie_core import (LieAlgebra, StructureAnnotation,
                               _bracket_rows, _nonzero)
from codimlab.linalg import (MatrixExact, Subspace, _dense, _kernel_rows,
                             block_form, spin_forms)
from codimlab.scalar import RATIONALS
from codimlab.symmetry import (GroupAction, escaping_element,
                               trivial_action)


@dataclass
class Decomposition:
    levi: Subspace
    radical: Subspace
    nilradical: Subspace
    nilpotency_index: int  # least p with all p-fold products in N zero


def _check_invariant(label: str, sub: Subspace, action: GroupAction | None,
                     problems: list):
    if action is None:
        return
    g = escaping_element(action, sub)
    if g is not None:
        problems.append(f"{label} is not invariant under "
                        f"{action.group.names[g]}")


def _verify_levi(algebra: LieAlgebra, levi: Subspace, radical: Subspace):
    """Problems with levi as a Levi factor.  A subalgebra B with
    L = B + R direct is isomorphic to L/R, which is semisimple, so its
    Killing form needs no test."""
    problems = []
    if levi.dim + radical.dim != algebra.dim:
        problems.append("levi and radical dimensions do not fill L")
    if levi.intersect(radical).dim != 0:
        problems.append("levi meets the radical")
    if not levi.contains(algebra.bracket_subspaces(levi, levi)):
        problems.append("levi is not closed under the bracket")
    return problems


def _verify_nilradical(algebra: LieAlgebra, nil: Subspace,
                       commutator: Subspace, series: list[Subspace]):
    """Problems with nil as the nilradical; commutator is [L, R] and
    series is nil's lower central series from LieAlgebra._series.  A
    nilpotent ideal is solvable, so it lies in the radical."""
    problems = []
    if not algebra.is_ideal(nil):
        problems.append("nilradical candidate is not an ideal")
    if series[-1].dim:
        problems.append("nilradical candidate is not nilpotent")
    if not nil.contains(commutator):
        problems.append("[L, R] is not inside the nilradical candidate")
    return problems


def _nilradical(algebra: LieAlgebra, radical: Subspace) -> Subspace:
    """The x in R with tr(ad x a) = 0 for every a in the unital algebra A
    spanned by products of the ad r, r in R (module docstring), over Q
    on the realification at deg: A is the spin of the identity under
    left multiplication by the ad of R's rows, and N is read off the
    kernel of the trace rows in the coordinates of those rows."""
    deg = max(algebra._deg, radical.deg)
    h = algebra.dim * deg
    table = algebra._structure(deg)
    rows = list(radical.rows_at(deg).values())
    # column b of D ad u for each row u, and their left multiplications
    ads = [[_nonzero(_bracket_rows(table, u.items(), [(b, 1)], h))
            for b in range(h)] for u in rows]
    identity = [int(k % (h + 1) == 0) for k in range(h * h)]
    envelope = spin_forms(RATIONALS, h * h, [
        block_form((cols, 1, h), h) for cols in ads], [identity]).rows
    # tr(M a) = sum of M[o][b] a[b][o], and a[b][o] is a[o * h + b]
    traces = [[sum(c * a.get(o * h + b, 0) for b, col in enumerate(cols)
                   for o, c in col) for cols in ads]
              for a in envelope.values()]
    return Subspace.from_rows(algebra.field, algebra.dim, [
        [sum(y * u.get(k, 0) for y, u in zip(ys, rows)) for k in range(h)]
        for ys in _kernel_rows(traces, len(rows))], deg, stable=True)


def decompose(algebra: LieAlgebra,
              annotation: StructureAnnotation | None = None,
              action: GroupAction | None = None) -> Decomposition:
    """Split L into levi, radical and nilradical, verified throughout.

    Raises ValueError when a part can neither be derived nor validated
    from the annotation.
    """
    annotation = annotation or StructureAnnotation()
    radical = algebra.solvable_radical()
    full = algebra.full_space()
    commutator = algebra.bracket_subspaces(full, radical)

    if radical.dim == 0:
        levi = full
    elif radical.dim == algebra.dim:
        levi = algebra.zero_space()
    elif annotation.levi is not None:
        levi = annotation.levi
        problems = _verify_levi(algebra, levi, radical)
        if problems:
            raise ValueError("levi annotation rejected: "
                             + "; ".join(problems))
    elif commutator.dim == 0:
        levi = algebra.bracket_subspaces(full, full)
    else:
        raise ValueError(
            "the radical is proper and not central, so the levi part "
            "must be annotated")

    if annotation.nilradical is not None:
        nil = annotation.nilradical
    else:
        nil = _nilradical(algebra, radical)
    series = algebra._series(nil, False)
    problems = _verify_nilradical(algebra, nil, commutator, series)
    if problems:
        source = "annotated" if annotation.nilradical is not None \
            else "derived"
        raise ValueError(f"{source} nilradical rejected: "
                         + "; ".join(problems))

    problems = []
    _check_invariant("levi", levi, action, problems)
    _check_invariant("radical", radical, action, problems)
    _check_invariant("nilradical", nil, action, problems)
    if problems:
        raise ValueError("; ".join(problems))

    if annotation.complement is not None:
        problems = _verify_complement(algebra, levi, annotation.complement,
                                      radical, nil, action)
        if problems:
            raise ValueError("complement rejected: " + "; ".join(problems))

    return Decomposition(levi, radical, nil, len(series))


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


def section_quotient(field, upper: Subspace, lower: Subspace) -> Subspace:
    """The basis of upper/lower: the RREF of the residuals of upper's
    rows modulo lower (Subspace.residuals), whose rows vanish at
    lower's pivots."""
    deg = field.degree
    width = upper.ambient * deg
    return Subspace.from_rows(field, upper.ambient, lower.residuals(
        [_dense(r, width) for r in upper.rows_at(deg).values()], deg),
        deg, stable=True)


def section_frame(field, upper: Subspace, lower: Subspace):
    """(lower basis, quotient basis, split) for the section upper/lower,
    the quotient basis that of section_quotient.

    split(w) returns w's coordinates on the two bases, and raises
    ArithmeticError when w is not in upper.  Each basis is an RREF, and
    the quotient's vanishes at lower's pivots, so the lower coordinates
    are w's entries at lower's pivots and the quotient coordinates are
    those of w less its lower part at the quotient's pivots.
    """
    if not upper.contains(lower):
        raise ValueError("lower is not inside upper")
    quotient = section_quotient(field, upper, lower)
    j_vecs, c_vecs = list(lower.basis), list(quotient.basis)
    pivots = lower.pivots

    def split(w):
        alpha = tuple(w[p] for p in pivots)
        rest = list(w)
        for a, v in zip(alpha, j_vecs):
            if a:
                rest = [x - a * y for x, y in zip(rest, v)]
        beta = quotient.coordinates(rest)
        if beta is None:
            raise ArithmeticError("vector escapes the section span; "
                                  "upper is not closed under the data")
        return alpha, beta

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


def equivariant_split(algebra: LieAlgebra, levi: Subspace,
                      action: GroupAction | None, upper: Subspace,
                      lower: Subspace) -> tuple[Subspace, int]:
    """(T, hom_dim) for the section upper/lower of G-invariant spaces:
    T a G-invariant B-submodule with upper = lower + T direct, hom_dim
    the dimension of the B- and G-equivariant maps upper/lower -> lower.

    One system of equivariance equations gives both.  Its ad(B) rows
    are solved for a B-equivariant projection P_B of upper onto lower,
    and T, the kernel in upper of the averaged projection, is spanned
    by sum_g rho(g) (1 - P_B) rho(g)^-1 c over the extension vectors c.
    The kernel of the whole system gives hom_dim: zero means T is the
    only such complement, and a positive value is reported as a
    complement-multiplicity warning, since Condition 2 is only tested
    on T.  Raises ArithmeticError when no projection exists or the
    averaged map fails to split, either of which signals an
    inconsistent levi or chain input.
    """
    field = algebra.field
    frame = section_frame(field, upper, lower)
    j_vecs, c_vecs, split = frame
    s, t = len(j_vecs), len(c_vecs)
    if t == 0:
        return algebra.zero_space(), 0
    if s == 0:
        return upper, 0

    action = action or trivial_action(algebra)
    elements = range(action.group.order)
    operators = [lambda v, b=b: algebra.bracket(b, v) for b in levi.basis]
    operators += [lambda v, g=g: action.apply(g, v) for g in elements[1:]]
    rows, rhs = _equivariance_equations(field, frame, operators)
    hom_dim = MatrixExact(field, rows).kernel().dim if rows else t * s
    levi_rows = levi.dim * t * s
    if levi_rows:
        solution = MatrixExact(field, rows[:levi_rows]).solve(
            rhs[:levi_rows])
        if solution is None:
            raise ArithmeticError(
                "no B-equivariant projection onto the lower part exists; "
                "the levi annotation is inconsistent")
    else:
        solution = (field.zero(),) * (t * s)

    to_lower = MatrixExact(field, list(zip(*j_vecs)))
    residues = []
    for q, c in enumerate(c_vecs):
        image = to_lower.apply(solution[q * s:(q + 1) * s])
        residues.append([a - b for a, b in zip(c, image)])
    # 1 - P_B on the frame: zero on lower, c_q to its residue
    off_lower = MatrixExact(field, list(zip(*residues)))
    vectors = []
    for c in c_vecs:
        parts = [action.apply(g, off_lower.apply(
            split(action.apply(action.group.inv(g), c))[1]))
            for g in elements]
        vectors.append(tuple(map(sum, zip(*parts))))
    complement = algebra.span(vectors)
    _assert_complement(algebra, levi, action, upper, lower, complement)
    return complement, hom_dim


def equivariant_complement(algebra: LieAlgebra, levi: Subspace,
                           action: GroupAction | None,
                           upper: Subspace, lower: Subspace) -> Subspace:
    """The complement T of equivariant_split."""
    return equivariant_split(algebra, levi, action, upper, lower)[0]


def _assert_complement(algebra, levi, action, upper, lower, comp):
    if comp.dim + lower.dim != upper.dim \
            or comp.intersect(lower).dim != 0:
        raise ArithmeticError("averaged projection failed to split the "
                              "section")
    for b in levi.basis:
        for v in comp.basis:
            if not comp.contains_vector(algebra.bracket(b, v)):
                raise ArithmeticError("complement is not a B-submodule")
    if escaping_element(action, comp) is not None:
        raise ArithmeticError("complement is not G-invariant")
