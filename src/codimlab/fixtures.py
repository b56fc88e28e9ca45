"""Built-in example algebras with their actions and gradings.

Each builder returns a Workbench bundle: the algebra plus an optional
action or grading.  The same builders feed the JSON fixture corpus, so
tests and the command line exercise identical inputs.  No fixture
carries a structure annotation: decompose derives every Levi factor.
"""
from __future__ import annotations

from dataclasses import dataclass

from codimlab.lie_core import LieAlgebra, StructureAnnotation, direct_sum
from codimlab.linalg import MatrixExact
from codimlab.scalar import FieldSpec, RATIONALS
from codimlab.symmetry import FiniteGroup, Grading, GroupAction


@dataclass
class Workbench:
    name: str
    algebra: LieAlgebra
    group: FiniteGroup
    action: GroupAction | None = None
    grading: Grading | None = None
    annotation: StructureAnnotation | None = None


def sl2(field=RATIONALS) -> LieAlgebra:
    """Basis e, h, f with [h,e] = 2e, [h,f] = -2f, [e,f] = h."""
    two = field.from_rational(2)
    return LieAlgebra(field, ("e", "h", "f"), {
        (0, 1): {0: -two},          # [e,h] = -2e
        (0, 2): {1: field.one()},   # [e,f] = h
        (1, 2): {2: -two},          # [h,f] = -2f
    })


def gl2(field=RATIONALS) -> LieAlgebra:
    """Matrix units E11, E12, E21, E22 under the commutator."""
    one = field.one()
    return LieAlgebra(field, ("E11", "E12", "E21", "E22"), {
        (0, 1): {1: one},           # [E11,E12] = E12
        (0, 2): {2: -one},          # [E11,E21] = -E21
        (1, 2): {0: one, 3: -one},  # [E12,E21] = E11 - E22
        (1, 3): {1: one},           # [E12,E22] = E12
        (2, 3): {2: -one},          # [E21,E22] = -E21
    })


def heisenberg(field=RATIONALS) -> LieAlgebra:
    one = field.one()
    return LieAlgebra(field, ("x", "y", "z"), {(0, 1): {2: one}})


def abelian(n, field=RATIONALS) -> LieAlgebra:
    return LieAlgebra(field, tuple(f"a{i + 1}" for i in range(n)), {})


def metabelian(m, field=RATIONALS) -> LieAlgebra:
    """2m-dimensional solvable algebra, [a_i, b_j] = delta_ij b_j.

    The a's span an abelian subalgebra acting diagonally on the abelian
    ideal spanned by the b's.
    """
    one = field.one()
    names = tuple(f"a{i + 1}" for i in range(m)) + tuple(
        f"b{i + 1}" for i in range(m))
    brackets = {(i, m + i): {m + i: one} for i in range(m)}
    return LieAlgebra(field, names, brackets)


def metabelian_diag(m, field=None) -> LieAlgebra:
    """Discrete-Fourier basis of the metabelian algebra: generators
    c_j = sum_k zeta^(-jk) a_k and d_j likewise, with bracket
    [c_i, d_j] = d_{i+j mod m}.  Homogeneous for the Z_m grading that
    puts c_j and d_j in degree j."""
    if field is None:
        field = FieldSpec(m) if m > 1 else RATIONALS
    one = field.one()
    names = tuple(f"c{j}" for j in range(m)) + tuple(
        f"d{j}" for j in range(m))
    brackets = {}
    for i in range(m):
        for j in range(m):
            brackets[(i, m + j)] = {m + (i + j) % m: one}
    return LieAlgebra(field, names, brackets)


def sl2_sl2(field=RATIONALS) -> LieAlgebra:
    a = sl2(field)
    b = sl2(field)
    return direct_sum(a, b,
                      names_a=("e1", "h1", "f1"),
                      names_b=("e2", "h2", "f2"))


# -- symmetry builders ------------------------------------------------


def permutation_action(algebra: LieAlgebra, group: FiniteGroup,
                       perms) -> GroupAction:
    """Action where element g sends basis vector i to basis perms[g][i]."""
    field = algebra.field
    z, o = field.zero(), field.one()
    mats = []
    for perm in perms:
        m = [[z] * algebra.dim for _ in range(algebra.dim)]
        for src, dst in enumerate(perm):
            m[dst][src] = o
        mats.append(MatrixExact(field, m))
    return GroupAction(group, mats)


def diagonal_action(algebra: LieAlgebra, group: FiniteGroup,
                    diagonals) -> GroupAction:
    field = algebra.field
    z = field.zero()
    mats = []
    for diag in diagonals:
        mats.append(MatrixExact(field, [
            [diag[i] if i == j else z for j in range(algebra.dim)]
            for i in range(algebra.dim)]))
    return GroupAction(group, mats)


def fixture_sl2_trivial(field=RATIONALS) -> Workbench:
    return Workbench("sl2_trivial", sl2(field), FiniteGroup.trivial())


def fixture_gl2_z2_graded(field=RATIONALS) -> Workbench:
    """gl2 split into diagonal (degree 0) and antidiagonal (degree 1)."""
    alg = gl2(field)
    group = FiniteGroup.cyclic(2)
    grading = Grading(group, (0, 1, 1, 0))
    return Workbench("gl2_z2_graded", alg, group, grading=grading)


def fixture_gl2_z2_action(field=RATIONALS) -> Workbench:
    """The dual Z2 action: psi fixes the diagonal part and negates the
    antidiagonal part."""
    alg = gl2(field)
    group = FiniteGroup.cyclic(2, gen_name="psi")
    one = field.one()
    action = diagonal_action(alg, group, [
        (one, one, one, one), (one, -one, -one, one)])
    return Workbench("gl2_z2_action", alg, group, action=action)


def fixture_sl2xsl2_swap(field=RATIONALS) -> Workbench:
    alg = sl2_sl2(field)
    group = FiniteGroup.cyclic(2, gen_name="s")
    action = permutation_action(alg, group, [
        (0, 1, 2, 3, 4, 5), (3, 4, 5, 0, 1, 2)])
    return Workbench("sl2xsl2_swap", alg, group, action=action)


def fixture_heisenberg(field=RATIONALS) -> Workbench:
    return Workbench("heisenberg", heisenberg(field),
                     FiniteGroup.trivial())


def fixture_metabelian_cyclic(m) -> Workbench:
    """Full-cycle Z_m permuting the index pairs (a_i, b_i).

    The field picks up enough roots of unity for m > 2 so that chain
    sections split into eigenlines when they need to.
    """
    field = FieldSpec(m) if m > 2 else RATIONALS
    alg = metabelian(m, field)
    group = FiniteGroup.cyclic(m, gen_name="tau")
    perms = []
    for k in range(group.order):
        perm = [0] * (2 * m)
        for i in range(m):
            perm[i] = (i + k) % m
            perm[m + i] = m + (i + k) % m
        perms.append(tuple(perm))
    action = permutation_action(alg, group, perms)
    return Workbench(f"metabelian_m{m}_cyclic", alg, group, action=action)


def fixture_metabelian_trivial(m) -> Workbench:
    return Workbench(f"metabelian_m{m}_trivial", metabelian(m),
                     FiniteGroup.trivial())


def fixture_metabelian_graded(m) -> Workbench:
    alg = metabelian_diag(m)
    group = FiniteGroup.cyclic(m, gen_name="g")
    labels = tuple(list(range(m)) + list(range(m)))
    grading = Grading(group, labels)
    return Workbench(f"metabelian_graded_m{m}", alg, group,
                     grading=grading)


FIXTURE_BUILDERS = {
    "sl2_trivial": fixture_sl2_trivial,
    "gl2_z2_graded": fixture_gl2_z2_graded,
    "gl2_z2_action": fixture_gl2_z2_action,
    "sl2xsl2_swap": fixture_sl2xsl2_swap,
    "heisenberg": fixture_heisenberg,
    "metabelian_m1_cyclic": lambda: fixture_metabelian_cyclic(1),
    "metabelian_m2_cyclic": lambda: fixture_metabelian_cyclic(2),
    "metabelian_m3_cyclic": lambda: fixture_metabelian_cyclic(3),
    "metabelian_m2_trivial": lambda: fixture_metabelian_trivial(2),
    "metabelian_graded_m2": lambda: fixture_metabelian_graded(2),
}


def build_fixture(name: str) -> Workbench:
    try:
        return FIXTURE_BUILDERS[name]()
    except KeyError:
        raise KeyError(f"unknown fixture {name!r}; known: "
                       + ", ".join(sorted(FIXTURE_BUILDERS))) from None
