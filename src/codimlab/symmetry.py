"""Finite groups, linear actions, gradings, and the duality between
gradings and dual-group actions for abelian groups.

Groups are multiplication tables over element indices with 0 the
identity.  Abelian groups carry their invariant factor list, which is
what makes the character group constructible without any decomposition
work at runtime.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm, prod

from codimlab.lie_core import LieAlgebra, _bracket_rows
from codimlab.linalg import MatrixExact, Subspace, _push, combination_rows
from codimlab.scalar import FieldSpec, Scalar


def _product_table(orders):
    """The multiplication table of the product of cyclic groups of the
    given orders, elements listed as abelian_element_tuples lists
    them."""
    elements = list(product(*(range(m) for m in orders)))
    index = {e: i for i, e in enumerate(elements)}
    return tuple(tuple(index[tuple((x + y) % m
                                   for x, y, m in zip(a, b, orders))]
                       for b in elements) for a in elements)


class FiniteGroup:
    def __init__(self, names, table, abelian_orders=None):
        self.names = tuple(names)
        self.order = len(self.names)
        self.table = tuple(tuple(r) for r in table)
        self.abelian_orders = (tuple(abelian_orders)
                               if abelian_orders is not None else None)
        self._validate()
        self.inverse = tuple(self._find_inverse(g)
                             for g in range(self.order))

    def _validate(self):
        n = self.order
        if n == 0:
            raise ValueError("a group has at least one element")
        if len(self.table) != n or any(len(r) != n for r in self.table):
            raise ValueError("table shape mismatch")
        for g in range(n):
            if self.table[0][g] != g or self.table[g][0] != g:
                raise ValueError("element 0 is not the identity")
            if sorted(self.table[g]) != list(range(n)):
                raise ValueError(f"row {g} is not a permutation")
            if sorted(self.table[h][g] for h in range(n)) != list(range(n)):
                raise ValueError(f"column {g} is not a permutation")
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if (self.table[self.table[a][b]][c]
                            != self.table[a][self.table[b][c]]):
                        raise ValueError("multiplication not associative")
        orders = self.abelian_orders
        if orders is not None and (prod(orders) != n or
                                   self.table != _product_table(orders)):
            raise ValueError("table is not the product of cyclic groups "
                             f"of orders {list(orders)}")

    def _find_inverse(self, g):
        for h in range(self.order):
            if self.table[g][h] == 0:
                return h
        raise ValueError(f"element {g} has no inverse")

    def mul(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self.inverse[a]

    def element_order(self, g):
        k, cur = 1, g
        while cur != 0:
            cur = self.mul(cur, g)
            k += 1
        return k

    def exponent(self):
        e = 1
        for g in range(self.order):
            e = lcm(e, self.element_order(g))
        return e

    def is_abelian(self):
        return all(self.table[a][b] == self.table[b][a]
                   for a in range(self.order) for b in range(self.order))

    def index_of(self, name):
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"no group element named {name!r}") from None

    def __eq__(self, other):
        return (isinstance(other, FiniteGroup)
                and self.names == other.names and self.table == other.table)

    def __repr__(self):
        return f"FiniteGroup({list(self.names)})"

    # -- constructors -------------------------------------------------

    @classmethod
    def trivial(cls):
        return cls(("e",), ((0,),), abelian_orders=())

    @classmethod
    def cyclic(cls, m, gen_name="t"):
        if m == 1:
            return cls.trivial()
        names = ["e"] + [gen_name if k == 1 else f"{gen_name}^{k}"
                         for k in range(1, m)]
        return cls(names, _product_table((m,)), abelian_orders=(m,))

    @classmethod
    def abelian(cls, orders, names=None):
        """Direct product of cyclic groups given by invariant factors."""
        orders = tuple(int(m) for m in orders)
        if any(m < 1 for m in orders):
            raise ValueError("orders must be positive")
        elements = list(product(*(range(m) for m in orders)))
        if names is None:
            names = []
            for e in elements:
                if not any(e):
                    names.append("e")
                elif len(orders) == 1:
                    names.append("t" if e[0] == 1 else f"t^{e[0]}")
                else:
                    names.append("g" + "".join(str(x) for x in e))
        return cls(names, _product_table(orders), abelian_orders=orders)

    def abelian_element_tuples(self):
        if self.abelian_orders is None:
            raise ValueError("group has no declared invariant factors")
        return list(product(*(range(m) for m in self.abelian_orders)))


class GroupAction:
    """One invertible matrix per group element, rho(gh) = rho(g) rho(h)."""

    def __init__(self, group: FiniteGroup, matrices):
        self.group = group
        self.matrices = tuple(matrices)
        if len(self.matrices) != group.order:
            raise ValueError("need one matrix per group element")

    def matrix(self, g: int) -> MatrixExact:
        return self.matrices[g]

    def apply(self, g: int, vec):
        return self.matrices[g].apply(vec)

    def validate(self, algebra: LieAlgebra) -> list[str]:
        """Homomorphism property plus bracket equivariance, on integer
        rows: with den_g M_g e_k the columns of rho(g)'s integer form
        and D [e_i, e_j] the bracket table's rows, den_gh den_g den_h
        M_g M_h e_k against den_g den_h den_gh M_gh e_k, and
        den_g^2 D M_g [e_i, e_j] against D [den_g M_g e_i, den_g M_g e_j].
        """
        problems = []
        n = algebra.dim
        ident = MatrixExact.identity(algebra.field, n)
        if self.matrices[0] != ident:
            problems.append("identity element does not act as identity")
        deg = algebra.field.degree
        width = n * deg
        forms = [m._integer_form() for m in self.matrices]
        units = ([[(o, 1)] for o in range(width)], 1, width)
        names = self.group.names
        for g in range(self.group.order):
            for h in range(self.group.order):
                gh = self.group.mul(g, h)
                (_, dg, _), (ch, dh, _), (cgh, dgh, _) = \
                    forms[g], forms[h], forms[gh]
                if any(_push(forms[g], [(o, dgh * c) for o, c in ch[k]])
                       != _push(units, [(o, dg * dh * c) for o, c in cgh[k]])
                       for k in range(0, width, deg)):
                    problems.append(
                        f"rho({names[g]}) rho({names[h]}) != rho({names[gh]})")
        table = algebra._structure(deg)
        for g in range(self.group.order):
            columns, den, _ = forms[g]
            for i in range(n):
                for j in range(i + 1, n):
                    if (_push(forms[g], [(o, den * c) for o, c
                                         in table[i * deg][j * deg]])
                            != _bracket_rows(table, columns[i * deg],
                                             columns[j * deg], width)):
                        problems.append(
                            f"rho({names[g]}) is not a bracket"
                            f" homomorphism on ({algebra.basis_names[i]},"
                            f" {algebra.basis_names[j]})")
        return problems


class Grading:
    """Assignment of a group element to each basis vector.

    The basis is assumed homogeneous; validate() checks the bracket
    condition [L_g, L_h] <= L_{gh} entrywise.
    """

    def __init__(self, group: FiniteGroup, labels):
        self.group = group
        self.labels = tuple(labels)
        for g in self.labels:
            if not (0 <= g < group.order):
                raise ValueError(f"label {g} outside the group")

    def validate(self, algebra: LieAlgebra) -> list[str]:
        problems = []
        if len(self.labels) != algebra.dim:
            return ["label count does not match dim"]
        if not self.group.is_abelian():
            problems.append("grading group must be abelian here")
        for i in range(algebra.dim):
            for j in range(i + 1, algebra.dim):
                target = self.group.mul(self.labels[i], self.labels[j])
                for k, c in algebra.bracket_basis(i, j).items():
                    if c and self.labels[k] != target:
                        problems.append(
                            f"[{algebra.basis_names[i]},"
                            f" {algebra.basis_names[j]}] leaks into"
                            f" degree {self.group.names[self.labels[k]]}")
        return problems


# -- character duality ------------------------------------------------


def primitive_root_in(field: FieldSpec, k: int) -> Scalar | None:
    """A primitive k-th root of unity in the field, or None.

    Q(zeta_m) contains one when k divides m, and also when k = 2j for
    odd j dividing m, because -zeta_j then has order 2j.
    """
    m = field.order
    if k == 1:
        return field.one()
    if m % k == 0:
        return field.root_of_unity(m // k)
    if k % 2 == 0:
        j = k // 2
        if j % 2 == 1 and m % j == 0:
            return -field.root_of_unity(m // j)
    return None


def character_value(group: FiniteGroup, field: FieldSpec,
                    char_tuple, g: int) -> Scalar:
    """Value of the character indexed by char_tuple at element g.

    Characters of an abelian group with invariant factors (m_1, ..)
    are indexed by tuples t with psi_t(g) = w^(sum_i t_i g_i M/m_i)
    for w a primitive root of order M = lcm of the factors.
    """
    orders = group.abelian_orders
    if orders is None:
        raise ValueError("character values need declared invariant factors")
    elems = group.abelian_element_tuples()
    gt = elems[g]
    big = 1
    for m in orders:
        big = lcm(big, m)
    root = primitive_root_in(field, big)
    if root is None:
        raise ValueError(
            f"field {field} lacks roots of unity of order {big}")
    exp = sum(t * x * (big // m)
              for t, x, m in zip(char_tuple, gt, orders))
    return root ** (exp % big)


def dual_group(group: FiniteGroup) -> FiniteGroup:
    """The character group, presented with the same invariant factors.

    Element k of the result is the character indexed by the k-th tuple
    in the same enumeration used for the group elements themselves.
    """
    orders = group.abelian_orders
    if orders is None:
        raise ValueError("dual group needs declared invariant factors")
    if not orders or all(m == 1 for m in orders):
        return FiniteGroup.trivial()
    names = []
    for e in product(*(range(m) for m in orders)):
        if not any(e):
            names.append("e")
        elif len(orders) == 1:
            names.append("psi" if e[0] == 1 else f"psi^{e[0]}")
        else:
            names.append("psi" + "".join(str(x) for x in e))
    return FiniteGroup.abelian(orders, names)


def grading_to_action(algebra: LieAlgebra, grading: Grading):
    """Dual-group action: the character psi acts diagonally, scaling
    the degree-g component by psi(g).

    Returns (dual FiniteGroup, GroupAction).
    """
    group = grading.group
    if group.abelian_orders is None:
        raise ValueError("duality needs declared invariant factors")
    dual = dual_group(group)
    tuples = group.abelian_element_tuples()
    if dual.order == 1:
        tuples = tuples[:1]
    field = algebra.field
    z = field.zero()
    mats = []
    for t in tuples:
        diag = [character_value(group, field, t, grading.labels[i])
                for i in range(algebra.dim)]
        mats.append(MatrixExact(field, [
            [diag[i] if i == j else z for j in range(algebra.dim)]
            for i in range(algebra.dim)]))
    return dual, GroupAction(dual, mats)


@dataclass
class InducedGrading:
    """Result of splitting an action into simultaneous eigenspaces."""
    components: dict            # char index -> Subspace
    new_basis: list             # homogeneous basis vectors, old coords
    labels: tuple               # char index per new basis vector


def action_to_grading(algebra: LieAlgebra,
                      action: GroupAction) -> InducedGrading:
    """Split L into joint eigenspaces of an abelian action.

    Component for character chi is the image of the projector
    (1/|G|) sum_g chi(g)^{-1} rho(g), the span of the columns of
    sum_g chi(g)^{-1} rho(g), each summed as an integer row from the
    columns of the rho(g)'s integer forms (linalg.combination_rows)
    and handed to Subspace.from_rows, whose RREF is canonical.
    Requires the field to contain enough roots of unity, otherwise
    character_value raises.
    """
    group = action.group
    if group.abelian_orders is None:
        raise ValueError("eigenspace splitting needs declared invariant"
                         " factors")
    field = algebra.field
    tuples = group.abelian_element_tuples()
    n = algebra.dim
    components = {}
    new_basis, labels = [], []
    total = 0
    for ci, t in enumerate(tuples):
        rows, _ = combination_rows(field, [
            (character_value(group, field, t, group.inv(g)),
             action.matrix(g)) for g in range(group.order)])
        comp = Subspace.from_rows(field, n, rows, field.degree)
        components[ci] = comp
        total += comp.dim
        for v in comp.basis:
            new_basis.append(v)
            labels.append(ci)
    if total != n:
        raise ArithmeticError("eigenspace dimensions do not fill L")
    return InducedGrading(components, new_basis, tuple(labels))


def average_projection(proj: MatrixExact, action: GroupAction) -> MatrixExact:
    """(1/|G|) sum_g rho(g) proj rho(g)^{-1}.

    Averages an idempotent into a G-equivariant one with the same image
    when the image was already G-invariant.
    """
    group = action.group
    field = proj.field
    n = proj.rows
    acc = MatrixExact.zeros(field, n, n)
    for g in range(group.order):
        rg = action.matrix(g)
        rg_inv = action.matrix(group.inv(g))
        acc = acc + rg @ proj @ rg_inv
    return acc.scale(field.from_rational(Fraction(1, group.order)))


def orbits(group: FiniteGroup, images) -> list[tuple]:
    """Orbits of a permutation representation given as images[g][i].

    Returns sorted orbits of the index set; useful for the orbit size
    bound on growth exponents of permutation-type actions.
    """
    n = len(images[0])
    seen = [False] * n
    out = []
    for start in range(n):
        if seen[start]:
            continue
        orb = set()
        stack = [start]
        while stack:
            x = stack.pop()
            if x in orb:
                continue
            orb.add(x)
            for g in range(group.order):
                stack.append(images[g][x])
        for x in orb:
            seen[x] = True
        out.append(tuple(sorted(orb)))
    return out


def escaping_element(action: GroupAction, sub: Subspace) -> int | None:
    """First non-identity g with rho(g) sub not inside sub, or None."""
    for g in range(1, action.group.order):
        if not all(sub.contains_vector(action.apply(g, v))
                   for v in sub.basis):
            return g
    return None


def trivial_action(algebra: LieAlgebra) -> GroupAction:
    g = FiniteGroup.trivial()
    return GroupAction(g, [MatrixExact.identity(algebra.field,
                                                algebra.dim)])
