"""Growth exponent d(L) from invariant composition chains.

The number reported is

    d = max over section tuples of  dim L - dim (Ann(I_1/J_1) & ...)

where the tuples range over sections of one fixed chain of G-invariant
ideals through the nilradical, tuple lengths are capped by the
nilpotency index of N, and a tuple only counts when the bracket
condition [[T_1,L,..],[T_2,L,..],..] != 0 holds for some iteration
depths up to dim L, tested on the averaged complements T_k, which
structure.equivariant_split returns with their multiplicity.

Chain construction walks from 0 up to each target (the nilradical,
then L) by minimal invariant submodules: it spins candidate vectors
under ad(L) and the group over the current member and keeps the
smallest spin.  Every candidate in it spins onto all of it, so the
candidates hold no proper submodule, and each section is certified
irreducible by the enveloping-algebra dimension alone; when that
certificate fails, the search starts again below a smaller spin of a
kernel vector of a section operator, and with none the computation
refuses rather than guessing.  The
search stops early when the first spin is the whole target and the
target over the current member is certified: a nonzero submodule of
an irreducible quotient is all of it, so every later candidate would
spin onto the target as well.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product
from math import lcm

from codimlab.config import Refusal, RunConfig
from codimlab.fixtures import Workbench
from codimlab.lie_core import LieAlgebra
from codimlab.linalg import (MatrixExact, Subspace, _dense, _push,
                             combination_rows, spin, spin_forms)
from codimlab.scalar import zeta_multiples
from codimlab.structure import (Decomposition, decompose,
                                equivariant_complement, equivariant_split)
from codimlab.symmetry import (GroupAction, grading_to_action,
                               primitive_root_in, trivial_action)


def resolve_action(bench: Workbench) -> GroupAction:
    """The group action the chain machinery works with: the declared
    one, the dual of the declared grading, or the trivial action."""
    if bench.action is not None:
        return bench.action
    if bench.grading is not None:
        _, action = grading_to_action(bench.algebra, bench.grading)
        return action
    return trivial_action(bench.algebra)


# -- invariant closures and chains ------------------------------------


def _module_operators(algebra: LieAlgebra, action: GroupAction):
    ops = [algebra.ad_basis(i) for i in range(algebra.dim)]
    ops += [action.matrix(g) for g in range(1, action.group.order)]
    return ops


def _eigenprojections(algebra: LieAlgebra, action: GroupAction):
    """Group-element eigenprojections (1/m) sum zeta^{-jk} rho(g)^k,
    available whenever the field has the needed roots of unity, each
    summed on integer rows (linalg.combination_rows), for the first
    generator of each cyclic subgroup: the others repeat its set."""
    field = algebra.field
    deg = field.degree
    projections = []
    done = set()
    for g in range(1, action.group.order):
        m = action.group.element_order(g)
        root = primitive_root_in(field, m)
        cyclic = list(accumulate([0] + [g] * (m - 1), action.group.mul))
        if root is None or frozenset(cyclic) in done:
            continue
        done.add(frozenset(cyclic))
        powers = [action.matrix(h) for h in cyclic]
        inv_m = Fraction(1, m)
        for j in range(m):
            rows, den = combination_rows(field, [
                (root ** ((-j * k) % m) * inv_m, powers[k])
                for k in range(m)])
            projections.append(MatrixExact.from_integer_form(field, [
                [(o, c) for o, c in enumerate(w) if c] for row in rows
                for w in zeta_multiples(field, row, deg)], den))
    return projections


def _candidate_vectors(projections, top: Subspace):
    """Deterministic candidate list: basis vectors of the target,
    their pairwise sums, their images under the eigenprojections."""
    basis = list(top.basis)
    out = list(basis)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            out.append(tuple(a + b for a, b in zip(basis[i], basis[j])))
    for proj in projections:
        for v in basis:
            w = proj.apply(v)
            if any(w):
                out.append(w)
    seen = set()
    unique = []
    for v in out:
        if v not in seen:
            seen.add(v)
            unique.append(v)
    return unique


def _section_quotient(field, upper: Subspace, lower: Subspace) -> Subspace:
    """The basis of upper/lower that section_matrices works in: the RREF
    of the residuals of upper's rows modulo lower (Subspace.residuals)."""
    deg = field.degree
    width = upper.ambient * deg
    return Subspace.from_rows(field, upper.ambient, lower.residuals(
        [_dense(r, width) for r in upper.rows_at(deg).values()], deg),
        deg, stable=True)


def section_matrices(field, operators, upper: Subspace, lower: Subspace):
    """Matrices on upper/lower of the operators (_module_operators), on
    integer rows.

    The basis is _section_quotient's.  Each basis row is pushed through
    every operator's integer form and the image is read modulo lower;
    that residual lies in the span of the RREF rows, so its coordinates
    are its entries at their pivots.  The residual map is linear, so
    lead, the lcm of lower's pivot entries that it multiplies by, goes
    into the denominator.
    """
    deg = field.degree
    basis = [(p, r) for p, r in _section_quotient(
        field, upper, lower).rows_at(deg).items() if p % deg == 0]
    # each basis row is pushed scaled to scale at its pivot
    lead = lcm(*(r[p] for p, r in lower.rows_at(deg).items()))
    scale = lcm(*(r[p] for p, r in basis))
    mats = []
    for op in operators:
        form = op._integer_form()
        images = lower.residuals([
            _push(form, ((j, x * (scale // r[p])) for j, x in r.items()))
            for p, r in basis], deg)
        columns = [[(o, c) for o, c in enumerate(w) if c]
                   for image in images
                   for w in zeta_multiples(field, [
                       image[p + t] for p, _ in basis for t in range(deg)],
                       deg)]
        mats.append(MatrixExact.from_integer_form(
            field, columns, lead * scale * form[1]))
    return mats


def envelope_dim(field, dim_m: int, operators) -> int:
    """Dimension of the associative envelope of the operators on F^m;
    it is m^2, the full matrix algebra, exactly when the module is
    absolutely irreducible."""
    # the envelope as a span of m x m matrices X, flattened row by row
    # and closed under X -> X op; row r of X op is op^T applied to row r
    # of X, so the integer form of X -> X op is op^T's, repeated once per
    # row of X
    deg = field.degree
    h = dim_m * deg
    forms = []
    for op in operators:
        columns, den, _ = op.transpose()._integer_form()
        forms.append(([[(r * h + o, c) for o, c in col]
                       for r in range(dim_m) for col in columns],
                      den, dim_m * h))
    identity = [0] * (dim_m * h)
    for r in range(dim_m):
        identity[r * h + r * deg] = 1
    return len(spin_forms(field, dim_m * dim_m, forms,
                          [identity]).rows) // deg


@dataclass
class ChainSection:
    index: int
    upper: Subspace
    lower: Subspace

    @property
    def dim(self) -> int:
        return self.upper.dim - self.lower.dim


@dataclass
class CompositionChain:
    members: list  # descending subspaces, L first, 0 last

    @property
    def sections(self):
        return [ChainSection(i, self.members[i], self.members[i + 1])
                for i in range(len(self.members) - 1)]


def _minimal_above(algebra, operators, candidates, cur: Subspace,
                   top: Subspace) -> Subspace:
    """A G-invariant ideal above cur and inside top whose section over
    cur is certified irreducible: the smallest spin over cur of the
    candidates outside it, the search ending at a spin one dimension
    above cur.

    While every spin so far is all of top, top/cur is certified as soon
    as the first spin reaches top.  A full envelope makes top/cur
    irreducible, and a nonzero submodule of an irreducible quotient is
    all of it, so every later candidate outside cur would spin onto top
    as well and top is returned at once.  Otherwise the search goes on,
    and the envelope is kept for the refusal should top stay the
    smallest spin.

    An uncertified smallest spin is searched again below a smaller spin
    of a kernel vector of a nonzero operator on its section (such as
    the centre of a nilpotent algebra in a basis of no central vector).
    """
    field = algebra.field
    best = env = None
    for v in candidates:
        if cur.contains_vector(v):
            continue
        grown = spin(field, algebra.dim, operators, [v], closed=cur)
        if best is None and grown.dim == top.dim and top.dim > cur.dim + 1:
            dim_m = top.dim - cur.dim
            mats = section_matrices(field, operators, top, cur)
            env = envelope_dim(field, dim_m, mats)
            if env == dim_m * dim_m:
                return top
        if best is None or grown.dim < best.dim:
            best = grown
        if best.dim == cur.dim + 1:
            break
    if best is None:
        raise ArithmeticError("no vector extends the chain; "
                              "top equals the current member")
    dim_m = best.dim - cur.dim
    if dim_m == 1:
        # a 1 x 1 envelope holds the identity, so it is everything
        return best
    # every candidate in best but not in cur spins onto all of best
    # (best is the smallest spin), so only the certificate can decide
    if best.dim < top.dim:
        mats = section_matrices(field, operators, best, cur)
        env = envelope_dim(field, dim_m, mats)
    if env == dim_m * dim_m:
        return best
    lift = MatrixExact(field, _section_quotient(field, best, cur).basis)
    for x in (x for mat in mats if not mat.is_zero()
              for x in mat.kernel().basis):
        v = lift.transpose().apply(x)
        spun = spin(field, algebra.dim, operators, [v], closed=cur)
        if spun.dim < best.dim:
            return _minimal_above(algebra, operators, [v], cur, spun)
    raise Refusal(
        "undecided",
        f"a {dim_m}-dimensional section resisted both the "
        f"proper-submodule search and the enveloping-algebra "
        f"certificate (envelope dimension {env} "
        f"of {dim_m * dim_m}); extend the field or refine the "
        f"input",
        section_dim=dim_m, envelope_dim=env)


def composition_chain(bench: Workbench,
                      decomp: Decomposition) -> CompositionChain:
    """Descending G-invariant ideals from L to 0 through the
    nilradical, every section certified irreducible."""
    algebra = bench.algebra
    action = resolve_action(bench)
    operators = _module_operators(algebra, action)
    projections = _eigenprojections(algebra, action)

    ascending = [algebra.zero_space()]
    targets = []
    if decomp.nilradical.dim > 0:
        targets.append(decomp.nilradical)
    if decomp.nilradical.dim < algebra.dim:
        targets.append(algebra.full_space())
    for top in targets:
        candidates = _candidate_vectors(projections, top)
        while ascending[-1] != top:
            ascending.append(_minimal_above(algebra, operators, candidates,
                                            ascending[-1], top))
    return CompositionChain(list(reversed(ascending)))


# -- condition 2 and the maximum --------------------------------------


def bracket_chains(algebra: LieAlgebra, complement: Subspace,
                   q_max: int):
    """[T, L, .., L] with 0..q_max copies of L, left-normed."""
    chain = [complement]
    full = algebra.full_space()
    for _ in range(q_max):
        chain.append(algebra.bracket_subspaces(chain[-1], full))
    return chain


def condition2(algebra: LieAlgebra, chains, q_max: int):
    """First q-vector (lexicographic) making the left-normed bracket
    of the iterated subspaces nonzero, or None."""
    r = len(chains)
    for qvec in product(range(q_max + 1), repeat=r):
        space = chains[0][qvec[0]]
        if space.dim == 0:
            continue
        alive = True
        for k in range(1, r):
            space = algebra.bracket_subspaces(space, chains[k][qvec[k]])
            if space.dim == 0:
                alive = False
                break
        if alive:
            return qvec
    return None


def check_sweep_budget(dim: int, sections: int, q_max: int, r_max: int,
                       budget: int) -> None:
    """Refuse a condition-2 sweep whose bracket products, one per
    section tuple of length r <= r_max and q-vector in 0..q_max, at
    dim^3 scalar multiplications each, exceed the budget."""
    cost = dim ** 3 * sum((sections * (q_max + 1)) ** r
                          for r in range(1, r_max + 1))
    if cost > budget:
        raise Refusal.over_budget("exponent search", cost, budget,
                                  sections=sections, q_max=q_max,
                                  r_max=r_max)


@dataclass
class ExponentReport:
    name: str
    d: int
    witness: dict | None
    tuples_examined: int
    closed_form_checks: list
    sections: list
    table: list

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "d": self.d,
            "witness": self.witness,
            "tuples_examined": self.tuples_examined,
            "closed_form_checks": self.closed_form_checks,
            "sections": self.sections,
            "table": self.table,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _closed_form_checks(algebra, decomp, sections, d):
    checks = []
    derived = algebra.bracket_subspaces(algebra.full_space(),
                                        algebra.full_space())
    if decomp.nilradical.dim == algebra.dim:
        checks.append({"rule": "nilpotent_zero", "expected": 0,
                       "agrees": d == 0})
    if len(sections) == 1 and derived.dim == algebra.dim:
        checks.append({"rule": "simple_full_dimension",
                       "expected": algebra.dim,
                       "agrees": d == algebra.dim})
    if decomp.radical.dim == 0:
        expected = max((s.dim for s in sections), default=0)
        checks.append({"rule": "semisimple_max_component",
                       "expected": expected, "agrees": d == expected})
    return checks


def compute_d(bench: Workbench,
              config: RunConfig | None = None) -> ExponentReport:
    """The chain-restricted annihilator maximum, with witness."""
    config = config or RunConfig()
    algebra = bench.algebra
    action = resolve_action(bench)
    decomp = decompose(algebra, bench.annotation, action)
    chain = composition_chain(bench, decomp)
    sections = chain.sections
    q_max, r_max = algebra.dim, decomp.nilpotency_index
    check_sweep_budget(algebra.dim, len(sections), q_max, r_max,
                       config.budget)

    splits = [equivariant_split(algebra, decomp.levi, action, sec.upper,
                                sec.lower) for sec in sections]
    ann = [algebra.annihilator(sec.upper, sec.lower) for sec in sections]
    chains = [bracket_chains(algebra, T, q_max) for T, _ in splits]

    tuples_examined = 0
    satisfied = []
    table = []
    for r in range(1, r_max + 1):
        for tup in product(range(len(sections)), repeat=r):
            tuples_examined += 1
            qvec = condition2(algebra, [chains[k] for k in tup], q_max)
            if qvec is None:
                table.append({"sections": list(tup), "q": None,
                              "value": None})
                continue
            meet = ann[tup[0]]
            for k in tup[1:]:
                meet = meet.intersect(ann[k])
            value = algebra.dim - meet.dim
            satisfied.append((value, tup, qvec))
            table.append({"sections": list(tup), "q": list(qvec),
                          "value": value})

    if satisfied:
        d = max(v for v, _, _ in satisfied)
        tup, qvec = min((t, q) for v, t, q in satisfied if v == d)
        witness = {"sections": list(tup), "q": list(qvec)}
    else:
        d = 0
        witness = None

    section_info = [{"index": s.index, "dim": s.dim,
                     "ann_dim": ann[s.index].dim,
                     "complement_hom_dim": splits[s.index][1]}
                    for s in sections]
    return ExponentReport(
        bench.name, d, witness, tuples_examined,
        _closed_form_checks(algebra, decomp, sections, d),
        section_info, table)


def ann_decomposition_check(bench: Workbench, decomp: Decomposition,
                            upper: Subspace, lower: Subspace) -> dict:
    """Does Ann(I/J) split as (Ann & B) + (Ann & S) + N, exactly?  S is
    the annotated complement of N in R, else the equivariant one."""
    algebra = bench.algebra
    comp = bench.annotation.complement if bench.annotation else None
    if comp is None:
        comp = equivariant_complement(algebra, decomp.levi,
                                      resolve_action(bench),
                                      decomp.radical, decomp.nilradical)
    annihilator = algebra.annihilator(upper, lower)
    ann_b = annihilator.intersect(decomp.levi)
    ann_s = annihilator.intersect(comp)
    nil = decomp.nilradical
    problems = []
    if not annihilator.contains(nil):
        problems.append("nilradical does not annihilate the section")
    total = ann_b.add(ann_s).add(nil)
    if total != annihilator:
        problems.append("parts do not span the annihilator")
    if ann_b.dim + ann_s.dim + nil.dim != annihilator.dim:
        problems.append("parts overlap")
    return {
        "holds": not problems,
        "ann_dim": annihilator.dim,
        "levi_part_dim": ann_b.dim,
        "complement_part_dim": ann_s.dim,
        "nilradical_dim": nil.dim,
        "problems": problems,
    }
