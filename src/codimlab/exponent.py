"""Growth exponent d(L) from invariant composition chains.

The number reported is

    d = max over section tuples of  dim L - dim (Ann(I_1/J_1) & ...)

where the tuples range over sections of one fixed chain of G-invariant
ideals through the nilradical, tuple lengths are capped by the
nilpotency index of N, and a tuple only counts when the bracket
condition [[T_1,L,..],[T_2,L,..],..] != 0 holds for some iteration
depths, tested on the canonical averaged complements T_k.

Chain construction finds minimal invariant submodules by spinning
candidate vectors under ad(L) and the group and keeping the smallest
spin.  Every candidate in it spins onto all of it, so the candidates
hold no proper submodule, and each section is certified irreducible
by the enveloping-algebra dimension alone; when that certificate
fails, the computation refuses rather than guessing.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from codimlab.config import Refusal, RunConfig
from codimlab.fixtures import Workbench
from codimlab.lie_core import LieAlgebra
from codimlab.linalg import (MatrixExact, Subspace, proper_invariant_subspace,
                             spin)
from codimlab.structure import (Decomposition, decompose,
                                equivariant_complement,
                                equivariant_hom_dimension, section_frame)
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
    available whenever the field has the needed roots of unity."""
    field = algebra.field
    projections = []
    for g in range(1, action.group.order):
        m = action.group.element_order(g)
        root = primitive_root_in(field, m)
        if root is None:
            continue
        powers = []
        cur = 0
        for _ in range(m):
            powers.append(action.matrix(cur))
            cur = action.group.mul(cur, g)
        inv_m = field.from_rational(Fraction(1, m))
        for j in range(m):
            acc = MatrixExact.zeros(field, algebra.dim, algebra.dim)
            for k in range(m):
                acc = acc + powers[k].scale(root ** ((-j * k) % m))
            projections.append(acc.scale(inv_m))
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


@dataclass
class SectionCheck:
    status: str  # "certified" | "reducible" | "undecided"
    witness: Subspace | None  # proper submodule, in section coordinates
    envelope_dim: int


def section_matrices(algebra: LieAlgebra, action: GroupAction,
                     upper: Subspace, lower: Subspace):
    """Matrices of ad(basis of L) and rho(g) on upper/lower."""
    field = algebra.field
    _, c_vecs, split = section_frame(field, upper, lower)
    t = len(c_vecs)
    mats = []
    for op in _module_operators(algebra, action):
        cols = [split(op.apply(v))[1] for v in c_vecs]
        mats.append(MatrixExact(field, [[cols[q][i] for q in range(t)]
                                        for i in range(t)]))
    return mats


def irreducible_check(field, dim_m: int, operators,
                      test_vectors) -> SectionCheck:
    """Spin for a proper submodule, then try the full-matrix-algebra
    certificate; inconclusive results are reported, not decided."""
    spun = proper_invariant_subspace(field, dim_m, operators, test_vectors)
    if spun is not None:
        return SectionCheck("reducible", spun, 0)

    # the envelope as a span of m x m matrices X, flattened row by row
    # and closed under X -> X op, which is the matrix I_m (x) op^T
    z, size = field.zero(), dim_m * dim_m
    right_multipliers = [MatrixExact(field, [
        [op.data[c % dim_m][r % dim_m] if c // dim_m == r // dim_m else z
         for c in range(size)] for r in range(size)]) for op in operators]
    identity = tuple(e for row in MatrixExact.identity(field, dim_m).data
                     for e in row)
    envelope = spin(field, size, right_multipliers, [identity])
    if envelope.dim == size:
        return SectionCheck("certified", None, envelope.dim)
    return SectionCheck("undecided", None, envelope.dim)


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


def _minimal_above(algebra, action, operators, projections,
                   cur: Subspace, top: Subspace) -> Subspace:
    best = None
    for v in _candidate_vectors(projections, top):
        if cur.contains_vector(v):
            continue
        grown = spin(algebra.field, algebra.dim, operators, [v],
                     closed=cur)
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
    mats = section_matrices(algebra, action, best, cur)
    check = irreducible_check(algebra.field, dim_m, mats, [])
    if check.status == "certified":
        return best
    raise Refusal(
        "undecided",
        f"a {dim_m}-dimensional section resisted both the "
        f"proper-submodule search and the enveloping-algebra "
        f"certificate (envelope dimension {check.envelope_dim} "
        f"of {dim_m * dim_m}); extend the field or refine the "
        f"input",
        section_dim=dim_m, envelope_dim=check.envelope_dim)


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
        while ascending[-1] != top:
            nxt = _minimal_above(algebra, action, operators,
                                 projections, ascending[-1], top)
            ascending.append(nxt)
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
        raise Refusal(
            "budget", f"exponent search needs ~{cost} scalar "
            f"multiplications, budget is {budget}",
            cost=cost, budget=budget, sections=sections, q_max=q_max,
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
        expected = max(s.dim for s in sections)
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
    q_max = config.q_max if config.q_max is not None else algebra.dim
    r_max = config.r_max_override or decomp.nilpotency_index
    check_sweep_budget(algebra.dim, len(sections), q_max, r_max,
                       config.budget)

    complements, ann, hom_dims = [], [], []
    for sec in sections:
        complements.append(equivariant_complement(
            algebra, decomp.levi, action, sec.upper, sec.lower))
        ann.append(algebra.annihilator(sec.upper, sec.lower))
        hom_dims.append(equivariant_hom_dimension(
            algebra, decomp.levi, action, sec.upper, sec.lower))

    chains = [bracket_chains(algebra, T, q_max) for T in complements]

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
                     "complement_hom_dim": hom_dims[s.index]}
                    for s in sections]
    return ExponentReport(
        bench.name, d, witness, tuples_examined,
        _closed_form_checks(algebra, decomp, sections, d),
        section_info, table)


def ann_decomposition_check(bench: Workbench, decomp: Decomposition,
                            upper: Subspace, lower: Subspace) -> dict:
    """Does Ann(I/J) split as (Ann & B) + (Ann & S) + N, exactly?"""
    algebra = bench.algebra
    annihilator = algebra.annihilator(upper, lower)
    ann_b = annihilator.intersect(decomp.levi)
    ann_s = annihilator.intersect(decomp.complement)
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
