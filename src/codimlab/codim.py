"""Codimension sequences, cocharacters, and identity checking.

Codimensions and cocharacters are read off weight spaces (Drensky's
GL_m method).  Lie words are evaluated on generic elements
X_i = sum_j xi_ij e_j of the algebra over the polynomial ring in the
xi; the span of the words of content mu (mu_i copies of letter i) is
the multihomogeneous component of degree mu of the relatively free
algebra.  Its dimension is D_mu = sum_lambda K(lambda, mu) m_lambda,
where K is the Kostka matrix and m_lambda the multiplicity of the
irreducible S_n-character chi_lambda in the cocharacter.  K is
unitriangular in dominance order and m_lambda vanishes for diagrams
taller than dim L, so the ranks D_mu over the partitions mu of n with
at most dim L parts give every m_lambda by a triangular solve, and
c_n = sum_lambda m_lambda dim(chi_lambda).  No multilinear row and no
trace is computed.

A component is spanned by its left-normed words [X_f, X_i2, ..., X_in]
that start with one fixed letter f: the x_1-first multilinear
monomials span the multilinear part, and substituting letters for the
variables, f for x_1, maps them onto these words.  The words are
evaluated by one depth-first walk over shared prefixes that prunes a
prefix once its value is zero.  A column is a pair (xi-monomial,
output coordinate), coded as one integer.

The decorated flavours run on blocks.  In the graded flavour, words
whose variables carry different degrees never share a coordinate, so
c_n is the sum over the compositions alpha of n into |G| parts of
multinomial(alpha) times the dimension of the block whose variables
carry the degrees (0^alpha_0, 1^alpha_1, ...).  A letter of degree g
is generic over L_g, a component of block alpha has one partition
mu^g of alpha_g per degree, and its rank is
sum_lambda prod_g K(lambda^g, mu^g) m_lambda, which gives the
character of the block under its Young subgroup S_alpha; that is
induced to S_n by the Littlewood-Richardson rule.  A G-action of a
finite abelian group, over a field holding the roots of unity its
characters take, is first rewritten as the graded flavour of the dual
grading (its joint eigenspaces), which has the same codimensions and
cocharacters.  The ordinary flavour is the one block alpha = (n).  Any
other G-action is one block under the whole of S_n: its letters are
generic over all of L, and each occurrence of a letter carries any
decoration g, with value rho(g) X_i.

Rank is taken by one engine on every field: fraction-free sparse
elimination of integer rows, with gcd stripping.  When every leaf and
bracket coefficient is rational the rows are rational, and a rational
row has the same rank over Q(zeta_m) (descent).  Otherwise each
coordinate over K = Q(zeta_m) splits into its phi(m) rational
coefficients on 1, zeta, ..., and every word is offered with its first
letter times each zeta^j: the rational span of these rows is the
K-span of the words realified, of dimension phi(m) D_mu
(realification).  The leaves and the bracket tables are each scaled
to integers by one common denominator, which multiplies every row by
a nonzero constant and so keeps every rank.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import factorial, gcd, lcm, prod

from .config import Refusal, RunConfig
from .fixtures import Workbench
from .free_polys import tree_variables
from .linalg import modular_rank
from .partitions import (compositions, hook_dim, induced_product, kostka,
                         partitions)
from .symmetry import Grading, action_to_grading, primitive_root_in

FLAVORS = ("ordinary", "graded", "g_action")

# primes for the optional rank cross-check, fixed for reproducibility
_CHECK_PRIMES = (4611686018427387847, 4611686018427387817)


def spanning_cost(dim: int, n: int, group_order: int) -> int:
    """Scalar-multiplication estimate used by the budget guard."""
    return dim ** (n + 1) * factorial(n) * group_order ** n


def _decoration_order(bench: Workbench, flavor: str) -> int:
    return 1 if flavor == "ordinary" else bench.group.order


def check_budget(bench: Workbench, flavor: str, n: int,
                 config: RunConfig) -> None:
    gorder = _decoration_order(bench, flavor)
    cost = spanning_cost(bench.algebra.dim, n, gorder)
    if cost <= config.budget:
        return
    feasible = 0
    for m in range(1, 65):
        if spanning_cost(bench.algebra.dim, m, gorder) <= config.budget:
            feasible = m
        else:
            break
    raise Refusal(
        "budget",
        f"codimension at n={n} needs ~{cost} scalar multiplications, "
        f"budget is {config.budget}",
        cost=cost, budget=config.budget, n=n, flavor=flavor,
        max_feasible_n=feasible)


class _Evaluator:
    """The leaves of one workbench and flavor: a letter decorated with
    g is the generic element sum_j xi_j leaf_j over the options of g."""

    def __init__(self, bench: Workbench, flavor: str):
        if flavor not in FLAVORS:
            raise ValueError(f"unknown flavor {flavor!r}")
        if flavor == "graded" and bench.grading is None:
            raise ValueError(f"{bench.name} carries no grading")
        if flavor == "g_action" and bench.action is None:
            raise ValueError(f"{bench.name} carries no group action")
        self.bench = bench
        self.flavor = flavor
        self.algebra = bench.algebra
        self.field = bench.algebra.field
        self.dim = bench.algebra.dim
        self.group_order = _decoration_order(bench, flavor)
        self._options = self._slot_options()

    def _slot_options(self):
        """Per decoration g: the list of (substituted index, leaf value)
        pairs a slot decorated with g can take."""
        L = self.algebra
        one = self.field.one()
        if self.flavor == "ordinary":
            return {0: [(j, {j: one}) for j in range(L.dim)]}
        if self.flavor == "graded":
            grading = self.bench.grading
            return {g: [(j, {j: one}) for j in grading.component_indices(g)]
                    for g in range(self.group_order)}
        action = self.bench.action
        options = {}
        for g in range(self.group_order):
            mat = action.matrix(g)
            cols = []
            for j in range(L.dim):
                col = {i: c for i, c in enumerate(mat.column(j)) if c}
                cols.append((j, col))
            options[g] = cols
        return options


# -- rank engine -----------------------------------------------------


class IntRowSpace:
    """Row space over the rationals, pivots kept as gcd-stripped
    integer rows with distinct leading keys, in insertion order."""

    def __init__(self):
        self.pivots = {}

    @property
    def rank(self):
        return len(self.pivots)

    def add(self, row: dict) -> bool:
        """Reduce an integer row; absorb it if independent."""
        while row:
            k = min(row)
            pivot = self.pivots.get(k)
            if pivot is None:
                g = gcd(*row.values())
                if g > 1:
                    row = {kk: v // g for kk, v in row.items()}
                self.pivots[k] = row
                return True
            a, b = row[k], pivot[k]
            g = gcd(a, b)
            ma, mb = b // g, a // g
            new = {kk: v * ma for kk, v in row.items()}
            for kk, v in pivot.items():
                cur = new.get(kk, 0) - v * mb
                if cur:
                    new[kk] = cur
                else:
                    new.pop(kk, None)
            row = new
        return False

    def coordinates(self, row: dict, p: int):
        """Express an integer row in the pivot basis, as residues mod
        p; None when it falls outside the span.  Keys are pivot leading
        keys.  p must divide no pivot lead: every coordinate is then a
        rational whose denominator is a unit mod p."""
        work = {k: v % p for k, v in row.items() if v % p}
        coords = {}
        while work:
            k = min(work)
            pivot = self.pivots.get(k)
            if pivot is None:
                return None
            c = work[k] * pow(pivot[k], -1, p) % p
            coords[k] = c
            for kk, v in pivot.items():
                cur = (work.get(kk, 0) - c * v) % p
                if cur:
                    work[kk] = cur
                else:
                    work.pop(kk, None)
        return coords


class ScalarRowSpace:
    """Row space over any exact field, pivots normalized to leading
    coefficient one and kept in insertion order.  The rank engine does
    not use it: it is the cyclotomic reference of the multilinear test
    oracle, and benchmark/tracing.py hooks its methods by name."""

    def __init__(self, field):
        self.field = field
        self.pivots = {}

    @property
    def rank(self):
        return len(self.pivots)

    def add(self, row: dict) -> bool:
        row = dict(row)
        while row:
            k = min(row)
            pivot = self.pivots.get(k)
            if pivot is None:
                lead = row[k]
                if lead != self.field.one():
                    inv = lead.inverse()
                    row = {kk: v * inv for kk, v in row.items()}
                self.pivots[k] = row
                return True
            c = row[k]
            for kk, v in pivot.items():
                cur = row.get(kk)
                val = -c * v if cur is None else cur - c * v
                if val:
                    row[kk] = val
                else:
                    row.pop(kk, None)
        return False

    def coordinates(self, row: dict):
        """Express a row in the pivot basis; None when it falls
        outside the span.  Keys are pivot leading keys."""
        work = dict(row)
        coords = {}
        while work:
            k = min(work)
            pivot = self.pivots.get(k)
            if pivot is None:
                return None
            c = work[k]
            coords[k] = c
            for kk, v in pivot.items():
                cur = work.get(kk)
                val = -c * v if cur is None else cur - c * v
                if val:
                    work[kk] = val
                else:
                    work.pop(kk, None)
        return coords


def _dual_grading(bench: Workbench) -> Workbench | None:
    """The graded workbench of the joint eigenspaces of an abelian
    action, or None when the group declares no invariant factors or
    the field lacks the roots of unity its characters take."""
    group = bench.group
    if (group.abelian_orders is None or primitive_root_in(
            bench.algebra.field, group.exponent()) is None):
        return None
    ig = action_to_grading(bench.algebra, bench.action)
    names = tuple(f"u{i + 1}" for i in range(bench.algebra.dim))
    algebra = bench.algebra.change_of_basis(ig.new_basis, names)
    return Workbench(bench.name, algebra, ig.group,
                     grading=Grading(ig.group, ig.labels))


def _blocks(bench: Workbench, flavor: str, n: int):
    """(evaluator, blocks); a block is (decorations per variable,
    Young subgroup parts, weight), and c_n is the sum of weight times
    dimension over the blocks."""
    ev = _Evaluator(bench, flavor)
    if flavor == "g_action":
        dual = _dual_grading(bench)
        if dual is None:
            everything = product(range(ev.group_order), repeat=n)
            return ev, [(everything, (n,), 1)]
        ev = _Evaluator(dual, "graded")
    blocks = []
    for alpha in compositions(n, ev.group_order):
        d = tuple(g for g, k in enumerate(alpha) for _ in range(k))
        weight = factorial(n) // prod(factorial(k) for k in alpha)
        blocks.append(([d], alpha, weight))
    return ev, blocks


# -- weight-space engine ---------------------------------------------


def _letter_data(ev: _Evaluator):
    """(deg, data): per decoration g, (leaves, steps) of the letter
    X = sum_p xi_p leaf_p over the options of g, as integer (p, out, c)
    terms over Q.

    Over the field Q(zeta) a vector sum_k a_k e_k has deg rational
    coordinates per k: coordinate out = k deg + t is the coefficient
    of zeta^t in a_k.  leaves[j] holds the terms of zeta^j X and
    steps[k deg + j] those of [zeta^j e_k, X].  deg is 1 when every
    coefficient is rational, since a rational row has the same rank
    over the field, and the field degree otherwise.  The leaves are
    multiplied by one common denominator and the brackets by another,
    which multiplies every row by a nonzero constant."""
    L, field = ev.algebra, ev.field
    one = field.one()
    data = {}
    for g, options in ev._options.items():
        leaf = [(p, out, c) for p, (_, vec) in enumerate(options)
                for out, c in vec.items()]
        steps = [[(p, out, c) for p, (_, vec) in enumerate(options)
                  for out, c in L.bracket_sparse({k: one}, vec).items()]
                 for k in range(ev.dim)]
        data[g] = (leaf, steps)
    rational = all(not any(c.num[1:]) for leaf, steps in data.values()
                   for terms in (leaf, *steps) for _, _, c in terms)
    deg = 1 if rational else field.degree
    roots = [field.root_of_unity(j) for j in range(deg)]

    def ints(terms, j, den):
        out = []
        for p, k, c in terms:
            z = c * roots[j] if j else c
            out.extend((p, k * deg + t, v * (den // z.den))
                       for t, v in enumerate(z.num[:deg]) if v)
        return out

    leaf_den = lcm(*(c.den for leaf, _ in data.values()
                     for _, _, c in leaf))
    step_den = lcm(*(c.den for _, steps in data.values()
                     for terms in steps for _, _, c in terms))
    return deg, {g: ([ints(leaf, j, leaf_den) for j in range(deg)],
                     [ints(terms, j, step_den)
                      for terms in steps for j in range(deg)])
                 for g, (leaf, steps) in data.items()}


def _component_rank(ev: _Evaluator, letters, types, mus,
                    verify: bool) -> int:
    """D_mu: the rank of the span of the left-normed words with
    mus[t][r] copies of letter r of type t, evaluated on generic
    letters.  types[t] holds the decorations a letter of type t may
    carry, and letters is the (deg, data) of _letter_data.

    Only the words that start with the letter of fewest copies are
    evaluated, each once per start zeta^j X of that letter: over a
    field of degree deg these rows span the words' span realified over
    Q, of dimension deg D_mu.  A column key is code * dim deg + out,
    where code holds the exponent of xi_(i, p), at most the copies of
    letter i, as one digit of a mixed-radix number; appending a letter
    adds its place value to every key, so one bracket table per letter
    maps key to key.
    """
    deg, data = letters
    width = ev.dim * deg
    starts, tables, counts = [], [], []
    place = width
    for decorations, mu in zip(types, mus):
        xis = len(ev._options[decorations[0]])
        for copies in mu:
            places = [place * (copies + 1) ** p for p in range(xis)]
            place *= (copies + 1) ** xis
            starts.append([{places[p] + out: c for p, out, c in leaf}
                           for g in decorations for leaf in data[g][0]])
            tables.append([[[(places[p] + out - k, c)
                             for p, out, c in terms]
                            for k, terms in enumerate(data[g][1])]
                           for g in decorations])
            counts.append(copies)

    space = IntRowSpace()
    offered = [] if verify else None

    def extend(value, left):
        if not left:
            if offered is not None:
                offered.append(value)
            space.add(value)
            return
        for i, letter in enumerate(tables):
            if not counts[i]:
                continue
            counts[i] -= 1
            for table in letter:
                new = {}
                get = new.get
                for key, c in value.items():
                    for shift, s in table[key % width]:
                        nk = key + shift
                        new[nk] = get(nk, 0) + c * s
                new = {nk: v for nk, v in new.items() if v}
                if new:
                    extend(new, left - 1)
            counts[i] += 1

    first = counts.index(min(counts))
    counts[first] -= 1
    for value in starts[first]:
        extend(value, sum(counts))
    if offered is not None:
        _cross_check_rank(offered, space.rank)
    rank, rest = divmod(space.rank, deg)
    if rest:
        raise ArithmeticError(
            f"rank {space.rank} over Q is not a multiple of the field "
            f"degree {deg}")
    return rank


def _block_cocharacter(ev: _Evaluator, letters, parts: tuple,
                       verify: bool) -> dict:
    """{(lambda^0, lambda^1, ...): multiplicity} of one block as a
    module for its Young subgroup S_parts.

    The components mu run over the tuples of partitions mu^g of
    parts[g] with at most dim L_g parts, in decreasing lexicographic
    order, and m_mu = D_mu - sum of prod_g K(lambda^g, mu^g) m_lambda
    over the lambda solved before.  Every lambda^g dominating mu^g
    precedes mu, so this is the unitriangular solve; a negative value
    means an inconsistent rank and raises."""
    if ev.flavor == "g_action":
        types = [tuple(range(ev.group_order))]
    else:
        types = [(g,) for g in range(len(parts))]
    shapes = [[mu for mu in partitions(size)
               if len(mu) <= len(ev._options[decorations[0]])]
              for size, decorations in zip(parts, types)]
    solved = {}
    for mus in product(*shapes):
        m = _component_rank(ev, letters, types, mus, verify) - sum(
            mult * prod(kostka(lam, mu) for lam, mu in zip(lams, mus))
            for lams, mult in solved.items())
        if m < 0:
            raise ArithmeticError(
                f"multiplicity for {mus} is {m}, expected a "
                "non-negative integer")
        if m:
            solved[mus] = m
    return solved


def _block_characters(bench: Workbench, flavor: str, n: int,
                      verify: bool = False):
    """(weight, block dimension, block cocharacter) per block."""
    ev, blocks = _blocks(bench, flavor, n)
    letters = _letter_data(ev)
    for _, parts, weight in blocks:
        chars = _block_cocharacter(ev, letters, parts, verify)
        dim = sum(m * prod(hook_dim(lam) for lam in shapes)
                  for shapes, m in chars.items())
        yield weight, dim, chars


def codimension(bench: Workbench, flavor: str, n: int,
                config: RunConfig | None = None) -> int:
    """Weighted sum of the block dimensions, each read off the ranks
    of the block's weight components."""
    if n < 1:
        raise ValueError("n must be at least 1")
    config = config or RunConfig()
    check_budget(bench, flavor, n, config)
    return sum(weight * dim for weight, dim, _ in
               _block_characters(bench, flavor, n, config.verify))


def _cross_check_rank(int_rows, expected: int) -> None:
    # a disagreement here means an elimination bug, not bad luck: both
    # modular ranks would have to hit vanishing minors simultaneously
    keys = sorted({k for row in int_rows for k in row})
    dense = [[row.get(k, 0) for k in keys] for row in int_rows]
    for p in _CHECK_PRIMES:
        got = modular_rank(dense, p)
        if got != expected:
            raise ArithmeticError(
                f"rank cross-check failed: exact {expected}, "
                f"mod {p} gave {got}")


# -- reports ---------------------------------------------------------


def nth_root_display(c: int, n: int, scale: int = 1000) -> Fraction:
    """Largest t/scale with (t/scale)^n <= c, for tables only."""
    if c < 0:
        raise ValueError("negative codimension")
    if c == 0:
        return Fraction(0)
    target = c * scale ** n
    lo, hi = 0, max(c * scale, scale)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid ** n <= target:
            lo = mid
        else:
            hi = mid - 1
    return Fraction(lo, scale)


@dataclass
class CodimReport:
    name: str
    flavor: str
    points: list  # (n, c_n, root Fraction)

    def to_csv(self) -> str:
        lines = ["n,flavor,c_n,root_num,root_den"]
        for n, c, root in self.points:
            lines.append(
                f"{n},{self.flavor},{c},{root.numerator},{root.denominator}")
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {"name": self.name, "flavor": self.flavor,
                "points": [{"n": n, "c_n": c,
                            "root": [root.numerator, root.denominator]}
                           for n, c, root in self.points]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def empirical_exponent(bench: Workbench, flavor: str, n_max: int,
                       config: RunConfig | None = None,
                       n_min: int = 1) -> CodimReport:
    """Codimension table with display roots; raw data, no
    extrapolation."""
    config = config or RunConfig()
    for n in range(n_min, n_max + 1):
        check_budget(bench, flavor, n, config)
    points = []
    for n in range(n_min, n_max + 1):
        c = codimension(bench, flavor, n, config)
        points.append((n, c, nth_root_display(c, n)))
    return CodimReport(bench.name, flavor, points)


# -- identity checking -----------------------------------------------


@dataclass
class IdentityReport:
    is_identity: bool
    witness: dict | None

    def to_dict(self) -> dict:
        return {"is_identity": self.is_identity, "witness": self.witness}


def _poly_variables(poly: dict):
    vars_seen = None
    for key in poly:
        names = sorted(tree_variables(key))
        if len(set(names)) != len(names):
            raise ValueError("polynomial is not multilinear: "
                             f"repeated variable in {key}")
        if vars_seen is None:
            vars_seen = names
        elif names != vars_seen:
            raise ValueError("polynomial is not multilinear: monomials "
                             "use different variable sets")
    if not vars_seen:
        raise ValueError("empty polynomial")
    return vars_seen


def _tree_decorations(key, out):
    if key[0] == "v":
        out.setdefault(key[1], set()).add(key[2])
    else:
        _tree_decorations(key[1], out)
        _tree_decorations(key[2], out)


def is_identity(bench: Workbench, flavor: str, poly: dict,
                config: RunConfig | None = None) -> IdentityReport:
    """Exhaustive basis-substitution check, valid by multilinearity."""
    if not poly:
        return IdentityReport(True, None)
    ev = _Evaluator(bench, flavor)
    variables = _poly_variables(poly)
    decorations = {}
    for key in poly:
        _tree_decorations(key, decorations)

    L = bench.algebra
    allowed = {}
    for v in variables:
        if flavor == "graded":
            idx = None
            for g in decorations[v]:
                comp = set(bench.grading.component_indices(g))
                idx = comp if idx is None else idx & comp
            allowed[v] = sorted(idx)
        else:
            allowed[v] = list(range(L.dim))

    def leaf_value(var, g, j):
        if flavor == "g_action":
            return dict(ev._options[g][j][1])
        return {j: L.field.one()}

    def evaluate(key, sub):
        if key[0] == "v":
            return leaf_value(key[1], key[2], sub[key[1]])
        left = evaluate(key[1], sub)
        if not left:
            return {}
        right = evaluate(key[2], sub)
        if not right:
            return {}
        return L.bracket_sparse(left, right)

    for choice in product(*(allowed[v] for v in variables)):
        sub = dict(zip(variables, choice))
        total = {}
        for key, coeff in poly.items():
            val = evaluate(key, sub)
            for k, c in val.items():
                cur = total.get(k)
                s = coeff * c if cur is None else cur + coeff * c
                if s:
                    total[k] = s
                else:
                    total.pop(k, None)
        if total:
            witness = {
                "substitution": {
                    f"x{v}": L.basis_names[sub[v]] for v in variables},
                "value": {L.basis_names[k]: str(c)
                          for k, c in sorted(total.items())},
            }
            return IdentityReport(False, witness)
    return IdentityReport(True, None)


# -- cocharacters ----------------------------------------------------


@dataclass
class CocharacterReport:
    name: str
    flavor: str
    n: int
    multiplicities: dict  # partition -> positive int, zeros omitted
    codim: int

    @property
    def colength(self) -> int:
        return sum(self.multiplicities.values())

    def to_dict(self) -> dict:
        return {
            "name": self.name, "flavor": self.flavor, "n": self.n,
            "entries": [{"partition": list(lam), "multiplicity": m}
                        for lam, m in sorted(self.multiplicities.items(),
                                             reverse=True)],
            "colength": self.colength,
            "codim_check": self.codim,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def cocharacter(bench: Workbench, flavor: str, n: int,
                config: RunConfig | None = None) -> CocharacterReport:
    """Multiplicities of the S_n-character of the multilinear
    polynomials modulo the identities.

    A block (see _blocks) is a module for its Young subgroup S_alpha;
    the S_n-orbit of its decorations gives the multinomial(alpha)
    blocks of that composition, whose sum is the module induced from
    the block.  So each block's character from _block_cocharacter is
    induced to S_n by the Littlewood-Richardson rule, which for
    alpha = (n) is the identity.
    """
    config = config or RunConfig()
    check_budget(bench, flavor, n, config)
    c_n = 0
    multiplicities = {}
    for weight, dim, chars in _block_characters(bench, flavor, n,
                                                config.verify):
        c_n += weight * dim
        for shapes, m in chars.items():
            for lam, c in induced_product(shapes).items():
                multiplicities[lam] = multiplicities.get(lam, 0) + m * c

    total_dim = sum(m * hook_dim(lam)
                    for lam, m in multiplicities.items())
    if total_dim != c_n:
        raise ArithmeticError(
            f"multiplicities sum to dimension {total_dim}, "
            f"codimension is {c_n}")
    return CocharacterReport(bench.name, flavor, n, multiplicities, c_n)


def colength(bench: Workbench, flavor: str, n: int,
             config: RunConfig | None = None) -> int:
    return cocharacter(bench, flavor, n, config).colength
