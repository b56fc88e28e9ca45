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

Let V(nu) be the span of the left-normed words of content nu.  A word
of length >= 2 is [w, X_r] for a word w of content nu - e_r, and the
bracket is linear, so V(nu) = sum over r with nu_r > 0 of
[V(nu - e_r), X_r], of which only the pivots of V(nu - e_r) are
bracketed, from V(e_r) = span(X_r).  V(nu) depends on nu alone, so a
run over n_min..n_max builds one lattice, with min(dim L_g, n_max)
letters of each type g, each of exponent at most n_max, for the union
of the components of every block and every n.  It is built level by
level, |nu| = 1, ..., n_max, over the down-closure of that union, and
each level is dropped once the next is built.  A column is a pair
(xi-monomial, output coordinate), coded as one integer.

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
coefficients on 1, zeta, ..., and V(e_r) is spanned by every
zeta^j X_r: the bracket is K-linear, so the rational span of the rows
is the K-span of the words realified, of dimension phi(m) D_mu
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
from .scalar import realifier
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


def _blocks(bench: Workbench, flavor: str, *ns: int):
    """(evaluator, blocks) for every n in ns; a block is (decorations
    per variable, Young subgroup parts, weight), its n is sum(parts),
    and c_n is the sum of weight times dimension over the blocks of n."""
    ev = _Evaluator(bench, flavor)
    if flavor == "g_action":
        dual = _dual_grading(bench)
        if dual is None:
            return ev, [(product(range(ev.group_order), repeat=n), (n,), 1)
                        for n in ns]
        ev = _Evaluator(dual, "graded")
    return ev, [([tuple(g for g, k in enumerate(alpha) for _ in range(k))],
                 alpha, factorial(n) // prod(factorial(k) for k in alpha))
                for n in ns for alpha in compositions(n, ev.group_order)]


# -- weight-space engine ---------------------------------------------


def _letter_data(ev: _Evaluator):
    """(deg, data): per decoration g, (leaves, steps) of the letter
    X = sum_p xi_p leaf_p over the options of g, as integer (p, out, c)
    terms over Q.

    Over the field Q(zeta) a vector sum_k a_k e_k has deg rational
    coordinates per k: coordinate out = k deg + t is the coefficient
    of zeta^t in a_k.  leaves[j] holds the terms of zeta^j X and
    steps[k deg + j] those of [zeta^j e_k, X]; deg comes from
    scalar.realifier.  The leaves are multiplied by one common
    denominator and the brackets by another, which multiplies every
    row by a nonzero constant."""
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
    deg, realify = realifier(field, [
        c for leaf, steps in data.values()
        for terms in (leaf, *steps) for _, _, c in terms])

    def ints(terms, den):
        # the terms of zeta^j times terms, for each j < deg
        mults = [(p, k, realify(c, den)) for p, k, c in terms]
        return [[(p, k * deg + t, v) for p, k, m in mults for t, v in m[j]]
                for j in range(deg)]

    leaf_den = lcm(*(c.den for leaf, _ in data.values()
                     for _, _, c in leaf))
    step_den = lcm(*(c.den for _, steps in data.values()
                     for terms in steps for _, _, c in terms))
    return deg, {g: (ints(leaf, leaf_den),
                     [w for terms in steps for w in ints(terms, step_den)])
                 for g, (leaf, steps) in data.items()}


def _lattice_ranks(ev: _Evaluator, letters, types, targets,
                   verify: bool) -> dict:
    """{mus: D_mus} for the targets of a whole run, by the recursion of
    the module docstring: mus[t] is a partition with one part per
    letter of type t, whose letters carry the decorations types[t], and
    letters is the (deg, data) of _letter_data.  With N the largest
    target size, the run has min(dim L_t, N) letters of each type t,
    each capped at N, and nu is mus padded with zeros to them.  V(e_r)
    is spanned by the starts zeta^j rho(g) X_r, the pivots of
    V(nu - e_r) are bracketed through letter r's tables, and
    D_mus = dim V(nu) / deg.

    A column key is code * dim deg + out, where code holds the
    exponent of xi_(r, p), at most N, as one digit of a mixed-radix
    number: bracketing with a letter adds its place value to every
    key, so one table per letter and decoration maps key to key."""
    deg, data = letters
    width = ev.dim * deg
    cap = max((sum(map(sum, mus)) for mus in targets), default=0)
    starts, tables, slots = [], [], []
    place = width
    for decorations in types:
        xis = len(ev._options[decorations[0]])
        slots.append(min(xis, cap))
        for _ in range(slots[-1]):
            places = [place * (cap + 1) ** p for p in range(xis)]
            place *= (cap + 1) ** xis
            starts.append([{places[p] + out: c for p, out, c in leaf}
                           for g in decorations for leaf in data[g][0]])
            tables.append([[[(places[p] + out - k, c)
                             for p, out, c in terms]
                            for k, terms in enumerate(data[g][1])]
                           for g in decorations])
    tops = {mus: sum((mu + (0,) * (k - len(mu))
                      for mu, k in zip(mus, slots)), ())
            for mus in targets}
    levels = [{top for top in tops.values() if sum(top) == size}
              for size in range(cap + 1)]
    for size in range(cap, 1, -1):
        levels[size - 1] |= {nu[:r] + (c - 1,) + nu[r + 1:]
                             for nu in levels[size]
                             for r, c in enumerate(nu) if c}

    def rows(nu, below):
        for r, c in enumerate(nu):
            pivots = below[nu[:r] + (c - 1,) + nu[r + 1:]].pivots if c else {}
            for value, table in product(pivots.values(), tables[r]):
                new = {}
                get = new.get
                for key, x in value.items():
                    for shift, s in table[key % width]:
                        nk = key + shift
                        new[nk] = get(nk, 0) + x * s
                if 0 in new.values():
                    new = {nk: v for nk, v in new.items() if v}
                if new:
                    yield new

    ranks, lattice = {}, {}
    for level in levels[1:]:
        below, lattice = lattice, {}
        for nu in sorted(level):
            space = lattice[nu] = IntRowSpace()
            offered = (starts[nu.index(1)] if sum(nu) == 1 else
                       list(rows(nu, below)) if verify else rows(nu, below))
            for row in offered:
                space.add(row)
            if verify:
                _cross_check_rank(offered, space.rank)
            ranks[nu] = space.rank
    if any(rank % deg for rank in ranks.values()):
        raise ArithmeticError(
            f"a rank over Q is not a multiple of the field degree {deg}")
    return {mus: ranks[top] // deg for mus, top in tops.items()}


def _block_cocharacter(targets, ranks: dict) -> dict:
    """{(lambda^0, lambda^1, ...): multiplicity} of one block as a
    module for its Young subgroup S_parts, from the ranks D_mus of its
    targets.

    The targets mus run over the tuples of partitions mu^g of parts[g]
    with at most dim L_g parts, in decreasing lexicographic order, and
    m_mus = D_mus - sum of prod_g K(lambda^g, mu^g) m_lambda over the
    lambda solved before.  Every lambda^g dominating mu^g precedes mu,
    so this is the unitriangular solve; a negative value means an
    inconsistent rank and raises."""
    solved = {}
    for mus in targets:
        m = ranks[mus] - sum(
            mult * prod(kostka(lam, mu) for lam, mu in zip(lams, mus))
            for lams, mult in solved.items())
        if m < 0:
            raise ArithmeticError(
                f"multiplicity for {mus} is {m}, expected a "
                "non-negative integer")
        if m:
            solved[mus] = m
    return solved


def _block_characters(bench: Workbench, flavor: str, n_min: int,
                      n_max: int, config: RunConfig) -> dict:
    """{n: [(weight, block dimension, block cocharacter) per block]}
    for every n from n_min to n_max, all read off one lattice."""
    if n_min < 1:
        raise ValueError("n must be at least 1")
    if n_max < n_min:
        raise ValueError("n_max must be at least n_min")
    ns = range(n_min, n_max + 1)
    for n in ns:
        check_budget(bench, flavor, n, config)
    ev, blocks = _blocks(bench, flavor, *ns)
    types = ([tuple(range(ev.group_order))] if ev.flavor == "g_action"
             else [(g,) for g in range(ev.group_order)])
    widths = [len(ev._options[decorations[0]]) for decorations in types]
    components = [list(product(*([mu for mu in partitions(size)
                                  if len(mu) <= width]
                                 for size, width in zip(parts, widths))))
                  for _, parts, _ in blocks]
    ranks = _lattice_ranks(ev, _letter_data(ev), types,
                           [mus for targets in components for mus in targets],
                           config.verify)
    out = {n: [] for n in ns}
    for (_, parts, weight), targets in zip(blocks, components):
        chars = _block_cocharacter(targets, ranks)
        dim = sum(m * prod(hook_dim(lam) for lam in shapes)
                  for shapes, m in chars.items())
        out[sum(parts)].append((weight, dim, chars))
    return out


def codimension(bench: Workbench, flavor: str, n: int,
                config: RunConfig | None = None) -> int:
    """Weighted sum of the block dimensions, each read off the ranks
    of the block's weight components."""
    return empirical_exponent(bench, flavor, n, config, n_min=n).points[0][1]


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
    points = []
    for n, blocks in _block_characters(bench, flavor, n_min, n_max,
                                       config or RunConfig()).items():
        c = sum(weight * dim for weight, dim, _ in blocks)
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
    """Exhaustive basis-substitution check, valid by multilinearity,
    refused when substitutions x brackets x dim^3 exceeds the budget."""
    if not poly:
        return IdentityReport(True, None)
    ev = _Evaluator(bench, flavor)
    variables = _poly_variables(poly)
    decorations = {}
    for key in poly:
        _tree_decorations(key, decorations)

    # {index j: leaf value} per decoration; ordinary slots ignore theirs
    L = bench.algebra
    slots = {g: dict(ev._options[0 if flavor == "ordinary" else g])
             for gs in decorations.values() for g in gs}
    allowed = {v: sorted(set.intersection(*(set(slots[g])
                                            for g in decorations[v])))
               for v in variables}
    budget = (config or RunConfig()).budget
    cost = (prod(map(len, allowed.values())) * len(poly)
            * (len(variables) - 1) * L.dim ** 3)
    if cost > budget:
        raise Refusal(
            "budget", f"identity check needs ~{cost} scalar "
            f"multiplications, budget is {budget}",
            cost=cost, budget=budget, flavor=flavor)

    def evaluate(key, sub):
        if key[0] == "v":
            return slots[key[2]][sub[key[1]]]
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


def cocharacters(bench: Workbench, flavor: str, n_min: int, n_max: int,
                 config: RunConfig | None = None) -> list:
    """The CocharacterReport of every n from n_min to n_max:
    multiplicities of the S_n-character of the multilinear polynomials
    modulo the identities.

    A block (see _blocks) is a module for its Young subgroup S_alpha;
    the S_n-orbit of its decorations gives the multinomial(alpha)
    blocks of that composition, whose sum is the module induced from
    the block.  So each block's character from _block_cocharacter is
    induced to S_n by the Littlewood-Richardson rule, which for
    alpha = (n) is the identity.
    """
    reports = []
    for n, blocks in _block_characters(bench, flavor, n_min, n_max,
                                       config or RunConfig()).items():
        c_n, multiplicities = 0, {}
        for weight, dim, chars in blocks:
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
        reports.append(CocharacterReport(bench.name, flavor, n,
                                         multiplicities, c_n))
    return reports


def cocharacter(bench: Workbench, flavor: str, n: int,
                config: RunConfig | None = None) -> CocharacterReport:
    """The report of cocharacters for the one-element range n..n."""
    return cocharacters(bench, flavor, n, n, config)[0]


def colength(bench: Workbench, flavor: str, n: int,
             config: RunConfig | None = None) -> int:
    return cocharacter(bench, flavor, n, config).colength
