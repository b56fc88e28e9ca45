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

Let V(nu) be the span of the left-normed words of content nu, and a
the first letter with nu_a > 0.  The left-normed words in y_1, ...,
y_n that begin with y_1 are a basis of the multilinear part of the
free Lie algebra (Reutenauer, Free Lie Algebras, 1993); substituting
an X_a for y_1, the words that begin with X_a span V(nu).  Such a word
of length >= 2 is [w, X_r] for w of content nu - e_r beginning with
X_a, and the bracket is linear, so V(nu) = sum of [V(nu - e_r), X_r]
over r with nu_r > 0 but r = a when nu_a = 1, of which only the pivots
of V(nu - e_r) are bracketed, from V(e_r) = span(X_r).  V(nu) depends
on nu alone, so a run over n_min..n_max builds one lattice, with
min(dim L_g, n_max) letters of each type g, each of exponent at most
n_max, for the union of the components of every block and every n.
It is built level by level, |nu| = 1, ..., n_max, over the nu those
terms reach from that union, and each level is dropped once the next
is built.  A column is a pair (xi-monomial, output coordinate), coded
as one integer.

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

One letter may be sliced (Procesi's reduction to a generic diagonal
matrix): the first letter of one degree g is xi s for a fixed s in
L_g, a letter with the one option s.  Every word is equivariant under
the automorphisms that keep the flavour, the group of inner
automorphisms for the ordinary flavour and the one generated by
ad L_e for the graded one.  If K s + D s = L_g, with D = ad L or
ad L_e, the lines through the orbit of s fill a dense subset of L_g,
so a combination of words that vanishes at xi s vanishes on L_g and
no V(nu) loses rank.  That dimension is the certificate, taken on the
integer bracket table; the candidates are the options of g in basis
order, then their sum, and the slice goes to the certified degree of
largest dim L_g, first in group order, whose first letter carries the
largest part of mu^g.  Only one letter is sliced: one automorphism
carries s to a generic point of L_g, but not a second fixed vector to
a generic point of its own degree at the same time, so slicing a
letter of every degree is unsound.  A G-action that is not dualised
takes no slice.

Rank is taken by one engine on every field: IntRowSpace reduces
each sparse integer row with linalg.reduce_row, the one fraction-free
reduction step of the package (the Lie layer's RREFs use it too), and
strips the gcd of a row it keeps.  A step that clears the lead a of a
row against a pivot of lead b subtracts (a // b) times the pivot in
place when b divides a, which almost every step does, and otherwise
scales the row by b / gcd(a, b).  When every leaf and
bracket coefficient is rational the rows are rational, and a rational
row has the same rank over Q(zeta_m) (descent).  Otherwise each
coordinate over K = Q(zeta_m) splits into its phi(m) rational
coefficients on 1, zeta, ..., and V(e_r) is spanned by every
zeta^j X_r: the bracket is K-linear, so the rational span of the rows
is the K-span of the words realified, of dimension phi(m) D_mu
(realification).  The leaves are the integer rows of the options and
the step tables are read off the algebra's integer bracket table, both
at the larger of the table's degree and the options'.  The options of
one decoration share one denominator, so each row is a nonzero
multiple of the true one, which keeps every rank.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import factorial, gcd, prod

from .config import Refusal, RunConfig
from .fixtures import Workbench
from .free_polys import tree_variables
from .lie_core import LieAlgebra, _bracket_rows, _nonzero
from .linalg import Subspace, modular_rank, reduce_row, shift_product
from .partitions import (compositions, hook_dim, induced_product, kostka,
                         partitions)
from .scalar import integer_row, realified_degree, zeta_multiples
from .symmetry import action_to_grading, primitive_root_in

FLAVORS = ("ordinary", "graded", "g_action")

# primes for the optional rank cross-check, fixed for reproducibility
_CHECK_PRIMES = (4611686018427387847, 4611686018427387817)


def spanning_cost(dim: int, n: int, group_order: int) -> int:
    """Scalar-multiplication estimate used by the budget guard."""
    return dim ** (n + 1) * factorial(n) * group_order ** n


def check_budget(bench: Workbench, flavor: str, n: int,
                 config: RunConfig) -> None:
    gorder = 1 if flavor == "ordinary" else bench.group.order
    cost = spanning_cost(bench.algebra.dim, n, gorder)
    if cost <= config.budget:
        return
    feasible = 0
    for m in range(1, 65):
        if spanning_cost(bench.algebra.dim, m, gorder) <= config.budget:
            feasible = m
        else:
            break
    raise Refusal.over_budget(f"codimension at n={n}", cost, config.budget,
                              n=n, flavor=flavor, max_feasible_n=feasible)


def _letter_options(bench: Workbench, flavor: str) -> dict:
    """{g: [(j, leaf)]}: a letter decorated with g is the generic
    element sum_j xi_j leaf_j over its options, j the basis index
    substituted.  Graded, the options of degree g are the e_j of L_g;
    ordinary is graded with all of L in degree 0; under a G-action
    they are the rho(g) e_j for every j."""
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}")
    L = bench.algebra
    if flavor == "ordinary":
        return _graded_options(L, (0,) * L.dim, 1)
    if flavor == "graded":
        if bench.grading is None:
            raise ValueError(f"{bench.name} carries no grading")
        return _graded_options(L, bench.grading.labels, bench.group.order)
    if bench.action is None:
        raise ValueError(f"{bench.name} carries no group action")
    return {g: [(j, dict(_nonzero(bench.action.matrix(g).column(j))))
                for j in range(L.dim)] for g in range(bench.group.order)}


def _graded_options(algebra, labels, order: int) -> dict:
    """The options of the grading of L by labels, as _letter_options."""
    one = algebra.field.one()
    return {g: [(j, {j: one}) for j, h in enumerate(labels) if h == g]
            for g in range(order)}


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
        """Reduce an integer row (linalg.reduce_row); absorb it over its
        content if independent.  The caller's dict is kept."""
        row, k = reduce_row(self.pivots, row)
        if k is None:
            return False
        g = gcd(*row.values())
        if g > 1:
            row = {kk: v // g for kk, v in row.items()}
        self.pivots[k] = row
        return True

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


def _dual_grading(bench: Workbench):
    """(algebra, labels): L in a basis of joint eigenspaces of an
    abelian action and the character labelling each basis vector, or
    None when the group declares no invariant factors or the field
    lacks the roots of unity its characters take.

    The basis is the RREF bases of the components in character order.
    Characters are indexed like the group's elements
    (symmetry.dual_group), so [b_i, b_j] lies in the component of
    group.mul(labels[i], labels[j]) and its coordinates there are its
    entries at that component's pivots (Subspace.coordinates).
    """
    group, algebra = bench.group, bench.algebra
    if (group.abelian_orders is None or primitive_root_in(
            algebra.field, group.exponent()) is None):
        return None
    ig = action_to_grading(algebra, bench.action)
    basis, labels = ig.new_basis, ig.labels
    starts = {t: labels.index(t) for t in set(labels)}
    brackets = {}
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            t = group.mul(labels[i], labels[j])
            coords = ig.components[t].coordinates(
                algebra.bracket(basis[i], basis[j]))
            if coords is None:
                raise ArithmeticError("a bracket leaves the eigencomponent "
                                      "of its characters' product")
            entry = {starts[t] + k: c for k, c in enumerate(coords) if c}
            if entry:
                brackets[(i, j)] = entry
    names = tuple(f"u{i + 1}" for i in range(algebra.dim))
    return LieAlgebra(algebra.field, names, brackets), labels


def _blocks(bench: Workbench, flavor: str, *ns: int):
    """(algebra, options, types, blocks) for every n in ns: options
    those of _letter_options, of the dual grading when a G-action has
    one.  A letter type is the tuple of decorations its letters may
    carry: one decoration per type for a grading, every decoration in
    the one type of an undualised G-action.  A
    block is (Young subgroup parts, weight), one part per type; its n
    is sum(parts), and c_n is the sum of weight times dimension over
    the blocks of n."""
    algebra, options = bench.algebra, _letter_options(bench, flavor)
    if flavor == "g_action":
        dual = _dual_grading(bench)
        if dual is None:
            return algebra, options, [tuple(options)], [((n,), 1)
                                                        for n in ns]
        algebra, labels = dual
        options = _graded_options(algebra, labels, len(options))
    return algebra, options, [(g,) for g in options], [
        (alpha, factorial(n) // prod(factorial(k) for k in alpha))
        for n in ns for alpha in compositions(n, len(options))]


# -- weight-space engine ---------------------------------------------


def _derivations(algebra, options: dict) -> Subspace:
    """The span of the options of decoration 0 of a grading (all of L
    when ordinary, L_e when graded), whose ad are the derivations D of
    the module docstring."""
    return Subspace.from_rows(algebra.field, algebra.dim, [
        [int(j == k) for j in range(algebra.dim)] for k, _ in options[0]], 1)


def _tangent_dim(algebra, derivations: Subspace, s: dict) -> int:
    """dim (K s + D s) for s a sum of basis vectors and D the ad of
    derivations (_derivations), on integer rows through the bracket
    table."""
    line = Subspace.from_rows(algebra.field, algebra.dim,
                              [[int(j in s) for j in range(algebra.dim)]], 1)
    return line.add(algebra.bracket_subspaces(derivations, line)).dim


def _certified_slice(algebra, options: dict, types):
    """(g, s) with s the slice of the first letter of degree g, the
    first certified candidate of the certified degree of largest
    dim L_g (module docstring), or (None, None).  Letter types of more
    than one decoration, those of an undualised G-action, take none."""
    if any(len(decorations) > 1 for decorations in types):
        return None, None
    derivations = _derivations(algebra, options)
    for g in sorted(options, key=lambda g: -len(options[g])):
        vectors = [vec for _, vec in options[g]]
        total = {j: c for vec in vectors for j, c in vec.items()}
        for s in vectors + [total] * (len(vectors) > 1):
            if _tangent_dim(algebra, derivations, s) == len(vectors):
                return g, s
    return None, None


def _letter_data(algebra, options: dict, s: dict | None = None):
    """(deg, data): per decoration g, (xis, leaves, steps) of the letter
    X = sum_p xi_p leaf_p over the xis options of g (_letter_options),
    as integer (p, out, c) terms over Q, and under "slice" those of
    the letter xi s.

    Over the field Q(zeta) a vector sum_k a_k e_k has deg rational
    coordinates per k: coordinate out = k deg + t is the coefficient
    of zeta^t in a_k (scalar.integer_row).  leaves[j] holds the terms
    of zeta^j X and steps[k deg + j] those of [zeta^j e_k, X], read off
    row k deg + j of the algebra's integer bracket table at deg, the
    larger of its own degree and that of the options.  The options of
    one decoration share one denominator, which multiplies its leaves
    by a nonzero constant and its steps by that constant times the
    table's, so every row is scaled by a nonzero constant."""
    L, field = algebra, algebra.field
    options = {g: [vec for _, vec in opts] for g, opts in options.items()}
    if s is not None:
        options["slice"] = [s]
    deg = max(L._deg, realified_degree(field, [
        c for vectors in options.values() for vec in vectors
        for c in vec.values()]))
    table, width, zero = L._structure(deg), L.dim * deg, field.zero()
    data = {}
    for g, vectors in options.items():
        flat = integer_row([vec.get(k, zero) for vec in vectors
                            for k in range(L.dim)], deg)[0]
        rows = [flat[p * width:(p + 1) * width] for p in range(len(vectors))]
        mults = [zeta_multiples(field, row, deg) for row in rows]
        leaves = [[(p, out, c) for p, m in enumerate(mults)
                   for out, c in enumerate(m[j]) if c] for j in range(deg)]
        steps = [[(p, out, c) for p, row in enumerate(rows)
                  for out, c in enumerate(_bracket_rows(
                      table, [(a, 1)], _nonzero(row), width)) if c]
                 for a in range(width)]
        data[g] = (len(vectors), leaves, steps)
    return deg, data


def _lattice_ranks(dim: int, letters, types, targets,
                   verify: bool, sliced: int | None) -> dict:
    """{mus: D_mus} for the targets of a whole run, by the recursion of
    the module docstring: mus[t] is a partition with one part per
    letter of type t, whose letters carry the decorations types[t] of
    _blocks, and letters is the (deg, data) of _letter_data.  With N
    the largest target size, the run has min(dim L_t, N) letters of
    each type t, each capped at N, and nu is mus padded with zeros to
    them.  V(e_r)
    is spanned by the starts zeta^j rho(g) X_r, the pivots of
    V(nu - e_r) are bracketed through letter r's tables for the terms
    of the module docstring (every r with nu_r > 0 but the first when
    it is 1, by Reutenauer's basis), listed in kept[nu], and
    D_mus = dim V(nu) / deg.  The first letter of type sliced is the
    slice xi s of letters, with the one xi.

    A column key is code * dim deg + out, where code holds the
    exponent of xi_(r, p), at most N, as one digit of a mixed-radix
    number: bracketing with a letter adds its place value to every
    key, so one table per letter and decoration maps key to key."""
    deg, data = letters
    width = dim * deg
    cap = max((sum(map(sum, mus)) for mus in targets), default=0)
    starts, tables, slots = [], [], []
    place = width
    for t, decorations in enumerate(types):
        slots.append(min(data[decorations[0]][0], cap))
        for i in range(slots[-1]):
            keys = ("slice",) if (t, i) == (sliced, 0) else decorations
            xis = data[keys[0]][0]
            places = [place * (cap + 1) ** p for p in range(xis)]
            place *= (cap + 1) ** xis
            starts.append([{places[p] + out: c for p, out, c in leaf}
                           for g in keys for leaf in data[g][1]])
            tables.append([[[(places[p] + out - k, c)
                             for p, out, c in terms]
                            for k, terms in enumerate(data[g][2])]
                           for g in keys])
    tops = {mus: sum((mu + (0,) * (k - len(mu))
                      for mu, k in zip(mus, slots)), ())
            for mus in targets}
    levels = [{top for top in tops.values() if sum(top) == size}
              for size in range(cap + 1)]
    kept = {}
    for size in range(cap, 1, -1):
        for nu in levels[size]:
            a = next(r for r, c in enumerate(nu) if c)
            kept[nu] = [(r, nu[:r] + (c - 1,) + nu[r + 1:])
                        for r, c in enumerate(nu) if c > (r == a)]
            levels[size - 1] |= {sub for _, sub in kept[nu]}

    def rows(nu, below):
        for r, sub in kept[nu]:
            for value, table in product(below[sub].pivots.values(), tables[r]):
                new = shift_product(value, table, width)
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
    algebra, options, types, blocks = _blocks(bench, flavor, *ns)
    widths = [len(options[decorations[0]]) for decorations in types]
    components = [list(product(*([mu for mu in partitions(size)
                                  if len(mu) <= width]
                                 for size, width in zip(parts, widths))))
                  for parts, _ in blocks]
    sliced, s = _certified_slice(algebra, options, types)
    ranks = _lattice_ranks(algebra.dim, _letter_data(algebra, options, s),
                           types, [mus for targets in components
                                   for mus in targets],
                           config.verify, sliced)
    out = {n: [] for n in ns}
    for (parts, weight), targets in zip(blocks, components):
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


def nth_root_display(c: int, n: int) -> Fraction:
    """Largest t/1000 with (t/1000)^n <= c, for tables only."""
    if c < 0:
        raise ValueError("negative codimension")
    if c == 0:
        return Fraction(0)
    target = c * 1000 ** n
    lo, hi = 0, max(c * 1000, 1000)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid ** n <= target:
            lo = mid
        else:
            hi = mid - 1
    return Fraction(lo, 1000)


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
            v = next(v for v, w in zip(names, names[1:]) if v == w)
            raise ValueError("polynomial is not multilinear: "
                             f"x{v} repeats in one monomial")
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
    refused when substitutions x brackets x dim^3 exceeds the budget.
    An occurrence decorated with g takes the leaves of the options of
    g (_letter_options), ordinary ones those of 0.  A variable runs
    over the indices j of the options of one of its decorations: every
    decoration indexes all of L but a degree, and a graded variable
    has one degree."""
    if not poly:
        return IdentityReport(True, None)
    options = _letter_options(bench, flavor)
    variables = _poly_variables(poly)
    decorations = {}
    for key in poly:
        _tree_decorations(key, decorations)
    if flavor == "graded":
        for v in variables:
            if len(decorations[v]) > 1:
                degrees = ", ".join(bench.group.names[g]
                                    for g in sorted(decorations[v]))
                raise ValueError(
                    f"graded variable x{v} appears in degrees {degrees};"
                    f" a homogeneous variable has one degree")

    L = bench.algebra
    slots = {g: dict(options[0 if flavor == "ordinary" else g])
             for gs in decorations.values() for g in gs}
    allowed = [list(slots[min(decorations[v])]) for v in variables]
    budget = (config or RunConfig()).budget
    cost = (prod(map(len, allowed)) * len(poly)
            * (len(variables) - 1) * L.dim ** 3)
    if cost > budget:
        raise Refusal.over_budget("identity check", cost, budget,
                                  flavor=flavor)

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

    for choice in product(*allowed):
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
