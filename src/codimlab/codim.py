"""Codimension sequences, cocharacters, and identity checking.

Multilinear polynomials are treated as n-linear maps into the algebra:
the evaluation vector of a monomial records, for every tuple of basis
substitutions and every output coordinate, one Scalar.  A codimension
is the rank of the span of these vectors, which avoids quotient
constructions entirely.

The multilinear Lie polynomials of degree n are spanned by the (n-1)!
left-normed monomials [x_1, x_s(2), ..., x_s(n)], and this stays true
with a fixed decoration on every variable.  Each row is the "base row"
of the decorations in slot order (the identity permutation), computed
once per slot pattern and moved to its x_1-first order, since
permuting variables only permutes substitution tuples.

The decorated flavours run on blocks.  In the graded flavour, rows
whose variable-to-degree maps differ have disjoint column supports, so
c_n is the sum over the compositions alpha of n into |G| parts of
multinomial(alpha) times the rank of the block whose variables carry
the degrees (0^alpha_0, 1^alpha_1, ...).  That block is a module for
the Young subgroup S_alpha, and its cocharacter is induced to S_n by
the Littlewood-Richardson rule.  A G-action of a finite abelian group,
over a field holding the roots of unity its characters take, is first
rewritten as the graded flavour of the dual grading (its joint
eigenspaces), which has the same codimensions and cocharacters.  The
ordinary flavour is the one block alpha = (n); any other G-action is
one block holding all |G|^n decoration tuples, under the whole of S_n.

Rank is taken by sparse elimination: fraction-free with gcd stripping
over the rationals, normalized pivots over cyclotomic fields.  Rational
cocharacter traces are computed modulo a prime that makes the residue
determine the integer.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from math import factorial, gcd, prod
from operator import mul

from .config import Refusal, RunConfig
from .fixtures import Workbench
from .free_polys import LeftNormedMonomial, tree_variables
from .linalg import modular_rank
from .partitions import (compositions, cycle_type_class_size, hook_dim,
                         induced_product, mn_character, partitions,
                         perm_of_cycle_type)
from .scalar import primitive_integer_row
from .symmetry import Grading, action_to_grading, primitive_root_in

FLAVORS = ("ordinary", "graded", "g_action")

# primes for the optional rank cross-check and for rational
# cocharacter traces, fixed for reproducibility
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


def _inverse(perm: tuple) -> tuple:
    inv = [0] * len(perm)
    for t, v in enumerate(perm):
        inv[v - 1] = t + 1
    return tuple(inv)


def _decoded(row: dict, dim: int, n: int) -> list:
    """(digits, k, value) per entry of a row: the n substitution digits
    i_1..i_n and the output coordinate k of its flat key."""
    out = []
    for key, c in row.items():
        rest, k = divmod(key, dim)
        digits = [0] * n
        for t in range(n - 1, -1, -1):
            rest, digits[t] = divmod(rest, dim)
        out.append((digits, k, c))
    return out


def _place_values(perm: tuple, dim: int) -> tuple:
    """places[t]: what substitution digit t of a key is worth after
    the key moves under perm, so the moved key is k + sum of
    digit * place.  Digit perm[j] - 1 becomes digit j."""
    n = len(perm)
    places = [0] * n
    for j, src in enumerate(perm):
        places[src - 1] = dim ** (n - j)
    return tuple(places)


def _moved(decoded: list, places: tuple) -> dict:
    return {k + sum(map(mul, digits, places)): c
            for digits, k, c in decoded}


def _permute_columns(row: dict, perm: tuple, dim: int, n: int) -> dict:
    """(perm . row)[(c_1..c_n;k)] = row[(c_perm(1)..c_perm(n);k)].

    Applied to the base row of a decoration tuple with the inverse of a
    variable order, it gives the row of that order's monomial:
    substitution digits move so that position t feeds variable
    order[t].  A row moved by many permutations is decoded once with
    _decoded and moved by each one's _place_values."""
    return _moved(_decoded(row, dim, n), _place_values(perm, dim))


class _Evaluator:
    """Produces evaluation rows for one workbench and flavor.

    A row is a dict from flat column keys to Scalars.  The flat key of
    (substitution tuple i_1..i_n, output coordinate k) is the base-dim
    integer with digits i_1, ..., i_n, k.
    """

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

    def base_row(self, gelts: tuple) -> dict:
        """Evaluation row of the identity-permutation monomial with the
        given decorations, pruned where partial brackets vanish."""
        L, dim, n = self.algebra, self.dim, len(gelts)
        slots = [self._options[g] for g in gelts]
        out = {}

        def rec(t, prefix, w):
            if t == n:
                base = prefix * dim
                for k, c in w.items():
                    out[base + k] = c
                return
            for j, vec in slots[t]:
                if t == 0:
                    w2 = vec
                else:
                    w2 = L.bracket_sparse(w, vec)
                    if not w2:
                        continue
                rec(t + 1, prefix * dim + j, w2)

        rec(0, 0, {})
        return out

    def row(self, mono: LeftNormedMonomial) -> dict:
        if self.flavor != "ordinary" and any(
                g >= self.group_order for g in mono.gelts):
            raise ValueError("decoration outside the group")
        if self.flavor == "ordinary" and any(g != 0 for g in mono.gelts):
            raise ValueError("ordinary flavor takes undecorated monomials")
        n = len(mono.vars)
        return _permute_columns(self.base_row(mono.gelts),
                                _inverse(mono.vars), self.dim, n)

    def rows(self, n: int, decorations):
        """Spanning rows of a block: for each decoration per variable d
        (d[v-1] decorates x_v) and each of the (n-1)! x_1-first orders,
        the row of that left-normed monomial.  Its base row is the one
        of the decorations in slot order, computed once per slot
        pattern; moving it by the inverse order carries each variable's
        decoration along with its substitution digit.  The x_1-first
        monomials span every multilinear monomial with the same
        decorations, so these rows span the block's image."""
        orders = [((1,) + rest,
                   _place_values(_inverse((1,) + rest), self.dim))
                  for rest in permutations(range(2, n + 1))]
        bases = {}
        for d in decorations:
            for order, places in orders:
                gelts = tuple(d[v - 1] for v in order)
                base = bases.get(gelts)
                if base is None:
                    base = bases[gelts] = _decoded(self.base_row(gelts),
                                                   self.dim, n)
                if base:
                    yield _moved(base, places)


def evaluation_vector(bench: Workbench, flavor: str,
                      mono: LeftNormedMonomial) -> dict:
    """Sparse coordinates of the monomial's n-linear map, keyed by the
    flat (substitution tuple, output coordinate) index."""
    return _Evaluator(bench, flavor).row(mono)


# -- rank engines ----------------------------------------------------


class IntRowSpace:
    """Row space over the rationals, pivots kept as gcd-stripped
    integer rows with distinct leading keys."""

    def __init__(self):
        self.pivots = {}
        self.order = []

    @property
    def rank(self):
        return len(self.pivots)

    @staticmethod
    def from_scalar_row(row: dict) -> dict:
        return dict(zip(row, primitive_integer_row(row.values())))

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
                self.order.append(k)
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
    coefficient one."""

    def __init__(self, field):
        self.field = field
        self.pivots = {}
        self.order = []

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
                self.order.append(k)
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


def _block_space(ev: _Evaluator, n: int, decorations,
                 keep_rows: bool = False):
    """(row space, offered integer rows) of one block; the rows are
    kept only for keep_rows on a rational field, and are None
    otherwise."""
    rational = ev.field.degree == 1
    space = IntRowSpace() if rational else ScalarRowSpace(ev.field)
    int_rows = [] if rational and keep_rows else None
    for row in ev.rows(n, decorations):
        if rational:
            row = IntRowSpace.from_scalar_row(row)
            if int_rows is not None:
                int_rows.append(row)
        space.add(row)
    return space, int_rows


def _row_space(bench: Workbench, flavor: str, n: int,
               keep_rows: bool = False):
    """(evaluator, row space, offered integer rows) of all |G|^n
    decoration tuples at once: the one block of a G-action that cannot
    be dualised, and the whole-image oracle for every flavour."""
    ev = _Evaluator(bench, flavor)
    everything = product(range(ev.group_order), repeat=n)
    return (ev,) + _block_space(ev, n, everything, keep_rows)


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
    rank over the blocks."""
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


def codimension(bench: Workbench, flavor: str, n: int,
                config: RunConfig | None = None) -> int:
    """Weighted sum of the block ranks of the spanning-set evaluation
    matrix."""
    if n < 1:
        raise ValueError("n must be at least 1")
    config = config or RunConfig()
    check_budget(bench, flavor, n, config)
    ev, blocks = _blocks(bench, flavor, n)
    total = 0
    for decorations, _, weight in blocks:
        space, int_rows = _block_space(ev, n, decorations,
                                       keep_rows=config.verify)
        if int_rows is not None:
            _cross_check_rank(int_rows, space.rank)
        total += weight * space.rank
    return total


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


def _trace_prime(leads, rank: int) -> int:
    """First of _CHECK_PRIMES above 2 rank that divides no pivot
    lead."""
    for p in _CHECK_PRIMES:
        if p > 2 * rank and all(lead % p for lead in leads):
            return p
    raise ArithmeticError(
        f"no trace prime: each of {_CHECK_PRIMES} is at most "
        f"2 rank = {2 * rank} or divides a pivot lead")


def _block_character(ev: _Evaluator, space, parts: tuple,
                     n: int) -> dict:
    """{(lambda^0, lambda^1, ...): multiplicity} of one block's image
    as a module for the Young subgroup with the given parts.

    For one representative of each class the trace on the block is
    read off in the pivot basis, and the multiplicities come out by
    character orthogonality.  Values must be non-negative integers
    whose dimensions add up to the block's rank; anything else raises.

    Over the rationals the traces are taken modulo a prime from
    _trace_prime.  A permutation has finite order on the block, so its
    trace is an integer of absolute value at most the rank, and the
    symmetric residue mod p > 2 rank is that integer.
    """
    rank, dim = space.rank, ev.dim
    rational = ev.field.degree == 1
    basis = [(lead, space.pivots[lead]) for lead in space.order]
    if rational:
        p = _trace_prime([row[lead] for lead, row in basis], rank)
    # tuples of partitions, one per part, index both the classes and
    # the irreducible characters of the Young subgroup
    tuples = list(product(*(tuple(partitions(k)) for k in parts)))

    decoded = [(lead, _decoded(row, dim, n)) for lead, row in basis]
    traces = {}
    for mus in tuples:
        # the parts' canonical cycles side by side, on consecutive
        # blocks of variables: a representative of the class in S_alpha
        places = _place_values(perm_of_cycle_type(sum(mus, ())), dim)
        total = 0 if rational else ev.field.zero()
        for lead, row in decoded:
            moved = _moved(row, places)
            coords = (space.coordinates(moved, p) if rational
                      else space.coordinates(moved))
            if coords is None:
                raise ArithmeticError(
                    "evaluation image is not stable under slot "
                    "permutation; this indicates a bug")
            diag = coords.get(lead)
            if diag:
                total = total + diag
        if rational:
            total %= p
            if total > p // 2:
                total -= p
        traces[mus] = total

    multiplicities = {}
    order = prod(factorial(k) for k in parts)
    for shapes in tuples:
        acc = 0 if rational else ev.field.zero()
        for mus, tr in traces.items():
            weight = prod(cycle_type_class_size(mu) * mn_character(lam, mu)
                          for lam, mu in zip(shapes, mus))
            if weight:
                acc = acc + tr * weight
        if rational:
            value = Fraction(acc, order)
        else:
            rat = (acc / ev.field.from_rational(order)).as_rational()
            if rat is None:
                raise ArithmeticError(
                    f"non-rational multiplicity for {shapes}: {acc}")
            value = rat
        if value.denominator != 1 or value < 0:
            raise ArithmeticError(
                f"multiplicity for {shapes} is {value}, expected a "
                "non-negative integer")
        if value:
            multiplicities[shapes] = int(value)

    block_dim = sum(m * prod(hook_dim(lam) for lam in shapes)
                    for shapes, m in multiplicities.items())
    if block_dim != rank:
        raise ArithmeticError(
            f"block multiplicities sum to dimension {block_dim}, "
            f"its rank is {rank}")
    return multiplicities


def cocharacter(bench: Workbench, flavor: str, n: int,
                config: RunConfig | None = None) -> CocharacterReport:
    """Multiplicities of the S_n-character of the evaluation image.

    The image of the spanning monomials is S_n-stable because
    permuting tensor slots of a monomial's map gives the map of the
    composed monomial.  A block (see _blocks) is stable under its Young
    subgroup S_alpha; the S_n-orbit of its decorations gives the
    multinomial(alpha) blocks of that composition, whose sum is the
    module induced from the block.  So each block's character from
    _block_character is induced to S_n by the Littlewood-Richardson
    rule, which for alpha = (n) is the identity.
    """
    config = config or RunConfig()
    check_budget(bench, flavor, n, config)
    ev, blocks = _blocks(bench, flavor, n)
    c_n = 0
    multiplicities = {}
    for decorations, parts, weight in blocks:
        space, _ = _block_space(ev, n, decorations)
        if not space.rank:
            continue
        c_n += weight * space.rank
        for shapes, m in _block_character(ev, space, parts, n).items():
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
