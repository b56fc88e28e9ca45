"""The multilinear block engine, kept as a differential oracle.

Multilinear polynomials are treated as n-linear maps into the algebra:
the evaluation row of a monomial records, for every tuple of basis
substitutions and every output coordinate, one Scalar.  A block's rank
is the rank of the rows of its (n-1)! x_1-first left-normed monomials,
and its character under the Young subgroup comes from traces read off
in the pivot basis and solved by character orthogonality.

This is the engine the weight-space engine in codimlab.codim replaced;
the tests compare the two.  The flat key of (substitution tuple
i_1..i_n, output coordinate k) is the base-dim integer with digits
i_1, ..., i_n, k.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from math import factorial, gcd, lcm, prod
from operator import mul

from codimlab import codim
from codimlab.codim import _CHECK_PRIMES, IntRowSpace, ScalarRowSpace
from codimlab.free_polys import leaf, node
from codimlab.partitions import (cycle_type_class_size, hook_dim,
                                 mn_character, partitions)
from helpers import perm_of_cycle_type


@dataclass(frozen=True)
class LeftNormedMonomial:
    """[x_{vars[0]}^{g_0}, x_{vars[1]}^{g_1}, ...] normalized left."""

    vars: tuple
    gelts: tuple

    def __post_init__(self):
        if len(self.vars) != len(self.gelts):
            raise ValueError("decoration length mismatch")

    def to_tree(self):
        cur = leaf(self.vars[0], self.gelts[0])
        for v, g in zip(self.vars[1:], self.gelts[1:]):
            cur = node(cur, leaf(v, g))
        return cur


def primitive_integer_row(values) -> list[int]:
    """Scalars of a degree-1 field scaled to the primitive integer
    vector on their line: times the lcm of the denominators, then over
    the gcd of the results.  All zeros stay zeros."""
    scale = lcm(*(v.den for v in values))
    ints = [v.num[0] * (scale // v.den) for v in values]
    g = gcd(*ints)
    return [c // g for c in ints] if g > 1 else ints


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
    order[t]."""
    return _moved(_decoded(row, dim, n), _place_values(perm, dim))


class _Evaluator:
    """Evaluation rows of multilinear monomials over an algebra and the
    letter options of codim._letter_options, as dicts from flat column
    keys to Scalars."""

    def __init__(self, algebra, options: dict):
        self.algebra = algebra
        self.field = algebra.field
        self.dim = algebra.dim
        self.options = options

    @classmethod
    def of(cls, bench, flavor: str):
        return cls(bench.algebra, codim._letter_options(bench, flavor))

    def base_row(self, gelts: tuple) -> dict:
        """Evaluation row of the identity-permutation monomial with the
        given decorations, pruned where partial brackets vanish."""
        L, dim, n = self.algebra, self.dim, len(gelts)
        slots = [self.options[g] for g in gelts]
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
        """The row of one monomial; a decoration without options (any
        but 0 in the ordinary flavour) is refused."""
        if any(g not in self.options for g in mono.gelts):
            raise ValueError("decoration without letter options")
        n = len(mono.vars)
        return _permute_columns(self.base_row(mono.gelts),
                                _inverse(mono.vars), self.dim, n)

    def rows(self, n: int, decorations):
        """Spanning rows of a block: for each decoration per variable d
        (d[v-1] decorates x_v) and each of the (n-1)! x_1-first orders,
        the row of that left-normed monomial.  Its base row is the one
        of the decorations in slot order, computed once per slot
        pattern and moved by the inverse order."""
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


def evaluation_vector(bench, flavor: str, mono: LeftNormedMonomial) -> dict:
    """Sparse coordinates of the monomial's n-linear map, keyed by the
    flat (substitution tuple, output coordinate) index."""
    return _Evaluator.of(bench, flavor).row(mono)


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
            row = dict(zip(row, primitive_integer_row(row.values())))
            if int_rows is not None:
                int_rows.append(row)
        space.add(row)
    return space, int_rows


def _row_space(bench, flavor: str, n: int, keep_rows: bool = False):
    """(evaluator, row space, offered integer rows) of all |G|^n
    decoration tuples at once, under the whole of S_n."""
    ev = _Evaluator.of(bench, flavor)
    everything = product(ev.options, repeat=n)
    return (ev,) + _block_space(ev, n, everything, keep_rows)


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
    character orthogonality.  Over the rationals the traces are taken
    modulo a prime from _trace_prime: a permutation has finite order on
    the block, so its trace is an integer of absolute value at most the
    rank, and the symmetric residue mod p > 2 rank is that integer.
    """
    rank, dim = space.rank, ev.dim
    rational = ev.field.degree == 1
    basis = list(space.pivots.items())
    if rational:
        p = _trace_prime([row[lead] for lead, row in basis], rank)
    tuples = list(product(*(tuple(partitions(k)) for k in parts)))

    decoded = [(lead, _decoded(row, dim, n)) for lead, row in basis]
    traces = {}
    for mus in tuples:
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


def _block_decorations(types, parts):
    """The decorations per variable of a block of codim._blocks: the
    parts[t] variables of letter type t in turn, each carrying any
    decoration of types[t]."""
    return product(*(decorations for decorations, k in zip(types, parts)
                     for _ in range(k)))


def oracle_block_multiplicities(bench, flavor: str, n: int) -> list:
    """[(Young parts, weight, multiplicities)] per block of
    codim._blocks, each block eliminated from its multilinear rows and
    traced under its Young subgroup."""
    algebra, options, types, blocks = codim._blocks(bench, flavor, n)
    ev = _Evaluator(algebra, options)
    out = []
    for parts, weight in blocks:
        space, _ = _block_space(ev, n, _block_decorations(types, parts))
        chars = _block_character(ev, space, parts, n) if space.rank else {}
        out.append((parts, weight, chars))
    return out
