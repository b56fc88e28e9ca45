"""Partitions, hook lengths, symmetric group characters, and
Littlewood-Richardson coefficients.

Partitions are weakly decreasing tuples of positive ints.  Characters
come from the Murnaghan-Nakayama border-strip recursion, which is
integer-exact and comfortably fast at the degrees used here (n <= 9 or
so).  LR coefficients enumerate lattice-word skew tableaux directly;
iterated, they induce characters from Young subgroups.  Kostka numbers
peel horizontal strips off the shape, one letter of the content at a
time.
"""
from __future__ import annotations

from functools import cache
from math import factorial


def partitions(n: int):
    """All partitions of n, generated in reverse lexicographic order
    starting from (n,)."""
    if n == 0:
        yield ()
        return

    def rec(remaining, maxpart, prefix):
        if remaining == 0:
            yield tuple(prefix)
            return
        for part in range(min(maxpart, remaining), 0, -1):
            prefix.append(part)
            yield from rec(remaining - part, part, prefix)
            prefix.pop()

    yield from rec(n, n, [])


def compositions(n: int, parts: int):
    """All tuples of `parts` non-negative ints summing to n, in
    lexicographic order."""
    if parts == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in compositions(n - first, parts - 1):
            yield (first,) + rest


def is_partition(shape) -> bool:
    return all(a >= b for a, b in zip(shape, shape[1:])) and all(
        x > 0 for x in shape)


def conjugate(shape: tuple) -> tuple:
    if not shape:
        return ()
    return tuple(sum(1 for part in shape if part > c)
                 for c in range(shape[0]))


def hook_lengths(shape: tuple) -> list:
    """Hook length of each cell, as a list of rows."""
    conj = conjugate(shape)
    return [[(row_len - c) + (conj[c] - r) - 1
             for c in range(row_len)]
            for r, row_len in enumerate(shape)]


@cache
def hook_dim(shape: tuple) -> int:
    """Dimension of the irreducible S_n module for this shape."""
    n = sum(shape)
    prod = 1
    for row in hook_lengths(shape):
        for h in row:
            prod *= h
    return factorial(n) // prod


def cycle_type_class_size(mu: tuple) -> int:
    """Number of permutations with cycle type mu, n! / prod i^m_i m_i!."""
    n = sum(mu)
    counts = {}
    for part in mu:
        counts[part] = counts.get(part, 0) + 1
    denom = 1
    for part, m in counts.items():
        denom *= part ** m * factorial(m)
    return factorial(n) // denom


def perm_of_cycle_type(mu: tuple) -> tuple:
    """A canonical permutation with the given cycle type, as a 1-based
    image tuple: consecutive index blocks cycled forward."""
    n = sum(mu)
    perm = list(range(1, n + 1))
    start = 0
    for part in mu:
        for i in range(part):
            perm[start + i] = start + 1 + ((i + 1) % part)
        start += part
    return tuple(perm)


def _border_strips(shape: tuple, length: int):
    """All single border strips of the given length, via beta numbers.

    Beta numbers are the strictly decreasing first-column hook lengths
    beta_i = shape_i + rows - 1 - i.  Removing a strip of a given
    length means lowering one beta number by that amount into a vacant
    value; the strip height is the count of beta numbers jumped over.
    Yields (smaller shape, height).
    """
    rows = len(shape)
    beta = [shape[i] + rows - 1 - i for i in range(rows)]
    occupied = set(beta)
    for i, b in enumerate(beta):
        target = b - length
        if target < 0 or target in occupied:
            continue
        height = sum(1 for other in beta if target < other < b)
        new_beta = sorted((x for x in beta if x != b), reverse=True)
        new_beta.append(target)
        new_beta.sort(reverse=True)
        smaller = tuple(new_beta[j] - (rows - 1 - j) for j in range(rows))
        yield tuple(x for x in smaller if x > 0), height


@cache
def mn_character(shape: tuple, mu: tuple) -> int:
    """Character chi_shape at cycle type mu via border strips."""
    if sum(shape) != sum(mu):
        raise ValueError("size mismatch")
    if not shape:
        return 1
    part = mu[0]
    rest = mu[1:]
    total = 0
    for smaller, height in _border_strips(shape, part):
        total += (-1) ** height * mn_character(smaller, rest)
    return total


def character_table(n: int):
    """{shape: {mu: chi}} over all partitions of n."""
    shapes = list(partitions(n))
    return {shape: {mu: mn_character(shape, mu) for mu in shapes}
            for shape in shapes}


# -- Kostka numbers --------------------------------------------------


def _horizontal_strips(shape: tuple, size: int):
    """The shapes nu inside shape with shape/nu a horizontal strip of
    the given size: shape[i+1] <= nu[i] <= shape[i] for every row."""
    rows = len(shape)

    def rec(i, left, prefix):
        if i == rows:
            if not left:
                yield tuple(p for p in prefix if p)
            return
        floor = shape[i + 1] if i + 1 < rows else 0
        for part in range(shape[i], max(floor, shape[i] - left) - 1, -1):
            prefix.append(part)
            yield from rec(i + 1, left - (shape[i] - part), prefix)
            prefix.pop()

    yield from rec(0, size, [])


@cache
def kostka(shape: tuple, content: tuple) -> int:
    """Number of semistandard tableaux of the given shape and content,
    which may be any composition.  The entries equal to the last
    letter fill a horizontal strip; remove it and recurse."""
    if sum(shape) != sum(content):
        return 0
    if not content:
        return 1
    rest = content[:-1]
    return sum(kostka(inner, rest)
               for inner in _horizontal_strips(shape, content[-1]))


# -- Littlewood-Richardson -------------------------------------------


def contains_shape(outer: tuple, inner: tuple) -> bool:
    if len(inner) > len(outer):
        return False
    return all(outer[i] >= inner[i] for i in range(len(inner)))


def littlewood_richardson(lam: tuple, mu: tuple, nu: tuple) -> int:
    """Multiplicity of chi_nu in the induced product chi_lam * chi_mu.

    Counts semistandard skew tableaux of shape nu/lam and content mu
    whose reverse reading word is a lattice word.  Cells are filled in
    reverse reading order (each row right to left, top row first) so
    the lattice condition can be enforced one prefix at a time and the
    right and upper neighbors are already placed when a cell is tried.
    """
    if sum(lam) + sum(mu) != sum(nu):
        return 0
    if not contains_shape(nu, lam):
        return 0
    rows = len(nu)
    lam_padded = tuple(lam) + (0,) * (rows - len(lam))
    cells = []
    for r in range(rows):
        for c in range(nu[r] - 1, lam_padded[r] - 1, -1):
            cells.append((r, c))
    counts = [0] * (len(mu) + 1)
    grid = {}

    def ok(r, c, v):
        if counts[v] >= mu[v - 1]:
            return False
        right = grid.get((r, c + 1))
        if right is not None and v > right:
            return False
        if r > 0 and lam_padded[r - 1] <= c < nu[r - 1]:
            # the cell above is a skew cell and already placed
            if grid[(r - 1, c)] >= v:
                return False
        if v > 1 and counts[v] + 1 > counts[v - 1]:
            return False
        return True

    total = 0

    def rec(idx):
        nonlocal total
        if idx == len(cells):
            total += 1
            return
        r, c = cells[idx]
        for v in range(1, len(mu) + 1):
            if ok(r, c, v):
                grid[(r, c)] = v
                counts[v] += 1
                rec(idx + 1)
                counts[v] -= 1
                del grid[(r, c)]

    rec(0)
    return total


@cache
def induced_product(shapes: tuple) -> dict:
    """{nu: multiplicity} of the outer product chi_shapes[0] x
    chi_shapes[1] x ..., induced from the Young subgroup
    S_|shapes[0]| x S_|shapes[1]| x ... to the full symmetric group,
    by iterated Littlewood-Richardson rule.  Empty shapes are the
    trivial factors S_0."""
    out, size = {(): 1}, 0
    for shape in shapes:
        if not shape:
            continue
        size += sum(shape)
        nxt = {}
        for lam, m in out.items():
            for nu in partitions(size):
                c = littlewood_richardson(lam, shape, nu)
                if c:
                    nxt[nu] = nxt.get(nu, 0) + m * c
        out = nxt
    return out
