"""Partitions, hook lengths, symmetric group characters, and
Littlewood-Richardson coefficients.

Partitions are weakly decreasing tuples of positive ints.  Characters
come from the Murnaghan-Nakayama border-strip recursion, which is
integer-exact; no command reads them, and they are kept for the
acceptance gate's character checks and the benchmark tracer's call
count.  An LR product is generated whole, each letter of the content
added as a horizontal strip that keeps the reading word a lattice
word; iterated, LR products induce characters from Young subgroups.
Kostka numbers peel horizontal strips off the shape, one letter of the
content at a time.
"""
from __future__ import annotations

from functools import cache
from math import factorial
from operator import add


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


def _lattice_strips(shape: tuple, prev, size: int):
    """Row counts a (one row past shape) of each horizontal strip of the
    given size on shape with a_0 + ... + a_r <= prev_0 + ... +
    prev_(r-1) for every r; prev None bounds nothing."""
    rows = shape + (0,)

    def rec(r, left, room, strip):
        if r == len(rows):
            if not left:
                yield strip
            return
        room += prev[r - 1] if r and prev else 0
        for a in range(min(left, room, rows[r - 1] - rows[r] if r else left)
                       + 1):
            yield from rec(r + 1, left - a, room - a, strip + (a,))

    yield from rec(0, size, size if prev is None else 0, ())


@cache
def lr_product(lam: tuple, mu: tuple) -> dict:
    """{nu: multiplicity of chi_nu in chi_lam * chi_mu}, zeros omitted:
    the number of semistandard skew tableaux of shape nu/lam and content
    mu whose reverse reading word (rows right to left, top row first) is
    a lattice word (Macdonald, Symmetric Functions and Hall Polynomials,
    I.9).  The cells of letter i+1 form a horizontal strip on the shape
    so far, kept while the letters i+1 in rows <= r number at most the
    letters i in rows < r, for every r (_lattice_strips)."""
    out = {}
    todo = [(lam, None, 0)]
    while todo:
        shape, prev, i = todo.pop()
        if i == len(mu):
            nu = tuple(p for p in shape if p)
            out[nu] = out.get(nu, 0) + 1
            continue
        for strip in _lattice_strips(shape, prev, mu[i]):
            todo.append((tuple(map(add, shape + (0,), strip)), strip, i + 1))
    return out


def littlewood_richardson(lam: tuple, mu: tuple, nu: tuple) -> int:
    """Multiplicity of chi_nu in the induced product chi_lam * chi_mu."""
    return lr_product(tuple(lam), tuple(mu)).get(tuple(nu), 0)


@cache
def induced_product(shapes: tuple) -> dict:
    """{nu: multiplicity} of the outer product chi_shapes[0] x
    chi_shapes[1] x ..., induced from the Young subgroup
    S_|shapes[0]| x S_|shapes[1]| x ... to the full symmetric group,
    by iterated Littlewood-Richardson products.  Empty shapes are the
    trivial factors S_0."""
    out = {(): 1}
    for shape in shapes:
        nxt = {}
        for lam, m in out.items():
            for nu, c in lr_product(lam, shape).items():
                nxt[nu] = nxt.get(nu, 0) + m * c
        out = nxt
    return out
