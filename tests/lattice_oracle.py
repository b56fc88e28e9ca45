"""The full-closure weight-space lattice, kept as a differential oracle.

codimlab.codim._lattice_ranks spans V(nu) by the words that begin with
the first letter of nu: it brackets V(nu - e_r) with X_r for every r
with nu_r > 0 but the first letter a when nu_a = 1, and builds only
the compositions those terms reach.  The oracle here is the recursion
it replaced: V(nu) = sum over every r with nu_r > 0 of
[V(nu - e_r), X_r], over every nonzero composition below the targets.
It takes the same arguments, letters and column coding, so the two
may differ only in the spanning rule and the closure.
"""
from itertools import product

from codimlab.codim import IntRowSpace
from codimlab.linalg import shift_product


def first_letter_closure(tops) -> set:
    """Every composition the first-letter rule builds for these tops:
    nu of size >= 2 reaches nu - e_r for each r with nu_r > 0 but the
    first such r when nu_r = 1."""
    seen, todo = set(), list(tops)
    while todo:
        nu = todo.pop()
        if nu in seen:
            continue
        seen.add(nu)
        if sum(nu) > 1:
            a = next(r for r, c in enumerate(nu) if c)
            todo += [nu[:r] + (c - 1,) + nu[r + 1:]
                     for r, c in enumerate(nu) if c > (r == a)]
    return seen


def full_closure(tops) -> set:
    """Every nonzero composition below one of the tops."""
    return {nu for top in tops for nu in product(*(range(c + 1)
                                                   for c in top)) if any(nu)}


def full_closure_ranks(dim, letters, types, targets, verify, sliced):
    """{mus: D_mus} by the full recursion, for the arguments of
    codimlab.codim._lattice_ranks (verify is ignored)."""
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
    spaces = {}
    for nu in sorted(full_closure(tops.values()), key=sum):
        space = spaces[nu] = IntRowSpace()
        if sum(nu) == 1:
            for row in starts[nu.index(1)]:
                space.add(row)
            continue
        for r, c in enumerate(nu):
            if not c:
                continue
            below = spaces[nu[:r] + (c - 1,) + nu[r + 1:]].pivots
            for value, table in product(below.values(), tables[r]):
                new = shift_product(value, table, width)
                if new:
                    space.add(new)
    assert all(space.rank % deg == 0 for space in spaces.values())
    return {mus: spaces[top].rank // deg for mus, top in tops.items()}
