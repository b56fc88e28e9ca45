"""The tableau-counting Littlewood-Richardson rule, kept as a
differential oracle.

codimlab.partitions.lr_product generates the whole product chi_lam *
chi_mu by lattice-word horizontal strips.  The oracle here is the route
it replaced: one count per triple (lam, mu, nu), filling the skew cells
of nu/lam one at a time, and an induction that asks that count about
every partition nu of the running size.
"""
from codimlab.partitions import partitions


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
    if len(lam) > len(nu) or any(a > b for a, b in zip(lam, nu)):
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


def induced_product(shapes: tuple) -> dict:
    """{nu: multiplicity} of the outer product chi_shapes[0] x
    chi_shapes[1] x ..., by the triple count over every partition of
    the running size.  Empty shapes are the trivial factors S_0."""
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
