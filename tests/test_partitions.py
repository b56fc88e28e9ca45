"""Partition combinatorics and S_n character machinery.

The Littlewood-Richardson routine is checked against an independent
oracle: Schur polynomials from the Jacobi-Trudi determinant in complete
homogeneous polynomials, multiplied and greedily decomposed.
"""
import itertools
from math import factorial

from hypothesis import given, settings
from hypothesis import strategies as st

from codimlab.partitions import (
    character_table,
    compositions,
    conjugate,
    cycle_type_class_size,
    hook_dim,
    hook_lengths,
    induced_product,
    kostka,
    littlewood_richardson,
    lr_product,
    mn_character,
    partitions,
)
import lr_oracle
from helpers import is_partition, perm_of_cycle_type


def test_partitions_of_four_reverse_lex():
    assert list(partitions(4)) == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert list(partitions(0)) == [()]
    assert len(list(partitions(7))) == 15


def test_conjugate():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate((2, 2)) == (2, 2)
    assert conjugate(()) == ()
    for shape in partitions(6):
        assert conjugate(conjugate(shape)) == shape
        assert is_partition(conjugate(shape))


def test_hooks():
    assert hook_lengths((2, 1)) == [[3, 1], [1]]
    assert hook_dim((2, 1)) == 2
    dims = {shape: hook_dim(shape) for shape in partitions(4)}
    assert dims == {(4,): 1, (3, 1): 3, (2, 2): 2,
                    (2, 1, 1): 3, (1, 1, 1, 1): 1}
    for n in range(1, 8):
        assert sum(hook_dim(s) ** 2 for s in partitions(n)) == factorial(n)


def test_class_sizes():
    sizes = {mu: cycle_type_class_size(mu) for mu in partitions(4)}
    assert sizes == {(4,): 6, (3, 1): 8, (2, 2): 3,
                     (2, 1, 1): 6, (1, 1, 1, 1): 1}
    for n in range(1, 8):
        assert sum(cycle_type_class_size(mu)
                   for mu in partitions(n)) == factorial(n)


def test_cycle_type_representatives():
    assert perm_of_cycle_type((2, 1)) == (2, 1, 3)
    assert perm_of_cycle_type((3,)) == (2, 3, 1)
    assert perm_of_cycle_type((2, 2)) == (2, 1, 4, 3)

    def cycle_type_of(perm):
        n = len(perm)
        seen = [False] * n
        lengths = []
        for i in range(n):
            if seen[i]:
                continue
            j, count = i, 0
            while not seen[j]:
                seen[j] = True
                j = perm[j] - 1
                count += 1
            lengths.append(count)
        return tuple(sorted(lengths, reverse=True))

    for mu in partitions(6):
        assert cycle_type_of(perm_of_cycle_type(mu)) == mu


def test_character_table_s3():
    table = character_table(3)
    assert table[(3,)] == {(3,): 1, (2, 1): 1, (1, 1, 1): 1}
    assert table[(2, 1)] == {(3,): -1, (2, 1): 0, (1, 1, 1): 2}
    assert table[(1, 1, 1)] == {(3,): 1, (2, 1): -1, (1, 1, 1): 1}


def test_character_table_s4():
    table = character_table(4)
    assert table[(3, 1)] == {(4,): -1, (3, 1): 0, (2, 2): -1,
                             (2, 1, 1): 1, (1, 1, 1, 1): 3}
    assert table[(2, 2)] == {(4,): 0, (3, 1): -1, (2, 2): 2,
                             (2, 1, 1): 0, (1, 1, 1, 1): 2}
    assert table[(2, 1, 1)] == {(4,): 1, (3, 1): 0, (2, 2): -1,
                                (2, 1, 1): -1, (1, 1, 1, 1): 3}


def test_degree_equals_hook_dim():
    for n in range(1, 9):
        for shape in partitions(n):
            assert mn_character(shape, (1,) * n) == hook_dim(shape)


def test_hook_shapes_at_full_cycle():
    # chi at the n-cycle is (-1)^k on the hook (n-k, 1^k), 0 elsewhere
    n = 6
    for shape in partitions(n):
        value = mn_character(shape, (n,))
        if len(shape) == 1 or shape[1:] == (1,) * (len(shape) - 1):
            assert value == (-1) ** (len(shape) - 1)
        else:
            assert value == 0


def test_character_orthogonality():
    for n in range(1, 8):
        shapes = list(partitions(n))
        table = character_table(n)
        sizes = {mu: cycle_type_class_size(mu) for mu in shapes}
        for lam in shapes:
            for rho in shapes:
                inner = sum(sizes[mu] * table[lam][mu] * table[rho][mu]
                            for mu in shapes)
                assert inner == (factorial(n) if lam == rho else 0)


def test_conjugate_twists_by_sign():
    for n in range(1, 8):
        for shape in partitions(n):
            for mu in partitions(n):
                sign = (-1) ** (n - len(mu))
                assert mn_character(conjugate(shape), mu) == \
                    sign * mn_character(shape, mu)


# -- Littlewood-Richardson -------------------------------------------


def _h_poly(k, m):
    """Complete homogeneous polynomial of degree k in m variables as a
    dict from exponent tuples to coefficients."""
    poly = {}
    for combo in itertools.combinations_with_replacement(range(m), k):
        exp = [0] * m
        for i in combo:
            exp[i] += 1
        poly[tuple(exp)] = 1
    return poly


def _poly_mul(a, b, m):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(ea[i] + eb[i] for i in range(m))
            out[key] = out.get(key, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def _schur_poly(shape, m):
    """Jacobi-Trudi: det(h_{shape_i - i + j}) expanded by permutations."""
    r = len(shape)
    if r == 0:
        return {(0,) * m: 1}
    out = {}
    for perm in itertools.permutations(range(r)):
        sign = 1
        seen = list(perm)
        for i in range(r):
            for j in range(i + 1, r):
                if seen[i] > seen[j]:
                    sign = -sign
        term = {(0,) * m: sign}
        degenerate = False
        for i in range(r):
            k = shape[i] - i - 1 + perm[i] + 1
            if k < 0:
                degenerate = True
                break
            term = _poly_mul(term, _h_poly(k, m), m)
        if not degenerate:
            for key, val in term.items():
                out[key] = out.get(key, 0) + val
    return {k: v for k, v in out.items() if v}


def _schur_decompose(poly, m):
    """Greedy expansion of a Schur-positive symmetric polynomial."""
    work = dict(poly)
    coeffs = {}
    while work:
        lead = max(work)
        shape = tuple(x for x in lead if x)
        assert is_partition(shape)
        c = work[lead]
        coeffs[shape] = c
        for key, val in _schur_poly(shape, m).items():
            new = work.get(key, 0) - c * val
            if new:
                work[key] = new
            else:
                work.pop(key, None)
    return coeffs


def test_lr_pieri_row():
    # multiplying by a single row gives horizontal strips, coefficient 1
    assert littlewood_richardson((2, 1), (2,), (4, 1)) == 1
    assert littlewood_richardson((2, 1), (2,), (3, 2)) == 1
    assert littlewood_richardson((2, 1), (2,), (3, 1, 1)) == 1
    assert littlewood_richardson((2, 1), (2,), (2, 2, 1)) == 1
    assert littlewood_richardson((2, 1), (2,), (2, 1, 1, 1)) == 0


def test_lr_classic_values():
    assert littlewood_richardson((1,), (1, 1), (2, 1)) == 1
    assert littlewood_richardson((2, 1), (2, 1), (3, 2, 1)) == 2
    assert littlewood_richardson((2, 1), (2, 1), (4, 2)) == 1
    assert littlewood_richardson((2, 1), (2, 1), (2, 2, 2)) == 1
    assert littlewood_richardson((2, 1), (2, 1), (4, 1, 1)) == 1
    # size or containment violations
    assert littlewood_richardson((2,), (1,), (2, 2)) == 0
    assert littlewood_richardson((3,), (1,), (2, 2)) == 0


def test_lr_against_jacobi_trudi():
    cases = [((1,), (1,)), ((2,), (2,)), ((2, 1), (1,)),
             ((2, 1), (2, 1)), ((2, 2), (2,)), ((3, 1), (1, 1)),
             ((1, 1), (1, 1, 1))]
    for lam, mu in cases:
        n = sum(lam) + sum(mu)
        m = n
        product = _poly_mul(_schur_poly(lam, m), _schur_poly(mu, m), m)
        expected = _schur_decompose(product, m)
        for nu in partitions(n):
            assert littlewood_richardson(lam, mu, nu) == \
                expected.get(nu, 0), (lam, mu, nu)


def test_lr_product_against_the_tableau_count():
    """Every triple with |lam|, |mu| <= 5, zeros included: the product
    holds exactly the nu that the cell-by-cell count finds nonzero."""
    triples = 0
    for a, b in itertools.product(range(6), repeat=2):
        for lam, mu in itertools.product(partitions(a), partitions(b)):
            counts = {nu: lr_oracle.littlewood_richardson(lam, mu, nu)
                      for nu in partitions(a + b)}
            triples += len(counts)
            assert lr_product(lam, mu) == {
                nu: c for nu, c in counts.items() if c}, (lam, mu)
    assert triples == 7370


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.data())
def test_lr_symmetry_in_first_two_arguments(n, data):
    shapes = list(partitions(n))
    lam = data.draw(st.sampled_from(shapes))
    mu = data.draw(st.sampled_from(shapes))
    nu = data.draw(st.sampled_from(list(partitions(2 * n))))
    assert littlewood_richardson(lam, mu, nu) == \
        littlewood_richardson(mu, lam, nu)


# -- induction from Young subgroups ----------------------------------


def test_compositions_count_and_order():
    assert list(compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]
    assert list(compositions(3, 1)) == [(3,)]
    for n in range(6):
        for parts in range(1, 4):
            got = list(compositions(n, parts))
            assert len(got) == len(set(got)) == \
                factorial(n + parts - 1) // (factorial(n)
                                             * factorial(parts - 1))
            assert all(sum(c) == n and len(c) == parts for c in got)


def _frobenius_induced(shapes, mu):
    """Ind from S_alpha to S_n of chi_shapes[0] x chi_shapes[1] x ...
    at cycle type mu: n! / (|S_alpha| |C_mu|) times the sum of
    |c| chi(c) over the S_alpha-classes c inside the class C_mu."""
    n = sum(mu)
    young = 1
    for shape in shapes:
        young *= factorial(sum(shape))
    total = 0
    for mus in itertools.product(*(list(partitions(sum(shape)))
                                   for shape in shapes)):
        if tuple(sorted(sum(mus, ()), reverse=True)) != mu:
            continue
        term = 1
        for shape, part in zip(shapes, mus):
            term *= cycle_type_class_size(part) * mn_character(shape, part)
        total += term
    value = factorial(n) * total
    assert value % (young * cycle_type_class_size(mu)) == 0
    return value // (young * cycle_type_class_size(mu))


def test_induced_product_against_frobenius():
    for n in range(1, 7):
        for parts in range(1, 4):
            for alpha in compositions(n, parts):
                for shapes in itertools.product(
                        *(list(partitions(k)) for k in alpha)):
                    induced = induced_product(shapes)
                    assert all(sum(nu) == n and m > 0
                               for nu, m in induced.items())
                    for mu in partitions(n):
                        got = sum(m * mn_character(nu, mu)
                                  for nu, m in induced.items())
                        assert got == _frobenius_induced(shapes, mu), \
                            (shapes, mu)


def test_induced_product_one_part_is_identity():
    for n in range(1, 7):
        for lam in partitions(n):
            assert induced_product((lam,)) == {lam: 1}
            assert induced_product(((), lam, ())) == {lam: 1}


shape_tuples = st.lists(
    st.integers(0, 4).flatmap(lambda k: st.sampled_from(list(partitions(k)))),
    max_size=4).map(tuple)


@settings(max_examples=60, deadline=None)
@given(shape_tuples)
def test_induced_product_against_the_triple_sweep(shapes):
    assert induced_product(shapes) == lr_oracle.induced_product(shapes)


def _ssyt_count(shape, content):
    """Oracle: fill the cells row by row with every value that keeps
    rows weakly increasing, columns strictly increasing and the content
    within bounds; count the fillings that use the content exactly."""
    cells = [(r, c) for r, length in enumerate(shape) for c in range(length)]
    used = [0] * len(content)
    grid = {}

    def rec(idx):
        if idx == len(cells):
            return int(used == list(content))
        r, c = cells[idx]
        total = 0
        for v in range(len(content)):
            if used[v] == content[v]:
                continue
            if c and grid[r, c - 1] > v:
                continue
            if r and grid[r - 1, c] >= v:
                continue
            grid[r, c] = v
            used[v] += 1
            total += rec(idx + 1)
            used[v] -= 1
        return total

    return rec(0)


def _dominates(lam, mu):
    return all(sum(lam[:i]) >= sum(mu[:i])
               for i in range(1, max(len(lam), len(mu)) + 1))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=7), st.data())
def test_kostka_against_tableau_count(n, data):
    shapes = list(partitions(n))
    shape = data.draw(st.sampled_from(shapes))
    # any composition of n, zero parts included
    parts = data.draw(st.integers(min_value=0 if n == 0 else 1,
                                  max_value=n + 1))
    content = data.draw(st.sampled_from(
        list(compositions(n, parts)) if parts else [()]))
    assert kostka(shape, content) == _ssyt_count(shape, content)
    # the count does not depend on the order of the content
    assert kostka(shape, content) == kostka(
        shape, tuple(sorted(content, reverse=True)))
    assert kostka(shape, shape) == 1
    mu = data.draw(st.sampled_from(shapes))
    if kostka(shape, mu):
        assert _dominates(shape, mu)
    else:
        assert not _dominates(shape, mu)


def test_kostka_small_values():
    assert kostka((2, 1), (1, 1, 1)) == 2
    assert kostka((3, 2), (2, 2, 1)) == 2
    assert kostka((2, 2), (1, 1, 1, 1)) == hook_dim((2, 2))
    assert kostka((2, 1), (2, 0, 1)) == 1
    assert kostka((1, 1), (2,)) == 0
    assert kostka((2,), (1,)) == 0
    assert kostka((), ()) == 1
