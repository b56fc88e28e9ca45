"""Reference tooling the tests share and no command reads: every
bundled fixture at once, the benchmark's modules read from source, a
fixture in the basis order the benchmark gives it at a seed, an algebra
or a workbench rewritten in another basis, the permutation action on
polynomials and the transposition check (the references of
is_alternating), and the partition helpers of the character tests.

Permutations are tuples p of length n with p[i - 1] the image of i,
composition (tau sigma)(i) = tau(sigma(i)), as in codimlab.free_polys.
"""
import functools
import types
from itertools import permutations
from pathlib import Path

from codimlab.documents import bench_to_document, document_to_bench
from codimlab.fixtures import FIXTURE_BUILDERS, Workbench, build_fixture
from codimlab.free_polys import perm_sign, poly_add, poly_scale
from codimlab.lie_core import LieAlgebra
from codimlab.linalg import MatrixExact
from codimlab.symmetry import GroupAction
from dense_oracle import subspace_inverse


def all_fixtures():
    return [build_fixture(name) for name in FIXTURE_BUILDERS]


@functools.cache
def benchmark_module(name):
    """benchmark/<name>.py, executed from its source rather than
    imported, so nothing is written under benchmark/."""
    path = Path(__file__).resolve().parent.parent / "benchmark" / \
        f"{name}.py"
    module = types.ModuleType(name)
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"),
         module.__dict__)
    return module


def relabelled(bench, seed):
    """bench with its basis permuted as the benchmark relabels it at
    seed; seed 0 keeps the order."""
    workloads = benchmark_module("workloads")
    doc = bench_to_document(bench)
    return document_to_bench(workloads.relabel_document(
        doc, workloads.basis_permutation(seed, bench.name, doc["dim"])))


def basis_change(field, rows):
    """(columns, to_new) for the new basis whose k-th vector has old
    coordinates rows[k]: the matrix with those columns, and its inverse
    (dense_oracle.subspace_inverse), which sends old coordinates to new.
    Raises ValueError when the rows do not span."""
    columns = MatrixExact(field, list(zip(*rows)))
    try:
        return columns, subspace_inverse(columns)
    except ArithmeticError:
        raise ValueError("new basis does not span") from None


def change_of_basis(algebra, rows, names=None) -> LieAlgebra:
    """algebra with its bracket table rewritten in the basis of rows
    (basis_change), named u0, u1, .. unless names are given."""
    n = algebra.dim
    if len(rows) != n:
        raise ValueError("need exactly dim basis vectors")
    _, to_new = basis_change(algebra.field, rows)
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            coords = to_new.apply(algebra.bracket(rows[i], rows[j]))
            entry = {k: c for k, c in enumerate(coords) if c}
            if entry:
                brackets[(i, j)] = entry
    names = names or tuple(f"u{i}" for i in range(n))
    return LieAlgebra(algebra.field, names, brackets)


def rebased(bench, rows, name=None):
    """bench in the basis of rows: the algebra by change_of_basis, each
    action matrix conjugated to to_new M columns, the grading labels
    kept (rows must then mix only vectors of one label) and no
    annotation."""
    columns, to_new = basis_change(bench.algebra.field, rows)
    algebra = change_of_basis(bench.algebra, rows)
    action = None
    if bench.action is not None:
        action = GroupAction(bench.group, [
            to_new @ m @ columns for m in bench.action.matrices])
        assert not action.validate(algebra)
    return Workbench(name or bench.name, algebra, bench.group, action,
                     bench.grading)


def label_preserving_rows(bench, rnd):
    """Rows of a random basis of bench's algebra (basis_change), each new
    vector a combination of old ones of its own grading label, all of
    one label without a grading, with coefficients from 0, 0, 1, -1, 2."""
    field, n = bench.algebra.field, bench.algebra.dim
    labels = bench.grading.labels if bench.grading else (0,) * n
    while True:
        rows = [[field.from_rational(rnd.choice((0, 0, 1, -1, 2)))
                 if labels[i] == labels[j] else field.zero()
                 for j in range(n)] for i in range(n)]
        try:
            basis_change(field, rows)
        except ValueError:
            continue
        return rows


def rename_key(word, mapping: dict):
    """A word with each variable i renamed to mapping.get(i, i)."""
    return tuple((mapping.get(v, v), g) for v, g in word)


def transposition_alternates(poly: dict, var_set) -> bool:
    """codimlab.alternating.is_alternating as it decided before the
    orbit pass: the adjacent transpositions of the sorted set generate
    its symmetric group, so each of them must negate the polynomial,
    which is checked by looking up every term's swapped key."""
    ordered = sorted(var_set)
    negated = [(key, -c) for key, c in poly.items()]
    for i, j in zip(ordered, ordered[1:]):
        swap = {i: j, j: i}
        if any(poly.get(rename_key(key, swap)) != c for key, c in negated):
            return False
    return True


def permute(poly: dict, perm) -> dict:
    """Rename variable i to perm[i - 1] throughout.

    permute(permute(f, s), t) == permute(f, compose(t, s)).
    """
    mapping = {i + 1: image for i, image in enumerate(perm)}
    out = {}
    for key, c in poly.items():
        new = rename_key(key, mapping)
        cur = out.get(new)
        val = c if cur is None else cur + c
        if val:
            out[new] = val
        elif new in out:
            del out[new]
    return out


def compose(p, q):
    """(p q)(i) = p(q(i)); tuples are 0-indexed over variables 1..n."""
    return tuple(p[q[i] - 1] for i in range(len(p)))


def alternate(poly: dict, var_set, n: int, field) -> dict:
    """Sum of sign(s) s(poly) over permutations of var_set, identity
    elsewhere."""
    var_set = tuple(var_set)
    out = {}
    for images in permutations(var_set):
        perm = list(range(1, n + 1))
        for src, dst in zip(var_set, images):
            perm[src - 1] = dst
        perm = tuple(perm)
        sgn = field.from_rational(perm_sign(perm))
        out = poly_add(out, poly_scale(permute(poly, perm), sgn))
    return out


def is_partition(shape) -> bool:
    return all(a >= b for a, b in zip(shape, shape[1:])) and all(
        x > 0 for x in shape)


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
