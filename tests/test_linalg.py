from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import dense_oracle
from codimlab import linalg
from codimlab.codim import _CHECK_PRIMES, IntRowSpace
from codimlab.linalg import (
    Echelon,
    MatrixExact,
    Subspace,
    _int_rref,
    modular_rank,
    spin,
)
from codimlab.scalar import (FieldSpec, RATIONALS, integer_row, row_scalars,
                             zeta_multiples)
from codimlab.structure import section_frame
from multilinear_oracle import primitive_integer_row


def qmat(rows):
    f = RATIONALS
    return MatrixExact(f, [[f.from_rational(x) for x in r] for r in rows])


def qvecs(rows):
    f = RATIONALS
    return [[f.from_rational(x) for x in r] for r in rows]


def test_rank_known():
    assert qmat([[1, 2], [2, 4]]).rank() == 1
    assert qmat([[1, 2], [3, 4]]).rank() == 2
    assert qmat([[0, 0], [0, 0]]).rank() == 0
    m = qmat([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert m.rank() == 2


def test_rank_with_fractions():
    m = qmat([[Fraction(1, 2), Fraction(1, 3)],
              [Fraction(3, 2), 1]])
    assert m.rank() == 1


def test_rref_canonical():
    s = Subspace(RATIONALS, 3, qvecs([[2, 4, 0], [1, 2, 1]]))
    assert s.pivots == (0, 2)
    assert s.basis == tuple(tuple(r) for r in qvecs([[1, 2, 0],
                                                     [0, 0, 1]]))


def test_kernel_and_solve():
    m = qmat([[1, 2, 3], [4, 5, 6]])
    ker = m.kernel()
    assert ker.dim == 1
    v = ker.basis[0]
    assert all(not x for x in m.apply(v))
    sol = m.solve([RATIONALS.from_rational(6),
                   RATIONALS.from_rational(15)])
    assert sol is not None
    assert m.apply(sol) == (RATIONALS.from_rational(6),
                            RATIONALS.from_rational(15))
    none = qmat([[1, 1], [1, 1]]).solve(
        [RATIONALS.from_rational(0), RATIONALS.from_rational(1)])
    assert none is None


def test_solve_over_cyclotomic():
    # 2x2 system with zeta_3 entries, checked by substitution
    f = FieldSpec(3)
    z = f.root_of_unity()
    m = MatrixExact(f, [[f.one(), z], [z, f.one()]])
    rhs = (f.one() + z, z + z * z)
    sol = m.solve(rhs)
    assert sol is not None
    assert m.apply(sol) == rhs


def test_det():
    assert qmat([[1, 2], [3, 4]]).det() == RATIONALS.from_rational(-2)
    assert qmat([[1, 2], [2, 4]]).det() == RATIONALS.from_rational(0)
    f = FieldSpec(4)
    i = f.root_of_unity()
    m = MatrixExact(f, [[i, f.zero()], [f.zero(), i]])
    assert m.det() == f.from_rational(-1)


def test_matmul_identity_transpose():
    m = qmat([[1, 2], [3, 4], [5, 6]])
    i2 = MatrixExact.identity(RATIONALS, 2)
    assert m @ i2 == m
    assert m.transpose().transpose() == m
    assert (m @ m.transpose()).trace() == RATIONALS.from_rational(91)


def test_subspace_intersection_example():
    # span{(1,0,1),(0,1,1)} meet span{(1,1,2),(1,0,0)} contains (1,1,2)
    a = Subspace(RATIONALS, 3, qvecs([[1, 0, 1], [0, 1, 1]]))
    b = Subspace(RATIONALS, 3, qvecs([[1, 1, 2], [1, 0, 0]]))
    cap = a.intersect(b)
    assert cap.dim == 1
    assert cap.contains_vector(
        [RATIONALS.from_rational(x) for x in (1, 1, 2)])


def test_subspace_value_semantics():
    a = Subspace(RATIONALS, 2, qvecs([[1, 1], [2, 2]]))
    b = Subspace(RATIONALS, 2, qvecs([[3, 3]]))
    assert a == b
    assert a.dim == 1
    assert hash(a) == hash(b)


def test_subspace_coordinates():
    s = Subspace(RATIONALS, 3, qvecs([[1, 0, 1], [0, 1, 1]]))
    v = [RATIONALS.from_rational(x) for x in (2, 3, 5)]
    coords = s.coordinates(v)
    assert coords == (RATIONALS.from_rational(2),
                      RATIONALS.from_rational(3))
    out = [RATIONALS.from_rational(x) for x in (1, 0, 0)]
    assert s.coordinates(out) is None
    f = FieldSpec(3)
    one, z = f.one(), f.root_of_unity()
    space = Subspace(f, 3, [(one, z, f.zero()), (z, z, one)])
    inside = tuple(z * a + 2 * b for a, b in zip(*space.basis))
    assert space.coordinates(inside) == (z, f.from_rational(2))
    assert space.coordinates((one, one, one)) is None


@st.composite
def rational_matrices(draw):
    """Up to 5 x 5, entries in [-3, 3] with denominator at most 3,
    sometimes all zero; either side may be 0."""
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    entry = st.fractions(-3, 3, max_denominator=3)
    if draw(st.integers(0, 7)) == 0:
        entry = st.just(Fraction(0))
    return [[draw(entry) for _ in range(cols)] for _ in range(rows)]


@settings(max_examples=150, deadline=None)
@given(rational_matrices())
@example([])
@example([[], []])
@example([[Fraction(0)] * 3] * 2)
def test_rank_agrees_with_integer_and_modular_rank(rows):
    # the dense rank against the sparse integer row space on the
    # primitive integer rows, and against elimination at both check
    # primes, which no minor of these small entries reaches
    rank = qmat(rows).rank()
    int_rows = [primitive_integer_row(qvecs([r])[0]) for r in rows]
    space = IntRowSpace()
    for r in int_rows:
        space.add({j: v for j, v in enumerate(r) if v})
    assert space.rank == rank
    for p in _CHECK_PRIMES:
        assert modular_rank(int_rows, p) == rank


def test_modular_rank_agrees():
    rows = [[2, 4, 6], [1, 2, 3], [0, 1, 7]]
    assert modular_rank(rows, (1 << 29) - 3) == 2


@st.composite
def small_subspaces(draw):
    vecs = draw(st.lists(
        st.lists(st.integers(-3, 3), min_size=4, max_size=4),
        min_size=0, max_size=3))
    return Subspace(RATIONALS, 4, qvecs(vecs))


@settings(max_examples=60, deadline=None)
@given(small_subspaces(), small_subspaces())
def test_dimension_formula(a, b):
    # dim(A) + dim(B) = dim(A + B) + dim(A meet B)
    assert a.dim + b.dim == a.add(b).dim + a.intersect(b).dim


@settings(max_examples=60, deadline=None)
@given(small_subspaces(), small_subspaces())
def test_intersection_contained_in_both(a, b):
    cap = a.intersect(b)
    assert a.contains(cap) and b.contains(cap)
    assert a.add(b).contains(a)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3),
                min_size=1, max_size=5))
def test_kernel_dim_plus_rank(rows):
    m = qmat(rows)
    assert m.rank() + m.kernel().dim == m.cols


# -- incremental spans ------------------------------------------------

ZETA3 = FieldSpec(3)


def naive_closure(field, n, mats, seeds):
    """Fixed-point oracle: add every image of the current basis and
    rebuild until the dimension stops growing."""
    cur = Subspace(field, n, seeds)
    while True:
        nxt = Subspace(field, n, list(cur.basis)
                       + [m.apply(v) for m in mats for v in cur.basis])
        if nxt.dim == cur.dim:
            return cur
        cur = nxt


@st.composite
def spin_problems(draw):
    field = draw(st.sampled_from([RATIONALS, ZETA3]))
    n = draw(st.integers(1, 5))
    # mostly-zero entries, so closures often stop short of F^n and
    # need several rounds of images to get there
    entry = st.sampled_from([0, 0, 0, 0, 1, -1, 2])
    zeta = field.root_of_unity() if field.order > 1 else field.zero()

    def scalar():
        a, b = draw(entry), draw(entry) if field.order > 1 else 0
        return field.from_rational(a) + field.from_rational(b) * zeta

    def vector():
        return tuple(scalar() for _ in range(n))

    mats = [MatrixExact(field, [vector() for _ in range(n)])
            for _ in range(draw(st.integers(0, 3)))]
    seeds = [vector() for _ in range(draw(st.integers(0, 2)))]
    if draw(st.booleans()):
        seeds.append((field.zero(),) * n)
    return field, n, mats, seeds


def spying_push(on_push):
    """Patch linalg._push, which spin calls once per push of an integer
    row through a matrix, so that on_push(row, image) sees each push;
    the rows, handed to _push as (index, value) pairs, are Scalar
    vectors in integer form (scalar.integer_row)."""
    real = linalg._push

    def push(form, entries):
        row = [x for _, x in entries]
        image = real(form, enumerate(row))
        on_push(row, image)
        return image

    return mock.patch.object(linalg, "_push", push)


def as_vector(field, row):
    return row_scalars(field, row, 1, field.degree)


@settings(max_examples=100, deadline=None)
@given(spin_problems())
def test_spin_matches_naive_closure(problem):
    field, n, mats, seeds = problem
    got = spin(field, n, mats, seeds)
    assert got == naive_closure(field, n, mats, seeds)
    span = Echelon(field, n)
    for v in seeds:
        span.add(v)
    assert span.subspace() == Subspace(field, n, seeds)
    grown = Echelon(field, n, Subspace(field, n, seeds[:1]))
    for v in seeds[1:]:
        grown.add(v)
    assert grown.subspace() == span.subspace()


@settings(max_examples=60, deadline=None)
@given(spin_problems())
def test_spin_does_not_push_a_closed_span(problem):
    field, n, mats, seeds = problem
    closed = naive_closure(field, n, mats, seeds[:1])
    pushed = []

    with spying_push(lambda row, image: pushed.append(row)):
        got = spin(field, n, mats, seeds[1:], closed=closed)
    assert got == naive_closure(field, n, mats, seeds + list(closed.basis))
    assert not any(closed.contains_vector(as_vector(field, v))
                   for v in pushed)


@settings(max_examples=80, deadline=None)
@given(spin_problems())
def test_spin_calls_no_map_once_the_span_is_full(problem):
    field, n, mats, seeds = problem
    # spin's span is always that of the seeds and every image returned
    # so far, so a push on a full span shows here as dim == n
    seen = list(seeds)
    dims_at_call = []

    def counting(row, image):
        dims_at_call.append(Subspace(field, n, seen).dim)
        seen.append(as_vector(field, image))

    with spying_push(counting):
        got = spin(field, n, mats, seeds)
    assert got == naive_closure(field, n, mats, seeds)
    assert all(d < n for d in dims_at_call)


def test_spin_stops_at_full_space():
    f = RATIONALS
    e1 = qvecs([[1, 0, 0]])[0]
    cycle = qmat([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    calls = []

    # e1 -> e2 -> e3: the second image fills Q^3, so e3 is never pushed
    with spying_push(lambda row, image: calls.append(row)):
        assert spin(f, 3, [cycle], [e1]) == Subspace.full(f, 3)
    assert len(calls) == 2


def test_spin_zero_seeds_and_no_maps():
    f = RATIONALS
    zero = (f.zero(),) * 3
    shift = MatrixExact(f, [[f.zero(), f.one(), f.zero()],
                            [f.zero(), f.zero(), f.one()],
                            [f.zero(), f.zero(), f.zero()]])
    assert spin(f, 3, [shift], [zero]).dim == 0
    assert spin(f, 3, [shift], []).dim == 0
    e3 = qvecs([[0, 0, 1]])[0]
    assert spin(f, 3, [], [e3, zero]) == Subspace(f, 3, [e3])
    assert spin(f, 3, [shift], [e3]) == Subspace.full(f, 3)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-2, 2), min_size=4, max_size=4),
                min_size=0, max_size=7))
def test_echelon_add_agrees_with_contains_vector(rows):
    f = RATIONALS
    span = Echelon(f, 4)
    kept = []
    for v in qvecs(rows):
        outside = not Subspace(f, 4, kept).contains_vector(v)
        assert span.add(v) == outside
        if outside:
            kept.append(v)
        assert len(span.rows) == len(kept)
    assert span.subspace() == Subspace(f, 4, kept)


def _reassembled(field, alpha, beta, j_vecs, c_vecs, n):
    return tuple(sum((c * v[i] for c, v in zip(alpha + beta,
                                              tuple(j_vecs) + tuple(c_vecs))),
                     field.zero()) for i in range(n))


def test_section_frame_split():
    # upper is x0 - x1 + x2 - x3 = 0, with RREF rows (1, 0, 0, 1),
    # (0, 1, 0, -1), (0, 0, 1, 1); modulo lower = <(1, 0, -1, 0)> the
    # first becomes (0, 0, 1, 1), so the quotient basis is the last two,
    # 0 at lower's pivot
    f = RATIONALS
    upper = Subspace(f, 4, qvecs([[1, 1, 0, 0], [0, 1, 1, 0],
                                  [0, 0, 1, 1]]))
    lower = Subspace(f, 4, qvecs([[1, 0, -1, 0]]))
    j_vecs, c_vecs, split = section_frame(f, upper, lower)
    assert list(map(list, j_vecs)) == qvecs([[1, 0, -1, 0]])
    assert list(map(list, c_vecs)) == qvecs([[0, 1, 0, -1], [0, 0, 1, 1]])
    w = tuple(qvecs([[3, 1, -1, 1]])[0])
    alpha, beta = split(w)
    assert [list(alpha), list(beta)] == qvecs([[3], [1, 2]])
    assert _reassembled(f, alpha, beta, j_vecs, c_vecs, 4) == w
    with pytest.raises(ArithmeticError):
        split(qvecs([[1, 0, 0, 0]])[0])
    with pytest.raises(ValueError):
        section_frame(f, lower, upper)


@st.composite
def nested_spaces(draw):
    """Over Q or Q(zeta_3), upper spanned by up to 4 random vectors of
    F^n, n <= 5, often rational, lower by combinations of some of them,
    a vector of upper and an arbitrary vector."""
    field = draw(st.sampled_from([RATIONALS, FieldSpec(3)]))
    rational = draw(st.booleans())
    coeff = st.fractions(-2, 2, max_denominator=3)
    n = draw(st.integers(1, 5))

    def scalar():
        if draw(st.integers(0, 2)) == 0:
            return field.zero()
        return field.scalar([draw(coeff)] + [
            Fraction(0) if rational else draw(coeff)
            for _ in range(field.degree - 1)])

    def combination(vectors):
        out = (field.zero(),) * n
        for v in vectors:
            c = scalar()
            out = tuple(a + c * b for a, b in zip(out, v))
        return out

    gens = [tuple(scalar() for _ in range(n))
            for _ in range(draw(st.integers(0, 4)))]
    lower = [combination(gens[:k])
             for k in range(draw(st.integers(0, len(gens))))]
    return (field, Subspace(field, n, gens), Subspace(field, n, lower),
            combination(gens), tuple(scalar() for _ in range(n)))


@settings(max_examples=150, deadline=None)
@given(nested_spaces())
def test_section_frame_split_reassembles(problem):
    """split(w) gives coefficients with w = sum alpha_i l_i +
    sum beta_j c_j on the lower and quotient bases, the quotient basis
    spans upper modulo lower, and a vector outside upper raises."""
    field, upper, lower, inside, other = problem
    n = upper.ambient
    j_vecs, c_vecs, split = section_frame(field, upper, lower)
    assert len(c_vecs) == upper.dim - lower.dim
    assert lower.add(Subspace(field, n, c_vecs)) == upper
    assert all(v[p] == field.zero() for v in c_vecs for p in lower.pivots)
    for w in (inside, other):
        if upper.contains_vector(w):
            alpha, beta = split(w)
            assert _reassembled(field, alpha, beta, j_vecs, c_vecs,
                                n) == w
        else:
            with pytest.raises(ArithmeticError):
                split(w)


# -- the integer engine against the Scalar oracle ---------------------

ORACLE_FIELDS = [RATIONALS, FieldSpec(3), FieldSpec(4), FieldSpec(5)]


@st.composite
def engine_problems(draw):
    """A field of degree 1, 2, 2 or 4, a matrix of up to 4 x 4 entries
    with fractional coefficients, often all rational, mostly zero, and
    sometimes with rows that are combinations of others over the field,
    so that rows independent over Q are dependent over it; a vector x,
    an arbitrary right-hand side and a second matrix to multiply by."""
    field = draw(st.sampled_from(ORACLE_FIELDS))
    rational = draw(st.booleans())
    coeff = st.fractions(-2, 2, max_denominator=3)

    def scalar(sparse=True):
        if sparse and draw(st.integers(0, 2)) == 0:
            return field.zero()
        cs = [draw(coeff)] + [Fraction(0) if rational else draw(coeff)
                              for _ in range(field.degree - 1)]
        return field.scalar(cs)

    cols = draw(st.integers(1, 4))

    def vector():
        return tuple(scalar() for _ in range(cols))

    rows = [vector() for _ in range(draw(st.integers(1, 4)))]
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        c = scalar(sparse=False)
        rows.append(tuple(c * x + y for x, y in zip(a, b)))
    if draw(st.booleans()):
        rows = rows[:cols]
        while len(rows) < cols:
            rows.append(vector())
    width = draw(st.integers(1, 3))
    other = MatrixExact(field, [[scalar() for _ in range(width)]
                                for _ in range(cols)])
    return (field, MatrixExact(field, rows), vector(),
            tuple(scalar() for _ in rows), other)


@settings(max_examples=200, deadline=None)
@given(engine_problems())
def test_engine_matches_scalar_oracle(problem):
    field, m, x, rhs, other = problem
    rows, cols = list(m.data), m.cols
    assert m.rank() == dense_oracle.rank(m)
    space = Subspace(field, cols, rows)
    assert (space.basis, space.pivots) == dense_oracle.span(field, cols,
                                                            rows)
    ker = m.kernel()
    assert (ker.basis, ker.pivots) == dense_oracle.kernel(m)
    assert m.apply(x) == dense_oracle.apply(m, x)
    assert (m @ other).data == dense_oracle.matmul(m, other)
    consistent = dense_oracle.apply(m, x)
    assert m.solve(consistent) == dense_oracle.solve(m, consistent)
    assert m.solve(consistent) is not None
    assert m.solve(rhs) == dense_oracle.solve(m, rhs)
    half = len(rows) // 2
    cap = Subspace(field, cols, rows[:half]).intersect(
        Subspace(field, cols, rows[half:]))
    assert (cap.basis, cap.pivots) == dense_oracle.intersect(
        field, cols, rows[:half], rows[half:])
    span = Echelon(field, cols)
    for k, v in enumerate(rows):
        before, after = (len(dense_oracle.span(field, cols, rows[:j])[1])
                         for j in (k, k + 1))
        assert span.add(v) == (after > before)
    assert span.subspace() == space


@settings(max_examples=150, deadline=None)
@given(engine_problems())
def test_coordinates_match_back_substitution(problem):
    """Over Q, Q(zeta_3), Q(zeta_4) and Q(zeta_5), for a combination of
    the rows, inside the span, and for an arbitrary vector, inside or
    outside it."""
    field, m, x, rhs, _ = problem
    space = Subspace(field, m.cols, m.data)
    basis, pivots = dense_oracle.span(field, m.cols, m.data)
    inside = tuple(sum((c * r[k] for c, r in zip(rhs, m.data)),
                       field.zero()) for k in range(m.cols))
    assert space.coordinates(inside) is not None
    for vec in (inside, x):
        assert space.coordinates(vec) == dense_oracle.coordinates(
            basis, pivots, vec)


@st.composite
def square_systems(draw):
    """Over Q or Q(zeta_3), an n x n matrix, n <= 4, with its rows
    permuted from a unit lower times a nonsingular upper triangular
    factor, so invertible, or with its last row replaced by a
    combination of the others, so singular; a right-hand side in its
    column space and, for the singular one, one that is inconsistent."""
    field = draw(st.sampled_from([RATIONALS, FieldSpec(3)]))
    coeff = st.fractions(-2, 2, max_denominator=3)

    def scalar(nonzero=False):
        # a nonzero rational part keeps the diagonal of upper nonzero
        lead = draw(coeff.filter(bool) if nonzero else coeff)
        return field.scalar([lead] + [draw(coeff)
                                      for _ in range(field.degree - 1)])

    n = draw(st.integers(1, 4))
    z, o = field.zero(), field.one()
    lower = MatrixExact(field, [[scalar() if j < i else (o if i == j else z)
                                 for j in range(n)] for i in range(n)])
    upper = MatrixExact(field, [[scalar(i == j) if j >= i else z
                                 for j in range(n)] for i in range(n)])
    rows = [list(r) for r in (lower @ upper).data]
    rows = [rows[i] for i in draw(st.permutations(range(n)))]
    x = tuple(scalar() for _ in range(n))
    singular = draw(st.booleans())
    if singular:
        cs = [scalar() for _ in range(n - 1)]
        rows[-1] = [sum((c * r[k] for c, r in zip(cs, rows)), z)
                    for k in range(n)]
    m = MatrixExact(field, rows)
    rhs = m.apply(x)
    bad = None
    if singular:
        bad = rhs[:-1] + (rhs[-1] + o,)
    return m, rhs, bad


@settings(max_examples=150, deadline=None)
@given(square_systems())
def test_solve_matches_the_subspace_route(problem):
    """And the oracle's inverse, through which the tests rebase
    algebras (helpers.change_of_basis), inverts exactly the invertible
    systems."""
    m, rhs, bad = problem
    assert m.solve(rhs) == dense_oracle.subspace_solve(m, rhs)
    assert m.solve(rhs) is not None
    if bad is None:
        assert m @ dense_oracle.subspace_inverse(m) == \
            MatrixExact.identity(m.field, m.rows)
    else:
        assert m.solve(bad) is None
        assert dense_oracle.subspace_solve(m, bad) is None
        with pytest.raises(ArithmeticError, match="singular"):
            dense_oracle.subspace_inverse(m)


def test_zeta_pivot_is_not_read_back():
    # span{(1, zeta)} in Q(zeta_3)^2 realifies to the rows (1, 0, 0, 1)
    # and zeta (1, zeta) = (0, 1, -1, -1), whose Q-pivot sits at the
    # zeta^1 coordinate of entry 0; the K-RREF keeps only the first
    f = FieldSpec(3)
    z = f.root_of_unity()
    rows = zeta_multiples(f, integer_row((f.one(), z), 2)[0], 2)
    assert _int_rref(rows, 4) == ([[1, 0, 0, 1], [0, 1, -1, -1]], [0, 1])
    space = Subspace(f, 2, [(z, z * z)])
    assert space.pivots == (0,) and space.basis == ((f.one(), z),)
    assert MatrixExact(f, [[f.one(), z], [z * z, f.one()]]).rank() == 1


def test_rational_rows_descend_to_degree_one():
    # rational vectors over Q(zeta_3) are eliminated at deg = 1 and
    # read back as Scalars of the field, padded to its degree
    f = FieldSpec(3)
    vec = (f.from_rational(2), f.one())
    space = Subspace(f, 2, [vec])
    assert space.basis == ((f.one(), f.from_rational(Fraction(1, 2))),)
    assert space.basis[0][1].num == (1, 0) and space.basis[0][1].den == 2
    assert space.basis == dense_oracle.span(f, 2, [vec])[0]


def _routes(field, n, vectors, outside):
    """One span built by every constructor of Subspace: Scalar vectors,
    integer rows, Echelon, spin, Zassenhaus intersection and kernel.
    outside holds two vectors independent of each other and of the
    span, so (span + u) & (span + w) is the span again."""
    deg = field.degree
    span = Echelon(field, n)
    for v in vectors:
        span.add(v)
    grown = [Subspace(field, n, [*vectors, w]) for w in outside]
    complement = MatrixExact(field, vectors).kernel()
    return {
        "vectors": Subspace(field, n, vectors),
        "rows": Subspace.from_rows(
            field, n, [integer_row(v, deg)[0] for v in vectors], deg),
        "echelon": span.subspace(),
        "spin": spin(field, n, [MatrixExact.identity(field, n)], vectors),
        "intersect": grown[0].intersect(grown[1]),
        "kernel": MatrixExact(field, complement.basis).kernel(),
    }


def test_every_route_gives_one_canonical_subspace():
    q, k = RATIONALS, FieldSpec(3)
    z = k.root_of_unity()

    def vec(f, *xs):
        return tuple(x if not isinstance(x, int) else f.from_rational(x)
                     for x in xs)

    cases = [
        (q, [vec(q, 2, 4, 0, 1), vec(q, 1, 2, 1, 0)],
         [vec(q, 0, 1, 0, 0), vec(q, 0, 0, 0, 1)]),
        (k, [vec(k, 1, z, 0, 2), vec(k, 0, 1, z * z, 1)],
         [vec(k, 1, 0, 0, 0), vec(k, 0, 0, 0, 1)]),
        # irrational generators of a span with a rational basis
        (k, [vec(k, z, 0, z, 0), vec(k, 0, 1 + z, 1 + z, 1 + z)],
         [vec(k, 1, 0, 0, 0), vec(k, 0, 1, 0, 0)]),
    ]
    for field, vectors, outside in cases:
        built = _routes(field, 4, vectors, outside)
        first = built["vectors"]
        assert first.dim == 2
        assert (first.basis, first.pivots) == dense_oracle.span(
            field, 4, vectors)
        for route, sub in built.items():
            assert sub == first, route
            assert hash(sub) == hash(first), route
            assert sub.basis == first.basis, route
            assert sub.deg == first.deg, route
    # the last span descends to Q: its rows are the rational ones
    assert first.deg == 1 and first == Subspace(
        k, 4, [vec(k, 1, 0, 1, 0), vec(k, 0, 1, 1, 1)])
