from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from codimlab.scalar import (
    FieldSpec,
    RATIONALS,
    cyclotomic_polynomial,
    euler_phi,
    format_rational,
    parse_rational,
)


def test_euler_phi_small():
    assert [euler_phi(m) for m in range(1, 13)] == [
        1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_cyclotomic_polynomials_known():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    # degree 4 with a zero middle: x^4 - x^2 + 1
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_product_recovers_x_m_minus_1():
    # independent check of the division route: multiplying Phi_d over
    # all divisors d of m must give back x^m - 1
    for m in (6, 8, 12):
        prod = [1]
        for d in range(1, m + 1):
            if m % d == 0:
                phi = cyclotomic_polynomial(d)
                out = [0] * (len(prod) + len(phi) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(phi):
                        out[i + j] += a * b
                prod = out
        expected = [0] * (m + 1)
        expected[0], expected[m] = -1, 1
        assert prod == expected


def test_root_of_unity_has_exact_order():
    for m in (2, 3, 4, 6, 12):
        f = FieldSpec(m)
        z = f.root_of_unity()
        assert z ** m == f.one()
        for k in range(1, m):
            assert z ** k != f.one()


def test_zeta6_cubed_is_minus_one():
    f = FieldSpec(6)
    z = f.root_of_unity()
    assert z ** 3 == f.from_rational(-1)


def test_inverse_of_one_plus_zeta3():
    f = FieldSpec(3)
    z = f.root_of_unity()
    v = f.one() + z
    w = v.inverse()
    assert v * w == f.one()
    # 1 + zeta = -zeta^2, whose inverse is -zeta since zeta^3 = 1
    assert w == -z


def test_rational_arithmetic():
    f = RATIONALS
    a = f.from_rational(Fraction(2, 3))
    b = f.from_rational(Fraction(-1, 6))
    assert a + b == Fraction(1, 2)
    assert a * b == Fraction(-1, 9)
    assert (a / b) == -4
    assert a - a == 0
    assert bool(a) and not bool(a - a)


def test_field_mismatch_rejected():
    a = FieldSpec(3).one()
    b = FieldSpec(4).one()
    with pytest.raises(ValueError):
        a + b


def test_parse_and_format_rational():
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational(" 5 ") == 5
    assert format_rational(Fraction(-3, 4)) == "-3/4"
    assert format_rational(Fraction(8, 2)) == "4"
    with pytest.raises(ValueError):
        parse_rational("0.5")


small_rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=12)


@st.composite
def cyclotomic_scalars(draw, order):
    f = FieldSpec(order)
    coeffs = draw(st.lists(small_rationals,
                           min_size=f.degree, max_size=f.degree))
    return f.scalar(coeffs)


@given(cyclotomic_scalars(6), cyclotomic_scalars(6), cyclotomic_scalars(6))
def test_field_axioms_order6(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a + (-a) == FieldSpec(6).zero()


@given(cyclotomic_scalars(12))
def test_inverse_roundtrip_order12(a):
    if a:
        assert a * a.inverse() == FieldSpec(12).one()


@given(small_rationals, small_rationals)
def test_rational_agrees_with_fraction(x, y):
    f = RATIONALS
    assert (f.from_rational(x) * f.from_rational(y)).as_rational() == x * y
    assert (f.from_rational(x) + f.from_rational(y)).as_rational() == x + y


# -- differential test of the integer kernel ---------------------------
#
# The oracle keeps a scalar as its tuple of Fraction coefficients and
# multiplies as polynomials over Fraction, reducing modulo Phi_m from
# the top degree down; its inverse solves the multiplication matrix by
# Gauss-Jordan elimination over Fraction.

KERNEL_ORDERS = (1, 2, 3, 4, 5, 6, 8, 12)


def o_mul(a, b, m):
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    prod = [Fraction(0)] * (2 * deg - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for top in range(len(prod) - 1, deg - 1, -1):
        c = prod[top]
        for i, p in enumerate(phi):
            prod[top - deg + i] -= c * p
    return tuple(prod[:deg])


def o_inv(a, m):
    deg = len(a)
    units = [tuple(Fraction(int(i == j)) for i in range(deg))
             for j in range(deg)]
    cols = [o_mul(a, e, m) for e in units]
    aug = [[cols[j][i] for j in range(deg)] + [units[0][i]]
           for i in range(deg)]
    for c in range(deg):
        p = next(r for r in range(c, deg) if aug[r][c])
        aug[c], aug[p] = aug[p], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for r in range(deg):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return tuple(row[deg] for row in aug)


def o_pow(a, e, m):
    if e < 0:
        return o_pow(o_inv(a, m), -e, m)
    out = (Fraction(1),) + (Fraction(0),) * (len(a) - 1)
    for _ in range(e):
        out = o_mul(out, a, m)
    return out


def o_repr(a, m):
    if m == 1 or not any(a[1:]):
        return str(a[0])
    parts = []
    for k, c in enumerate(a):
        if c:
            z = f"z{k}" if k > 1 else "z"
            parts.append(str(c) if k == 0 else
                         (f"{c}*{z}" if c != 1 else z))
    return " + ".join(parts)


def in_normal_form(s):
    return s.den > 0 and gcd(s.den, *s.num) == 1 \
        and all(type(c) is int for c in s.num + (s.den,))


kernel_rationals = st.fractions(min_value=-6, max_value=6,
                                max_denominator=8)


@st.composite
def kernel_cases(draw):
    m = draw(st.sampled_from(KERNEL_ORDERS))
    f = FieldSpec(m)
    # mostly-zero coefficient vectors reach rational values, units and
    # zero often enough to exercise the special cases
    coeff = st.one_of(st.just(Fraction(0)), kernel_rationals)
    vecs = [tuple(draw(st.lists(coeff, min_size=f.degree,
                                max_size=f.degree))) for _ in range(2)]
    r = draw(kernel_rationals)
    return m, vecs[0], vecs[1], r, draw(st.integers(-4, 4))


@settings(max_examples=300, deadline=None)
@given(kernel_cases())
def test_kernel_matches_fraction_oracle(case):
    m, a, b, r, e = case
    f = FieldSpec(m)
    x, y = f.scalar(a), f.scalar(b)
    zero = (Fraction(0),) * f.degree
    rat = (r,) + zero[1:]
    results = {
        "x": (x, a),
        "+": (x + y, tuple(p + q for p, q in zip(a, b))),
        "-": (x - y, tuple(p - q for p, q in zip(a, b))),
        "neg": (-x, tuple(-p for p in a)),
        "*": (x * y, o_mul(a, b, m)),
        "r+": (x + r, tuple(p + q for p, q in zip(a, rat))),
        "+r": (r + x, tuple(p + q for p, q in zip(a, rat))),
        "r-": (x - r, tuple(p - q for p, q in zip(a, rat))),
        "-r": (r - x, tuple(q - p for p, q in zip(a, rat))),
        "*r": (r * x, o_mul(a, rat, m)),
        "i*": (x * 3, o_mul(a, (Fraction(3),) + zero[1:], m)),
        "i-": (2 - x, tuple(q - p for p, q in
                            zip(a, (Fraction(2),) + zero[1:]))),
    }
    if any(b):
        results["/"] = (x / y, o_mul(a, o_inv(b, m), m))
        results["inv"] = (y.inverse(), o_inv(b, m))
        results["r/"] = (r / y, o_mul(rat, o_inv(b, m), m))
    else:
        with pytest.raises(ZeroDivisionError):
            y.inverse()
        with pytest.raises(ZeroDivisionError):
            x / y
        with pytest.raises(ZeroDivisionError):
            1 / y
    if r:
        results["/r"] = (x / r, tuple(p / r for p in a))
    if any(a) or e >= 0:
        results["**"] = (x ** e, o_pow(a, e, m))
    for name, (got, want) in results.items():
        assert got.field == f, name
        assert got.coeffs == want, name
        assert in_normal_form(got), name
        assert bool(got) == any(want), name
        assert repr(got) == o_repr(want, m), name
        rational = not any(want[1:])
        assert got.as_rational() == (want[0] if rational else None), name
        assert (got.den == 1 and rational) == (
            rational and want[0].denominator == 1), name
        assert (got == want[0]) == rational, name
        if rational:
            assert hash(got) == hash(want[0]), name
        if rational and want[0].denominator == 1:
            assert got == int(want[0]), name
        # the same value built another way: equal, with an equal hash
        again = f.scalar(want)
        assert got == again and hash(got) == hash(again), name
        assert (got == x) == (want == a), name
    assert x + y == y + x and hash(x * y) == hash(y * x)


@given(st.sampled_from(KERNEL_ORDERS), st.sampled_from(KERNEL_ORDERS))
def test_kernel_field_mismatch(m, k):
    x, y = FieldSpec(m).one(), FieldSpec(k).one()
    if m == k:
        assert x == y
        return
    assert x != y
    for op in (lambda: x + y, lambda: x - y, lambda: x * y,
               lambda: x / y, lambda: y - x):
        with pytest.raises(ValueError):
            op()


def test_kernel_hash_matches_fraction_tuples():
    # equal values hash alike however they were reached, and the hash
    # is a function of the value alone, so no output can follow the
    # hash seed: that of (field, Fraction coefficients) off Q, and
    # that of the Fraction on Q
    f = FieldSpec(3)
    z = f.root_of_unity()
    for s in (z, z * z, f.scalar([Fraction(1, 2), Fraction(5, 6)])):
        assert hash(s) == hash((s.field, s.coeffs))
    for s in (f.zero(), f.one(), f.from_rational(Fraction(-2, 3)),
              RATIONALS.from_rational(7)):
        assert hash(s) == hash(s.as_rational())
    assert hash((z + 1) * (z + 1)) == hash(z)


@pytest.mark.parametrize("order", KERNEL_ORDERS)
def test_equal_values_hash_alike(order):
    # a Scalar equal to an int or a Fraction finds it as a dict key,
    # and the other way round
    f = FieldSpec(order)
    z = f.root_of_unity()
    for value in (0, 3, -7, Fraction(1, 2), Fraction(-5, 3)):
        s = f.from_rational(value)
        assert s == value and hash(s) == hash(value)
        assert {s: 1}.get(value) == 1 and {value: 1}.get(s) == 1
    # rational values reached through zeta
    assert {3: 1}.get(z * 0 + 3) == 1
    assert {Fraction(1, 2): 1}.get((z - z + 1) / 2) == 1
    assert {RATIONALS.from_rational(3): 1}.get(3) == 1


def test_kernel_scalar_is_immutable():
    s = FieldSpec(3).scalar([Fraction(4, -8), Fraction(6, 8)])
    assert (s.num, s.den) == ((-2, 3), 4)
    for name, value in (("den", 1), ("num", (1, 0)), ("field", RATIONALS)):
        with pytest.raises(AttributeError):
            setattr(s, name, value)
    assert (s.num, s.den) == ((-2, 3), 4)
