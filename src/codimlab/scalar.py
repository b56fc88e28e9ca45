"""Exact scalars: rationals and cyclotomic field elements.

Ranks, subspace identities and codimension tables downstream are only
meaningful if arithmetic never rounds, so scalars are elements of the
quotient ring Q[x] / Phi_m(x), where Phi_m is the m-th cyclotomic
polynomial.  The rationals are the m = 1 case (Phi_1 = x - 1, degree 1).

A scalar is stored as integer numerators, one per power of x below the
degree of Phi_m, over one positive common denominator, in lowest terms.
Phi_m is monic, so reduction modulo Phi_m and the inverse (the product
of the other Galois conjugates over the norm) stay in the integers, and
each result is normalised once.  The Fraction coefficients are derived
on request, for readers at the boundary.

No floats appear anywhere in this module.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


@lru_cache(maxsize=None)
def euler_phi(m: int) -> int:
    if m < 1:
        raise ValueError("m must be positive")
    result = m
    p, n = 2, m
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1
    if n > 1:
        result -= result // n
    return result


def _divisors(m: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= m:
        if m % d == 0:
            small.append(d)
            if d != m // d:
                large.append(m // d)
        d += 1
    return small + large[::-1]


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials, low degree first, monic divisor."""
    num = list(num)
    dn, dd = len(num) - 1, len(den) - 1
    quot = [0] * (dn - dd + 1)
    for k in range(dn - dd, -1, -1):
        c = num[dd + k]
        quot[k] = c
        if c:
            for i, dc in enumerate(den):
                num[k + i] -= c * dc
    if any(num):
        raise ArithmeticError("division was not exact")
    return quot


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_m, constant term first, monic.

    Computed by dividing x^m - 1 by the product of Phi_d over proper
    divisors d of m.  Phi_1 = x - 1 seeds the recursion.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if m == 1:
        return (-1, 1)
    num = [0] * (m + 1)
    num[0], num[m] = -1, 1
    for d in _divisors(m):
        if d < m:
            num = _poly_div_exact(num, list(cyclotomic_polynomial(d)))
    return tuple(num)


@lru_cache(maxsize=None)
def _powers(order: int) -> tuple[tuple[int, ...], ...]:
    """x^j mod Phi_order for j = 0 .. order - 1, as integer vectors.

    Phi_order is monic, so every power has integer coefficients, and it
    divides x^order - 1, so x^j reduces like x^(j mod order)."""
    phi = cyclotomic_polynomial(order)
    cur = [1] + [0] * (len(phi) - 2)
    out = []
    for _ in range(order):
        out.append(tuple(cur))
        # x * cur, with x^deg = -(phi[0] + phi[1] x + ...)
        lead = cur[-1]
        cur = [0] + cur[:-1]
        if lead:
            cur = [c - lead * p for c, p in zip(cur, phi)]
    return tuple(out)


@lru_cache(maxsize=None)
def _reduction_rows(order: int) -> tuple[tuple[int, ...], ...]:
    # row r = x^(deg + r) reduced mod Phi_order, for the degrees a
    # product of two reduced elements can reach
    powers = _powers(order)
    deg = len(powers[0])
    return tuple(powers[(deg + r) % order] for r in range(deg - 1))


def _mul_mod(a, b, order: int) -> list[int]:
    """Product of two integer coefficient vectors modulo Phi_order."""
    deg = len(a)
    prod = [0] * (2 * deg - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    out = prod[:deg]
    for c, row in zip(prod[deg:], _reduction_rows(order)):
        if c:
            for k, rk in enumerate(row):
                out[k] += c * rk
    return out


def _conjugate(a, k: int, order: int) -> list[int]:
    """The Galois conjugate zeta -> zeta^k of an integer vector."""
    powers = _powers(order)
    out = [0] * len(a)
    for i, c in enumerate(a):
        if c:
            for t, p in enumerate(powers[i * k % order]):
                out[t] += c * p
    return out


@dataclass(frozen=True)
class FieldSpec:
    """The coefficient field: Q when order == 1, else Q adjoined a
    primitive root of unity of the given order."""

    order: int = 1

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("field order must be a positive integer")

    @property
    def degree(self) -> int:
        return 1 if self.order == 1 else euler_phi(self.order)

    def zero(self) -> "Scalar":
        return _make(self, (0,) * self.degree, 1)

    def one(self) -> "Scalar":
        return _make(self, (1,) + (0,) * (self.degree - 1), 1)

    def from_rational(self, value) -> "Scalar":
        if type(value) is int:
            num, den = value, 1
        else:
            value = Fraction(value)
            num, den = value.numerator, value.denominator
        return _make(self, (num,) + (0,) * (self.degree - 1), den)

    def scalar(self, coeffs) -> "Scalar":
        cs = list(coeffs)
        if len(cs) != self.degree:
            raise ValueError(
                f"expected {self.degree} coefficients, got {len(cs)}")
        if all(type(c) is int for c in cs):
            return _make(self, tuple(cs), 1)
        cs = [Fraction(c) for c in cs]
        den = lcm(*(c.denominator for c in cs))
        return _reduced(self, [c.numerator * (den // c.denominator)
                               for c in cs], den)

    def root_of_unity(self, k: int = 1) -> "Scalar":
        """zeta^k for zeta a fixed primitive root of order `order`,
        namely the class of x in Q[x]/Phi_order."""
        return _make(self, _powers(self.order)[k % self.order], 1)

    def __str__(self):
        return "Q" if self.order == 1 else f"Q(zeta_{self.order})"


RATIONALS = FieldSpec(1)


class Scalar:
    """Element of FieldSpec: integer numerators num, one per power of
    zeta below the field degree, over one common denominator den > 0,
    in lowest terms (gcd(num..., den) = 1).  Immutable; made by the
    FieldSpec methods and by arithmetic."""

    __slots__ = ("field", "num", "den")

    def __setattr__(self, *a):
        raise AttributeError("Scalar is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients of 1, zeta, zeta^2, ... as Fractions."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.field != self.field:
                raise ValueError(
                    f"field mismatch: {self.field} vs {other.field}")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    def _combine(self, other, sign: int):
        """self + sign * other, on integers over den * other.den."""
        o = (other if type(other) is Scalar and other.field is self.field
             else self._coerce(other))
        if o is None:
            return NotImplemented
        a, da, b, db = self.num, self.den, o.num, o.den
        sa = sign * da
        if len(a) == 1:
            return _reduced(self.field, (a[0] * db + b[0] * sa,), da * db)
        return _reduced(self.field, [x * db + y * sa for x, y in zip(a, b)],
                        da * db)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.field, tuple(-c for c in self.num), self.den)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = (other if type(other) is Scalar and other.field is self.field
             else self._coerce(other))
        if o is None:
            return NotImplemented
        a, b = self.num, o.num
        d = self.den * o.den
        if len(a) == 1:
            return _reduced(self.field, (a[0] * b[0],), d)
        return _reduced(self.field, _mul_mod(a, b, self.field.order), d)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        a = self.num
        if not any(a):
            raise ZeroDivisionError("scalar is zero")
        if len(a) == 1:
            n = a[0]
            return _make(self.field, (self.den if n > 0 else -self.den,),
                         abs(n))
        # a times the product of its other Galois conjugates is the
        # norm of a, a nonzero integer, so 1/a = that product / norm;
        # the norm is positive, as the conjugates come in complex
        # conjugate pairs when the degree is above 1
        order = self.field.order
        rest = [1] + [0] * (len(a) - 1)
        for k in range(2, order):
            if gcd(k, order) == 1:
                rest = _mul_mod(rest, _conjugate(a, k, order), order)
        norm = _mul_mod(a, rest, order)[0]
        return _reduced(self.field, [self.den * c for c in rest], norm)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        out = self.field.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __bool__(self):
        return self.num[0] != 0 or any(self.num)

    def __eq__(self, other):
        if type(other) is Scalar:
            return (self.num == other.num and self.den == other.den
                    and (self.field is other.field
                         or self.field == other.field))
        if isinstance(other, int):
            n, d = other, 1
        elif isinstance(other, Fraction):
            n, d = other.numerator, other.denominator
        else:
            return NotImplemented
        return self.num[0] == n and self.den == d and not any(self.num[1:])

    def __hash__(self):
        # equal values hash alike: a rational value like the int or
        # Fraction it equals, any other like its Fraction tuple, where
        # an int hashes like the Fraction of the same value
        num, den = self.num, self.den
        if not any(num[1:]):
            return hash(num[0]) if den == 1 else hash(Fraction(num[0], den))
        return hash((self.field, num if den == 1 else self.coeffs))

    def as_rational(self) -> Fraction | None:
        """The value as a Fraction if it lies in Q, else None."""
        if any(self.num[1:]):
            return None
        return Fraction(self.num[0], self.den)

    def __repr__(self):
        if self.field.order == 1 or not any(self.num[1:]):
            return str(self.as_rational())
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                z = f"z{k}" if k > 1 else "z"
                parts.append(f"{c}*{z}" if c != 1 else z)
        return " + ".join(parts)


# Results are built through the slot descriptors, which bypass the
# __setattr__ that keeps Scalar immutable.
_set_field = Scalar.field.__set__
_set_num = Scalar.num.__set__
_set_den = Scalar.den.__set__
_new = object.__new__


def _make(field: FieldSpec, num: tuple, den: int) -> Scalar:
    """A Scalar from numerators and denominator already in normal form."""
    s = _new(Scalar)
    _set_field(s, field)
    _set_num(s, num)
    _set_den(s, den)
    return s


def _reduced(field: FieldSpec, num, den: int) -> Scalar:
    """A Scalar from integer numerators over a positive denominator."""
    g = gcd(den, *num)
    if g != 1:
        return _make(field, tuple(c // g for c in num), den // g)
    return _make(field, tuple(num), den)


def zeta_multiples(field: FieldSpec, row, deg: int):
    """The integer rows zeta^j v, j < deg, of a vector v given as an
    integer row of blocks of deg coefficients (integer_row's layout),
    by zeta^deg = -(phi[0] + ... + phi[deg - 1] zeta^(deg - 1)) for phi
    the cyclotomic polynomial of the field."""
    phi = cyclotomic_polynomial(field.order)
    rows = [row]
    for _ in range(1, deg):
        v = rows[-1]
        rows.append([(v[i - 1] if i % deg else 0)
                     - v[i - i % deg + deg - 1] * phi[i % deg]
                     for i in range(len(v))])
    return rows


def realified_degree(field: FieldSpec, values) -> int:
    """The deg of integer rows over Q built from the values: 1 when
    every value is rational (descent: rational rows have the same rank
    and the same reduced echelon form over the field), else the field
    degree."""
    if field.degree > 1 and any(any(x.num[1:]) for x in values):
        return field.degree
    return 1


def integer_row(values, deg: int):
    """(row, den) for Scalars of one field: den is their least common
    denominator and row[k * deg + t] the coefficient of zeta^t in
    den * values[k], t < deg, for deg the field degree or their
    realified_degree."""
    values = tuple(values)
    den = lcm(*(x.den for x in values))
    return [c * (den // x.den) for x in values for c in x.num[:deg]], den


def row_scalars(field: FieldSpec, row, den: int, deg: int):
    """The Scalars row[k * deg : (k + 1) * deg] / den, for den > 0: the
    inverse of integer_row.  A row at deg = 1 (over Q, or rational by
    realified_degree) is read one entry per Scalar, padded with zeros
    to the field degree, which is the fast path for every row over Q."""
    zero = field.zero()
    if deg == 1:
        pad = (0,) * (field.degree - 1)
        return tuple(_reduced(field, (c, *pad), den) if c else zero
                     for c in row)
    return tuple(_reduced(field, row[i:i + deg], den)
                 if any(row[i:i + deg]) else zero
                 for i in range(0, len(row), deg))


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" with integer p, q.  Rejects floats."""
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def format_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
