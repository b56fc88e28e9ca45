from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from codimlab.free_polys import (
    ParseError,
    format_poly,
    leaf,
    node,
    parse,
    perm_sign,
    poly_add,
    poly_scale,
)
from codimlab.scalar import RATIONALS
from codimlab.symmetry import FiniteGroup
from helpers import alternate, compose, permute
from multilinear_oracle import LeftNormedMonomial


def test_left_normed_tree():
    m = LeftNormedMonomial((2, 1, 3), (0, 0, 0))
    assert m.to_tree() == node(node(leaf(2), leaf(1)), leaf(3))


def test_parse_simple_bracket():
    p = parse("[x1, x2]")
    assert p == {node(leaf(1), leaf(2)): RATIONALS.one()}


def test_parse_left_normed_expansion():
    assert parse("[x1, x2, x3]") == parse("[[x1, x2], x3]")


def test_parse_coefficients_and_signs():
    p = parse("2*[x1, x2] - [x2, x1]")
    assert p == {node(leaf(1), leaf(2)): RATIONALS.from_rational(2),
                 node(leaf(2), leaf(1)): RATIONALS.from_rational(-1)}
    q = parse("1/2*[x1, x2]")
    assert q[node(leaf(1), leaf(2))] == RATIONALS.from_rational(
        Fraction(1, 2))


def test_parse_decorations():
    g = FiniteGroup.cyclic(2, gen_name="psi")
    p = parse("[x1 + x1^psi, x2]", group=g)
    assert p == {node(leaf(1, 0), leaf(2)): RATIONALS.one(),
                 node(leaf(1, 1), leaf(2)): RATIONALS.one()}
    g3 = FiniteGroup.cyclic(3, gen_name="tau")
    q = parse("[x1^tau^2, x2]", group=g3)
    assert q == {node(leaf(1, 2), leaf(2)): RATIONALS.one()}


def test_parse_multilinear_bilinearity():
    # brackets distribute over sums
    assert parse("[x1 + x2, x3]") == poly_add(
        parse("[x1, x3]"), parse("[x2, x3]"))


def test_parse_errors():
    with pytest.raises(ParseError):
        parse("[x1]")
    with pytest.raises(ParseError, match="trailing input"):
        parse("x1 x2")          # no juxtaposition in a Lie expression
    with pytest.raises(ParseError, match="trailing input"):
        parse("(x1 + x2) x3")
    with pytest.raises(ParseError):
        parse("[x1, x2] extra")
    with pytest.raises(ParseError):
        parse("2 [x1, x2]")
    with pytest.raises(ParseError):
        parse("[x1^nosuch, x2]", group=FiniteGroup.cyclic(2))


def words(*terms):
    """A polynomial in words from (coefficient, word) pairs, a word
    being a tuple of variables, each decorated with the identity."""
    return {tuple((v, 0) for v in w): RATIONALS.from_rational(Fraction(c))
            for c, w in terms}


def test_format_poly_words():
    g = FiniteGroup.cyclic(2, gen_name="psi")
    poly = {((1, 1), (2, 0)): RATIONALS.one(),
            ((2, 0), (1, 1)): RATIONALS.from_rational(-1),
            ((3, 0),): RATIONALS.from_rational(Fraction(-3, 4)),
            (): RATIONALS.from_rational(Fraction(1, 2))}
    assert format_poly(poly, g) == \
        "x1^psi x2 - x2 x1^psi - 3/4*x3 + 1/2*1"
    assert format_poly({}, g) == "0"


def test_permute_is_group_action():
    p = words((1, (1, 2, 3)), (2, (3, 1)), (-1, (2,)))
    s = (2, 1, 3)
    t = (1, 3, 2)
    lhs = permute(permute(p, s), t)
    rhs = permute(p, compose(t, s))
    assert lhs == rhs


def test_perm_sign():
    assert perm_sign((1, 2, 3)) == 1
    assert perm_sign((2, 1, 3)) == -1
    assert perm_sign((2, 3, 1)) == 1
    assert perm_sign((2, 1, 4, 3)) == 1


def test_alternate_kills_symmetric_part():
    alt = alternate(words((1, (1, 2))), (1, 2), 2, RATIONALS)
    # x1 x2 - x2 x1
    assert alt == poly_add(words((1, (1, 2))),
                           poly_scale(words((1, (2, 1))),
                                      RATIONALS.from_rational(-1)))
    sym = words((1, (1, 2)), (1, (2, 1)))
    assert alternate(sym, (1, 2), 2, RATIONALS) == {}


def test_alternate_degree_three():
    alt = alternate(words((1, (1, 2, 3))), (1, 2, 3), 3, RATIONALS)
    assert len(alt) == 6
    assert alt[words((1, (2, 1, 3))).popitem()[0]] == \
        RATIONALS.from_rational(-1)


@st.composite
def random_perm(draw, n=4):
    images = draw(st.permutations(list(range(1, n + 1))))
    return tuple(images)


@settings(max_examples=50, deadline=None)
@given(random_perm(), random_perm())
def test_sign_homomorphism(p, q):
    assert perm_sign(compose(p, q)) == perm_sign(p) * perm_sign(q)


@settings(max_examples=30, deadline=None)
@given(random_perm())
def test_ga_unit_acts_trivially(p):
    poly = words((1, (1, 2, 3, 4)), (2, (4, 2)), (-1, (3,)), (5, ()))
    assert permute(poly, (1, 2, 3, 4)) == poly
    moved = permute(poly, p)
    assert sorted(len(k) for k in moved) == sorted(len(k) for k in poly)
