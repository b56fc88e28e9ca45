"""Multilinear polynomials in free Lie and associative algebras with
group-decorated variables.

A Lie monomial is a bracket tree whose leaves are decorated variables
("v", index, group element); internal nodes are ("b", left, right).
Brackets of three or more arguments normalize left to right, so
[x, y, z] means [[x, y], z].  An associative word is a tuple of
(index, group element) pairs.  Polynomials are dicts mapping monomial
keys to nonzero Scalars, which makes equality structural.

Permutations act by renaming variable indices.  They are stored as
tuples p of length n with p[i - 1] the image of i, composition
(tau sigma)(i) = tau(sigma(i)).
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations as iter_permutations, product

from codimlab.scalar import FieldSpec, parse_rational
from codimlab.symmetry import FiniteGroup


# -- monomial keys ----------------------------------------------------


def leaf(var: int, gelt: int = 0):
    return ("v", var, gelt)


def node(left, right):
    return ("b", left, right)


def tree_variables(tree) -> list[int]:
    if tree[0] == "v":
        return [tree[1]]
    return tree_variables(tree[1]) + tree_variables(tree[2])


@dataclass(frozen=True)
class LeftNormedMonomial:
    """[x_{vars[0]}^{g_0}, x_{vars[1]}^{g_1}, ...] normalized left."""

    vars: tuple
    gelts: tuple

    def __post_init__(self):
        if len(self.vars) != len(self.gelts):
            raise ValueError("decoration length mismatch")

    @property
    def degree(self):
        return len(self.vars)

    def to_tree(self):
        cur = leaf(self.vars[0], self.gelts[0])
        for v, g in zip(self.vars[1:], self.gelts[1:]):
            cur = node(cur, leaf(v, g))
        return cur


def spanning_monomials(n: int, group: FiniteGroup):
    """Lazy stream of the n! |G|^n left-normed monomials spanning the
    multilinear component, lexicographic in (permutation, decorations).
    """
    if n < 1:
        raise ValueError("degree must be at least 1")
    for perm in iter_permutations(range(1, n + 1)):
        for gs in product(range(group.order), repeat=n):
            yield LeftNormedMonomial(perm, gs)


# -- polynomial containers -------------------------------------------


def poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, c in b.items():
        cur = out.get(k)
        val = c if cur is None else cur + c
        if val:
            out[k] = val
        elif k in out:
            del out[k]
    return out


def poly_scale(a: dict, c) -> dict:
    if not c:
        return {}
    return {k: c * v for k, v in a.items()}


def _map_tree_vars(tree, mapping):
    if tree[0] == "v":
        return ("v", mapping.get(tree[1], tree[1]), tree[2])
    return ("b", _map_tree_vars(tree[1], mapping),
            _map_tree_vars(tree[2], mapping))


def permute(poly: dict, perm) -> dict:
    """Rename variable i to perm[i - 1] throughout.

    permute(permute(f, s), t) == permute(f, compose(t, s)).
    """
    mapping = {i + 1: image for i, image in enumerate(perm)}
    out = {}
    for key, c in poly.items():
        if key == ():
            new = key
        elif key[0] in ("v", "b"):
            new = _map_tree_vars(key, mapping)
        else:
            new = tuple((mapping.get(v, v), g) for v, g in key)
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


def perm_sign(p) -> int:
    seen = [False] * len(p)
    sign = 1
    for i in range(len(p)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = p[j] - 1
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def identity_perm(n):
    return tuple(range(1, n + 1))


def alternate(poly: dict, var_set, n: int, field: FieldSpec) -> dict:
    """Sum of sign(s) s(poly) over permutations of var_set, identity
    elsewhere."""
    var_set = tuple(var_set)
    out = {}
    for images in iter_permutations(var_set):
        perm = list(range(1, n + 1))
        for src, dst in zip(var_set, images):
            perm[src - 1] = dst
        perm = tuple(perm)
        sgn = field.from_rational(perm_sign(perm))
        out = poly_add(out, poly_scale(permute(poly, perm), sgn))
    return out


# -- group algebra of S_n --------------------------------------------


def ga_unit(n):
    return {identity_perm(n): Fraction(1)}


def ga_scale(a, c):
    c = Fraction(c)
    if not c:
        return {}
    return {p: c * v for p, v in a.items()}


def ga_mul(a, b):
    """Convolution product; (sum a_p p)(sum b_q q) = sum a_p b_q (pq)."""
    out = {}
    for p, cp in a.items():
        for q, cq in b.items():
            r = compose(p, q)
            val = out.get(r, Fraction(0)) + cp * cq
            if val:
                out[r] = val
            elif r in out:
                del out[r]
    return out


def ga_apply(element: dict, poly: dict, field: FieldSpec) -> dict:
    out = {}
    for p, c in element.items():
        out = poly_add(out, poly_scale(permute(poly, p),
                                       field.from_rational(c)))
    return out


def _perms_of_blocks(blocks, n):
    """All permutations fixing everything outside the blocks and
    permuting each block within itself."""
    out = []
    for choice in product(*(list(iter_permutations(b)) for b in blocks)):
        perm = list(range(1, n + 1))
        for block, images in zip(blocks, choice):
            for src, dst in zip(block, images):
                perm[src - 1] = dst
        out.append(tuple(perm))
    return out


def young_symmetrizer(tableau, kind="e", n=None):
    """Young symmetrizer of a tableau (tuple of row tuples of variable
    indices).

    kind "e" gives a_T b_T (row sum times signed column sum), kind
    "e_star" the reversed product b_T a_T.  Both are quasi-idempotent:
    squaring scales by n! / dim of the shape.
    """
    rows = tuple(tuple(r) for r in tableau)
    entries = [x for r in rows for x in r]
    if n is None:
        n = len(entries)
    if sorted(entries) != list(range(1, len(entries) + 1)):
        raise ValueError("tableau must contain 1..n exactly once")
    ncols = max((len(r) for r in rows), default=0)
    cols = [tuple(r[c] for r in rows if len(r) > c)
            for c in range(ncols)]
    a_t = {}
    for p in _perms_of_blocks(rows, n):
        a_t[p] = a_t.get(p, Fraction(0)) + 1
    b_t = {}
    for p in _perms_of_blocks(cols, n):
        b_t[p] = b_t.get(p, Fraction(0)) + perm_sign(p)
    if kind == "e":
        return ga_mul(a_t, b_t)
    if kind == "e_star":
        return ga_mul(b_t, a_t)
    raise ValueError("kind must be 'e' or 'e_star'")


# -- parser -----------------------------------------------------------

_TOKEN = re.compile(r"""
    (?P<num>\d+(?:/\d+)?)
  | (?P<var>x\d+)
  | (?P<caret>\^)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*(?:\^\d+)?)
  | (?P<op>[\[\](),*+-])
  | (?P<ws>\s+)
""", re.VERBOSE)


class ParseError(ValueError):
    pass


def _tokenize(text):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"bad character at offset {pos}: "
                             f"{text[pos:pos + 10]!r}")
        pos = m.end()
        if m.lastgroup != "ws":
            out.append((m.lastgroup, m.group()))
    out.append(("end", ""))
    return out


class _Parser:
    """Recursive descent over the small expression grammar.

    mode "lie" expands multi-argument brackets left-normed and forbids
    juxtaposition; mode "assoc" concatenates juxtaposed factors.
    """

    def __init__(self, tokens, group, field, mode):
        self.toks = tokens
        self.i = 0
        self.group = group
        self.field = field
        self.mode = mode

    def peek(self):
        return self.toks[self.i]

    def take(self, kind=None):
        tok = self.toks[self.i]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind}, got {tok[1]!r}")
        self.i += 1
        return tok

    def parse_poly(self):
        sign = 1
        if self.peek() == ("op", "-"):
            self.take()
            sign = -1
        out = poly_scale(self.parse_term(),
                         self.field.from_rational(sign))
        while self.peek()[1] in ("+", "-") and self.peek()[0] == "op":
            op = self.take()[1]
            term = self.parse_term()
            if op == "-":
                term = poly_scale(term, self.field.from_rational(-1))
            out = poly_add(out, term)
        return out

    def parse_term(self):
        coeff = None
        if self.peek()[0] == "num":
            num = self.take()[1]
            if self.peek() != ("op", "*"):
                raise ParseError("a number must multiply a factor"
                                 " with '*'")
            self.take()
            coeff = self.field.from_rational(parse_rational(num))
        out = self.parse_factor_chain()
        if coeff is not None:
            out = poly_scale(out, coeff)
        return out

    def parse_factor_chain(self):
        out = self.parse_factor()
        while True:
            kind, text = self.peek()
            if kind in ("var",) or (kind == "op" and text in "[("):
                if self.mode != "assoc":
                    raise ParseError(
                        "juxtaposition only makes sense for associative"
                        " polynomials")
                nxt = self.parse_factor()
                out = self._concat(out, nxt)
            else:
                return out

    def _concat(self, a, b):
        out = {}
        for wa, ca in a.items():
            for wb, cb in b.items():
                key = wa + wb
                val = out.get(key)
                c = ca * cb
                out[key] = c if val is None else val + c
        return {k: v for k, v in out.items() if v}

    def parse_factor(self):
        kind, text = self.peek()
        if kind == "var":
            return self.parse_var()
        if (kind, text) == ("op", "("):
            self.take()
            inner = self.parse_poly()
            if self.take("op")[1] != ")":
                raise ParseError("expected ')'")
            return inner
        if (kind, text) == ("op", "["):
            self.take()
            args = [self.parse_poly()]
            while self.peek() == ("op", ","):
                self.take()
                args.append(self.parse_poly())
            if self.take("op")[1] != "]":
                raise ParseError("expected ']'")
            if len(args) < 2:
                raise ParseError("brackets take at least two arguments")
            out = args[0]
            for arg in args[1:]:
                out = self._bracket(out, arg)
            return out
        raise ParseError(f"unexpected token {text!r}")

    def _bracket(self, a, b):
        if self.mode != "lie":
            raise ParseError("brackets only make sense for Lie"
                             " polynomials")
        out = {}
        for ta, ca in a.items():
            for tb, cb in b.items():
                key = node(ta, tb)
                val = out.get(key)
                c = ca * cb
                out[key] = c if val is None else val + c
        return {k: v for k, v in out.items() if v}

    def parse_var(self):
        text = self.take("var")[1]
        var = int(text[1:])
        if var < 1:
            raise ParseError("variable indices start at 1")
        gelt = 0
        if self.peek() == ("caret", "^"):
            self.take()
            name = self.take("ident")[1]
            try:
                gelt = self.group.index_of(name)
            except KeyError as exc:
                raise ParseError(str(exc)) from None
        if self.mode == "lie":
            return {leaf(var, gelt): self.field.one()}
        return {((var, gelt),): self.field.one()}


def parse(text: str, group: FiniteGroup = None,
          field: FieldSpec = None, mode: str = "lie") -> dict:
    """Parse an expression into a polynomial dict.

    Raises ParseError with an offset hint on malformed input.
    """
    from codimlab.scalar import RATIONALS
    if group is None:
        group = FiniteGroup.trivial()
    if field is None:
        field = RATIONALS
    tokens = _tokenize(text)
    parser = _Parser(tokens, group, field, mode)
    out = parser.parse_poly()
    if parser.peek()[0] != "end":
        raise ParseError(
            f"trailing input at token {parser.peek()[1]!r}")
    return out


def format_poly(poly: dict, group: FiniteGroup) -> str:
    """Stable textual form, inverse of parse up to term order."""
    if not poly:
        return "0"
    parts = []
    for key in sorted(poly, key=_key_sort):
        c = poly[key]
        body = _format_key(key, group)
        parts.append((c, body))
    out = []
    for c, body in parts:
        r = c.as_rational()
        if r == 1:
            frag = body
        elif r == -1:
            frag = f"-{body}"
        elif r is not None:
            from codimlab.scalar import format_rational
            frag = f"{format_rational(r)}*{body}"
        else:
            frag = f"({c!r})*{body}"
        out.append(frag)
    text = out[0]
    for frag in out[1:]:
        text += f" - {frag[1:]}" if frag.startswith("-") else f" + {frag}"
    return text


def _key_sort(key):
    return repr(key)


def _format_key(key, group):
    if key == ():
        return "1"
    if key[0] == "v":
        _, var, g = key
        return f"x{var}" if g == 0 else f"x{var}^{group.names[g]}"
    if key[0] == "b":
        args = []
        cur = key
        while cur[0] == "b":
            args.append(cur[2])
            cur = cur[1]
        args.append(cur)
        args.reverse()
        inner = ", ".join(_format_key(a, group) for a in args)
        return f"[{inner}]"
    return " ".join(_format_key(("v", v, g), group) for v, g in key)
