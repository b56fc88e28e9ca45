"""Multilinear polynomials in free Lie and associative algebras with
group-decorated variables.

A Lie monomial is a bracket tree whose leaves are decorated variables
("v", index, group element); internal nodes are ("b", left, right).
Brackets of three or more arguments normalize left to right, so
[x, y, z] means [[x, y], z].  An associative word is a tuple of
(index, group element) pairs.  Polynomials are dicts mapping monomial
keys to nonzero Scalars, which makes equality structural.

Lie trees are parsed from text (the identity check reads them);
associative words are printed (the alternating constructions build
them).

Permutations are stored as tuples p of length n with p[i - 1] the
image of i.
"""
from __future__ import annotations

import re

from codimlab.scalar import (RATIONALS, FieldSpec, format_rational,
                             parse_rational)
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
    """Recursive descent over the small Lie expression grammar;
    multi-argument brackets expand left-normed."""

    def __init__(self, tokens, group, field):
        self.toks = tokens
        self.i = 0
        self.group = group
        self.field = field

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
            try:
                coeff = self.field.from_rational(parse_rational(num))
            except ZeroDivisionError:
                raise ParseError(f"zero denominator in {num}") from None
        out = self.parse_factor()
        if coeff is not None:
            out = poly_scale(out, coeff)
        return out

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
        return {leaf(var, gelt): self.field.one()}


def parse(text: str, group: FiniteGroup = None,
          field: FieldSpec = None) -> dict:
    """Parse a Lie expression into a polynomial dict of bracket trees.

    Raises ParseError with an offset hint on malformed input; a
    juxtaposition such as "x1 x2" is trailing input.
    """
    if group is None:
        group = FiniteGroup.trivial()
    if field is None:
        field = RATIONALS
    tokens = _tokenize(text)
    parser = _Parser(tokens, group, field)
    out = parser.parse_poly()
    if parser.peek()[0] != "end":
        raise ParseError(
            f"trailing input at token {parser.peek()[1]!r}")
    return out


def format_poly(poly: dict, group: FiniteGroup) -> str:
    """Stable textual form of a polynomial in words: letters joined by
    spaces, the empty word as 1, terms in a fixed order."""
    if not poly:
        return "0"
    frags = []
    for word in sorted(poly, key=repr):
        c = poly[word]
        body = " ".join(f"x{v}" if g == 0 else f"x{v}^{group.names[g]}"
                        for v, g in word) or "1"
        r = c.as_rational()
        if r == 1:
            frags.append(body)
        elif r == -1:
            frags.append(f"-{body}")
        elif r is not None:
            frags.append(f"{format_rational(r)}*{body}")
        else:
            frags.append(f"({c!r})*{body}")
    text = frags[0]
    for frag in frags[1:]:
        text += f" - {frag[1:]}" if frag.startswith("-") else f" + {frag}"
    return text
