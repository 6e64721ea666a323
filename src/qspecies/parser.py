"""Expression language for species: builtins, + * ^n, sym, E, plus, mark.

`*` binds tighter than `+`, `^` tighter than `*`; both + and * are
left-associative; whitespace is insignificant.
"""

from __future__ import annotations

import re

from .species import (Assembly, Builtin, Mark, Plus, Power, SpeciesExpr, Sum,
                      Product, BUILTINS, validate)


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_TOKEN = re.compile(r"\s*(?:(?P<name>[A-Za-z]\w*)|(?P<int>\d+)|(?P<sym>[+*^(),]))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos:].strip()[0]!r}",
                                 pos)
            break
        if m.lastgroup:
            tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, value: str | None = None):
        k, v, p = self.next()
        if k != kind or (value is not None and v != value):
            want = value if value is not None else kind
            raise ParseError(f"expected {want!r}, found {v or 'end of input'!r}", p)
        return v

    def parse(self) -> SpeciesExpr:
        e = self.expr()
        k, v, p = self.peek()
        if k != "eof":
            raise ParseError(f"unexpected {v!r}", p)
        return e

    def expr(self) -> SpeciesExpr:
        e = self.term()
        while self.peek()[:2] == ("sym", "+"):
            self.next()
            e = Sum(e, self.term())
        return e

    def term(self) -> SpeciesExpr:
        e = self.factor()
        while self.peek()[:2] == ("sym", "*"):
            self.next()
            e = Product(e, self.factor())
        return e

    def factor(self) -> SpeciesExpr:
        e = self.atom()
        while self.peek()[:2] == ("sym", "^"):
            self.next()
            k, v, p = self.next()
            if k != "int":
                raise ParseError("exponent must be an integer literal", p)
            e = Power(e, int(v))
        return e

    def atom(self) -> SpeciesExpr:
        k, v, p = self.next()
        if k == "sym" and v == "(":
            e = self.expr()
            self.expect("sym", ")")
            return e
        if k != "name":
            raise ParseError(f"expected a species, found {v or 'end of input'!r}", p)
        if v in ("E", "sym", "plus", "mark"):
            self.expect("sym", "(")
            n = None
            if v == "sym":
                ak, av, ap = self.next()
                if ak != "int":
                    raise ParseError("sym(n, expr) needs an integer first", ap)
                self.expect("sym", ",")
                n = int(av)
            inner = self.expr()
            self.expect("sym", ")")
            if v == "plus":
                return Plus(inner)
            if v == "mark":
                return Mark(inner)
            return Assembly(inner, n)
        if v in BUILTINS:
            if not BUILTINS[v].needs_arg:
                return Builtin(v)
            if self.peek()[:2] != ("sym", "("):
                raise ParseError(f"{v} requires an integer argument, e.g. {v}(1)", p)
            self.next()
            ak, av, ap = self.next()
            if ak != "int":
                raise ParseError(f"{v}(k) needs an integer argument", ap)
            self.expect("sym", ")")
            return Builtin(v, int(av))
        raise ParseError(f"unknown species {v!r}", p)


def parse(text: str) -> SpeciesExpr:
    """Parse and validate (the F[0] = empty check for sym/E operands)."""
    e = _Parser(text).parse()
    validate(e)
    return e


def render(e: SpeciesExpr, _prec: int = 0) -> str:
    """Canonical text form; parse(render(e)) reproduces e."""
    if isinstance(e, Builtin):
        return e.name if e.arg is None else f"{e.name}({e.arg})"
    if isinstance(e, Sum):
        # right child gets tighter context so nested right sums re-parse identically
        s = f"{render(e.left, 1)} + {render(e.right, 2)}"
        return f"({s})" if _prec > 1 else s
    if isinstance(e, Product):
        s = f"{render(e.left, 2)}*{render(e.right, 3)}"
        return f"({s})" if _prec > 2 else s
    if isinstance(e, Power):
        return f"{render(e.base, 3)}^{e.n}"
    if isinstance(e, Assembly):
        return f"E({render(e.base)})" if e.n is None else f"sym({e.n}, {render(e.base)})"
    if isinstance(e, Plus):
        return f"plus({render(e.base)})"
    if isinstance(e, Mark):
        return f"mark({render(e.base)})"
    raise TypeError(f"unknown species node {e!r}")
