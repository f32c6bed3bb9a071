"""Tiny expression language for building graphs on the command line.

Atoms:      K:n  Kbar:n  P:n  C:n  Q:d  circ:n:s1,s2,...  file:PATH
Operators:  cart(e,e)  weak(e,e)  lex(e,e)  glex(e,c,e)  join(e,e)
            doublecone(e;b=INT;alpha=REAL)  gluedcone(e;conn)
            cylcone(e;e;e)  p4(w=REAL[;loop=REAL])  scale(e;REAL)

b is the integer 0 or 1 (written 1 or 1.0, never 0.5); loop defaults to 0.
Whitespace is insignificant everywhere except inside a file path. Commas
separate homogeneous graph arguments; semicolons separate heterogeneous
ones. Inside a circulant connection set, a comma continues the set only
when an integer follows, so circ atoms compose cleanly with comma-separated
operator arguments.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Tuple, Union

from .cones import cylindrical_cone, double_cone, glued_double_cone, weighted_p4
from .errors import ExprError, GraphFormatError, InvalidSizeError
from .graphs import (
    Graph,
    circulant,
    complete,
    cycle,
    empty_graph,
    hypercube,
    join,
    parse_graph,
    path_graph,
    scale,
)
from .products import (
    cartesian_product,
    generalized_lexicographic_product,
    lexicographic_product,
    weak_product,
)

__all__ = ["GraphExpr", "parse_expr", "format_expr", "eval_expr"]

ParamValue = Union[int, float, str, Tuple[int, ...]]

# kind: (pattern, message, converter). In str patterns \s is str.isspace, \w is
# isalnum() or "_", and \d is isdecimal, the digits int() and float() read.
_TOKENS = {
    "name": (re.compile(r"\w+"), "expected a name", str),
    "uint": (re.compile(r"\d+"), "expected an integer", int),
    "real": (
        re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"), "expected a number", float
    ),
    "path": (re.compile(r"[^(),; \t\r\n]+"), "expected a file path", str),
}
_SPACE = re.compile(r"\s*")
_MORE_JUMPS = re.compile(r"\s*,\s*(?=\d)")


@dataclass(frozen=True)
class GraphExpr:
    op: str
    args: Tuple["GraphExpr", ...] = ()
    params: Tuple[Tuple[str, ParamValue], ...] = field(default_factory=tuple)

    def param(self, name: str) -> ParamValue:
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(name)


def _path(n: int) -> Graph:
    if n < 1:
        raise InvalidSizeError("P:n needs n >= 1")
    return path_graph([1.0] * (n - 1))


def _load_graph_file(path: str) -> Graph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise GraphFormatError(f"graph file not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"graph file is not UTF-8: {path} (byte {exc.start})") from None
    return parse_graph(text)


# head: (separator, items, builder); atoms (separator ":") read head:item:item,
# operators head(item<sep>item). An item is a nested expression _E or a parameter
# (key, kind[, default]) whose kind names the _TOKENS entry or _Parser method that
# reads it; a key ending in "=" is written key=value. The builder takes the items
# in order.
_E = ("", "expr")
_HEADS = {
    "K": (":", [("n", "uint")], complete),
    "Kbar": (":", [("n", "uint")], empty_graph),
    "P": (":", [("n", "uint")], _path),
    "C": (":", [("n", "uint")], cycle),
    "Q": (":", [("n", "uint")], hypercube),
    "circ": (":", [("n", "uint"), ("jumps", "jumps")], circulant),
    "file": (":", [("path", "path")], _load_graph_file),
    "cart": (",", [_E, _E], cartesian_product),
    "weak": (",", [_E, _E], weak_product),
    "lex": (",", [_E, _E], lexicographic_product),
    "join": (",", [_E, _E], join),
    "glex": (",", [_E, _E, _E], generalized_lexicographic_product),
    "doublecone": (";", [_E, ("b=", "integer"), ("alpha=", "real")], double_cone),
    "gluedcone": (";", [_E, _E], lambda g, conn: glued_double_cone(g, g, conn)),
    "cylcone": (";", [_E, _E, _E], cylindrical_cone),
    "p4": (";", [("w=", "real"), ("loop=", "real", 0.0)], weighted_p4),
    "scale": (";", [_E, ("factor", "real")], scale),
}
_FORMATS = {"real": lambda x: repr(float(x)), "jumps": lambda j: ",".join(map(str, j))}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str, pos: int | None = None) -> ExprError:
        return ExprError(message, self.pos if pos is None else pos)

    def skip_ws(self) -> None:
        self.pos = _SPACE.match(self.text, self.pos).end()

    def at(self, ch: str) -> bool:
        self.skip_ws()
        return self.text.startswith(ch, self.pos)

    def expect(self, ch: str) -> None:
        if not self.at(ch):
            raise self.error(f"expected '{ch}'")
        self.pos += 1

    def token(self, kind: str):
        pattern, message, convert = _TOKENS[kind]
        self.skip_ws()
        m = pattern.match(self.text, self.pos)
        # no character class is exactly isalpha: [^\W\d] also admits "²" and "½"
        if m is None or kind == "name" and not (m[0][0].isalpha() or m[0][0] == "_"):
            raise self.error(message)
        self.pos = m.end()
        return convert(m[0])

    def integer(self) -> int:
        """A number with an integral value, such as 1 or 1.0."""
        self.skip_ws()
        start = self.pos
        value = self.token("real")
        if not value.is_integer():
            raise self.error("expected an integer", start)
        return int(value)

    def jumps(self) -> Tuple[int, ...]:
        jumps = [self.token("uint")]
        # a comma not followed by a digit belongs to an enclosing argument list
        while m := _MORE_JUMPS.match(self.text, self.pos):
            self.pos = m.end()
            jumps.append(self.token("uint"))
        return tuple(jumps)

    def expr(self) -> GraphExpr:
        head = self.token("name")
        if head not in _HEADS:
            raise self.error(f"unknown name '{head}'", self.pos - len(head))
        sep, items, _ = _HEADS[head]
        self.expect(":" if sep == ":" else "(")
        args, params = [], []
        for i, (key, kind, *default) in enumerate(items):
            param = key.rstrip("=")
            if i:
                if default and not self.at(sep):
                    params.append((param, default[0]))
                    continue
                self.expect(sep)
            if param != key:
                got = self.token("name")
                if got != param:
                    raise self.error(f"expected parameter '{param}', got '{got}'")
                self.expect("=")
            value = self.token(kind) if kind in _TOKENS else getattr(self, kind)()
            if kind == "expr":
                args.append(value)
            else:
                params.append((param, value))
        if sep != ":":
            self.expect(")")
        return GraphExpr(head, tuple(args), tuple(params))


def parse_expr(text: str) -> GraphExpr:
    parser = _Parser(text)
    node = parser.expr()
    parser.skip_ws()
    if parser.pos != len(text):
        raise parser.error("unexpected trailing characters")
    return node


def _head(node: GraphExpr, verb: str):
    if node.op not in _HEADS:
        raise ValueError(f"{verb} node {node.op!r}")
    return _HEADS[node.op]


def _values(node: GraphExpr, items, visit) -> list:
    """Each item's value in table order, nested expressions through visit."""
    args = iter(node.args)
    return [visit(next(args)) if kind == "expr" else node.param(key.rstrip("="))
            for key, kind, *_ in items]


def format_expr(node: GraphExpr) -> str:
    """Canonical text form; parse(format_expr(e)) reproduces e."""
    sep, items, _ = _head(node, "unprintable")
    parts = [
        (key if key.endswith("=") else "") + _FORMATS.get(kind, str)(value)
        for (key, kind, *_), value in zip(items, _values(node, items, format_expr))
    ]
    if sep == ":":
        return node.op + ":" + ":".join(parts)
    return f"{node.op}(" + sep.join(parts) + ")"


def eval_expr(node: GraphExpr) -> Graph:
    _, items, build = _head(node, "unevaluable")
    return build(*_values(node, items, eval_expr))
