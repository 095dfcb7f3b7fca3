r"""Surface syntax for deep restructuring: the ``traverse`` statement.

Section 3 credits UnQL with restructurings that select/where cannot
express -- "deleting/collapsing edges with a certain property, relabeling
edges", short-circuiting paths.  The library operations live in
:mod:`repro.unql.restructure`; this module gives them a concrete syntax so
the CLI and scripts can use them without writing Python::

    traverse db replace Movie => Film
    traverse db replace "Bacall" => "Bergman" under Cast
    traverse db delete keyword            -- drop edge and subtree
    traverse db collapse wrapper          -- drop edge, keep children
    traverse db shortcut Part over Subpart

Labels follow the usual convention: bare identifiers are symbols, quoted
text is string data, numbers are numeric labels.  One statement per call;
the result is a new graph (sources are never mutated).
"""

from __future__ import annotations

from ..core.cursor import Cursor
from ..core.graph import Graph
from ..core.labels import Label, boolean, integer, real, string, sym
from .restructure import collapse_edges, drop_edges, fix_bacall, relabel, short_circuit

__all__ = ["traverse", "TraverseSyntaxError"]


class TraverseSyntaxError(ValueError):
    """Raised on malformed traverse statements."""


class _P(Cursor):
    def err(self, message: str) -> TraverseSyntaxError:
        return TraverseSyntaxError(f"{message} in {self.text!r}")

    def label(self) -> Label:
        ch = self.peek()
        if ch in "\"'":
            return string(self.quoted())
        if ch == "`":
            self.pos += 1
            end = self.text.find("`", self.pos)
            if end < 0:
                raise self.err("unterminated `symbol`")
            name = self.text[self.pos : end]
            self.pos = end + 1
            return sym(name)
        if ch.isdigit() or ch == "-":
            start = self.pos
            if ch == "-":
                self.pos += 1
            dotted = False
            while self.pos < len(self.text) and (
                self.text[self.pos].isdigit()
                or (self.text[self.pos] == "." and not dotted)
            ):
                dotted = dotted or self.text[self.pos] == "."
                self.pos += 1
            text = self.text[start : self.pos]
            try:
                return real(float(text)) if dotted else integer(int(text))
            except ValueError:
                raise self.err(f"bad number {text!r}") from None
        token = self.ident("a word")
        if token == "true":
            return boolean(True)
        if token == "false":
            return boolean(False)
        return sym(token)

    def keyword(self, *options: str) -> str:
        save = self.pos
        token = self.ident("a word").lower()
        if token not in options:
            self.pos = save
            raise self.err(f"expected one of {options}, got {token!r}")
        return token



def traverse(statement: str, **sources: Graph) -> Graph:
    """Parse and run one traverse statement against a named source.

    >>> from repro.core.builder import from_obj, to_obj
    >>> g = from_obj({"Movie": {"Title": "Casablanca"}})
    >>> out = traverse("traverse db replace Movie => Film", db=g)
    >>> to_obj(out)
    {'Film': {'Title': 'Casablanca'}}
    """
    p = _P(statement)
    p.keyword("traverse")
    source_name = p.ident("a word")
    try:
        graph = sources[source_name]
    except KeyError:
        raise TraverseSyntaxError(
            f"no database named {source_name!r} was supplied"
        ) from None
    op = p.keyword("replace", "delete", "collapse", "shortcut")
    if op == "replace":
        old = p.label()
        p.eat("=>")
        new = p.label()
        scope: "Label | None" = None
        if p.peek():
            p.keyword("under")
            scope = p.label()
            p.end()
            return fix_bacall(graph, old, new, scope)
        return relabel(graph, lambda lab: new if lab == old else lab)
    if op == "delete":
        target = p.label()
        p.end()
        return drop_edges(graph, lambda lab, view: lab == target)
    if op == "collapse":
        target = p.label()
        p.end()
        return collapse_edges(graph, lambda lab, view: lab == target)
    # shortcut
    first = p.label()
    p.keyword("over")
    second = p.label()
    p.end()
    return short_circuit(graph, first, second)
