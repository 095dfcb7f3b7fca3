"""Parser for the Lorel-style concrete syntax.

Grammar::

    query    := 'select' item (',' item)*
                'from' fromcl (',' fromcl)*
                ('where' predicate)?
    item     := pathref ('as' IDENT)?
    fromcl   := pathref IDENT
    pathref  := IDENT ('.' PATHREGEX)?
    predicate:= disj
    disj     := conj ('or' conj)*
    conj     := unit ('and' unit)*
    unit     := 'not' unit | '(' predicate ')' | 'exists' pathref
              | operand OP operand | operand 'like' STRING
    operand  := pathref | STRING | NUMBER | 'true' | 'false'

The path part after the first dot is handed to the shared path-regex
grammar, so ``DB.Entry(.Movie)?.Title``-style general path expressions and
``%`` wildcards work exactly as in the paper's Lorel examples.

One concession to the regex embedding: comparison operators must be
surrounded by whitespace (``m.Year > 1950``), because ``<``, ``>`` and
``!`` are meaningful *inside* path expressions (``<int>``, ``!Movie``) and
a path is delimited by the first top-level whitespace.
"""

from __future__ import annotations

from ..automata.regex import parse_path_regex
from ..core.cursor import Cursor
from .ast import (
    BoolOp,
    Compare,
    ExistsPredicate,
    FromClause,
    LikePredicate,
    LiteralOperand,
    LorelQuery,
    NotOp,
    PathOperand,
    SelectItem,
)

__all__ = ["parse_lorel", "LorelSyntaxError"]


class LorelSyntaxError(ValueError):
    """Raised on malformed Lorel query text."""


_KEYWORDS = {"select", "from", "where", "and", "or", "not", "as", "like", "exists", "true", "false"}


class _P(Cursor):
    error = LorelSyntaxError

    # -- path references ----------------------------------------------------------

    def pathref(self) -> PathOperand:
        base = self.ident()
        if base.lower() in _KEYWORDS:
            raise self.err(f"{base!r} cannot start a path")
        if self.peek() != ".":
            return PathOperand(base, None, "")
        self.pos += 1  # the dot
        start = self.pos
        depth = 0
        in_quote: str | None = None
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if in_quote:
                if ch == "\\":
                    self.pos += 1
                elif ch == in_quote:
                    in_quote = None
            elif ch in "\"'`":
                in_quote = ch
            elif ch == "(":
                depth += 1
            elif ch == ")":
                if depth == 0:
                    break
                depth -= 1
            elif ch == "," and depth == 0:
                break
            elif ch.isspace() and depth == 0:
                break
            self.pos += 1
        text = self.text[start : self.pos].strip()
        if not text:
            raise self.err("empty path after '.'")
        try:
            regex = parse_path_regex(text)
        except Exception as exc:
            raise LorelSyntaxError(f"bad path {text!r}: {exc}") from exc
        return PathOperand(base, regex, text)

    # -- operands -------------------------------------------------------------------

    def operand(self):
        ch = self.peek()
        if ch in "\"'":
            return LiteralOperand(self.quoted())
        if ch.isdigit() or ch == "-":
            return LiteralOperand(self.number())
        if self.accept_word("true"):
            return LiteralOperand(True)
        if self.accept_word("false"):
            return LiteralOperand(False)
        return self.pathref()

    def number(self):
        self.skip_ws()
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        seen_dot = False
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch.isdigit():
                self.pos += 1
            elif ch == "." and not seen_dot and self.pos + 1 < len(self.text) and self.text[self.pos + 1].isdigit():
                seen_dot = True
                self.pos += 1
            else:
                break
        text = self.text[start : self.pos]
        try:
            return float(text) if seen_dot else int(text)
        except ValueError:
            raise self.err(f"bad number {text!r}") from None

    # -- predicates -------------------------------------------------------------------

    def predicate(self):
        node = self.conj()
        while self.accept_word("or"):
            node = BoolOp("or", node, self.conj())
        return node

    def conj(self):
        node = self.unit()
        while self.accept_word("and"):
            node = BoolOp("and", node, self.unit())
        return node

    def unit(self):
        if self.accept_word("not"):
            return NotOp(self.unit())
        if self.peek() == "(":
            self.pos += 1
            node = self.predicate()
            self.eat(")")
            return node
        if self.accept_word("exists"):
            return ExistsPredicate(self.pathref())
        left = self.operand()
        if self.accept_word("like"):
            return LikePredicate(left, self.quoted())
        op = self.comparison("expected a comparison, 'like', or boolean operator")
        return Compare(left, op, self.operand())

    # -- the query -------------------------------------------------------------------------

    def query(self) -> LorelQuery:
        self.eat_word("select")
        items = [self.select_item()]
        while self.peek() == ",":
            self.pos += 1
            items.append(self.select_item())
        self.eat_word("from")
        froms = [self.from_clause()]
        while self.peek() == ",":
            self.pos += 1
            froms.append(self.from_clause())
        where = None
        if self.accept_word("where"):
            where = self.predicate()
        self.end()
        return LorelQuery(tuple(items), tuple(froms), where)

    def select_item(self) -> SelectItem:
        operand = self.pathref()
        if self.accept_word("as"):
            return SelectItem(operand, self.ident())
        return SelectItem(operand)

    def from_clause(self) -> FromClause:
        ref = self.pathref()
        alias = self.ident()
        if alias.lower() in _KEYWORDS:
            raise self.err(f"{alias!r} cannot be an alias")
        return FromClause(ref.base, ref.path, ref.path_text, alias)


def parse_lorel(text: str) -> LorelQuery:
    """Parse Lorel query text into a :class:`~repro.lorel.ast.LorelQuery`."""
    return _P(text).query()
