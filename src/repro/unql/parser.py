r"""Parser for the UnQL select/where surface syntax.

Grammar (whitespace-insensitive)::

    query     := 'select' construct ('where' clause (',' clause)*)?
    clause    := pattern 'in' source        -- a binding
               | condition
    source    := IDENT | '\' IDENT
    pattern   := '{' member (',' member)* '}'
    member    := edgespec ':' target
    edgespec  := '\' IDENT                  -- label variable
               | PATHREGEX                  -- see repro.automata.regex
    target    := '\' IDENT | pattern | literal
    condition := TYPECHECK '(' '\' IDENT ')'
               | operand 'like' STRING
               | operand OP operand         -- OP in = != < <= > >=
    operand   := '\' IDENT | literal
    construct := catom ('union' catom)*
    catom     := '{' cmember (',' cmember)* '}' | '\' IDENT | literal | '(' construct ')'
    cmember   := clabel ':' construct
    clabel    := IDENT | `backquoted` | STRING | NUMBER | '\' IDENT
    literal   := STRING | NUMBER | 'true' | 'false'

The edge specification inside a pattern member is handed verbatim to the
path-regex parser, so every general path expression (``Entry.Movie``,
``#``, ``(!Movie)*`` ...) works as an edge constraint.
"""

from __future__ import annotations

from ..automata.regex import parse_path_regex
from ..core.cursor import Cursor
from ..core.labels import Label, boolean, integer, real, string, sym
from .ast import (
    Binding,
    Comparison,
    Condition,
    Construct,
    ConstructLabel,
    ConstructLiteral,
    ConstructTree,
    ConstructUnion,
    ConstructVar,
    LabelVarEdge,
    LikeCondition,
    LiteralTarget,
    NestedPattern,
    Pattern,
    PatternMember,
    Query,
    RegexEdge,
    TreeVar,
    TypeCheck,
)

__all__ = ["parse_query", "UnqlSyntaxError"]


class UnqlSyntaxError(ValueError):
    """Raised on malformed UnQL query text."""


_TYPE_CHECKS = {"isint", "isreal", "isstring", "isbool", "issymbol", "isleaf"}


class _P(Cursor):
    error = UnqlSyntaxError

    def number(self) -> Label:
        self.skip_ws()
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        while self.pos < len(self.text) and (
            self.text[self.pos].isdigit() or self.text[self.pos] in ".eE"
        ):
            self.pos += 1
        text = self.text[start : self.pos]
        try:
            if any(c in text for c in ".eE"):
                return real(float(text))
            return integer(int(text))
        except ValueError:
            raise self.err(f"bad number {text!r}") from None

    def literal(self) -> Label:
        ch = self.peek()
        if ch in "\"'":
            return string(self.quoted())
        if self.accept_word("true"):
            return boolean(True)
        if self.accept_word("false"):
            return boolean(False)
        if ch.isdigit() or ch == "-":
            return self.number()
        raise self.err("expected a literal")

    # -- query ------------------------------------------------------------------

    def query(self) -> Query:
        self.eat_word("select")
        construct = self.construct()
        bindings: list[Binding] = []
        conditions: list[Condition] = []
        if self.accept_word("where"):
            while True:
                if self.peek() == "{":
                    bindings.append(self.binding())
                else:
                    conditions.append(self.condition())
                if not self.accept(","):
                    break
        self.end()
        if not bindings and conditions:
            raise UnqlSyntaxError("conditions require at least one binding clause")
        return Query(construct, tuple(bindings), tuple(conditions))

    # -- constructs --------------------------------------------------------------

    def construct(self) -> Construct:
        node = self.catom()
        while self.accept_word("union"):
            node = ConstructUnion(node, self.catom())
        return node

    def catom(self) -> Construct:
        ch = self.peek()
        if ch == "(":
            self.eat("(")
            node = self.construct()
            self.eat(")")
            return node
        if ch == "{":
            return self.construct_tree()
        if ch == "\\":
            self.eat("\\")
            return ConstructVar(self.ident())
        return ConstructLiteral(self.literal())

    def construct_tree(self) -> ConstructTree:
        self.eat("{")
        members: list[tuple[ConstructLabel, Construct]] = []
        if self.accept("}"):
            return ConstructTree(())
        while True:
            members.append((self.construct_label(), self._construct_value()))
            if not self.accept(","):
                self.eat("}")
                return ConstructTree(tuple(members))

    def _construct_value(self) -> Construct:
        self.eat(":")
        return self.construct()

    def construct_label(self) -> ConstructLabel:
        ch = self.peek()
        if ch == "\\":
            self.eat("\\")
            return ConstructLabel(var=self.ident())
        if ch == "`":
            self.pos += 1
            out = []
            while self.pos < len(self.text) and self.text[self.pos] != "`":
                out.append(self.text[self.pos])
                self.pos += 1
            if self.pos >= len(self.text):
                raise self.err("unterminated `symbol`")
            self.pos += 1
            return ConstructLabel(label=sym("".join(out)))
        if ch in "\"'":
            return ConstructLabel(label=string(self.quoted()))
        if ch.isdigit() or ch == "-":
            return ConstructLabel(label=self.number())
        return ConstructLabel(label=sym(self.ident()))

    # -- patterns ---------------------------------------------------------------------

    def binding(self) -> Binding:
        pattern = self.pattern()
        self.eat_word("in")
        if self.accept("\\"):
            return Binding(pattern, self.ident(), source_is_var=True)
        return Binding(pattern, self.ident(), source_is_var=False)

    def pattern(self) -> Pattern:
        self.eat("{")
        members: list[PatternMember] = []
        if self.accept("}"):
            return Pattern(())
        while True:
            members.append(self.pattern_member())
            if not self.accept(","):
                self.eat("}")
                return Pattern(tuple(members))

    def pattern_member(self) -> PatternMember:
        if self.accept("\\"):
            edge: "RegexEdge | LabelVarEdge" = LabelVarEdge(self.ident())
        else:
            edge = self.regex_edge()
        self.eat(":")
        return PatternMember(edge, self.target())

    def regex_edge(self) -> RegexEdge:
        """Scan the raw regex text up to the member's ``:`` and parse it."""
        self.skip_ws()
        start = self.pos
        in_quote: str | None = None
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if in_quote:
                if ch == "\\":
                    self.pos += 1  # skip the escaped char too
                elif ch == in_quote:
                    in_quote = None
            elif ch in "\"'`":
                in_quote = ch
            elif ch == ":":
                break
            self.pos += 1
        text = self.text[start : self.pos].strip()
        if not text:
            raise self.err("empty edge pattern")
        try:
            regex = parse_path_regex(text)
        except Exception as exc:
            raise UnqlSyntaxError(f"bad path pattern {text!r}: {exc}") from exc
        return RegexEdge(regex, text)

    def target(self):
        ch = self.peek()
        if ch == "\\":
            self.eat("\\")
            return TreeVar(self.ident())
        if ch == "{":
            return NestedPattern(self.pattern())
        return LiteralTarget(self.literal())

    # -- conditions ----------------------------------------------------------------------

    def condition(self) -> Condition:
        self.skip_ws()
        # type check: isint(\x)
        for fn in _TYPE_CHECKS:
            if self.accept_word(fn):
                self.eat("(")
                self.eat("\\")
                var = self.ident()
                self.eat(")")
                return TypeCheck(fn, var)
        left, left_is_var = self.operand()
        if self.at_word("like"):
            if not left_is_var:
                raise self.err("'like' needs a variable on the left")
            self.eat_word("like")
            ch = self.peek()
            if ch not in "\"'":
                raise self.err("'like' needs a quoted pattern")
            return LikeCondition(left, self.quoted())
        op = self.comparison("expected a comparison operator or 'like'")
        right, right_is_var = self.operand()
        return Comparison(left, op, right, left_is_var, right_is_var)

    def operand(self) -> tuple["str | Label", bool]:
        if self.accept("\\"):
            return self.ident(), True
        return self.literal(), False


def parse_query(text: str) -> Query:
    """Parse UnQL query text into a :class:`~repro.unql.ast.Query`."""
    return _P(text).query()
