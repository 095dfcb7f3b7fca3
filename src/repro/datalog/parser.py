"""Parser for the graph-datalog concrete syntax.

Syntax::

    program  := (rule)*
    rule     := atom ( ':-' bodyitem (',' bodyitem)* )? '.'
    bodyitem := ('not')? atom | term OP term
    atom     := IDENT '(' term (',' term)* ')'
    term     := VARIABLE        -- starts with an uppercase letter or _
              | NUMBER | STRING | lowercase identifier (a constant)

``%`` starts a comment running to end of line.
"""

from __future__ import annotations

from ..core.cursor import Cursor
from .ast import Atom, Comparison, Const, Program, Rule, Term, Var

__all__ = ["parse_program", "DatalogSyntaxError"]


class DatalogSyntaxError(ValueError):
    """Raised on malformed datalog source."""


class _P(Cursor):
    def err(self, message: str) -> DatalogSyntaxError:
        line = self.text.count("\n", 0, self.pos) + 1
        return DatalogSyntaxError(f"{message} (line {line})")

    def skip_ws(self) -> None:
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch.isspace():
                self.pos += 1
            elif ch == "%":
                while self.pos < len(self.text) and self.text[self.pos] != "\n":
                    self.pos += 1
            else:
                return

    def term(self) -> Term:
        ch = self.peek()
        if ch in "\"'":
            return Const(self.quoted())
        if ch.isdigit() or ch == "-":
            start = self.pos
            if ch == "-":
                self.pos += 1
            while self.pos < len(self.text):
                c = self.text[self.pos]
                if c.isdigit():
                    self.pos += 1
                elif (
                    c == "."
                    and self.pos + 1 < len(self.text)
                    and self.text[self.pos + 1].isdigit()
                ):
                    # a '.' is part of the number only when digits follow;
                    # otherwise it terminates the rule.
                    self.pos += 1
                else:
                    break
            text = self.text[start : self.pos]
            try:
                return Const(float(text) if "." in text else int(text))
            except ValueError:
                raise self.err(f"bad number {text!r}") from None
        name = self.ident()
        if name[0].isupper() or name[0] == "_":
            return Var(name)
        if name == "true":
            return Const(True)
        if name == "false":
            return Const(False)
        return Const(name)

    def atom(self, negated: bool = False) -> Atom:
        name = self.ident()
        if name[0].isupper():
            raise self.err(f"predicate names must be lowercase, got {name!r}")
        self.eat("(")
        terms = [self.term()]
        while self.accept(","):
            terms.append(self.term())
        self.eat(")")
        return Atom(name, tuple(terms), negated)

    def body_item(self):
        self.skip_ws()
        # 'not atom'
        if self.text[self.pos : self.pos + 3] == "not" and (
            self.pos + 3 < len(self.text) and self.text[self.pos + 3].isspace()
        ):
            self.pos += 3
            return self.atom(negated=True)
        # disambiguate atom vs comparison: parse a term; if '(' follows an
        # identifier it was a predicate.
        save = self.pos
        first = self.ident() if self.peek().isalpha() or self.peek() == "_" else None
        if first is not None and self.peek() == "(" and not first[0].isupper():
            self.pos = save
            return self.atom()
        self.pos = save
        left = self.term()
        op = self.comparison("expected a comparison operator")
        return Comparison(left, op, self.term())

    def rule(self) -> Rule:
        head = self.atom()
        if head.negated:
            raise self.err("rule heads cannot be negated")
        if self.accept(":-"):
            body = [self.body_item()]
            while self.accept(","):
                body.append(self.body_item())
            self.eat(".")
            return Rule(head, tuple(body))
        self.eat(".")
        return Rule(head)

    def program(self) -> Program:
        rules = []
        while True:
            self.skip_ws()
            if self.pos >= len(self.text):
                break
            rules.append(self.rule())
        if not rules:
            raise self.err("empty program")
        return Program(tuple(rules))


def parse_program(text: str) -> Program:
    """Parse datalog source text into a :class:`~repro.datalog.ast.Program`."""
    return _P(text).program()
