"""The lexical cursor the query-text parsers share.

Lorel, UnQL, datalog and ``traverse`` statements are parsed by hand-written
recursive-descent parsers over a string.  Each grammar is its own, but the
lexing under them is one: skip whitespace, peek a character, eat a token,
test for a whole keyword, read an identifier or a quoted string.  A parser
subclasses :class:`Cursor` and names its syntax error in ``error``.
"""

from __future__ import annotations

__all__ = ["Cursor", "COMPARISON_OPS"]

#: longest first, so ``<=`` is not read as ``<``
COMPARISON_OPS = ("!=", "<=", ">=", "=", "<", ">")


class Cursor:
    """A position in ``text`` and the lexical steps over it."""

    error: "type[ValueError]" = ValueError

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def err(self, message: str) -> ValueError:
        return self.error(f"{message} at position {self.pos} in {self.text!r}")

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def eat(self, token: str) -> None:
        self.skip_ws()
        if self.text[self.pos : self.pos + len(token)] != token:
            raise self.err(f"expected {token!r}")
        self.pos += len(token)

    def accept(self, token: str) -> bool:
        """Eat ``token`` if it is next; say whether it was."""
        self.skip_ws()
        if self.text[self.pos : self.pos + len(token)] == token:
            self.pos += len(token)
            return True
        return False

    def at_word(self, word: str) -> bool:
        """Whether the keyword ``word`` (any case) is next, as a whole word."""
        self.skip_ws()
        end = self.pos + len(word)
        if self.text[self.pos : end].lower() != word:
            return False
        return end >= len(self.text) or not (
            self.text[end].isalnum() or self.text[end] == "_"
        )

    def eat_word(self, word: str) -> None:
        if not self.at_word(word):
            raise self.err(f"expected keyword {word!r}")
        self.pos += len(word)

    def accept_word(self, word: str) -> bool:
        """Eat the keyword ``word`` if it is next; say whether it was."""
        if self.at_word(word):
            self.pos += len(word)
            return True
        return False

    def ident(self, what: str = "an identifier") -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        if start == self.pos:
            raise self.err(f"expected {what}")
        return self.text[start : self.pos]

    def quoted(self) -> str:
        """A ``"..."`` or ``'...'`` string; a backslash escapes the next
        character."""
        quote = self.peek()
        if quote not in "\"'":
            raise self.err("expected a quoted string")
        self.pos += 1
        out = []
        while True:
            if self.pos >= len(self.text):
                raise self.err("unterminated string")
            ch = self.text[self.pos]
            self.pos += 1
            if ch == quote:
                return "".join(out)
            if ch == "\\" and self.pos < len(self.text):
                ch = self.text[self.pos]
                self.pos += 1
            out.append(ch)

    def comparison(self, expected: str) -> str:
        """Eat the comparison operator that is next, else raise ``expected``."""
        self.skip_ws()
        for op in COMPARISON_OPS:
            if self.text[self.pos : self.pos + len(op)] == op:
                self.pos += len(op)
                return op
        raise self.err(expected)

    def end(self) -> None:
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.err("trailing input")
