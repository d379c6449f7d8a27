"""Tokenizer shared by the polynomial syntax and the input file formats.

Tokens carry line/column information so parse errors can point at the
offending spot.  Comments run from ``#`` to end of line, except that a
quoted ``'#'`` is a string literal (the padding letter used by string
transducers).
"""

from __future__ import annotations

import re

from .errors import ParseError

# One alternative per token class, tried in this order at each position;
# the symbols are ordered so that the first match is the longest
# (maximal munch), multi-character operators first.
_TOKEN = re.compile(r"""
    (?P<newline>\n)
  | (?P<space>[ \t\r]+)
  | (?P<comment>\#[^\n]*)
  | (?P<string>'[^'\n]*'|"[^"\n]*")
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<sym>->|:=|-\[|\]->|[(){}\[\]+\-*/^=,;.:])
""", re.VERBOSE)


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind  # "ident" | "int" | "string" | "sym" | "eof"
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.col})"


def tokenize(text: str) -> list[Token]:
    """Tokens of ``text``, each matched by ``_TOKEN`` at the current
    position, then the end-of-input token.  A comment does not move the
    column; a string token's text is what lies between its quotes."""
    toks: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    match = _TOKEN.match
    while i < n:
        m = match(text, i)
        if m is None:
            ch = text[i]
            if ch in ("'", '"'):
                raise ParseError("unterminated string literal", line, col)
            raise ParseError(f"unexpected character {ch!r}", line, col)
        kind, j = m.lastgroup, m.end()
        if kind == "newline":
            line += 1
            col = 1
        elif kind == "string":
            toks.append(Token(kind, text[i + 1 : j - 1], line, col))
            col += j - i
        elif kind != "comment":
            if kind != "space":
                toks.append(Token(kind, m.group(), line, col))
            col += j - i
        i = j
    toks.append(Token("eof", "", line, col))
    return toks


class TokenStream:
    """Cursor over a token list with the usual peek/expect helpers."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        if self.at(kind, text):
            return self.next()
        return None

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.peek()
        if not self.at(kind, text):
            want = text if text is not None else kind
            raise ParseError(f"expected {want!r}, found {tok.text!r}", tok.line, tok.col)
        return self.next()

    def expect_eof(self) -> None:
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.col)
