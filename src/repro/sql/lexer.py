"""SQL tokenizer.

Produces a flat token stream for the recursive-descent parser.  Keywords
are case-insensitive; identifiers are lower-cased.  Supports ``--`` line
comments, single-quoted strings with ``''`` escapes, and numeric literals
with optional decimal point.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Union

from repro.common.errors import SqlSyntaxError


class TokenType(enum.Enum):
    KEYWORD = "keyword"
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    SYMBOL = "symbol"
    EOF = "eof"


KEYWORDS = frozenset(
    """
    select from where group by having order asc desc limit offset as and or not
    in exists between like is null case when then else end join inner left
    outer on distinct count sum avg min max extract year month substring
    for create view true false union all date interval explain analyze
    """.split()
)

#: Number tokens are ASCII: ``str.isdigit`` accepts ``²``, which ``int`` rejects.
DIGITS = frozenset("0123456789")

SYMBOLS = ("<=", ">=", "<>", "!=", "=", "<", ">", "(", ")", ",", ".", "+", "-", "*", "/", ";")


@dataclass(frozen=True)
class Token:
    type: TokenType
    value: Union[str, int, float]
    line: int
    column: int

    def is_keyword(self, word: str) -> bool:
        return self.type is TokenType.KEYWORD and self.value == word

    def __str__(self) -> str:  # pragma: no cover - error messages
        return f"{self.value!r}"


def tokenize(sql: str) -> List[Token]:
    """Tokenize ``sql``, raising :class:`SqlSyntaxError` on bad input."""
    tokens: List[Token] = []
    pos = 0
    line = 1
    line_start = 0
    length = len(sql)

    def column() -> int:
        return pos - line_start + 1

    while pos < length:
        ch = sql[pos]
        if ch == "\n":
            line += 1
            pos += 1
            line_start = pos
            continue
        if ch in " \t\r":
            pos += 1
            continue
        if ch == "-" and pos + 1 < length and sql[pos + 1] == "-":
            while pos < length and sql[pos] != "\n":
                pos += 1
            continue
        if ch == "'":
            start_col = column()
            pos += 1
            chunks: List[str] = []
            while True:
                if pos >= length:
                    raise SqlSyntaxError("unterminated string", line, start_col)
                if sql[pos] == "'":
                    if pos + 1 < length and sql[pos + 1] == "'":
                        chunks.append("'")
                        pos += 2
                        continue
                    pos += 1
                    break
                chunks.append(sql[pos])
                pos += 1
            tokens.append(Token(TokenType.STRING, "".join(chunks), line, start_col))
            continue
        if ch in DIGITS or (ch == "." and sql[pos + 1:pos + 2] in DIGITS):
            start = pos
            start_col = column()
            seen_dot = False
            while pos < length and (sql[pos] in DIGITS or (sql[pos] == "." and not seen_dot)):
                if sql[pos] == ".":
                    # ``1.`` followed by an identifier is a qualified name,
                    # not a decimal; only treat the dot as decimal when a
                    # digit follows.
                    if sql[pos + 1:pos + 2] not in DIGITS:
                        break
                    seen_dot = True
                pos += 1
            text = sql[start:pos]
            value: Union[int, float] = float(text) if "." in text else int(text)
            tokens.append(Token(TokenType.NUMBER, value, line, start_col))
            continue
        if ch.isalpha() or ch == "_":
            start = pos
            start_col = column()
            while pos < length and (sql[pos].isalnum() or sql[pos] == "_"):
                pos += 1
            word = sql[start:pos].lower()
            kind = TokenType.KEYWORD if word in KEYWORDS else TokenType.IDENT
            tokens.append(Token(kind, word, line, start_col))
            continue
        matched = False
        for symbol in SYMBOLS:
            if sql.startswith(symbol, pos):
                value = "<>" if symbol == "!=" else symbol
                tokens.append(Token(TokenType.SYMBOL, value, line, column()))
                pos += len(symbol)
                matched = True
                break
        if not matched:
            raise SqlSyntaxError(f"unexpected character {ch!r}", line, column())

    tokens.append(Token(TokenType.EOF, "", line, column()))
    return tokens
