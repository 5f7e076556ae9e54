"""SQL tokenizer.

Produces a flat token stream for the recursive-descent parser.  Keywords
are case-insensitive; identifiers are lower-cased.  Supports ``--`` line
comments, single-quoted strings with ``''`` escapes, and numeric literals
with optional decimal point.
"""

from __future__ import annotations

import enum
import re
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


#: Every token shape as one alternation, tried in this order at each
#: position.  A string is quote-delimited with ``''`` as an escaped quote;
#: a quote that closes no string is ``unterminated``.  Numbers are ASCII
#: (``\d`` would take ``²``, which ``int`` rejects); a dot is decimal
#: only with a digit after it, so ``t1.col`` is a qualified name.  A word
#: is ``\w`` (``str.isalnum`` or ``_``) after a non-digit first character,
#: which :func:`tokenize` further holds to ``str.isalpha`` or ``_``.
_TOKEN = re.compile(
    r"(?P<space>[ \t\r]+)"
    r"|(?P<newline>\n)"
    r"|(?P<comment>--[^\n]*)"
    r"|(?P<string>'[^']*(?:''[^']*)*'(?!'))"
    r"|(?P<unterminated>')"
    r"|(?P<number>[0-9]+(?:\.[0-9]+)?|\.[0-9]+)"
    r"|(?P<word>[^\W\d]\w*)"
    r"|(?P<symbol><=|>=|<>|!=|[=<>(),.+\-*/;])"
)


def tokenize(sql: str) -> List[Token]:
    """Tokenize ``sql``, raising :class:`SqlSyntaxError` on bad input.

    Lines advance only at a newline token, never inside a string.
    """
    tokens: List[Token] = []
    append = tokens.append
    match = _TOKEN.match
    pos = 0
    line = 1
    line_start = 0
    length = len(sql)
    while pos < length:
        found = match(sql, pos)
        kind = found.lastgroup if found is not None else None
        column = pos - line_start + 1
        if kind == "space" or kind == "comment":
            pass
        elif kind == "word":
            word = found.group()
            if not (word[0].isalpha() or word[0] == "_"):
                # ``²`` is \w but not a letter, so it starts no word.
                raise SqlSyntaxError(
                    f"unexpected character {word[0]!r}", line, column
                )
            word = word.lower()
            token_type = (
                TokenType.KEYWORD if word in KEYWORDS else TokenType.IDENT
            )
            append(Token(token_type, word, line, column))
        elif kind == "symbol":
            symbol = found.group()
            value = "<>" if symbol == "!=" else symbol
            append(Token(TokenType.SYMBOL, value, line, column))
        elif kind == "number":
            text = found.group()
            number: Union[int, float] = float(text) if "." in text else int(text)
            append(Token(TokenType.NUMBER, number, line, column))
        elif kind == "string":
            text = found.group()[1:-1].replace("''", "'")
            append(Token(TokenType.STRING, text, line, column))
        elif kind == "newline":
            line += 1
            line_start = pos + 1
        elif kind == "unterminated":
            raise SqlSyntaxError("unterminated string", line, column)
        else:
            raise SqlSyntaxError(
                f"unexpected character {sql[pos]!r}", line, column
            )
        pos = found.end()

    tokens.append(Token(TokenType.EOF, "", line, length - line_start + 1))
    return tokens
