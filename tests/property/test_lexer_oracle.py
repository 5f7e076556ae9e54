"""Property test: the master-regex lexer emits the oracle's token stream.

:func:`helpers.reference_tokenize` is the character loop ``tokenize``
replaced.  On any text both either produce the same tokens — type,
value, line and column — or raise :class:`SqlSyntaxError` with the same
message at the same line and column.
"""

from hypothesis import example, given, settings, strategies as st

from helpers import reference_tokenize
from repro.common.errors import SqlSyntaxError
from repro.sql.lexer import tokenize

#: Pieces at the edges of every token shape: escaped and unterminated
#: quotes, strings over a newline, dots next to digits, comments, two-char
#: symbols, non-ASCII digits and letters (``²`` is alphanumeric but no
#: letter, ``İ`` lower-cases to two characters, ``٣`` is a decimal digit).
PIECES = (
    "select ", "from ", "where ", "SeLeCt", "t", "a_1", "_x", "Name", "é",
    "İ", "ß", "x²", "²", "½", "٣", "Ⅻ", "1", "42", "007", "2.5", "1.", ".5",
    ".", "..", "1.2.3", "'", "''", "'x'", "'it''s'", "'a\nb'", "'''", "--",
    "-- note", "-", "!=", "!", "<=", ">=", "<>", "<", ">", "=", "(", ")", ",",
    "+", "*", "/", ";", "@", "#", " ", "\t", "\r", "\n", "\f", " ",
)

sql_text = st.one_of(
    st.text(max_size=40),
    st.lists(st.sampled_from(PIECES), max_size=30).map("".join),
)


def outcome(lex, text):
    try:
        return [
            (t.type, type(t.value), t.value, t.line, t.column)
            for t in lex(text)
        ]
    except SqlSyntaxError as exc:
        return ("error", str(exc.args[0]), exc.line, exc.column)


@given(sql_text)
@settings(max_examples=1500, deadline=None)
@example("'a\nb' x")
@example("'abc''")
@example("'a'''b'")
@example("select ²x")
@example("x\n  1.²")
@example("--")
def test_tokenize_matches_the_character_loop(text):
    assert outcome(tokenize, text) == outcome(reference_tokenize, text)
