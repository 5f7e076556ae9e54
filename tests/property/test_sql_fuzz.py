"""Property tests: hostile SQL text never escapes the front end raw.

Whatever the text, ``tokenize`` and ``parse`` either succeed or raise a
:class:`~repro.common.errors.SqlError`; ``try_sql`` then classifies the
failure.  The pinned cases are non-ASCII digits: ``str.isdigit`` accepts
``²``, and the number token used to hand it to ``int``/``float``, which
raised a bare ``ValueError``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import PRESETS
from repro.common.errors import SqlError, SqlSyntaxError
from repro.core.cluster import IgniteCalciteCluster, QueryStatus
from repro.sql.lexer import tokenize
from repro.sql.parser import parse

#: SQL-shaped pieces, so generated text gets past the lexer and into the
#: parser's grammar, interleaved with characters ``isdigit`` misreads.
PIECES = (
    "select ", "from ", "where ", "group by ", "order by ", "limit ",
    "join ", "on ", "and ", "or ", "not ", "in ", "between ", "like ",
    "case ", "when ", "then ", "else ", "end ", "as ", "interval ",
    "date ", "extract(", "count(*)", "sum(", "t", "a", "b.", "(", ")",
    ",", "=", "<", "+", "-", "*", "/", ";", "'x'", "'", "1", "2.5", ".",
    "1.", ".5", " ", "\n", "²", "½", "٣", "1.²", "--", "!=",
)

sql_text = st.one_of(
    st.text(max_size=40),
    st.lists(st.sampled_from(PIECES), max_size=25).map("".join),
)


@given(sql_text)
@settings(max_examples=400, deadline=None)
def test_tokenize_raises_only_sql_errors(text):
    try:
        tokenize(text)
    except SqlError:
        pass


@given(sql_text)
@settings(max_examples=400, deadline=None)
def test_parse_raises_only_sql_errors(text):
    try:
        parse(text)
    except SqlError:
        pass


@pytest.mark.parametrize(
    "text,column",
    [("select ²", 8), ("select 1.²", 10), ("select .²", 9), ("select ٣", 8)],
)
def test_non_ascii_digits_are_unexpected_characters(text, column):
    with pytest.raises(SqlSyntaxError, match="unexpected character") as info:
        tokenize(text)
    assert (info.value.line, info.value.column) == (1, column)


@pytest.mark.parametrize("text", ["select ²", "select 1.²"])
def test_try_sql_classifies_non_ascii_digits(text):
    outcome = IgniteCalciteCluster(PRESETS["IC+"](2)).try_sql(text)
    assert outcome.status is QueryStatus.ERROR
    assert isinstance(outcome.error, SqlSyntaxError)
