"""The token stream of every TPC-H and SSB query, pinned.

``tests/golden/token-streams.json`` holds, per query, the number of
tokens and the sha256 of the stream written one token a line as
``type, value (repr), line, column``.  A lexer change that only makes
tokenizing faster leaves it untouched.  To accept an intended change::

    PYTHONPATH=src python -m pytest tests/unit/test_token_streams.py \
        --snapshot-update
"""

import hashlib
import json
from pathlib import Path

from repro.bench.ssb import SSB_QUERIES
from repro.bench.tpch import QUERIES
from repro.sql.lexer import tokenize

GOLDEN = Path(__file__).resolve().parent.parent / "golden" / "token-streams.json"


def stream_text(sql: str) -> str:
    return "".join(
        f"{token.type.value}\t{token.value!r}\t{token.line}\t{token.column}\n"
        for token in tokenize(sql)
    )


def build_streams() -> str:
    queries = {f"tpch/{spec.name}": spec.sql for spec in QUERIES.values()}
    queries.update({f"ssb/{qid}": spec.sql for qid, spec in SSB_QUERIES.items()})
    cells = {}
    for name, sql in sorted(queries.items()):
        text = stream_text(sql)
        cells[name] = {
            "tokens": text.count("\n"),
            "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        }
    return json.dumps(cells, indent=1, sort_keys=True) + "\n"


def test_token_streams_are_byte_identical(snapshot_update):
    actual = build_streams()
    if snapshot_update:
        GOLDEN.write_text(actual, encoding="utf-8")
        return
    expected = GOLDEN.read_text(encoding="utf-8")
    if actual != expected:
        want, got = json.loads(expected), json.loads(actual)
        moved = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
        raise AssertionError(f"token stream moved for {moved}")
