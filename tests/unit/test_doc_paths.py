"""Every test or bench file the prose documents name must exist.

A document that points a reader at ``tests/…py`` or ``benchmarks/…py``
for the evidence behind a claim is wrong the moment that file is renamed
or never written; this keeps the pointers honest.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/ARCHITECTURE.md")
PATH = re.compile(r"(?<![\w/])((?:tests|benchmarks)/[\w/.-]*?\.py)\b")


@pytest.mark.parametrize("doc", DOCS)
def test_named_test_files_exist(doc):
    named = set(PATH.findall((ROOT / doc).read_text()))
    assert sorted(p for p in named if not (ROOT / p).is_file()) == []
