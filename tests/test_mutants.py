"""Keeps the mutant catalogue in step with the tree; the mutant runs
themselves are ``python tests/mutants.py``, outside the tier-1 suite."""

import re

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_old_text_occurs_once_and_the_nodes_exist(mutant):
    assert (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.old) == 1
    assert mutant.old != mutant.new
    for node in mutant.nodes:
        path, *names = re.sub(r"\[.*\]$", "", node).split("::")
        text = (ROOT / path).read_text(encoding="utf-8")
        for name in names:
            assert re.search(rf"^\s*(class|def) {re.escape(name)}\b", text, re.M), node
