"""The mutation tool's snippets still match the source they mutate."""
from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_mutation_snippet_occurs_once():
    """tools/mutants.py replaces one exact snippet per mutation; a change to src/ that
    removes or duplicates one would stop the tool, so each must occur exactly once."""
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert mutants.MUTATIONS
    for label, filename, old, new in mutants.MUTATIONS:
        text = (ROOT / "src" / "qkseidel" / filename).read_text()
        assert text.count(old) == 1, (label, filename, text.count(old))
        assert new != old, label
