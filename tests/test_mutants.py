"""The mutation tool: its snippets still match the source they mutate, and a stuck run
reads `timeout`."""
from __future__ import annotations

import importlib.util
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    return mutants


def test_every_mutation_snippet_occurs_once():
    """tools/mutants.py replaces one exact snippet per mutation; a change to src/ that
    removes or duplicates one would stop the tool, so each must occur exactly once."""
    mutants = load_mutants()
    assert mutants.MUTATIONS
    for label, filename, old, new in mutants.MUTATIONS:
        text = (ROOT / "src" / "qkseidel" / filename).read_text()
        assert text.count(old) == 1, (label, filename, text.count(old))
        assert new != old, label


@pytest.mark.parametrize("stuck", ["pytest", "sweep"])
def test_a_run_past_the_timeout_reads_timeout(monkeypatch, capsys, stuck):
    """A tier-1 or sweep run that outlasts TIMEOUT_S is stopped, its column reads
    `timeout`, and the table goes on to the next mutant."""
    mutants = load_mutants()
    expected = (ROOT / "tests" / "sweep_default.txt").read_text()

    def fake_run(args, **kwargs):
        assert kwargs["timeout"] == mutants.TIMEOUT_S
        if stuck in args:
            raise subprocess.TimeoutExpired(args, kwargs["timeout"])
        if "pytest" in args:
            return subprocess.CompletedProcess(args, 0, "3 passed in 0.01s\n", "")
        return subprocess.CompletedProcess(args, 0, expected, "")

    monkeypatch.setattr(mutants.subprocess, "run", fake_run)
    assert mutants.main() == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    cells = "| timeout | 0 |" if stuck == "pytest" else "| 0 fail | timeout |"
    assert len(rows) == len(mutants.MUTATIONS) + 1
    assert all(row.endswith(cells) for row in rows), rows
