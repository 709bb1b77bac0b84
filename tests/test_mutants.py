"""The mutation tool: its snippets still match the source they mutate, a stuck test
counts as one failure, and a stuck run reads `timeout`."""
from __future__ import annotations

import importlib.util
import subprocess
import sys
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


def test_a_stuck_test_in_the_copy_is_one_failure(monkeypatch, tmp_path):
    """The conftest.py the tool writes into its copy stops a test at TEST_TIMEOUT_S and
    fails that test alone; the other tests still run."""
    mutants = load_mutants()
    monkeypatch.setattr(mutants, "TEST_TIMEOUT_S", 1)
    mutants.write_test_timeout(tmp_path)
    (tmp_path / "test_stuck.py").write_text(
        "import time\n\n\ndef test_stuck():\n    time.sleep(3)\n\n\ndef test_quick():\n    pass\n"
    )
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.stdout.strip().splitlines()[-1].startswith("1 failed, 1 passed"), done.stdout
    assert "TimeoutError: test ran past 1 s" in done.stdout
