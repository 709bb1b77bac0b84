"""The mutation tool: its snippets still match the source they mutate, a stuck test
counts as one failure, a stuck run reads `timeout`, and the table gates the exit status."""
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
    """tools/mutants.py replaces one exact snippet per mutation, in both lists; a change
    to src/ that removes or duplicates one would stop the tool, so each must occur
    exactly once."""
    mutants = load_mutants()
    assert mutants.MUTATIONS and mutants.CHECKS_OFF
    for label, filename, old, new in mutants.MUTATIONS + mutants.CHECKS_OFF:
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
    # a timeout in any row, like the `0 fail` or `0` beside it, fails the gate
    assert mutants.main() == 1
    rows = capsys.readouterr().out.splitlines()[2:]
    cells = "| timeout | 0 |" if stuck == "pytest" else "| 0 fail | timeout |"
    assert len(rows) == len(mutants.MUTATIONS) + len(mutants.CHECKS_OFF) + 1
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


@pytest.mark.parametrize("row,cells,status", [
    (None, None, 0),
    (0, ("0 fail", 1), 1),
    (0, ("0 fail, 2 errors", 0), 1),
    (0, ("timeout", 0), 1),
    (3, ("0 fail", 4), 1),
    (3, ("16 fail", 0), 1),
    (3, ("timeout", 4), 1),
    (3, ("16 fail", "timeout"), 1),
    (3, ("0 fail, 2 errors", 4), 0),
    (-1, ("0 fail", 0), 1),
    (-1, ("timeout", 0), 1),
    (-1, ("2 fail", 3), 0),
])
def test_the_table_gates_the_exit_status(monkeypatch, capsys, row, cells, status):
    """main returns 1 when the control row is not `0 fail | 0`, when a MUTATIONS row
    reads `0 fail`, `0` changed lines or `timeout`, or when a CHECKS_OFF row (the last
    ones) reads `0 fail` or `timeout` in its tier-1 column, and names that row on stderr;
    a CHECKS_OFF row passes with `0` changed lines."""
    mutants = load_mutants()
    readings = (
        [("0 fail", 0)]
        + [("16 fail", 4)] * len(mutants.MUTATIONS)
        + [("16 fail", 0)] * len(mutants.CHECKS_OFF)
    )
    if row is not None:
        readings[row] = cells
    calls = iter(readings)
    monkeypatch.setattr(mutants, "measure", lambda copy, expected: next(calls))
    assert mutants.main() == status
    out, err = capsys.readouterr()
    assert next(calls, None) is None
    assert len(out.splitlines()) == len(readings) + 2
    if status:
        labels = ["none (control)"] + [
            label for label, *_ in mutants.MUTATIONS + mutants.CHECKS_OFF
        ]
        assert err.endswith("gate fails on: " + labels[row] + "\n"), err
    else:
        assert "gate fails" not in err
