"""Mutation check: which of a fixed list of source faults tier-1 and the default sweep see.

Each mutation replaces one exact snippet of one file under src/qkseidel in a
temporary copy of src/ and tests/.  The copy then runs tier-1 and the serial
default sweep plan, and the script prints one table row per mutation: the
number of tier-1 tests that fail, and the number of lines of
tests/sweep_default.txt that the mutant's sweep no longer prints (all of them
when the sweep crashes).  The first row runs the copy unmutated, as a control.
MUTATIONS are faults in what the program computes; CHECKS_OFF switch off one
exact check each.  On correct code no check fires, so the plan prints the same
lines with a check off, and only tier-1 can see its row.

Run from the repository root, with no arguments:

    python3 tools/mutants.py

Each mutant takes about as long as tier-1 plus the default plan, longer when it
fails most of tier-1.  In the copy, a conftest.py fails any one tier-1 test that
runs past TEST_TIMEOUT_S, so a mutant that makes a test's loop endless counts
that test as one failure.  A whole run that outlasts TIMEOUT_S is stopped and its
column reads `timeout`.  Each run may map at most MEMORY_LIMIT bytes, so a mutant
that lets a polynomial grow without bound (the term budget switched off) fails its
test with MemoryError rather than taking the host's memory.  The script uses only
the standard library, and `resource` makes it Unix-only.

The table is a gate, run in CI: the exit status is 1 when the control row reads
anything but `0 fail | 0`, when a MUTATIONS row reads `0 fail`, `0` changed lines
or `timeout` in either column, or when a CHECKS_OFF row reads `0 fail` or
`timeout` in its tier-1 column; that is, when some fault goes unseen by tier-1 or
by the plan, or some check by tier-1, or a run cannot tell.
"""
from __future__ import annotations

import difflib
import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# seconds for one tier-1 or sweep run; an unmutated copy needs well under a minute
TIMEOUT_S = 300
# seconds for one tier-1 test in a copy; the slowest unmutated test needs about 2.5 s
TEST_TIMEOUT_S = 20
# bytes of address space for one run; an unmutated tier-1 run passes under 1 GiB
MEMORY_LIMIT = 2 << 30

# written into the copy's tests/ only: SIGALRM turns a stuck test into one failure
CONFTEST = """import signal

import pytest


def _expire(signum, frame):
    raise TimeoutError("test ran past {limit} s")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.alarm({limit})
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
"""

# (label, file under src/qkseidel, exact snippet, replacement)
MUTATIONS = (
    (
        "`WeylElement.__mul__` composes in the opposite order",
        "rootsys.py",
        "itemgetter(*other.perm)(self.perm)",
        "itemgetter(*self.perm)(other.perm)",
    ),
    (
        "`weyl_group` remembers `s_i w` as `w` on each tree edge",
        "rootsys.py",
        "w._left[i], y._left[i] = y, w",
        "w._left[i], y._left[i] = w, w",
    ),
    (
        "`affine` product pulls `mu` back by `v`, not `v^{-1}`",
        "affine.py",
        "map(add, v.inverse().act_coweight(self.mu), other.mu)",
        "map(add, v.act_coweight(self.mu), other.mu)",
    ),
    (
        "`qk.left_action` uses `e^{-alpha_i}` for `e^{alpha_i}`",
        "qk.py",
        "up = sf.shifted(root)",
        "up = sf.shifted(tuple(-c for c in root))",
    ),
    (
        "`qk.minrep_beta` returns `beta` unchanged",
        "qk.py",
        "return tuple(map(operator.mul, beta, p.mask))",
        "return tuple(beta)",
    ),
    (
        "`qk.minrep_beta` keeps the complement of the mask",
        "qk.py",
        "return tuple(map(operator.mul, beta, p.mask))",
        "return tuple(b * (1 - m) for b, m in zip(beta, p.mask))",
    ),
    (
        "the public `seidel.quantum_exponent` drops `w.inverse()`",
        "seidel.py",
        "return _quantum_exponent(rs, i, w.inverse().act_coweight(",
        "return _quantum_exponent(rs, i, w.act_coweight(",
    ),
    (
        "`peterson._star_words` moves the offset to `o - beta`",
        "peterson.py",
        "group[u] = g, (ob := o + beta)",
        "group[u] = g, (ob := o - beta)",
    ),
    (
        "`peterson._star_words` records the factored root as `-beta`",
        "peterson.py",
        "new = [g, beta, ",
        "new = [g, -beta, ",
    ),
    (
        "`peterson._star_words` restores a slot with `y` moved to `o_y + beta`",
        "peterson.py",
        "new = r[4]",
        "new = r[4] if r[4] is _ABSENT else (r[4][0], r[4][1] + beta)",
    ),
    (
        "`laurent._pack_width` one bit narrower",
        "laurent.py",
        "return bound.bit_length() + 1",
        "return bound.bit_length()",
    ),
    (
        "`nilhecke.level_zero_action` returns `f` untwisted",
        "nilhecke.py",
        "return f.act_exponents(x.u.m)",
        "return f",
    ),
    (
        "`nilhecke._times_demazure` drops `f_{x s_j}` from a pair's sum",
        "nilhecke.py",
        "g = f + coeffs[xs] if xs in coeffs else f",
        "g = f",
    ),
)

# the same fields; each switches one exact check off, and only tier-1 is gated
CHECKS_OFF = (
    (
        "`seidel_product_parabolic` never compares its two routes",
        "qk.py",
        "if via_push != direct:",
        "if False:",
    ),
    (
        "`seidel_product_parabolic` skips the positive-cone check",
        "qk.py",
        "if min(d) < 0:",
        "if False:",
    ),
    (
        "`key_identities` always true",
        "peterson.py",
        "check_keys = target is key_vw",
        "check_keys = True",
    ),
    (
        "`grassmannian_support` always true",
        "peterson.py",
        "check_support = bool(support) and all(grassmannian_keys(mu, us) for mu, us in support)",
        "check_support = True",
    ),
    (
        "the sign check in `seidel._quantum_exponent` off",
        "seidel.py",
        "if min(coords) < 0:",
        "if False:",
    ),
    (
        "`verify_pushforward_commutes` skips the biconditional",
        "qk.py",
        "if inside != (sm is table[sw]):",
        "if False:",
    ),
    (
        "`verify_pushforward_commutes` skips the standard lemma",
        "qk.py",
        "if not any(sw is w * rs.simple_reflection(j) for j in p.subset):",
        "if False:",
    ),
    (
        "`verify_pushforward_commutes` skips the closed form of `pushforward(O^w)`",
        "qk.py",
        "if pushed.terms != {(zero, m): one}:",
        "if False:",
    ),
    (
        "`verify_pushforward_commutes` skips the commutation comparison",
        "qk.py",
        "if pushforward(left_action(i, xi), p) != images[key]:",
        "if False:",
    ),
    (
        "`localized_product` always true",
        "peterson.py",
        "check_product = lhs == rhs",
        "check_product = True",
    ),
    (
        "`sigma_collapse` always true",
        "peterson.py",
        "check_collapse = terms == {x: one}",
        "check_collapse = True",
    ),
    (
        "`VerificationRegistry.record` keeps a failed report",
        "qk.py",
        'raise VerificationError("refusing to record a failed verification")',
        "pass",
    ),
    (
        "`laurent._check_budget` never raises",
        "laurent.py",
        "if n_terms > _TERM_BUDGET:",
        "if False:",
    ),
    (
        "`verify_braid_relation` always true",
        "nilhecke.py",
        "return lhs == rhs",
        "return True",
    ),
)


def mutate(copy: Path, filename: str, old: str, new: str) -> None:
    path = copy / "src" / "qkseidel" / filename
    text = path.read_text()
    if text.count(old) != 1:
        raise SystemExit(f"mutants: {filename} holds {text.count(old)} copies of {old!r}, not 1")
    path.write_text(text.replace(old, new))


def write_test_timeout(tests: Path) -> None:
    """Give each test collected under `tests` a limit of TEST_TIMEOUT_S seconds."""
    (tests / "conftest.py").write_text(CONFTEST.format(limit=TEST_TIMEOUT_S))


def cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def run(copy: Path, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, *args], cwd=copy, env=env, capture_output=True, text=True,
        timeout=TIMEOUT_S, preexec_fn=cap_memory,
    )


def measure(copy: Path, expected: list[str]) -> tuple[str, int | str]:
    """(tier-1 verdict, pinned sweep lines the copy no longer prints); either reads
    `timeout` when its run outlasts TIMEOUT_S."""
    try:
        tests = run(copy, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                    "--continue-on-collection-errors")
    except subprocess.TimeoutExpired:
        verdict = "timeout"
    else:
        tail = tests.stdout.strip().splitlines()[-1] if tests.stdout.strip() else ""
        failed = re.search(r"(\d+) failed", tail)
        errors = re.search(r"(\d+) errors?", tail)
        verdict = f"{failed.group(1) if failed else 0} fail"
        if errors:
            verdict += f", {errors.group(1)} errors"
    try:
        got = run(copy, "-m", "qkseidel.cli", "sweep").stdout.splitlines()
    except subprocess.TimeoutExpired:
        return verdict, "timeout"
    blocks = difflib.SequenceMatcher(None, expected, got, autojunk=False).get_matching_blocks()
    return verdict, len(expected) - sum(b.size for b in blocks)


def unseen(rows: list[tuple[str, str, int | str]]) -> list[str]:
    """The labels of the rows that fail the gate; rows[0] is the control, then one row
    per MUTATIONS entry and one per CHECKS_OFF entry, in order."""
    (label, verdict, changed), *mutants = rows
    bad = [] if (verdict, changed) == ("0 fail", 0) else [label]
    return bad + [
        label for n, (label, verdict, changed) in enumerate(mutants)
        if verdict in ("0 fail", "timeout")
        or (n < len(MUTATIONS) and changed in (0, "timeout"))
    ]


def main() -> int:
    expected = (ROOT / "tests" / "sweep_default.txt").read_text().splitlines()
    # test_mutants.py checks this tool's snippets, which a mutant removes by design
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", "test_mutants.py")
    rows = []
    control = (("none (control)", None, None, None),)
    for label, filename, old, new in control + MUTATIONS + CHECKS_OFF:
        with tempfile.TemporaryDirectory(prefix="qkseidel-mutant-") as tmp:
            copy = Path(tmp)
            for name in ("src", "tests"):
                shutil.copytree(ROOT / name, copy / name, ignore=ignore)
            shutil.copy(ROOT / "pyproject.toml", copy)
            write_test_timeout(copy / "tests")
            if filename is not None:
                mutate(copy, filename, old, new)
            verdict, changed = measure(copy, expected)
        rows.append((label, verdict, changed))
        print(f"| {label} | {verdict} | {changed} |", file=sys.stderr, flush=True)
    print("| mutation | tier-1 | default-plan lines changed |")
    print("|---|---|---|")
    print("\n".join(f"| {label} | {verdict} | {changed} |" for label, verdict, changed in rows))
    if bad := unseen(rows):
        print("mutants: the gate fails on: " + "; ".join(bad), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
