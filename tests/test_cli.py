"""CLI tests: commands, formats, exit codes, JSON round-trip."""
from __future__ import annotations

import json
import multiprocessing
import random
import re
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from qkseidel import cli
from qkseidel.cli import canonical_json, main
from qkseidel.laurent import get_term_budget, set_term_budget
from qkseidel.rootsys import build_root_system, special_nodes, weyl_from_word
from qkseidel.sweeps import SWEEP_FUNCTIONS, SweepResult

SCHEMA_KEYS = {
    "type",
    "rank",
    "node",
    "w_word",
    "q_exponent",
    "product_word",
    "verified",
    "details",
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_a2_json_schema_and_values(capsys):
    code, out, _ = run(capsys, "table", "--type", "A", "--rank", "2", "--node", "2", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 6
    for row in rows:
        assert set(row) == SCHEMA_KEYS
        assert row["type"] == "A" and row["rank"] == 2 and row["node"] == 2
        assert row["verified"] is True
    by_word = {tuple(r["w_word"]): r for r in rows}
    assert by_word[(1, 2)]["q_exponent"] == [0, 1]
    assert by_word[(1, 2)]["product_word"] == [2, 1]
    assert by_word[(2, 1)]["q_exponent"] == [1, 1]
    assert by_word[(2, 1)]["product_word"] == []


def test_json_round_trip_is_byte_identical(capsys):
    code, out, _ = run(capsys, "verify", "--type", "A", "--rank", "2", "--node", "1", "--word", "2", "--format", "json")
    assert code == 0
    assert canonical_json(json.loads(out)) == out


def test_table_c2_latex_layout(capsys):
    code, out, _ = run(capsys, "table", "--type", "C", "--rank", "2", "--node", "2", "--format", "latex")
    assert code == 0
    assert out.startswith("\\begin{array}")
    # identity column omitted: seven data columns for the seven non-identity elements
    header = out.splitlines()[1]
    assert header.count("&") == 7
    assert "Q_1Q_2^{2}\\mathcal{O}^{s_1}" in out
    assert "Q_1Q_2^{2} " in out  # the scalar-only product for w = s2 s1 s2
    assert "\\mathcal{O}^{e}" not in out


def test_verify_d5_instance(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--type", "D", "--rank", "5", "--node", "4",
        "--word", "2,4,3,5,3,1,2", "--format", "json",
    )
    assert code == 0
    (row,) = json.loads(out)
    assert row["verified"] is True
    assert row["q_exponent"] == [0, 1, 1, 1, 1]
    assert row["details"]["key_lemma"] is True and row["details"]["group_lemma"] is True


def test_verify_identity_word(capsys):
    code, out, _ = run(capsys, "verify", "--type", "A", "--rank", "2", "--node", "1", "--word", "e")
    assert code == 0
    assert "PASS" in out


def test_verify_parabolic(capsys):
    code, out, _ = run(capsys, "verify", "--type", "A", "--rank", "3", "--parabolic", "1,2")
    assert code == 0
    assert "PASS" in out and "pushforward" in out


def test_table_parabolic(capsys):
    code, out, _ = run(
        capsys,
        "table", "--type", "C", "--rank", "2", "--node", "2",
        "--parabolic", "1", "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 4  # |W^P| for the Lagrangian Grassmannian LG(2,4)
    assert all(r["details"]["routes_agree"] for r in rows)


def test_element_inspection(capsys):
    code, out, _ = run(
        capsys, "element", "--type", "D", "--rank", "5", "--word", "2,4,3,5,3,1,2", "--format", "json"
    )
    assert code == 0
    (row,) = json.loads(out)
    d = row["details"]
    assert d["length"] == 7
    assert d["descents"] == [2, 5]
    assert d["gamma"] == [0, -1, 0, 0, -1]
    assert d["one_line"] == [3, -4, 1, 5, -2]
    assert d["grassmannian_key"]["sigma_node"] == 4


def test_element_sigma_node_is_the_class_of_gamma(capsys):
    """sigma_node is the special node j with gamma_w - omega_j^vee in the coroot lattice,
    or None when gamma_w lies in it: the class of the key w t_{gamma_w} modulo the coroot
    lattice, read without the node action.  All of W(A3) and W(D4), 50 elements of W(E6)."""
    rng = random.Random(2026)
    for type_label, rank, sample in [("A", 3, None), ("D", 4, None), ("E", 6, 50)]:
        rs = build_root_system(type_label, rank)
        if sample is None:
            ws = rs.weyl_group()
        else:
            words = ([rng.choice(rs.nodes) for _ in range(rng.randrange(40))] for _ in range(sample))
            ws = [weyl_from_word(rs, word) for word in words]
        zero = (0,) * rank
        for w in ws:
            g = tuple(-1 if j in w.descent_set() else 0 for j in rs.nodes)
            classes = [
                j
                for j in (None, *special_nodes(rs))
                if rs.coweight_to_coroots(
                    tuple(a - b for a, b in zip(g, zero if j is None else rs.fundamental_coweight(j)))
                ) is not None
            ]
            word = ",".join(map(str, w.reduced_word())) or "e"
            code, out, _ = run(
                capsys, "element", "--type", type_label, "--rank", str(rank), "--word", word,
                "--format", "json",
            )
            assert code == 0
            (row,) = json.loads(out)
            assert [row["details"]["grassmannian_key"]["sigma_node"]] == classes, (type_label, word)


def test_element_text_without_one_line(capsys):
    code, out, _ = run(capsys, "element", "--type", "G", "--rank", "2", "--word", "1,2")
    assert code == 0
    assert "one_line" not in out
    assert "gamma" in out


def test_exit_codes_for_bad_input(capsys):
    code, _, err = run(capsys, "table", "--type", "C", "--rank", "2", "--node", "1")
    assert code == 2 and "special" in err
    code, _, err = run(capsys, "verify", "--type", "A", "--rank", "2", "--node", "2", "--word", "9")
    assert code == 2
    code, _, err = run(capsys, "table", "--type", "A", "--rank", "2")
    assert code == 2 and "--node" in err
    code, _, err = run(capsys, "verify", "--type", "A", "--rank", "2", "--node", "2")
    assert code == 2
    code, _, err = run(capsys, "element", "--type", "A", "--rank", "2", "--word", "1,x")
    assert code == 2 and "cannot parse" in err


def test_budget_exhaustion_exit_code(capsys):
    saved = get_term_budget()
    try:
        code, _, err = run(
            capsys, "verify", "--type", "A", "--rank", "2", "--node", "2", "--word", "1", "--budget", "1"
        )
    finally:
        set_term_budget(saved)
    assert code == 3
    assert "budget" in err


def test_oversized_weyl_group_fails_fast(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "table", "--type", "A", "--rank", "12", "--node", "1")
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert "6227020800 elements" in err


def test_oversized_root_system_fails_fast(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "element", "--type", "A", "--rank", "99", "--word", "1")
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert "4950 positive roots" in err


def test_sweep_filtered(capsys):
    code, out, _ = run(capsys, "sweep", "--type", "A", "--rank", "2")
    assert code == 0
    assert "all sweeps passed" in out
    assert "theorem A2" in out


def test_sweep_parallel_matches_serial(capsys):
    pinned = (Path(__file__).parent / "cli_sweep_C2.json").read_text(encoding="utf-8")
    code1, out1, _ = run(capsys, "sweep", "--type", "C", "--rank", "2", "--format", "json")
    code2, out2, _ = run(capsys, "sweep", "--type", "C", "--rank", "2", "--format", "json", "--jobs", "2")
    assert code1 == code2 == 0
    assert out1 == out2 == pinned


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_progress_goes_to_stderr(capsys, jobs):
    """One `[k/N] name typerank seconds` line per finished unit; stdout is the default report."""
    default = (Path(__file__).parent / "sweep_default.txt").read_text().splitlines()
    units = [line for line in default if " C2: " in line]
    code, out, err = run(capsys, "sweep", "--type", "C", "--rank", "2", "--jobs", jobs)
    assert code == 0
    assert out == "\n".join(units) + f"\nall sweeps passed ({len(units)} units)\n"
    lines = err.splitlines()
    assert len(lines) == len(units)
    for k, (line, unit) in enumerate(zip(lines, units), 1):
        name = re.escape(unit.split(" C2: ")[0])
        assert re.fullmatch(rf"\[{k}/{len(units)}\] {name} C2 \d+\.\d{{3}}s", line), line


def test_sweep_workers_get_budget_under_spawn(capsys, monkeypatch):
    """--budget reaches workers that start from a fresh import, not only forked ones."""
    probes = []

    def spawn_pool(*args, **kwargs):
        pool = ProcessPoolExecutor(*args, mp_context=multiprocessing.get_context("spawn"), **kwargs)
        probes.append(pool.submit(get_term_budget))
        return pool

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", spawn_pool)
    saved = get_term_budget()
    try:
        code, _, _ = run(capsys, "sweep", "--type", "A", "--rank", "2", "--jobs", "2", "--budget", "54321")
    finally:
        set_term_budget(saved)
    assert code == 0
    assert [p.result(timeout=60) for p in probes] == [54321]


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps the units in-process."""

    def __init__(self, sizes, max_workers, initializer=None, initargs=()):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, units):
        return map(fn, units)


def test_sweep_pool_never_exceeds_the_plan(capsys, monkeypatch):
    sizes = []
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", lambda **kw: RecordingPool(sizes, **kw))
    _, serial, _ = run(capsys, "sweep", "--type", "C", "--rank", "2")
    code, out, _ = run(capsys, "sweep", "--type", "C", "--rank", "2", "--jobs", "64")
    assert code == 0 and out == serial
    assert sizes == [out.count("\n") - 1]  # one line per unit, then the verdict
    code, _, _ = run(capsys, "sweep", "--type", "A", "--jobs", "2")
    assert code == 0 and sizes[-1] == 2
    code, out, _ = run(capsys, "sweep", "--type", "G", "--jobs", "8")
    assert code == 0 and "(1 units)" in out and len(sizes) == 2  # one unit runs in-process


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_rejects_jobs_below_one(capsys, monkeypatch, jobs):
    sizes = []
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", lambda **kw: RecordingPool(sizes, **kw))
    code, out, err = run(capsys, "sweep", "--type", "A", "--rank", "2", "--jobs", jobs)
    assert code == 2 and out == "" and "--jobs" in err
    assert sizes == []


def test_sweep_no_match_is_an_error(capsys):
    code, _, err = run(capsys, "sweep", "--type", "E", "--rank", "8")
    assert code == 2 and "no sweep units" in err


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "verify", "--type", "A", "--rank", "2", "--node", "1", "--word", "2",
        "--format", "json", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert canonical_json(json.loads(target.read_text())) == target.read_text()


def fail_theorem_at(monkeypatch, word):
    """The theorem reports its first check false for the element of this reduced word."""
    real = cli.verify_seidel_theorem

    def one_false_check(rs, i, w):
        rep = real(rs, i, w)
        if w.reduced_word() == word:
            (name, _), *rest = rep.checks
            rep = rep._replace(checks=((name, False), *rest))
        return rep

    monkeypatch.setattr(cli, "verify_seidel_theorem", one_false_check)


def fail_toy_sweep(monkeypatch):
    """The plan is one unit, whose one failure is a made-up instance."""
    monkeypatch.setattr(cli, "default_plan", lambda: (("toy", "A", 2),))
    monkeypatch.setitem(
        SWEEP_FUNCTIONS, "toy", lambda tl, rk: SweepResult("toy", tl, rk, 2, ("w=e: wrong",))
    )


# argv, the fault, and what the text report says of it
FAILING_RUNS = {
    "table": ("table --type A --rank 2 --node 2", lambda mp: fail_theorem_at(mp, (1, 2)),
              "w=1,2              -> Q2*O[s2*s1]                      [FAILED]\n"),
    "verify": ("verify --type A --rank 2 --node 2 --word 1,2",
               lambda mp: fail_theorem_at(mp, (1, 2)), "FAIL node=2 w=1,2: Q2*O[s2*s1]\n"),
    "verify-parabolic": (
        "verify --type A --rank 3 --parabolic 1,2",
        lambda mp: mp.setattr(cli, "verify_pushforward_commutes", lambda p: False),
        "FAIL pushforward-commutation subset=[1, 2]\n",
    ),
    "sweep": ("sweep", fail_toy_sweep, "toy A2: 2 checks, 1 FAILED\nSWEEPS FAILED (1 units)\n"),
}


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("case", list(FAILING_RUNS))
def test_a_false_record_exits_1(capsys, monkeypatch, tmp_path, case, fmt, to_file):
    """Exit status 1 when any record reads `verified: false`, in every format and with --out;
    the report is still written in full."""
    argv, fault, text = FAILING_RUNS[case]
    fault(monkeypatch)
    target = tmp_path / "report"
    argv = [*argv.split(), "--format", fmt] + (["--out", str(target)] if to_file else [])
    code, out, _ = run(capsys, *argv)
    assert code == 1
    if to_file:
        assert out == ""
        out = target.read_text(encoding="utf-8")
    if fmt == "json":
        rows = json.loads(out)
        assert canonical_json(rows) == out
        assert all(set(row) == SCHEMA_KEYS for row in rows)
        assert [row["verified"] for row in rows].count(False) == 1
    else:
        assert text in out


@pytest.mark.parametrize("argv", [
    ("verify", "--type", "A", "--rank", "2", "--node", "2", "--word", "1", "--budget", "1"),
    ("table", "--type", "A", "--rank", "12", "--node", "1"),
    ("element", "--type", "A", "--rank", "99", "--word", "1"),
])
def test_failing_command_leaves_out_file_untouched(tmp_path, capsys, argv):
    """A command that exits 3 writes nothing to --out: an earlier report survives byte for byte."""
    target = tmp_path / "report.txt"
    earlier = b"an earlier report\n\xc3\xa9\n"
    target.write_bytes(earlier)
    saved = get_term_budget()
    try:
        code, out, err = run(capsys, *argv, "--out", str(target))
    finally:
        set_term_budget(saved)
    assert code == 3 and out == "" and err
    assert target.read_bytes() == earlier


def test_budget_flag_does_not_outlive_main(capsys):
    saved = get_term_budget()
    try:
        code, _, _ = run(capsys, "element", "--type", "A", "--rank", "2", "--word", "1", "--budget", "50")
        assert code == 0
        assert get_term_budget() == saved
        code, _, _ = run(
            capsys, "verify", "--type", "A", "--rank", "2", "--node", "2", "--word", "1", "--budget", "1"
        )
        assert code == 3
        assert get_term_budget() == saved
    finally:
        set_term_budget(saved)


def test_element_rejects_latex(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["element", "--type", "A", "--rank", "2", "--word", "1", "--format", "latex"])
    assert exc.value.code == 2
    assert "invalid choice: 'latex'" in capsys.readouterr().err


PINNED_OUTPUTS = [
    ("cli_table_A3_node1.txt", "table --type A --rank 3 --node 1"),
    ("cli_table_A3_node1.json", "table --type A --rank 3 --node 1 --format json"),
    ("cli_table_A3_node1.tex", "table --type A --rank 3 --node 1 --format latex"),
    ("cli_table_C2_node2_parabolic1.json",
     "table --type C --rank 2 --node 2 --parabolic 1 --format json"),
    ("cli_element_D5.txt", "element --type D --rank 5 --word 2,4,3,5,3,1,2"),
    ("cli_element_D5.json", "element --type D --rank 5 --word 2,4,3,5,3,1,2 --format json"),
    ("cli_verify_D5_node4.json", "verify --type D --rank 5 --node 4 --word 2,4,3,5,3,1,2 --format json"),
    ("cli_verify_D4_parabolic1_3.json", "verify --type D --rank 4 --parabolic 1,3 --format json"),
]


@pytest.mark.parametrize("name,argv", PINNED_OUTPUTS, ids=[name for name, _ in PINNED_OUTPUTS])
def test_output_matches_pinned_bytes(capsys, name, argv):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert out == (Path(__file__).parent / name).read_text(encoding="utf-8")
