"""The result records: their value contract, and what importing the package loads."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from qkseidel.peterson import VerificationReport, verify_seidel_theorem
from qkseidel.rootsys import build_root_system, weyl_from_word
from qkseidel.seidel import KeyLemmaReport, SeidelDatum, seidel_datum, verify_key_lemma
from qkseidel.sweeps import SweepResult, run_sweep_unit

SRC = Path(__file__).resolve().parent.parent / "src"


def _d4():
    return build_root_system("D", 4)


# (class, a record of it, its fields in order, the field that decides bool and a value
# that makes it false, or None where the class keeps tuple truth)
RECORDS = [
    (
        SeidelDatum,
        lambda: seidel_datum(_d4(), 1),
        ("node", "element", "sigma", "grassmannian_part"),
        None,
    ),
    (
        KeyLemmaReport,
        lambda: verify_key_lemma(_d4(), 1, weyl_from_word(_d4(), (2, 1))),
        ("ok", "node", "w_word", "lhs", "rhs"),
        ("ok", False),
    ),
    (
        VerificationReport,
        lambda: verify_seidel_theorem(_d4(), 3, weyl_from_word(_d4(), (2, 4))),
        ("type_label", "rank", "node", "word", "q_exponent", "product_word", "checks"),
        ("checks", (("grassmannian_support", True), ("localized_product", False))),
    ),
    (
        SweepResult,
        lambda: run_sweep_unit(("theorem", "A", 2)),
        ("name", "type_label", "rank", "total", "failures"),
        ("failures", ("i=1 w=()",)),
    ),
]


@pytest.mark.parametrize(
    "cls,make,fields,falsifier", RECORDS, ids=[cls.__name__ for cls, *_ in RECORDS]
)
def test_record_value_contract(cls, make, fields, falsifier):
    """repr in the form Name(field=value, ...), equality and hash by the fields,
    no assignment, and bool where the class defines it."""
    record = make()
    assert type(record) is cls
    values = {name: getattr(record, name) for name in fields}
    assert repr(record) == f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in values.items()
    ) + ")"
    twin = cls(**values)
    assert twin is not record and twin == record and hash(twin) == hash(record)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, values[name])
    with pytest.raises(AttributeError):
        record.extra = 1
    if falsifier is not None:
        name, bad = falsifier
        failed = cls(**{**values, name: bad})
        assert record and not failed and failed != record


def _new_modules(statement: str) -> set[str]:
    """The modules that `statement` loads in a fresh interpreter."""
    code = (
        f"import sys\nbefore = set(sys.modules)\n{statement}\n"
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


def test_cold_import_loads_no_introspection_modules():
    """The records are tuples and slotted classes, so importing the package loads no
    dataclasses, and with it no inspect, ast or dis; the Cartan matrix is inverted in
    integers, so no fractions, decimal or numbers; a command without a worker pool
    loads no concurrent.futures."""
    new = _new_modules("import qkseidel, qkseidel.nilhecke, qkseidel.sweeps")
    assert "qkseidel.sweeps" in new
    forbidden = {"dataclasses", "inspect", "ast", "dis", "fractions", "decimal", "numbers"}
    assert not new & forbidden, sorted(new)
    new = _new_modules("import qkseidel.cli")
    assert "qkseidel.cli" in new
    assert not {m for m in new if m.split(".")[0] in ("concurrent", "multiprocessing")}, sorted(new)
