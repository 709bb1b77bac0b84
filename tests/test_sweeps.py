"""Sweep plumbing: result shape, the default plan, randomized sampling."""
from __future__ import annotations

from unittest import mock

import pytest

from qkseidel import qk, sweeps
from qkseidel.errors import UnsupportedProductError, VerificationError
from qkseidel.rootsys import WeylElement, build_root_system, root_is_positive
from qkseidel.seidel import one_line, quantum_exponent
from qkseidel.sweeps import (
    SWEEP_FUNCTIONS,
    SweepResult,
    default_plan,
    rotation_rule,
    run_sweep_unit,
    sweep_inversion_product,
    sweep_pushforward,
    sweep_rotation,
    sweep_seidel_law,
    sweep_theorem_random,
)


def test_default_plan_shape():
    plan = default_plan()
    assert len(plan) == 55
    assert len(set(plan)) == len(plan)
    for name, type_label, rank in plan:
        assert name in SWEEP_FUNCTIONS
        assert type_label in "ABCDEFG" and rank in (2, 3, 4, 5, 6)


def test_run_sweep_unit_matches_direct_call():
    res = run_sweep_unit(("theorem", "A", 2))
    assert res.passed and res.total == 12
    assert res.summary() == "theorem A2: 12 checks, ok"


def test_runner_counts_checks_and_keeps_failures():
    with mock.patch.dict(SWEEP_FUNCTIONS):

        @sweeps._sweep("toy")
        def toy(rs):
            yield None
            yield "x"
            yield None

        res = run_sweep_unit(("toy", "A", 2))
        assert res.total == 3 and res.failures == ("x",)
        assert res == toy("A", 2) == SweepResult("toy", "A", 2, 3, ("x",))
    assert "toy" not in SWEEP_FUNCTIONS


@pytest.mark.parametrize("name", sorted(SWEEP_FUNCTIONS))
def test_every_sweep_reports_its_own_name(name):
    unit = next(unit for unit in default_plan() if unit[0] == name)
    res = run_sweep_unit(unit)
    assert isinstance(res, SweepResult)
    assert (res.name, res.type_label, res.rank) == unit


def test_theorem_random_sampling():
    res = sweep_theorem_random("A", 3)
    assert res.passed and res.total == 200
    assert res.failures == ()


def test_pushforward_sweep_records_verification_failures(monkeypatch):
    def disagree(*args, **kwargs):
        raise VerificationError("routes disagree")

    monkeypatch.setattr(sweeps, "seidel_product_parabolic", disagree)
    res = sweep_pushforward("A", 2)
    # 4 parabolic subsets pass their commutation check; every product fails
    assert len(res.failures) == res.total - 4 == 26
    assert all("routes disagree" in f for f in res.failures)


def test_pushforward_sweep_lets_programming_errors_crash(monkeypatch):
    # every product on this path passes an antidominant translation, so a
    # refused product is a bug too, not a failed instance
    for exc_type in (TypeError, UnsupportedProductError):
        def broken(*args, **kwargs):
            raise exc_type("a bug, not a failed instance")

        monkeypatch.setattr(sweeps, "seidel_product_parabolic", broken)
        with pytest.raises(exc_type):
            sweep_pushforward("A", 2)


# Fubini numbers (ordered set partitions of n), the sum of |W^P| over the subsets of A_{n-1},
# times n - 1 nodes
@pytest.mark.parametrize("rank,total", [(1, 3), (2, 26), (3, 225), (4, 2164)])
def test_rotation_rule_holds_on_every_parabolic_of_type_a(rank, total):
    """The parabolic Seidel product is the rotation rule on A1 to A4, and on the Borel the
    rule's Q-degree is the public quantum_exponent."""
    res = sweep_rotation("A", rank)
    assert res.passed and res.total == total, res.failures[:3]
    rs = build_root_system("A", rank)
    for i in rs.nodes:
        for w in rs.weyl_group():
            _, d = rotation_rule(i, one_line(w), rs.nodes)
            assert d == quantum_exponent(rs, i, w), (i, w)


def test_rotation_sweep_sees_a_wrong_projection(monkeypatch):
    """Both routes of seidel_product_parabolic project through minrep_beta, so they agree
    when it is wrong; the rotation rule, which does not call it, sees the fault."""
    monkeypatch.setattr(qk, "minrep_beta", lambda beta, p: tuple(beta))
    res = sweep_rotation("A", 3)
    assert res.total == 225 and res.failures
    assert all("subset=(" in f and "rule Q^" in f for f in res.failures)
    with pytest.raises(ValueError, match="type A only"):
        sweep_rotation("B", 3)


# per type: 1 + |W| checks for each ordered pair of special nodes
@pytest.mark.parametrize("type_label,rank,total", [
    ("A", 3, 225), ("A", 4, 1936), ("B", 3, 49), ("C", 3, 49), ("D", 4, 1737),
])
def test_seidel_law_holds(type_label, rank, total):
    res = sweep_seidel_law(type_label, rank)
    assert res.passed and res.total == total, res.failures[:3]


def test_seidel_law_sees_a_wrong_public_exponent(monkeypatch):
    """No function of the package calls the public quantum_exponent, so only the law
    sees it drop w.inverse(): omega_i^vee - w(omega_i^vee) breaks the law on D4."""
    monkeypatch.setattr(
        sweeps, "quantum_exponent", lambda rs, i, w: quantum_exponent(rs, i, w.inverse())
    )
    res = sweep_seidel_law("D", 4)
    assert res.total == 1737 and len(res.failures) == 1248
    assert all(f.startswith("i=") and " != " in f for f in res.failures)


def inversion_product_by_roots(type_label: str, rank: int) -> SweepResult:
    """The inversion-product sweep on sets of root tuples, the reference for its bitmasks."""
    rs = build_root_system(type_label, rank)
    failures = []
    group = rs.weyl_group()
    total = 0
    for v in group:
        inv_v = v.inversions()
        for w in group:
            total += 1
            winv = w.inverse()
            pulled = {winv.act_root(a) for a in inv_v}
            inv_w = set(w.inversions())
            part1 = {a for a in inv_w if tuple(-c for c in a) not in pulled}
            part2 = {b for b in pulled if root_is_positive(b) and b not in inv_w}
            if part1 & part2 or part1 | part2 != set((v * w).inversions()):
                failures.append(f"v={v.reduced_word()} w={w.reduced_word()}")
    return SweepResult("inversion-product", type_label, rank, total, tuple(failures))


@pytest.mark.parametrize("type_label,rank", [("A", 3), ("B", 3), ("C", 3)])
def test_inversion_product_masks_against_root_sets(type_label, rank, monkeypatch):
    assert sweep_inversion_product(type_label, rank) == inversion_product_by_roots(type_label, rank)
    # pulling back by w instead of w^{-1} breaks the identity: both flag the same pairs
    build_root_system(type_label, rank).weyl_group()
    monkeypatch.setattr(WeylElement, "inverse", lambda self: self)
    broken = sweep_inversion_product(type_label, rank)
    assert broken.failures and broken == inversion_product_by_roots(type_label, rank)
