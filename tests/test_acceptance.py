"""Acceptance gate: one test per release criterion.

Every comparison is exact (integer or Laurent-polynomial identity); the only
inequalities are wall-clock ceilings.  Each test prints a single PASS or FAIL
line for its criterion directly to the terminal, bypassing capture, so the
gate is readable from any pytest run.
"""
from __future__ import annotations

import time

from qkseidel.affine import node_action, pi
from qkseidel.peterson import (
    LocalizedClass,
    q_class,
    verify_seidel_theorem,
)
from qkseidel.qk import QKElement, seidel_product
from qkseidel.rootsys import build_root_system, special_nodes, weyl_from_word
from qkseidel.seidel import one_line, seidel_datum, seidel_element
from qkseidel.sweeps import (
    NILHECKE_SWEEP_TYPES,
    PHI_SWEEP_TYPES,
    PUSHFORWARD_SWEEP_TYPES,
    THEOREM_SWEEP_TYPES,
    sweep_grassmannian_dichotomy,
    sweep_inversion_product,
    sweep_inversion_sets,
    sweep_key_lemmas,
    sweep_length_zero_products,
    sweep_nilhecke,
    sweep_phi,
    sweep_pushforward,
    sweep_theorem,
)

from oracles import affine_from_word, sigma_monomial


def _finish(capsys, num, label, t0, bound, ok, detail=""):
    elapsed = time.monotonic() - t0
    in_time = bound is None or elapsed < bound
    status = "PASS" if (ok and in_time) else "FAIL"
    with capsys.disabled():
        print("%s criterion %d: %s (%.2fs)" % (status, num, label, elapsed))
    assert ok, "criterion %d: %s %s" % (num, label, detail)
    assert in_time, "criterion %d exceeded %.0fs: %.2fs" % (num, bound, elapsed)


def _check_table(rs, node, expect):
    """Frozen product table: word -> (quantum exponent, product word)."""
    for word, (qe, pw) in expect.items():
        w = weyl_from_word(rs, word)
        rep = verify_seidel_theorem(rs, node, w)
        if not (rep.passed and (rep.q_exponent, rep.product_word) == (qe, pw)):
            return False, "table row %r: %r" % (word, rep)
        product = seidel_product(rs, node, w)
        wanted = QKElement.schubert(rs, weyl_from_word(rs, pw)).shift_q(qe)
        if product != wanted:
            return False, "product row %r" % (word,)
    return True, ""


def test_criterion_1_a2_table(capsys):
    t0 = time.monotonic()
    rs = build_root_system("A", 2)
    expect = {
        (1,): ((0, 0), (1, 2, 1)),
        (2,): ((0, 1), (1,)),
        (1, 2): ((0, 1), (2, 1)),
        (2, 1): ((1, 1), ()),
        (1, 2, 1): ((1, 1), (2,)),
    }
    ok, detail = _check_table(rs, 2, expect)
    # Q1 = sigma2 / sigma1^2, Q2 = sigma1 / sigma2^2
    ok = ok and q_class(rs, (1, 0)) == LocalizedClass(sigma_monomial(rs, (0, 1)), (2, 0))
    ok = ok and q_class(rs, (0, 1)) == LocalizedClass(sigma_monomial(rs, (1, 0)), (0, 2))
    _finish(capsys, 1, "A2 table and dictionary", t0, 1.0, ok, detail)


def test_criterion_2_c2_table(capsys):
    t0 = time.monotonic()
    rs = build_root_system("C", 2)
    expect = {
        (1,): ((0, 0), (1, 2, 1, 2)),
        (2,): ((0, 1), (2, 1)),
        (1, 2): ((0, 1), (1, 2, 1)),
        (2, 1): ((1, 1), (2,)),
        (1, 2, 1): ((1, 1), (1, 2)),
        (2, 1, 2): ((1, 2), ()),
        (1, 2, 1, 2): ((1, 2), (1,)),
    }
    ok, detail = _check_table(rs, 2, expect)
    # Q1 = sigma2^2 / sigma1^2, Q2 = sigma1 / sigma2^2
    ok = ok and q_class(rs, (1, 0)) == LocalizedClass(sigma_monomial(rs, (0, 2)), (2, 0))
    ok = ok and q_class(rs, (0, 1)) == LocalizedClass(sigma_monomial(rs, (1, 0)), (0, 2))
    _finish(capsys, 2, "C2 table and dictionary", t0, 1.0, ok, detail)


def test_criterion_3_d5_instance(capsys):
    t0 = time.monotonic()
    rs = build_root_system("D", 5)
    checks = []

    v4 = seidel_element(rs, 4)
    checks.append(v4 == weyl_from_word(rs, (5, 3, 4, 2, 3, 5, 1, 2, 3, 4)))
    checks.append(v4.length() == 10)

    datum = seidel_datum(rs, 4)
    kappa = affine_from_word(rs, (1, 2, 3, 5, 0, 2, 3, 1, 2, 0))
    checks.append(datum.grassmannian_part == kappa)
    checks.append(datum.grassmannian_part.ext_length() == 10)

    p4 = pi(rs, 4)
    checks.append(node_action(p4) == (4, 5, 3, 2, 1, 0))
    checks.append(p4 * p4 == pi(rs, 1))
    checks.append(pi(rs, 5) == p4.inverse())

    v1 = seidel_element(rs, 1)
    checks.append(v4 * v4 == v1)
    checks.append(one_line(v1) == (-1, 2, 3, 4, -5))

    w = weyl_from_word(rs, (2, 4, 3, 5, 3, 1, 2))
    checks.append(set(w.descent_set()) == {2, 5})
    checks.append(set((v4 * w).descent_set()) == {1, 3})
    pulled = w.inverse().act_coweight(rs.fundamental_coweight(4))
    checks.append(pulled == (1, -1, 1, 0, -1))

    rep = verify_seidel_theorem(rs, 4, w)
    checks.append(rep.passed and rep.q_exponent == (0, 1, 1, 1, 1))
    product = seidel_product(rs, 4, w)
    wanted = QKElement.schubert(rs, v4 * w).shift_q((0, 1, 1, 1, 1))
    checks.append(product == wanted and len(product.terms) == 1)

    bad = [k for k, c in enumerate(checks) if not c]
    _finish(capsys, 3, "D5 instance", t0, 60.0, not bad, "failed checks %r" % bad)


def test_criterion_4_theorem_sweep(capsys):
    t0 = time.monotonic()
    orders = {("A", 2): 6, ("A", 3): 24, ("B", 3): 48, ("C", 2): 8, ("C", 3): 48, ("D", 4): 192}
    ok, detail = True, ""
    for type_label, rank in THEOREM_SWEEP_TYPES:
        rs = build_root_system(type_label, rank)
        res = sweep_theorem(type_label, rank)
        expected_total = len(special_nodes(rs)) * orders[(type_label, rank)]
        if not (res.passed and res.total == expected_total):
            ok, detail = False, res.summary()
            break
    _finish(capsys, 4, "exhaustive theorem sweep", t0, 600.0, ok, detail)


def test_criterion_5_lemma_sweeps(capsys):
    t0 = time.monotonic()
    sweepers = (
        sweep_key_lemmas,
        sweep_inversion_product,
        sweep_inversion_sets,
        sweep_grassmannian_dichotomy,
        sweep_length_zero_products,
    )
    ok, detail = True, ""
    for fn in sweepers:
        for type_label, rank in THEOREM_SWEEP_TYPES:
            res = fn(type_label, rank)
            if not res.passed:
                ok, detail = False, res.summary()
                break
    _finish(capsys, 5, "lemma sweeps", t0, 300.0, ok, detail)


def test_criterion_6_nilhecke(capsys):
    t0 = time.monotonic()
    results = [sweep_nilhecke(t, r) for t, r in NILHECKE_SWEEP_TYPES]
    ok = all(r.passed for r in results)
    detail = "; ".join(r.summary() for r in results if not r.passed)
    _finish(capsys, 6, "nil-Hecke relations", t0, 30.0, ok, detail)


def test_criterion_7_pushforward(capsys):
    t0 = time.monotonic()
    results = [sweep_pushforward(t, r) for t, r in PUSHFORWARD_SWEEP_TYPES]
    ok = all(r.passed for r in results)
    detail = "; ".join(r.summary() for r in results if not r.passed)
    _finish(capsys, 7, "pushforward commutation and two-route products", t0, 300.0, ok, detail)


def test_criterion_8_phi_compatibility(capsys):
    t0 = time.monotonic()
    results = [sweep_phi(t, r) for t, r in PHI_SWEEP_TYPES]
    ok = all(r.passed for r in results)
    detail = "; ".join(r.summary() for r in results if not r.passed)
    _finish(capsys, 8, "star-to-model compatibility", t0, None, ok, detail)
