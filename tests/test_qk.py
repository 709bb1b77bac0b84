"""Quantum K-model tests: left action, closed-form products, pushforward."""
from __future__ import annotations

import itertools
import random
import re

import pytest

from qkseidel import qk, seidel
from qkseidel.errors import UnsupportedProductError, VerificationError
from qkseidel.laurent import LaurentPoly
from qkseidel.peterson import VerificationReport, o_class, verify_seidel_theorem
from qkseidel.qk import (
    ParabolicData,
    QKElement,
    VerificationRegistry,
    left_action,
    minrep_beta,
    minrep_w,
    parabolic_data,
    pushforward,
    seidel_product,
    seidel_product_parabolic,
    verify_pushforward_commutes,
)
from qkseidel.rootsys import (
    RootSystem,
    WeylElement,
    build_root_system,
    longest_element,
    special_nodes,
    weyl_from_word,
)
from qkseidel.seidel import quantum_exponent, seidel_element


def all_subsets(rs):
    for size in range(len(rs.nodes) + 1):
        yield from itertools.combinations(rs.nodes, size)


# ------------------------------------------------------------------ parabolics


def test_parabolic_counts_and_positivity():
    rs = build_root_system("A", 3)
    sizes = {}
    for sub in all_subsets(rs):
        p = parabolic_data(rs, sub)
        assert p.subgroup_order * len(p.minimal_reps) == 24
        for w in p.minimal_reps:
            assert all(j not in p.subset for j in w.descent_set())
        sizes[sub] = len(p.minimal_reps)
    assert sizes[()] == 24 and sizes[(1, 2, 3)] == 1
    assert sizes[(1, 2)] == 4  # projective space P^3


def strip_right_descents(w, subset):
    """Oracle: multiply by s_j for a right descent j in the subset until none is left."""
    while True:
        des = [j for j in w.descent_set() if j in subset]
        if not des:
            return w
        w = w * w.rs.simple_reflection(des[0])


MINREP_CASES = [
    (type_label, rank, sub)
    for type_label, rank in [("A", 3), ("B", 3), ("G", 2), ("D", 4)]
    for sub in all_subsets(build_root_system(type_label, rank))
]


@pytest.mark.parametrize(
    "type_label,rank,sub",
    MINREP_CASES,
    ids=[f"{t}{r}-{''.join(map(str, sub)) or 'e'}" for t, r, sub in MINREP_CASES],
)
def test_minrep_w_examples_and_idempotence(type_label, rank, sub):
    rs = build_root_system(type_label, rank)
    p = parabolic_data(rs, sub)
    for w in rs.weyl_group():
        m = minrep_w(w, p)
        assert m == strip_right_descents(w, p.subset)
        assert m in p
        assert minrep_w(m, p) == m
        # same coset: m^{-1} w lies in the subgroup
        rest = m.inverse() * w
        assert set(rest.reduced_word()) <= set(p.subset)
    for w in p.minimal_reps:
        assert minrep_w(w, p) == w
    # the coset table is derived data: equality and hash ignore it
    twin = ParabolicData(p.rs, p.subset, p.minimal_reps, p.subgroup_order, {})
    assert twin == p and hash(twin) == hash(p)


def test_minrep_beta_deletes_coordinates():
    rs = build_root_system("D", 5)
    p4 = parabolic_data(rs, (1, 2, 3, 5))
    assert minrep_beta((0, 1, 1, 1, 1), p4) == (0, 0, 0, 1, 0)
    pj = parabolic_data(rs, (2,))
    assert minrep_beta((0, 1, 0, 0, 0), pj) == (0, 0, 0, 0, 0)
    a = (1, 0, 2, 0, 3)
    b = (0, 2, 1, 1, 0)
    ab = tuple(x + y for x, y in zip(a, b))
    assert minrep_beta(ab, p4) == tuple(
        x + y for x, y in zip(minrep_beta(a, p4), minrep_beta(b, p4))
    )
    assert minrep_beta(minrep_beta(a, p4), p4) == minrep_beta(a, p4)


def _minrep_beta_by_membership(beta, p):
    return tuple(0 if j in p.subset else b for j, b in zip(p.rs.nodes, beta))


@pytest.mark.parametrize("type_label,rank", [("B", 3), ("D", 4)])
def test_minrep_beta_mask_matches_node_membership(type_label, rank):
    """The 0/1 node mask projects like deleting the subset's coordinates, and it is
    derived data: equality, hash and repr ignore it."""
    rs = build_root_system(type_label, rank)
    box = list(itertools.product(range(3), repeat=rank))
    for subset in all_subsets(rs):
        p = parabolic_data(rs, subset)
        assert p.mask == tuple(int(j not in subset) for j in rs.nodes)
        for beta in box:
            assert minrep_beta(beta, p) == _minrep_beta_by_membership(beta, p), (subset, beta)
        assert repr(p) == (
            f"ParabolicData(rs={rs!r}, subset={p.subset!r}, "
            f"minimal_reps={p.minimal_reps!r}, subgroup_order={p.subgroup_order!r})"
        )
        twin = ParabolicData(p.rs, p.subset, p.minimal_reps, p.subgroup_order, p.minrep_table)
        object.__setattr__(twin, "mask", (7,) * rank)
        assert twin == p and hash(twin) == hash(p) and repr(twin) == repr(p)
        with pytest.raises(ValueError):
            minrep_beta((0,) * (rank + 1), p)


def _standard_lemma_by_products(p):
    rs = p.rs
    for w in p.minimal_reps:
        for i in rs.nodes:
            sw = rs.simple_reflection(i) * w
            if sw.length() > w.length() and sw not in p:
                if not any(sw == w * rs.simple_reflection(j) for j in p.subset):
                    return False
    return True


def _biconditional_by_products(p):
    rs = p.rs
    for w in rs.weyl_group():
        m = minrep_w(w, p)
        for i in rs.nodes:
            sm = rs.simple_reflection(i) * m
            if (sm in p) != (sm == minrep_w(rs.simple_reflection(i) * w, p)):
                return False
    return True


def _schubert_left_action_by_products(rs, i, w, project):
    """s_i^L O^w by the two-case formula, with s_i w a product and each index projected."""
    out = {}
    sw = rs.simple_reflection(i) * w
    alpha = LaurentPoly.monomial(rs.simple_root(i))
    if sw.length() < w.length():
        parts = [(w, alpha), (sw, LaurentPoly.one(rs.rank) - alpha)]
    else:
        parts = [(w, LaurentPoly.one(rs.rank))]
    for u, f in parts:
        key = project(u)
        out[key] = out[key] + f if key in out else f
    return {u: f for u, f in out.items() if not f.is_zero()}


def _commutes_by_products(p):
    rs = p.rs
    for w in rs.weyl_group():
        m = minrep_w(w, p)
        for i in rs.nodes:
            pushed_first = _schubert_left_action_by_products(rs, i, w, lambda u: minrep_w(u, p))
            if pushed_first != _schubert_left_action_by_products(rs, i, m, lambda u: u):
                return False
    return True


def _by_products(p):
    """The three product references combined, as the one verdict of the commutation check."""
    return all(check(p) for check in (
        _standard_lemma_by_products, _biconditional_by_products, _commutes_by_products
    ))


@pytest.mark.parametrize("type_label,rank", [("A", 3), ("B", 3), ("D", 4)])
def test_coset_verdicts_match_product_reference(type_label, rank):
    """The one verdict of the commutation check, which reads s_i w from left_reflect,
    equals the standard-lemma, biconditional and commutation references combined, which
    multiply, on every subset of a cold system."""
    rs = RootSystem(type_label, rank)
    for subset in all_subsets(rs):
        p = parabolic_data(rs, subset)
        assert verify_pushforward_commutes(p) == _by_products(p), subset


# ----------------------------------------------------------------- left action


def test_left_action_branches():
    rs = build_root_system("A", 2)
    s1 = weyl_from_word(rs, (1,))
    e = weyl_from_word(rs, ())
    alpha = LaurentPoly.monomial(rs.simple_root(1))
    one = LaurentPoly.one(2)

    # ascent: coefficient twist only
    got = left_action(1, QKElement.schubert(rs, e))
    assert got == QKElement.schubert(rs, e)

    # descent: the two-term combination
    got = left_action(1, QKElement.schubert(rs, s1))
    expected = QKElement(
        rs,
        {((0, 0), s1): alpha, ((0, 0), e): one - alpha},
    )
    assert got == expected


def test_left_action_is_semilinear_involution_and_q_linear():
    rs = build_root_system("C", 2)
    s1 = weyl_from_word(rs, (1,))
    w21 = weyl_from_word(rs, (2, 1))
    f = LaurentPoly.monomial((1, -1), 3) + LaurentPoly.one(2)
    xi = QKElement(rs, {((0, 0), s1): f, ((2, 1), w21): LaurentPoly.one(2)})
    for i in rs.nodes:
        assert left_action(i, left_action(i, xi)) == xi
        si = rs.simple_reflection(i)
        f_xi = QKElement(rs, {k: f * g for k, g in xi.terms.items()})
        sf = f.act_exponents(si.m)
        sf_image = QKElement(rs, {k: sf * g for k, g in left_action(i, xi).terms.items()})
        assert left_action(i, f_xi) == sf_image
        assert left_action(i, xi.shift_q((1, 2))) == left_action(i, xi).shift_q((1, 2))


def random_poly(rng, rank):
    """A multi-term polynomial from colliding monomials, some of them cancelled."""
    monos = [
        LaurentPoly.monomial(tuple(rng.randint(-2, 2) for _ in range(rank)), rng.randint(-3, 3))
        for _ in range(rng.randint(2, 8))
    ]
    total = sum(monos, LaurentPoly.zero(rank))
    return total - sum(rng.sample(monos, len(monos) // 3), LaurentPoly.zero(rank))


@pytest.mark.parametrize(
    "type_label,rank", [("A", 2), ("B", 3), ("C", 3), ("D", 4), ("F", 4), ("G", 2)]
)
def test_left_action_reflection_twist_matches_matrix_twist(type_label, rank):
    """Both branches of left_action twist like act_exponents by the matrix of s_i.

    The Cartan row and column differ only off the simply-laced types, so B, C, F
    and G are what pin the reflection rule to <alpha_i^vee, .>.
    """
    rs = build_root_system(type_label, rank)
    rng = random.Random(rank * 31 + ord(type_label))
    zero, e = (0,) * rank, rs.identity_weyl()
    for _ in range(30):
        f = random_poly(rng, rank)
        for i in rs.nodes:
            si = rs.simple_reflection(i)
            sf = f.act_exponents(si.m)
            up = sf.shifted(rs.simple_root(i))
            ascent = left_action(i, QKElement(rs, {(zero, e): f}))
            assert ascent == QKElement(rs, {(zero, e): sf}), (f, i)
            descent = left_action(i, QKElement(rs, {(zero, si): f}))
            assert descent == QKElement(rs, {(zero, si): up, (zero, e): sf - up}), (f, i)


@pytest.mark.parametrize("type_label,rank", [("A", 3), ("D", 4)])
def test_trusted_results_pass_the_public_constructor(type_label, rank):
    """left_action, pushforward, shift_q, seidel_product and seidel_product_parabolic skip
    the checks of QKElement(); rebuilding each result through that constructor must give
    it back."""
    rs = build_root_system(type_label, rank)
    d = tuple(j % 3 for j in rs.nodes)

    def rebuilt(r):
        assert QKElement(rs, r.terms, r.base) == r
        return r

    products = set()
    for sub in all_subsets(rs):
        p = parabolic_data(rs, sub)
        top = longest_element(rs, sub)
        for w in p.minimal_reps:
            xi = QKElement.schubert(rs, w, p.subset)
            for i in rs.nodes:
                rebuilt(left_action(i, rebuilt(left_action(i % rank + 1, xi))))
                # w times the longest element of W_P: the longest index of the coset
                rebuilt(pushforward(left_action(i, QKElement.schubert(rs, w * top)), p))
            rebuilt(rebuilt(xi.shift_q(d)).shift_q(d))
            products.update((i, w) for i in special_nodes(rs))
            for i in special_nodes(rs):
                rebuilt(seidel_product_parabolic(rs, i, w, p))
    for i, w in products:
        rebuilt(seidel_product(rs, i, w))


def test_left_action_w_word_independence():
    rs = build_root_system("A", 2)
    xi = QKElement.schubert(rs, weyl_from_word(rs, (1, 2)))
    w0 = longest_element(rs)
    via_121 = left_action(1, left_action(2, left_action(1, xi)))
    via_212 = left_action(2, left_action(1, left_action(2, xi)))
    via_w0 = xi
    for i in reversed(w0.reduced_word()):
        via_w0 = left_action(i, via_w0)
    assert via_121 == via_212 == via_w0


# -------------------------------------------------------------------- products


def test_seidel_product_closed_forms():
    rs = build_root_system("A", 2)
    out = seidel_product(rs, 2, weyl_from_word(rs, (1, 2)))
    assert out == QKElement.schubert(rs, weyl_from_word(rs, (2, 1))).shift_q((0, 1))

    rsc = build_root_system("C", 2)
    out = seidel_product(rsc, 2, weyl_from_word(rsc, (1,)))
    assert out == QKElement.schubert(rsc, longest_element(rsc))

    out = seidel_product(rsc, 2, weyl_from_word(rsc, ()))
    assert out == QKElement.schubert(rsc, seidel_element(rsc, 2))


def test_seidel_product_rejects_non_special():
    rs = build_root_system("C", 2)
    with pytest.raises(ValueError):
        seidel_product(rs, 1, weyl_from_word(rs, (1,)))


@pytest.mark.parametrize(
    "system,other", [(("A", 3), ("D", 4)), (("C", 3), ("B", 3)), (("D", 4), ("A", 3)), (("B", 3), ("C", 3))]
)
def test_products_refuse_an_element_of_another_system(system, other):
    """seidel_product refuses a foreign w as bad input before it reads the registry;
    over the Borel base every w passes the minimality check first.  The parabolic product
    refuses it before the minimality check, which reads descents only: the foreign s_1
    has its descent in the subset {1}, and is still refused as foreign."""
    rs, foreign = build_root_system(*system), build_root_system(*other)
    borel = parabolic_data(rs, ())
    for w in (weyl_from_word(foreign, (1, 2)), longest_element(foreign)):
        for i in special_nodes(rs):
            with pytest.raises(ValueError, match="is an element of"):
                seidel_product(rs, i, w)
            with pytest.raises(ValueError, match="is an element of"):
                seidel_product_parabolic(rs, i, w, borel)
    s1, p = weyl_from_word(foreign, (1,)), parabolic_data(rs, (1,))
    for i in special_nodes(rs):
        with pytest.raises(ValueError, match=re.escape(f"{s1!r} is an element of {foreign!r}")):
            seidel_product_parabolic(rs, i, s1, p)


@pytest.mark.parametrize("system,other", [(("A", 3), ("B", 3)), (("B", 3), ("C", 3)), (("D", 4), ("A", 3))])
def test_parabolic_routes_refuse_a_subset_of_another_system(system, other):
    """A parabolic subset built over another system is refused by name, not as a KeyError
    of its coset table; seidel_product_parabolic checks it before `w not in p`, which
    reads descents only, so w = e and w = s_2 (a descent in the subset) are both refused."""
    rs, foreign = build_root_system(*system), build_root_system(*other)
    p = parabolic_data(foreign, (2,))
    message = re.escape(f"parabolic subset over {foreign!r} used with {rs!r}")
    for w in (weyl_from_word(rs, ()), weyl_from_word(rs, (2,)), weyl_from_word(rs, (1, 3))):
        with pytest.raises(ValueError, match=message):
            pushforward(QKElement.schubert(rs, w), p)
        for i in special_nodes(rs):
            with pytest.raises(ValueError, match=message):
                seidel_product_parabolic(rs, i, w, p)


@pytest.mark.parametrize("system,other", [(("A", 3), ("B", 3)), (("B", 3), ("C", 3)), (("D", 4), ("A", 3))])
def test_entry_points_refuse_an_element_of_another_system(system, other):
    """The QKElement constructor, gamma (behind o_class, grassmannian_key and both lemmas)
    and quantum_exponent refuse a foreign w by name.  B3 and C3 have the same number of
    roots, so no index of the foreign permutation fails first."""
    rs, foreign = build_root_system(*system), build_root_system(*other)
    one = LaurentPoly.one(rs.rank)
    for w in (foreign.weyl_group()[5], longest_element(foreign), foreign.identity_weyl()):
        message = re.escape(f"{w!r} is an element of {foreign!r}, not of {rs!r}")
        with pytest.raises(ValueError, match=message):
            QKElement(rs, {((0,) * rs.rank, w): one})
        for entry in (seidel.gamma, o_class, seidel.grassmannian_key):
            with pytest.raises(ValueError, match=message):
                entry(rs, w)
        for i in special_nodes(rs):
            for entry in (seidel.verify_key_lemma, seidel.verify_group_lemma, quantum_exponent):
                with pytest.raises(ValueError, match=message):
                    entry(rs, i, w)


def test_seidel_product_permutes_basis():
    rs = build_root_system("A", 3)
    group = rs.weyl_group()
    for i in special_nodes(rs):
        images = set()
        for w in group:
            ((_, x),) = seidel_product(rs, i, w).terms
            images.add(x)
        assert images == set(group)


def test_registry_mechanics():
    """A miss records the exponent its report checked; a failed report is refused."""
    rs = build_root_system("A", 2)
    s1 = weyl_from_word(rs, (1,))
    reg = VerificationRegistry()
    assert reg.exponent(1, s1) is None
    seidel_product(rs, 1, s1, reg)
    assert reg.exponent(1, s1) == verify_seidel_theorem(rs, 1, s1).q_exponent
    assert reg.exponent(2, s1) is None
    # Weyl elements compare by identity, so another system's s1 is a miss
    assert reg.exponent(1, weyl_from_word(build_root_system("C", 2), (1,))) is None
    # a hit's exponent meets the checks of shift_q before it forms Q^d O^{v_i w}
    for bad in [(-1, 0), (0, 0, 0)]:
        reg._exponents[2, s1] = bad
        with pytest.raises(ValueError, match="invalid exponent"):
            seidel_product(rs, 2, s1, reg)

    failed = VerificationReport(
        type_label="A",
        rank=2,
        node=1,
        word=(1,),
        q_exponent=(0, 0),
        product_word=(),
        checks=(("localized_product", False),),
    )
    with pytest.raises(VerificationError):
        reg.record(s1, failed)
    with pytest.raises(ValueError):
        reg.record(rs.identity_weyl(), verify_seidel_theorem(rs, 1, s1))


def test_seidel_product_takes_the_certified_exponent_on_a_miss(monkeypatch):
    """A registry miss checks the instance and records report.q_exponent; a hit returns
    that exponent and calls neither verify_seidel_theorem nor quantum_exponent."""
    rs = build_root_system("A", 3)
    w = weyl_from_word(rs, (2, 1, 3))
    verified, exponents = [], []

    def counting_verify(*args):
        verified.append(args)
        return verify_seidel_theorem(*args)

    def counting_exponent(*args):
        exponents.append(args)
        return quantum_exponent(*args)

    monkeypatch.setattr(qk, "verify_seidel_theorem", counting_verify)
    monkeypatch.setattr(seidel, "quantum_exponent", counting_exponent)
    reg = VerificationRegistry()
    for i in special_nodes(rs):
        missed = seidel_product(rs, i, w, reg)
        assert verified == [(rs, i, w)]
        ((d, _),) = missed.terms
        assert d == reg.exponent(i, w) == verify_seidel_theorem(rs, i, w).q_exponent
        assert d == quantum_exponent(rs, i, w)  # the unpatched function
        assert seidel_product(rs, i, w, reg) == missed
        assert verified == [(rs, i, w)]
        verified.clear()
    assert exponents == [] and not hasattr(qk, "quantum_exponent")


@pytest.mark.parametrize("type_label,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4)])
def test_quantum_exponent_is_the_certified_exponent(type_label, rank):
    """The public quantum_exponent, which no product reads, equals the exponent each
    theorem report certifies, on every special node and all of W."""
    rs = build_root_system(type_label, rank)
    for i in special_nodes(rs):
        for w in rs.weyl_group():
            assert quantum_exponent(rs, i, w) == verify_seidel_theorem(rs, i, w).q_exponent


def test_general_product_is_rejected():
    rs = build_root_system("A", 2)
    xi = QKElement.schubert(rs, weyl_from_word(rs, (1,)))
    with pytest.raises(UnsupportedProductError):
        xi * xi


def test_qkelement_validation():
    rs = build_root_system("A", 2)
    s1 = weyl_from_word(rs, (1,))
    with pytest.raises(ValueError):
        QKElement(rs, {((-1, 0), s1): LaurentPoly.one(2)})
    with pytest.raises(ValueError):
        QKElement(rs, {((0, 0, 1), s1): LaurentPoly.one(2)})
    with pytest.raises(ValueError):
        QKElement(rs, {((0, 0), s1): LaurentPoly.one(2)}, base=frozenset({1}))
    with pytest.raises(ValueError):  # so no QKElement holds a negative exponent
        QKElement.schubert(rs, s1).shift_q((-1, 0))
    assert not QKElement(rs, {((0, 0), s1): LaurentPoly.zero(2)}).terms


# ----------------------------------------------------------------- pushforward


def test_pushforward_trivial_base_is_identity():
    rs = build_root_system("A", 2)
    p = parabolic_data(rs, ())
    xi = QKElement.schubert(rs, weyl_from_word(rs, (1, 2))).shift_q((1, 0))
    assert pushforward(xi, p) == xi


def test_pushforward_hits_every_basis_class():
    rs = build_root_system("A", 3)
    for sub in all_subsets(rs):
        p = parabolic_data(rs, sub)
        images = set()
        for w in rs.weyl_group():
            ((_, x),) = pushforward(QKElement.schubert(rs, w), p).terms
            images.add(x)
        assert images == set(p.minimal_reps)


def test_pushforward_combines_collisions():
    rs = build_root_system("A", 2)
    p = parabolic_data(rs, (1,))
    s1 = weyl_from_word(rs, (1,))
    e = weyl_from_word(rs, ())
    one = LaurentPoly.one(2)
    xi = QKElement(rs, {((0, 0), s1): one, ((0, 0), e): -one})
    assert not pushforward(xi, p).terms


def test_pushforward_requires_borel_source():
    rs = build_root_system("A", 2)
    p = parabolic_data(rs, (1,))
    xi = pushforward(QKElement.schubert(rs, weyl_from_word(rs, (2, 1))), p)
    with pytest.raises(ValueError):
        pushforward(xi, p)


@pytest.mark.parametrize("type_label,rank", [("A", 3), ("C", 2)])
def test_pushforward_commutes_with_left_action(type_label, rank):
    rs = build_root_system(type_label, rank)
    for sub in all_subsets(rs):
        p = parabolic_data(rs, sub)
        assert verify_pushforward_commutes(p) and _by_products(p), sub


def test_pushforward_commutes_d4_sample():
    rs = build_root_system("D", 4)
    for sub in [(2,), (1, 3, 4), (1, 2, 3)]:
        assert verify_pushforward_commutes(parabolic_data(rs, sub)), sub


@pytest.mark.parametrize("side", ["flag", "parabolic"])
def test_commutation_check_sees_each_perturbed_left_action(monkeypatch, side):
    """Doubling s_i^L of one class makes the check fail, for every (i, w) on G/B and
    for every (i, m) on G/P; an intact check takes s_i^L once per (i, class) on each side."""
    rs = build_root_system("A", 3)
    p = parabolic_data(rs, (1, 3))
    original = qk.left_action
    base, indices = (frozenset(), rs.weyl_group()) if side == "flag" else (p.subset, p.minimal_reps)
    calls = []

    def counting(i, xi):
        if xi.base == base:
            calls.append((i, *xi.terms))
        return original(i, xi)

    monkeypatch.setattr(qk, "left_action", counting)
    assert verify_pushforward_commutes(p)
    assert len(calls) == len(set(calls)) == len(rs.nodes) * len(indices)
    for target in itertools.product(rs.nodes, indices):
        hits = []

        def perturbed(i, xi):
            out = original(i, xi)
            ((_, x),) = xi.terms
            if xi.base == base and (i, x) == target:
                hits.append(target)
                return QKElement._trusted(rs, {k: f + f for k, f in out.terms.items()}, out.base)
            return out

        monkeypatch.setattr(qk, "left_action", perturbed)
        assert not verify_pushforward_commutes(p), target
        assert hits == [target]
    monkeypatch.setattr(qk, "left_action", original)
    assert verify_pushforward_commutes(p)


@pytest.mark.parametrize("fault", ["closed form", "biconditional", "standard lemma"])
def test_commutation_check_sees_a_fault_that_one_of_its_tests_alone_sees(monkeypatch, fault):
    """Each fault reaches one of the tests in the commutation check's one pass, and the
    check reads false:
    - closed form: a pushforward that doubles every coefficient still commutes with the
      linear s_i^L, so only pushforward(O^w) = O^{minrep(w)} sees it;
    - biconditional: a membership test that takes every element for one of W^P leaves
      the standard lemma nothing to test, and the commutation reads no membership;
    - standard lemma: products composed in the opposite order; after a first pass every
      s_i w is remembered, so the lemma's w s_j is the only product the pass forms."""
    rs = build_root_system("A", 3)
    p = parabolic_data(rs, (1, 3))
    assert verify_pushforward_commutes(p)
    if fault == "closed form":
        original = qk.pushforward

        def doubled(xi, p):
            out = original(xi, p)
            return QKElement._trusted(rs, {k: f + f for k, f in out.terms.items()}, out.base)

        monkeypatch.setattr(qk, "pushforward", doubled)
    elif fault == "biconditional":
        monkeypatch.setattr(ParabolicData, "__contains__", lambda self, w: True)
    else:
        product = WeylElement.__mul__
        monkeypatch.setattr(WeylElement, "__mul__", lambda self, other: product(other, self))
    assert not verify_pushforward_commutes(p)


# ---------------------------------------------------------- parabolic products


def test_parabolic_product_rejects_non_minimal():
    rs = build_root_system("A", 2)
    p = parabolic_data(rs, (1,))
    with pytest.raises(ValueError):
        seidel_product_parabolic(rs, 2, weyl_from_word(rs, (1,)), p)


def test_parabolic_product_identity_factor():
    """Over P_i with w = e the product is the Seidel class of the cominuscule space."""
    rs = build_root_system("C", 3)
    i = special_nodes(rs)[0]
    p = parabolic_data(rs, tuple(j for j in rs.nodes if j != i))
    out = seidel_product_parabolic(rs, i, weyl_from_word(rs, ()), p)
    assert out == QKElement.schubert(rs, minrep_w(seidel_element(rs, i), p), p.subset)


def test_parabolic_product_two_routes_exhaustive_small():
    for type_label, rank in [("A", 2), ("C", 2)]:
        rs = build_root_system(type_label, rank)
        for sub in all_subsets(rs):
            p = parabolic_data(rs, sub)
            for i in special_nodes(rs):
                for w in p.minimal_reps:
                    seidel_product_parabolic(rs, i, w, p)


def test_d5_parabolic_instance():
    rs = build_root_system("D", 5)
    p4 = parabolic_data(rs, (1, 2, 3, 5))
    w = minrep_w(weyl_from_word(rs, (2, 4, 3, 5, 3, 1, 2)), p4)
    out = seidel_product_parabolic(rs, 4, w, p4)
    ((d, x),) = out.terms
    assert d == (0, 0, 0, 1, 0)
    assert x == minrep_w(seidel_element(rs, 4) * w, p4)


def test_parabolic_product_sees_routes_that_disagree(monkeypatch):
    """A pushforward that multiplies by Q_1 moves the pushforward route off the direct one."""
    rs = build_root_system("A", 3)
    p = parabolic_data(rs, (1, 3))
    original = qk.pushforward
    monkeypatch.setattr(qk, "pushforward", lambda xi, p: original(xi, p).shift_q((1, 0, 0)))
    for i in special_nodes(rs):
        for w in p.minimal_reps:
            with pytest.raises(VerificationError, match="routes disagree"):
                seidel_product_parabolic(rs, i, w, p)


def test_parabolic_product_sees_an_exponent_off_the_positive_cone(monkeypatch):
    """A projected exponent with a negative entry is refused as a failed verification,
    before the closed form would refuse it as bad input."""
    rs = build_root_system("A", 3)
    p = parabolic_data(rs, (2,))
    monkeypatch.setattr(qk, "minrep_beta", lambda beta, p: (-1, *beta[1:]))
    for i in special_nodes(rs):
        for w in p.minimal_reps:
            with pytest.raises(VerificationError, match="left the positive cone"):
                seidel_product_parabolic(rs, i, w, p)
