"""Peterson module tests: star action laws, localized classes, product identity."""
from __future__ import annotations

import itertools
import random

import pytest

from qkseidel import peterson
from qkseidel.affine import (
    ExtAffineWeylElement,
    affine_nodes,
    affine_simple_reflection,
    ext_identity,
    pi,
    sigma_elements,
    translation,
    from_finite,
)
from qkseidel.errors import SizeLimitError, UnsupportedProductError
from qkseidel.laurent import LaurentPoly, _pack, get_term_budget, set_term_budget
from qkseidel.nilhecke import braid_order
from qkseidel.peterson import (
    LocalizedClass,
    PetersonElement,
    _collapse,
    _grouped,
    _letter_schedule,
    _q_parts,
    _star_words,
    _theorem_node,
    ell,
    mult_by_ell_sigma,
    mult_by_translation,
    o_class,
    q_class,
    seidel_class,
    star_s,
    star_w,
    verify_seidel_theorem,
)
from qkseidel.qk import verify_phi_compatibility
from qkseidel.rootsys import (
    RootSystem,
    WeylElement,
    build_root_system,
    longest_element,
    special_nodes,
    weyl_from_word,
)
from qkseidel.seidel import gamma, grassmannian_key, seidel_element
from qkseidel.sweeps import NILHECKE_SWEEP_TYPES, grassmannian_ball

from oracles import (
    affine_from_word,
    mult_by_sigma_monomial,
    sigma_monomial,
    star_D,
    star_words_by_letters,
)


def grassmannian_up_to(rs, max_length: int):
    """All Grassmannian affine elements of length <= max_length, by BFS."""
    seen = {ext_identity(rs)}
    frontier = [ext_identity(rs)]
    for _ in range(max_length):
        nxt = []
        for x in frontier:
            for i in affine_nodes(rs):
                y = affine_simple_reflection(rs, i) * x
                if y not in seen and y.ext_length() == x.ext_length() + 1 and y.is_grassmannian():
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return sorted(seen, key=lambda x: (x.ext_length(), x.mu, x.u.m))


def random_peterson(rs, rng, pool, max_terms: int = 4) -> PetersonElement:
    terms = {}
    for x in rng.sample(pool, k=min(max_terms, len(pool))):
        exps = tuple(rng.randint(-2, 2) for _ in range(rs.rank))
        coeff = rng.randint(-3, 3)
        if coeff:
            constant = LaurentPoly.monomial((0,) * rs.rank, rng.randint(0, 2))
            terms[x] = LaurentPoly.monomial(exps, coeff) + constant
    return PetersonElement(rs, terms)


# ---------------------------------------------------------------- star action


@pytest.mark.parametrize("type_label,rank", [("A", 2), ("C", 2), ("D", 4)])
def test_star_involution_and_grassmannian_closure(type_label, rank):
    rs = build_root_system(type_label, rank)
    rng = random.Random(11)
    pool = grassmannian_up_to(rs, 4)
    for _ in range(6):
        z = random_peterson(rs, rng, pool)
        for i in affine_nodes(rs):
            once = star_s(i, z)
            assert all(y.is_grassmannian() for y in once.terms)
            assert star_s(i, once) == z


@pytest.mark.parametrize("type_label,rank", [("A", 2), ("C", 2), ("G", 2)])
def test_star_braid_relations(type_label, rank):
    """(s_i s_j)^{m_ij} acts trivially, for every affine pair."""
    from qkseidel.nilhecke import braid_order

    rs = build_root_system(type_label, rank)
    rng = random.Random(13)
    pool = grassmannian_up_to(rs, 4)
    for _ in range(4):
        z = random_peterson(rs, rng, pool)
        nodes = affine_nodes(rs)
        for a in range(len(nodes)):
            for b in range(a + 1, len(nodes)):
                i, j = nodes[a], nodes[b]
                m = braid_order(rs, i, j)
                got = z
                for _ in range(m):
                    got = star_s(i, got)
                    got = star_s(j, got)
                assert got == z, (i, j, m)


def test_star_semilinearity():
    """s_i * (f z) = s_i(f) (s_i * z), coefficients twisted by the level-zero action."""
    rs = build_root_system("C", 2)
    rng = random.Random(17)
    pool = grassmannian_up_to(rs, 4)
    for _ in range(5):
        z = random_peterson(rs, rng, pool)
        f = LaurentPoly.monomial((1, -1), 2) + LaurentPoly.one(2)
        for i in affine_nodes(rs):
            twist = affine_simple_reflection(rs, i).u.m
            assert star_s(i, z.scale(f)) == star_s(i, z).scale(f.act_exponents(twist))


def test_star_w_word_independence():
    rs = build_root_system("A", 2)
    pool = grassmannian_up_to(rs, 3)
    z = PetersonElement(rs, {x: LaurentPoly.one(2) for x in pool[:5]})
    w = longest_element(rs)
    via_121 = star_s(1, star_s(2, star_s(1, z)))
    via_212 = star_s(2, star_s(1, star_s(2, z)))
    assert via_121 == via_212 == star_w(w, z)


@pytest.mark.parametrize(
    "type_label,rank", [("A", 2), ("C", 2), ("G", 2), ("B", 3), ("D", 4)]
)
def test_star_w_frame_against_letter_oracle(type_label, rank):
    """The framed star_w equals star_s composed along the word, term by term."""
    rs = build_root_system(type_label, rank)
    rng = random.Random(29)
    pool = grassmannian_up_to(rs, 3)
    group = rs.weyl_group()
    for w in [longest_element(rs)] + rng.sample(group, k=min(8, len(group))):
        z = random_peterson(rs, rng, pool)
        assert len(z.terms) > 1
        assert star_w(w, z) == star_words_by_letters(z, w.reduced_word()), w.reduced_word()


def test_star_D_defining_relation_and_examples():
    """star_s(i, z) = e^{alpha_i} z + (1 - e^{alpha_i}) star_D(i, z)."""
    from qkseidel.affine import affine_simple_root

    rs = build_root_system("A", 2)
    rng = random.Random(19)
    pool = grassmannian_up_to(rs, 4)
    for _ in range(5):
        z = random_peterson(rs, rng, pool)
        for i in affine_nodes(rs):
            alpha = LaurentPoly.monomial(affine_simple_root(rs, i).finite)
            lhs = star_s(i, z)
            d = star_D(i, z)
            assert lhs == z.scale(alpha) + d.scale(LaurentPoly.one(rs.rank) - alpha)
            assert star_D(i, d) == d

    assert star_D(0, ell(ext_identity(rs))) == ell(affine_from_word(rs, (0,)))


def geometric_divided_difference(rs, i: int, f: LaurentPoly) -> LaurentPoly:
    """(s_i f - f) / (1 - e^{alpha_i}), one monomial at a time.

    With p = <alpha_i^vee, beta> at level zero, s_i e^beta = e^{beta - p alpha_i},
    and the quotient is the finite geometric sum of e^{beta - k alpha_i} over
    1 <= k <= p, or minus that of e^{beta + k alpha_i} over 0 <= k < -p.
    """
    from qkseidel.affine import affine_simple_root, theta_pairings

    alpha = affine_simple_root(rs, i).finite
    out = LaurentPoly(rs.rank)
    for beta, c in f.terms.items():
        if i == 0:
            p = -sum(b * t for b, t in zip(beta, theta_pairings(rs)))
        else:
            p = rs.pair_coroot_root(i, beta)
        ks = range(1, p + 1) if p >= 0 else range(0, p, -1)
        for k in ks:
            mono = LaurentPoly.monomial(tuple(b - k * a for b, a in zip(beta, alpha)), c)
            out = out + mono if p >= 0 else out - mono
    return out


@pytest.mark.parametrize("type_label,rank", [("A", 2), ("C", 2), ("G", 2)])
def test_star_D_divided_difference_against_geometric_sums(type_label, rank):
    """star_D's divided difference agrees with the per-monomial geometric sum."""
    from qkseidel.affine import affine_simple_root

    rs = build_root_system(type_label, rank)
    rng = random.Random(23)
    pool = grassmannian_up_to(rs, 4)
    for _ in range(4):
        z = random_peterson(rs, rng, pool)
        for i in affine_nodes(rs):
            si = affine_simple_reflection(rs, i)
            alpha = LaurentPoly.monomial(affine_simple_root(rs, i).finite)
            expect = PetersonElement(rs)
            for x, f in z.terms.items():
                delta = geometric_divided_difference(rs, i, f)
                y = si * x
                if y.ext_length() > x.ext_length() and y.is_grassmannian():
                    expect = expect + PetersonElement(rs, {x: alpha * delta})
                    expect = expect + PetersonElement(rs, {y: f.act_exponents(si.u.m)})
                else:
                    expect = expect + PetersonElement(rs, {x: f + delta})
            assert star_D(i, z) == expect, (i, z)


@pytest.mark.parametrize("type_label,rank", NILHECKE_SWEEP_TYPES)
def test_star_D_satisfies_the_nil_hecke_relations(type_label, rank):
    """D_i^2 = D_i and every braid relation of braid_order, on ell(x) over the
    Grassmannian ball of radius 4: the nil-Hecke algebra acts through star_D."""
    rs = build_root_system(type_label, rank)
    nodes = affine_nodes(rs)
    for x in grassmannian_ball(rs, 4):
        z = ell(x)
        for i in nodes:
            d = star_D(i, z)
            assert star_D(i, d) == d, (i, x)
        for i, j in itertools.combinations(nodes, 2):
            a = b = z
            for k in range(braid_order(rs, i, j)):
                a, b = star_D((i, j)[k % 2], a), star_D((j, i)[k % 2], b)
            assert a == b, (i, j, x)


def test_peterson_element_rejects_non_grassmannian():
    rs = build_root_system("A", 2)
    x = from_finite(weyl_from_word(rs, (1,)))
    with pytest.raises(ValueError):
        PetersonElement(rs, {x: LaurentPoly.one(2)})


# -------------------------------------------------------------- multiplication


def test_translation_product_requires_antidominant():
    rs = build_root_system("A", 2)
    z = ell(ext_identity(rs))
    assert mult_by_translation(z, (-1, 0)) == ell(translation(rs, (-1, 0)))
    with pytest.raises(UnsupportedProductError):
        mult_by_translation(z, (1, 0))


@pytest.mark.parametrize("type_label,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2)])
def test_translation_product_matches_checked_product(type_label, rank):
    """The unchecked keys x t_lam are Grassmannian and equal the checked x * t_lam."""
    rs = build_root_system(type_label, rank)
    rng = random.Random(43)
    pool = grassmannian_up_to(rs, 3)
    for _ in range(12):
        z = random_peterson(rs, rng, pool)
        lam = tuple(-rng.randrange(0, 3) for _ in rs.nodes)
        product = mult_by_translation(z, lam)
        assert all(x.is_grassmannian() for x in product.terms)
        t = translation(rs, lam)
        assert product == PetersonElement(rs, {x * t: f for x, f in z.terms.items()})


def _cross_multiplied(a: LocalizedClass, b: LocalizedClass) -> bool:
    """Oracle: a.num sigma^{b.den} == b.num sigma^{a.den}, by checked general products."""
    rs = a.num.rs

    def times_sigma(z, m):
        t = translation(rs, tuple(-c for c in m))
        return PetersonElement(rs, {x * t: f for x, f in z.terms.items()})

    return times_sigma(a.num, b.den) == times_sigma(b.num, a.den)


@pytest.mark.parametrize("type_label,rank", [("A", 3), ("C", 3), ("D", 4)])
def test_localized_equality_matches_cross_multiplication(type_label, rank):
    """Equal, comparable and incomparable denominators, on equal and unequal classes."""
    rs = build_root_system(type_label, rank)
    rng = random.Random(47)
    pool = grassmannian_up_to(rs, 3)
    unit = [tuple(int(k == j) for k in rs.nodes) for j in rs.nodes]
    seen = set()
    for _ in range(30):
        num = random_peterson(rs, rng, pool)
        den = tuple(rng.randrange(0, 3) for _ in rs.nodes)
        c = tuple(rng.randrange(0, 2) for _ in rs.nodes)
        kind = rng.choice(("equal", "comparable", "incomparable"))
        if kind == "equal":
            d = c
        elif kind == "comparable":
            d = tuple(a + b for a, b in zip(c, rng.choice(unit)))
        else:
            j, k = rng.sample(range(rank), 2)
            c, d = unit[j], unit[k]
        a = LocalizedClass(mult_by_sigma_monomial(num, c), tuple(p + q for p, q in zip(den, c)))
        b = LocalizedClass(mult_by_sigma_monomial(num, d), tuple(p + q for p, q in zip(den, d)))
        other = LocalizedClass(random_peterson(rs, rng, pool), b.den)
        shifted = LocalizedClass(a.num, tuple(p + q for p, q in zip(b.den, rng.choice(unit))))
        for left, right, equal in ((a, b, True), (a, other, None), (b, shifted, False)):
            verdict = left == right
            assert verdict == _cross_multiplied(left, right) == (right == left)
            assert equal is None or verdict == equal
            seen.add((kind, verdict))
    assert {kind for kind, _ in seen} == {"equal", "comparable", "incomparable"}
    assert {verdict for _, verdict in seen} == {True, False}


@pytest.mark.parametrize("type_label,rank", [("A", 2), ("C", 2), ("D", 4)])
def test_sigma_classes_are_star_invariant(type_label, rank):
    rs = build_root_system(type_label, rank)
    w0 = longest_element(rs)
    for j in rs.nodes:
        m = tuple(1 if k == j else 0 for k in rs.nodes)
        assert star_w(w0, sigma_monomial(rs, m)) == sigma_monomial(rs, m)


def test_length_zero_products_match_group_law():
    """ell_{sigma sigma'} = ell_sigma (u_sigma star ell_{sigma'}) over the whole Sigma group."""
    for type_label, rank in [("A", 2), ("A", 3), ("D", 4), ("D", 5)]:
        rs = build_root_system(type_label, rank)
        for s in sigma_elements(rs):
            for t in sigma_elements(rs):
                twisted = star_w(s.u, ell(t))
                assert mult_by_ell_sigma(s, twisted) == ell(s * t)


@pytest.mark.parametrize("type_label,rank", [("A", 3), ("D", 4)])
def test_mult_by_ell_sigma_against_twist_formula(type_label, rank):
    """The framed product equals star_w by u^{-1}, a twist by u and a relabel by sigma."""
    rs = build_root_system(type_label, rank)
    rng = random.Random(31)
    pool = grassmannian_up_to(rs, 3)
    for s in sigma_elements(rs):
        u = s.u
        for _ in range(3):
            z = random_peterson(rs, rng, pool)
            y = star_w(u.inverse(), z)
            expected = PetersonElement(
                rs, {s * x: f.act_exponents(u.m) for x, f in y.terms.items()}
            )
            assert mult_by_ell_sigma(s, z) == expected


def test_framed_paths_twist_once(monkeypatch):
    """mult_by_ell_sigma twists nothing; verify_seidel_theorem twists only the collapsed term."""
    rs = build_root_system("D", 4)
    calls = []
    original = LaurentPoly.act_exponents

    def counting(self, matrix):
        calls.append(matrix)
        return original(self, matrix)

    monkeypatch.setattr(LaurentPoly, "act_exponents", counting)
    pool = grassmannian_up_to(rs, 3)
    z = PetersonElement(rs, {x: LaurentPoly.monomial((1, 0, -1, 0)) for x in pool[:6]})
    for s in sigma_elements(rs):
        mult_by_ell_sigma(s, z)
    assert calls == []
    w = weyl_from_word(rs, (1, 2, 3, 4, 2))
    for i in special_nodes(rs):
        calls.clear()
        assert verify_seidel_theorem(rs, i, w).passed
        assert calls == [seidel_element(rs, i).m]


@pytest.mark.parametrize("type_label,rank", [("A", 3), ("B", 3), ("D", 4)])
def test_collapse_is_sigma_product_of_star_w(type_label, rank):
    """_collapse of the framed words is ell_{pi_i^{-1}} (v star z), for z = e^{alpha_1} ell(x)."""
    rs = build_root_system(type_label, rank)
    rng = random.Random(53)
    alpha = LaurentPoly.monomial(rs.simple_root(1))
    for i in special_nodes(rs):
        v, sig_inv, schedule = _theorem_node(rs, i)
        wrong_twist_seen = False
        for w in rng.sample(rs.weyl_group(), 10):
            z = ell(grassmannian_key(rs, w)).scale(alpha)
            terms, _, _ = _star_words(rs, _grouped(z.terms), schedule)
            expected = mult_by_ell_sigma(pi(rs, i).inverse(), star_w(v, z))
            assert _collapse(terms, v, sig_inv) == expected, (i, w.reduced_word())
            wrong = PetersonElement(
                rs, {sig_inv * y: g.act_exponents(v.inverse().m) for y, g in terms.items()}
            )
            wrong_twist_seen |= wrong != expected
        # a twist by v^{-1} shows wherever v is not an involution
        assert wrong_twist_seen == (v != v.inverse()), i


def test_collapse_frame_is_trivial_on_every_special_node():
    """sigma_collapse holds by construction: the finite part of pi_i^{-1} is v_i, so
    the second word is v_i^{-1}'s and the frame after both words is the identity."""
    types = (
        [("A", r) for r in range(1, 6)] + [("B", r) for r in range(2, 5)]
        + [("C", r) for r in range(2, 5)] + [("D", r) for r in range(4, 7)]
        + [("E", 6), ("E", 7)]
    )
    for type_label, rank in types:
        rs = RootSystem(type_label, rank)
        for i in special_nodes(rs):
            v, sig_inv, (_, frame, _) = _theorem_node(rs, i)
            assert sig_inv.u == v, (type_label, rank, i)
            assert frame.is_identity, (type_label, rank, i)


def test_theorem_bookkeeping_makes_no_general_products(monkeypatch):
    """Past the star words, verify_seidel_theorem multiplies only sig_inv * x, once: the
    target is the one key of the collapse."""
    rs = build_root_system("D", 4)
    weyl = rs.weyl_group()
    for i in special_nodes(rs):
        _theorem_node(rs, i)
    calls = []
    original = ExtAffineWeylElement.__mul__

    def counting(self, other):
        calls.append(other)
        return original(self, other)

    monkeypatch.setattr(ExtAffineWeylElement, "__mul__", counting)
    for i in special_nodes(rs):
        for w in (weyl[0], weyl[len(weyl) // 2], longest_element(rs)):
            calls.clear()
            assert verify_seidel_theorem(rs, i, w).passed
            # the one collapsed key, which is the target
            assert len(calls) == 1, (i, w.reduced_word(), calls)


@pytest.mark.parametrize("type_label,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4)])
def test_theorem_q_parts_are_those_of_its_exponent(type_label, rank, monkeypatch):
    """The theorem takes lam and den of Q^q from the pairings omega_i^vee - w^{-1}(omega_i^vee)
    it holds, with no round trip through the coroot basis: they are the parts of the
    pairings <q, alpha_j> of the reported exponent q, on every special node and every w."""
    rs = build_root_system(type_label, rank)
    seen = []

    def recording(pairings):
        seen.append(_q_parts(pairings))
        return seen[-1]

    monkeypatch.setattr(peterson, "_q_parts", recording)
    for i in special_nodes(rs):
        for w in rs.weyl_group():
            seen.clear()
            rep = verify_seidel_theorem(rs, i, w)
            assert rep.passed and len(seen) == 1, (i, w.reduced_word())
            pairings = rs.coroots_to_coweight(rep.q_exponent)
            lam, den = seen[0]
            assert lam == tuple(min(p, 0) for p in pairings), (i, w.reduced_word())
            assert den == tuple(max(p, 0) for p in pairings), (i, w.reduced_word())
            assert (lam, den) == _q_parts(pairings)


def test_key_identities_do_not_read_the_star_words(monkeypatch):
    """With the star words' coefficients doubled, sigma_collapse and localized_product
    fail, while key_identities, a group identity, and the exponent stand: the target is
    then pi_i^{-1} x by the product, not the collapse's key."""
    rs = build_root_system("D", 4)
    original = peterson._star_words

    def doubled(rs, groups, schedule):
        terms, frame, support = original(rs, groups, schedule)
        return {y: g + g for y, g in terms.items()}, frame, support

    for i in special_nodes(rs):
        for w in (rs.weyl_group()[5], longest_element(rs)):
            good = verify_seidel_theorem(rs, i, w)
            monkeypatch.setattr(peterson, "_star_words", doubled)
            bad = verify_seidel_theorem(rs, i, w)
            monkeypatch.undo()
            assert dict(bad.checks) == {
                "grassmannian_support": True,
                "sigma_collapse": False,
                "key_identities": True,
                "localized_product": False,
            }
            assert bad.q_exponent == good.q_exponent and good.passed


def test_key_identities_see_a_wrong_gamma_of_the_product(monkeypatch):
    """A gamma that reads the complementary descent set on v_i w alone moves key_vw off
    the collapse's target: key_identities reads false, while the words' two checks, which
    read gamma_w only, hold."""
    rs = RootSystem("A", 3)  # cold: the wrong key is interned on this system alone
    original = peterson.gamma
    for i in special_nodes(rs):
        for w in (rs.weyl_group()[5], longest_element(rs)):
            vw = seidel_element(rs, i) * w

            def wrong_on_vw(rs, u):
                g = original(rs, u)
                return tuple(-1 - c for c in g) if u is vw else g

            monkeypatch.setattr(peterson, "gamma", wrong_on_vw)
            checks = dict(verify_seidel_theorem(rs, i, w).checks)
            monkeypatch.undo()
            assert checks["key_identities"] is False, (i, w)
            assert checks["grassmannian_support"] and checks["sigma_collapse"], (i, w)


def test_grassmannian_support_sees_a_start_that_is_not_grassmannian(monkeypatch):
    """The words keep a Grassmannian start Grassmannian by Deodhar's rule; a gamma_w of 0
    for a w with descents starts them at w t_0, which is not, and grassmannian_support
    reads false."""
    rs = RootSystem("A", 3)  # cold: the wrong keys are interned on this system alone
    original = peterson.gamma
    for i in special_nodes(rs):
        for w in (weyl_from_word(rs, (1,)), weyl_from_word(rs, (2, 1, 3)), longest_element(rs)):

            def zero_on_w(rs, u):
                return (0,) * rs.rank if u is w else original(rs, u)

            monkeypatch.setattr(peterson, "gamma", zero_on_w)
            checks = dict(verify_seidel_theorem(rs, i, w).checks)
            monkeypatch.undo()
            assert checks["grassmannian_support"] is False, (i, w)


def test_mult_by_ell_sigma_refuses_an_element_of_nonzero_length():
    rs = build_root_system("C", 2)
    with pytest.raises(ValueError, match="has length 1, not 0"):
        mult_by_ell_sigma(from_finite(rs.simple_reflection(1)), ell(ext_identity(rs)))


def test_mult_by_ell_sigma_on_unit():
    rs = build_root_system("C", 2)
    for s in sigma_elements(rs):
        assert mult_by_ell_sigma(s, ell(ext_identity(rs))) == ell(s)


# ------------------------------------------------------------ localized classes


def test_localized_equality_is_cross_multiplication():
    rs = build_root_system("A", 2)
    one = LocalizedClass(ell(ext_identity(rs)), (0, 0))
    scaled = LocalizedClass(sigma_monomial(rs, (1, 0)), (1, 0))
    assert one == scaled
    assert o_class(rs, weyl_from_word(rs, ())) == one


@pytest.mark.parametrize("type_label,rank", [("A", 2), ("C", 2)])
def test_o_class_is_translation_independent(type_label, rank):
    """ell_{w t_lam} / prod sigma_j^{-lam_j} agrees with O^w whenever the key is Grassmannian."""
    rs = build_root_system(type_label, rank)
    shifts = [
        (-1, -1),
        (-2, -1),
        (-1, -2),
        (-2, -2),
        (-3, -2),
    ]
    for w in rs.weyl_group():
        for lam in shifts:
            x = from_finite(w) * translation(rs, lam)
            if not x.is_grassmannian():
                continue
            assert LocalizedClass(ell(x), tuple(-c for c in lam)) == o_class(rs, w), (
                w.reduced_word(),
                lam,
            )


def test_o_class_denominator_tracks_descents():
    for type_label, rank in [("A", 3), ("B", 3), ("C", 3), ("D", 4)]:
        rs = build_root_system(type_label, rank)
        for w in rs.weyl_group():
            den = o_class(rs, w).den
            des = w.descent_set()
            assert den == tuple(1 if j in des else 0 for j in rs.nodes)


def test_a2_o_dictionary():
    rs = build_root_system("A", 2)
    s0 = affine_from_word(rs, (0,))
    p1 = pi(rs, 1).inverse()
    p2 = pi(rs, 2).inverse()
    table = {
        (1,): (p1 * s0, (1, 0)),
        (2,): (p2 * s0, (0, 1)),
        (1, 2): (p2, (0, 1)),
        (2, 1): (p1, (1, 0)),
        (1, 2, 1): (s0, (1, 1)),
    }
    for word, (key, den) in table.items():
        w = weyl_from_word(rs, word)
        assert o_class(rs, w) == LocalizedClass(ell(key), den), word


def test_c2_o_dictionary():
    rs = build_root_system("C", 2)
    p2 = pi(rs, 2).inverse()

    def aw(*word):
        return affine_from_word(rs, word)

    table = {
        (1,): (aw(2, 1, 0), (1, 0)),
        (2,): (p2 * aw(1, 0), (0, 1)),
        (1, 2): (p2 * aw(0), (0, 1)),
        (2, 1): (aw(1, 0), (1, 0)),
        (1, 2, 1): (aw(0), (1, 0)),
        (2, 1, 2): (p2, (0, 1)),
        (1, 2, 1, 2): (p2 * aw(2, 1, 0), (1, 1)),
    }
    for word, (key, den) in table.items():
        w = weyl_from_word(rs, word)
        assert o_class(rs, w) == LocalizedClass(ell(key), den), word


def test_q_dictionaries():
    rs = build_root_system("A", 2)
    assert q_class(rs, (1, 0)) == LocalizedClass(sigma_monomial(rs, (0, 1)), (2, 0))
    assert q_class(rs, (0, 1)) == LocalizedClass(sigma_monomial(rs, (1, 0)), (0, 2))
    rsc = build_root_system("C", 2)
    assert q_class(rsc, (1, 0)) == LocalizedClass(sigma_monomial(rsc, (0, 2)), (2, 0))
    assert q_class(rsc, (0, 1)) == LocalizedClass(sigma_monomial(rsc, (1, 0)), (0, 2))


def test_q_class_is_multiplicative():
    rs = build_root_system("C", 3)
    a, b = (1, 0, 2), (0, 1, 1)
    ab = tuple(x + y for x, y in zip(a, b))
    qa, qb, qab = q_class(rs, a), q_class(rs, b), q_class(rs, ab)
    prod = LocalizedClass(
        mult_by_translation(qa.num, _lam_of_translation(qb.num)),
        tuple(x + y for x, y in zip(qa.den, qb.den)),
    )
    assert prod == qab


def _lam_of_translation(z):
    (key,) = z.terms
    assert key.u.is_identity
    return key.mu


@pytest.mark.parametrize(
    "type_label,rank",
    [("A", r) for r in (2, 3, 4, 5)]
    + [("B", r) for r in (3, 4, 5)]
    + [("C", r) for r in (2, 3, 4, 5)]
    + [("D", r) for r in (4, 5)],
)
def test_seidel_class_equals_o_class_of_v(type_label, rank):
    rs = build_root_system(type_label, rank)
    for i in special_nodes(rs):
        assert seidel_class(rs, i) == o_class(rs, seidel_element(rs, i)), i


# ------------------------------------------------------------------- theorem


def test_a2_product_table_node2():
    rs = build_root_system("A", 2)
    expect = {
        (1,): ((0, 0), (1, 2, 1)),
        (2,): ((0, 1), (1,)),
        (1, 2): ((0, 1), (2, 1)),
        (2, 1): ((1, 1), ()),
        (1, 2, 1): ((1, 1), (2,)),
    }
    for word, (qe, pw) in expect.items():
        rep = verify_seidel_theorem(rs, 2, weyl_from_word(rs, word))
        assert rep.passed, (word, rep.checks)
        assert (rep.q_exponent, rep.product_word) == (qe, pw), word


def test_c2_product_table_node2():
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
    for word, (qe, pw) in expect.items():
        rep = verify_seidel_theorem(rs, 2, weyl_from_word(rs, word))
        assert rep.passed, (word, rep.checks)
        assert (rep.q_exponent, rep.product_word) == (qe, pw), word


@pytest.mark.parametrize("type_label,rank", [("A", 2), ("C", 2), ("A", 3)])
def test_theorem_exhaustive_small(type_label, rank):
    rs = build_root_system(type_label, rank)
    for i in special_nodes(rs):
        for w in rs.weyl_group():
            rep = verify_seidel_theorem(rs, i, w)
            assert rep.passed, (i, w.reduced_word(), rep.checks)


def test_theorem_rejects_non_special_node():
    rs = build_root_system("C", 2)
    with pytest.raises(ValueError):
        verify_seidel_theorem(rs, 1, weyl_from_word(rs, (1,)))


@pytest.mark.parametrize(
    "system,other", [(("A", 3), ("D", 4)), (("C", 3), ("B", 3)), (("D", 4), ("A", 3)), (("B", 3), ("C", 3))]
)
def test_theorem_rejects_an_element_of_another_system(system, other):
    """An element of another system is bad input, refused before any index is read: not an
    IndexError from its permutation, nor a VerificationError from its coweights."""
    rs, foreign = build_root_system(*system), build_root_system(*other)
    for w in (weyl_from_word(foreign, (1, 2)), longest_element(foreign)):
        for i in special_nodes(rs):
            with pytest.raises(ValueError, match="is an element of"):
                verify_seidel_theorem(rs, i, w)


@pytest.mark.parametrize(
    "system,other", [(("A", 3), ("B", 3)), (("B", 3), ("C", 3)), (("D", 4), ("A", 3))]
)
def test_star_products_refuse_an_element_of_another_system(system, other):
    """star_w and mult_by_ell_sigma refuse a finite or length-zero element of another
    system before reading its word: letters 1..3 of B3 are letters of A3 too, so reading
    the word would return a wrong class, and sigma's relabelling would index past A3."""
    rs, foreign = build_root_system(*system), build_root_system(*other)
    z = ell(grassmannian_key(rs, weyl_from_word(rs, (1, 2))))
    for w in (weyl_from_word(foreign, (1, 2)), longest_element(foreign)):
        with pytest.raises(ValueError, match="is an element of"):
            star_w(w, z)
    for sigma in sigma_elements(foreign):
        with pytest.raises(ValueError, match="is an element of"):
            mult_by_ell_sigma(sigma, z)


def test_peterson_sum_refuses_mixed_systems():
    a3, b3 = build_root_system("A", 3), build_root_system("B", 3)
    with pytest.raises(ValueError, match="cannot add"):
        ell(ext_identity(a3)) + ell(ext_identity(b3))
    assert ell(ext_identity(a3)) + ell(ext_identity(a3)) == ell(ext_identity(a3)).scale(
        LaurentPoly.monomial((0, 0, 0), 2)
    )


def test_d5_node4_instance():
    """Node 4 against a length-7 element; the exponent spans four coroots."""
    rs = build_root_system("D", 5)
    w = weyl_from_word(rs, (2, 4, 3, 5, 3, 1, 2))
    rep = verify_seidel_theorem(rs, 4, w)
    assert rep.passed, rep.checks
    assert rep.q_exponent == (0, 1, 1, 1, 1)


@pytest.mark.parametrize("type_label,rank", [("A", 2), ("C", 2)])
def test_phi_compatibility_exhaustive(type_label, rank):
    rs = build_root_system(type_label, rank)
    for w in rs.weyl_group():
        for i in rs.nodes:
            assert verify_phi_compatibility(rs, i, w), (i, w.reduced_word())


def test_report_payload_shape():
    rs = build_root_system("A", 2)
    rep = verify_seidel_theorem(rs, 1, weyl_from_word(rs, (2,)))
    assert rep.type_label == "A" and rep.rank == 2 and rep.node == 1
    assert rep.word == (2,)
    names = tuple(name for name, _ in rep.checks)
    assert names == (
        "grassmannian_support",
        "sigma_collapse",
        "key_identities",
        "localized_product",
    )
    assert bool(rep) is rep.passed is True


@pytest.mark.parametrize(
    "type_label,rank,length", [("G", 2, 6), ("F", 4, 10), ("E", 6, 10), ("E", 8, 8)]
)
def test_packed_star_w_against_letter_oracle_on_wide_fields(type_label, rank, length):
    """Highest-root coefficients up to 6 and exponents in [-2, 2] at the start.

    w is a product of random simple reflections, so no Weyl group is
    enumerated; z holds every Grassmannian element of length <= 2, so words
    meet pairs x, s_i x that are both keys.
    """
    rs = build_root_system(type_label, rank)
    rng = random.Random(41)
    pool = grassmannian_up_to(rs, 2)
    for _ in range(3):
        w = weyl_from_word(rs, [rng.choice(rs.nodes) for _ in range(length)])
        z = PetersonElement(rs, {
            x: LaurentPoly(rank, {
                tuple(rng.randint(-2, 2) for _ in range(rank)): rng.choice((-2, -1, 1, 2))
                for _ in range(3)
            })
            for x in pool
        })
        assert star_w(w, z) == star_words_by_letters(z, w.reduced_word()), w.reduced_word()


def mult_by_ell_sigma_by_letters(s, z):
    """star_s along the word of u^{-1}, then a twist by u and a relabel by sigma."""
    u = s.u
    y = star_words_by_letters(z, u.inverse().reduced_word())
    return PetersonElement(z.rs, {s * x: f.act_exponents(u.m) for x, f in y.terms.items()})


def filled_peterson(rs, rng, pool, letters: int) -> PetersonElement:
    """Up to six keys with exponents up to the start that fills the packed field of a word of
    this many letters: start + letters max(theta) = 2^(k-1) - 1, the most width k holds."""
    spread = letters * max(rs.highest_root)
    start = (1 << spread.bit_length()) - 1 - spread
    return PetersonElement(rs, {
        x: LaurentPoly(rs.rank, {
            tuple(rng.choice((-start, start, rng.randint(-start, start))) for _ in rs.nodes):
                rng.choice((-2, -1, 1, 2))
            for _ in range(4)
        })
        for x in rng.sample(pool, k=min(6, len(pool)))
    })


@pytest.mark.parametrize(
    "type_label,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2)]
)
def test_star_words_against_letters_at_the_packing_bound(type_label, rank):
    """Offsets per key and pairs updated in place give star_s letter by letter, with
    start exponents at the packing bound."""
    rs = build_root_system(type_label, rank)
    rng = random.Random(53)
    pool = grassmannian_up_to(rs, 3)
    words = [rs.nodes, [rng.choice(rs.nodes) for _ in range(8)]]
    for w in [longest_element(rs)] + [weyl_from_word(rs, word) for word in words]:
        z = filled_peterson(rs, rng, pool, w.length())
        assert star_w(w, z) == star_words_by_letters(z, w.reduced_word()), w.reduced_word()
    for s in sigma_elements(rs):
        z = filled_peterson(rs, rng, pool, s.u.length())
        assert mult_by_ell_sigma(s, z) == mult_by_ell_sigma_by_letters(s, z)


@pytest.mark.parametrize("type_label,rank", [("A", 3), ("D", 4)])
def test_star_words_drop_a_key_that_cancels(type_label, rank):
    """z = f l_x + (e^{-alpha_i} - 1) f l_y with y = s_i x: the first letter, i, adds
    (1 - e^{alpha_i}) s_i(f) to s_i((e^{-alpha_i} - 1) f) = (e^{alpha_i} - 1) s_i(f) at y,
    so y's coefficient cancels and y is dropped."""
    rs = build_root_system(type_label, rank)
    pool = grassmannian_up_to(rs, 3)
    f = LaurentPoly.monomial(tuple(range(rank)), 3) + LaurentPoly.monomial((0,) * rank, -1)
    for s in sigma_elements(rs):
        word = s.u.inverse().reduced_word()
        if not word:
            continue
        i = word[-1]
        s_i = affine_simple_reflection(rs, i)
        x, y = next(
            (x, y) for x in pool if x.left_ascent(i) and (y := s_i * x).is_grassmannian()
        )
        lowered = LaurentPoly.monomial(tuple(-a for a in rs.simple_root(i)))
        z = PetersonElement(rs, {x: f, y: (lowered - LaurentPoly.one(rank)) * f})
        assert y not in star_s(i, z).terms
        ((mu, group),) = _grouped(z.terms).items()
        assert set(group) == {x.u, y.u}
        assert _star_words(rs, {mu: group}, _letter_schedule(rs, (i,)))[2] == [(mu, [x.u])]
        si = weyl_from_word(rs, (i,))
        assert star_w(si, z) == star_words_by_letters(z, si.reduced_word())
        assert mult_by_ell_sigma(s, z) == mult_by_ell_sigma_by_letters(s, z)
        w0 = longest_element(rs)
        assert star_w(w0, z) == star_words_by_letters(z, w0.reduced_word())


@pytest.mark.parametrize("survives", [True, False])
@pytest.mark.parametrize("type_label,rank", [("B", 3), ("D", 4)])
def test_star_words_update_a_present_key_in_place(type_label, rank, survives):
    """z = f l_x + g l_y with y = s_i x and g = (e^{-alpha_i} - 1) f + h: the letter i adds
    (1 - e^{alpha_i}) s_i(f) into y's s_i(g) = (e^{alpha_i} - 1) s_i(f) + s_i(h), so every
    exponent cancels but those of s_i(h).  f has three terms and h two, one on an exponent
    of (e^{-alpha_i} - 1) f, so coefficients collide in g and y survives with s_i(h); with
    h = 0, y cancels completely and is dropped.  Against star_s letter by letter, on the
    letter alone, on w_0 and on each ell_sigma product."""
    rs = build_root_system(type_label, rank)
    pool = grassmannian_up_to(rs, 3)
    one = LaurentPoly.one(rank)
    f = LaurentPoly(rank, {tuple(range(rank)): 3, (0,) * rank: -1, (1,) + (0,) * (rank - 1): 2})
    w0 = longest_element(rs)
    letters = 0
    for i in rs.nodes:
        s_i = affine_simple_reflection(rs, i)
        pair = next(
            ((x, y) for x in pool if x.left_ascent(i) and (y := s_i * x).is_grassmannian()),
            None,
        )
        if pair is None:
            continue
        letters += 1
        x, y = pair
        g = (LaurentPoly.monomial(tuple(-a for a in rs.simple_root(i))) - one) * f
        h = LaurentPoly(rank, {next(iter(g.terms)): 5, (2,) * rank: -1})
        z = PetersonElement(rs, {x: f, y: g + h if survives else g})
        assert len(z.terms[y].terms) == len(g.terms) + survives
        si = weyl_from_word(rs, (i,))
        out = star_w(si, z)
        assert out == star_words_by_letters(z, si.reduced_word()), i
        assert out.terms.get(y) == (h.act_exponents(si.m) if survives else None), i
        assert (y in _star_words(rs, _grouped(z.terms), _letter_schedule(rs, (i,)))[0]) == survives
        assert star_w(w0, z) == star_words_by_letters(z, w0.reduced_word()), i
        for s in sigma_elements(rs):
            assert mult_by_ell_sigma(s, z) == mult_by_ell_sigma_by_letters(s, z), i
    assert letters >= 2


@pytest.mark.parametrize(
    "type_label,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2)]
)
def test_ascent_pairs_are_disjoint(type_label, rank):
    """If u t_mu ascends at i, to y = (s_i u) t_mu, then s_i u does not ascend at i
    (s_i s_i u = u is longer), so u is the only key that reaches y and _star_words may
    update y in place.  Checked against the oracle (left_ascent, the general product and
    is_grassmannian) on the Grassmannian ball and on every key the theorem's star words
    leave after each word."""
    rs = RootSystem(type_label, rank)
    met = {(x.mu, x.u) for x in grassmannian_ball(rs, 8)}
    one = LaurentPoly.one(rank)
    for i in special_nodes(rs):
        schedule = _theorem_node(rs, i)[2]
        for w in rs.weyl_group():
            assert verify_seidel_theorem(rs, i, w).passed
            terms, _, support = _star_words(rs, {gamma(rs, w): {w: one}}, schedule)
            # the keys after the first word, and after the last: the terms' keys
            met |= {(mu, u) for mu, us in support for u in us}
            met |= {(x.mu, x.u) for x in terms}
    pairs = 0
    for mu, u in met:
        x = from_finite(u).translated(mu)
        for i in rs.nodes:
            s_i = affine_simple_reflection(rs, i)
            ascends = x.left_ascent(i) and (y := s_i * x).is_grassmannian()
            assert ascends == (u.inverse().perm[rs.simple_indices[i - 1]] >= rs.npos), (x, i)
            if ascends:
                pairs += 1
                assert y is from_finite(u.left_reflect(i)).translated(mu), (x, i)
                assert not (y.left_ascent(i) and (s_i * y).is_grassmannian()), (x, i)
                assert u.left_reflect(i).inverse().perm[rs.simple_indices[i - 1]] < rs.npos
    assert pairs > len(met) // 2


@pytest.mark.parametrize("type_label,rank", [("A", 3), ("B", 3), ("D", 4), ("G", 2)])
def test_star_words_run_each_translation_group(type_label, rank):
    """Keys in three right translations mu, one u in two of them: star_w and
    mult_by_ell_sigma, which run each group through the words alone, equal star_s letter
    by letter."""
    rs = build_root_system(type_label, rank)
    rng = random.Random(59)
    w = weyl_from_word(rs, (rank, 1))
    x = grassmannian_key(rs, w)
    keys = [x, x.translated(tuple(-1 if j == 1 else 0 for j in rs.nodes))]
    keys += [y for y in grassmannian_up_to(rs, 3) if y.mu != x.mu][:3]
    z = PetersonElement(rs, {
        y: LaurentPoly.monomial(tuple(rng.randint(-2, 2) for _ in rs.nodes), rng.choice((-2, 1, 3)))
        + LaurentPoly.one(rank)
        for y in keys
    })
    groups = _grouped(z.terms)
    assert len(groups) >= 3 and sum(w in group for group in groups.values()) == 2
    for v in (longest_element(rs), w, weyl_from_word(rs, [rng.choice(rs.nodes) for _ in range(6)])):
        assert star_w(v, z) == star_words_by_letters(z, v.reduced_word()), v.reduced_word()
    for s in sigma_elements(rs):
        assert mult_by_ell_sigma(s, z) == mult_by_ell_sigma_by_letters(s, z)


def kept_on(rs):
    """The attributes of a system, with the size of each dict, set or list among them."""
    return {
        name: len(value) if isinstance(value, (dict, set, list)) else None
        for name, value in vars(rs).items()
    }


def test_star_words_take_finite_letters_only():
    """The ascent rule holds for finite letters only: a word with node 0, or with a node
    outside the diagram, is refused before its schedule is built, and nothing is kept."""
    rs = RootSystem("A", 3)
    groups = _grouped(ell(ext_identity(rs)).terms)
    before = kept_on(rs)
    for words in [((1, 0, 2),), ((1, 2), (0,)), ((4,),)]:
        with pytest.raises(ValueError, match="outside the finite nodes"):
            _star_words(rs, groups, _letter_schedule(rs, *words))
    assert kept_on(rs) == before
    schedule = _letter_schedule(rs, (1, 2))
    assert _star_words(rs, groups, schedule)[2] == [((0, 0, 0), [rs.identity_weyl()])]


def test_star_w_keeps_nothing_on_the_system():
    """star_w over every element of W(B3) keeps nothing per word on the system: past the
    affine keys it interns, every attribute and the size of every container stay as
    they were, and no theorem node's schedule is made."""
    rs = RootSystem("B", 3)
    group = rs.weyl_group()
    z = ell(grassmannian_key(rs, longest_element(rs)))  # w_0 t_mu ascends at every node
    before = kept_on(rs)
    for w in group:
        star_w(w, z)
    after = kept_on(rs)
    assert after.pop("_ext_intern") > before.pop("_ext_intern")
    assert after == before
    assert rs._theorem_nodes == {}


def test_theorem_interns_three_affine_elements_at_most():
    """One verify_seidel_theorem call on a fresh D5 system, past the node's constants,
    interns at most three affine elements: x = w t_{gamma_w}, the target pi_i^{-1} x =
    (v w) t_{gamma_{v w}}, which key_vw finds interned, and its translate by the Q part.
    The star words intern only the terms they return, which collapse to x, however many
    keys the support they check has (up to hundreds)."""
    sample = random.Random(61).sample(RootSystem("D", 5).weyl_group(), 8)
    largest_support = 0
    for word in [(), (2, 4, 3, 5, 3, 1, 2)] + [w.reduced_word() for w in sample]:
        for i in (1, 4, 5):
            rs = RootSystem("D", 5)
            w = weyl_from_word(rs, word)
            _theorem_node(rs, i)
            before = len(rs._ext_intern)
            assert verify_seidel_theorem(rs, i, w).passed
            assert len(rs._ext_intern) - before <= 3, (i, word)
            schedule = _theorem_node(rs, i)[2]
            support = _star_words(rs, {gamma(rs, w): {w: LaurentPoly.one(5)}}, schedule)[2]
            largest_support = max(largest_support, sum(len(us) for _, us in support))
    assert largest_support > 50


def test_e7_node7_instances():
    """Node 7 of E7: the widest packed field among types with a special node."""
    rs = build_root_system("E", 7)
    rng = random.Random(43)
    words = [(1, 3, 4, 2, 5, 4, 6, 7)]
    words += [[rng.choice(rs.nodes) for _ in range(24)] for _ in range(3)]
    for word in words:
        rep = verify_seidel_theorem(rs, 7, weyl_from_word(rs, word))
        assert rep.passed, (word, rep.checks)


def test_term_budget_stops_the_packed_star_words():
    """The budget is checked on every polynomial after every letter, inside the kernel."""
    rs = build_root_system("D", 5)
    w = weyl_from_word(rs, (2, 4, 3, 5, 3, 1, 2))
    saved = set_term_budget(8)
    try:
        with pytest.raises(SizeLimitError, match="exceeds budget 8") as excinfo:
            verify_seidel_theorem(rs, 4, w)
    finally:
        set_term_budget(saved)
    assert [entry.name for entry in excinfo.traceback][-2:] == ["_star_words", "_check_budget"]
    assert get_term_budget() == saved
    assert verify_seidel_theorem(rs, 4, w).passed


@pytest.mark.parametrize("word,u,builds,keys", [
    # letter 3 fixes alpha_1, so the second 1 has the opposite root and undoes the first:
    # y = e was new, so it is dropped unbuilt
    ((1, 3, 1), (1,), 0, [(1,)]),
    # s_2 moves alpha_1: the second root is -alpha_2, not alpha_1, so y is built and updated
    ((1, 2, 1), (1,), 1, [(1,), ()]),
    # u = s_1 s_3 ascends at 3 between the 1s, making s_1 = [f, -alpha_3], and so does y = s_3
    # = [f, -alpha_1], which passes its node on unbuilt to e = [y's node, -alpha_3].  The
    # second 1 finds y moved, so u's update builds y's node (1); then s_1 meets e, whose
    # record names y's node as maker, not s_1's: that update builds e's node, its inner
    # node already built (2), and reads s_1's own node (3)
    ((1, 3, 1), (1, 3), 3, [(1, 3), (1,)]),
])
def test_star_words_cancel_a_factored_key_only_on_its_mirror_root(
    monkeypatch, word, u, builds, keys
):
    """ell_{u t_mu} over A3 by the word 1 j 1, f = 2 - e^{(1, -1, 0)}: the first 1 stores
    y = (s_1 u) t_mu as the node [f, -alpha_1] over u's dict, and the second meets it.  The
    update is undone with no term visited exactly when the second root is minus the first
    and y has not moved; otherwise a node is built when an update reads it.  Against
    star_s letter by letter, with the builds (calls of _binomial_multiple) counted."""
    rs = build_root_system("A", 3)
    x = from_finite(weyl_from_word(rs, u)).translated((-1, -1, -1))
    z = PetersonElement(rs, {x: LaurentPoly(3, {(0, 0, 0): 2, (1, -1, 0): -1})})
    built = []
    binomial_multiple = peterson._binomial_multiple
    monkeypatch.setattr(
        peterson, "_binomial_multiple", lambda g, beta: built.append(g) or binomial_multiple(g, beta)
    )
    terms, frame, _ = _star_words(rs, _grouped(z.terms), _letter_schedule(rs, word))
    assert len(built) == builds
    assert [y.u.reduced_word() for y in terms] == keys
    out = PetersonElement(rs, {y: g.act_exponents(frame.m) for y, g in terms.items()})
    assert out == star_words_by_letters(z, word)


def star_words_counted(monkeypatch, rs, z, word):
    """_star_words on one word, as a PetersonElement, with its ascents and the updates it
    does not undo counted.  The kernel's keys before each letter are those of star_s
    letter by letter, so its ascents at i are the keys x of that oracle with star_s's
    test, x.left_ascent(i) and s_i x Grassmannian.  Each ascent updates s_i x once, and
    under a budget of -1 every update that is not undone, new key or present, checks the
    budget once; a restored slot checks nothing."""
    checks = []
    with monkeypatch.context() as m:
        m.setattr(peterson, "get_term_budget", lambda: -1)
        m.setattr(peterson, "_check_budget", checks.append)
        terms, frame, _ = _star_words(rs, _grouped(z.terms), _letter_schedule(rs, word))
    out = PetersonElement(rs, {y: g.act_exponents(frame.m) for y, g in terms.items()})
    ascents = 0
    for i in reversed(word):
        si = affine_simple_reflection(rs, i)
        ascents += sum(x.left_ascent(i) and (si * x).is_grassmannian() for x in z.terms)
        z = star_s(i, z)
    return out, ascents, len(checks)


@pytest.mark.parametrize(
    "type_label,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2)]
)
def test_star_words_undo_mirror_letters(monkeypatch, type_label, rank):
    """Words whose letters meet their mirror letters, i i, i j j i and a word followed by
    its reverse, on every Grassmannian key of length <= 3 with three-term coefficients:
    letter by letter they are star_s, so both halves cancel.  In i i the second letter's
    roots are minus the first's and nothing ran between, so every update it makes is
    undone: it checks the budget no more often than i alone.  The longer words undo some
    of theirs and equal star_s letter by letter."""
    rs = build_root_system(type_label, rank)
    rng = random.Random(67)
    pool = grassmannian_up_to(rs, 3)
    z = PetersonElement(rs, {
        x: LaurentPoly(rank, {
            tuple(rng.randint(-2, 2) for _ in range(rank)): rng.choice((-2, -1, 1, 2))
            for _ in range(3)
        })
        for x in pool
    })
    assert all(len(f.terms) > 1 for f in z.terms.values())
    for i in rs.nodes:
        out, ascents, checks = star_words_counted(monkeypatch, rs, z, (i, i))
        assert out == star_words_by_letters(z, (i, i)) == z, i
        _, once, checks_once = star_words_counted(monkeypatch, rs, z, (i,))
        assert ascents == 2 * once > 0 and checks == checks_once, i
    words = [(i, j, j, i) for i in rs.nodes for j in rs.nodes if i != j]
    words += [tuple(word) + tuple(reversed(word))
              for word in ([rng.choice(rs.nodes) for _ in range(5)] for _ in range(3))]
    for word in words:
        out, ascents, checks = star_words_counted(monkeypatch, rs, z, word)
        assert out == star_words_by_letters(z, word) == z, word
        assert checks < ascents, word


def test_star_words_redo_an_update_whose_maker_moved(monkeypatch):
    """ell_x over A3, x = s_1 s_2 s_3 s_2 t_mu with left descents 1 and 3, by the word
    3 1 3 1 3, whose roots are -alpha_3, -alpha_1, alpha_3, alpha_1, -alpha_3.  The first 3
    makes y = s_3 x; at the 1, y ascends with x, so the second 3 finds y moved and updates
    it in full, which cancels y, and that update's record holds x's offset after it.  The
    last 3 comes at the opposite root and finds y absent, as that record left it, but x
    ascended at the second 1 in between, so its offset differs from the record's and y is
    made anew, not restored.  No update is undone: seven ascents, seven updates, and the
    words equal star_s letter by letter."""
    rs = build_root_system("A", 3)
    x = from_finite(weyl_from_word(rs, (1, 2, 3, 2))).translated((-1, -1, -1))
    z = PetersonElement(rs, {x: LaurentPoly(3, {(1, 0, 1): 1, (0, 0, 0): -1})})
    word = (3, 1, 3, 1, 3)
    out, ascents, checks = star_words_counted(monkeypatch, rs, z, word)
    assert ascents == checks == 7
    assert out == star_words_by_letters(z, word)


@pytest.mark.parametrize("type_label,rank", [("D", 4), ("E", 6)])
def test_star_words_fill_the_links_of_a_system_never_enumerated(type_label, rank):
    """On a fresh system whose Weyl group is never enumerated, the start keys' finite parts
    have no inverse linked and no left_reflect memo, so the kernel's direct reads find
    them empty and it calls inverse() and left_reflect(i).  Word by word, it is star_s
    letter by letter, and nothing enumerates W."""
    rs = RootSystem(type_label, rank)
    rng = random.Random(71)
    us = [weyl_from_word(rs, [rng.choice(rs.nodes) for _ in range(2 * rank)]) for _ in range(4)]
    z = PetersonElement(rs, {
        grassmannian_key(rs, u): LaurentPoly(rank, {
            tuple(rng.randint(-2, 2) for _ in range(rank)): rng.choice((-2, -1, 1, 2))
            for _ in range(3)
        })
        for u in us
    })
    assert all(x.u._inverse is None and x.u._left is None for x in z.terms)
    for word in [tuple(rng.choice(rs.nodes) for _ in range(8)) for _ in range(3)]:
        terms, frame, _ = _star_words(rs, _grouped(z.terms), _letter_schedule(rs, word))
        out = PetersonElement(rs, {y: g.act_exponents(frame.m) for y, g in terms.items()})
        assert out == star_words_by_letters(z, word), word
    assert any(x.u._left is not None for x in z.terms)
    assert rs._weyl_group is None


def test_theorem_sample_products_after_enumeration(monkeypatch):
    """Right after weyl_group(), twelve D5 theorem instances, whose star words ascend
    1,194 times, make exactly 482 WeylElement products: an ascent reads s_i u from a
    tree edge the enumeration kept, and multiplies only where it kept none.  With no
    edges kept, the same sample made 692 products.  A count, unlike a time, does not
    move with the host."""
    rs = RootSystem("D", 5)
    group = rs.weyl_group()
    rng = random.Random(2035)
    sample = [(rng.choice(special_nodes(rs)), rng.choice(group)) for _ in range(12)]
    products = []
    mul = WeylElement.__mul__
    monkeypatch.setattr(WeylElement, "__mul__", lambda u, v: products.append(v) or mul(u, v))
    assert all(verify_seidel_theorem(rs, i, w).passed for i, w in sample)
    assert len(products) == 482


@pytest.mark.parametrize("budget,raises", [(1, True), (2, False), (3, False)])
def test_term_budget_reads_the_exact_size_of_a_factored_key(budget, raises):
    """A new key is stored factored, e^o (g - e^beta g), which has at most 2 len(g) terms.
    g = 1 + e^{-alpha_1} and the first letter 1 has beta = -alpha_1, so the new key's
    coefficient 1 - e^{-2 alpha_1} has 2 terms against 2 len(g) = 4: a budget of 2 or 3
    passes, and a budget of 1 raises at that ascent, inside the kernel."""
    rs = build_root_system("A", 2)
    x = from_finite(weyl_from_word(rs, (1,))).translated((-1, -1))
    lowered = tuple(-a for a in rs.simple_root(1))
    z = PetersonElement(rs, {x: LaurentPoly(2, {(0, 0): 1, lowered: 1})})
    saved = set_term_budget(budget)
    try:
        if raises:
            with pytest.raises(SizeLimitError, match=f"2 terms exceeds budget {budget}") as excinfo:
                _star_words(rs, _grouped(z.terms), _letter_schedule(rs, (1,)))
            assert [entry.name for entry in excinfo.traceback][-2:] == [
                "_star_words", "_check_budget"
            ]
        else:
            terms, _, _ = _star_words(rs, _grouped(z.terms), _letter_schedule(rs, (1,)))
            assert sorted(len(g.terms) for g in terms.values()) == [2, 2]
    finally:
        set_term_budget(saved)


def _schedule_by_letters(rs, words):
    """The letter schedule one letter at a time: after letters i_1, ..., i_t the frame is
    s_{i_t} ... s_{i_1}, and frame^{-1}(alpha_{i_t}) reflects alpha_{i_t} through
    s_{i_t}, ..., s_{i_1} by Cartan pairings."""
    done, runs = [], []
    for word in words:
        run = []
        for i in reversed(word):
            done.append(i)
            root = rs.simple_root(i)
            for j in reversed(done):
                c = rs.pair_coroot_root(j, root)
                root = tuple(b - c * a for b, a in zip(root, rs.simple_root(j)))
            run.append((i, root))
        runs.append(tuple(run))
    return tuple(runs), weyl_from_word(rs, reversed(done))


@pytest.mark.parametrize("type_label,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4)])
def test_kept_letter_schedules_against_letter_by_letter_frames(type_label, rank):
    """The schedule each theorem node keeps, and those of the words of mult_by_ell_sigma
    and star_w, hold the frames and roots their letters give one at a time, and those
    roots packed at the one width k that ell(x) inputs give the words.  The theorem's
    words end in the frame u^{-1} v_i, u the finite part of pi_i^{-1}."""
    rs = RootSystem(type_label, rank)
    w = weyl_from_word(rs, rs.nodes)
    schedules = {}
    for i in special_nodes(rs):
        assert verify_seidel_theorem(rs, i, w).passed
        u = pi(rs, i).inverse().u
        v = seidel_element(rs, i)
        words = (v.reduced_word(), u.inverse().reduced_word())
        schedules[words] = _theorem_node(rs, i)[2]
        # the words end in the frame u^{-1} v, so verify_seidel_theorem twists once, by v
        assert u * _schedule_by_letters(rs, words)[1] == v
    groups = _grouped(ell(ext_identity(rs)).terms)
    for words in [(s.u.inverse().reduced_word(),) for s in sigma_elements(rs)] + [
        (w.reduced_word(),)
    ]:
        schedules[words] = _letter_schedule(rs, *words)
        _star_words(rs, groups, schedules[words])
    for words, (runs, frame, packed) in schedules.items():
        assert (runs, frame) == _schedule_by_letters(rs, words), words
        ((k, packed_runs),) = packed.items()
        assert packed_runs == tuple(
            tuple((i, _pack(root, k)) for i, root in run) for run in runs
        ), words


@pytest.mark.parametrize("type_label,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4)])
def test_reports_agree_on_warm_and_fresh_systems(type_label, rank):
    """Kept schedules change no report: a fresh system per instance gives the same one."""
    warm = build_root_system(type_label, rank)
    group = warm.weyl_group()
    sample = [group[0], group[-1]] + random.Random(47).sample(group, k=6)
    for i in special_nodes(warm):
        for w in sample:
            verify_seidel_theorem(warm, i, w)
    for i in special_nodes(warm):
        for w in sample:
            fresh = RootSystem(type_label, rank)
            cold = verify_seidel_theorem(fresh, i, weyl_from_word(fresh, w.reduced_word()))
            assert cold.passed and cold == verify_seidel_theorem(warm, i, w), (i, w)
