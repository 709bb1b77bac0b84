"""Extended affine Weyl group tests."""
from __future__ import annotations

import itertools
import random

import pytest

from qkseidel.affine import (
    AffineRoot,
    _intern,
    affine_nodes,
    affine_reduced_word,
    affine_simple_reflection,
    affine_simple_root,
    ext_identity,
    from_finite,
    grassmannian_keys,
    node_action,
    pi,
    s_theta,
    sigma_decompose,
    sigma_elements,
    theta_pairings,
    translation,
)
from qkseidel.rootsys import RootSystem, build_root_system, root_is_positive, weyl_from_word
from qkseidel.seidel import grassmannian_key
from qkseidel.sweeps import grassmannian_ball

from oracles import affine_from_word


def affine_root_is_positive(a: AffineRoot) -> bool:
    return a.level > 0 or (a.level == 0 and root_is_positive(a.finite))


def ext_length_oracle(x) -> int:
    """Inversion count by enumeration, level by level.

    Levels run up to max |<mu, alpha>| + 1; beyond that bound the level shift
    cannot flip the sign of an affine root.
    """
    rs = x.rs
    bound = max((abs(rs.pairing(x.mu, beta)) for beta in rs.positive_roots), default=0) + 1
    count = 0
    for beta in rs.positive_roots:
        neg = tuple(-c for c in beta)
        for n in range(0, bound + 1):
            count += not affine_root_is_positive(x.act(AffineRoot(beta, n)))
        for n in range(1, bound + 1):
            count += not affine_root_is_positive(x.act(AffineRoot(neg, n)))
    return count


def random_ext(rs, rng, nwords: int = 8):
    x = translation(rs, tuple(rng.randrange(-2, 3) for _ in rs.nodes))
    return x * from_finite(
        weyl_from_word(rs, [rng.choice(rs.nodes) for _ in range(rng.randrange(nwords))])
    )


def test_s0_involution_and_action():
    for type_label, rank in [("A", 2), ("C", 2), ("G", 2), ("B", 3)]:
        rs = build_root_system(type_label, rank)
        s0 = affine_simple_reflection(rs, 0)
        assert s0 * s0 == ext_identity(rs)
        a0 = affine_simple_root(rs, 0)
        img = s0.act(a0)
        assert img == AffineRoot(rs.highest_root, -1)  # s_0(alpha_0) = -alpha_0
        assert s0.ext_length() == 1
        assert s_theta(rs).act_root(rs.highest_root) == tuple(-c for c in rs.highest_root)


def test_translation_group_law():
    rs = build_root_system("C", 2)
    rng = random.Random(3)
    for _ in range(20):
        lam = tuple(rng.randrange(-3, 4) for _ in rs.nodes)
        mu = tuple(rng.randrange(-3, 4) for _ in rs.nodes)
        assert translation(rs, lam) * translation(rs, mu) == translation(
            rs, tuple(a + b for a, b in zip(lam, mu))
        )


def test_product_inverse_associativity_random():
    rng = random.Random(41)
    for type_label, rank in [("A", 2), ("C", 2), ("D", 4)]:
        rs = build_root_system(type_label, rank)
        e = ext_identity(rs)
        for _ in range(25):
            x, y, z = (random_ext(rs, rng) for _ in range(3))
            assert (x * y) * z == x * (y * z)
            assert x * x.inverse() == e
            assert x.inverse().inverse() == x
            assert x.inverse().ext_length() == x.ext_length()


def test_ext_length_against_closed_form():
    rng = random.Random(99)
    for type_label, rank in [("A", 2), ("C", 2), ("B", 3), ("D", 4), ("F", 4), ("E", 6)]:
        rs = build_root_system(type_label, rank)
        for _ in range(30):
            x = random_ext(rs, rng)
            assert x.ext_length() == ext_length_oracle(x)


@pytest.mark.parametrize(
    "type_label,rank", [("A", 2), ("C", 2), ("G", 2), ("B", 3), ("D", 4), ("D", 5)]
)
def test_left_ascent_against_enumerated_length(type_label, rank):
    """s_i x > x by the single-root test iff the enumerated length grows."""
    rs = build_root_system(type_label, rank)
    rng = random.Random(13)
    group = sigma_elements(rs)
    sigma_parts = 0
    for _ in range(30):
        x = rng.choice(group) * random_ext(rs, rng)
        sigma_parts += rs.coweight_to_coroots(x.mu) is None
        for i in affine_nodes(rs):
            six = affine_simple_reflection(rs, i) * x
            assert x.left_ascent(i) == (ext_length_oracle(six) > ext_length_oracle(x)), (x, i)
    assert sigma_parts > 0 or len(group) == 1


@pytest.mark.parametrize("type_label,rank", [("A", 2), ("C", 2), ("G", 2), ("D", 4)])
def test_act_is_a_group_action_that_agrees_with_the_product(type_label, rank):
    """(x y)(a) = x(y(a)) and x^{-1}(x(a)) = a for random x and y with Sigma parts, on
    every finite root at levels -2 to 2, so act ties the product and the inverse to the
    affine roots; and the two conventions t_lam(beta + n delta) = beta + (n - <lam, beta>)
    delta and u(beta + n delta) = u(beta) + n delta."""
    rs = build_root_system(type_label, rank)
    rng = random.Random(83)
    group = sigma_elements(rs)
    roots = [AffineRoot(beta, n) for beta in rs.roots for n in range(-2, 3)]
    for _ in range(10):
        x = rng.choice(group) * random_ext(rs, rng)
        y = random_ext(rs, rng) * rng.choice(group)
        t = translation(rs, tuple(rng.randrange(-2, 3) for _ in rs.nodes))
        u = weyl_from_word(rs, [rng.choice(rs.nodes) for _ in range(6)])
        xy, x_inv = x * y, x.inverse()
        for a in roots:
            assert xy.act(a) == x.act(y.act(a)), (x, y, a)
            assert x_inv.act(x.act(a)) == a, (x, a)
            beta, n = a
            assert t.act(a) == (beta, n - rs.pairing(t.mu, beta)), (t, a)
            assert from_finite(u).act(a) == (u.act_root(beta), n), (u, a)


def test_translation_length_is_pairing_sum():
    for type_label, rank in [("A", 2), ("C", 3), ("D", 4)]:
        rs = build_root_system(type_label, rank)
        rng = random.Random(5)
        for _ in range(15):
            lam = tuple(rng.randrange(-2, 3) for _ in rs.nodes)
            expect = sum(abs(rs.pairing(lam, beta)) for beta in rs.positive_roots)
            assert translation(rs, lam).ext_length() == expect


def test_simple_reflection_changes_length_by_one():
    rng = random.Random(17)
    rs = build_root_system("C", 2)
    for _ in range(40):
        x = random_ext(rs, rng)
        for i in affine_nodes(rs):
            y = affine_simple_reflection(rs, i) * x
            assert abs(y.ext_length() - x.ext_length()) == 1


def test_antidominant_translation_examples():
    rs = build_root_system("A", 2)
    t1 = translation(rs, (-1, 0))
    assert t1.is_grassmannian()
    assert t1.ext_length() == 2
    rs5 = build_root_system("D", 5)
    assert translation(rs5, (0, 0, 0, -1, 0)).ext_length() == 10


def test_grassmannian_stable_under_antidominant_translation():
    """x Grassmannian, gamma antidominant => x * t_gamma Grassmannian."""
    rng = random.Random(23)
    for type_label, rank in [("A", 2), ("C", 2), ("B", 3)]:
        rs = build_root_system(type_label, rank)
        for x in affine_elements_up_to(rs, 6):
            if not x.is_grassmannian():
                continue
            gamma = tuple(-rng.randrange(0, 3) for _ in rs.nodes)
            assert (x * translation(rs, gamma)).is_grassmannian()


@pytest.mark.parametrize("type_label,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2)])
def test_translated_matches_product_with_translation(type_label, rank):
    """x.translated(lam) is x * t_lam, for antidominant and for other lam."""
    rs = build_root_system(type_label, rank)
    rng = random.Random(41)
    for x in grassmannian_ball(rs, 4):
        lams = [
            tuple(-rng.randrange(0, 3) for _ in rs.nodes),  # antidominant
            rs.fundamental_coweight(rng.choice(rs.nodes)),  # dominant
            tuple(rng.randrange(-2, 3) for _ in rs.nodes),
            (0,) * rank,
        ]
        for lam in lams:
            assert x.translated(lam) is x * translation(rs, lam), (x, lam)


def affine_elements_up_to(rs, max_length: int):
    """All Sigma-free affine elements of length <= max_length, by BFS."""
    seen = {ext_identity(rs)}
    frontier = [ext_identity(rs)]
    for _ in range(max_length):
        nxt = []
        for x in frontier:
            for i in affine_nodes(rs):
                y = x * affine_simple_reflection(rs, i)
                if y not in seen and y.ext_length() == x.ext_length() + 1:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return sorted(seen, key=lambda x: (x.ext_length(), x.mu, x.u.m))


@pytest.mark.parametrize(
    "type_label,rank", [("A", 2), ("C", 2), ("G", 2), ("B", 3), ("D", 4)]
)
def test_grassmannian_ascent_dichotomy(type_label, rank):
    """For Grassmannian x = w t_beta and finite i:
    s_i x is longer and Grassmannian  <=>  s_i w is shorter than w."""
    rs = build_root_system(type_label, rank)
    grassmannian = 0
    for x in affine_elements_up_to(rs, 8):
        if not x.is_grassmannian():
            continue
        grassmannian += 1
        w = x.u  # x = w t_mu
        for i in rs.nodes:
            six = affine_simple_reflection(rs, i) * x
            lhs = six.ext_length() > x.ext_length() and six.is_grassmannian()
            rhs = (rs.simple_reflection(i) * w).length() < w.length()
            assert lhs == rhs, (x, i)
    assert grassmannian > 1


@pytest.mark.parametrize(
    "type_label,rank", [("A", 2), ("C", 2), ("G", 2), ("A", 3), ("B", 3), ("C", 3), ("D", 4)]
)
def test_finite_ascent_rule_against_oracle(type_label, rank):
    """The rule of the star words: for Grassmannian x = u t_mu and finite i, s_i x is
    longer and Grassmannian (left_ascent, the general product and is_grassmannian) iff
    s_i u < u, i.e. u^{-1}(alpha_i) < 0, and then s_i x = (s_i u) t_mu.  Checked on the
    Sigma-translates of the Grassmannian ball, whose keys have a Sigma part, and on every
    grassmannian_key."""
    rs = build_root_system(type_label, rank)
    ball = grassmannian_ball(rs, 5)
    xs = {s * x for s in sigma_elements(rs) for x in ball}
    xs |= {grassmannian_key(rs, w) for w in rs.weyl_group()}
    ascents = 0
    for x in xs:
        assert x.is_grassmannian()
        mu, u = x.mu, x.u
        for i in rs.nodes:
            six = affine_simple_reflection(rs, i) * x
            oracle = x.left_ascent(i) and six.is_grassmannian()
            rule = u.inverse().perm[rs.root_index[rs.simple_root(i)]] >= rs.npos
            assert rule == ((rs.simple_reflection(i) * u).length() < u.length())
            assert oracle == rule, (x, i)
            if rule:
                ascents += 1
                assert six is from_finite(u.left_reflect(i)).translated(mu), (x, i)
    assert 0 < ascents < len(xs) * rank


@pytest.mark.parametrize(
    "type_label,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2)]
)
def test_grassmannian_keys_against_is_grassmannian(type_label, rank):
    """The one Grassmannian test, grassmannian_keys on (mu, [u, ...]), which
    is_grassmannian also calls, equals x(alpha_j) > 0 for every finite j, computed
    as an affine root action, on every x = u t_mu: on Grassmannian keys (the ball,
    every grassmannian_key and their Sigma-translates) and on keys that are mostly
    not Grassmannian, s_i x and x s_j, one at a time and grouped by mu."""
    rs = build_root_system(type_label, rank)
    keys = set(grassmannian_ball(rs, 5)) | {grassmannian_key(rs, w) for w in rs.weyl_group()}
    keys |= {s * x for s in sigma_elements(rs) for x in keys}
    others = {affine_simple_reflection(rs, i) * x for x in keys for i in affine_nodes(rs)}
    others |= {x * affine_simple_reflection(rs, j) for x in keys for j in rs.nodes}
    verdicts = {True: 0, False: 0}
    groups = {}
    for x in keys | others:
        oracle = all(
            affine_root_is_positive(x.act(AffineRoot(rs.simple_root(j), 0))) for j in rs.nodes
        )
        assert grassmannian_keys(x.mu, [x.u]) == oracle, x
        assert oracle or x not in keys, x
        verdicts[oracle] += 1
        groups.setdefault(x.mu, []).append((x.u, oracle))
    assert verdicts[False] > len(keys) // 2
    mixed = 0
    for mu, pairs in groups.items():
        expect = all(oracle for _, oracle in pairs)
        assert grassmannian_keys(mu, [u for u, _ in pairs]) == expect, mu
        mixed += not expect and any(oracle for _, oracle in pairs)
    assert mixed > 0


@pytest.mark.parametrize(
    "type_label,rank", [("A", 2), ("C", 2), ("G", 2), ("B", 3), ("D", 4)]
)
def test_is_grassmannian_against_affine_root_oracle(type_label, rank):
    """The one-pass test equals x(alpha_j) > 0 computed as an affine root action, for all j.

    Inputs: the Grassmannian ball, every s_i x of its elements (most are not
    Grassmannian) and the length-zero elements.
    """
    rs = build_root_system(type_label, rank)
    ball = grassmannian_ball(rs, 5)
    xs = set(ball) | {affine_simple_reflection(rs, i) * x for x in ball for i in affine_nodes(rs)}
    xs |= set(sigma_elements(rs)) | {s.inverse() for s in sigma_elements(rs)}
    verdicts = set()
    for x in xs:
        expect = all(
            affine_root_is_positive(x.act(AffineRoot(rs.simple_root(j), 0))) for j in rs.nodes
        )
        assert x.is_grassmannian() == expect, x
        verdicts.add(expect)
    assert verdicts == {True, False}


def test_affine_reduced_word_roundtrip():
    rng = random.Random(8)
    for type_label, rank in [("A", 2), ("C", 2), ("B", 3)]:
        rs = build_root_system(type_label, rank)
        for _ in range(25):
            word = [rng.choice(affine_nodes(rs)) for _ in range(rng.randrange(10))]
            x = affine_from_word(rs, word)
            red = affine_reduced_word(x)
            assert len(red) == x.ext_length()
            assert affine_from_word(rs, red) == x


def test_affine_reduced_word_rejects_sigma_part():
    rs = build_root_system("A", 2)
    with pytest.raises(ValueError):
        affine_reduced_word(pi(rs, 1))


# -- Sigma ---------------------------------------------------------------


def test_sigma_orders():
    assert len(sigma_elements(build_root_system("A", 2))) == 3
    assert len(sigma_elements(build_root_system("A", 3))) == 4
    assert len(sigma_elements(build_root_system("B", 3))) == 2
    assert len(sigma_elements(build_root_system("C", 3))) == 2
    assert len(sigma_elements(build_root_system("D", 4))) == 4
    assert len(sigma_elements(build_root_system("D", 5))) == 4
    assert len(sigma_elements(build_root_system("G", 2))) == 1


def test_sigma_elements_have_length_zero_and_compose():
    for type_label, rank in [("A", 2), ("A", 3), ("C", 2), ("D", 4), ("D", 5)]:
        rs = build_root_system(type_label, rank)
        group = sigma_elements(rs)
        for s in group:
            assert s.ext_length() == 0
            assert s.is_grassmannian()
            assert s.inverse() in group
            for t in group:
                assert s * t in group  # closure, via lookup


def test_pi_unique_per_special_node():
    for type_label, rank in [("A", 2), ("C", 2), ("D", 5), ("B", 3)]:
        rs = build_root_system(type_label, rank)
        from qkseidel.rootsys import special_nodes

        for i in special_nodes(rs):
            hits = [s for s in sigma_elements(rs) if node_action(s)[0] == i]
            assert hits == [pi(rs, i)]
        with pytest.raises(ValueError):
            pi(rs, max(special_nodes(rs)) + 10)


def test_node_action_is_diagram_automorphism():
    """Adjacency of affine simple roots is preserved by every Sigma element."""
    for type_label, rank in [
        ("A", 2), ("A", 3), ("C", 2), ("C", 3), ("B", 3), ("D", 4), ("D", 5), ("E", 6), ("E", 7)
    ]:
        rs = build_root_system(type_label, rank)
        tp = theta_pairings(rs)

        def adj(j: int, k: int) -> bool:
            if j == k:
                return False
            if 0 in (j, k):
                other = j + k
                return tp[other - 1] != 0
            return rs.cartan[j - 1][k - 1] != 0

        nodes = affine_nodes(rs)
        for s in sigma_elements(rs):
            perm = dict(zip(nodes, node_action(s)))
            for j in nodes:
                for k in nodes:
                    assert adj(j, k) == adj(perm[j], perm[k])


def test_node_action_refuses_an_element_of_nonzero_length():
    rs = build_root_system("A", 2)
    with pytest.raises(ValueError, match="has length 1, not 0"):
        node_action(from_finite(rs.simple_reflection(1)))


def test_a2_pi1_action_and_order():
    rs = build_root_system("A", 2)
    p1 = pi(rs, 1)
    assert node_action(p1) == (1, 2, 0)  # 0->1, 1->2, 2->0
    p2 = pi(rs, 2)
    assert p1 * p1 == p2
    assert (p1 * p2).is_identity


def test_d5_sigma_structure():
    rs = build_root_system("D", 5)
    p4 = pi(rs, 4)
    assert node_action(p4) == (4, 5, 3, 2, 1, 0)  # 0->4, 1->5, 2->3, 3->2, 4->1, 5->0
    assert p4 * p4 == pi(rs, 1)
    assert pi(rs, 5) == p4.inverse()
    assert (p4 * p4 * p4 * p4).is_identity


def test_d5_minuscule_translation_factors_through_pi4():
    """t_{-omega_4^vee} = pi_4^{-1} * kappa_4 with kappa_4 of length 10."""
    rs = build_root_system("D", 5)
    kappa4 = affine_from_word(rs, [1, 2, 3, 5, 0, 2, 3, 1, 2, 0])
    assert kappa4.ext_length() == 10
    assert kappa4.is_grassmannian()
    lhs = pi(rs, 4).inverse() * kappa4
    assert lhs == translation(rs, (0, 0, 0, -1, 0))


def test_sigma_decompose_roundtrip():
    rng = random.Random(31)
    for type_label, rank in [("A", 2), ("C", 2), ("D", 4)]:
        rs = build_root_system(type_label, rank)
        for _ in range(20):
            x = random_ext(rs, rng, nwords=5)
            sigma, word = sigma_decompose(x)
            assert sigma * affine_from_word(rs, word) == x
            assert len(word) == x.ext_length()
        top = pi(rs, max(node_action(s)[0] for s in sigma_elements(rs)))
        assert from_finite(top.u) * translation(rs, top.mu) == top
    # sigma_decompose takes the first sigma in x's class mod the coroot lattice: there is one
    for type_label, rank in [("A", 4), ("B", 3), ("C", 3), ("D", 4), ("D", 5), ("E", 6), ("E", 7)]:
        rs = build_root_system(type_label, rank)
        for s, t in itertools.combinations(sigma_elements(rs), 2):
            diff = tuple(a - b for a, b in zip(s.mu, t.mu))
            assert rs.coweight_to_coroots(diff) is None, (rs, s, t)


def test_length_invariant_under_sigma():
    rng = random.Random(77)
    for type_label, rank in [("A", 2), ("D", 4)]:
        rs = build_root_system(type_label, rank)
        for _ in range(15):
            y = random_ext(rs, rng)
            for s in sigma_elements(rs):
                assert (s * y).ext_length() == y.ext_length()


def test_affine_simple_roots_positive():
    rs = build_root_system("C", 2)
    for i in affine_nodes(rs):
        assert affine_root_is_positive(affine_simple_root(rs, i))


def test_every_element_reached_is_the_interned_one():
    """On D4, every Weyl and affine element that products, inverses, left_reflect,
    weyl_from_word, translated, affine products and sigma_elements return is the one
    its system interned, so comparing by identity compares the elements."""
    rs = RootSystem("D", 4)
    rng = random.Random(73)
    group = rs.weyl_group()
    sample = rng.sample(group, 24)
    weyl = list(group) + [w.inverse() for w in sample]
    weyl += [w.left_reflect(i) for w in sample for i in rs.nodes]
    weyl += [a * b for a, b in zip(sample, reversed(sample))]
    weyl += [weyl_from_word(rs, [rng.choice(rs.nodes) for _ in range(15)]) for _ in range(12)]
    coweights = [tuple(rng.randint(-2, 2) for _ in rs.nodes) for _ in sample]
    affine = list(sigma_elements(rs))
    affine += [from_finite(w).translated(mu) for w, mu in zip(sample, coweights)]
    affine += [affine_simple_reflection(rs, i) for i in affine_nodes(rs)]
    affine += [x * y for x, y in zip(affine, reversed(affine))]
    affine += [x.inverse() for x in affine]
    weyl += [x.u for x in affine]
    for w in weyl:
        assert rs._weyl_cache[w.perm] is w, w
    for x in affine:
        assert rs._ext_intern[(x.mu, x.u)] is x, x
    assert len({w.perm for w in weyl}) == len(set(weyl))
    assert len({(x.mu, x.u.perm) for x in affine}) == len(set(affine))


def test_equal_affine_elements_of_two_systems_are_distinct():
    """u t_mu with equal permutation and coweight in two separately built D4 systems are
    two elements: unequal, and separate dict keys."""
    first, second = RootSystem("D", 4), RootSystem("D", 4)
    for word, mu in [((), (0, 0, 0, 0)), ((2, 1), (-1, 0, 0, -1)), ((1, 2, 3, 4, 2), (1, -2, 0, 1))]:
        x = _intern(first, weyl_from_word(first, word), mu)
        y = _intern(second, weyl_from_word(second, word), mu)
        assert x.u.perm == y.u.perm and x.mu == y.mu and x != y, word
        assert x is from_finite(weyl_from_word(first, word)).translated(mu)
        table = {x: "first", y: "second"}
        assert len(table) == 2 and table[y] == "second"
