"""Seidel element combinatorics tests."""
from __future__ import annotations

import gc
import weakref
from operator import add

import pytest

from oracles import quantum_bruhat_weights
from qkseidel.affine import from_finite, pi, translation
from qkseidel.errors import VerificationError
from qkseidel.peterson import verify_seidel_theorem
from qkseidel.qk import parabolic_data, seidel_product, seidel_product_parabolic
from qkseidel.rootsys import (
    RootSystem,
    build_root_system,
    longest_element,
    special_nodes,
    weyl_from_word,
)
from qkseidel.seidel import (
    _quantum_exponent,
    gamma,
    grassmannian_key,
    one_line,
    quantum_exponent,
    seidel_datum,
    seidel_element,
    verify_group_lemma,
    verify_key_lemma,
)

SWEEP_TYPES = [("A", 2), ("A", 3), ("B", 3), ("C", 2), ("C", 3), ("D", 4)]


def test_seidel_element_words_small_types():
    rs = build_root_system("A", 2)
    assert seidel_element(rs, 1) == weyl_from_word(rs, [2, 1])
    assert seidel_element(rs, 2) == weyl_from_word(rs, [1, 2])
    rsc = build_root_system("C", 2)
    assert seidel_element(rsc, 2) == weyl_from_word(rsc, [2, 1, 2])


def test_seidel_element_rejects_non_special():
    with pytest.raises(ValueError):
        seidel_element(build_root_system("C", 2), 1)
    with pytest.raises(ValueError):
        seidel_element(build_root_system("G", 2), 1)


def test_type_c_long_node_word_pattern():
    """v[n] = s_n (s_{n-1} s_n) ... (s_1 ... s_n) in type C_n."""
    for rank in (2, 3, 4, 5):
        rs = build_root_system("C", rank)
        word = []
        for start in range(rank, 0, -1):
            word.extend(range(start, rank + 1))
        assert seidel_element(rs, rank) == weyl_from_word(rs, word)


def test_type_a_one_line_rotations():
    """The reference strings for type A compose left to right, so they list
    the inverse element here; v[i]^{-1} = v[n-i] makes both readings agree."""
    for rank in (2, 3, 4):
        rs = build_root_system("A", rank)
        n = rank + 1
        for i in rs.nodes:
            expected = tuple(range(i + 1, n + 1)) + tuple(range(1, i + 1))
            assert one_line(seidel_element(rs, i).inverse()) == expected
            assert seidel_element(rs, i).inverse() == seidel_element(rs, n - i)


def test_d5_signed_permutations():
    rs = build_root_system("D", 5)
    v4 = seidel_element(rs, 4)
    assert v4 == weyl_from_word(rs, [5, 3, 4, 2, 3, 5, 1, 2, 3, 4])
    assert one_line(v4) == (-5, -4, -3, -2, 1)  # 1 -> bar 5, ..., 5 -> 1
    assert v4 * v4 == seidel_element(rs, 1)
    assert one_line(seidel_element(rs, 1)) == (-1, 2, 3, 4, -5)


def test_one_line_identity_and_errors():
    rs = build_root_system("B", 3)
    assert one_line(rs.identity_weyl()) == (1, 2, 3)
    assert one_line(rs.simple_reflection(3)) == (1, 2, -3)
    rsd = build_root_system("D", 4)
    assert one_line(rsd.simple_reflection(4)) == (1, 2, -4, -3)
    with pytest.raises(ValueError):
        one_line(build_root_system("G", 2).identity_weyl())


def test_one_line_respects_products():
    import random

    rng = random.Random(12)
    for type_label, rank in [("A", 3), ("B", 3), ("C", 3), ("D", 4)]:
        rs = build_root_system(type_label, rank)
        for _ in range(20):
            u = weyl_from_word(rs, [rng.choice(rs.nodes) for _ in range(6)])
            v = weyl_from_word(rs, [rng.choice(rs.nodes) for _ in range(6)])
            a, b, c = one_line(u), one_line(v), one_line(u * v)

            def apply(img, x):
                return img[x - 1] if x > 0 else -img[-x - 1]

            assert c == tuple(apply(a, x) for x in b)


def test_descents_of_seidel_elements():
    for type_label, rank in SWEEP_TYPES + [("D", 5), ("B", 2)]:
        rs = build_root_system(type_label, rank)
        for i in special_nodes(rs):
            assert seidel_element(rs, i).descent_set() == (i,)


def test_seidel_datum_invariants_construct():
    for type_label, rank in SWEEP_TYPES + [("D", 5), ("A", 4), ("B", 4), ("C", 4)]:
        rs = build_root_system(type_label, rank)
        for i in special_nodes(rs):
            d = seidel_datum(rs, i)
            assert d.sigma == pi(rs, i)
            # length of v[i] equals the number of pairing-one positive roots
            assert d.element.length() == sum(
                1 for beta in rs.positive_roots if beta[i - 1] == 1
            )
            assert d.grassmannian_part.ext_length() == d.element.length()


def test_minimal_coset_rep_inversions_every_node():
    """Inv(w_o w_{P_i}) = positive roots with <omega_i^vee, alpha> > 0, all i."""
    for type_label, rank in SWEEP_TYPES + [("G", 2), ("F", 4), ("D", 5)]:
        rs = build_root_system(type_label, rank)
        for i in rs.nodes:
            rep = longest_element(rs) * longest_element(rs, set(rs.nodes) - {i})
            expected = {beta for beta in rs.positive_roots if beta[i - 1] > 0}
            assert set(rep.inversions()) == expected


def test_gamma_examples():
    rs = build_root_system("A", 2)
    assert gamma(rs, rs.identity_weyl()) == (0, 0)
    assert gamma(rs, longest_element(rs)) == (-1, -1)
    assert gamma(rs, rs.simple_reflection(1)) == (-1, 0)
    w = weyl_from_word(rs, [1, 2])
    assert gamma(rs, w) == (0, -1)


def test_quantum_exponent_examples():
    rs = build_root_system("A", 2)
    assert quantum_exponent(rs, 2, weyl_from_word(rs, [2, 1])) == (1, 1)
    assert quantum_exponent(rs, 2, rs.identity_weyl()) == (0, 0)
    rs5 = build_root_system("D", 5)
    w = weyl_from_word(rs5, [2, 4, 3, 5, 3, 1, 2])
    assert w.descent_set() == (2, 5)
    assert quantum_exponent(rs5, 4, w) == (0, 1, 1, 1, 1)
    v4w = seidel_element(rs5, 4) * w
    assert v4w.descent_set() == (1, 3)
    assert w.inverse().act_coweight((0, 0, 0, 1, 0)) == (1, -1, 1, 0, -1)


def test_quantum_bruhat_graph_by_hand():
    """A1: sigma_s * sigma_s = q, one quantum edge s -> e.  A2, node 2: v_2 = s1 s2 and
    w = s2 s1 give w_0 w = s2, three steps from v_2 by either s1 s2 -> s1 -> e -> s2 or
    s1 s2 -> w_0 -> e -> s2, both of weight alpha_1^vee + alpha_2^vee."""
    a1 = build_root_system("A", 1)
    s = a1.simple_reflection(1)
    assert quantum_bruhat_weights(a1, s) == {s: (0,), a1.identity_weyl(): (1,)}
    a2 = build_root_system("A", 2)
    weights = quantum_bruhat_weights(a2, seidel_element(a2, 2))
    assert weights[a2.simple_reflection(2)] == (1, 1) == quantum_exponent(
        a2, 2, weyl_from_word(a2, [2, 1])
    )


@pytest.mark.parametrize("type_label,rank", [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 3), ("B", 4), ("C", 3), ("C", 4),
    ("D", 4), ("D", 5),
])
def test_quantum_exponent_is_the_quantum_bruhat_graph_weight(type_label, rank):
    """quantum_exponent(rs, i, w) is the weight of a shortest path from v_i to w_0 w, for
    every special node and every w; the search asserts Postnikov's uniqueness of the
    weight as it goes.  It shares with the package the root data, the Weyl group and v_i."""
    rs = build_root_system(type_label, rank)
    w0 = longest_element(rs)
    for i in special_nodes(rs):
        weights = quantum_bruhat_weights(rs, seidel_element(rs, i))
        assert len(weights) == len(rs.weyl_group())
        for w in rs.weyl_group():
            assert weights[w0 * w] == quantum_exponent(rs, i, w), (i, w.reduced_word())


def test_quantum_exponent_nonnegative_everywhere():
    for type_label, rank in [("A", 2), ("C", 2), ("A", 3), ("B", 3)]:
        rs = build_root_system(type_label, rank)
        for i in special_nodes(rs):
            for w in rs.weyl_group():
                coords = quantum_exponent(rs, i, w)  # raises on violation
                assert all(c >= 0 for c in coords)


def test_quantum_exponent_refuses_a_negative_coordinate():
    """A pulled-back coweight omega_i^vee + alpha_j^vee leaves -alpha_j^vee, in the
    coroot lattice with one negative coordinate, and the sign check raises."""
    for type_label, rank in [("A", 3), ("D", 4)]:
        rs = build_root_system(type_label, rank)
        for i in special_nodes(rs):
            for j in rs.nodes:
                alpha_j = rs.coroots_to_coweight(tuple(int(k == j) for k in rs.nodes))
                pulled = tuple(map(add, rs.fundamental_coweight(i), alpha_j))
                with pytest.raises(VerificationError, match="negative coordinate"):
                    _quantum_exponent(rs, i, pulled)


def test_key_lemma_exhaustive_small():
    for type_label, rank in [("A", 2), ("C", 2)]:
        rs = build_root_system(type_label, rank)
        for i in special_nodes(rs):
            for w in rs.weyl_group():
                report = verify_key_lemma(rs, i, w)
                assert report, (report.lhs, report.rhs)


def test_group_lemma_exhaustive_small():
    for type_label, rank in [("A", 2), ("C", 2)]:
        rs = build_root_system(type_label, rank)
        for i in special_nodes(rs):
            for w in rs.weyl_group():
                assert verify_group_lemma(rs, i, w)


def test_w_times_gamma_translation_is_grassmannian():
    """verify_seidel_theorem takes w t_{gamma_w} and (v w) t_{gamma_{v w}} as basis keys
    unchecked: every grassmannian_key is the product w t_{gamma_w}, and Grassmannian."""
    for type_label, rank in SWEEP_TYPES + [("G", 2)]:
        rs = build_root_system(type_label, rank)
        for w in rs.weyl_group():
            x = from_finite(w) * translation(rs, gamma(rs, w))
            assert grassmannian_key(rs, w) is x
            assert x.is_grassmannian()


def test_caches_die_with_their_root_system():
    """Affine, Seidel and qk caches, the default registry included, live on the root
    system, not at module level."""

    def use_and_drop():
        rs = RootSystem("C", 3)
        assert seidel_datum(rs, 3).node == 3
        assert verify_seidel_theorem(rs, 3, longest_element(rs)).passed
        seidel_product(rs, 3, longest_element(rs))
        p = parabolic_data(rs, (1,))
        seidel_product_parabolic(rs, 3, p.minimal_reps[-1], p)
        assert rs._registry.exponent(3, longest_element(rs)) is not None
        return weakref.ref(rs)

    ref = use_and_drop()
    gc.collect()
    assert ref() is None
