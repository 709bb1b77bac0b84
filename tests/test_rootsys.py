"""Root system and Weyl group tests.

The generation oracle is independent of the construction, which carries each
positive root with its coroot and never leaves the positive roots: here the full
root set is the orbit of the simple roots under Cartan-matrix reflections.
"""
from __future__ import annotations

import ast
import random
import re
from operator import itemgetter
from pathlib import Path

import pytest

from qkseidel.errors import SizeLimitError
from qkseidel.rootsys import (
    POSITIVE_ROOT_LIMIT,
    VALID_RANKS,
    WEYL_GROUP_LIMIT,
    RootSystem,
    WeylElement,
    _cartan_matrix,
    _invert_cartan,
    _vec_mat,
    build_root_system,
    longest_element,
    root_is_positive,
    special_nodes,
    weyl_from_word,
)

from oracles import cartan_inverse_by_fractions

DESK_TYPES = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5),
    ("B", 2), ("B", 3), ("B", 4), ("B", 5),
    ("C", 2), ("C", 3), ("C", 4), ("C", 5),
    ("D", 3), ("D", 4), ("D", 5),
    ("G", 2), ("F", 4),
]


def positive_root_count(type_label: str, rank: int) -> int:
    if type_label == "E":
        return {6: 36, 7: 63, 8: 120}[rank]
    return {
        "A": rank * (rank + 1) // 2,
        "B": rank * rank,
        "C": rank * rank,
        "D": rank * (rank - 1),
        "F": 24,
        "G": 6,
    }[type_label]


def weyl_order(type_label: str, rank: int) -> int:
    import math

    if type_label == "E":
        return {6: 51840, 7: 2903040, 8: 696729600}[rank]
    return {
        "A": math.factorial(rank + 1),
        "B": 2 ** rank * math.factorial(rank),
        "C": 2 ** rank * math.factorial(rank),
        "D": 2 ** (rank - 1) * math.factorial(rank),
        "G": 12,
        "F": 1152,
    }[type_label]


def mat_mul(a, b):
    n = len(a)
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(ar[j] * bc[j] for j in range(n)) for bc in bt) for ar in a
    )


def mat_vec(m, v):
    return tuple(sum(row[k] * v[k] for k in range(len(v))) for row in m)


def reflection_matrix(rs, i):
    """s_i on the root lattice from the Cartan matrix: alpha_k -> alpha_k - a[i][k] alpha_i."""
    n = rs.rank
    return tuple(
        tuple((1 if r == k else 0) - (rs.cartan[i - 1][k] if r == i - 1 else 0) for k in range(n))
        for r in range(n)
    )


def orbit_roots(rs) -> set:
    """Oracle: the root set as the reflection orbit of the simple roots."""
    refl = {i: reflection_matrix(rs, i) for i in rs.nodes}
    frontier = [rs.simple_root(i) for i in rs.nodes]
    seen = set(frontier)
    while frontier:
        nxt = []
        for beta in frontier:
            for i in rs.nodes:
                img = mat_vec(refl[i], beta)
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return {b for b in seen if root_is_positive(b)}


@pytest.mark.parametrize("type_label,rank", DESK_TYPES + [("E", 6), ("E", 7), ("E", 8)])
def test_positive_roots_match_reflection_orbit(type_label, rank):
    rs = build_root_system(type_label, rank)
    assert set(rs.positive_roots) == orbit_roots(rs)
    assert len(rs.positive_roots) == positive_root_count(type_label, rank)


def test_positive_root_counts_examples():
    assert len(build_root_system("A", 2).positive_roots) == 3
    assert len(build_root_system("D", 5).positive_roots) == 20  # n(n-1) for D_n
    assert len(build_root_system("C", 2).positive_roots) == 4


def test_highest_root_examples():
    assert build_root_system("C", 2).highest_root == (2, 1)
    assert build_root_system("B", 3).highest_root == (1, 2, 2)
    assert build_root_system("D", 5).highest_root == (1, 2, 2, 1, 1)
    assert build_root_system("G", 2).highest_root == (3, 2)
    assert build_root_system("F", 4).highest_root == (2, 3, 4, 2)
    assert build_root_system("A", 5).highest_root == (1, 1, 1, 1, 1)


@pytest.mark.parametrize("type_label,rank", DESK_TYPES)
def test_highest_root_dominates(type_label, rank):
    rs = build_root_system(type_label, rank)
    theta = rs.highest_root
    for beta in rs.positive_roots:
        assert all(b <= t for b, t in zip(beta, theta))
    # dominance on the coroot side as well
    assert all(rs.pair_coroot_root(j, theta) >= 0 for j in rs.nodes)


def test_invalid_type_rank_rejected():
    for bad in [("B", 1), ("C", 1), ("D", 2), ("E", 5), ("E", 9), ("F", 3), ("G", 3), ("H", 3)]:
        with pytest.raises(ValueError):
            build_root_system(*bad)


def test_weyl_group_orders():
    for type_label, rank in [
        ("A", 2), ("A", 3), ("B", 3), ("C", 2), ("C", 3), ("D", 4), ("G", 2), ("F", 4), ("E", 6)
    ]:
        rs = build_root_system(type_label, rank)
        assert len(rs.weyl_group()) == weyl_order(type_label, rank)


def test_weyl_order_closed_form():
    for type_label, ranks in VALID_RANKS.items():
        for rank in ranks:
            if rank > 9:
                break
            rs = build_root_system(type_label, rank)
            assert rs.weyl_order() == weyl_order(type_label, rank), (type_label, rank)


def test_weyl_group_size_guard():
    rs = RootSystem("A", 12)
    interned = len(rs._weyl_cache)
    with pytest.raises(SizeLimitError):
        rs.weyl_group()
    # refused before any element is built
    assert len(rs._weyl_cache) == interned
    assert WEYL_GROUP_LIMIT >= build_root_system("E", 6).weyl_order()


def test_positive_root_limit():
    # the closed-form count is checked against the built roots on every build
    assert RootSystem("B", 17).npos == 289 <= POSITIVE_ROOT_LIMIT
    for type_label, rank in [("A", 25), ("B", 18), ("C", 18), ("D", 18), ("A", 99)]:
        with pytest.raises(SizeLimitError, match="positive roots"):
            RootSystem(type_label, rank)


def bfs_sorted_weyl_group(rs):
    """Oracle: a BFS over right multiplications with a seen set, sorted by (length, word).

    Run it on a system of its own, so that the lengths, words and inverses it
    sorts by are computed from the permutations, not read from weyl_group().
    """
    seen = {rs.identity_weyl()}
    frontier = [rs.identity_weyl()]
    while frontier:
        nxt = []
        for w in frontier:
            for i in rs.nodes:
                u = w * rs.simple_reflection(i)
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return sorted(seen, key=lambda w: (w.length(), w.reduced_word()))


@pytest.mark.parametrize("type_label,rank", DESK_TYPES + [("E", 6)])
def test_weyl_group_matches_bfs_oracle(type_label, rank):
    group = build_root_system(type_label, rank).weyl_group()
    oracle = bfs_sorted_weyl_group(RootSystem(type_label, rank))
    assert len(group) == weyl_order(type_label, rank)
    assert [w.perm for w in group] == [w.perm for w in oracle]
    assert [w.reduced_word() for w in group] == [w.reduced_word() for w in oracle]
    assert [w.length() for w in group] == [w.length() for w in oracle]
    assert [w.inverse().perm for w in group] == [w.inverse().perm for w in oracle]
    assert all(w.inverse().inverse() is w for w in group)


def all_reduced_words(w):
    """Every reduced word, by recursion on left descents."""
    if w.is_identity:
        return [()]
    rs = w.rs
    out = []
    for i in rs.nodes:
        si_w = rs.simple_reflection(i) * w
        if si_w.length() < w.length():
            out.extend((i,) + rest for rest in all_reduced_words(si_w))
    return out


@pytest.mark.parametrize("type_label,rank", [("A", 2), ("C", 2), ("A", 3)])
def test_reduced_word_is_lex_least_among_all(type_label, rank):
    rs = build_root_system(type_label, rank)
    for w in rs.weyl_group():
        words = all_reduced_words(w)
        assert all(len(word) == w.length() for word in words)
        assert min(words) == w.reduced_word()
        for word in words:
            assert weyl_from_word(rs, word) == w


@pytest.mark.parametrize("type_label,rank", DESK_TYPES)
def test_length_equals_inversion_count_random_words(type_label, rank):
    rng = random.Random(20260819)
    rs = build_root_system(type_label, rank)
    for _ in range(40):
        word = [rng.choice(rs.nodes) for _ in range(rng.randrange(13))]
        w = weyl_from_word(rs, word)
        assert w.length() == len(w.inversions()) <= len(word)
        assert weyl_from_word(rs, w.reduced_word()) == w
        assert w.inverse().length() == w.length()


def test_descents_are_word_final_letters():
    rs = build_root_system("C", 3)
    rng = random.Random(7)
    for _ in range(30):
        w = weyl_from_word(rs, [rng.choice(rs.nodes) for _ in range(10)])
        for k in rs.nodes:
            shorter = (w * rs.simple_reflection(k)).length() < w.length()
            assert (k in w.descent_set()) == shorter


def test_longest_elements():
    rs = build_root_system("A", 3)
    w0 = longest_element(rs)
    assert w0.length() == len(rs.positive_roots)
    assert w0 * w0 == rs.identity_weyl()
    # parabolic {1,3} in A3 is A1 x A1
    wj = longest_element(rs, [1, 3])
    assert wj == weyl_from_word(rs, [1, 3])
    assert longest_element(rs, []) == rs.identity_weyl()
    with pytest.raises(ValueError):
        longest_element(rs, [0, 1])


def test_a_faulty_product_stops_the_greedy_loops(monkeypatch):
    """longest_element and reduced_word walk at most |R+| steps: with a product that
    composes in the opposite order they raise, where an unbounded loop would never end."""
    rs = RootSystem("A", 2)
    s1, s2 = rs.simple_reflection(1), rs.simple_reflection(2)
    monkeypatch.setattr(
        WeylElement, "__mul__", lambda self, other: self.rs._weyl(itemgetter(*self.perm)(other.perm))
    )
    with pytest.raises(AssertionError, match="longest element"):
        longest_element(rs)
    with pytest.raises(AssertionError, match="reduced word"):
        (s1 * s2).reduced_word()


def check_inversion_identity(rs):
    """Inv(vw) = (Inv(w) \\ (-w^{-1}Inv(v))) + ((w^{-1}Inv(v)) \\ Inv(w)).

    All sets live inside the positive roots; the pieces are disjoint.
    """
    group = rs.weyl_group()
    for v in group:
        inv_v = set(v.inversions())
        for w in group:
            winv = w.inverse()
            inv_w = set(w.inversions())
            w_inv_v = {winv.act_root(beta) for beta in inv_v if root_is_positive(winv.act_root(beta))}
            neg_w_inv_v = {
                tuple(-c for c in winv.act_root(beta))
                for beta in inv_v
                if not root_is_positive(winv.act_root(beta))
            }
            first = inv_w - neg_w_inv_v
            second = w_inv_v - inv_w
            assert not (first & second)
            assert set((v * w).inversions()) == first | second


def test_inversion_identity_for_products():
    for type_label, rank in [("A", 2), ("C", 2), ("A", 3)]:
        check_inversion_identity(build_root_system(type_label, rank))


def test_coweight_action_respects_pairing():
    rng = random.Random(11)
    for type_label, rank in [("A", 3), ("B", 3), ("D", 4), ("G", 2)]:
        rs = build_root_system(type_label, rank)
        for _ in range(25):
            w = weyl_from_word(rs, [rng.choice(rs.nodes) for _ in range(8)])
            cw = tuple(rng.randrange(-3, 4) for _ in rs.nodes)
            beta = rng.choice(rs.positive_roots)
            assert rs.pairing(w.act_coweight(cw), w.act_root(beta)) == rs.pairing(cw, beta)


def test_coweight_action_against_matrix_product():
    """One pairing per node with w^{-1}(alpha_j) is the row action by the matrix of w^{-1}."""
    for type_label, rank in [("B", 3), ("D", 4), ("G", 2)]:
        rs = build_root_system(type_label, rank)
        for w in rs.weyl_group():
            for i in rs.nodes:
                cw = rs.fundamental_coweight(i)
                assert w.act_coweight(cw) == _vec_mat(cw, w.inverse().m)


def test_coroot_table_against_pairings():
    """<beta^vee, gamma> computed from the table must match 2(beta,gamma)/(beta,beta).

    Verified indirectly: the reflection s_beta built from the table coroot must
    permute the roots and fix beta's orthogonal complement pairing-wise.
    """
    for type_label, rank in [("B", 3), ("C", 3), ("G", 2), ("F", 4), ("D", 4)]:
        rs = build_root_system(type_label, rank)
        roots = set(rs.positive_roots) | {tuple(-c for c in b) for b in rs.positive_roots}
        for beta in rs.positive_roots:
            covec = rs.coroot(beta)
            fc = rs.coroots_to_coweight(covec)
            assert rs.pairing(fc, beta) == 2
            for gamma in rs.positive_roots:
                img = tuple(
                    g - rs.pairing(fc, gamma) * b for g, b in zip(gamma, beta)
                )
                assert img in roots


def test_coweight_to_coroots_membership():
    rs = build_root_system("C", 2)
    # omega_1^vee = alpha_1^vee + alpha_2^vee lies in the coroot lattice
    assert rs.coweight_to_coroots((1, 0)) == (1, 1)
    # omega_2^vee does not; reported as non-membership, not an error
    assert rs.coweight_to_coroots((0, 1)) is None
    assert rs.coweight_to_coroots((0, 2)) == (1, 2)


def test_theta_coroot_examples():
    assert build_root_system("A", 2).highest_root_coroot == (1, 1)
    assert build_root_system("C", 2).highest_root_coroot == (1, 1)
    assert build_root_system("G", 2).highest_root_coroot == (1, 2)
    assert build_root_system("B", 3).highest_root_coroot == (1, 2, 1)


def test_special_nodes_by_type():
    assert special_nodes(build_root_system("A", 4)) == (1, 2, 3, 4)
    assert special_nodes(build_root_system("C", 2)) == (2,)
    assert special_nodes(build_root_system("C", 3)) == (3,)
    assert special_nodes(build_root_system("B", 3)) == (1,)
    assert special_nodes(build_root_system("D", 5)) == (1, 4, 5)
    assert special_nodes(build_root_system("D", 4)) == (1, 3, 4)
    assert special_nodes(build_root_system("G", 2)) == ()
    assert special_nodes(build_root_system("F", 4)) == ()


@pytest.mark.parametrize("type_label,rank", DESK_TYPES)
def test_special_iff_theta_coefficient_one(type_label, rank):
    rs = build_root_system(type_label, rank)
    for i in rs.nodes:
        assert (i in special_nodes(rs)) == (rs.highest_root[i - 1] == 1)


# -- matrix oracle for the signed-permutation representation -----------------


def matrix_inversions(rs, m):
    return tuple(sorted(b for b in rs.positive_roots if not root_is_positive(mat_vec(m, b))))


def check_products_against_matrices(rs):
    rng = random.Random(20261018)
    rank = rs.rank
    refl = {i: reflection_matrix(rs, i) for i in rs.nodes}
    for i in rs.nodes:
        assert rs.simple_reflection(i).m == refl[i] == rs.simple_reflection(i).inverse().m

    def random_element():
        word = [rng.choice(rs.nodes) for _ in range(rng.randrange(2 * rank + 12))]
        m = tuple(tuple(1 if r == k else 0 for k in range(rank)) for r in range(rank))
        for i in word:
            m = mat_mul(m, refl[i])
        w = weyl_from_word(rs, word)
        assert w.m == m
        return w

    for _ in range(30):
        u, v = random_element(), random_element()
        uv = u * v
        assert uv.m == mat_mul(u.m, v.m)
        assert uv.inverse().m == mat_mul(v.inverse().m, u.inverse().m)
        assert mat_mul(u.inverse().m, u.m) == rs.identity_weyl().m
        assert mat_mul(u.m, u.inverse().m) == rs.identity_weyl().m
        for beta in rs.roots:
            assert u.act_root(beta) == mat_vec(u.m, beta)
        inv = matrix_inversions(rs, u.m)
        assert u.inversions() == inv
        assert u.length() == len(inv)
        assert u.descent_set() == tuple(
            k for k in rs.nodes if not root_is_positive(mat_vec(u.m, rs.simple_root(k)))
        )


@pytest.mark.parametrize("type_label,rank", DESK_TYPES + [("E", 6)])
def test_permutation_products_against_matrices(type_label, rank):
    check_products_against_matrices(build_root_system(type_label, rank))


@pytest.mark.parametrize("type_label,rank", DESK_TYPES + [("E", 6), ("E", 7), ("E", 8)])
def test_permutation_products_against_matrices_unenumerated(type_label, rank):
    """The same checks on a system that never enumerates W, so every inverse is computed
    from its permutation, not read from weyl_group(); E7 and E8 cannot enumerate, and
    their permutations have 126 and 240 entries."""
    rs = RootSystem(type_label, rank)
    check_products_against_matrices(rs)
    assert rs._weyl_group is None


@pytest.mark.parametrize("type_label,rank", DESK_TYPES)
def test_weyl_group_keeps_elements_interned_before_it(type_label, rank):
    """Products, left_reflect and inverse() intern elements before the enumeration, some
    with their inverse and some without; weyl_group() still matches the oracle, and every
    element is linked to its inverse both ways."""
    rng = random.Random(20261019)
    rs = RootSystem(type_label, rank)
    for k in range(40):
        w = weyl_from_word(rs, [rng.choice(rs.nodes) for _ in range(rng.randrange(3 * rank + 2))])
        if k % 3 == 0:
            w.inverse()
        elif k % 3 == 1:
            w.left_reflect(rng.choice(rs.nodes))
    interned = set(rs._weyl_cache)
    remembered = {w: list(w._left) for w in rs._weyl_cache.values() if w._left is not None}
    assert remembered
    group = rs.weyl_group()
    oracle = bfs_sorted_weyl_group(RootSystem(type_label, rank))
    assert interned <= set(rs._weyl_cache) == {w.perm for w in group}
    # the enumeration adds its tree edges to a memo and keeps every entry it held
    for w, memo in remembered.items():
        assert all(old is None or new is old for old, new in zip(memo, w._left)), w
    assert all(
        sw is None or sw is rs.simple_reflection(i) * w
        for w in group for i, sw in enumerate(w._left) if i
    )
    assert [w.perm for w in group] == [w.perm for w in oracle]
    assert [w._word for w in group] == [w.reduced_word() for w in oracle]
    assert [w.length() for w in group] == [w.length() for w in oracle]
    assert [w._inverse.perm for w in group] == [w.inverse().perm for w in oracle]
    assert all(w.inverse().inverse() is w for w in group)


def test_cartan_inverse_matches_the_fraction_solve():
    """The fraction-free solve against Gauss-Jordan over the rationals, on every valid
    type up to rank 20, and as the built systems store it."""
    checked = 0
    for type_label, ranks in VALID_RANKS.items():
        for rank in ranks:
            if rank > 20:
                break
            cartan = _cartan_matrix(type_label, rank)
            assert _invert_cartan(cartan) == cartan_inverse_by_fractions(cartan), (type_label, rank)
            checked += 1
    assert checked == 81
    for type_label, rank in DESK_TYPES + [("E", 6)]:
        rs = build_root_system(type_label, rank)
        assert (rs._cartan_inv_den, rs._cartan_inv_cols) == cartan_inverse_by_fractions(rs.cartan)


def matrix_reduced_word(rs, m, minv, refl):
    """Old matrix algorithm: strip the smallest i with column i of minv negative, once per
    inversion of m; each strip shortens m by one, so no inversion is left."""
    word = []
    for _ in range(len(matrix_inversions(rs, m))):
        i = next(i for i in rs.nodes if all(row[i - 1] <= 0 for row in minv))
        word.append(i)
        m, minv = mat_mul(refl[i], m), mat_mul(minv, refl[i])
    assert not matrix_inversions(rs, m)
    return tuple(word)


@pytest.mark.parametrize(
    "type_label,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("F", 4)]
)
def test_weyl_group_is_matrix_closure(type_label, rank):
    rs = build_root_system(type_label, rank)
    refl = {i: reflection_matrix(rs, i) for i in rs.nodes}
    one = tuple(tuple(1 if r == k else 0 for k in range(rank)) for r in range(rank))
    closure = {one: one}
    frontier = [one]
    while frontier:
        nxt = []
        for m in frontier:
            for i in rs.nodes:
                img = mat_mul(m, refl[i])
                if img not in closure:
                    closure[img] = mat_mul(refl[i], closure[m])
                    nxt.append(img)
        frontier = nxt
    words = {m: matrix_reduced_word(rs, m, minv, refl) for m, minv in closure.items()}
    ordered = sorted(closure, key=lambda m: (len(words[m]), words[m]))
    group = rs.weyl_group()
    assert [w.m for w in group] == ordered
    assert [w.inverse().m for w in group] == [closure[m] for m in ordered]


@pytest.mark.parametrize(
    "type_label,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("F", 4)]
)
def test_left_reflect_is_the_product(type_label, rank):
    """w.left_reflect(i) is the interned s_i * w, on a cold system and again once remembered."""
    rs = RootSystem(type_label, rank)
    group = rs.weyl_group()
    for w in group:
        for i in rs.nodes:
            assert w.left_reflect(i) is rs.simple_reflection(i) * w, (w, i)
    for w in group:
        for i in rs.nodes:
            sw = w.left_reflect(i)
            assert sw is rs.simple_reflection(i) * w and sw.left_reflect(i) is w, (w, i)


@pytest.mark.parametrize(
    "type_label,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("F", 4), ("G", 2)]
)
def test_weyl_group_records_its_tree_edges(type_label, rank):
    """On a fresh system, weyl_group() leaves exactly its |W| - 1 tree edges w = s_i y in
    the left_reflect memos, both ways, and each entry is the product s_i w; slot 0 of a
    memo (no node) stays empty."""
    rs = RootSystem(type_label, rank)
    group = rs.weyl_group()
    filled = [(w, i, sw) for w in group for i, sw in enumerate(w._left) if sw is not None]
    assert len(filled) == 2 * (len(group) - 1)
    assert all(i in rs.nodes and sw is rs.simple_reflection(i) * w for w, i, sw in filled)
    assert all(sw._left[i] is w for w, i, sw in filled)


def test_left_reflect_refuses_a_node_outside_the_index_set():
    """On A2, left_reflect(-1) must not read the memo from its end, where s_2 e sits once
    left_reflect(2) has run, and left_reflect(3) must not index past it: both raise
    ValueError naming the node, and the memo keeps its one entry."""
    rs = RootSystem("A", 2)
    e = rs.identity_weyl()
    assert e.left_reflect(2) is rs.simple_reflection(2)
    for i in (-1, 0, 3):
        with pytest.raises(ValueError, match=f"node {i} outside"):
            e.left_reflect(i)
    assert e._left == [None, None, rs.simple_reflection(2)]


CROSS_SYSTEMS = [(("B", 2), ("C", 2)), (("A", 2), ("A", 1)), (("A", 1), ("A", 2))]


@pytest.mark.parametrize("system,other", CROSS_SYSTEMS, ids=["B2xC2", "A2xA1", "A1xA2"])
def test_products_across_root_systems_are_refused(system, other):
    """A product with an element of another system is bad input, refused by name before
    anything is interned: B2 x C2 (eight roots each) once gave an element of B2, A2 x A1
    interned a 2-entry permutation into A2, and A1 x A2 raised a bare IndexError."""
    rs, foreign = RootSystem(*system), RootSystem(*other)
    u, v = longest_element(rs), longest_element(foreign)
    cache = dict(rs._weyl_cache)
    with pytest.raises(ValueError, match=re.escape(f"{v!r} is an element of {foreign!r}")):
        u * v
    assert rs._weyl_cache == cache


def test_reflection_refuses_a_non_root():
    """On A2, (1, 1, 1), (2, 0) and (0, 0) are no roots: reflection raises ValueError
    naming the vector, not a bare KeyError, and caches nothing."""
    rs = RootSystem("A", 2)
    for beta in [(1, 1, 1), (2, 0), (0, 0)]:
        with pytest.raises(ValueError, match=re.escape(f"{beta} is not a root of {rs!r}")):
            rs.reflection(beta)
    assert set(rs._reflections) == {(1, 0), (0, 1)}


SRC = Path(__file__).resolve().parent.parent / "src" / "qkseidel"


def constructor_scopes(name: str) -> list[tuple[str, ...]]:
    """(module, class, function) scope of every call `name(...)` under src/qkseidel."""
    found = []

    def visit(node, scope):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name:
            found.append(scope)
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope += (node.name,)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), (path.stem,))
    return found


@pytest.mark.parametrize("name,scope", [
    ("WeylElement", ("rootsys", "RootSystem", "_weyl")),
    ("ExtAffineWeylElement", ("affine", "_intern")),
])
def test_elements_are_built_in_one_place(name, scope):
    """Weyl and affine elements compare and hash by identity, which is exact only while
    each class is built in one place, its system's intern table: one call in all of
    src/qkseidel, and no object.__new__ of either class."""
    assert constructor_scopes(name) == [scope]
    text = "".join(path.read_text() for path in sorted(SRC.glob("*.py")))
    assert len(re.findall(rf"\b{name}\(", text)) == 1
    assert not re.search(rf"__new__\({name}\b", text)


def test_equal_permutations_of_two_systems_are_distinct_elements():
    """Two separately built D4 systems intern their own elements: equal permutations
    compare unequal across them and stay separate dict keys."""
    first, second = RootSystem("D", 4), RootSystem("D", 4)
    rng = random.Random(71)
    words = [(), (1,), (2, 4, 3, 1)] + [[rng.choice(first.nodes) for _ in range(9)] for _ in range(5)]
    for word in words:
        x, y = weyl_from_word(first, word), weyl_from_word(second, word)
        assert x.perm == y.perm and x != y and not x == y, word
        assert x is weyl_from_word(first, word) and x == weyl_from_word(first, word)
        table = {x: "first", y: "second"}
        assert len(table) == 2 and table[x] == "first" and table[y] == "second"
    assert first.weyl_group()[5] not in set(second.weyl_group())
