"""Divided difference operator tests in the twisted group algebra."""
from __future__ import annotations

import itertools
import random

import pytest

from qkseidel.affine import (
    affine_nodes,
    affine_simple_reflection,
    node_action,
    pi,
)
from qkseidel import nilhecke
from qkseidel.laurent import LaurentPoly, RationalFunction
from qkseidel.nilhecke import (
    GroupAlgebraElement,
    braid_order,
    demazure,
    level_zero_action,
    verify_braid_relation,
)
from qkseidel.rootsys import build_root_system, special_nodes

from oracles import affine_from_word

RELATION_TYPES = [("A", 2), ("C", 2), ("G", 2)]


def act_on(op: GroupAlgebraElement, f: LaurentPoly) -> RationalFunction:
    """Apply op as an operator on scalars: the sum of c_x * x(f) over its terms."""
    g = RationalFunction(f)
    out = RationalFunction(LaurentPoly(op.rs.rank))
    for x, c in op.coeffs.items():
        out = out + c * level_zero_action(x, g)
    return out


def test_group_law_in_algebra():
    rs = build_root_system("C", 2)
    rng = random.Random(3)
    nodes = affine_nodes(rs)
    for _ in range(15):
        x = affine_from_word(rs, [rng.choice(nodes) for _ in range(4)])
        y = affine_from_word(rs, [rng.choice(nodes) for _ in range(4)])
        lhs = GroupAlgebraElement.basis(x) * GroupAlgebraElement.basis(y)
        assert lhs == GroupAlgebraElement.basis(x * y)


def test_twisted_scalar_commutation():
    rs = build_root_system("A", 2)
    s1 = GroupAlgebraElement.basis(affine_simple_reflection(rs, 1))
    a1 = LaurentPoly.monomial((1, 0))
    # [s_1] e^{a_1} = e^{-a_1} [s_1]
    assert s1 * a1 == LaurentPoly.monomial((-1, 0)) * s1
    assert s1 * a1 != a1 * s1


def test_level_zero_action_of_s0_is_theta_reflection():
    rs = build_root_system("C", 2)
    s0 = affine_simple_reflection(rs, 0)
    f = RationalFunction(LaurentPoly.monomial((1, 0)))
    # theta = 2 a_1 + a_2, so s_theta(a_1) = a_1 - theta = -a_1 - a_2
    assert level_zero_action(s0, f) == RationalFunction(LaurentPoly.monomial((-1, -1)))
    tr = affine_from_word(rs, []) * s0 * s0  # identity: translations act trivially
    assert level_zero_action(tr, f) == f


def test_demazure_idempotent():
    for type_label, rank in RELATION_TYPES + [("B", 3)]:
        rs = build_root_system(type_label, rank)
        for i in affine_nodes(rs):
            d = demazure(rs, i)
            assert d * d == d


def test_braid_orders_affine():
    rs_a = build_root_system("A", 2)
    assert {braid_order(rs_a, i, j) for i, j in itertools.combinations((0, 1, 2), 2)} == {3}
    rs_c = build_root_system("C", 2)
    assert braid_order(rs_c, 0, 1) == 4
    assert braid_order(rs_c, 0, 2) == 2
    assert braid_order(rs_c, 1, 2) == 4
    rs_g = build_root_system("G", 2)
    assert braid_order(rs_g, 0, 1) == 2
    assert braid_order(rs_g, 0, 2) == 3
    assert braid_order(rs_g, 1, 2) == 6
    assert braid_order(rs_g, 1, 1) == 1


def test_braid_relations():
    for type_label, rank in RELATION_TYPES:
        rs = build_root_system(type_label, rank)
        for i, j in itertools.combinations(affine_nodes(rs), 2):
            assert verify_braid_relation(rs, i, j), (type_label, i, j)


def test_braid_relation_builds_each_operator_once(monkeypatch):
    """verify_braid_relation(rs, i, j) builds the parts of D_i once and those of D_j
    once, whatever the braid order; G2's (1, 2), six factors a side, is among them."""
    built = []
    parts = nilhecke._demazure_parts

    def counting(rs, i):
        built.append(i)
        return parts(rs, i)

    monkeypatch.setattr(nilhecke, "_demazure_parts", counting)
    for type_label, rank in RELATION_TYPES:
        rs = build_root_system(type_label, rank)
        for i, j in itertools.permutations(affine_nodes(rs), 2):
            built.clear()
            assert nilhecke.verify_braid_relation(rs, i, j), (type_label, i, j)
            assert sorted(built) == sorted((i, j)), (type_label, i, j, built)


def test_braid_relation_sees_too_few_factors(monkeypatch):
    """With one factor a side fewer than the braid order the two sides differ, so the
    comparison can be seen to fail.  One more would not do: D_{w0} D_i = D_{w0}."""
    order = nilhecke.braid_order
    monkeypatch.setattr(nilhecke, "braid_order", lambda rs, i, j: order(rs, i, j) - 1)
    for type_label, rank in RELATION_TYPES:
        rs = build_root_system(type_label, rank)
        for i, j in itertools.combinations(affine_nodes(rs), 2):
            assert not nilhecke.verify_braid_relation(rs, i, j), (type_label, i, j)


def assert_same_form(got: GroupAlgebraElement, want: GroupAlgebraElement, context):
    """The same keys, and every coefficient with the same (num, den)."""
    assert got.coeffs.keys() == want.coeffs.keys(), context
    for x, f in want.coeffs.items():
        g = got.coeffs[x]
        assert (g.num.terms, g.den) == (f.num.terms, f.den), (context, x)


@pytest.mark.parametrize(
    "type_label, rank", [("A", 2), ("C", 2), ("G", 2), ("B", 3), ("C", 3), ("D", 4)]
)
def test_times_demazure_matches_the_general_product(type_label, rank):
    """a D_j by pairs equals a * demazure(rs, j) in its exact form, for seeded a (a
    signed monomial times 1 to 4 Demazure factors) at every affine node j; a pair
    whose coefficients cancel adds nothing."""
    rs = build_root_system(type_label, rank)
    rng = random.Random(7)
    nodes = affine_nodes(rs)
    for j in nodes:
        parts = nilhecke._demazure_parts(rs, j)
        d = demazure(rs, j)
        for _ in range(3):
            exps = tuple(rng.randint(-2, 2) for _ in range(rank))
            a = LaurentPoly.monomial(exps, rng.choice((1, -1))) * GroupAlgebraElement.one(rs)
            for _ in range(rng.randint(1, 4)):
                a = a * demazure(rs, rng.choice(nodes))
            assert_same_form(nilhecke._times_demazure(a, parts), a * d, (type_label, j))
        x = affine_from_word(rs, [rng.choice(nodes) for _ in range(3)])
        f = RationalFunction(LaurentPoly.monomial((1,) + (0,) * (rank - 1)))
        cancel = GroupAlgebraElement(rs, {x: f, x * parts[0]: -f})
        assert not nilhecke._times_demazure(cancel, parts).coeffs
        assert not (cancel * d).coeffs


def test_scalars_are_not_central():
    rs = build_root_system("A", 2)
    d1 = demazure(rs, 1)
    a1 = LaurentPoly.monomial((1, 0))
    assert a1 * d1 != d1 * a1


def test_sigma_conjugation_permutes_operators():
    for type_label, rank in [("A", 2), ("C", 2), ("A", 3)]:
        rs = build_root_system(type_label, rank)
        for i in special_nodes(rs):
            sigma = pi(rs, i)
            head = GroupAlgebraElement.basis(sigma)
            tail = GroupAlgebraElement.basis(sigma.inverse())
            for j in affine_nodes(rs):
                expected = demazure(rs, node_action(sigma)[j])
                assert head * demazure(rs, j) * tail == expected, (type_label, i, j)


def test_demazure_character_values():
    rs = build_root_system("A", 2)
    d1 = demazure(rs, 1)
    assert act_on(d1, LaurentPoly.one(2)) == RationalFunction.one(2)
    # <a_1^vee, a_1> = 2: the string e^{a_1}, 1, e^{-a_1}
    a1 = LaurentPoly.monomial((1, 0))
    expected = LaurentPoly(2, {(1, 0): 1, (0, 0): 1, (-1, 0): 1})
    assert act_on(d1, a1) == RationalFunction(expected)
    # <a_1^vee, a_2> = -1: dominant direction is empty, D_1 kills nothing but shifts
    a2 = LaurentPoly.monomial((0, 1))
    got = act_on(d1, a2)
    assert not got.den
    assert got == RationalFunction(LaurentPoly(2)) + got  # well formed
    # the image of D_i is s_i-invariant, equivalently s_i D_i = D_i
    s1 = GroupAlgebraElement.basis(affine_simple_reflection(rs, 1))
    assert s1 * d1 == d1
    assert d1 * s1 != d1
    image = act_on(d1, a1)
    assert image.act_exponents(rs.simple_reflection(1).m) == image


def test_demazure_results_are_polynomial():
    rng = random.Random(5)
    for type_label, rank in [("A", 2), ("C", 2)]:
        rs = build_root_system(type_label, rank)
        for _ in range(10):
            exps = tuple(rng.randint(-2, 2) for _ in range(rank))
            word = [rng.choice(affine_nodes(rs)) for _ in range(3)]
            op = GroupAlgebraElement.one(rs)
            for i in word:
                op = op * demazure(rs, i)
            value = act_on(op, LaurentPoly.monomial(exps))
            assert not value.den, (type_label, exps, word)
