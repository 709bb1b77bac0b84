"""Coefficient ring tests: Laurent polynomials and rational functions."""
from __future__ import annotations

import operator
import random
import time

import pytest

from qkseidel.errors import SizeLimitError
from qkseidel.laurent import (
    LaurentPoly,
    RationalFunction,
    _pack,
    _pack_width,
    _unpack,
    get_term_budget,
    set_term_budget,
)
from qkseidel.nilhecke import demazure
from qkseidel.rootsys import build_root_system


def random_poly(rng: random.Random, nvars: int, n_terms: int = 4) -> LaurentPoly:
    terms = {}
    for _ in range(n_terms):
        e = tuple(rng.randint(-3, 3) for _ in range(nvars))
        terms[e] = rng.randint(-5, 5)
    return LaurentPoly(nvars, terms)


def x(nvars: int, j: int, power: int = 1) -> LaurentPoly:
    e = [0] * nvars
    e[j] = power
    return LaurentPoly.monomial(tuple(e))


def test_basic_constructors():
    p = LaurentPoly(2, {(1, 0): 2, (0, 0): -1, (3, 3): 0})
    assert len(p.terms) == 2
    assert LaurentPoly.zero(2).is_zero()
    assert LaurentPoly.one(2) == LaurentPoly(2, {(0, 0): 1})
    assert LaurentPoly.constant(2, 7) == 7
    with pytest.raises(ValueError):
        LaurentPoly(2, {(1,): 1})


def test_ring_axioms_random():
    rng = random.Random(7)
    for _ in range(40):
        a, b, c = (random_poly(rng, 3) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == LaurentPoly.zero(3)
        assert a * LaurentPoly.one(3) == a
        assert a * 0 == LaurentPoly.zero(3)


def test_geometric_series_identities():
    """(1 - e^{c a}) = (1 - e^a) * (1 + e^a + ... + e^{(c-1)a})."""
    a = x(2, 0)
    one = LaurentPoly.one(2)
    power, series = one, LaurentPoly.zero(2)
    for c in range(1, 6):
        series = series + power
        power = power * a
        assert one - power == (one - a) * series


def test_divide_exact():
    """divide_exact(v) is division by the binomial 1 - e^v."""
    one = LaurentPoly.one(2)
    a, b = x(2, 0), x(2, 1)
    assert (one - a * a).divide_exact((1, 0)) == one + a
    assert (one - a * a + b).divide_exact((1, 0)) is None
    assert one.divide_exact((1, 0)) is None
    # lex-negative v: (1 - e^{-a}) (e^{-a} + e^b) divided by 1 - e^{-a}
    p = (one - x(2, 0, -1)) * (x(2, 0, -1) + b)
    assert p.divide_exact((-1, 0)) == x(2, 0, -1) + b
    # non-primitive v: 1 - e^a is not divisible by 1 - e^{2a}
    assert (one - a).divide_exact((2, 0)) is None
    assert (one - a * a).divide_exact((2, 0)) == one
    assert LaurentPoly.zero(2).divide_exact((1, 0)) == LaurentPoly.zero(2)
    with pytest.raises(ZeroDivisionError):
        one.divide_exact((0, 0))
    with pytest.raises(ValueError):
        one.divide_exact((1,))


def test_divide_exact_random_roundtrip():
    """(f (1 - e^v)) / (1 - e^v) == f, and one stray monomial makes it inexact."""
    rng = random.Random(9)
    vs = [(1, 0), (0, 1), (1, 1), (1, -2), (-1, 0), (-2, 3), (0, -1), (2, 0), (3, -3)]
    for trial in range(200):
        v = vs[trial % len(vs)] if trial % 2 else (0, 0)
        while not any(v):
            v = (rng.randint(-3, 3), rng.randint(-3, 3))
        f = random_poly(rng, 2, rng.randint(0, 5))
        prod = f * LaurentPoly(2, {(0, 0): 1, v: -1})
        assert prod.divide_exact(v) == f
        stray = LaurentPoly.monomial((rng.randint(-6, 6), rng.randint(-6, 6)), rng.choice((-2, -1, 1, 3)))
        assert (prod + stray).divide_exact(v) is None


def test_divide_exact_long_gaps_fail_fast():
    """1 - e^{nv} over 1 - e^v exceeds the term budget and raises before filling
    the gap; 1 + e^{nv} is not divisible and is refused before building anything."""
    n = 10**9
    start = time.perf_counter()
    with pytest.raises(SizeLimitError):
        LaurentPoly(2, {(0, 0): 1, (n, -n): -1}).divide_exact((1, -1))
    assert time.perf_counter() - start < 1.0
    start = time.perf_counter()
    assert LaurentPoly(2, {(0, 0): 1, (n, -n): 1}).divide_exact((1, -1)) is None
    assert time.perf_counter() - start < 1.0


def line_scan_divide(f: LaurentPoly, v: tuple[int, ...]) -> LaurentPoly | None:
    """Reference division by 1 - e^v: running sums along every line e + Zv, no early exit."""
    p = next(k for k, c in enumerate(v) if c)
    lines: dict[tuple[int, ...], dict[int, int]] = {}
    for e, c in f.terms.items():
        t = e[p] // v[p]
        lines.setdefault(tuple(a - t * b for a, b in zip(e, v)), {})[t] = c
    if any(sum(line.values()) for line in lines.values()):
        return None
    quo = {}
    for base, line in lines.items():
        run = 0
        for t in range(min(line), max(line)):
            run += line.get(t, 0)
            quo[tuple(a + t * b for a, b in zip(base, v))] = run
    return LaurentPoly(f.nvars, quo)


@pytest.mark.parametrize("type_label, rank", [("A", 2), ("G", 2), ("B", 3), ("D", 4)])
def test_divide_exact_against_line_scan(type_label, rank):
    """The coefficient-sum rejection changes no answer: every None and every quotient
    agrees with the full line scan, also on inputs that sum to zero without dividing."""
    rs = build_root_system(type_label, rank)
    rng = random.Random(15)
    seen = {"nonzero sum": 0, "zero sum, inexact": 0, "exact": 0}
    for trial in range(300):
        v = rng.choice(rs.roots)
        f = random_poly(rng, rank, rng.randint(1, 5))
        if trial % 3 == 1:  # sum 0, but rarely a multiple of 1 - e^v
            e = tuple(rng.randint(-3, 3) for _ in range(rank))
            f = f - LaurentPoly.monomial(e, sum(f.terms.values()))
        elif trial % 3 == 2:
            f = f - f.shifted(v)
        quo = f.divide_exact(v)
        assert quo == line_scan_divide(f, v)
        if sum(f.terms.values()):
            seen["nonzero sum"] += 1
        else:
            seen["exact" if quo is not None else "zero sum, inexact"] += 1
    assert min(seen.values()) >= 30, seen


def test_act_exponents_via_weyl():
    rs = build_root_system("C", 2)
    s1 = rs.simple_reflection(1)
    p = LaurentPoly(2, {(1, 0): 1, (0, 1): 2, (1, 1): -3})
    q = p.act_exponents(s1.m)
    # s1(a1) = -a1, s1(a2) = 2 a1 + a2, s1(a1 + a2) = a1 + a2
    assert q == LaurentPoly(2, {(-1, 0): 1, (2, 1): 2, (1, 1): -3})
    assert q.act_exponents(s1.m) == p


def test_term_budget_enforced():
    old = get_term_budget()
    try:
        set_term_budget(10)
        many = LaurentPoly(1, {(k,): 1 for k in range(10)})
        with pytest.raises(SizeLimitError):
            many * LaurentPoly(1, {(0,): 1, (100,): 1})
    finally:
        set_term_budget(old)
    with pytest.raises(ValueError):
        set_term_budget(0)


def test_internal_results_keep_the_term_budget():
    """Results the class builds itself still raise past the budget."""
    five = LaurentPoly(2, {(k, 0): 1 for k in range(5)})
    other = LaurentPoly(2, {(0, k): 1 for k in range(1, 5)})
    swap = ((0, 1), (1, 0))
    old = get_term_budget()
    try:
        set_term_budget(4)
        with pytest.raises(SizeLimitError):
            five.shifted((1, 1))
        with pytest.raises(SizeLimitError):
            five.act_exponents(swap)
        with pytest.raises(SizeLimitError):
            other + other.shifted((1, 0))
        with pytest.raises(SizeLimitError):
            other - other.shifted((1, 0))
        assert len((other - other.shifted((0, 0))).terms) == 0
    finally:
        set_term_budget(old)


def test_internal_results_are_normalized():
    """Public input is checked; internal results drop zeros like it does."""
    with pytest.raises(ValueError):
        LaurentPoly(2, {(1,): 1})
    rng = random.Random(23)
    for _ in range(20):
        f = random_poly(rng, 2, n_terms=6)
        diff = f - f
        assert diff.is_zero() and not diff.terms
        assert diff == LaurentPoly.zero(2)
        with pytest.raises(TypeError):
            hash(diff)
        g = random_poly(rng, 2)
        assert f - g == f + (-g)
        assert 0 not in (f - g).terms.values()
    # a singular matrix makes exponents collide; the colliding terms add
    p = LaurentPoly(2, {(1, 0): 1, (0, 1): -1, (2, 0): 3})
    assert p.act_exponents(((1, 1), (0, 0))) == LaurentPoly(2, {(2, 0): 3})


@pytest.mark.parametrize(
    "type_label,rank",
    [("A", 1), ("G", 2), ("B", 3), ("F", 4), ("D", 5), ("E", 6), ("E", 7), ("E", 8)],
)
def test_packed_exponent_codec(type_label, rank):
    """Signed base-2^k digits: exact at the edge of the field, and sums add digitwise.

    The widths cover two reduced words of the longest length from exponents
    in [-2, 2], every letter adding at most max(highest root) to a coordinate.
    """
    rs = build_root_system(type_label, rank)
    rng = random.Random(37 + rank)
    widest = 2 + 2 * len(rs.positive_roots) * max(rs.highest_root)
    for bound in (0, 1, 2, 7, 8, max(rs.highest_root), widest):
        k = _pack_width(bound)
        top = 2 ** (k - 1) - 1
        assert 2 ** (k - 1) > bound and (bound == 0 or 2 ** (k - 2) <= bound)
        for edge in ((top,) * rank, (-top,) * rank, tuple((-1) ** j * top for j in range(rank))):
            assert _unpack(_pack(edge, k), k, rank) == edge
        for _ in range(40):
            a = tuple(rng.randint(-top, top) for _ in range(rank))
            b = tuple(rng.randint(-top - min(c, 0), top - max(c, 0)) for c in a)
            total = tuple(c + d for c, d in zip(a, b))
            assert _pack(a, k) + _pack(b, k) == _pack(total, k)
            assert _unpack(_pack(a, k) + _pack(b, k), k, rank) == total


def test_str_rendering():
    p = LaurentPoly(2, {(0, 0): 1, (1, -2): -1, (2, 0): 3})
    assert str(LaurentPoly.zero(2)) == "0"
    assert str(p) == "3*A1^2 - A1*A2^-2 + 1"
    assert p.serialize() == [[[0, 0], 1], [[1, -2], -1], [[2, 0], 3]]


def binomial(v: tuple[int, ...]) -> LaurentPoly:
    return LaurentPoly.one(len(v)) - LaurentPoly.monomial(v)


def expanded_den(f: RationalFunction) -> LaurentPoly:
    """prod_v (1 - e^v)^{m_v}, multiplied out."""
    den = LaurentPoly.one(f.nvars)
    for v, m in f.den.items():
        for _ in range(m):
            den = den * binomial(v)
    return den


def cross_equal(f: RationalFunction, g: RationalFunction) -> bool:
    """Oracle: cross-multiply the fully expanded denominators."""
    return f.num * expanded_den(g) == g.num * expanded_den(f)


FACTORS = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (2, 0), (-1, 0), (0, -1), (-1, -1)]


def random_rf(rng: random.Random, n_factors: int = 2) -> RationalFunction:
    den: dict[tuple[int, ...], int] = {}
    for _ in range(n_factors):
        v = rng.choice(FACTORS)
        den[v] = den.get(v, 0) + 1
    return RationalFunction(random_poly(rng, 2, 3), den)


def test_rational_binomial_denominators():
    one = LaurentPoly.one(1)
    a = x(1, 0)
    lhs = RationalFunction(one - a * a, {(1,): 1})
    assert lhs == RationalFunction(one + a)
    assert not lhs.den and lhs.num == one + a
    assert RationalFunction(one, {(1,): 1}) != RationalFunction(one, {(2,): 1})
    assert RationalFunction(one + a, {(2,): 1}) == RationalFunction(one, {(1,): 1})
    assert RationalFunction(LaurentPoly.zero(1), {(1,): 3}).is_zero()
    assert not RationalFunction(LaurentPoly.zero(1), {(1,): 3}).den
    with pytest.raises(ZeroDivisionError):
        RationalFunction(one, {(0,): 1})


def test_rational_refuses_a_negative_multiplicity():
    """A factor with m < 0 would be a numerator; it is refused, not divided out again."""
    one = LaurentPoly.one(1)
    for num in (one - x(1, 0), one):
        with pytest.raises(ValueError, match="negative multiplicity"):
            RationalFunction(num, {(1,): -1})


def test_rational_normalization_is_value_preserving():
    """1/(1 - e^{-v}) = -e^v/(1 - e^v): factors are stored with a positive first coordinate."""
    one = LaurentPoly.one(2)
    flipped = RationalFunction(one, {(-1, 1): 1})
    assert flipped.den == {(1, -1): 1}
    assert flipped.num == -LaurentPoly.monomial((1, -1))
    assert flipped == RationalFunction(-LaurentPoly.monomial((1, -1)), {(1, -1): 1})
    assert flipped.num * binomial((-1, 1)) == expanded_den(flipped)
    squared = RationalFunction(one, {(0, -1): 2})
    assert squared.den == {(0, 1): 2} and squared.num == LaurentPoly.monomial((0, 2))


def test_rational_cancels_to_polynomial():
    one = LaurentPoly.one(2)
    a, b = x(2, 0), x(2, 1)
    f = RationalFunction(one, {(1, 0): 2, (1, 1): 1})
    g = RationalFunction((one - a) * (one - a) * (one - a * b) * (b + 3), {})
    h = f * g
    assert not h.den and h.num == b + 3
    # a sum whose factors cancel: 1/(1-a) - a/(1-a) = 1
    total = RationalFunction(one, {(1, 0): 1}) - RationalFunction(a, {(1, 0): 1})
    assert not total.den and total.num == one
    # only some of the factors cancel
    part = RationalFunction((one - a) * b, {(1, 0): 2, (0, 1): 1})
    assert part.den == {(1, 0): 1, (0, 1): 1} and part.num == b


def test_rational_field_axioms_random():
    rng = random.Random(10)
    for _ in range(25):
        f, g, h = random_rf(rng), random_rf(rng), random_rf(rng)
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) * h == f * h + g * h
        assert (f * g) * h == f * (g * h)
        assert f - f == RationalFunction(LaurentPoly.zero(2))
        assert -(f - g) == g - f
        assert f * RationalFunction.one(2) == f


def test_rational_equality_cross_mult():
    """Lifted equality agrees with cross-multiplying the expanded denominators.

    1/(1 - e^a) = (1 + e^a)/(1 - e^{2a}) gives equal values over different
    factors, which construction cannot cancel into one form.
    """
    rng = random.Random(12)
    one = LaurentPoly.one(2)
    for _ in range(40):
        base = random_rf(rng, rng.randrange(3))
        f = base * RationalFunction(one, {(1, 0): 1})
        same = base * RationalFunction(one + x(2, 0), {(2, 0): 1})
        other = same + RationalFunction(random_poly(rng, 2, 1), {(2, 0): rng.randrange(2)})
        for g in (same, other, random_rf(rng, rng.randrange(4))):
            assert (f == g) == (g == f) == cross_equal(f, g)
        assert f == same
        total = f + other
        assert total.num * expanded_den(f) * expanded_den(other) == (
            f.num * expanded_den(other) + other.num * expanded_den(f)
        ) * expanded_den(total)


def test_rational_weyl_action_is_multiplicative():
    rs = build_root_system("A", 2)
    w = rs.simple_reflection(1) * rs.simple_reflection(2)
    rng = random.Random(11)
    f = RationalFunction(random_poly(rng, 2, 3), {(1, 0): 1})
    g = RationalFunction(random_poly(rng, 2, 3), {(0, 1): 1, (1, 1): 2})
    assert (f * g).act_exponents(w.m) == f.act_exponents(w.m) * g.act_exponents(w.m)
    assert (f + g).act_exponents(w.m) == f.act_exponents(w.m) + g.act_exponents(w.m)
    assert f.act_exponents(w.m).act_exponents(w.inverse().m) == f
    # s_1 sends the factor 1 - e^{a_1} to 1 - e^{-a_1}, which flips back
    s1 = rs.simple_reflection(1)
    one = LaurentPoly.one(2)
    image = RationalFunction(one, {(1, 0): 1}).act_exponents(s1.m)
    assert image.den == {(1, 0): 1} and image.num == -x(2, 0)
    assert image.num * binomial((-1, 0)) == expanded_den(image)
    # 1/(1 - e^{a_1}) + 1/(1 - e^{-a_1}) = 1, and h + s_1(h) is s_1-invariant
    assert RationalFunction(one, {(1, 0): 1}) + image == RationalFunction.one(2)
    h = RationalFunction(x(2, 1), {(1, 0): 1})
    sym = h + h.act_exponents(s1.m)
    assert sym.act_exponents(s1.m) == sym


@pytest.mark.parametrize("type_label, rank", [("A", 2), ("C", 2), ("G", 2), ("B", 3)])
def test_twists_keep_the_reduced_form(type_label, rank):
    """act_exponents and negation skip the division loop; the checked constructor,
    which runs it, builds the same numerator and factors for every Weyl element."""
    rs = build_root_system(type_label, rank)
    nodes = range(rank + 1)
    fractions = [
        f
        for i in nodes
        for j in nodes
        for f in (demazure(rs, i) * demazure(rs, j)).coeffs.values()
        if f.den
    ]
    for w in rs.weyl_group():
        for f in fractions:
            image = f.act_exponents(w.m)
            den = {tuple(sum(map(operator.mul, row, v)) for row in w.m): m for v, m in f.den.items()}
            checked = RationalFunction(f.num.act_exponents(w.m), den)
            assert (image.num, image.den) == (checked.num, checked.den)
            neg, checked = -image, RationalFunction(-image.num, image.den)
            assert (neg.num, neg.den) == (checked.num, checked.den)


def checked_product(f: RationalFunction, g: RationalFunction) -> RationalFunction:
    """The oracle: the checked constructor on the product numerator over the merged factors."""
    den = dict(f.den)
    for v, m in g.den.items():
        den[v] = den.get(v, 0) + m
    return RationalFunction(f.num * g.num, den)


def checked_sum(f: RationalFunction, g: RationalFunction, sign: int) -> RationalFunction:
    """The oracle: both numerators lifted to the common factors by multiplying in the
    missing binomials, then the checked constructor on f.num + sign * g.num."""
    den = dict(f.den)
    for v, m in g.den.items():
        den[v] = max(m, den.get(v, 0))
    lifted = []
    for h in (f, g):
        num = h.num
        for v, m in den.items():
            for _ in range(m - h.den.get(v, 0)):
                num = num * binomial(v)
        lifted.append(num)
    return RationalFunction(lifted[0] + sign * lifted[1], den)


def assert_canonical(fractions: list[RationalFunction]) -> None:
    for f in fractions:
        for g in fractions:
            for got, checked in (
                (f * g, checked_product(f, g)),
                (f + g, checked_sum(f, g, 1)),
                (f - g, checked_sum(f, g, -1)),
            ):
                assert (got.num.terms, got.den) == (checked.num.terms, checked.den), (f, g)


def test_products_and_sums_keep_the_checked_form():
    """Products and sums skip the divisions that cannot succeed, and build the same
    numerator and factors as the checked constructor: over random fractions whose
    numerators some factors divide, over unit numerators c e^beta, and over the
    shared non-primitive factor 1 - e^{2a}, which divides (1 - e^a)(1 + e^a) but
    neither of its factors."""
    rng = random.Random(41)
    fractions = []
    for _ in range(24):
        den: dict[tuple[int, ...], int] = {}
        for _ in range(rng.randrange(4)):
            v = rng.choice(FACTORS)
            den[v] = den.get(v, 0) + 1
        num = random_poly(rng, 2, rng.randint(1, 3))
        for _ in range(rng.randrange(3)):
            num = num * binomial(rng.choice(FACTORS))
        fractions.append(RationalFunction(num, den))
    for c in (1, -1, 2, -3):
        e = (rng.randint(-2, 2), rng.randint(-2, 2))
        den = {rng.choice(FACTORS): rng.randint(1, 2), rng.choice(FACTORS): 1}
        fractions.append(RationalFunction(LaurentPoly.monomial(e, c), den))
    one = LaurentPoly.one(2)
    fractions += [
        RationalFunction(one - x(2, 0), {(2, 0): 1}),
        RationalFunction(one + x(2, 0), {(2, 0): 1}),
    ]
    assert (fractions[-2] * fractions[-1]).den == {(2, 0): 1}
    assert_canonical(fractions)


@pytest.mark.parametrize("type_label, rank", [("A", 2), ("C", 2), ("G", 2), ("B", 3)])
def test_nil_hecke_scalars_keep_the_checked_form(type_label, rank):
    """The same, over the coefficients of D_i D_j for all affine nodes i and j."""
    rs = build_root_system(type_label, rank)
    nodes = range(rank + 1)
    fractions = [
        f
        for i in nodes
        for j in nodes
        for f in (demazure(rs, i) * demazure(rs, j)).coeffs.values()
    ]
    assert_canonical(fractions)
