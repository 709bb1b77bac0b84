"""Constructions that only the tests use, kept here as oracles for the package.

star_D is the nil-Hecke companion of the star action, star_words_by_letters
applies star_s one letter at a time, sigma_monomial and mult_by_sigma_monomial
write the sigma classes as translation classes, affine_from_word multiplies out
a word in the affine simple reflections, cartan_inverse_by_fractions inverts a
Cartan matrix over the rationals, and quantum_bruhat_weights walks the quantum
Bruhat graph.
"""
from __future__ import annotations

import math
from fractions import Fraction
from operator import add
from typing import Iterable, Sequence

from qkseidel.affine import (
    ExtAffineWeylElement,
    affine_nodes,
    affine_simple_reflection,
    affine_simple_root,
    ext_identity,
    translation,
)
from qkseidel.laurent import LaurentPoly, accumulate
from qkseidel.peterson import PetersonElement, ell, mult_by_translation, star_s
from qkseidel.rootsys import RootSystem, WeylElement


def star_D(i: int, z: PetersonElement) -> PetersonElement:
    """The operator with star_s(i, a) = e^{alpha_i} a + (1 - e^{alpha_i}) star_D(i, a).

    It stays polynomial because s_i f - f is divisible by 1 - e^{alpha_i}: its divided
    difference is the one exact binomial division LaurentPoly.divide_exact.  Same cases
    as star_s; "longer" is the single-root test x.left_ascent(i).
    """
    rs = z.rs
    if i not in affine_nodes(rs):
        raise ValueError(f"node {i} outside the affine index set")
    si = affine_simple_reflection(rs, i)
    twist = si.u.m
    root = affine_simple_root(rs, i).finite
    out: dict[ExtAffineWeylElement, LaurentPoly] = {}
    for x, f in z.terms.items():
        sf = f.act_exponents(twist)
        delta = (sf - f).divide_exact(root)
        if delta is None:
            raise ArithmeticError(f"s_{i} f - f is not divisible by 1 - e^{root} for f = {f}")
        if x.left_ascent(i) and (y := si * x).is_grassmannian():
            accumulate(out, x, delta.shifted(root))
            accumulate(out, y, sf)
        else:
            accumulate(out, x, f + delta)
    return PetersonElement(rs, out)


def star_words_by_letters(z: PetersonElement, word: Sequence[int]) -> PetersonElement:
    """star_s along a word of finite letters, its last letter first: the oracle of star_w on
    a reduced word, and of the star-word kernel on any word, reduced or not."""
    for i in reversed(word):
        z = star_s(i, z)
    return z


def sigma_monomial(rs: RootSystem, m: tuple[int, ...]) -> PetersonElement:
    """prod_j sigma_j^{m_j} = ell_{t_{-sum m_j omega_j^vee}}, m_j >= 0."""
    if len(m) != rs.rank or any(c < 0 for c in m):
        raise ValueError(f"invalid sigma exponent {m}")
    return ell(translation(rs, tuple(-c for c in m)))


def mult_by_sigma_monomial(z: PetersonElement, m: tuple[int, ...]) -> PetersonElement:
    if any(c < 0 for c in m):
        raise ValueError(f"invalid sigma exponent {m}")
    return mult_by_translation(z, tuple(-c for c in m))


def affine_from_word(rs: RootSystem, word: Iterable[int]) -> ExtAffineWeylElement:
    x = ext_identity(rs)
    for i in word:
        if i != 0 and i not in rs.nodes:
            raise ValueError("node %r outside the affine index set" % (i,))
        x = x * affine_simple_reflection(rs, i)
    return x


def cartan_inverse_by_fractions(cartan: tuple[tuple[int, ...], ...]) -> tuple[int, tuple]:
    """(den, columns of den * C^{-1}), den the least making it integral: Gauss-Jordan on
    [C | I] over Fraction."""
    n = len(cartan)
    aug = [[Fraction(cartan[j][k]) for k in range(n)]
           + [Fraction(1 if k == j else 0) for k in range(n)] for j in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    inv = [row[n:] for row in aug]
    den = math.lcm(*(x.denominator for row in inv for x in row))
    return den, tuple(tuple(int(inv[j][k] * den) for j in range(n)) for k in range(n))


def quantum_bruhat_weights(rs: RootSystem, start: WeylElement) -> dict[WeylElement, tuple]:
    """The weight of a shortest path from start to each w in the quantum Bruhat graph.

    The graph (Brenti, Fomin and Postnikov, IMRN 1999) has vertex set W and, for each
    positive root alpha, an edge w -> w s_alpha of weight 0 when l(w s_alpha) = l(w) + 1
    and of weight alpha^vee when l(w s_alpha) = l(w) + 1 - 2 ht(alpha^vee).  Postnikov
    ("Quantum Bruhat graph and Schubert polynomials", Proc. AMS 133, 2005) shows that all
    shortest paths from u to v have one weight, and that the least q-degree in the quantum
    product sigma_u * sigma_v is the weight of a shortest path from u to w_0 v.  A Seidel
    product sigma_{v_i} * sigma_w has one term, so its exponent is the weight of the path
    from v_i to w_0 w.  On A1, sigma_s * sigma_s = q: the one path from s to w_0 s = e is
    the edge s -> s s_alpha, with l(e) = 0 = 1 + 1 - 2 ht(alpha^vee), of weight alpha^vee.

    A breadth-first search from start; a vertex reached again at its own distance asserts
    that the second path has the first one's weight.  Weights are in simple-coroot
    coordinates.  It reads the root data, reflections, products and lengths of rs, and
    nothing of the coweights, the affine layer or the Peterson module.
    """
    edges = [(rs.reflection(alpha), rs.coroot(alpha)) for alpha in rs.positive_roots]
    dist, weight = {start: 0}, {start: (0,) * rs.rank}
    frontier = [start]
    while frontier:
        nxt = []
        for w in frontier:
            for s, coroot in edges:
                y = w * s
                if y.length() == w.length() + 1:
                    wt = weight[w]
                elif y.length() == w.length() + 1 - 2 * sum(coroot):
                    wt = tuple(map(add, weight[w], coroot))
                else:
                    continue
                if y not in dist:
                    dist[y], weight[y] = dist[w] + 1, wt
                    nxt.append(y)
                elif dist[y] == dist[w] + 1:
                    assert weight[y] == wt, (start.reduced_word(), y.reduced_word(), weight[y], wt)
        frontier = nxt
    return weight
