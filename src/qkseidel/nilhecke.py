"""Twisted group algebra of the extended affine Weyl group, level zero.

Scalars are rational functions in the characters e^beta of the finite
torus.  The null root acts as 1, so a group element twists scalars through
the finite part u of its normal form u t_mu: translations act trivially
and s_0 acts as the reflection in the highest root.

Products follow (f x)(g y) = f x(g) [xy].  Divided difference operators
are the two-term elements

    D_i = (1 - e^{alpha_i})^{-1} [s_i] + (1 - (1 - e^{alpha_i})^{-1}) [e],

with e^{alpha_0} = e^{-theta} at level zero.  They satisfy D_i^2 = D_i and
the braid relations, so D_x is well defined for x with a reduced word.

Write c = (1 - e^{alpha_j})^{-1}.  At level zero s_j(e^{alpha_j}) =
e^{-alpha_j}, for j = 0 too, since s_0 twists by the reflection in theta and
alpha_0 = -theta; so s_j(c) = 1 - c.  The terms of a D_j at [x] and at
[x s_j] then share one sum of coefficients:

    a D_j = sum over the pairs {x, x s_j} of
            (f_x + f_{x s_j}) (x(1 - c) [x] + x(c) [x s_j]),

for a = sum f_x [x], either element of a pair serving as x.  Braid checks
multiply by D_j in this form: two scalar products and two twists per pair,
where the general product spends two per term of a.

Every coefficient denominator in this algebra is a product of binomials
1 - e^beta over roots beta (Kostant-Kumar, T-equivariant K-theory of
generalized flag varieties), so scalars are RationalFunctions with
root-factored denominators and all identities are decided by exact equality.
"""
from __future__ import annotations

from .affine import (
    ExtAffineWeylElement,
    affine_nodes,
    affine_simple_reflection,
    affine_simple_root,
    ext_identity,
    theta_pairings,
)
from .laurent import LaurentPoly, RationalFunction, _repr, _sum_text
from .rootsys import RootSystem

Scalar = RationalFunction


def level_zero_action(x: ExtAffineWeylElement, f):
    """Act on a LaurentPoly or RationalFunction by the finite part of x."""
    return f.act_exponents(x.u.m)


def _as_scalar(rs: RootSystem, value) -> Scalar | None:
    """The one conversion of an int or LaurentPoly into a scalar."""
    if isinstance(value, RationalFunction):
        return value
    if isinstance(value, LaurentPoly):
        return RationalFunction(value)
    if isinstance(value, int):
        return RationalFunction(LaurentPoly.monomial((0,) * rs.rank, value))
    return None


class GroupAlgebraElement:
    """Finite sum of scalar multiples of extended affine Weyl elements."""

    __slots__ = ("rs", "coeffs")

    def __init__(
        self,
        rs: RootSystem,
        coeffs: dict[ExtAffineWeylElement, Scalar] | None = None,
    ):
        self.rs = rs
        clean: dict[ExtAffineWeylElement, Scalar] = {}
        if coeffs:
            for x, f in coeffs.items():
                if not f.is_zero():
                    clean[x] = f
        self.coeffs = clean

    @classmethod
    def basis(cls, x: ExtAffineWeylElement) -> "GroupAlgebraElement":
        return cls(x.rs, {x: RationalFunction.one(x.rs.rank)})

    @classmethod
    def one(cls, rs: RootSystem) -> "GroupAlgebraElement":
        return cls.basis(ext_identity(rs))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        return self.rs is other.rs and self.coeffs == other.coeffs

    __hash__ = None

    def __mul__(self, other) -> "GroupAlgebraElement":
        scalar = _as_scalar(self.rs, other)
        if scalar is not None:
            # right multiplication: x picks up x(g)
            return GroupAlgebraElement(
                self.rs,
                {x: f * level_zero_action(x, scalar) for x, f in self.coeffs.items()},
            )
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        out: dict[ExtAffineWeylElement, Scalar] = {}
        for x, f in self.coeffs.items():
            for y, g in other.coeffs.items():
                key = x * y
                term = f * level_zero_action(x, g)
                acc = out.get(key)
                out[key] = term if acc is None else acc + term
        return GroupAlgebraElement(self.rs, out)

    def __rmul__(self, other) -> "GroupAlgebraElement":
        scalar = _as_scalar(self.rs, other)
        if scalar is None:
            return NotImplemented
        return GroupAlgebraElement(
            self.rs, {x: scalar * f for x, f in self.coeffs.items()}
        )

    def __str__(self) -> str:
        keys = sorted(self.coeffs, key=lambda e: (e.ext_length(), repr(e)))
        return _sum_text((self.coeffs[x], f"[{x!r}]") for x in keys)

    __repr__ = _repr


def _demazure_parts(rs: RootSystem, j: int) -> tuple[ExtAffineWeylElement, Scalar, Scalar]:
    """(s_j, c, 1 - c) with c = (1 - e^{alpha_j})^{-1}, so D_j = c [s_j] + (1 - c) [e]."""
    if j not in affine_nodes(rs):
        raise ValueError(f"node {j} outside the affine index set")
    c = RationalFunction(LaurentPoly.one(rs.rank), {affine_simple_root(rs, j).finite: 1})
    return affine_simple_reflection(rs, j), c, RationalFunction.one(rs.rank) - c


def demazure(rs: RootSystem, i: int) -> GroupAlgebraElement:
    """The divided difference operator D_i as a group algebra element."""
    si, c, rest = _demazure_parts(rs, i)
    return GroupAlgebraElement(rs, {si: c, ext_identity(rs): rest})


def _times_demazure(a: GroupAlgebraElement, parts: tuple) -> GroupAlgebraElement:
    """a D_j by the pairs {x, x s_j} (module docstring); the constructor drops a pair
    whose sum is zero."""
    sj, c, rest = parts
    coeffs = a.coeffs
    out: dict[ExtAffineWeylElement, Scalar] = {}
    for x, f in coeffs.items():
        if x in out:  # the x s_j of a pair already formed
            continue
        xs = x * sj
        g = f + coeffs[xs] if xs in coeffs else f
        out[x] = g * level_zero_action(x, rest)
        out[xs] = g * level_zero_action(x, c)
    return GroupAlgebraElement(a.rs, out)


def braid_order(rs: RootSystem, i: int, j: int) -> int:
    """Order of s_i s_j in the affine Weyl group, from the affine Cartan matrix."""
    if i == j:
        return 1
    n = _affine_pairing(rs, i, j) * _affine_pairing(rs, j, i)
    try:
        return {0: 2, 1: 3, 2: 4, 3: 6}[n]
    except KeyError:
        raise ValueError(f"nodes {i},{j} generate an infinite dihedral group")


def _affine_pairing(rs: RootSystem, i: int, j: int) -> int:
    """<alpha_i^vee, alpha_j> over the affine node set."""
    if i == j:
        return 2
    if i == 0:
        return -theta_pairings(rs)[j - 1]
    if j == 0:
        return -rs.pair_coroot_root(i, rs.highest_root)
    return rs.cartan[i - 1][j - 1]


def verify_braid_relation(rs: RootSystem, i: int, j: int) -> bool:
    """D_i D_j D_i ... = D_j D_i D_j ... with braid_order(i, j) factors.

    D_i and D_j are built once each and multiplied in from the right, so every
    factor's scalars have unit numerators (see RationalFunction): each product
    is by the pairs {x, x s_j}, whose factors x(c) and x(1 - c) have unit
    numerators too.
    """
    m = braid_order(rs, i, j)
    d = (_demazure_parts(rs, i), _demazure_parts(rs, j))
    lhs = rhs = GroupAlgebraElement.one(rs)
    for k in range(m):
        lhs, rhs = _times_demazure(lhs, d[k % 2]), _times_demazure(rhs, d[1 - k % 2])
    return lhs == rhs
