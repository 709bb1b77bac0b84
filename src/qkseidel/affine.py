"""Extended affine Weyl group: translations, affine reflections, length-zero elements.

Elements are kept in the normal form u * t_mu with u finite and mu in the
coweight lattice (fundamental-coweight coordinates), the form of the Grassmannian
keys w t_{gamma_w}.  An affine root alpha + n*delta is a (finite root, level)
pair; the extra affine node is 0 and its simple root is -theta + delta.
"""
from __future__ import annotations

from operator import add
from typing import Iterable, NamedTuple, Optional

from .rootsys import (
    Coweight,
    Root,
    RootSystem,
    WeylElement,
    longest_element,
    special_nodes,
)


class AffineRoot(NamedTuple):
    finite: Root
    level: int


class ExtAffineWeylElement:
    """Element u * t_mu of the extended affine Weyl group.

    _intern alone builds instances, one per (mu, u) and system, so equal elements
    are the same object: they compare and hash as objects do, in C, and share length
    and Grassmannian caches.  The Sigma part is implicit: it is trivial exactly when
    mu lies in the coroot lattice.
    """

    __slots__ = ("rs", "u", "mu", "_length", "_grass")

    def __init__(self, rs: RootSystem, u: WeylElement, mu: Coweight):
        self.rs = rs
        self.u = u
        self.mu = mu
        self._length: Optional[int] = None
        self._grass: Optional[bool] = None

    def __repr__(self) -> str:
        return "%r*t%r" % (self.u, self.mu)

    def __mul__(self, other: "ExtAffineWeylElement") -> "ExtAffineWeylElement":
        """(u t_mu)(v t_nu) = (uv) t_{v^{-1}(mu) + nu}."""
        v = other.u
        mu = tuple(map(add, v.inverse().act_coweight(self.mu), other.mu))
        return _intern(self.rs, self.u * v, mu)

    def translated(self, lam: Coweight) -> "ExtAffineWeylElement":
        """x t_lam = u t_{mu + lam}: one intern, no product."""
        return _intern(self.rs, self.u, tuple(map(add, self.mu, lam)))

    def inverse(self) -> "ExtAffineWeylElement":
        """(u t_mu)^{-1} = u^{-1} t_{-u(mu)}."""
        return _intern(self.rs, self.u.inverse(), tuple(-c for c in self.u.act_coweight(self.mu)))

    @property
    def is_identity(self) -> bool:
        return self.u.is_identity and not any(self.mu)

    def act(self, a: AffineRoot) -> AffineRoot:
        """(u t_mu)(alpha + n delta) = u(alpha) + (n - <mu, alpha>) delta."""
        return AffineRoot(self.u.act_root(a.finite), a.level - self.rs.pairing(self.mu, a.finite))

    def ext_length(self) -> int:
        """Number of positive affine roots sent negative, in closed form.

        l(u t_mu) = sum over beta > 0 of |<mu, beta> + chi(u(beta) < 0)|
        (Iwahori-Matsumoto, "On some Bruhat decomposition and the structure of
        the Hecke rings of p-adic Chevalley groups", 1965): one pairing and one
        permutation lookup per positive finite root.
        """
        if self._length is None:
            rs, mu = self.rs, self.mu
            npos = rs.npos
            self._length = sum(
                abs(rs.pairing(mu, beta) + (k >= npos))
                for beta, k in zip(rs.positive_roots, self.u.perm)
            )
        return self._length

    def left_ascent(self, i: int) -> bool:
        """Whether s_i x > x, i.e. x^{-1}(alpha_i) is a positive affine root.

        With x = u t_mu and alpha_i = alpha + n delta, that root is
        u^{-1}(alpha) = roots[k], k read from the inverse permutation, at level
        n + <mu, roots[k]>, and at level 0 it is positive iff k < npos.  A Sigma
        part needs no case: it permutes the positive roots.
        """
        rs = self.rs
        a = affine_simple_root(rs, i)
        k = self.u.inverse().perm[rs.root_index[a.finite]]
        level = a.level + rs.pairing(self.mu, rs.roots[k])
        if level:
            return level > 0
        return k < rs.npos

    def is_grassmannian(self) -> bool:
        """x(alpha_j) > 0 for all finite j (grassmannian_keys)."""
        if self._grass is None:
            self._grass = grassmannian_keys(self.mu, (self.u,))
        return self._grass


def grassmannian_keys(mu: Coweight, us: Iterable[WeylElement]) -> bool:
    """Whether every u t_mu, u in us, is Grassmannian: (u t_mu)(alpha_j) is u(alpha_j)
    at level -mu_j, so every mu_j <= 0, and u(alpha_j) > 0 wherever mu_j = 0."""
    zero = {j for j, m in enumerate(mu, 1) if m == 0}
    return max(mu, default=0) <= 0 and all(map(zero.isdisjoint, map(WeylElement.descent_set, us)))


def _intern(rs: RootSystem, u: WeylElement, mu: Coweight) -> ExtAffineWeylElement:
    cache = rs._ext_intern
    key = (mu, u)
    x = cache.get(key)
    if x is None:
        x = ExtAffineWeylElement(rs, u, mu)
        cache[key] = x
    return x


def ext_identity(rs: RootSystem) -> ExtAffineWeylElement:
    return _intern(rs, rs.identity_weyl(), (0,) * rs.rank)


def from_finite(w: WeylElement) -> ExtAffineWeylElement:
    return _intern(w.rs, w, (0,) * w.rs.rank)


def translation(rs: RootSystem, lam: Coweight) -> ExtAffineWeylElement:
    return _intern(rs, rs.identity_weyl(), tuple(lam))


def theta_pairings(rs: RootSystem) -> Coweight:
    """theta^vee in fundamental-coweight coordinates, i.e. (<theta^vee, alpha_k>)_k."""
    return rs.coroots_to_coweight(rs.highest_root_coroot)


def s_theta(rs: RootSystem) -> WeylElement:
    """Reflection in the highest root."""
    return rs.reflection(rs.highest_root)


def affine_simple_reflection(rs: RootSystem, i: int) -> ExtAffineWeylElement:
    """s_i for finite i; s_0 = s_theta t_{-theta^vee}."""
    if i == 0:
        return _intern(rs, s_theta(rs), tuple(-c for c in theta_pairings(rs)))
    return from_finite(rs.simple_reflection(i))


def affine_simple_root(rs: RootSystem, i: int) -> AffineRoot:
    """alpha_i at level 0 for finite i; alpha_0 = -theta + delta."""
    if i == 0:
        return AffineRoot(tuple(-c for c in rs.highest_root), 1)
    return AffineRoot(rs.simple_root(i), 0)


def affine_nodes(rs: RootSystem) -> tuple[int, ...]:
    return (0,) + rs.nodes


def affine_reduced_word(y: ExtAffineWeylElement) -> tuple[int, ...]:
    """Lexicographically least reduced word of a Sigma-free element.

    Greedy left-descent stripping over the affine index set; left descents are
    the i with y^{-1}(alpha_i) negative.
    """
    rs = y.rs
    if rs.coweight_to_coroots(y.mu) is None:
        raise ValueError("element has a nontrivial Sigma part, no word exists")
    word = []
    # each step strips one left descent, so l(y) steps end at the identity; the bound
    # keeps a faulty product or length from looping forever
    for _ in range(y.ext_length()):
        i = next(i for i in affine_nodes(rs) if not y.left_ascent(i))
        word.append(i)
        y = affine_simple_reflection(rs, i) * y
    if not y.is_identity:  # pragma: no cover - l(y) descents strip y to the identity
        raise AssertionError(f"{len(word)} left descents leave {y!r}")
    return tuple(word)


# -- the length-zero subgroup Sigma -----------------------------------------


def node_action(x: ExtAffineWeylElement) -> tuple[int, ...]:
    """The automorphism of the affine Dynkin diagram that a length-zero x induces:
    entry j, over affine_nodes, is the node whose simple root is x(alpha_j)."""
    if x.ext_length():
        raise ValueError("%r has length %d, not 0" % (x, x.ext_length()))
    rs = x.rs
    simples = {affine_simple_root(rs, j): j for j in affine_nodes(rs)}
    return tuple(simples[x.act(affine_simple_root(rs, j))] for j in affine_nodes(rs))


def sigma_elements(rs: RootSystem) -> tuple[ExtAffineWeylElement, ...]:
    """All of Sigma, the length-zero elements: the identity, then pi_i per special node.

    Each class of P^vee/Q^vee contains exactly one, u t_mu with u(mu) zero or a
    minuscule fundamental coweight, so the stored mu is u^{-1} of it.
    """
    if rs._sigma_group is None:
        members = (ext_identity(rs),) + tuple(_pi_element(rs, i) for i in special_nodes(rs))
        # node_action checks each length is zero; pi_i sends the node 0 to i
        assert [node_action(x)[0] for x in members] == [0, *special_nodes(rs)]
        rs._sigma_group = members
    return rs._sigma_group


def _pi_element(rs: RootSystem, i: int) -> ExtAffineWeylElement:
    # t_{omega_i^vee} times (longest of the parabolic without i) * (longest of W)
    u = longest_element(rs, set(rs.nodes) - {i}) * longest_element(rs)
    return translation(rs, rs.fundamental_coweight(i)) * from_finite(u)


def pi(rs: RootSystem, i: int) -> ExtAffineWeylElement:
    """The element of Sigma whose node action sends 0 to the special node i."""
    if i not in special_nodes(rs):
        raise ValueError("node %d is not special in %r" % (i, rs))
    return sigma_elements(rs)[special_nodes(rs).index(i) + 1]


def sigma_decompose(x: ExtAffineWeylElement) -> tuple[ExtAffineWeylElement, tuple[int, ...]]:
    """x = sigma * y with y in the affine Weyl group; returns (sigma, word of y).

    sigma is the element whose translation part is x.mu modulo the coroot lattice
    (u(mu) - mu lies in it): the elements of Sigma lie in pairwise distinct
    classes, one per class.
    """
    rs = x.rs
    sigma = next(
        s
        for s in sigma_elements(rs)
        if rs.coweight_to_coroots(tuple(a - b for a, b in zip(x.mu, s.mu))) is not None
    )
    y = sigma.inverse() * x
    return sigma, affine_reduced_word(y)
