"""Seidel elements and the combinatorics feeding the product formula.

For a special (cominuscule) node i the Seidel element is v[i] = w_o * w_{P_i},
the minimal representative of w_o modulo the parabolic omitting i.  Together
with the length-zero element pi_i and the Grassmannian factor of the minuscule
antidominant translation it forms a SeidelDatum, whose defining identities are
checked eagerly at construction.
"""
from __future__ import annotations

from operator import sub
from typing import NamedTuple

from .affine import (
    ExtAffineWeylElement,
    from_finite,
    pi,
    translation,
)
from .errors import VerificationError
from .rootsys import (
    Coweight,
    RootSystem,
    WeylElement,
    check_element,
    longest_element,
    special_nodes,
)

__all__ = [
    "SeidelDatum",
    "gamma",
    "grassmannian_key",
    "one_line",
    "quantum_exponent",
    "seidel_datum",
    "seidel_element",
    "special_nodes",
    "verify_group_lemma",
    "verify_key_lemma",
]

def seidel_element(rs: RootSystem, i: int) -> WeylElement:
    """v[i] = w_o * w_{P_i} for a special node i, as certified by seidel_datum."""
    return seidel_datum(rs, i).element


def gamma(rs: RootSystem, w: WeylElement) -> Coweight:
    """The antidominant coweight -sum of fundamental coweights over Des(w)."""
    check_element(rs, w)
    des = w.descent_set()
    return tuple([-1 if j in des else 0 for j in rs.nodes])


def grassmannian_key(rs: RootSystem, w: WeylElement) -> ExtAffineWeylElement:
    """w t_{gamma_w}, the affine Grassmannian element that indexes O^w."""
    return from_finite(w).translated(gamma(rs, w))


def quantum_exponent(rs: RootSystem, i: int, w: WeylElement) -> tuple[int, ...]:
    """omega_i^vee - w^{-1}(omega_i^vee) in simple-coroot coordinates.

    The difference always lies in the coroot lattice; nonnegativity of the
    coordinates is part of the certified statement, so a violation raises.
    """
    check_element(rs, w)
    return _quantum_exponent(rs, i, w.inverse().act_coweight(rs.fundamental_coweight(i)))


def _quantum_exponent(rs: RootSystem, i: int, pulled: Coweight) -> tuple[int, ...]:
    """quantum_exponent, given the pulled-back coweight w^{-1}(omega_i^vee)."""
    diff = tuple(map(sub, rs.fundamental_coweight(i), pulled))
    coords = rs.coweight_to_coroots(diff)
    if coords is None:
        raise VerificationError("exponent %r escapes the coroot lattice" % (diff,))
    if min(coords) < 0:
        raise VerificationError("exponent %r has a negative coordinate" % (coords,))
    return coords


class SeidelDatum(NamedTuple):
    """The (v[i], pi_i, kappa_i) package attached to a special node."""

    node: int
    element: WeylElement              # v[i], finite
    sigma: ExtAffineWeylElement       # pi_i, length zero
    grassmannian_part: ExtAffineWeylElement  # kappa_i, in the affine Weyl group


def seidel_datum(rs: RootSystem, i: int) -> SeidelDatum:
    """Builds the datum for node i and certifies its defining identities."""
    if i in rs._datum_cache:
        return rs._datum_cache[i]
    p = pi(rs, i)  # rejects a node that is not special
    v = longest_element(rs) * longest_element(rs, set(rs.nodes) - {i})
    minus_omega = tuple(-c for c in rs.fundamental_coweight(i))
    t_min = translation(rs, minus_omega)
    kappa = p * t_min

    if rs.coweight_to_coroots(kappa.mu) is None or not kappa.is_grassmannian():
        raise VerificationError("kappa for node %d is not affine Grassmannian" % i)
    if from_finite(v) * t_min != p.inverse():
        raise VerificationError("v[%d] t_{-omega^vee} differs from pi^{-1}" % i)
    if p * from_finite(v.inverse()) * p.inverse() != kappa:
        raise VerificationError("pi v[%d]^{-1} pi^{-1} differs from kappa" % i)
    expected_inv = {
        beta for beta in rs.positive_roots if beta[i - 1] == 1
    }
    if set(v.inversions()) != expected_inv:
        raise VerificationError("Inv(v[%d]) is not the omega-pairing-1 set" % i)

    datum = SeidelDatum(i, v, p, kappa)
    rs._datum_cache[i] = datum
    return datum


class KeyLemmaReport(NamedTuple):
    ok: bool
    node: int
    w_word: tuple[int, ...]
    lhs: Coweight
    rhs: Coweight

    def __bool__(self) -> bool:
        return self.ok


def verify_key_lemma(rs: RootSystem, i: int, w: WeylElement) -> KeyLemmaReport:
    """gamma(v[i] w) = gamma(w) - w^{-1}(omega_i^vee)."""
    g_w = gamma(rs, w)  # refuses an element of another system before v * w
    lhs = gamma(rs, seidel_element(rs, i) * w)
    pulled = w.inverse().act_coweight(rs.fundamental_coweight(i))
    rhs = tuple(a - b for a, b in zip(g_w, pulled))
    return KeyLemmaReport(lhs == rhs, i, w.reduced_word(), lhs, rhs)


def verify_group_lemma(rs: RootSystem, i: int, w: WeylElement) -> bool:
    """pi_i^{-1} w t_{gamma_w} = (v[i] w) t_{gamma_{v[i] w}} in the extended group."""
    datum = seidel_datum(rs, i)
    lhs = datum.sigma.inverse() * grassmannian_key(rs, w)
    return lhs == grassmannian_key(rs, datum.element * w)


# -- display sugar ------------------------------------------------------------


def one_line(w: WeylElement) -> tuple[int, ...]:
    """(Signed) one-line notation for classical types.

    Type A on rank+1 letters; B/C/D on rank letters with sign flips.  Entry j
    is the signed image of e_j.  Display only: the canonical form stays the
    signed permutation of the roots.
    """
    rs = w.rs
    n = rs.rank
    if rs.type_label not in ("A", "B", "C", "D"):
        raise ValueError("one-line notation is defined for classical types only")
    # Entry j is the signed image w(e_j).  A letter on the right acts on positions,
    # (w s_i)(e_j) = w(s_i(e_j)), so the word is read from its first letter, each
    # letter swapping or negating at most two entries.  With this reading the
    # string's descent positions are exactly the right descent set.
    line = list(range(1, n + 2 if rs.type_label == "A" else n + 1))
    for i in w.reduced_word():
        if i < n or rs.type_label == "A":
            line[i - 1], line[i] = line[i], line[i - 1]
        elif rs.type_label == "D":
            line[n - 2], line[n - 1] = -line[n - 1], -line[n - 2]
        else:
            line[n - 1] = -line[n - 1]
    return tuple(line)
