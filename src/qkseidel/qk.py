"""Quantum K-theory of G/B and G/P as free modules on Schubert symbols.

QKElement is a finite sum of terms Q^d O^w with Laurent coefficients; for a
parabolic base the Schubert index runs over the minimal coset representatives
W^P.  The only ring operation exposed is the Seidel product, which is a
closed-form permutation of the basis up to a Q-monomial:

    O^{v_i} . (v_i^L O^w) = Q^{omega_i^vee - w^{-1} omega_i^vee} O^{v_i w}.

Each (i, w) instance is certified in the Peterson engine before the closed
form is used.  A VerificationRegistry keeps the quantum exponent each passed
certificate checked, so a repeated product reads it back and computes nothing;
the default one lives on the root system (rs._registry) and dies with it.  The
parabolic product is computed twice, via the pushforward and via the direct
formula, and the routes must agree.  verify_pushforward_commutes checks, in one pass
over W x nodes, the closed form of pushforward(O^w), the two coset lemmas and the
commutation with s_i^L; verify_phi_compatibility reads left_action back into the
Peterson module, where it must be the star action.
The public QKElement constructor checks every term; left_action, pushforward,
shift_q and the closed forms of the products build valid terms from valid ones
and skip it (QKElement._trusted).
"""
from __future__ import annotations

import functools
import operator

from .errors import UnsupportedProductError, VerificationError
from .laurent import LaurentPoly, accumulate
from .peterson import LocalizedClass, o_class, star_s, verify_seidel_theorem
from .rootsys import RootSystem, WeylElement, check_element
from .seidel import seidel_element

QExponent = tuple[int, ...]


class ParabolicData:
    """A parabolic subset with its coset combinatorics precomputed.

    Equality, hash and repr read (rs, subset, minimal_reps, subgroup_order) only:
    minrep_table and mask are derived from them.
    """

    __slots__ = ("rs", "subset", "minimal_reps", "subgroup_order", "minrep_table", "mask")

    def __init__(
        self,
        rs: RootSystem,
        subset: frozenset[int],
        minimal_reps: tuple[WeylElement, ...],
        subgroup_order: int,
        minrep_table: dict[WeylElement, WeylElement],
    ):
        self.rs = rs
        self.subset = subset
        self.minimal_reps = minimal_reps
        self.subgroup_order = subgroup_order
        # w -> the minimal representative of w W_P
        self.minrep_table = minrep_table
        # per node, 0 inside the subset and 1 outside
        self.mask = tuple(int(j not in subset) for j in rs.nodes)

    def _key(self) -> tuple:
        return self.rs, self.subset, self.minimal_reps, self.subgroup_order

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ParabolicData):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return "ParabolicData(rs=%r, subset=%r, minimal_reps=%r, subgroup_order=%r)" % self._key()

    def __contains__(self, w: WeylElement) -> bool:
        return self.subset.isdisjoint(w.descent_set())


def parabolic_data(rs: RootSystem, subset) -> ParabolicData:
    nodes = frozenset(subset)
    if not nodes <= set(rs.nodes):
        raise ValueError(f"parabolic subset {sorted(nodes)} outside the index set")
    group = rs.weyl_group()
    reps = tuple(w for w in group if nodes.isdisjoint(w.descent_set()))
    # W_P by the mirror filter: all descents inside the subset span
    sub = [u for u in group if nodes.issuperset(u.reduced_word())]
    # W = W^P x W_P: the products m u must hit every element of W exactly once
    table = {m * u: m for m in reps for u in sub}
    if len(reps) * len(sub) != len(group) or table.keys() != set(group):
        raise VerificationError(
            f"coset decomposition fails for subset {sorted(nodes)}: "
            f"{len(reps)} * {len(sub)} products hit {len(table)} of {len(group)} elements"
        )
    return ParabolicData(rs, nodes, reps, len(sub), table)


def minrep_w(w: WeylElement, p: ParabolicData) -> WeylElement:
    """The minimal-length representative of w W_P, read from the coset table."""
    return p.minrep_table[w]


def minrep_beta(beta: QExponent, p: ParabolicData) -> QExponent:
    """Project a coroot-basis exponent by deleting the I_P coordinates."""
    if len(beta) != p.rs.rank:
        raise ValueError(f"exponent {beta} has wrong arity")
    return tuple(map(operator.mul, beta, p.mask))


def q_text(d: QExponent) -> str:
    """The Q-monomial Q^d as text, e.g. Q1*Q3^2; empty for d = 0."""
    return "*".join(f"Q{j + 1}" + (f"^{c}" if c > 1 else "") for j, c in enumerate(d) if c)


class QKElement:
    """Finite sum of Q^d O^w terms over a fixed base."""

    __slots__ = ("rs", "base", "terms")

    def __init__(
        self,
        rs: RootSystem,
        terms: dict[tuple[QExponent, WeylElement], LaurentPoly] | None = None,
        base: frozenset[int] = frozenset(),
    ):
        self.rs = rs
        self.base = frozenset(base)
        clean: dict[tuple[QExponent, WeylElement], LaurentPoly] = {}
        if terms:
            for (d, w), f in terms.items():
                check_element(rs, w)
                if f.is_zero():
                    continue
                if len(d) != rs.rank or min(d) < 0:
                    raise ValueError(f"invalid exponent {d}")
                if not self.base.isdisjoint(w.descent_set()):
                    raise ValueError(
                        f"index {w.reduced_word()} is not minimal for base {sorted(self.base)}"
                    )
                clean[(tuple(d), w)] = f
        self.terms = clean

    @classmethod
    def _trusted(cls, rs: RootSystem, terms: dict, base: frozenset[int]) -> "QKElement":
        """Wrap terms built here: exponents >= 0 of arity rank, minimal indices, no zeros."""
        xi = object.__new__(cls)
        xi.rs, xi.terms, xi.base = rs, terms, base
        return xi

    @classmethod
    def schubert(
        cls, rs: RootSystem, w: WeylElement, base: frozenset[int] = frozenset()
    ) -> "QKElement":
        return cls(rs, {((0,) * rs.rank, w): LaurentPoly.one(rs.rank)}, base)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QKElement):
            return NotImplemented
        return self.rs is other.rs and self.base == other.base and self.terms == other.terms

    __hash__ = None

    def shift_q(self, d: QExponent) -> "QKElement":
        """Multiply by the Q-monomial Q^d."""
        if len(d) != self.rs.rank or min(d) < 0:
            raise ValueError(f"invalid exponent {d}")
        # adding a checked d >= 0 keeps exponents valid and distinct
        return QKElement._trusted(
            self.rs,
            {(tuple(map(operator.add, q, d)), w): f for (q, w), f in self.terms.items()},
            self.base,
        )

    def __mul__(self, other):
        raise UnsupportedProductError(
            "general quantum products are not defined here; use seidel_product"
        )

    __rmul__ = __mul__

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (d, w), f in sorted(
            self.terms.items(), key=lambda kv: (kv[0][0], kv[0][1].length(), kv[0][1].m)
        ):
            word = "*".join(f"s{j}" for j in w.reduced_word()) or "e"
            mono = q_text(d)
            head = f"{mono}*" if mono else ""
            bits.append(f"({f})*{head}O[{word}]")
        return " + ".join(bits)

    def __repr__(self) -> str:
        return f"QKElement({self})"


def left_action(i: int, xi: QKElement) -> QKElement:
    """The W-action generator s_i^L; Q-monomials are untouched.

    Coefficients twist by the reflection e^g -> e^{g - <alpha_i^vee, g> alpha_i}, one
    Cartan-row pairing per term; s_i w < w iff w^{-1}(alpha_i) < 0, read from w^{-1}.
    """
    rs = xi.rs
    if i not in rs.nodes:
        raise ValueError(f"node {i} outside the finite index set")
    root, row = rs.simple_root(i), rs.cartan[i - 1]
    k = rs.simple_indices[i - 1]
    out: dict[tuple[QExponent, WeylElement], LaurentPoly] = {}
    for (d, w), f in xi.terms.items():
        sf = f.simple_reflected(i - 1, row)
        if w.inverse().perm[k] >= rs.npos:
            up = sf.shifted(root)
            accumulate(out, (d, w), up)
            accumulate(out, (d, w.left_reflect(i)), sf - up)
        else:
            accumulate(out, (d, w), sf)
    # keys are xi's or (d, s_i w) with s_i w < w, which stays minimal; accumulate drops zeros
    return QKElement._trusted(rs, out, xi.base)


class VerificationRegistry:
    """Certified theorem instances: (i, w) -> the quantum exponent its passed report checked."""

    def __init__(self):
        self._exponents: dict[tuple[int, WeylElement], QExponent] = {}

    def record(self, w: WeylElement, report) -> QExponent:
        if not report.passed:
            raise VerificationError("refusing to record a failed verification")
        if report.word != w.reduced_word():
            raise ValueError(f"report for word {report.word} recorded under {w.reduced_word()}")
        self._exponents[report.node, w] = report.q_exponent
        return report.q_exponent

    def exponent(self, i: int, w: WeylElement) -> QExponent | None:
        """The certified exponent of (i, w), or None if no passed report covers it."""
        return self._exponents.get((i, w))


def seidel_product(
    rs: RootSystem,
    i: int,
    w: WeylElement,
    registry: VerificationRegistry | None = None,
) -> QKElement:
    """O^{v_i} . (v_i^L O^w) over G/B, certified before the closed form is used."""
    check_element(rs, w)
    if registry is None:
        registry = rs._registry = rs._registry or VerificationRegistry()
    if (d := registry.exponent(i, w)) is None:
        report = verify_seidel_theorem(rs, i, w)
        if not report.passed:
            raise VerificationError(
                f"theorem instance failed for node {i}, word {w.reduced_word()}: "
                f"{report.checks}"
            )
        d = registry.record(w, report)
    return _closed_form(rs, d, seidel_element(rs, i) * w, frozenset())


def _closed_form(rs: RootSystem, d: QExponent, w: WeylElement, base: frozenset[int]) -> QKElement:
    """The one-term class Q^d O^w, for w of rs minimal for base: checks d as shift_q does."""
    if len(d) != rs.rank or min(d) < 0:
        raise ValueError(f"invalid exponent {d}")
    return QKElement._trusted(rs, {(d, w): LaurentPoly.one(rs.rank)}, base)


def _same_system(rs: RootSystem, p: ParabolicData) -> None:
    if p.rs is not rs:
        raise ValueError(f"parabolic subset over {p.rs!r} used with {rs!r}")


def pushforward(xi: QKElement, p: ParabolicData) -> QKElement:
    """Project a class over G/B to G/P term by term; coefficients pass through."""
    if xi.base:
        raise ValueError("pushforward starts from the full flag variety base")
    _same_system(xi.rs, p)
    out: dict[tuple[QExponent, WeylElement], LaurentPoly] = {}
    for (d, w), f in xi.terms.items():
        accumulate(out, (minrep_beta(d, p), p.minrep_table[w]), f)
    # minrep_beta keeps d >= 0 and its arity, minrep_w lands in W^P; accumulate drops zeros
    return QKElement._trusted(xi.rs, out, p.subset)


def seidel_product_parabolic(
    rs: RootSystem,
    i: int,
    w: WeylElement,
    p: ParabolicData,
    registry: VerificationRegistry | None = None,
) -> QKElement:
    """The parabolic product, computed via pushforward and by direct formula.

    The two routes must agree; a mismatch is a verification failure, not a
    silent preference for one of them.
    """
    # both before `w not in p`, which reads descents only
    _same_system(rs, p)
    check_element(rs, w)
    if w not in p:
        raise ValueError(f"index {w.reduced_word()} is not minimal for the base")
    full = seidel_product(rs, i, w, registry)
    ((d, _),) = full.terms  # the closed form Q^d O^{v_i w}: one quantum exponent for both routes
    via_push = pushforward(full, p)
    d = minrep_beta(d, p)
    if min(d) < 0:
        raise VerificationError(f"parabolic exponent {d} left the positive cone")
    direct = _closed_form(rs, d, p.minrep_table[seidel_element(rs, i) * w], p.subset)
    if via_push != direct:
        raise VerificationError(
            f"pushforward and direct routes disagree for node {i}, "
            f"word {w.reduced_word()}, base {sorted(p.subset)}"
        )
    return direct


def verify_phi_compatibility(rs: RootSystem, i: int, w: WeylElement) -> bool:
    """The star action of s_i on O^w equals left_action(i, O^w) read back through o_class."""
    image = left_action(i, QKElement.schubert(rs, w))
    rhs = functools.reduce(
        operator.add, (o_class(rs, y).scale(f) for (_, y), f in image.terms.items())
    )
    o_w = o_class(rs, w)
    # the star action passes through the numerator: sigma denominators are W-invariant
    return LocalizedClass(star_s(i, o_w.num), o_w.den) == rhs


def verify_pushforward_commutes(p: ParabolicData) -> bool:
    """pushforward(s_i^L O^w) = s_i^L pushforward(O^w) and the coset lemmas, in one pass.

    Per w in W: pushforward(O^w) is the closed form O^m, m = minrep(w) read from the
    coset table.  Per (i, w), with sw = s_i w and sm = s_i m: sm lies in W^P exactly
    when it is minrep(sw) (the biconditional); for w in W^P, an ascent sw outside W^P
    is w s_j for some j in I_P (the standard lemma); and the commutation, whose right
    side s_i^L O^m is formed once per (i, m) in the whole call.
    """
    rs, table = p.rs, p.minrep_table
    images: dict[tuple[int, WeylElement], QKElement] = {}
    # each O^w as QKElement.schubert builds it, all with one coefficient
    one, zero, base = LaurentPoly.one(rs.rank), (0,) * rs.rank, frozenset()
    for w in rs.weyl_group():
        m = table[w]
        xi = QKElement._trusted(rs, {(zero, w): one}, base)
        pushed = pushforward(xi, p)
        if pushed.terms != {(zero, m): one}:
            return False
        for i in rs.nodes:
            sw, sm = w.left_reflect(i), m.left_reflect(i)
            inside = sm in p
            if inside != (sm is table[sw]):
                return False
            # for w in W^P, sm is sw
            if m is w and not inside and sw.length() > w.length():
                if not any(sw is w * rs.simple_reflection(j) for j in p.subset):
                    return False
            if (key := (i, m)) not in images:
                images[key] = left_action(i, pushed)
            if pushforward(left_action(i, xi), p) != images[key]:
                return False
    return True
