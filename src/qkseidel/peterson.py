"""Extended K-theoretic Peterson module and the Seidel product verifier.

The module is free over the Laurent coefficient ring with basis ell_x
indexed by Grassmannian elements of the extended affine Weyl group.  The
star action of affine simple reflections is the two-case recursion

    s_i * (f ell_x) = s_i(f) (e^{alpha_i} ell_x + (1 - e^{alpha_i}) ell_{s_i x})

when s_i x is a longer Grassmannian element, and s_i(f) ell_x otherwise;
coefficients always pass through the level-zero action first.  star_s decides
the case by left_ascent, the general product and is_grassmannian, the oracle
of the rule words use: they take finite letters only, and for x = u t_mu,
s_i x = (s_i u) t_mu is a longer Grassmannian element iff s_i u < u (Deodhar's
lemma for u in W^{J_mu}, J_mu the nodes with mu_j = 0).  Read through the
classes O^w, star_s is the left W-action on QK_T(G/B);
qk.verify_phi_compatibility checks that against qk.left_action.

Words run in a frame, a finite Weyl element: a coefficient g stands for
frame(g), letter i sets frame <- s_i frame and multiplies by e^beta and
1 - e^beta with beta = frame^{-1}(alpha_i), an inversion root of the word,
and the frame is applied once at the end instead of a twist per letter
(K-theoretic Billey formula: Billey, "Kostant polynomials and the cohomology
ring for G/B", Duke 1999; Graham, "Equivariant K-theory and Schubert
varieties", 2002).  Frames and roots depend on the words only: a word tuple's
letter schedule is built once and kept on the system.  While words run, an
exponent vector is one int of signed base-2^k digits (Kronecker substitution),
so e^beta is one integer add per term, and each key carries a packed offset o:
its coefficient (g, o) stands for e^o g.  An ascent x -> y = s_i x multiplies
x's whole coefficient by e^beta, which is o += beta, and adds e^o (1 - e^beta) g
into y's coefficient; s_i y = x is shorter, so y ascends nowhere and x alone
reaches it.  A y that the ascent makes keeps that value factored, a node for
g - e^beta g that holds x's value g, a dict or a node, by reference, with no term
visited; a node's dict is built once, when it is first read.  No stored value ever
changes (an update writes into a copy), so an object names one value while it lives
and any update is undone by objects and offsets alone: if x, holding g at offset o,
took y from a slot P to (h, o_y) at root beta, adding e^o (1 - e^beta) g, then a key
holding that g at offset o + beta that meets y, still holding h at o_y, at root -beta
adds e^{o + beta} (1 - e^{-beta}) g = -e^o (1 - e^beta) g, so y's slot is P again (no y
when P was absent), restored with no term visited.  Every exponent met is one at
the start plus the roots of a set S of letters, and every offset the roots of a
set T, so a stored exponent differs from one at the start by the signed roots of
at most the L letters of S xor T.  Roots are bounded coordinatewise by the highest
root theta, so stored exponents and e + o alike have |e_j| <= max |e_j| at the
start + L max(theta), and k is the least width with 2^(k-1) above that; terms
are packed per call and unpacked after the words, and the schedule keeps its roots
packed per width k.

Only two products exist in this module, both partial: multiplication by a
translation class ell_{t_gamma} for antidominant gamma (keys shift on the
right, x -> x.translated(gamma), and stay Grassmannian, so they are kept
unchecked) and by a length-zero class ell_sigma (star-twist then relabel).
Everything else raises UnsupportedProductError.  Localized classes compare by
multiplying each numerator by the part of the other's sigma denominator that
its own lacks (_cleared), one right translation per key.  These are exactly
enough to express the localized classes O^w = ell_{w t_{gamma_w}} / prod
sigma_j and Q^beta, and to verify the Seidel product identity

    O^{v_i} * (v_i star O^w) = Q^{omega_i^vee - w^{-1} omega_i^vee} O^{v_i w}.
"""
from __future__ import annotations

from operator import sub
from typing import NamedTuple

from .affine import (
    ExtAffineWeylElement,
    _intern,
    affine_nodes,
    affine_simple_reflection,
    affine_simple_root,
    grassmannian_keys,
    pi,
    translation,
)
from .errors import UnsupportedProductError
from .laurent import (
    LaurentPoly,
    _check_budget,
    _pack,
    _pack_width,
    _unpack,
    accumulate,
    get_term_budget,
)
from .rootsys import RootSystem, WeylElement, check_element, is_antidominant
from .seidel import _quantum_exponent, gamma, grassmannian_key, seidel_datum


class PetersonElement:
    """Finite sum of LaurentPoly multiples of basis symbols ell_x."""

    __slots__ = ("rs", "terms")

    def __init__(
        self,
        rs: RootSystem,
        terms: dict[ExtAffineWeylElement, LaurentPoly] | None = None,
    ):
        self.rs = rs
        clean: dict[ExtAffineWeylElement, LaurentPoly] = {}
        if terms:
            for x, f in terms.items():
                if f.is_zero():
                    continue
                if not x.is_grassmannian():
                    raise ValueError(f"basis index {x!r} is not Grassmannian")
                clean[x] = f
        self.terms = clean

    @classmethod
    def _trusted(cls, rs: RootSystem, terms: dict) -> "PetersonElement":
        """Wrap terms known clean: nonzero coefficients on Grassmannian keys."""
        z = object.__new__(cls)
        z.rs = rs
        z.terms = terms
        return z

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PetersonElement):
            return NotImplemented
        return self.rs is other.rs and self.terms == other.terms

    __hash__ = None

    def __add__(self, other: "PetersonElement") -> "PetersonElement":
        if not isinstance(other, PetersonElement):
            return NotImplemented
        if other.rs is not self.rs:
            raise ValueError(f"cannot add elements over {self.rs!r} and {other.rs!r}")
        out = dict(self.terms)
        for x, f in other.terms.items():
            g = out.get(x)
            out[x] = f if g is None else g + f
        return PetersonElement(self.rs, out)

    def scale(self, f: LaurentPoly) -> "PetersonElement":
        return PetersonElement(self.rs, {x: f * g for x, g in self.terms.items()})

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=lambda x: (x.ext_length(), repr(x)))
        return " + ".join(f"({self.terms[x]})*l[{x!r}]" for x in keys)

    def __repr__(self) -> str:
        return f"PetersonElement({self})"


def ell(x: ExtAffineWeylElement) -> PetersonElement:
    """Basis class of a Grassmannian extended affine Weyl element."""
    return PetersonElement(x.rs, {x: LaurentPoly.one(x.rs.rank)})


def star_s(i: int, z: PetersonElement) -> PetersonElement:
    """Star action of s_i; "s_i x longer than x" is the single-root test x.left_ascent(i)."""
    rs = z.rs
    if i not in affine_nodes(rs):
        raise ValueError(f"node {i} outside the affine index set")
    si = affine_simple_reflection(rs, i)
    twist = si.u.m
    root = affine_simple_root(rs, i).finite
    out: dict[ExtAffineWeylElement, LaurentPoly] = {}
    for x, f in z.terms.items():
        sf = f.act_exponents(twist)
        if x.left_ascent(i) and (y := si * x).is_grassmannian():
            up = sf.shifted(root)
            accumulate(out, x, up)
            accumulate(out, y, sf - up)
        else:
            accumulate(out, x, sf)
    return PetersonElement(rs, out)


def _letter_schedule(rs: RootSystem, words: tuple) -> tuple:
    """Per word, its letters last first as (i, beta), the last frame, and the runs with
    beta packed, per width k (filled by _star_words): letter i sets frame <- s_i frame,
    then beta = frame^{-1}(alpha_i).  Kept on the system per words, whose letters must
    be finite nodes: the ascent rule of _star_words holds only for those."""
    if (schedule := rs._star_schedules.get(words)) is None:
        if any(i not in rs.nodes for word in words for i in word):
            raise ValueError(f"star words {words} have a letter outside the finite nodes")
        frame, runs = rs.identity_weyl(), []
        for word in words:
            run = []
            for i in reversed(word):
                frame = rs.simple_reflection(i) * frame
                run.append((i, frame.inverse().act_root(rs.simple_root(i))))
            runs.append(tuple(run))
        schedule = rs._star_schedules[words] = tuple(runs), frame, {}
    return schedule


def _grouped(terms: dict) -> dict:
    """Terms {u t_mu: f} as {mu: {u: f}}."""
    groups: dict = {}
    for x, f in terms.items():
        groups.setdefault(x.mu, {})[x.u] = f
    return groups


def _binomial_multiple(g: dict, beta: int) -> dict:
    """g - e^beta g on packed exponents, as a new dict: the value of a factored coefficient."""
    h = g.copy()
    for e, c in g.items():
        e += beta
        if new := h.pop(e, 0) - c:
            h[e] = new
    return h


def _built(g: dict | list) -> dict:
    """The dict of a stored value g: g itself, or that of a node [f, b, n], which stands
    for f - e^b f (at most n terms) over a dict or node f; a node is built on its first
    read and keeps its dict, letting go of f."""
    if g.__class__ is dict:
        return g
    f, b, _ = g
    if b is not None:
        f = _binomial_multiple(_built(f), b)
        g[:] = f, None, len(f)
    return f


_ABSENT = None, 0  # the slot of a key not stored


def _star_words(rs: RootSystem, groups: dict, *words: tuple[int, ...]) -> tuple:
    """star_s by each word in turn (its last letter first), in one frame and one packing.

    groups holds Grassmannian terms by translation part, {mu: {u: f}} for f ell_{u t_mu}.
    u t_mu ascends at i iff u^{-1}(alpha_i) < 0, one lookup, to (s_i u) t_mu; mu never
    changes, so each group runs through the words alone.  The loop reads u^{-1} and s_i u
    from u's slots _inverse and _left[i], which weyl_group() fills for its tree edges, and
    calls inverse() or left_reflect(i), which fill them, only when a slot is empty.
    Returns the terms, on the interned u t_mu, whose coefficients g stand for
    frame(g); the frame; and the pairs (mu, [u, ...]) of the keys after the first word
    (the keys after the last word are those of the terms).
    Frames and roots come from the kept letter schedule, packed as the module docstring
    says (for ell(x), k depends on the words only).  A letter adds beta to the offset of
    each u that ascends and passes u's value g, a dict or a node, to y = s_i u.  A new y
    is the node [g, beta, n] at offset o, for e^o (g - e^beta g) with at most n terms
    (2 len(g), or twice g's n); _built builds a node when an update reads it, as y's
    value or its maker's, or when the words end.  A present y at offset o_y takes
    e^{o - o_y} g minus e^{o - o_y + beta} g in one pass over g, written into a copy of
    its dict, and is dropped if it cancels.

    Each update of y records (slot after, g, o + beta, beta, P, the record before) as
    y's last, P being the slot before (_ABSENT when y was not stored).  A maker holding
    g at offset o + beta that meets y at -beta while y holds the slot after's value at
    its offset undoes the update, as the module docstring says: y's slot is set back to
    P with no term visited, and the record before becomes the last.  A new y that its
    maker meets at the opposite root is the case P absent.  The test reads stored
    objects and offsets only, never the letters or keys in between: an object is one
    value while it lives (a node only fills in its dict), and a record keeps its
    objects alive, so `is` never meets a new object at an old address.

    A letter changes only those polynomials, and each meets the term budget, read once
    per call, after its update; a new y is built for the check only when its n exceeds
    the budget.  A restored slot met the budget when it was stored (a start value when
    its polynomial was made) and holds what the full update would give, so
    SizeLimitError comes at the same letter.
    """
    runs, frame, packed = _letter_schedule(rs, words)
    start = max(
        (abs(a) for group in groups.values() for f in group.values() for e in f.terms for a in e),
        default=0,
    )
    k = _pack_width(start + sum(map(len, runs)) * max(rs.highest_root))
    if (packed_runs := packed.get(k)) is None:
        packed_runs = packed[k] = tuple(
            tuple((i, _pack(root, k)) for i, root in run) for run in runs
        )
    n, npos, simple = rs.rank, rs.npos, rs.simple_indices
    budget = get_term_budget()
    terms, support = {}, []
    for mu, group in groups.items():
        group = {u: ({_pack(e, k): c for e, c in f.terms.items()}, 0) for u, f in group.items()}
        undo = {}  # y -> the record of its last update
        for nth, run in enumerate(packed_runs):
            for i, beta in run:
                index, neg = simple[i - 1], -beta
                for u, (g, o) in list(group.items()):
                    if (u._inverse or u.inverse()).perm[index] < npos:
                        continue
                    group[u] = g, (ob := o + beta)
                    # (s_i u) t_mu ascends nowhere at i and u alone reaches it; an empty
                    # memo or entry reads None, and left_reflect fills it
                    y = u._left and u._left[i] or u.left_reflect(i)
                    h, o_y = slot = group.get(y, _ABSENT)
                    if (
                        (r := undo.get(y)) is not None
                        and r[0][0] is h
                        and r[0][1] == o_y
                        and r[1] is g
                        and r[2] == o
                        and r[3] == neg
                    ):
                        new = r[4]
                        undo[y] = r[5]
                    else:
                        if h is None:
                            new = [g, beta, 2 * (len(g) if g.__class__ is dict else g[2])], o
                            if new[0][2] > budget:
                                _check_budget(len(_built(new[0])))
                        else:
                            h = _built(h).copy()
                            # pop and put back a nonzero sum, one dict op when it cancels
                            d = o - o_y
                            for e, c in _built(g).items():
                                e += d
                                if s := h.pop(e, 0) + c:
                                    h[e] = s
                                e += beta
                                if s := h.pop(e, 0) - c:
                                    h[e] = s
                            if len(h) > budget:
                                _check_budget(len(h))
                            new = (h, o_y) if h else _ABSENT
                        undo[y] = new, g, ob, beta, slot, r
                    if new is _ABSENT:
                        del group[y]
                    else:
                        group[y] = new
            if nth == 0 and group:
                support.append((mu, list(group)))
        for u, (g, o) in group.items():
            terms[_intern(rs, u, mu)] = LaurentPoly._trusted(
                n, {_unpack(e + o, k, n): c for e, c in _built(g).items()}
            )
    return terms, frame, support


def star_w(w: WeylElement, z: PetersonElement) -> PetersonElement:
    """Star action of a finite Weyl element: its reduced word in a frame that ends at w."""
    check_element(z.rs, w)
    terms, frame, _ = _star_words(z.rs, _grouped(z.terms), w.reduced_word())
    return PetersonElement(z.rs, {x: g.act_exponents(frame.m) for x, g in terms.items()})


def mult_by_translation(z: PetersonElement, lam: tuple[int, ...]) -> PetersonElement:
    """Multiply by ell_{t_lam}; defined only for antidominant lam."""
    if not is_antidominant(lam):
        raise UnsupportedProductError(
            f"translation class with non-antidominant {lam} has no product rule"
        )
    return PetersonElement._trusted(z.rs, _translated(z.terms, lam))


def _translated(terms: dict, lam: tuple[int, ...]) -> dict:
    """Keys x -> x t_lam for antidominant lam, with no check: (x t_lam)(alpha_j) =
    x(alpha_j) - <lam, alpha_j> delta, and adding a nonnegative multiple of delta
    keeps a positive root positive, so a Grassmannian key stays Grassmannian.
    Right translation is injective, so no two keys meet."""
    return {x.translated(lam): f for x, f in terms.items()} if any(lam) else terms


def _cleared(a: dict, den_a: tuple, b: dict, den_b: tuple) -> tuple[dict, dict]:
    """The numerators a / sigma^den_a and b / sigma^den_b over one denominator: a times
    sigma^{den_b - m} and b times sigma^{den_a - m}, m = min(den_a, den_b).  Dropping
    sigma^m is exact, as right translation is injective."""
    if den_a == den_b:
        return a, b
    return (
        _translated(a, tuple([p - q if p < q else 0 for p, q in zip(den_a, den_b)])),
        _translated(b, tuple([q - p if q < p else 0 for p, q in zip(den_a, den_b)])),
    )


def mult_by_ell_sigma(sigma: ExtAffineWeylElement, z: PetersonElement) -> PetersonElement:
    """Multiply by the length-zero class ell_sigma.

    Writing z = u_sigma * y and using ell_{sigma x} = ell_sigma (u_sigma * ell_x):
    star-act by u_sigma^{-1}, then relabel keys by sigma and twist the
    coefficients by u_sigma, which cancels the frame u_sigma^{-1} of the star action.
    """
    check_element(z.rs, sigma)
    if sigma.ext_length():
        raise ValueError(f"{sigma!r} has length {sigma.ext_length()}, not 0")
    word = sigma.u.inverse().reduced_word()
    terms, _, _ = _star_words(z.rs, _grouped(z.terms), word)
    # x -> sigma x is injective, so no two terms meet
    return PetersonElement(z.rs, {sigma * x: g for x, g in terms.items()})


class LocalizedClass:
    """A Peterson element divided by a monomial in the sigma classes.

    The denominator is the exponent tuple m with value prod_j sigma_j^{m_j}.
    Equality and sums clear the difference of the denominators through
    translation classes (_cleared), so equivalent fractions compare equal
    without any normalization.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: PetersonElement, den: tuple[int, ...]):
        if len(den) != num.rs.rank or min(den) < 0:
            raise ValueError(f"invalid denominator exponent {den}")
        self.num = num
        self.den = tuple(den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LocalizedClass):
            return NotImplemented
        a, b = _cleared(self.num.terms, self.den, other.num.terms, other.den)
        return self.num.rs is other.num.rs and a == b

    __hash__ = None

    def __add__(self, other: "LocalizedClass") -> "LocalizedClass":
        if not isinstance(other, LocalizedClass):
            return NotImplemented
        # _cleared puts both over sigma^{den_a + den_b - min}, which is sigma^max
        a, b = _cleared(self.num.terms, self.den, other.num.terms, other.den)
        return LocalizedClass(
            PetersonElement._trusted(self.num.rs, a) + PetersonElement._trusted(other.num.rs, b),
            tuple(map(max, self.den, other.den)),
        )

    def scale(self, f: LaurentPoly) -> "LocalizedClass":
        return LocalizedClass(self.num.scale(f), self.den)

    def __str__(self) -> str:
        if not any(self.den):
            return str(self.num)
        mono = "*".join(
            f"s{j + 1}" if c == 1 else f"s{j + 1}^{c}"
            for j, c in enumerate(self.den)
            if c
        )
        return f"[{self.num}] / {mono}"

    def __repr__(self) -> str:
        return f"LocalizedClass({self})"


def o_class(rs: RootSystem, w: WeylElement) -> LocalizedClass:
    """O^w = ell_{w t_{gamma_w}} / prod_{j in Des(w)} sigma_j."""
    return LocalizedClass(ell(grassmannian_key(rs, w)), tuple(-c for c in gamma(rs, w)))


def q_class(rs: RootSystem, beta: tuple[int, ...]) -> LocalizedClass:
    """Q^beta = prod_j sigma_j^{-<beta, alpha_j>}, beta in simple-coroot coords."""
    if len(beta) != rs.rank:
        raise ValueError(f"exponent {beta} has wrong arity")
    num_lam, den = _q_parts(rs.coroots_to_coweight(beta))
    return LocalizedClass(ell(translation(rs, num_lam)), den)


def _q_parts(pairings: tuple[int, ...]) -> tuple[tuple, tuple]:
    """Q^beta = ell_{t_lam} / sigma^den, lam and den the parts <= 0 and >= 0 of <beta, alpha_j>."""
    lam = tuple([p if p < 0 else 0 for p in pairings])
    return lam, tuple([p if p > 0 else 0 for p in pairings])


def seidel_class(rs: RootSystem, i: int) -> LocalizedClass:
    """O^{v_i} = ell_{pi_i^{-1}} / sigma_i for a special node i."""
    num = ell(pi(rs, i).inverse())
    den = tuple(1 if j == i else 0 for j in rs.nodes)
    return LocalizedClass(num, den)


class VerificationReport(NamedTuple):
    type_label: str
    rank: int
    node: int
    word: tuple[int, ...]
    q_exponent: tuple[int, ...]
    product_word: tuple[int, ...]
    checks: tuple[tuple[str, bool], ...]

    @property
    def passed(self) -> bool:
        return all([ok for _, ok in self.checks])

    def __bool__(self) -> bool:
        return self.passed


def _theorem_node(rs: RootSystem, i: int) -> tuple:
    """v[i], the element of pi_i^{-1} and the two star words of verify_seidel_theorem,
    for a special node i.  Kept on the system per node."""
    if (constants := rs._theorem_nodes.get(i)) is None:
        datum = seidel_datum(rs, i)  # rejects a node that is not special
        v, sig_inv = datum.element, datum.sigma.inverse()
        words = (v.reduced_word(), sig_inv.u.inverse().reduced_word())
        constants = rs._theorem_nodes[i] = v, sig_inv, words
    return constants


def _collapse(terms: dict, v: WeylElement, sig_inv: ExtAffineWeylElement) -> PetersonElement:
    """mult_by_ell_sigma(pi_i^{-1}, star_w(v, z)), given the terms of _star_words(z, *words)
    for the words of _theorem_node: they end in the frame u^{-1} v, u the finite part of
    pi_i^{-1}, whose relabelling twists by u, so one twist by v is left.  The terms are
    clean as _star_words leaves them: a twist keeps a nonzero coefficient nonzero, and
    x -> sig_inv x is injective and keeps a key Grassmannian, as ell_sigma's product does."""
    return PetersonElement._trusted(
        sig_inv.rs, {sig_inv * y: g.act_exponents(v.m) for y, g in terms.items()}
    )


def verify_seidel_theorem(rs: RootSystem, i: int, w: WeylElement) -> VerificationReport:
    """Replay the product identity O^{v_i} (v_i * O^w) = Q^{...} O^{v_i w}.

    Four checks, and two hold by construction of the star words, so they catch a
    fault in the words or in their start only: grassmannian_support follows from
    Deodhar's rule, which the words apply to the Grassmannian w t_{gamma_w};
    sigma_collapse reads star_{v^{-1}}(star_v(ell_x)) = ell_x, as the finite part of
    pi_i^{-1} is v_i and the frame after both words is trivial.  An
    instance's content is in key_identities, pi_i^{-1} w t_{gamma_w} =
    (v_i w) t_{gamma_{v_i w}}, whose translation parts are the key lemma
    gamma_{v_i w} = gamma_w - w^{-1}(omega_i^vee), and localized_product, the
    assembled localized classes agree.
    """
    g_w = gamma(rs, w)  # refuses an element of another system
    v, sig_inv, words = _theorem_node(rs, i)
    one = LaurentPoly.one(rs.rank)
    x = _intern(rs, w, g_w)  # grassmannian_key(rs, w)
    # v * ell_x, the group {g_w: {w: 1}}, then _collapse: ell_{pi_i^{-1} x} exactly when
    # the words give back ell_x, as its relabelling is injective and its twist fixes 1
    terms, _, support = _star_words(rs, {g_w: {w: one}}, *words)
    check_support = bool(support) and all(grassmannian_keys(mu, us) for mu, us in support)
    check_collapse = terms == {x: one}
    collapsed = _collapse(terms, v, sig_inv)
    target = next(iter(collapsed.terms)) if check_collapse else sig_inv * x

    vw = v * w
    g_vw = gamma(rs, vw)
    key_vw = _intern(rs, vw, g_vw)  # grassmannian_key(rs, vw)
    check_keys = target is key_vw

    # O^w = ell_x / sigma^{-g_w} and O^{vw} = ell_{key_vw} / sigma^{-g_vw}, as in o_class,
    # and Q^q = ell_{t_lam} / sigma^den, as in q_class; pi_i^{-1} = v t_{-omega_i^vee}, so
    # target = (v w) t_{g_w - w^{-1}(omega_i^vee)} by the product rule
    pulled = tuple(map(sub, g_w, target.mu))
    q_exp = _quantum_exponent(rs, i, pulled)  # whose pairings are omega_i^vee - pulled
    lam, den = _q_parts(tuple(map(sub, rs.fundamental_coweight(i), pulled)))
    # O^{v_i} = ell_{pi_i^{-1}} / sigma_i (seidel_class): its denominator is the unit vector at i
    lhs = LocalizedClass(collapsed, tuple(map(sub, rs.fundamental_coweight(i), g_w)))
    rhs = LocalizedClass(
        mult_by_translation(PetersonElement._trusted(rs, {key_vw: one}), lam),
        tuple(map(sub, den, g_vw)),
    )
    check_product = lhs == rhs

    return VerificationReport(
        type_label=rs.type_label,
        rank=rs.rank,
        node=i,
        word=w.reduced_word(),
        q_exponent=q_exp,
        product_word=vw.reduced_word(),
        checks=(
            ("grassmannian_support", check_support),
            ("sigma_collapse", check_collapse),
            ("key_identities", check_keys),
            ("localized_product", check_product),
        ),
    )

