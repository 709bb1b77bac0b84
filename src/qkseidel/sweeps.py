"""Exhaustive verification sweeps, shared by the CLI and the acceptance suite.

Each sweep walks a finite index set (a Weyl group, a set of pairs, the
Grassmannian ball of a given radius) and re-verifies one identity on every
point.  It is written as a generator checks(rs, ...) that yields one value
per check: None when the check passes, or the text of the failure, built
only then.  The decorator _sweep(name) registers it in SWEEP_FUNCTIONS as
sweep(type_label, rank, ...): that builds the system, counts the checks
and returns a SweepResult that lists every failure instead of stopping at
the first.  An exception that is not a failed check, a programming error,
crashes the sweep.  Sweeps are pure functions of (name, type, rank), so a
work pool may run them in any order; callers sort results for determinism.
"""
from __future__ import annotations

import functools
import itertools
import random
from typing import NamedTuple

from .affine import (
    affine_nodes,
    affine_simple_reflection,
    ext_identity,
    pi,
    sigma_elements,
)
from .errors import VerificationError
from .laurent import LaurentPoly
from .nilhecke import braid_order, demazure, verify_braid_relation
from .peterson import (
    ell,
    mult_by_ell_sigma,
    star_w,
    verify_seidel_theorem,
)
from .qk import (
    VerificationRegistry,
    parabolic_data,
    seidel_product_parabolic,
    verify_phi_compatibility,
    verify_pushforward_commutes,
)
from .rootsys import (
    RootSystem,
    build_root_system,
    longest_element,
    special_nodes,
)
from .seidel import (
    one_line,
    quantum_exponent,
    seidel_element,
    verify_group_lemma,
    verify_key_lemma,
)

THEOREM_SWEEP_TYPES = (("A", 2), ("A", 3), ("B", 3), ("C", 2), ("C", 3), ("D", 4))
NILHECKE_SWEEP_TYPES = (
    ("A", 2), ("C", 2), ("G", 2), ("B", 3), ("C", 3), ("D", 4), ("F", 4), ("E", 6),
)
PUSHFORWARD_SWEEP_TYPES = (("A", 3), ("C", 2), ("B", 3), ("D", 4))
PHI_SWEEP_TYPES = (("A", 2), ("C", 2), ("A", 3))
SEIDEL_LAW_SWEEP_TYPES = (("A", 4), ("D", 4))


class SweepResult(NamedTuple):
    name: str
    type_label: str
    rank: int
    total: int
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def __bool__(self) -> bool:
        return self.passed

    def summary(self) -> str:
        state = "ok" if self.passed else f"{len(self.failures)} FAILED"
        return f"{self.name} {self.type_label}{self.rank}: {self.total} checks, {state}"


def grassmannian_ball(rs: RootSystem, max_length: int):
    """Sigma-free Grassmannian elements of length <= max_length, by BFS."""
    seen = {ext_identity(rs)}
    frontier = [ext_identity(rs)]
    for _ in range(max_length):
        nxt = []
        for x in frontier:
            for i in affine_nodes(rs):
                y = affine_simple_reflection(rs, i) * x
                if x.left_ascent(i) and y not in seen and y.is_grassmannian():
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return sorted(seen, key=lambda x: (x.ext_length(), x.mu, x.u.m))


SWEEP_FUNCTIONS = {}  # name -> sweep, filled by _sweep


def _sweep(name: str):
    """Register a check generator checks(rs, ...) under name as the sweep
    sweep(type_label, rank, ...) -> SweepResult: it builds the system, counts
    the values the generator yields and keeps the ones that are not None."""

    def register(checks):
        @functools.wraps(checks)
        def sweep(type_label: str, rank: int, *args, **kwargs) -> SweepResult:
            results = list(checks(build_root_system(type_label, rank), *args, **kwargs))
            failures = tuple(text for text in results if text is not None)
            return SweepResult(name, type_label, rank, len(results), failures)

        sweep.name = name
        SWEEP_FUNCTIONS[name] = sweep
        return sweep

    return register


@_sweep("theorem")
def sweep_theorem(rs: RootSystem):
    """The product identity for every special node and every Weyl element."""
    for i in special_nodes(rs):
        for w in rs.weyl_group():
            rep = verify_seidel_theorem(rs, i, w)
            yield None if rep.passed else f"i={i} w={w.reduced_word()} checks={rep.checks}"


@_sweep("theorem-random")
def sweep_theorem_random(rs: RootSystem, count: int = 200, seed: int = 2026):
    rng = random.Random(seed)
    group = rs.weyl_group()
    nodes = special_nodes(rs)
    for _ in range(count):
        i = rng.choice(nodes)
        w = rng.choice(group)
        rep = verify_seidel_theorem(rs, i, w)
        yield None if rep.passed else f"i={i} w={w.reduced_word()} checks={rep.checks}"


@_sweep("key-lemmas")
def sweep_key_lemmas(rs: RootSystem):
    """The coweight identity and the group identity behind the theorem."""
    for i in special_nodes(rs):
        for w in rs.weyl_group():
            report = verify_key_lemma(rs, i, w)
            yield None if report else f"key i={i} w={w.reduced_word()}: {report.lhs} != {report.rhs}"
            yield None if verify_group_lemma(rs, i, w) else f"group i={i} w={w.reduced_word()}"


@_sweep("inversion-product")
def sweep_inversion_product(rs: RootSystem):
    """Inv(vw) = (Inv(w) minus -w^{-1}Inv(v)) disjoint-union (w^{-1}Inv(v) cap R+ minus Inv(w))."""
    group = rs.weyl_group()
    npos = rs.npos
    # bit k stands for the positive root beta_k; rs.roots holds -beta_k at npos + k
    inv = {u: sum(1 << k for k in range(npos) if u.perm[k] >= npos) for u in group}
    for v in group:
        inv_v = [k for k in range(npos) if v.perm[k] >= npos]
        for w in group:
            winv = w.inverse().perm
            pos = neg = 0  # w^{-1}Inv(v): its positive roots, and the negatives of the rest
            for k in inv_v:
                if (j := winv[k]) < npos:
                    pos |= 1 << j
                else:
                    neg |= 1 << (j - npos)
            inv_w = inv[w]
            part1 = inv_w & ~neg
            part2 = pos & ~inv_w
            if part1 & part2 or part1 | part2 != inv[v * w]:
                yield f"v={v.reduced_word()} w={w.reduced_word()}"
            else:
                yield None


@_sweep("inversion-sets")
def sweep_inversion_sets(rs: RootSystem):
    """Inversion sets of the long minimal representatives, for every node.

    For any i: Inv(minrep of w_0 W_{P_i}) = {a > 0 : <omega_i^vee, a> > 0};
    for special i the pairing is 0 or 1 and the count is the length of v_i.
    """
    special = set(special_nodes(rs))
    w0 = longest_element(rs)
    for i in rs.nodes:
        rest = tuple(j for j in rs.nodes if j != i)
        rep = w0 * longest_element(rs, rest)
        expected = {a for a in rs.positive_roots if a[i - 1] > 0}
        unit = {a for a in expected if a[i - 1] == 1}
        if set(rep.inversions()) != expected:
            yield f"node {i}: inversion set mismatch"
        elif i in special and (expected != unit or rep.length() != len(unit)):
            yield f"special node {i}: non-unit coefficient in inversions"
        else:
            yield None


@_sweep("grassmannian-dichotomy")
def sweep_grassmannian_dichotomy(rs: RootSystem, max_length: int = 8):
    """For Grassmannian x = w t_beta and finite i:
    (s_i x > x and s_i x Grassmannian) iff s_i w < w."""
    for x in grassmannian_ball(rs, max_length):
        for i in rs.nodes:
            y = affine_simple_reflection(rs, i) * x
            left = y.ext_length() > x.ext_length() and y.is_grassmannian()
            si_u = x.u.left_reflect(i)
            right = si_u.length() < x.u.length()
            yield None if left == right else f"i={i} x={x!r}"


@_sweep("length-zero-products")
def sweep_length_zero_products(rs: RootSystem):
    """ell_{sigma sigma'} = ell_sigma (u_sigma star ell_{sigma'}) over Sigma x Sigma."""
    for s in sigma_elements(rs):
        for t in sigma_elements(rs):
            twisted = star_w(s.u, ell(t))
            ok = mult_by_ell_sigma(s, twisted) == ell(s * t)
            yield None if ok else f"{s!r} * {t!r}"


@_sweep("nil-hecke")
def sweep_nilhecke(rs: RootSystem):
    """Demazure idempotence, braid relations, and a non-centrality witness."""
    for i in affine_nodes(rs):
        d = demazure(rs, i)
        yield None if d * d == d else f"D_{i}^2 != D_{i}"
    for i, j in itertools.combinations(affine_nodes(rs), 2):
        ok = verify_braid_relation(rs, i, j)
        yield None if ok else f"braid ({i},{j}) order {braid_order(rs, i, j)}"
    d1 = demazure(rs, 1)
    f = LaurentPoly.monomial(rs.simple_root(1))
    yield "scalars unexpectedly central" if d1 * f == f * d1 else None


@_sweep("pushforward")
def sweep_pushforward(rs: RootSystem):
    """Left-action commutation and two-route product agreement, all parabolics."""
    registry = VerificationRegistry()
    for size in range(len(rs.nodes) + 1):
        for subset in itertools.combinations(rs.nodes, size):
            p = parabolic_data(rs, subset)
            yield None if verify_pushforward_commutes(p) else f"commutation subset={subset}"
            for i in special_nodes(rs):
                for w in p.minimal_reps:
                    try:
                        seidel_product_parabolic(rs, i, w, p, registry)
                    except VerificationError as exc:
                        yield f"subset={subset} i={i} w={w.reduced_word()}: {exc}"
                    else:
                        yield None


def rotation_rule(i: int, line: tuple[int, ...], cuts) -> tuple[dict, tuple[int, ...]]:
    """The type A_{n-1} rotation rule for O^{v_i} . (v_i^L O^w), w given by its one-line
    notation `line`: the first k entries of x for each k in `cuts`, and the Q-degree d.

    With S_k(w) the first k entries of w, S_k(x) = {s - i mod n, in 1..n : s in S_k(w)}
    and d_k = |S_k(w) cap (i, n]| - |[1, k] cap (i, n]| for k in cuts, d_j = 0 for the
    rest (Postnikov, Duke Math. J. 2005; Belkale, Compositio Math. 2004).  It reads
    one-line notation only: no root, coweight or coset representative of the package.
    """
    n = len(line)
    sets = {k: {(s - i - 1) % n + 1 for s in line[:k]} for k in cuts}
    d = tuple(sum(s > i for s in line[:k]) - max(k - i, 0) if k in sets else 0 for k in range(1, n))
    return sets, d


@_sweep("rotation")
def sweep_rotation(rs: RootSystem):
    """The parabolic Seidel product against the rotation rule, on every parabolic
    subset of type A, every node (all are special) and every w in W^P."""
    if rs.type_label != "A":
        raise ValueError("the rotation rule is stated for type A only")
    one = LaurentPoly.one(rs.rank)
    registry = VerificationRegistry()
    for size in range(len(rs.nodes) + 1):
        for subset in itertools.combinations(rs.nodes, size):
            p = parabolic_data(rs, subset)
            cuts = [k for k in rs.nodes if k not in subset]
            for i in rs.nodes:
                for w in p.minimal_reps:
                    line = one_line(w)
                    try:
                        product = seidel_product_parabolic(rs, i, w, p, registry)
                    except VerificationError as exc:
                        yield f"subset={subset} i={i} w={line}: {exc}"
                        continue
                    (((d, x), f),) = product.terms.items()
                    sets, rule_d = rotation_rule(i, line, cuts)
                    got = one_line(x)
                    ok = f == one and d == rule_d and all(set(got[:k]) == s for k, s in sets.items())
                    yield None if ok else (
                        f"subset={subset} i={i} w={line}: Q^{d} O^{got}, rule Q^{rule_d} {sets}"
                    )


@_sweep("seidel-law")
def sweep_seidel_law(rs: RootSystem):
    """The group law by which the closed forms Q^{d(i, w)} O^{v_i w} compose, over every
    pair of special nodes and every w (Belkale, Compositio Math. 2004; Lam and
    Shimozono, Acta Math. 2010).

    With pi_j pi_i = pi_k, or the identity as k = 0 with v_0 = e and d(0, w) = 0:
    v_j v_i = v_k, and d(j, v_i w) + d(i, w) = d(k, w) + d(j, v_i) for every w.  It reads
    the public seidel_element and quantum_exponent, a route to the exponent that
    verify_seidel_theorem does not take.
    """
    nodes = special_nodes(rs)
    sigma = sigma_elements(rs)  # the identity, then pi_i per special node
    zero = (0,) * rs.rank

    def v(k):
        return seidel_element(rs, k) if k else rs.identity_weyl()

    def d(k, w):
        return quantum_exponent(rs, k, w) if k else zero

    for i in nodes:
        v_i = v(i)
        for j in nodes:
            k = (0, *nodes)[sigma.index(pi(rs, j) * pi(rs, i))]
            yield None if v(j) * v_i is v(k) else f"v_{j} v_{i} != v_{k}"
            shift = d(j, v_i)
            for w in rs.weyl_group():
                lhs = tuple(map(sum, zip(d(j, v_i * w), d(i, w))))
                rhs = tuple(map(sum, zip(d(k, w), shift)))
                yield None if lhs == rhs else f"i={i} j={j} w={w.reduced_word()}: {lhs} != {rhs}"


@_sweep("phi-compatibility")
def sweep_phi(rs: RootSystem):
    """Star action vs left action on every Schubert class, every finite node."""
    for w in rs.weyl_group():
        for i in rs.nodes:
            yield None if verify_phi_compatibility(rs, i, w) else f"i={i} w={w.reduced_word()}"


def default_plan() -> tuple[tuple[str, str, int], ...]:
    """The full verification plan: every sweep on its intended type range."""
    per_type = (sweep_theorem, sweep_key_lemmas, sweep_inversion_product,
                sweep_inversion_sets, sweep_grassmannian_dichotomy, sweep_length_zero_products)
    plan = [(sweep.name, tl, rk) for tl, rk in THEOREM_SWEEP_TYPES for sweep in per_type]
    plan.append((sweep_theorem_random.name, "D", 5))
    plan += [(sweep_nilhecke.name, tl, rk) for tl, rk in NILHECKE_SWEEP_TYPES]
    plan += [(sweep_pushforward.name, tl, rk) for tl, rk in PUSHFORWARD_SWEEP_TYPES]
    plan += [(sweep_phi.name, tl, rk) for tl, rk in PHI_SWEEP_TYPES]
    plan.append((sweep_rotation.name, "A", 4))
    plan += [(sweep_seidel_law.name, tl, rk) for tl, rk in SEIDEL_LAW_SWEEP_TYPES]
    return tuple(plan)


def run_sweep_unit(unit: tuple[str, str, int]) -> SweepResult:
    """Process-pool entry point: one (name, type, rank) job."""
    name, type_label, rank = unit
    return SWEEP_FUNCTIONS[name](type_label, rank)
