"""Exhaustive verification sweeps, shared by the CLI and the acceptance suite.

Each sweep walks a finite index set (a Weyl group, a set of pairs, the
Grassmannian ball of a given radius) and re-verifies one identity on every
point, returning a SweepResult that lists any failures instead of stopping
at the first.  Sweeps are pure functions of (name, type, rank), so a work
pool may run them in any order; callers sort results for determinism.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .affine import (
    affine_nodes,
    affine_simple_reflection,
    ext_identity,
    sigma_elements,
)
from .errors import VerificationError
from .laurent import LaurentPoly
from .nilhecke import braid_order, demazure, verify_braid_relation
from .peterson import (
    ell,
    mult_by_ell_sigma,
    star_w,
    verify_phi_compatibility,
    verify_seidel_theorem,
)
from .qk import (
    VerificationRegistry,
    parabolic_data,
    seidel_product_parabolic,
    verify_pushforward_commutes,
)
from .rootsys import (
    RootSystem,
    build_root_system,
    longest_element,
    special_nodes,
)
from .seidel import verify_group_lemma, verify_key_lemma

THEOREM_SWEEP_TYPES = (("A", 2), ("A", 3), ("B", 3), ("C", 2), ("C", 3), ("D", 4))
NILHECKE_SWEEP_TYPES = (
    ("A", 2), ("C", 2), ("G", 2), ("B", 3), ("C", 3), ("D", 4), ("F", 4), ("E", 6),
)
PUSHFORWARD_SWEEP_TYPES = (("A", 3), ("C", 2), ("B", 3), ("D", 4))
PHI_SWEEP_TYPES = (("A", 2), ("C", 2), ("A", 3))


@dataclass(frozen=True)
class SweepResult:
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
    return sorted(seen, key=lambda x: (x.ext_length(), x.lam, x.u.m))


def sweep_theorem(type_label: str, rank: int) -> SweepResult:
    """The product identity for every special node and every Weyl element."""
    rs = build_root_system(type_label, rank)
    failures = []
    total = 0
    for i in special_nodes(rs):
        for w in rs.weyl_group():
            total += 1
            rep = verify_seidel_theorem(rs, i, w)
            if not rep.passed:
                failures.append(f"i={i} w={w.reduced_word()} checks={rep.checks}")
    return SweepResult("theorem", type_label, rank, total, tuple(failures))


def sweep_theorem_random(
    type_label: str, rank: int, count: int = 200, seed: int = 2026
) -> SweepResult:
    rs = build_root_system(type_label, rank)
    rng = random.Random(seed)
    group = rs.weyl_group()
    nodes = special_nodes(rs)
    failures = []
    for _ in range(count):
        i = rng.choice(nodes)
        w = rng.choice(group)
        rep = verify_seidel_theorem(rs, i, w)
        if not rep.passed:
            failures.append(f"i={i} w={w.reduced_word()} checks={rep.checks}")
    return SweepResult("theorem-random", type_label, rank, count, tuple(failures))


def sweep_key_lemmas(type_label: str, rank: int) -> SweepResult:
    """The coweight identity and the group identity behind the theorem."""
    rs = build_root_system(type_label, rank)
    failures = []
    total = 0
    for i in special_nodes(rs):
        for w in rs.weyl_group():
            total += 2
            report = verify_key_lemma(rs, i, w)
            if not report:
                failures.append(f"key i={i} w={w.reduced_word()}: {report.lhs} != {report.rhs}")
            if not verify_group_lemma(rs, i, w):
                failures.append(f"group i={i} w={w.reduced_word()}")
    return SweepResult("key-lemmas", type_label, rank, total, tuple(failures))


def sweep_inversion_product(type_label: str, rank: int) -> SweepResult:
    """Inv(vw) = (Inv(w) minus -w^{-1}Inv(v)) disjoint-union (w^{-1}Inv(v) cap R+ minus Inv(w))."""
    rs = build_root_system(type_label, rank)
    failures = []
    group = rs.weyl_group()
    npos = rs.npos
    # bit k stands for the positive root beta_k; rs.roots holds -beta_k at npos + k
    inv = {u: sum(1 << k for k in range(npos) if u.perm[k] >= npos) for u in group}
    total = 0
    for v in group:
        inv_v = [k for k in range(npos) if v.perm[k] >= npos]
        for w in group:
            total += 1
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
                failures.append(f"v={v.reduced_word()} w={w.reduced_word()}")
    return SweepResult("inversion-product", type_label, rank, total, tuple(failures))


def sweep_inversion_sets(type_label: str, rank: int) -> SweepResult:
    """Inversion sets of the long minimal representatives, for every node.

    For any i: Inv(minrep of w_0 W_{P_i}) = {a > 0 : <omega_i^vee, a> > 0};
    for special i the pairing is 0 or 1 and the count is the length of v_i.
    """
    rs = build_root_system(type_label, rank)
    failures = []
    total = 0
    special = set(special_nodes(rs))
    w0 = longest_element(rs)
    for i in rs.nodes:
        total += 1
        rest = tuple(j for j in rs.nodes if j != i)
        rep = w0 * longest_element(rs, rest)
        expected = {a for a in rs.positive_roots if a[i - 1] > 0}
        if set(rep.inversions()) != expected:
            failures.append(f"node {i}: inversion set mismatch")
            continue
        if i in special:
            unit = {a for a in rs.positive_roots if a[i - 1] == 1}
            if expected != unit or rep.length() != len(unit):
                failures.append(f"special node {i}: non-unit coefficient in inversions")
    return SweepResult("inversion-sets", type_label, rank, total, tuple(failures))


def sweep_grassmannian_dichotomy(
    type_label: str, rank: int, max_length: int = 8
) -> SweepResult:
    """For Grassmannian x = w t_beta and finite i:
    (s_i x > x and s_i x Grassmannian) iff s_i w < w."""
    rs = build_root_system(type_label, rank)
    failures = []
    total = 0
    for x in grassmannian_ball(rs, max_length):
        for i in rs.nodes:
            total += 1
            y = affine_simple_reflection(rs, i) * x
            left = y.ext_length() > x.ext_length() and y.is_grassmannian()
            si_u = x.u.left_reflect(i)
            right = si_u.length() < x.u.length()
            if left != right:
                failures.append(f"i={i} x=({x.lam}, {x.u.reduced_word()})")
    return SweepResult("grassmannian-dichotomy", type_label, rank, total, tuple(failures))


def sweep_length_zero_products(type_label: str, rank: int) -> SweepResult:
    """ell_{sigma sigma'} = ell_sigma (u_sigma star ell_{sigma'}) over Sigma x Sigma."""
    rs = build_root_system(type_label, rank)
    failures = []
    total = 0
    for s in sigma_elements(rs):
        for t in sigma_elements(rs):
            total += 1
            twisted = star_w(s.element.u, ell(t.element))
            if mult_by_ell_sigma(s, twisted) != ell((s * t).element):
                failures.append(f"{s!r} * {t!r}")
    return SweepResult("length-zero-products", type_label, rank, total, tuple(failures))


def sweep_nilhecke(type_label: str, rank: int) -> SweepResult:
    """Demazure idempotence, braid relations, and a non-centrality witness."""
    rs = build_root_system(type_label, rank)
    failures = []
    total = 0
    for i in affine_nodes(rs):
        total += 1
        d = demazure(rs, i)
        if d * d != d:
            failures.append(f"D_{i}^2 != D_{i}")
    for i, j in itertools.combinations(affine_nodes(rs), 2):
        total += 1
        if not verify_braid_relation(rs, i, j):
            failures.append(f"braid ({i},{j}) order {braid_order(rs, i, j)}")
    total += 1
    d1 = demazure(rs, 1)
    f = LaurentPoly.monomial(rs.simple_root(1))
    if d1 * f == f * d1:
        failures.append("scalars unexpectedly central")
    return SweepResult("nil-hecke", type_label, rank, total, tuple(failures))


def sweep_pushforward(type_label: str, rank: int) -> SweepResult:
    """Left-action commutation and two-route product agreement, all parabolics."""
    rs = build_root_system(type_label, rank)
    registry = VerificationRegistry()
    failures = []
    total = 0
    for size in range(len(rs.nodes) + 1):
        for subset in itertools.combinations(rs.nodes, size):
            p = parabolic_data(rs, subset)
            total += 1
            if not verify_pushforward_commutes(p):
                failures.append(f"commutation subset={subset}")
            for i in special_nodes(rs):
                for w in p.minimal_reps:
                    total += 1
                    try:
                        seidel_product_parabolic(rs, i, w, p, registry)
                    except VerificationError as exc:
                        failures.append(f"subset={subset} i={i} w={w.reduced_word()}: {exc}")
    return SweepResult("pushforward", type_label, rank, total, tuple(failures))


def sweep_phi(type_label: str, rank: int) -> SweepResult:
    """Star action vs left action on every Schubert class, every finite node."""
    rs = build_root_system(type_label, rank)
    failures = []
    total = 0
    for w in rs.weyl_group():
        for i in rs.nodes:
            total += 1
            if not verify_phi_compatibility(rs, i, w):
                failures.append(f"i={i} w={w.reduced_word()}")
    return SweepResult("phi-compatibility", type_label, rank, total, tuple(failures))


SWEEP_FUNCTIONS = {
    "theorem": sweep_theorem,
    "theorem-random": sweep_theorem_random,
    "key-lemmas": sweep_key_lemmas,
    "inversion-product": sweep_inversion_product,
    "inversion-sets": sweep_inversion_sets,
    "grassmannian-dichotomy": sweep_grassmannian_dichotomy,
    "length-zero-products": sweep_length_zero_products,
    "nil-hecke": sweep_nilhecke,
    "pushforward": sweep_pushforward,
    "phi-compatibility": sweep_phi,
}


def default_plan() -> tuple[tuple[str, str, int], ...]:
    """The full verification plan: every sweep on its intended type range."""
    plan = []
    for tl, rk in THEOREM_SWEEP_TYPES:
        plan.append(("theorem", tl, rk))
        plan.append(("key-lemmas", tl, rk))
        plan.append(("inversion-product", tl, rk))
        plan.append(("inversion-sets", tl, rk))
        plan.append(("grassmannian-dichotomy", tl, rk))
        plan.append(("length-zero-products", tl, rk))
    plan.append(("theorem-random", "D", 5))
    for tl, rk in NILHECKE_SWEEP_TYPES:
        plan.append(("nil-hecke", tl, rk))
    for tl, rk in PUSHFORWARD_SWEEP_TYPES:
        plan.append(("pushforward", tl, rk))
    for tl, rk in PHI_SWEEP_TYPES:
        plan.append(("phi-compatibility", tl, rk))
    return tuple(plan)


def run_sweep_unit(unit: tuple[str, str, int]) -> SweepResult:
    """Process-pool entry point: one (name, type, rank) job."""
    name, type_label, rank = unit
    return SWEEP_FUNCTIONS[name](type_label, rank)
