"""The three benchmark workloads: seeded inputs, set-up and the timed ops.

Every workload drives qkseidel's public API in a single closed loop: the next
op starts when the previous one returns.  Functions are looked up on the
``qkseidel`` package at call time, so a tracer that rebinds them is seen.

Each op's verdict must pass, because the theorem holds for every instance.
The canonical text of the outputs of a pass is hashed, order-independently,
into its digest.  ``VerificationError`` and ``SizeLimitError`` count as a
failed op; any other exception is a bug and crashes the run.
"""
from __future__ import annotations

import hashlib
import itertools
import random
import signal
import statistics
import time

WORKLOADS = ("theorem-d5", "pushforward-d4", "nilhecke-g2")

# A theorem-d5 pass verifies this many (node, w) pairs: a third with node 1
# and two thirds with a spin node, 4 or 5.  It is short enough that a run
# fits several passes.
THEOREM_OPS = 36
SMOKE_THEOREM_OPS = 6
# The diagram automorphism of D5: it swaps the spin nodes and fixes the rest.
SPIN_SWAP = {4: 5, 5: 4}


def theorem_base(strata: list, count: int) -> list[int]:
    """count indices into the Weyl group, spread evenly over its strata.

    ``strata[idx]`` is the stratum of the group element with index idx.  The
    group is ordered by stratum and every step-th element is taken, so the
    base covers short and long elements alike.
    """
    order = sorted(range(len(strata)), key=lambda idx: (strata[idx], idx))
    step = len(order) / count
    return [order[int((k + 0.5) * step)] for k in range(count)]


def theorem_inputs(base: list[int], seed: int) -> list[tuple[int, int, bool]]:
    """The seeded (node, base index, mirrored) ops of a pass.

    Every third base element goes with node 1, the others with a spin node.
    The seed mirrors each spin op, which turns (4, w) into (5, sigma(w)), and
    mirrors the node-1 ops all together, into (1, sigma(w)); sigma is the
    diagram automorphism.  A mirrored op does the same work up to relabelling,
    so the cost of a pass does not depend on the seed, and no two ops of a
    pass coincide.
    """
    rng = random.Random(seed)
    node_one_mirrored = rng.random() < 0.5
    ops = []
    for k, idx in enumerate(base):
        if k % 3 == 0:
            ops.append((1, idx, node_one_mirrored))
        else:
            mirrored = rng.random() < 0.5
            ops.append((5 if mirrored else 4, idx, mirrored))
    return ops


def theorem_strata(group) -> list[tuple[int, int]]:
    return [(w.length(), len(w.descent_set())) for w in group]


# The orbits a pushforward-d4 pass takes a subset from, as d4_orbit gives
# them: two outer nodes, node 2 with one outer node, node 2 with two.  Of the
# 8 orbits these are mid-sized, so a pass is short enough that a run fits
# several passes.
PUSHFORWARD_ORBITS = ((False, 2), (True, 1), (True, 2))


def d4_orbit(subset: tuple[int, ...]) -> tuple[bool, int]:
    """The orbit of a parabolic subset of D4 under the diagram automorphisms.

    They permute the outer nodes 1, 3 and 4 in every way and fix node 2, so
    an orbit is fixed by whether node 2 is in the subset and how many outer
    nodes are.  The special nodes are the outer nodes, and every special node
    is used, so the subsets of an orbit cost the same work up to relabelling.
    """
    return 2 in subset, sum(1 for i in subset if i != 2)


def pushforward_inputs(nodes: tuple[int, ...], seed: int,
                       smoke: bool = False) -> list[tuple[int, ...]]:
    """A seeded parabolic subset of D4 from each orbit in PUSHFORWARD_ORBITS.

    A smoke pass takes only the full set.
    """
    if smoke:
        return [tuple(nodes)]
    rng = random.Random(seed)
    orbits: dict = {}
    for k in range(len(nodes) + 1):
        for subset in itertools.combinations(nodes, k):
            orbits.setdefault(d4_orbit(subset), []).append(subset)
    return [rng.choice(orbits[key]) for key in PUSHFORWARD_ORBITS]


# The braid relation of nodes 1 and 2 of affine G2 takes seconds, against
# milliseconds for every other nilhecke-g2 check.
HEAVY_BRAID = ("braid", 1, 2)


def nilhecke_inputs(rs, affine_nodes: tuple[int, ...], seed: int,
                    smoke: bool = False) -> list[tuple]:
    """Idempotence per node, every braid relation, a non-centrality witness.

    The checks run in a fixed order, with HEAVY_BRAID last; the seed draws
    the weight of the monomial that D_1 fails to commute with.  A smoke pass
    drops HEAVY_BRAID.
    """
    rng = random.Random(seed)
    ops: list[tuple] = [("idempotent", i) for i in affine_nodes]
    ops += [("braid", i, j) for i, j in itertools.combinations(affine_nodes, 2)]
    ops.remove(HEAVY_BRAID)
    while True:
        weight = (rng.randint(-3, 3), rng.randint(-3, 3))
        if rs.pair_coroot_root(1, weight) != 0:
            break
    ops.append(("noncentral", weight))
    if not smoke:
        ops.append(HEAVY_BRAID)
    return ops


# The host's speed drifts by half and more, for seconds to minutes at a
# time, and it drifts alike for all pure-Python code.  So while ops run, the
# time of a fixed reference loop is sampled, between ops and every
# SAMPLE_INTERVAL_S within them, and each op's time is scaled to the speed
# at which that loop takes REFERENCE_S.  The loop allocates nothing that the
# cyclic garbage collector tracks, and it calls nothing in qkseidel, so no
# change to the program can move it.
REFERENCE_ITERATIONS = 20_000
# The reference loop's time on a 2-vCPU Xeon VM with Python 3.11 at its
# faster speed; it only sets the scale of the reported times.
REFERENCE_S = 0.002
SAMPLE_INTERVAL_S = 0.05


def reference_time() -> float:
    """Seconds that one run of the reference loop takes now."""
    t0 = time.perf_counter()
    total = 0
    table = {}
    for i in range(REFERENCE_ITERATIONS):
        total += i * i % 7
        table[i & 255] = total
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples the reference loop's time on request and, while entered, from
    a timer signal every SAMPLE_INTERVAL_S.

    ``spent`` adds up the time the samples took, so that a caller can take
    the samples taken within an interval out of its length.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self.busy = False

    def sample(self, *_signal) -> None:
        if self.busy:
            return
        self.busy = True
        t = reference_time()
        self.samples.append(t)
        self.spent += t
        self.busy = False

    def __enter__(self) -> SpeedProbe:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def digest(lines: list[str]) -> str:
    """Order-independent hash of canonical output lines."""
    h = hashlib.sha256()
    for line in sorted(lines):
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def _word(w) -> str:
    return ",".join(map(str, w.reduced_word())) or "e"


def _qk_text(xi) -> str:
    """Canonical support of a QKElement: (Q exponent, index word, coefficient)."""
    rows = sorted(
        (d, _word(w), f.serialize()) for (d, w), f in xi.terms.items()
    )
    return repr(rows)


class Workload:
    """Set-up state and the op stream of one workload pass.

    ``run_op`` does the work of an op and returns its raw result; ``judge``
    turns that result into a verdict and canonical output lines.  Judging
    happens after the pass, so the benchmark's own checks are neither timed
    nor traced.
    """

    name = ""
    # How many leading ops a short pass runs; None when the workload makes
    # no short passes.  Short passes give cheap ops that precede an
    # expensive one many more timings, from the same state as in a full pass.
    short_pass_ops = None

    def __init__(self, qkseidel):
        self.api = qkseidel
        self.failed_types = (qkseidel.VerificationError, qkseidel.SizeLimitError)

    def ops(self):
        """The ops of one pass, in order; may be a generator."""
        raise NotImplementedError

    def run_op(self, op):
        raise NotImplementedError

    def judge(self, op, result) -> tuple[bool, list[str]]:
        raise NotImplementedError

    def timed_op(self, op) -> bool:
        """Whether the op's latency is an op_ms sample."""
        return True

    def run(self, limit: int | None = None, probe: SpeedProbe | None = None
            ) -> tuple[list[float], list[float], list[bool], list]:
        """One pass over the first ``limit`` ops, or all of them.

        Returns the latency of every op in ms, less the probe's samples
        within it; the mean reference time in ms over each op, from the
        probe's samples just before, within and just after it; which ops are
        op_ms samples; and [(op, result)].  Without a probe, the reference
        loop runs between ops only.
        """
        latencies = []
        references = []
        timed = []
        results = []
        probe = probe or SpeedProbe()
        clock = time.perf_counter
        probe.sample()
        for op in itertools.islice(self.ops(), limit):
            first, spent = len(probe.samples) - 1, probe.spent
            t0 = clock()
            try:
                result = self.run_op(op)
            except self.failed_types as exc:
                result = exc
            t1 = clock()
            latencies.append((t1 - t0 - (probe.spent - spent)) * 1e3)
            probe.sample()
            references.append(statistics.mean(probe.samples[first:]) * 1e3)
            timed.append(self.timed_op(op))
            results.append((op, result))
        return latencies, references, timed, results

    def verdicts(self, results) -> dict:
        """Attempted and failed counts, the first problems, and the digest."""
        lines: list[str] = []
        failed = 0
        problems: list[str] = []
        for op, result in results:
            if isinstance(result, self.failed_types):
                ok, out = False, [f"{op!r}|{type(result).__name__}"]
            else:
                ok, out = self.judge(op, result)
            if not ok:
                failed += 1
                if len(problems) < 5:
                    problems.append(f"{op!r}: {out}")
            lines.extend(out)
        return {
            "attempted": len(results),
            "failed": failed,
            "problems": problems,
            "digest": digest(lines),
        }


class TheoremD5(Workload):
    """verify_seidel_theorem on seeded (special node, w) pairs in W(D5)."""

    name = "theorem-d5"

    def __init__(self, qkseidel, seed, smoke):
        super().__init__(qkseidel)
        self.rs = qkseidel.build_root_system("D", 5)
        self.group = self.rs.weyl_group()
        count = SMOKE_THEOREM_OPS if smoke else THEOREM_OPS
        base = theorem_base(theorem_strata(self.group), count)
        self.inputs = [(i, self._element(idx, mirrored))
                       for i, idx, mirrored in theorem_inputs(base, seed)]

    def _element(self, idx, mirrored):
        w = self.group[idx]
        if not mirrored:
            return w
        word = [SPIN_SWAP.get(a, a) for a in w.reduced_word()]
        return self.api.weyl_from_word(self.rs, word)

    def ops(self):
        return self.inputs

    def run_op(self, op):
        i, w = op
        return self.api.verify_seidel_theorem(self.rs, i, w)

    def judge(self, op, rep):
        i, w = op
        ok = rep.passed and self._cross_check(i, w, rep)
        checks = ",".join(f"{name}={int(v)}" for name, v in rep.checks)
        return ok, [f"{i}|{_word(w)}|{rep.q_exponent}|{rep.product_word}|{checks}"]

    def _cross_check(self, i, w, rep) -> bool:
        """Recompute the report's outputs along a second route.

        The product word must be a reduced word of v[i] w, and the exponent,
        mapped back to coweight coordinates through the Cartan matrix, must
        equal omega_i - w^{-1}(omega_i) and be nonnegative.
        """
        api, rs = self.api, self.rs
        vw = api.seidel_element(rs, i) * w
        if api.weyl_from_word(rs, rep.product_word) != vw or len(rep.product_word) != vw.length():
            return False
        fund = rs.fundamental_coweight(i)
        pulled = w.inverse().act_coweight(fund)
        expected = tuple(a - b for a, b in zip(fund, pulled))
        return rs.coroots_to_coweight(rep.q_exponent) == expected and min(rep.q_exponent) >= 0


class PushforwardD4(Workload):
    """Parabolic subsets of D4, one per chosen orbit: coset data, commutation, products.

    Ops are the commutation check of a subset (which also builds its
    parabolic data) followed by one seidel_product_parabolic call per special
    node and minimal representative; only the product calls are op_ms
    samples.
    """

    name = "pushforward-d4"

    def __init__(self, qkseidel, seed, smoke):
        super().__init__(qkseidel)
        self.rs = qkseidel.build_root_system("D", 4)
        self.rs.weyl_group()
        self.nodes = qkseidel.special_nodes(self.rs)
        self.subsets = pushforward_inputs(self.rs.nodes, seed, smoke)

    def ops(self):
        # A fresh registry per pass: Peterson work runs only on its misses.
        self.registry = self.api.qk.VerificationRegistry()
        for subset in self.subsets:
            yield ("commutes", subset)
            for i in self.nodes:
                for w in self.parabolic.minimal_reps:
                    yield ("product", subset, i, w)

    def timed_op(self, op):
        return op[0] == "product"

    def run_op(self, op):
        if op[0] == "commutes":
            self.parabolic = self.api.parabolic_data(self.rs, op[1])
            return self.api.verify_pushforward_commutes(self.parabolic)
        _, _subset, i, w = op
        return self.api.seidel_product_parabolic(self.rs, i, w, self.parabolic, self.registry)

    def judge(self, op, result):
        if op[0] == "commutes":
            return result, [f"commutes|{op[1]}|{int(result)}"]
        _, subset, i, w = op
        return True, [f"product|{subset}|{i}|{_word(w)}|{_qk_text(result)}"]


class NilheckeG2(Workload):
    """Demazure idempotence, braid relations and non-centrality over affine G2."""

    name = "nilhecke-g2"

    def __init__(self, qkseidel, seed, smoke):
        super().__init__(qkseidel)
        self.rs = qkseidel.build_root_system("G", 2)
        self.rs.weyl_group()
        self.inputs = nilhecke_inputs(self.rs, qkseidel.affine.affine_nodes(self.rs), seed,
                                      smoke)
        if not smoke:
            self.short_pass_ops = self.inputs.index(HEAVY_BRAID)

    def ops(self):
        return self.inputs

    def run_op(self, op):
        nh, rs = self.api.nilhecke, self.rs
        if op[0] == "idempotent":
            d = nh.demazure(rs, op[1])
            return d * d == d
        if op[0] == "braid":
            return nh.verify_braid_relation(rs, op[1], op[2])
        d1 = nh.demazure(rs, 1)
        f = self.api.laurent.LaurentPoly.monomial(op[1])
        return d1 * f != f * d1

    def judge(self, op, ok):
        return ok, ["|".join(map(str, op)) + f"|{int(ok)}"]


WORKLOAD_CLASSES = {cls.name: cls for cls in (TheoremD5, PushforwardD4, NilheckeG2)}
