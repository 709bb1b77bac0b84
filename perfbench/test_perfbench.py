"""The benchmark's own tests.  Run from the root of the checkout:

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import qkseidel  # noqa: E402
import qkseidel.nilhecke  # noqa: E402,F401
from run import percentile, scaled_op_ms  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    HEAVY_BRAID,
    PUSHFORWARD_ORBITS,
    REFERENCE_S,
    SAMPLE_INTERVAL_S,
    THEOREM_OPS,
    SpeedProbe,
    Workload,
    d4_orbit,
    nilhecke_inputs,
    pushforward_inputs,
    theorem_base,
    theorem_inputs,
    theorem_strata,
)


@pytest.fixture(scope="module")
def d5():
    rs = qkseidel.build_root_system("D", 5)
    return rs, theorem_strata(rs.weyl_group())


def test_theorem_inputs_follow_the_seed(d5):
    rs, strata = d5
    base = theorem_base(strata, THEOREM_OPS)
    assert len(set(base)) == THEOREM_OPS
    # the base is spread over the group in stratum order, across many lengths
    assert [strata[i] for i in base] == sorted(strata[i] for i in base)
    assert len({strata[i][0] for i in base}) >= 12
    a = theorem_inputs(base, 1)
    assert a == theorem_inputs(base, 1)
    b = theorem_inputs(base, 2)
    assert a != b
    for ops in (a, b):
        # the seed only mirrors ops: the base and the node-1 share stay put
        assert [idx for _, idx, _ in ops] == base
        assert sum(1 for i, _, _ in ops if i == 1) == THEOREM_OPS // 3
        assert all(i == 1 or (i == 5) == mirrored for i, _, mirrored in ops)
        assert len({mirrored for i, _, mirrored in ops if i == 1}) == 1


def test_pushforward_and_nilhecke_inputs_follow_the_seed():
    nodes = (1, 2, 3, 4)
    a = pushforward_inputs(nodes, 1)
    assert a == pushforward_inputs(nodes, 1)
    b = pushforward_inputs(nodes, 2)
    assert a != b
    # one subset from each chosen orbit, in the same order for every seed
    assert [d4_orbit(s) for s in a] == [d4_orbit(s) for s in b] == list(PUSHFORWARD_ORBITS)
    g2 = qkseidel.build_root_system("G", 2)
    g = nilhecke_inputs(g2, (0, 1, 2), 1)
    assert g == nilhecke_inputs(g2, (0, 1, 2), 1)
    h = nilhecke_inputs(g2, (0, 1, 2), 2)
    # the seed only draws the weight of the non-centrality witness
    assert g != h and len(g) == 7 and g[:-2] + g[-1:] == h[:-2] + h[-1:]
    assert g[-1] == HEAVY_BRAID and g[-2][0] == "noncentral"
    assert g2.pair_coroot_root(1, g[-2][1]) != 0


def test_span_tree_is_well_formed():
    rs = qkseidel.build_root_system("A", 3)
    p = qkseidel.parabolic_data(rs, (1,))
    original = qkseidel.qk.verify_seidel_theorem
    tracer = Tracer()
    tracer.install()
    try:
        assert qkseidel.qk.verify_seidel_theorem is not original
        for w in rs.weyl_group()[:6]:
            qkseidel.verify_seidel_theorem(rs, 1, w)
            qkseidel.seidel_product_parabolic(rs, 1, qkseidel.qk.minrep_w(w, p), p,
                                              qkseidel.qk.VerificationRegistry())
    finally:
        tracer.uninstall()
    assert qkseidel.qk.verify_seidel_theorem is original
    assert len(tracer) > 100 and not tracer.missing
    assert tracer.problems() == []
    assert min(tracer.self_times()) >= -1e-9
    for k in range(len(tracer)):
        p_idx = tracer.parent[k]
        if p_idx >= 0:
            assert tracer.start[p_idx] <= tracer.start[k] <= tracer.end[k] <= tracer.end[p_idx]
    totals = tracer.totals()
    # verify runs both directly and, through the qk module's own binding,
    # under seidel_product
    assert totals["peterson.verify"]["calls"] == 12
    assert totals["qk.seidel_product"]["calls"] == 6
    roots = [k for k in range(len(tracer)) if tracer.parent[k] < 0]
    root_time = sum(tracer.end[k] - tracer.start[k] for k in roots)
    assert sum(r["self_s"] for r in totals.values()) == pytest.approx(root_time, rel=1e-6)


def test_tree_problems_are_reported():
    tracer = Tracer()
    tracer.names.append("x")
    for start, end, parent in ((0.0, 1.0, -1), (0.5, 1.5, 0)):
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.name.append(0)
        tracer.parent.append(parent)
    assert any("outside its parent" in p for p in tracer.problems())


def test_op_times_scale_with_the_reference_around_them():
    # at the reference speed a time stands; where the reference loop ran
    # twice as long over an op, the op's time is halved
    ref = REFERENCE_S * 1e3
    r = {"op_ms": [10.0, 10.0], "ref_ms": [ref, 2 * ref]}
    assert scaled_op_ms(r) == pytest.approx([10.0, 5.0])


def test_probe_samples_within_an_op_and_takes_them_out_of_its_time():
    class Sleepy(Workload):
        def ops(self):
            return [0.3]

        def run_op(self, seconds):
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < seconds:
                pass

    with SpeedProbe() as probe:
        latencies, references, _, _ = Sleepy(qkseidel).run(probe=probe)
    # samples before, within and after the op; the op busy-waits for 0.3 s,
    # so its time less the samples within it is what is left of 0.3 s
    within = probe.samples[1:-1]
    assert len(within) >= 0.3 / SAMPLE_INTERVAL_S / 2
    assert latencies[0] == pytest.approx(300 - 1e3 * sum(within), abs=5)
    assert references[0] == pytest.approx(statistics.mean(probe.samples) * 1e3)


def test_percentile_stays_within_the_samples():
    few = [0.5, 0.7, 0.6, 3.6, 7.3, 0.8, 9000.0]
    assert 7.3 <= percentile(few, 95) <= 9000.0
    assert percentile(few, 50) == 0.8
    assert percentile([4.0], 95) == 4.0


def _bench_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return bench


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric(trace):
    bench = _bench_names()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "all", "--smoke",
         "--seed", "5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    for workload in (w["name"] for w in bench["workloads"]):
        for metric in wanted:
            got = result["metrics"][f"{workload}/{metric['name']}"]
            assert got["unit"] == metric["unit"]
            assert isinstance(got["value"], (int, float))
    assert len(result["metrics"]) == len(wanted) * len(bench["workloads"])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "theorem-d5", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
