"""qkseidel benchmark: time to a verdict on three verification workloads.

Run from the root of a qkseidel checkout:

    python3 perfbench/run.py --workload theorem-d5 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Every pass starts from a freshly set-up interpreter (module-level caches
start cold), one process at a time, as a closed loop with a single client.
``--trace 0`` runs at least three passes of the same ops, more while
``--seconds`` allow, with set-ups timed in between, and reports the
end-to-end metrics from each op's median time over the passes, scaled to the
reference speed (see workloads.py); ``--trace 1``
runs one untraced and one traced pass and reports the per-layer metrics and
the tracing overhead.  The last line of output is one JSON object; the exit
code is 1 when any verdict fails or a digest differs.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import LAYERS  # noqa: E402
from workloads import REFERENCE_S, WORKLOADS  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
EXPECTED = os.path.join(HERE, "expected_digests.json")
DEFAULT_SEED = 2026
# setup_s is the median of MIN_SETUPS to MAX_SETUPS set-ups per run.  They
# are spread over the run, between passes, and take about SETUP_SHARE of it,
# so a slow spell of the host moves only some of them.
MIN_SETUPS, MAX_SETUPS, SETUP_SHARE = 3, 20, 0.25
# A --trace 0 run makes at least MIN_PASSES full passes; it starts another
# only while the mean step so far (a pass, its short passes and the set-ups
# after it) still fits in --seconds.
MIN_PASSES, MAX_PASSES = 3, 50
# Short passes made after each full pass, on workloads that have them.
SHORT_PASSES = 10
# Children still running this long after a workload's run began are killed.
RUN_TIMEOUT_S = 170

UNITS = {
    "wall_s": "s", "setup_s": "s", "op_ms.p50": "ms", "op_ms.p95": "ms", "peak_rss_mb": "MB",
}


class ChildError(RuntimeError):
    pass


class Child:
    """One child interpreter, started and set up.

    setup_s is the time from spawn to ready, less the reference loops the
    child ran, and scaled to the reference speed they measured over set-up.

    The child leads its own process group, so killing the group also ends a
    pass it has forked.  Every child is killed by ``deadline`` at the latest.
    """

    def __init__(self, workload: str, seed: int, mode: str, smoke: bool, deadline: float):
        cmd = [sys.executable, CHILD, "--workload", workload, "--seed", str(seed),
               "--mode", mode]
        if smoke:
            cmd.append("--smoke")
        self.what = f"{workload} {mode}"
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=dict(os.environ, PYTHONHASHSEED="0"), text=True,
                                     start_new_session=True)
        self.watchdog = threading.Timer(max(deadline - t0, 0.0), self.kill)
        self.watchdog.start()
        try:
            ready = self.proc.stdout.readline()
        except BaseException:
            self.abort()
            raise
        elapsed = time.perf_counter() - t0
        if not ready.startswith("ready "):
            self.close()
            raise ChildError(f"{self.what}: child did not set up")
        probe = json.loads(ready[len("ready "):])
        self.speed = REFERENCE_S / probe["reference_s"]
        self.setup_s = (elapsed - probe["spent_s"]) * self.speed

    def kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def run_pass(self, limit: int | None = None) -> dict:
        """One pass in a serving child, over the first ``limit`` ops or all."""
        try:
            self.proc.stdin.write("pass\n" if limit is None else f"pass {limit}\n")
            self.proc.stdin.flush()
        except OSError:
            line = ""
        else:
            line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise ChildError(f"{self.what}: child ended during a pass")
        return json.loads(line)

    def close(self) -> list[str]:
        """Let the child end; its remaining output lines."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            rest = self.proc.stdout.read()
            self.proc.wait()
        finally:
            self.abort()
        if self.proc.returncode != 0:
            raise ChildError(f"{self.what}: child exited with {self.proc.returncode}")
        return rest.splitlines()

    def abort(self) -> None:
        """Stop the watchdog, and kill the child and its passes if still running."""
        self.watchdog.cancel()
        if self.proc.poll() is None:
            self.kill()
            self.proc.wait()
        self.proc.stdout.close()


def set_up(workload: str, seed: int, deadline: float) -> Child:
    """A child that only sets up, once it has ended."""
    child = Child(workload, seed, "setup", False, deadline)
    child.close()
    return child


def run_passes(workload: str, seed: int, seconds: float, smoke: bool, began: float,
               deadline: float) -> tuple[list, list, list]:
    """The full passes, short passes and set-up children of a --trace 0 run."""
    child = Child(workload, seed, "serve", smoke, deadline)
    setups, passes, shorts = [child], [], []
    try:
        first = time.perf_counter()
        while True:
            passes.append(child.run_pass())
            if smoke:
                break
            prefix = passes[0]["short_pass_ops"]
            if prefix:
                shorts += [child.run_pass(prefix) for _ in range(SHORT_PASSES)]
            while (len(setups) < MAX_SETUPS
                   and sum(c.setup_s / c.speed for c in setups)
                   < SETUP_SHARE * (time.perf_counter() - began)):
                setups.append(set_up(workload, seed, deadline))
            now = time.perf_counter()
            step = (now - first) / len(passes)
            if len(passes) >= MAX_PASSES or (
                    len(passes) >= MIN_PASSES and now - began + step > seconds):
                break
        child.close()
    finally:
        child.abort()
    while not smoke and len(setups) < MIN_SETUPS:
        setups.append(set_up(workload, seed, deadline))
    return passes, shorts, setups


def expected_digest(workload: str, seed: int) -> str | None:
    with open(EXPECTED) as fh:
        table = json.load(fh)[workload]
    return table.get(str(seed), table.get("*"))


def check(workload: str, seed: int, passes: list[dict], shorts: list[dict],
          smoke: bool) -> list[str]:
    """Reasons the run's outputs are wrong; empty when they are right."""
    bad = []
    for r in passes + shorts:
        bad += r["problems"]
        bad += r.get("span_problems", [])
    for kind, group in (("passes", passes), ("short passes", shorts)):
        if len({len(r["op_ms"]) for r in group}) > 1:
            bad.append(f"{kind} ran different numbers of ops")
        if len({r["digest"] for r in group}) > 1:
            bad.append(f"{kind} disagree: digests {sorted({r['digest'] for r in group})}")
    digests = {r["digest"] for r in passes}
    want = None if smoke else expected_digest(workload, seed)
    if want is not None and digests != {want}:
        bad.append(f"digest {sorted(digests)} differs from the recorded {want}")
    return bad


def scaled_op_ms(r: dict) -> list[float]:
    """A pass's op times in ms, each scaled to the reference speed over it."""
    return [t * REFERENCE_S * 1e3 / ref for t, ref in zip(r["op_ms"], r["ref_ms"])]


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between samples, never past the largest."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    began = time.perf_counter()
    deadline = began + RUN_TIMEOUT_S
    shorts, setups = [], []
    if trace:
        untraced = Child(workload, seed, "serve", smoke, deadline)
        try:
            passes = [untraced.run_pass()]
            untraced.close()
        finally:
            untraced.abort()
        traced = Child(workload, seed, "trace", smoke, deadline)
        passes.append(json.loads(traced.close()[-1]))
        metrics = dict(passes[1]["layers"])
        traced_ms, untraced_ms = (sum(scaled_op_ms(r)) for r in reversed(passes))
        metrics["trace.overhead"] = traced_ms / untraced_ms
        units = {k: unit_of(k) for k in metrics}
    else:
        passes, shorts, setups = run_passes(workload, seed, seconds, smoke, began, deadline)
        # Every pass runs the same ops from the same state.  An op's time
        # is its median over the passes, each scaled to the reference speed.
        times: list[list[float]] = [[] for _ in passes[0]["op_ms"]]
        for r in passes + shorts:
            for k, t in enumerate(scaled_op_ms(r)):
                times[k].append(t)
        op_times = [statistics.median(ts) for ts in times]
        ops = [t for t, sample in zip(op_times, passes[0]["timed"]) if sample]
        metrics = {
            "wall_s": sum(op_times) / 1e3,
            "setup_s": statistics.median(c.setup_s for c in setups),
            "op_ms.p50": statistics.median(ops),
            "op_ms.p95": percentile(ops, 95),
            "peak_rss_mb": max(r["rss_mb"] for r in passes),
        }
        units = UNITS
    attempted = sum(r["attempted"] for r in passes + shorts)
    failed = sum(r["failed"] for r in passes + shorts)
    return {
        "workload": workload,
        "problems": check(workload, seed, passes, shorts, smoke),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "units": units,
        "pass_walls": [r["wall_s"] for r in passes],
        "setups": len(setups),
        "speed": statistics.median(REFERENCE_S * 1e3 / ref for r in passes for ref in r["ref_ms"]),
        "short_passes": len(shorts),
        "op_samples": sum(passes[-1]["timed"]),
        "digest": passes[-1]["digest"],
        "spans": passes[-1].get("spans"),
        "untraced_targets": passes[-1].get("untraced_targets", []),
        "elapsed_s": time.perf_counter() - began,
    }


def unit_of(metric: str) -> str:
    if metric.endswith(".calls") or metric in ("laurent.mul.term_pairs", "laurent.peak_terms"):
        return "count"
    if metric.endswith("_ratio") or metric == "trace.overhead":
        return "ratio"
    return "s"


def report(res: dict, trace: bool) -> None:
    w = res["workload"]
    ratio = res["failed"] / res["attempted"]
    walls = " ".join(f"{x:.3f}" for x in res["pass_walls"])
    print(f"[{w}] pass walls (s, unscaled): {walls}; host speed {res['speed']:.3f} of the "
          f"reference; short passes={res['short_passes']} setups={res['setups']} "
          f"op_samples={res['op_samples']} digest={res['digest']} elapsed={res['elapsed_s']:.1f}s")
    for name, value in res["metrics"].items():
        print(f"[{w}] {name} {value:.6g} {res['units'][name]}")
    print(f"[{w}] failed_ratio {ratio:.6g} ratio ({res['failed']} failed of {res['attempted']})")
    if trace:
        m = res["metrics"]
        total = sum(m[f"{layer}.self_s"] for layer in LAYERS)
        print(f"[{w}] spans={res['spans']} traced self time {total:.3f}s; shares: " + ", ".join(
            f"{layer} {m[f'{layer}.self_s'] / total:.0%}" for layer in LAYERS))
        if res["untraced_targets"]:
            print(f"[{w}] not traced (missing): {', '.join(res['untraced_targets'])}")
    for problem in res["problems"]:
        print(f"[{w}] WRONG: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one pass, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "qkseidel", "__init__.py")):
        print("perfbench: run from the root of a qkseidel checkout (no src/qkseidel here)",
              file=sys.stderr)
        return 2

    print(f"python {platform.python_version()} nproc {os.cpu_count()} "
          f"loadavg {' '.join(f'{x:.2f}' for x in os.getloadavg())} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [measure(n, args.seed, args.seconds, bool(args.trace), args.smoke)
                   for n in names]
    except ChildError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for res in results:
        report(res, bool(args.trace))
    correct = not any(res["problems"] or res["failed"] for res in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
        units = results[0]["units"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()}
        units = {f"{r['workload']}/{k}": u for r in results for k, u in r["units"].items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
