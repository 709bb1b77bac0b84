"""One cold benchmark process: set up a workload, signal ready, run passes.

Usage (from the root of a qkseidel checkout; run.py starts it):

    python3 perfbench/child.py --workload theorem-d5 --seed 1 --mode serve

The child prints ``ready`` when set-up is done, with the mean time of the
reference loop over set-up and the time its samples took.  Modes: ``setup``
then exits; ``serve`` runs one untraced pass for each ``pass`` line it reads
on standard input (``pass N``: a short pass over the first N ops), each in a
forked copy of itself, so every pass starts from the state set-up left, and
prints one JSON line per pass; ``trace`` installs the tracer before set-up,
runs one pass in-process and prints one JSON line with the per-layer
figures.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOAD_CLASSES, SpeedProbe  # noqa: E402

SPAN_DIR = ".perfbench"


def import_package():
    """Import qkseidel from ./src of the current checkout, cold."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "qkseidel", "__init__.py")):
        sys.exit("perfbench: no src/qkseidel in the current directory")
    sys.path.insert(0, src)
    import qkseidel
    import qkseidel.nilhecke  # noqa: F401  (not imported by the package itself)

    info = qkseidel.build_root_system.cache_info()
    if info.hits or info.misses:
        raise RuntimeError(f"build_root_system cache is warm before set-up: {info}")
    return qkseidel


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of a traced pass (set-up included)."""
    t = tracer.totals()

    def row(label: str) -> dict:
        return t.get(label, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    m: dict[str, float] = {"rootsys.weyl_group.s": row("rootsys.weyl_group")["total_s"]}
    for label in (
        "rootsys.mul", "rootsys.descent_set", "affine.ext_length", "affine.mul",
        "laurent.mul", "laurent.act_exponents", "nilhecke.braid", "nilhecke.group_mul",
        "peterson.verify", "peterson.star_s", "seidel.datum", "seidel.quantum_exponent",
        "qk.pushforward", "qk.minrep_w",
    ):
        m[f"{label}.calls"] = row(label)["calls"]
        m[f"{label}.self_s"] = row(label)["self_s"]
    m["rootsys.act_root.calls"] = tracer.counts.get("rootsys.act_root", 0)
    ext_calls = row("affine.ext_length")["calls"]
    m["affine.ext_length.fresh_ratio"] = len(tracer.ext_seen) / ext_calls if ext_calls else 0.0
    m["laurent.mul.term_pairs"] = tracer.term_pairs
    m["laurent.peak_terms"] = tracer.peak_terms
    div_calls = row("laurent.divide_exact")["calls"]
    m["laurent.divide_exact.calls"] = div_calls
    m["laurent.divide_exact.ok_ratio"] = tracer.divide_ok / div_calls if div_calls else 0.0
    m["qk.commutes.self_s"] = row("qk.commutes")["self_s"]
    m["qk.product_parabolic.self_s"] = row("qk.product_parabolic")["self_s"]
    products = row("qk.seidel_product")["calls"]
    m["qk.seidel_product.calls"] = products
    m["qk.registry_hit_ratio"] = (
        1 - row("peterson.verify")["calls"] / products if products else 0.0
    )
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            r["self_s"] for label, r in t.items() if label.startswith(layer + ".")
        )
    return m


def pass_result(workload, limit: int | None = None, probe: SpeedProbe | None = None) -> dict:
    latencies, references, timed, results = workload.run(limit, probe)
    return {"wall_s": sum(latencies) / 1e3, "op_ms": latencies, "ref_ms": references,
            "timed": timed,
            "short_pass_ops": workload.short_pass_ops, **workload.verdicts(results)}


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def forked_pass(workload, limit: int | None) -> dict:
    """One untraced pass, over the first ``limit`` ops or all, in a forked
    copy of this process.

    The fork starts from the state set-up left, with the module-level caches
    the work fills still cold.  An exception other than the workload's own
    failures ends the fork with a traceback, and the run with it.
    """
    sys.stdout.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 1
        try:
            with SpeedProbe() as probe:
                out = pass_result(workload, limit, probe)
            out["rss_mb"] = rss_mb()
            with os.fdopen(write_fd, "w") as fh:
                json.dump(out, fh)
            code = 0
        except BaseException:
            traceback.print_exc()
            sys.stderr.flush()
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"pass process ended with status {status}")
    return json.loads(data)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_CLASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "serve", "trace"))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    # A traced child samples no speed within set-up, where the samples would
    # add to the spans' self times.
    probe = SpeedProbe()
    with probe if args.mode != "trace" else contextlib.nullcontext():
        probe.sample()
        qkseidel = import_package()
        tracer = Tracer() if args.mode == "trace" else None
        if tracer is not None:
            tracer.install()
        workload = WORKLOAD_CLASSES[args.workload](qkseidel, args.seed, args.smoke)
        probe.sample()
    speed = {"reference_s": statistics.mean(probe.samples), "spent_s": probe.spent}
    print("ready", json.dumps(speed), flush=True)

    if args.mode == "serve":
        for line in sys.stdin:
            request = line.split()
            if request[:1] != ["pass"] or len(request) > 2:
                raise RuntimeError(f"unknown request {line!r}")
            limit = int(request[1]) if len(request) == 2 else None
            print(json.dumps(forked_pass(workload, limit)), flush=True)
    if tracer is None:
        return 0
    out = pass_result(workload)
    tracer.uninstall()
    out["layers"] = layer_metrics(tracer)
    out["spans"] = len(tracer)
    out["span_problems"] = tracer.problems()
    out["untraced_targets"] = tracer.missing
    os.makedirs(SPAN_DIR, exist_ok=True)
    tracer.write(os.path.join(SPAN_DIR, f"spans-{args.workload}.bin"))
    out["rss_mb"] = rss_mb()
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
