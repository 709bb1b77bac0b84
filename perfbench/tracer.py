"""Spans around qkseidel's layer entry points, installed from outside the package.

Methods are wrapped on their class.  Functions are wrapped at every module
binding, because the package binds names with ``from .x import y``: the
``qk`` module, for one, holds its own ``verify_seidel_theorem``.

A span is (name, start, end, parent).  Spans are kept in flat arrays in
memory and written out once, at the end.  A span's self time is its
duration minus the durations of its direct children; calls on one thread
nest, so the children never overlap.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# (layer.metric name, module, class or None, attribute, kind)
# kind "span" records a span; "count" only counts calls.
TARGETS = (
    ("rootsys.weyl_group", "qkseidel.rootsys", "RootSystem", "weyl_group", "span"),
    ("rootsys.mul", "qkseidel.rootsys", "WeylElement", "__mul__", "span"),
    ("rootsys.descent_set", "qkseidel.rootsys", "WeylElement", "descent_set", "span"),
    ("rootsys.act_root", "qkseidel.rootsys", "WeylElement", "act_root", "count"),
    ("affine.ext_length", "qkseidel.affine", "ExtAffineWeylElement", "ext_length", "span"),
    ("affine.mul", "qkseidel.affine", "ExtAffineWeylElement", "__mul__", "span"),
    ("laurent.mul", "qkseidel.laurent", "LaurentPoly", "__mul__", "span"),
    ("laurent.divide_exact", "qkseidel.laurent", "LaurentPoly", "divide_exact", "span"),
    ("laurent.act_exponents", "qkseidel.laurent", "LaurentPoly", "act_exponents", "span"),
    ("nilhecke.braid", "qkseidel.nilhecke", None, "verify_braid_relation", "span"),
    ("nilhecke.group_mul", "qkseidel.nilhecke", "GroupAlgebraElement", "__mul__", "span"),
    ("peterson.verify", "qkseidel.peterson", None, "verify_seidel_theorem", "span"),
    ("peterson.star_s", "qkseidel.peterson", None, "star_s", "span"),
    ("seidel.datum", "qkseidel.seidel", None, "seidel_datum", "span"),
    ("seidel.quantum_exponent", "qkseidel.seidel", None, "quantum_exponent", "span"),
    ("qk.parabolic_data", "qkseidel.qk", None, "parabolic_data", "span"),
    ("qk.commutes", "qkseidel.qk", None, "verify_pushforward_commutes", "span"),
    ("qk.pushforward", "qkseidel.qk", None, "pushforward", "span"),
    ("qk.minrep_w", "qkseidel.qk", None, "minrep_w", "span"),
    ("qk.product_parabolic", "qkseidel.qk", None, "seidel_product_parabolic", "span"),
    ("qk.seidel_product", "qkseidel.qk", None, "seidel_product", "span"),
)

LAYERS = ("rootsys", "affine", "laurent", "nilhecke", "peterson", "seidel", "qk")


class Tracer:
    """Installs span wrappers, records spans, and restores the originals."""

    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.stack = [-1]
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        # laurent.mul: sum of |a|*|b| and the largest operand or result
        self.term_pairs = 0
        self.peak_terms = 0
        self.divide_ok = 0
        self.ext_seen: set = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _span(self, fn, label: str, observe=None):
        nid = len(self.names)
        self.names.append(label)
        start, end, names, parents, stack = self.start, self.end, self.name, self.parent, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            parents.append(stack[-1])
            names.append(nid)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _count(self, fn, label: str):
        counts = self.counts
        counts[label] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[label] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observer(self, label: str):
        if label == "laurent.mul":
            def observe(args, result):
                a, b = args
                nb = len(b.terms) if hasattr(b, "terms") else 1
                self.term_pairs += len(a.terms) * nb
                if hasattr(result, "terms"):
                    self.peak_terms = max(self.peak_terms, len(a.terms), nb, len(result.terms))
            return observe
        if label == "laurent.divide_exact":
            def observe(args, result):
                self.divide_ok += result is not None
            return observe
        if label == "affine.ext_length":
            seen = self.ext_seen

            def observe(args, result):
                seen.add(args[0])
            return observe
        return None

    def install(self) -> None:
        """Wrap every target that exists; note the ones that do not."""
        for label, modname, clsname, attr, kind in TARGETS:
            module = sys.modules.get(modname)
            owner = getattr(module, clsname, None) if clsname else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(label)
                continue
            if kind == "count":
                wrapped = self._count(original, label)
            else:
                wrapped = self._span(original, label, self._observer(label))
            if clsname:
                # __rmul__ is often the same function object as __mul__
                for name, value in list(vars(owner).items()):
                    if value is original:
                        self._rebind(owner, name, original, wrapped)
            else:
                for mname, mod in list(sys.modules.items()):
                    if mname == "qkseidel" or mname.startswith("qkseidel."):
                        for name, value in list(vars(mod).items()):
                            if value is original:
                                self._rebind(mod, name, original, wrapped)

    def _rebind(self, owner, name, original, wrapped) -> None:
        setattr(owner, name, wrapped)
        self._restore.append((owner, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def self_times(self) -> list[float]:
        n = len(self.start)
        covered = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for k in range(n):
            p = parent[k]
            if p >= 0:
                covered[p] += end[k] - start[k]
        return [end[k] - start[k] - covered[k] for k in range(n)]

    def problems(self, tolerance: float = 1e-9) -> list[str]:
        """Ways in which the span tree is not well formed; empty when it is."""
        out = []
        start, end, parent = self.start, self.end, self.parent
        for k in range(len(start)):
            if end[k] < start[k]:
                out.append(f"span {k} ends before it starts")
            p = parent[k]
            if p >= k:
                out.append(f"span {k} has a later parent {p}")
            elif p >= 0 and (start[k] < start[p] or end[k] > end[p]):
                out.append(f"span {k} lies outside its parent {p}")
        for k, s in enumerate(self.self_times()):
            if s < -tolerance:
                out.append(f"span {k} has negative self time {s}")
        return out[:20]

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        No traced entry point calls itself, so inclusive seconds are the sum
        of the durations.
        """
        out = {label: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for label in self.names}
        rows = [out[label] for label in self.names]
        start, end, name = self.start, self.end, self.name
        for k, s in enumerate(self.self_times()):
            row = rows[name[k]]
            row["calls"] += 1
            row["total_s"] += end[k] - start[k]
            row["self_s"] += s
        return out

    def write(self, path: str) -> None:
        """One JSON header line, then the start, end, name and parent arrays."""
        with open(path, "wb") as fh:
            header = {"names": self.names, "count": len(self.start),
                      "arrays": ["start:d", "end:d", "name:i", "parent:i"]}
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.start, self.end, self.name, self.parent):
                arr.tofile(fh)
