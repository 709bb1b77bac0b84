"""Command-line front end: product tables, verification runs, element inspection.

Four subcommands: `table` reproduces the Seidel product map w -> (Q-exponent,
v_i w) for a special node, `verify` replays a single theorem instance or a
pushforward commutation check, `element` inspects one Weyl element, and
`sweep` runs the exhaustive suites.  Output formats: text, canonical JSON
(sorted keys, two-space indent, byte-stable round trip), and LaTeX tables.
All configuration is by flags; exit status 0 means every requested check
passed, 1 a failed verification, 2 invalid input, 3 a size limit exceeded
(the term budget, or a Weyl group too large to enumerate).
"""
from __future__ import annotations

import argparse
import io
import json
import sys
import time
from contextlib import nullcontext

from .affine import node_action, sigma_decompose
from .errors import SizeLimitError, UnsupportedProductError, VerificationError
from .laurent import get_term_budget, set_term_budget
from .qk import parabolic_data, q_text, seidel_product_parabolic, verify_pushforward_commutes
from .rootsys import build_root_system, weyl_from_word
from .seidel import gamma, grassmannian_key, one_line, verify_group_lemma, verify_key_lemma
from .peterson import verify_seidel_theorem
from .sweeps import default_plan, run_sweep_unit


def _parse_word(text: str) -> tuple[int, ...]:
    text = text.strip()
    if text in ("", "e"):
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse word {text!r}; expected comma-separated integers")


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def _report(
    rs, node, w_word, q_exponent, product_word, verified, details
) -> dict:
    return {
        "type": rs.type_label,
        "rank": rs.rank,
        "node": node,
        "w_word": list(w_word),
        "q_exponent": list(q_exponent),
        "product_word": list(product_word),
        "verified": verified,
        "details": details,
    }


def _class_text(d, word) -> str:
    q = q_text(d)
    o = "O[" + ("*".join(f"s{j}" for j in word) or "e") + "]"
    return f"{q}*{o}" if q else o


def _q_latex(d) -> str:
    return "".join(f"Q_{j + 1}" + (f"^{{{c}}}" if c > 1 else "") for j, c in enumerate(d) if c)


def _class_latex(d, word) -> str:
    q = _q_latex(d)
    if not word:
        return q or "1"
    o = "\\mathcal{O}^{" + "".join(f"s_{j}" for j in word) + "}"
    return q + o


# ------------------------------------------------------------------- commands


def cmd_table(args, out) -> int:
    rs = build_root_system(args.type, args.rank)
    if args.node is None:
        raise ValueError("table requires --node")
    i = args.node
    if args.parabolic is not None:
        p = parabolic_data(rs, _parse_word(args.parabolic))
        index_set = p.minimal_reps
    else:
        p = None
        index_set = rs.weyl_group()

    rows = []
    # both index sets are already in (length, reduced word) order
    for w in index_set:
        if p is None:
            rep = verify_seidel_theorem(rs, i, w)
            d, product, verified = rep.q_exponent, rep.product_word, rep.passed
            details = {"checks": dict(rep.checks)}
        else:
            out_elt = seidel_product_parabolic(rs, i, w, p)
            ((d, x),) = out_elt.terms
            product = x.reduced_word()
            verified = True
            details = {"parabolic": sorted(p.subset), "routes_agree": True}
        rows.append(_report(rs, i, w.reduced_word(), d, product, verified, details))

    ok = all(r["verified"] for r in rows)
    if args.format == "json":
        out.write(canonical_json(rows))
    elif args.format == "latex":
        body_rows = [r for r in rows if r["w_word"]]
        cols = " & ".join(
            "\\mathcal{O}^{" + "".join(f"s_{j}" for j in r["w_word"]) + "}" for r in body_rows
        )
        vals = " & ".join(
            _class_latex(r["q_exponent"], r["product_word"]) for r in body_rows
        )
        out.write("\\begin{array}{c|" + "c" * len(body_rows) + "}\n")
        out.write(f"w & {cols} \\\\\n\\hline\n")
        out.write(f"\\mathcal{{O}}^{{v_{i}}} \\cdot v_{i}^L \\mathcal{{O}}^w & {vals}\n")
        out.write("\\end{array}\n")
    else:
        for r in rows:
            w_txt = ",".join(str(j) for j in r["w_word"]) or "e"
            res = _class_text(r["q_exponent"], r["product_word"])
            state = "ok" if r["verified"] else "FAILED"
            out.write(f"w={w_txt:<16} -> {res:<32} [{state}]\n")
    return 0 if ok else 1


def cmd_verify(args, out) -> int:
    rs = build_root_system(args.type, args.rank)
    if args.parabolic is not None:
        p = parabolic_data(rs, _parse_word(args.parabolic))
        ok = verify_pushforward_commutes(p)
        report = _report(
            rs,
            None,
            (),
            (),
            (),
            ok,
            {"check": "pushforward-commutation", "parabolic": sorted(p.subset)},
        )
        reports = [report]
    else:
        if args.node is None or args.word is None:
            raise ValueError("verify requires --node and --word (or --parabolic)")
        w = weyl_from_word(rs, _parse_word(args.word))
        rep = verify_seidel_theorem(rs, args.node, w)
        key = verify_key_lemma(rs, args.node, w)
        group = verify_group_lemma(rs, args.node, w)
        reports = [
            _report(
                rs,
                args.node,
                w.reduced_word(),
                rep.q_exponent,
                rep.product_word,
                rep.passed and bool(key) and group,
                {
                    "checks": dict(rep.checks),
                    "key_lemma": bool(key),
                    "group_lemma": group,
                },
            )
        ]

    ok = all(r["verified"] for r in reports)
    if args.format == "json":
        out.write(canonical_json(reports))
    elif args.format == "latex":
        for r in reports:
            res = _class_latex(r["q_exponent"], r["product_word"])
            out.write(f"% verified: {r['verified']}\n{res}\n")
    else:
        for r in reports:
            state = "PASS" if r["verified"] else "FAIL"
            if r["node"] is not None:
                w_txt = ",".join(str(j) for j in r["w_word"]) or "e"
                res = _class_text(r["q_exponent"], r["product_word"])
                out.write(f"{state} node={r['node']} w={w_txt}: {res}\n")
            else:
                out.write(f"{state} {r['details']['check']} subset={r['details']['parabolic']}\n")
    return 0 if ok else 1


def cmd_element(args, out) -> int:
    rs = build_root_system(args.type, args.rank)
    if args.word is None:
        raise ValueError("element requires --word")
    w = weyl_from_word(rs, _parse_word(args.word))
    g = gamma(rs, w)
    sigma, affine_word = sigma_decompose(grassmannian_key(rs, w))
    try:
        line = one_line(w)
    except ValueError:
        line = None
    details = {
        "length": w.length(),
        "one_line": list(line) if line is not None else None,
        "descents": list(w.descent_set()),
        "inversions": [list(a) for a in w.inversions()],
        "gamma": list(g),
        "grassmannian_key": {
            "sigma_node": node_action(sigma)[0] or None,
            "affine_word": list(affine_word),
        },
    }
    if args.format == "json":
        out.write(canonical_json([_report(rs, None, w.reduced_word(), (), (), True, details)]))
    else:
        out.write(f"type {rs.type_label} rank {rs.rank}\n")
        out.write("word: " + (",".join(str(j) for j in w.reduced_word()) or "e") + "\n")
        out.write(f"length: {details['length']}\n")
        if line is not None:
            out.write("one_line: " + ",".join(str(v) for v in line) + "\n")
        out.write("descents: " + (",".join(str(j) for j in details["descents"]) or "-") + "\n")
        out.write(
            "inversions: "
            + ("; ".join(",".join(str(c) for c in a) for a in w.inversions()) or "-")
            + "\n"
        )
        out.write("gamma: " + ",".join(str(c) for c in g) + "\n")
        sig = details["grassmannian_key"]
        sig_txt = f"pi_{sig['sigma_node']}" if sig["sigma_node"] is not None else "1"
        word_txt = ",".join(str(j) for j in sig["affine_word"]) or "e"
        out.write(f"grassmannian key: sigma={sig_txt}, affine word={word_txt}\n")
    return 0


def _timed_unit(unit: tuple[str, str, int]):
    start = time.perf_counter()
    return run_sweep_unit(unit), time.perf_counter() - start


def cmd_sweep(args, out) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, not {args.jobs}")
    plan = [
        unit
        for unit in default_plan()
        if (args.type is None or unit[1] == args.type)
        and (args.rank is None or unit[2] == args.rank)
    ]
    if not plan:
        raise ValueError("no sweep units match the requested filters")
    # a fork pool starts all its workers at once, so never more than there are units
    jobs = min(args.jobs, len(plan))
    pool = None
    if jobs > 1:
        # imported here, so that commands without a pool never load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(
            max_workers=jobs, initializer=set_term_budget, initargs=(get_term_budget(),)
        )
    results = []
    with pool or nullcontext():
        for k, (res, seconds) in enumerate((pool.map if pool else map)(_timed_unit, plan), 1):
            sys.stderr.write(f"[{k}/{len(plan)}] {res.name} {res.type_label}{res.rank}"
                             f" {seconds:.3f}s\n")
            results.append(res)

    ok = all(res.passed for res in results)
    if args.format == "json":
        # a SweepResult carries the type_label and rank that _report reads
        payload = [
            _report(
                res,
                None,
                (),
                (),
                (),
                res.passed,
                {"sweep": res.name, "total": res.total, "failures": list(res.failures)},
            )
            for res in results
        ]
        out.write(canonical_json(payload))
    else:
        for res in results:
            out.write(res.summary() + "\n")
        out.write(("all sweeps passed" if ok else "SWEEPS FAILED") + f" ({len(results)} units)\n")
    return 0 if ok else 1


# ----------------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkseidel",
        description="Seidel products in equivariant quantum K-theory, verified exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("json", "latex", "text")):
        p.add_argument("--type", required=True, choices=list("ABCDEFG"), help="Cartan type")
        p.add_argument("--rank", required=True, type=int, help="rank")
        p.add_argument("--format", default="text", choices=formats, help="output format")
        p.add_argument("--out", default=None, help="write the report to this file")
        p.add_argument("--budget", default=None, type=int, help="term budget override")

    t = sub.add_parser("table", help="Seidel product table for a special node")
    common(t)
    t.add_argument("--node", type=int, default=None, help="special node")
    t.add_argument("--parabolic", default=None, help="parabolic subset, comma-separated")
    t.set_defaults(func=cmd_table)

    v = sub.add_parser("verify", help="verify one theorem instance or a parabolic check")
    common(v)
    v.add_argument("--node", type=int, default=None, help="special node")
    v.add_argument("--word", default=None, help="comma-separated word, empty or 'e' for identity")
    v.add_argument("--parabolic", default=None, help="parabolic subset to check instead")
    v.set_defaults(func=cmd_verify)

    e = sub.add_parser("element", help="inspect a Weyl element")
    common(e, formats=("json", "text"))
    e.add_argument("--word", default=None, help="comma-separated word")
    e.set_defaults(func=cmd_element)

    s = sub.add_parser("sweep", help="run exhaustive verification sweeps")
    s.add_argument("--type", default=None, choices=list("ABCDEFG"), help="filter by type")
    s.add_argument("--rank", default=None, type=int, help="filter by rank")
    s.add_argument(
        "--format", default="text", choices=["json", "text"], help="output format"
    )
    s.add_argument("--out", default=None, help="write the report to this file")
    s.add_argument("--budget", default=None, type=int, help="term budget override")
    s.add_argument("--jobs", default=1, type=int, help="parallel worker processes")
    s.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    saved_budget = get_term_budget()
    if args.budget is not None:
        try:
            set_term_budget(args.budget)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        if args.out is None:
            return args.func(args, sys.stdout)
        # the report goes to the file only once the command returns, so a command
        # that raises leaves an existing file as it was
        buffer = io.StringIO()
        code = args.func(args, buffer)
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(buffer.getvalue())
        return code
    except SizeLimitError as exc:
        print(f"size limit exceeded: {exc}", file=sys.stderr)
        return 3
    except (ValueError, UnsupportedProductError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    finally:
        set_term_budget(saved_budget)


if __name__ == "__main__":
    sys.exit(main())
