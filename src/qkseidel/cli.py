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
from .qk import class_text, parabolic_data, seidel_product_parabolic, verify_pushforward_commutes
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
    type_label, rank, verified, details, *, node=None, w_word=(), q_exponent=(), product_word=()
) -> dict:
    """The one JSON record every command emits; an unused field stays null or empty."""
    return {
        "type": type_label,
        "rank": rank,
        "node": node,
        "w_word": list(w_word),
        "q_exponent": list(q_exponent),
        "product_word": list(product_word),
        "verified": verified,
        "details": details,
    }


def _word_text(word) -> str:
    return ",".join(map(str, word)) or "e"


def _q_latex(d) -> str:
    return "".join(f"Q_{j + 1}" + (f"^{{{c}}}" if c > 1 else "") for j, c in enumerate(d) if c)


def _class_latex(d, word) -> str:
    q = _q_latex(d)
    if not word:
        return q or "1"
    o = "\\mathcal{O}^{" + "".join(f"s_{j}" for j in word) + "}"
    return q + o


# ------------------------------------------------------------------- commands
# Each command writes its own text or LaTeX form and returns its JSON records;
# `main` writes the JSON and reads the exit status from the records.


def cmd_table(args, out) -> list[dict]:
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
        rows.append(_report(
            rs.type_label, rs.rank, verified, details,
            node=i, w_word=w.reduced_word(), q_exponent=d, product_word=product,
        ))

    if args.format == "latex":
        body_rows = [r for r in rows if r["w_word"]]
        cols = " & ".join(_class_latex((), r["w_word"]) for r in body_rows)
        vals = " & ".join(_class_latex(r["q_exponent"], r["product_word"]) for r in body_rows)
        out.write("\\begin{array}{c|" + "c" * len(body_rows) + "}\n")
        out.write(f"w & {cols} \\\\\n\\hline\n")
        out.write(f"\\mathcal{{O}}^{{v_{i}}} \\cdot v_{i}^L \\mathcal{{O}}^w & {vals}\n")
        out.write("\\end{array}\n")
    elif args.format == "text":
        for r in rows:
            res = class_text(r["q_exponent"], r["product_word"])
            state = "ok" if r["verified"] else "FAILED"
            out.write(f"w={_word_text(r['w_word']):<16} -> {res:<32} [{state}]\n")
    return rows


def cmd_verify(args, out) -> list[dict]:
    rs = build_root_system(args.type, args.rank)
    if args.parabolic is not None:
        p = parabolic_data(rs, _parse_word(args.parabolic))
        details = {"check": "pushforward-commutation", "parabolic": sorted(p.subset)}
        report = _report(rs.type_label, rs.rank, verify_pushforward_commutes(p), details)
        line = f"{details['check']} subset={details['parabolic']}"
    else:
        if args.node is None or args.word is None:
            raise ValueError("verify requires --node and --word (or --parabolic)")
        w = weyl_from_word(rs, _parse_word(args.word))
        rep = verify_seidel_theorem(rs, args.node, w)
        key = verify_key_lemma(rs, args.node, w)
        group = verify_group_lemma(rs, args.node, w)
        report = _report(
            rs.type_label, rs.rank, rep.passed and bool(key) and group,
            {"checks": dict(rep.checks), "key_lemma": bool(key), "group_lemma": group},
            node=args.node, w_word=w.reduced_word(),
            q_exponent=rep.q_exponent, product_word=rep.product_word,
        )
        res = class_text(report["q_exponent"], report["product_word"])
        line = f"node={args.node} w={_word_text(report['w_word'])}: {res}"

    if args.format == "latex":
        res = _class_latex(report["q_exponent"], report["product_word"])
        out.write(f"% verified: {report['verified']}\n{res}\n")
    elif args.format == "text":
        out.write(("PASS " if report["verified"] else "FAIL ") + line + "\n")
    return [report]


def cmd_element(args, out) -> list[dict]:
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
    if args.format == "text":
        out.write(f"type {rs.type_label} rank {rs.rank}\n")
        out.write(f"word: {_word_text(w.reduced_word())}\n")
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
        out.write(f"grassmannian key: sigma={sig_txt}, affine word={_word_text(affine_word)}\n")
    return [_report(rs.type_label, rs.rank, True, details, w_word=w.reduced_word())]


def _timed_unit(unit: tuple[str, str, int]):
    start = time.perf_counter()
    return run_sweep_unit(unit), time.perf_counter() - start


def cmd_sweep(args, out) -> list[dict]:
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

    if args.format == "text":
        for res in results:
            out.write(res.summary() + "\n")
        ok = all(res.passed for res in results)
        out.write(("all sweeps passed" if ok else "SWEEPS FAILED") + f" ({len(results)} units)\n")
    return [
        _report(
            res.type_label, res.rank, res.passed,
            {"sweep": res.name, "total": res.total, "failures": list(res.failures)},
        )
        for res in results
    ]


# ----------------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkseidel",
        description="Seidel products in equivariant quantum K-theory, verified exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("json", "latex", "text"), required=True):
        p.add_argument("--type", required=required, choices=list("ABCDEFG"),
                       help="Cartan type" if required else "filter by type")
        p.add_argument("--rank", required=required, type=int,
                       help="rank" if required else "filter by rank")
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
    common(s, formats=("json", "text"), required=False)
    s.add_argument("--jobs", default=1, type=int, help="parallel worker processes")
    s.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    saved_budget = get_term_budget()
    try:
        if args.budget is not None:
            set_term_budget(args.budget)
        # the report goes to --out only once the command returns, so a command that
        # raises leaves an existing file as it was
        out = sys.stdout if args.out is None else io.StringIO()
        reports = args.func(args, out)
        if args.format == "json":
            out.write(canonical_json(reports))
        if args.out is not None:
            try:
                with open(args.out, "w", encoding="utf-8") as handle:
                    handle.write(out.getvalue())
            except OSError as exc:
                raise ValueError(f"cannot write {args.out}: {exc.strerror or exc}") from exc
        return 0 if all(r["verified"] for r in reports) else 1
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
