"""Command-line front end.

The subcommands are one table, `_COMMANDS`: name, help, handler and
arguments, from which `_build_parser` adds each subparser (every one ends
with `--format`). A handler reads its input files through the one loader
`_load` and ends with `_emit`, which prints the payload as JSON or through
the handler's text renderer.

Exit codes: 0 success, 1 domain rejection (e.g. a form that is not an
incidence form), 2 malformed input or usage error, 3 an internal check
failed (a bug: please report the input).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import bidigraph as bg
from . import classify, gentle, roots_dioph, walks
from .errors import BidiformsError, InvalidInput
from .qform import IntegralQuadraticForm, analyze

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

EXIT_CODES = (
    "Exit codes: 0 success, 1 domain rejection, 2 malformed input or usage error, "
    "3 an internal check failed."
)


class _InputError(Exception):
    pass


def _load(cls, path):
    """`cls.from_json_dict` of the JSON file at `path`; an unreadable or malformed
    file is an `_InputError` (exit 2)."""
    try:
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))
    except (OSError, json.JSONDecodeError) as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    except InvalidInput as exc:
        raise _InputError(str(exc)) from exc


def _emit(payload: dict, fmt: str, text_renderer) -> int:
    if fmt == "text":
        print(text_renderer(payload))
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def _form_text(q: IntegralQuadraticForm) -> str:
    terms = []
    for i, d in enumerate(q.diag, start=1):
        if d:
            terms.append((d, f"x{i}^2"))
    for (i, j), v in q.off.items():
        terms.append((v, f"x{i}x{j}"))
    if not terms:
        return "0"
    out = []
    for k, (coef, mono) in enumerate(terms):
        mag = abs(coef)
        body = f"{'' if mag == 1 else mag}{mono}"
        if k == 0:
            out.append(body if coef > 0 else f"-{body}")
        else:
            out.append(f"{'+' if coef > 0 else '-'} {body}")
    return " ".join(out)


def _graph_text(B: bg.BidirectedGraph) -> str:
    kinds = {(1, -1): "->", (-1, 1): "<-", (1, 1): "|-|", (-1, -1): "<->"}
    lines = [f"vertices: {B.m}"]
    for i in range(1, B.n + 1):
        (u, e), (u2, e2) = B.arrow_ends(i)
        lines.append(f"arrow {i}: {u} {kinds[(e, e2)]} {u2}")
    return "\n".join(lines)


def _bigraph_text(delta) -> str:
    lines = [f"vertices: {delta.n}"]
    for (i, j), (mult, sign) in delta.edges.items():
        style = "dotted" if sign > 0 else "solid"
        kind = "loop" if i == j else "edge"
        lines.append(f"{kind} {i}--{j}: {mult} {style}")
    return "\n".join(lines)


# -- subcommand handlers -----------------------------------------------------


def _cmd_qf_info(args):
    q = _load(IntegralQuadraticForm, args.form)
    rep = analyze(q)
    payload = {
        "n": q.n,
        "rank": rep.rank,
        "corank": rep.corank,
        "non_negative": rep.non_negative,
        "connected": rep.connected,
        "irreducible": rep.irreducible,
        "unit": rep.unit,
        "semi_unit": rep.semi_unit,
        "cox_regular": rep.cox_regular,
        "fully_regular": rep.fully_regular,
        "classic": rep.classic,
        "dotted_loops": rep.dotted_loops,
        "radical_basis": [list(v) for v in rep.radical_basis],
        "dynkin": None,
    }
    try:
        typ, _ = classify.dynkin_type(q)
        payload["dynkin"] = str(typ)
    except BidiformsError as exc:
        payload["dynkin_note"] = str(exc)

    def render(p):
        lines = [f"q(x) = {_form_text(q)}"]
        for k in ("rank", "corank", "dynkin"):
            lines.append(f"{k}: {p[k]}")
        if "dynkin_note" in p:
            lines[-1] += f" ({p['dynkin_note']})"
        flags = [k for k in ("non_negative", "connected", "irreducible", "unit",
                             "cox_regular", "fully_regular", "classic") if p[k]]
        lines.append("flags: " + (", ".join(flags) if flags else "none"))
        return "\n".join(lines)

    return _emit(payload, args.format, render)


def _cmd_qf_realize(args):
    q = _load(IntegralQuadraticForm, args.form)
    B = classify.realize(q)
    payload = B.to_json_dict()
    return _emit(payload, args.format, lambda p: _graph_text(B))


def _cmd_qf_canonical_c(args):
    q = _load(IntegralQuadraticForm, args.form)
    T, r, c1, c2 = classify.canonical_c(q)
    payload = {"r": r, "c1": c1, "c2": c2, "transform": T.to_json_dict()}
    return _emit(
        payload,
        args.format,
        lambda p: f"canonical extension: r={r}, c1={c1}, c2={c2}\n"
        f"steps: {' '.join(_step_text(s) for s in T.steps)}",
    )


def _step_text(step):
    if step[0] == "gabrielov":
        return f"T_{step[1]},{step[2]}"
    if step[0] == "sign":
        return f"T_{step[1]}"
    return f"P{step[1]}"


def _cmd_qf_solve(args):
    if args.d < 0:
        raise _InputError("argument -d: d must be >= 0")
    if args.bound is not None and args.bound < 0:
        raise _InputError("argument --bound: bound must be >= 0")
    q = _load(IntegralQuadraticForm, args.form)
    rep = roots_dioph.solve(q, args.d, bound=args.bound)
    payload = {"d": rep.d, "x": list(rep.x), "strategy": rep.strategy}
    return _emit(payload, args.format, lambda p: f"x = {list(rep.x)}  ({rep.strategy})")


def _cmd_bg_form(args):
    B = _load(bg.BidirectedGraph, args.graph)
    q = B.incidence_form()
    payload = q.to_json_dict()
    return _emit(payload, args.format, lambda p: _form_text(q))


def _cmd_bg_balance(args):
    B = _load(bg.BidirectedGraph, args.graph)
    rep = bg.balance(B)
    payload = {
        "beta": rep.beta,
        "witness": _walk_seq_text(rep.witness) if rep.witness else None,
        "quiver_switch": (
            {"signs": list(rep.quiver_switch.signs), "perm": list(rep.quiver_switch.perm)}
            if rep.quiver_switch
            else None
        ),
    }
    return _emit(
        payload,
        args.format,
        lambda p: f"beta = {p['beta']}"
        + (f"\nnegative closed walk: {p['witness']}" if p["witness"] else "")
        + (f"\nquiver switch signs: {p['quiver_switch']['signs']}" if p["quiver_switch"] else ""),
    )


def _walk_seq_text(seq):
    return " ".join(str(t) for t in seq)


def _cmd_bg_roots(args):
    if args.max_len is not None and args.max_len < 0:
        raise _InputError("argument --max-len: length must be >= 0")
    B = _load(bg.BidirectedGraph, args.graph)
    cap = 2 * (B.n + B.m) if args.max_len is None else args.max_len
    vectors = walks.theorem_c_roots(B, args.set, cap).vectors
    payload = {"set": args.set, "max_len": cap, "vectors": sorted(map(list, vectors))}
    return _emit(
        payload,
        args.format,
        lambda p: "\n".join(str(v) for v in p["vectors"]) or "(empty)",
    )


def _cmd_bg_line(args):
    B = _load(bg.BidirectedGraph, args.graph)
    delta = B.line_bigraph()
    payload = {
        "vertices": delta.n,
        "edges": [[i, j, mult, sign] for (i, j), (mult, sign) in delta.edges.items()],
    }
    return _emit(payload, args.format, lambda p: _bigraph_text(delta))


def _cmd_bg_switch_equiv(args):
    B1 = _load(bg.BidirectedGraph, args.graph)
    B2 = _load(bg.BidirectedGraph, args.graph2)
    O = bg.switching_equivalent(B1, B2)
    payload = {
        "equivalent": O is not None,
        "signs": list(O.signs) if O else None,
        "perm": list(O.perm) if O else None,
    }
    return _emit(
        payload,
        args.format,
        lambda p: "switching equivalent: "
        + ("yes" if p["equivalent"] else "no")
        + (f"\nsigns: {p['signs']}\nperm: {p['perm']}" if p["equivalent"] else ""),
    )


def _cmd_gentle_euler(args):
    pres = _load(gentle.GentlePresentation, args.quiver)
    rep = gentle.euler_pipeline(pres)
    payload = {
        "cartan": rep.cartan.to_lists(),
        "form": rep.form.to_json_dict(),
        "incidence": rep.incidence.to_lists(),
        "graph": rep.graph.to_json_dict(),
        "components": [
            {"variables": list(vs), "dynkin": label, "corank": crk}
            for vs, label, crk in rep.components
        ],
    }
    return _emit(
        payload,
        args.format,
        lambda p: f"Euler form: {_form_text(rep.form)}\n"
        f"Cartan: {p['cartan']}\n"
        + "\n".join(
            f"component {c['variables']}: {c['dynkin']} (corank {c['corank']})"
            for c in p["components"]
        ),
    )


# -- verify ------------------------------------------------------------------


def _verify_checks(bundle: Path):
    def load(cls, name):
        p = bundle / name
        if not p.exists():
            raise _InputError(f"missing fixture {p}")
        return _load(cls, p)

    def check_example_pair():
        B = load(bg.BidirectedGraph, "three_vertex_graph.json")
        Bp = load(bg.BidirectedGraph, "path_quiver.json")
        q = B.incidence_form()
        ok = q == Bp.incidence_form()
        ok &= q.gram().to_lists() == [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
        ok &= bg.balance(B).beta == 0 and bg.balance(Bp).beta == 1
        ok &= bg.rank_corank(B) == (3, 0) and bg.rank_corank(Bp) == (3, 0)
        return ok

    def check_root_sets():
        B = load(bg.BidirectedGraph, "three_vertex_graph.json")
        ones = walks.theorem_c_roots(B, 1, 8).vectors
        twos = walks.theorem_c_roots(B, 2, 10).vectors
        q = B.incidence_form()
        ok = len(ones) == 12 and len(twos) == 6
        ok &= ones == walks.brute_force_roots(q, 1, 3).vectors
        ok &= twos == walks.brute_force_roots(q, 2, 3).vectors
        return ok

    def check_algo_pipeline():
        q = load(IntegralQuadraticForm, "typec_rank3_form.json")
        B = classify.realize(q)
        ok = B.incidence_form() == q and B.m == 3 and B.n == 4
        ok &= len(B.bidirected_loops()) == 1
        T, r, c1, c2 = classify.canonical_c(q)
        ok &= (r, c1, c2) == (3, 1, 0)
        target = bg.canonical_c(3, 1, 0).incidence_form()
        ok &= (T.matrix.transpose() @ q.gram() @ T.matrix) == target.gram()
        return ok

    def check_universality():
        q = load(IntegralQuadraticForm, "c4_form.json")
        for d in range(0, 60):
            if q.evaluate(roots_dioph.solve(q, d).x) != d:
                return False
        bridge = roots_dioph.LAGRANGE_BRIDGE
        lag = bridge.transpose() @ q.gram() @ bridge
        ok = lag.to_lists() == [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]]
        ok &= bridge.det() == 2
        a4 = IntegralQuadraticForm([1] * 4, {(1, 2): -1, (2, 3): -1, (3, 4): -1})
        ok &= a4.evaluate((0, 5, 1, 14)) == 203
        ok &= a4.evaluate((1, 0, 0, 17)) == 290
        return ok

    def check_gentle():
        pres = load(gentle.GentlePresentation, "gentle_loop_pair.json")
        rep = gentle.euler_pipeline(pres)
        ok = rep.cartan.to_lists() == [[1, 1], [1, 2]]
        ok &= rep.incidence.to_lists() == [[2, 0], [-1, 1]]
        ok &= rep.form == IntegralQuadraticForm([2, 1], {(1, 2): -2})
        ok &= rep.components[0][1] == "C2"
        k = load(gentle.GentlePresentation, "gentle_k.json")
        ok &= gentle.euler_pipeline(k).form == IntegralQuadraticForm([1])
        return ok

    def check_classification():
        for r, c, fam in ((3, 1, "A"), (4, 0, "D")):
            maker = bg.canonical_a if fam == "A" else bg.canonical_d
            q = maker(r, c).incidence_form()
            typ, crk = classify.dynkin_type(q)
            if (typ.family, typ.rank, crk) != (fam, r, c):
                return False
        q = bg.canonical_c(3, 1, 1).incidence_form()
        typ, crk = classify.dynkin_type(q)
        return (typ.family, typ.rank, crk) == ("C", 3, 2)

    return {
        "example-pair": check_example_pair,
        "root-sets": check_root_sets,
        "algo-pipeline": check_algo_pipeline,
        "universality": check_universality,
        "gentle": check_gentle,
        "classification": check_classification,
    }


def _cmd_verify(args):
    bundle = Path(args.bundle)
    if not bundle.is_dir():
        raise _InputError(f"fixture directory {bundle} not found")
    checks = _verify_checks(bundle)
    if args.only:
        checks = {k: v for k, v in checks.items() if args.only in k}
        if not checks:
            raise _InputError(f"no verify check matches {args.only!r}")
    failures = 0
    for name, fn in checks.items():
        reason = ""
        try:
            ok = fn()
        except _InputError:
            raise
        except Exception as exc:
            ok = False
            reason = f": {type(exc).__name__}: {exc}"
        print(f"{'PASS' if ok else 'FAIL'}  {name}{reason}")
        failures += 0 if ok else 1
    return EXIT_OK if failures == 0 else EXIT_DOMAIN


# -- parser ------------------------------------------------------------------


_COMMANDS = (  # (name, help, handler, {argument: add_argument options})
    ("qf-info", "analyze a quadratic form", _cmd_qf_info, {"form": {}}),
    ("qf-realize", "realize a form as an incidence form", _cmd_qf_realize, {"form": {}}),
    ("qf-canonical-c", "reduce a type-C form to its canonical extension", _cmd_qf_canonical_c,
     {"form": {}}),
    ("qf-solve", "find x with q(x) = d", _cmd_qf_solve,
     {"form": {}, "-d": {"type": int, "required": True}, "--bound": {"type": int}}),
    ("bg-form", "incidence form of a bidirected graph", _cmd_bg_form, {"graph": {}}),
    ("bg-balance", "balance flag, witness walk, quiver switch", _cmd_bg_balance, {"graph": {}}),
    ("bg-roots", "walk-generated d-roots", _cmd_bg_roots,
     {"graph": {}, "--set": {"type": int, "choices": (0, 1, 2), "default": 1},
      "--max-len": {"type": int}}),
    ("bg-line", "line bigraph of a bidirected graph", _cmd_bg_line, {"graph": {}}),
    ("bg-switch-equiv", "decide switching equivalence", _cmd_bg_switch_equiv,
     {"graph": {}, "graph2": {}}),
    ("gentle-euler", "Euler form pipeline of a gentle presentation", _cmd_gentle_euler,
     {"quiver": {}}),
    ("verify", "run the bundled golden checks", _cmd_verify,
     {"bundle": {"nargs": "?", "default": "fixtures"}, "--only": {}}),
)


def _build_parser():
    p = argparse.ArgumentParser(
        prog="bidiforms",
        description="Integral quadratic forms via bidirected graphs",
        epilog=EXIT_CODES,
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, help_text, handler, arguments in _COMMANDS:
        sp = sub.add_parser(name, help=help_text)
        for arg, options in arguments.items():
            sp.add_argument(arg, **options)
        sp.add_argument("--format", choices=("json", "text"), default="json")
        sp.set_defaults(fn=handler)
    return p


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BidiformsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except AssertionError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
