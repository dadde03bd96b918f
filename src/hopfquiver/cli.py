"""Batch front end: read a problem file, build, verify, compute, and emit
deterministic JSON + text reports.

Exit codes: 0 all requested verifications pass, 1 verification failures,
2 unreadable or malformed problem files, 3 internal errors.

Element expressions (for --lhs/--rhs/--arg) use a minimal grammar:
`a<k>` is the arrow with index k, `g<k>` the vertex k, `*` multiplies and
associates to the LEFT (the algebra is only quasi-associative, so bracketing
matters), and parentheses group subexpressions, e.g. "a0*(a1*g1)".
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from pathlib import Path as FsPath

from .errors import DegreeCapExceeded, HopfQuiverError, IsoCheckFailed, NotSingleVertex, SpecError
from .groups import verify_cocycle
from .majid import MajidStructure, verify_bimodule, verify_majid_axioms
from .pathcoalg import Element
from .problem import KNOWN_TASKS, ProblemSpec, load_problem
from .quiver import connected_components, quiver_to_json, to_dot
from .structure import (
    block_product_check,
    blocks,
    cocommutative_check,
    crossed_product,
    primitives,
    verify_translations,
)

_TOKEN = re.compile(r"\s*(?:(?P<arrow>a\d+)|(?P<vertex>g\d+)|(?P<op>[*()]))")


def parse_element(expr: str, structure: MajidStructure) -> Element:
    """Parse the minimal element grammar; '*' is left-associative."""
    tokens = []
    pos = 0
    while pos < len(expr):
        m = _TOKEN.match(expr, pos)
        if not m or m.end() == pos:
            raise SpecError(f"cannot tokenize element expression at: {expr[pos:]!r}")
        tokens.append(m.group().strip())
        pos = m.end()
    if expr[pos:].strip():
        raise SpecError(f"trailing junk in element expression: {expr[pos:]!r}")

    def parse_expr(i):
        value, i = parse_atom(i)
        while i < len(tokens) and tokens[i] == "*":
            rhs, i = parse_atom(i + 1)
            value = structure.multiply(value, rhs)
        return value, i

    def parse_atom(i):
        if i >= len(tokens):
            raise SpecError("unexpected end of element expression")
        tok = tokens[i]
        if tok == "(":
            value, i = parse_expr(i + 1)
            if i >= len(tokens) or tokens[i] != ")":
                raise SpecError("unbalanced parentheses in element expression")
            return value, i + 1
        if tok.startswith("a"):
            idx = int(tok[1:])
            if idx >= len(structure.quiver.arrows):
                raise SpecError(f"no arrow with index {idx}")
            return structure.arrow(idx), i + 1
        if tok.startswith("g"):
            v = int(tok[1:])
            if v >= structure.group.order:
                raise SpecError(f"no vertex with index {v}")
            return structure.vertex(v), i + 1
        raise SpecError(f"unexpected token {tok!r}")

    value, i = parse_expr(0)
    if i != len(tokens):
        raise SpecError("unbalanced parentheses in element expression")
    return value


def _run_verify(spec: ProblemSpec, structure: MajidStructure) -> dict:
    out = {}
    cocycle_rep = verify_cocycle(spec.group, spec.cocycle)
    out["cocycle"] = cocycle_rep.to_json()
    bimodule_rep = verify_bimodule(spec.group, spec.cocycle, spec.action)
    out["bimodule"] = bimodule_rep.to_json()
    if cocycle_rep.ok and bimodule_rep.ok:
        axiom_rep = verify_majid_axioms(structure, cocycle_report=cocycle_rep)
        out["axioms"] = axiom_rep.to_json()
        out["ok"] = axiom_rep.ok
    else:
        out["axioms"] = {"skipped": "cocycle or bimodule verification failed"}
        out["ok"] = False
    return out


def _run_decompose(spec: ProblemSpec, structure: MajidStructure) -> dict:
    dec = blocks(structure)
    translation = verify_translations(structure)
    products = block_product_check(structure)
    cocomm, witness = cocommutative_check(structure)
    return {
        "decomposition": dec.to_json(),
        "translation": translation.to_json(),
        "block_products": products.to_json(),
        "cocommutative": cocomm,
        "cocommutative_witness": witness.to_json() if witness else None,
        "ok": translation.ok and products.ok,
    }


def _run_crossed_product(spec: ProblemSpec, structure: MajidStructure) -> dict:
    try:
        cp = crossed_product(structure)
    except IsoCheckFailed as exc:
        return {"ok": False, "error": str(exc)}
    data = cp.to_json()
    data["ok"] = cp.iso_report.ok
    return data


def _run_primitives(spec: ProblemSpec, structure: MajidStructure) -> dict:
    try:
        lie = primitives(structure)
    except (NotSingleVertex, DegreeCapExceeded) as exc:
        return {"ok": False, "error": str(exc)}
    data = lie.to_json()
    data["ok"] = lie.report.ok
    return data


def _run_operation(spec: ProblemSpec, exprs: dict, compute) -> dict:
    """A `multiply` or `antipode` task: `compute()` parses the expressions and
    applies the operation.  An expression that needs a degree above the cap
    fails the task, not the run."""
    try:
        value = compute()
    except DegreeCapExceeded as exc:
        return {**exprs, "ok": False, "error": str(exc)}
    text = value.format(spec.quiver)
    print(text)
    return {**exprs, "result": value.to_json(), "text": text, "ok": True}


def run_tasks(spec: ProblemSpec, tasks: tuple[str, ...], args) -> tuple[dict, bool]:
    """Execute tasks in dependency order; returns (report dict, all ok)."""
    structure = spec.structure()
    results: dict = {
        "schema": 1,
        "field_order": spec.ctx.order,
        "group_order": spec.group.order,
        "degree_cap": spec.degree_cap,
        "quiver": {
            "arrows": len(spec.quiver.arrows),
            "components": len(connected_components(spec.quiver).components),
        },
        "tasks": {},
    }
    wanted = [t for t in tasks if t != "report"]
    if "report" in tasks:
        wanted += ["verify", "decompose", "crossed_product"]
        if spec.quiver.num_vertices == 1:
            wanted.append("primitives")
    ordered = [t for t in KNOWN_TASKS if t in wanted]
    all_ok = True
    for task in ordered:
        if task == "verify":
            res = _run_verify(spec, structure)
        elif task == "multiply":
            if not (args and args.lhs and args.rhs):
                raise SpecError("task 'multiply' needs --lhs and --rhs expressions")
            res = _run_operation(spec, {"lhs": args.lhs, "rhs": args.rhs},
                                 lambda: structure.multiply(parse_element(args.lhs, structure),
                                                            parse_element(args.rhs, structure)))
        elif task == "antipode":
            if not (args and args.arg):
                raise SpecError("task 'antipode' needs an --arg expression")
            res = _run_operation(spec, {"arg": args.arg},
                                 lambda: structure.antipode(parse_element(args.arg, structure)))
        elif task == "decompose":
            res = _run_decompose(spec, structure)
        elif task == "crossed_product":
            res = _run_crossed_product(spec, structure)
        elif task == "primitives":
            res = _run_primitives(spec, structure)
        results["tasks"][task] = res
        all_ok = all_ok and bool(res.get("ok", True))
    results["ok"] = all_ok
    return results, all_ok


def _text_summary(results: dict) -> str:
    lines = [
        "hopfquiver report",
        f"field order: {results['field_order']}  group order: {results['group_order']}"
        f"  degree cap: {results['degree_cap']}",
        f"quiver: {results['quiver']['arrows']} arrows,"
        f" {results['quiver']['components']} component(s)",
    ]
    for task, res in results["tasks"].items():
        status = "PASS" if res.get("ok", True) else "FAIL"
        lines.append(f"[{status}] task {task}")
        for key, sub in res.items():
            if isinstance(sub, dict) and "violations" in sub:
                nviol = len(sub["violations"])
                nchecked = sum(sub.get("checked", {}).values())
                lines.append(f"    {key}: {nchecked} checked, {nviol} violation(s)")
                for v in sub["violations"][:5]:
                    lines.append(f"      {v['check']} at {v['witness']}")
        if "text" in res:
            lines.append(f"    result: {res['text']}")
        if "error" in res:
            lines.append(f"    error: {res['error']}")
    lines.append("overall: " + ("PASS" if results["ok"] else "FAIL"))
    return "\n".join(lines) + "\n"


def _write_reports(results: dict, out_dir: str) -> tuple[FsPath, FsPath]:
    out = FsPath(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    json_path = out / "report.json"
    text_path = out / "report.txt"
    json_path.write_text(json.dumps(results, sort_keys=True, indent=2) + "\n")
    text_path.write_text(_text_summary(results))
    return json_path, text_path


def _cmd_run(args) -> int:
    spec = load_problem(args.spec)
    if args.degree_cap is not None:
        spec = spec.with_degree_cap(args.degree_cap)
    tasks = tuple(args.task) if args.task else spec.tasks
    results, all_ok = run_tasks(spec, tasks, args)
    json_path, text_path = _write_reports(results, args.out)
    if args.format == "json":
        print(json.dumps(results, sort_keys=True, indent=2))
    else:
        sys.stdout.write(_text_summary(results))
    print(f"reports written to {json_path} and {text_path}", file=sys.stderr)
    return 0 if all_ok else 1


def _cmd_export_quiver(args) -> int:
    spec = load_problem(args.spec)
    if args.format == "dot":
        payload = to_dot(spec.quiver)
    else:  # "json"; argparse rejects any other --format
        payload = json.dumps(quiver_to_json(spec.quiver), sort_keys=True, indent=2) + "\n"
    if args.out:
        FsPath(args.out).write_text(payload)
    else:
        sys.stdout.write(payload)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: `parse_args` leaves it
    unchanged, so every `main` call reuses it."""
    parser = argparse.ArgumentParser(
        prog="hopfquiver",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="build the structure and execute tasks")
    run.add_argument("--spec", required=True, help="problem file (JSON)")
    run.add_argument("--task", action="append", choices=KNOWN_TASKS,
                     help="override the file's task list (repeatable)")
    run.add_argument("--degree-cap", type=int, default=None, help="override the file's degree cap")
    run.add_argument("--out", default=".", help="directory for report.json / report.txt")
    run.add_argument("--format", choices=("json", "text"), default="text",
                     help="stdout summary format")
    run.add_argument("--lhs", help="left element expression for --task multiply")
    run.add_argument("--rhs", help="right element expression for --task multiply")
    run.add_argument("--arg", help="element expression for --task antipode")
    run.set_defaults(func=_cmd_run)

    export = sub.add_parser("export-quiver", help="emit the Hopf quiver as DOT or JSON")
    export.add_argument("--spec", required=True, help="problem file (JSON)")
    export.add_argument("--format", choices=("dot", "json"), default="dot")
    export.add_argument("--out", default=None, help="output file (default: stdout)")
    export.set_defaults(func=_cmd_export_quiver)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SpecError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HopfQuiverError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
