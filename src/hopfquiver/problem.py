"""Problem files, and their one reader: one (field, group, cocycle,
ramification, action, degree cap) instance plus a list of requested tasks.

Schema (version 1); an object with a key not shown here is refused:

    {
      "schema": 1,
      "field_order": m,                            1 .. MAX_FIELD_ORDER
      "group": {"mult": [[...], ...]},             a group table
      "cocycle": {"kind": "table", "values": [[[...]]]}      n x n x n, no zero
                 | {"kind": "cyclic_standard", "n": n, "zeta_power": p}
                 | {"kind": "trivial"},
      "ramification": [{"class_rep": g, "mult": r}, ...],
      "action": {"left":  [{"g": g, "arrow": a, "value": [terms]}, ...],
                 "right": [{"arrow": a, "g": g, "value": [terms]}, ...]},
      "degree_cap": L,
      "tasks": ["verify", ...]                     KNOWN_TASKS names
    }

`ramification`, `action`, either side and `zeta_power` (default 1) may be
left out.  Integers are never JSON true or false.  Scalars are "p/q"
strings, integers, or power-basis coordinate arrays of those; a string
holds at most `cyclotomic.MAX_COEFF_DIGITS` digits and an exponent of at
most that size.  Every scalar of a file, table entry or coefficient, is
parsed once: equal raw values share one parse (`_scalar`).  A term is one
arrow and its coefficient, {"arrow": a, "coeff": c} or {"source": s(a),
"arrows": [a], "coeff": c}; terms on one arrow are summed.  An absent action
entry is zero, and a second one for the same (g, arrow) is refused.  The
basis up to degree max(L, 1) holds at most MAX_BASIS paths and arrow indices.
Malformed input raises SpecError naming its place, as in `ramification[2]`,
`cocycle.values[0][1]` or `action.left[3].value[0]`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path as FsPath

from .cyclotomic import FieldContext, field_context
from .errors import SpecError
from .groups import (
    Cocycle3,
    FiniteGroup,
    RamificationData,
    build_group,
    standard_cyclic_cocycle,
    trivial_cocycle,
)
from .majid import BimoduleAction, MajidStructure
from .pathcoalg import Element
from .quiver import HopfQuiver, hopf_quiver

# in dependency order, which `cli.run_tasks` follows
KNOWN_TASKS = ("verify", "multiply", "antipode", "decompose", "crossed_product", "primitives",
               "report")

# a Q(zeta_m) context holds phi(m) conjugators of phi(m) coordinates each:
# building it takes 0.04 s at m = 1024, 0.5 s at 4096, over 2 GB at 16384
MAX_FIELD_ORDER = 1024

# paths plus arrow indices of a basis; the largest basis in use,
# z2_two_slot_nontrivial_cocycle at cap 16, holds 262,142 + 3,932,164
MAX_BASIS = 2 ** 23

_PROBLEM_KEYS = ("schema", "field_order", "group", "cocycle", "ramification", "action",
                 "degree_cap", "tasks")
_COCYCLE_KEYS = {"trivial": ("kind",), "table": ("kind", "values"),
                 "cyclic_standard": ("kind", "n", "zeta_power")}


@dataclass
class ProblemSpec:
    ctx: FieldContext
    group: FiniteGroup
    cocycle: Cocycle3
    ram: RamificationData
    quiver: HopfQuiver
    action: BimoduleAction
    degree_cap: int
    tasks: tuple[str, ...]

    def structure(self) -> MajidStructure:
        return MajidStructure(self.quiver, self.cocycle, self.action, self.degree_cap)

    def with_degree_cap(self, cap) -> "ProblemSpec":
        """The problem at another degree cap, checked as the file's cap is."""
        return replace(self, degree_cap=_checked_cap(self.group, self.ram, cap))


def _require(cond, message):
    if not cond:
        raise SpecError(message)


def _refuse_unknown(obj: dict, known, where: str):
    """Refuse the first key of `obj` outside `known`, naming it and `where`."""
    unknown = next((k for k in obj if k not in known), None)
    if unknown is not None:
        raise SpecError(f"{where}: unknown key {unknown!r} (known: {', '.join(known)})")


def load_problem(source) -> ProblemSpec:
    """Parse a problem from a dict or from the path (`str` or `Path`) of a
    JSON file."""
    if isinstance(source, (str, FsPath)):
        text = FsPath(source).read_text()
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"invalid JSON: {exc}") from exc
    elif isinstance(source, dict):
        data = source
    else:
        raise SpecError(f"cannot load a problem from {type(source).__name__}")
    return problem_from_dict(data)


def problem_from_dict(data: dict) -> ProblemSpec:
    _require(isinstance(data, dict), "problem file must be a JSON object")
    _refuse_unknown(data, _PROBLEM_KEYS, "problem file")
    # `type(x) is int` rejects bool, which JSON true/false parse to
    schema = data.get("schema")
    _require(type(schema) is int and schema == 1, "missing or unsupported schema (expected 1)")
    m = data.get("field_order")
    _require(type(m) is int and m >= 1, "field_order must be a positive integer")
    _require(m <= MAX_FIELD_ORDER, f"field_order {m} is above the maximum {MAX_FIELD_ORDER}")
    ctx = field_context(m)

    group_data = data.get("group")
    _require(isinstance(group_data, dict) and "mult" in group_data, "group.mult is required")
    _refuse_unknown(group_data, ("mult",), "group")
    try:
        group = build_group(group_data["mult"])
    except Exception as exc:
        raise SpecError(f"invalid group table: {exc}") from exc

    parsed = {}  # the file's parse memo, see `_scalar`
    cocycle = _cocycle(ctx, group, data.get("cocycle"), parsed)
    ram = _ramification(group, data.get("ramification", []))
    cap = _checked_cap(group, ram, data.get("degree_cap"))
    quiver = hopf_quiver(group, ram)
    action = _action(ctx, quiver, data.get("action", {}), parsed)

    tasks = data.get("tasks")
    _require(isinstance(tasks, list) and tasks and all(isinstance(t, str) for t in tasks),
             "tasks must be a nonempty list of task names")
    for t in tasks:
        _require(t in KNOWN_TASKS, f"unknown task {t!r} (known: {', '.join(KNOWN_TASKS)})")

    return ProblemSpec(ctx, group, cocycle, ram, quiver, action, cap, tuple(tasks))


def _ramification(group: FiniteGroup, data) -> RamificationData:
    _require(isinstance(data, list), "ramification must be a list")
    reps = []
    for i, item in enumerate(data):
        where = f"ramification[{i}]"
        _require(isinstance(item, dict), f"{where} is not an object with class_rep and mult")
        _refuse_unknown(item, ("class_rep", "mult"), where)
        rep, mult = item.get("class_rep"), item.get("mult")
        _require(type(rep) is int and 0 <= rep < group.order,
                 f"{where}.class_rep {rep!r} is not a group element (0..{group.order - 1})")
        _require(type(mult) is int and mult >= 0, f"{where}.mult {mult!r} is not an int >= 0")
        reps.append((rep, mult))
    return RamificationData.from_class_reps(group, reps)


def _checked_cap(group: FiniteGroup, ram: RamificationData, cap) -> int:
    """`cap`, once the basis up to it is known to fit MAX_BASIS: with k
    arrows per vertex, degree d holds n k^d paths of d arrow indices.  The
    arrows count at cap 0 too, since `verify_bimodule` builds a cap-1 basis."""
    _require(type(cap) is int and cap >= 0, "degree_cap must be a nonnegative integer")
    n = group.order
    k = sum(len(group.classes[cls]) * mult for cls, mult in ram.multiplicities)
    size = 0
    for d in range(max(cap, 1) + 1 if k else 1):
        size += n * k ** d * (d + 1)
        if size > MAX_BASIS:
            raise SpecError(f"degree_cap {cap} with ramification of {k} arrows per vertex: the"
                            f" basis up to degree {d} holds over {MAX_BASIS} paths and arrow indices")
    return cap


def _cocycle(ctx: FieldContext, group: FiniteGroup, data, parsed: dict) -> Cocycle3:
    _require(isinstance(data, dict) and "kind" in data, "cocycle.kind is required")
    kind = data["kind"]
    keys = _COCYCLE_KEYS.get(kind) if isinstance(kind, str) else None
    _require(keys is not None, f"unknown cocycle kind {kind!r}")
    _refuse_unknown(data, keys, "cocycle")
    if kind == "trivial":
        return trivial_cocycle(group, ctx)
    if kind == "table":
        return cocycle_from_table(group, ctx, data.get("values"), parsed)
    n = data.get("n")
    power = data.get("zeta_power", 1)
    _require(type(n) is int and n >= 1, "cyclic_standard.n must be a positive integer")
    _require(type(power) is int, "cyclic_standard.zeta_power must be an integer")
    _require(n == group.order and all(group.mul(i, j) == (i + j) % n
                                      for i in range(n) for j in range(n)),
             "cyclic_standard cocycle needs the standard cyclic group table")
    _require(ctx.order % n == 0, f"field order {ctx.order} has no {n}-th roots of unity")
    zeta = ctx.root_of_unity((ctx.order // n) * power)
    return standard_cyclic_cocycle(n, zeta)


def _scalar(ctx: FieldContext, parsed: dict, raw):
    """The scalar `raw` read through the file's parse memo `parsed`, keyed by
    `raw`, or `tuple(raw)` for a coordinate list, when it and each coordinate
    is exactly a str or an int: true and 1.0 equal 1 and hash alike, so they
    are parsed, and refused, each time."""
    kind = type(raw)
    if kind is list:
        key = tuple(raw)
        if not all(type(x) is str or type(x) is int for x in key):
            return ctx.scalar(raw)
    elif kind is str or kind is int:
        key = raw
    else:
        return ctx.scalar(raw)
    v = parsed.get(key)
    if v is None:
        v = parsed[key] = ctx.scalar(raw)
    return v


def _checked_rows(table, index: tuple, n: int, what: str):
    if not isinstance(table, (list, tuple)) or len(table) != n:
        where = "".join(f"[{i}]" for i in index)
        raise SpecError(f"malformed cocycle table: cocycle.values{where} is not a list of {n} {what}")
    return table


def cocycle_from_table(group: FiniteGroup, ctx: FieldContext, values,
                       parsed: dict | None = None) -> Cocycle3:
    """Read a dense n x n x n table, `cocycle.values` of a problem file; a
    misshapen plane or row, a non-scalar or a zero raises SpecError at its
    index.  Every entry is parsed once, through the parse memo `parsed`
    (`_scalar`; a fresh one when None) that the file's action coefficients
    share; the entries are not interned."""
    n = group.order
    if parsed is None:
        parsed = {}
    out = []
    for a, plane in enumerate(_checked_rows(values, (), n, "planes")):
        out_plane = []
        for b, row in enumerate(_checked_rows(plane, (a,), n, "rows")):
            out_row = []
            for c, raw in enumerate(_checked_rows(row, (a, b), n, "values")):
                try:
                    v = _scalar(ctx, parsed, raw)
                except (TypeError, ValueError, ArithmeticError) as exc:
                    raise SpecError(f"malformed cocycle table: cocycle.values[{a}][{b}][{c}]"
                                    f" is not a scalar: {exc}") from exc
                if v.is_zero():
                    raise SpecError(f"cocycle.values[{a}][{b}][{c}] is zero; Phi takes values in k*")
                out_row.append(v)
            out_plane.append(tuple(out_row))
        out.append(tuple(out_plane))
    return Cocycle3(group, ctx, tuple(out))


def _action(ctx: FieldContext, quiver: HopfQuiver, data, parsed: dict) -> BimoduleAction:
    """The action tables; a place is formatted only for an error message."""
    _require(isinstance(data, dict), "action must be an object")
    _refuse_unknown(data, ("left", "right"), "action")
    tables = {}
    for side in ("left", "right"):
        items = data.get(side, [])
        _require(isinstance(items, list), f"action.{side} is not a list")
        table = tables[side] = {}
        for i, item in enumerate(items):
            try:
                g, a, raw = item["g"], item["arrow"], item["value"]
                whole = len(item) == 3
            except (TypeError, KeyError):
                whole = False
            if not whole:
                if isinstance(item, dict):
                    _refuse_unknown(item, ("g", "arrow", "value"), f"action.{side}[{i}]")
                raise SpecError(f"action.{side}[{i}] needs g, arrow and value")
            if type(g) is not int or not 0 <= g < quiver.group.order:
                raise SpecError(f"action.{side}[{i}]: g={g!r} is not a group element")
            if not quiver.has_arrow(a):
                raise SpecError(f"action.{side}[{i}]: arrow={a!r} is not an arrow of the quiver")
            key = (g, a) if side == "left" else (a, g)
            if key in table:
                first = next(j for j in range(i) if (items[j]["g"], items[j]["arrow"]) == (g, a))
                raise SpecError(f"action.{side}[{i}] repeats g={g} arrow={a}"
                                f" of action.{side}[{first}]")
            table[key] = _element(ctx, quiver, raw, lambda: f"action.{side}[{i}].value", parsed)
    return BimoduleAction(ctx, quiver, tables["left"], tables["right"])


def _element(ctx: FieldContext, quiver: HopfQuiver, raw, where,
             parsed: dict | None = None) -> Element:
    """An action value, the term list at `where()`, its coefficients read
    through the parse memo `parsed` (a fresh one when None) and interned;
    terms on one arrow are summed into a keyed scalar."""
    _require(isinstance(raw, list), f"{where()} is not a list of terms")
    if parsed is None:
        parsed = {}
    terms = {}
    for j, t in enumerate(raw):
        if not isinstance(t, dict) or "coeff" not in t:
            raise SpecError(f"{where()}[{j}] is not a term object with a coeff")
        try:
            if "arrow" in t:
                if len(t) != 2:
                    _refuse_unknown(t, ("arrow", "coeff"), f"{where()}[{j}]")
                if not quiver.has_arrow(t["arrow"]):
                    raise ValueError(f"no arrow {t['arrow']!r}")
                p = quiver.arrow_path(t["arrow"])
            else:
                arrows = t.get("arrows")
                if len(t) != 3 or "source" not in t or type(arrows) is not list:
                    _refuse_unknown(t, ("source", "arrows", "coeff"), f"{where()}[{j}]")
                    raise SpecError(f"{where()}[{j}] needs a source and a list of arrows")
                source = t["source"]
                a = arrows[0] if len(arrows) == 1 else None
                if not (quiver.has_arrow(a) and type(source) is int
                        and quiver.arrows[a].source == source):
                    # the walk names the first bad vertex or arrow
                    quiver.path(source, arrows)
                    raise SpecError(f"{where()}[{j}] is not one arrow: an action value"
                                    " lies in the arrow space")
                p = quiver.arrow_path(a)
            c = ctx.intern(_scalar(ctx, parsed, t["coeff"]))
        except (TypeError, ValueError, ArithmeticError) as exc:
            raise SpecError(f"{where()}[{j}]: {exc}") from exc
        terms[p] = terms[p].plus(c) if p in terms else c
    return Element(ctx, terms)
