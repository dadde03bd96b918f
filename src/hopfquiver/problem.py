"""Declarative problem files: one (field, group, cocycle, ramification,
action, degree cap) instance plus a list of requested tasks.

Schema (version 1):

    {
      "schema": 1,
      "field_order": m,
      "group": {"mult": [[...], ...]},
      "cocycle": {"kind": "table", "values": [[[...]]]}
                 | {"kind": "cyclic_standard", "n": n, "zeta_power": p}
                 | {"kind": "trivial"},
      "ramification": [{"class_rep": g, "mult": r}, ...],
      "action": {"left":  [{"g": g, "arrow": a, "value": [terms]}, ...],
                 "right": [{"arrow": a, "g": g, "value": [terms]}, ...]},
      "degree_cap": L,
      "tasks": ["verify", ...]
    }

Scalars are "p/q" strings or power-basis coordinate arrays; action value
terms are {"arrow": id, "coeff": scalar}.  Absent action entries are zero.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path as FsPath

from .cyclotomic import FieldContext, field_context
from .errors import ActionNotDegree1, MalformedCocycleTable, SpecError, ZeroCocycleValue
from .groups import (
    Cocycle3,
    FiniteGroup,
    RamificationData,
    build_group,
    cocycle_from_table,
    standard_cyclic_cocycle,
    trivial_cocycle,
)
from .majid import BimoduleAction, MajidStructure, action_from_json
from .quiver import HopfQuiver, hopf_quiver

KNOWN_TASKS = (
    "verify",
    "multiply",
    "antipode",
    "decompose",
    "crossed_product",
    "primitives",
    "report",
)


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
    raw: dict

    def structure(self) -> MajidStructure:
        return MajidStructure(self.quiver, self.cocycle, self.action, self.degree_cap)


def _require(cond, message):
    if not cond:
        raise SpecError(message)


def load_problem(source) -> ProblemSpec:
    """Parse a problem from a dict, JSON string, or file path."""
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
    # `type(x) is int` rejects bool, which JSON true/false parse to
    schema = data.get("schema")
    _require(type(schema) is int and schema == 1, "missing or unsupported schema (expected 1)")
    m = data.get("field_order")
    _require(type(m) is int and m >= 1, "field_order must be a positive integer")
    ctx = field_context(m)

    group_data = data.get("group")
    _require(isinstance(group_data, dict) and "mult" in group_data, "group.mult is required")
    try:
        group = build_group(group_data["mult"])
    except Exception as exc:
        raise SpecError(f"invalid group table: {exc}") from exc

    cocycle = _parse_cocycle(ctx, group, data.get("cocycle"))

    ram_data = data.get("ramification", [])
    _require(isinstance(ram_data, list), "ramification must be a list")
    reps = []
    for item in ram_data:
        _require(isinstance(item, dict), f"malformed ramification entry {item!r}")
        rep, mult = item.get("class_rep"), item.get("mult")
        _require(
            type(rep) is int and 0 <= rep < group.order,
            f"ramification class_rep {rep!r} is not a group element (0..{group.order - 1})",
        )
        _require(type(mult) is int and mult >= 0, f"ramification mult {mult!r} is not an int >= 0")
        reps.append((rep, mult))
    ram = RamificationData.from_class_reps(group, reps)
    quiver = hopf_quiver(group, ram)

    action_data = data.get("action", {})
    _require(isinstance(action_data, dict), "action must be an object")
    try:
        action = action_from_json(ctx, quiver, action_data)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise SpecError(f"malformed action table: {exc}") from exc
    except ActionNotDegree1 as exc:
        side, x, y = exc.key
        g, a = (x, y) if side == "left" else (y, x)
        raise SpecError(
            f"action.{side}: g={g!r} arrow={a!r}: value is not homogeneous of degree 1"
        ) from exc

    cap = data.get("degree_cap")
    _require(type(cap) is int and cap >= 0, "degree_cap must be a nonnegative integer")

    tasks = data.get("tasks")
    _require(
        isinstance(tasks, list) and tasks and all(isinstance(t, str) for t in tasks),
        "tasks must be a nonempty list of task names",
    )
    for t in tasks:
        _require(t in KNOWN_TASKS, f"unknown task {t!r} (known: {', '.join(KNOWN_TASKS)})")

    return ProblemSpec(ctx, group, cocycle, ram, quiver, action, cap, tuple(tasks), data)


def _parse_cocycle(ctx: FieldContext, group: FiniteGroup, data) -> Cocycle3:
    _require(isinstance(data, dict) and "kind" in data, "cocycle.kind is required")
    kind = data["kind"]
    if kind == "trivial":
        return trivial_cocycle(group, ctx)
    if kind == "table":
        try:
            return cocycle_from_table(group, ctx, data.get("values"))
        except ZeroCocycleValue as exc:
            a, b, c = exc.triple
            raise SpecError(
                f"cocycle.values[{a}][{b}][{c}] is zero; Phi takes values in k*"
            ) from exc
        except MalformedCocycleTable as exc:
            where = "".join(f"[{i}]" for i in exc.index)
            raise SpecError(f"malformed cocycle table: cocycle.values{where} {exc.reason}") from exc
    if kind == "cyclic_standard":
        n = data.get("n")
        power = data.get("zeta_power", 1)
        _require(type(n) is int and n >= 1, "cyclic_standard.n must be a positive integer")
        _require(type(power) is int, "cyclic_standard.zeta_power must be an integer")
        _require(
            n == group.order
            and all(group.mul(i, j) == (i + j) % n for i in range(n) for j in range(n)),
            "cyclic_standard cocycle needs the standard cyclic group table",
        )
        _require(ctx.order % n == 0, f"field order {ctx.order} has no {n}-th roots of unity")
        zeta = ctx.root_of_unity((ctx.order // n) * power)
        return standard_cyclic_cocycle(n, zeta)
    raise SpecError(f"unknown cocycle kind {kind!r}")
