"""Seeded structural fuzzing of the bundled problem files.

Each mutant deletes, retypes or renames one field or entry, shifts one
index out of range, repeats one action entry, or sets an oversize degree
cap or multiplicity.  Whatever the mutant, `hopfquiver run` exits 0, 1 or 2
and never 3 (an internal error); a renamed key, a repeated entry and an
oversize basis always exit 2.  Every mutant's degree cap is at most 3, or
over the basis bound, so no mutant builds a large basis.
"""

import contextlib
import io
import json
import random

import pytest

from hopfquiver.cli import main

from conftest import SPECS_DIR

SEED = 20
PER_SPEC = 30
CAP = 3
# retyped values: every JSON type, and ints that are out of range for most fields
ODD_VALUES = (None, True, False, "x", "1/0", 1.5, -1, 0, 10 ** 6, [], [0], {}, {"x": 1})
INDEX_KEYS = ("g", "arrow", "arrows", "source", "class_rep")
MUST_REFUSE = ("rename", "duplicate", "oversize")


def _nodes(obj, path=()):
    """(path, value) of every node under `obj`, the root excluded."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield path + (key,), value
        yield from _nodes(value, path + (key,))


def _parent(data, path):
    for key in path[:-1]:
        data = data[key]
    return data


def _rename(rng, data):
    """A key, drawn by name so that the few optional keys come up as often
    as the keys of every action entry and term."""
    named = {}
    for p, _ in _nodes(data):
        if isinstance(p[-1], str):
            named.setdefault(p[-1], []).append(p)
    path = rng.choice(named[rng.choice(sorted(named))])
    parent = _parent(data, path)
    parent[path[-1] + rng.choice(("s", "_", "x"))] = parent.pop(path[-1])
    return "rename"


def _delete(rng, data):
    path, _ = rng.choice(list(_nodes(data)))
    del _parent(data, path)[path[-1]]
    return "delete"


def _retype(rng, data):
    path, _ = rng.choice([(p, v) for p, v in _nodes(data) if p != ("degree_cap",)])
    _parent(data, path)[path[-1]] = rng.choice(ODD_VALUES)
    return "retype"


def _shift(rng, data):
    """An index field, or one arrow of an `arrows` list, moved out of range."""
    targets = [p for p, v in _nodes(data) if type(v) is int
               and (p[-1] in INDEX_KEYS or (len(p) > 1 and p[-2] == "arrows"))]
    path = rng.choice(targets)
    _parent(data, path)[path[-1]] = rng.choice((-1, 1000, -1000))
    return "shift"


def _duplicate(rng, data):
    side = rng.choice([s for s in ("left", "right") if data["action"][s]])
    entries = data["action"][side]
    copy = json.loads(json.dumps(rng.choice(entries)))
    if rng.random() < 0.5:
        copy["value"][0]["coeff"] = "7"
    entries.insert(rng.randrange(len(entries) + 1), copy)
    return "duplicate"


def _oversize(rng, data):
    if rng.random() < 0.5:
        data["degree_cap"] = rng.choice((100000, 10 ** 12))
    else:
        rng.choice(data["ramification"])["mult"] = rng.choice((10 ** 6, 10 ** 9))
    return "oversize"


MUTATIONS = (_rename, _delete, _retype, _shift, _duplicate, _oversize)


def _mutants(spec_path):
    rng = random.Random(f"{SEED}:{spec_path.name}")
    base = json.loads(spec_path.read_text())
    base["degree_cap"] = min(base["degree_cap"], CAP)
    for i in range(PER_SPEC):
        data = json.loads(json.dumps(base))
        kind = MUTATIONS[i % len(MUTATIONS)](rng, data)
        yield i, kind, data


@pytest.mark.parametrize("spec_path", sorted(SPECS_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_mutated_specs_exit_0_1_or_2(tmp_path, spec_path):
    path = tmp_path / "mutant.json"
    failures = []
    for i, kind, data in _mutants(spec_path):
        path.write_text(json.dumps(data))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["run", "--spec", str(path), "--out", str(tmp_path)])
        if code not in (0, 1, 2) or (kind in MUST_REFUSE and code != 2):
            failures.append((i, kind, code, err.getvalue()[-200:]))
    assert failures == []
