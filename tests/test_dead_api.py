"""Every function, method and class that `src/hopfquiver` defines is read by
the program: by `src` itself (outside its own definition and outside
`__init__.py`, which re-exports everything), by `scripts/` or by
`perfbench/`.  Tests do not count.  A name kept for the tests alone is on
`KEPT`, with the reason.

The scan is by name: a name counts as read where any of those files loads
it, reads it as an attribute or imports it, so one read covers every
definition of that name.  Dunder methods are read by the language and are
skipped."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hopfquiver"

KEPT = {
    "recognize_hopf_quiver": "acceptance criterion 3 tests the paper's Gabriel-type "
                             "statement with it",
    "of": "`AbstractQuiver.of` builds the bare quiver that criterion 3 hands to "
          "`recognize_hopf_quiver`",
    "with_entry": "the mutation suites build single-entry mutants of Phi and of the "
                  "action tables with it",
    "entries": "the mutation suites enumerate the action entries to mutate with it",
}


def _definitions():
    """{name: [(file, line)]} of every def and class in the package."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out.setdefault(node.name, []).append((path.name, node.lineno))
    return out


def _read_names():
    """The names that the program loads, reads as attributes or imports,
    each counted only outside the definitions of that name."""
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    out = set()
    for path in files:
        # (node, names of the definitions enclosing it)
        stack = [(ast.parse(path.read_text()), frozenset())]
        while stack:
            node, inside = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inside = inside | {node.name}
            name = None
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.rpartition(".")[2]
            if name is not None and name not in inside:
                out.add(name)
            stack.extend((child, inside) for child in ast.iter_child_nodes(node))
    return out


def test_every_definition_is_read_by_the_program():
    read = _read_names()
    unread = {
        name: where for name, where in _definitions().items()
        if not (name.startswith("__") and name.endswith("__"))
        and name not in KEPT and name not in read
    }
    assert unread == {}


def test_every_kept_name_is_defined_and_unread():
    """An entry of KEPT goes once the program reads the name or drops it."""
    defined, read = _definitions(), _read_names()
    assert [name for name in KEPT if name not in defined or name in read] == []
