"""The Majid-bimodule laws of the action tables: `verify_bimodule` against
its ratio-form oracle, and the paper's correspondence between Majid
bimodules on the arrows and graded Majid algebras on the path coalgebra,
on single-entry mutants of every bundled spec's action."""

import random

import pytest

from hopfquiver import Element, verify_bimodule, verify_cocycle, verify_majid_axioms
from hopfquiver.majid import MajidStructure
from hopfquiver.problem import load_problem

from conftest import SPECS_DIR
from oracles import bimodule_laws_by_action_tables

SPEC_NAMES = sorted(p.stem for p in SPECS_DIR.glob("*.json"))
MUTANTS_PER_SPEC = 60
LAWS = (
    "bimodule_unit_left",
    "bimodule_unit_right",
    "bimodule_left_assoc",
    "bimodule_right_assoc",
    "bimodule_middle_assoc",
)


def action_mutants(action):
    """Single-entry mutants of the action tables: each entry doubled, zeroed,
    and retargeted (every term moved to the next arrow index); a seeded
    sample of MUTANTS_PER_SPEC of them when there are more."""
    ctx, quiver = action.ctx, action.quiver
    n = len(quiver.arrows)
    two = ctx.scalar(2)
    edits = []
    for side, key, value in action.entries():
        edits.append((side, key, value.scale(two)))
        edits.append((side, key, Element.zero(ctx)))
        if n > 1:
            moved = {quiver.arrow_path((p.arrows[0] + 1) % n): c for p, c in value.terms.items()}
            edits.append((side, key, Element(ctx, moved)))
    if len(edits) > MUTANTS_PER_SPEC:
        edits = random.Random(0).sample(edits, MUTANTS_PER_SPEC)
    return [action.with_entry(*edit) for edit in edits]


def _laws(report):
    """The violations of the five laws, in report order, and their tallies."""
    return (
        [(v.check, v.witness, v.detail) for v in report.violations if v.check in LAWS],
        {name: report.counts[name] for name in LAWS},
    )


@pytest.mark.parametrize("name", SPEC_NAMES)
def test_bimodule_laws_match_action_table_oracle(name):
    spec = load_problem(SPECS_DIR / f"{name}.json")
    fired = []
    for i, action in enumerate([spec.action] + action_mutants(spec.action)):
        got = _laws(verify_bimodule(spec.group, spec.cocycle, action))
        assert got == _laws(bimodule_laws_by_action_tables(spec.group, spec.cocycle, action)), i
        fired.append(bool(got[0]))
    # the bundled action is a bimodule, and the laws see some of its mutants
    assert not fired[0] and any(fired[1:])


@pytest.mark.parametrize("name", SPEC_NAMES)
def test_bimodule_laws_decide_the_graded_axioms(name):
    """The paper's main theorem: graded Majid structures on kQ correspond to
    Majid bimodule structures on kQ_1, so `verify_bimodule` and
    `verify_majid_axioms` agree on every mutant of the action at cap 1 and,
    on a seeded sample of 10 mutants, at caps 2 and 3.  The theorem assumes
    Phi is a 3-cocycle, so the cocycle is never mutated."""
    spec = load_problem(SPECS_DIR / f"{name}.json")
    cocycle_report = verify_cocycle(spec.group, spec.cocycle)
    actions = [spec.action] + action_mutants(spec.action)
    sample = set(random.Random(1).sample(range(len(actions)), min(10, len(actions))))
    for i, action in enumerate(actions):
        ok = verify_bimodule(spec.group, spec.cocycle, action).ok
        for cap in (1, 2, 3) if i in sample else (1,):
            S = MajidStructure(spec.quiver, spec.cocycle, action, cap)
            assert verify_majid_axioms(S, cocycle_report).ok == ok, (i, cap)
