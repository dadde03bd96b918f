"""The graded product as a quantum shuffle, checked differentially against
the literal expansion M_1^(x n) o Delta_2^(n-1) in `oracles.py`, and the
product built from its two memoized prefix products against Rosso's
recursion over the full table of states.

The comparisons cover valid data (every bundled spec) and invalid data
(action entries doubled, zeroed or retargeted), so the reject path is
covered too.
"""

import pytest

from hopfquiver import Element, Path, verify_majid_axioms
from hopfquiver.majid import MajidStructure, pairs_up_to
from hopfquiver.problem import load_problem

from conftest import SPECS_DIR, structure_at
from oracles import product_by_expansion, product_by_state_table
from test_bimodule import action_mutants

SPECS = sorted(SPECS_DIR.glob("*.json"))


def assert_products_match(S, cap, oracle=product_by_expansion):
    basis = S.basis_up_to(cap)
    pairs = 0
    for p in basis:
        for q in basis:
            if len(p.arrows) + len(q.arrows) <= cap:
                pairs += 1
                assert S.multiply_paths(p, q).terms == oracle(S, p, q).terms, (p, q)
    return pairs


@pytest.mark.parametrize("spec", SPECS, ids=[s.stem for s in SPECS])
def test_shuffle_matches_expansion_to_degree_4(spec):
    assert assert_products_match(structure_at(spec, 4), 4) > 0


@pytest.mark.parametrize("name", ["one_vertex_2_loop", "z4_two_blocks_standard_cocycle"])
def test_shuffle_matches_expansion_to_degree_5(name):
    assert assert_products_match(structure_at(SPECS_DIR / f"{name}.json", 5), 5) > 0


def test_shuffle_matches_expansion_to_degree_6():
    """Two arrows per vertex, so up to C(6, 3) = 20 shuffles per product."""
    S = structure_at(SPECS_DIR / "one_vertex_2_loop.json", 6)
    assert assert_products_match(S, 6) > 0


def test_shuffle_matches_expansion_on_mutated_actions():
    S = structure_at(SPECS_DIR / "z4_two_blocks_standard_cocycle.json", 3)
    two = S.ctx.scalar(2)
    for side, key, value in S.action.entries():
        for mutated in (value.scale(two), Element.zero(S.ctx)):
            action = S.action.with_entry(side, key, mutated)
            T = MajidStructure(S.quiver, S.phi, action, 3)
            assert assert_products_match(T, 3) > 0


@pytest.mark.parametrize("spec", SPECS, ids=[s.stem for s in SPECS])
def test_prefix_products_match_state_table_to_degree_5(spec):
    assert assert_products_match(structure_at(spec, 5), 5, product_by_state_table) > 0


@pytest.mark.parametrize("spec", SPECS, ids=[s.stem for s in SPECS])
def test_prefix_products_match_state_table_on_mutated_actions(spec):
    """The bimodule suite's mutants: entries doubled, zeroed and sent to
    the next arrow, whose terms then leave the bicomodule component, so the
    first leg of a product need not start where the state (0, 0) is."""
    problem = load_problem(spec)
    for action in action_mutants(problem.action):
        T = MajidStructure(problem.quiver, problem.cocycle, action, 3)
        assert assert_products_match(T, 3, product_by_state_table) > 0


def test_prefix_fill_runs_past_the_recursion_limit():
    """x^1050 x on one loop at cap 1,100 fills 2,100 prefix products, each
    waiting on a shorter one: a recursive fill would raise RecursionError."""
    S = structure_at(SPECS_DIR / "one_vertex_1_loop.json", 1100)
    x = S.quiver.arrow_path(0)
    power = Path(x.source, x.arrows * 1050, x.target)
    got = S.multiply_paths(power, x)
    assert got.terms == product_by_state_table(S, power, x).terms
    assert len(S._mul_cache) == 2 * 1051 - 1


@pytest.mark.parametrize("name", ["one_vertex_2_loop", "z2_two_slot_nontrivial_cocycle"])
def test_verify_memoizes_each_product_once(name):
    """After `verify_majid_axioms` the memo holds exactly the basis pairs of
    total degree <= cap: the prefix fill adds no product the axioms skip."""
    S = structure_at(SPECS_DIR / f"{name}.json", 5)
    assert verify_majid_axioms(S).ok
    pairs = {(p, q) for p, q in pairs_up_to(S.basis_up_to(), 5)}
    assert set(S._mul_cache) == pairs
