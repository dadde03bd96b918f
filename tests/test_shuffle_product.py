"""The graded product as a quantum shuffle, checked differentially against
the literal expansion M_1^(x n) o Delta_2^(n-1) in `oracles.py`.

The comparison covers valid data (every bundled spec) and invalid data
(action entries doubled or zeroed), so the reject path is covered too.
"""

import pytest

from hopfquiver import Element
from hopfquiver.majid import MajidStructure

from conftest import SPECS_DIR, structure_at
from oracles import product_by_expansion

SPECS = sorted(SPECS_DIR.glob("*.json"))


def assert_products_match(S, cap):
    basis = S.basis_up_to(cap)
    pairs = 0
    for p in basis:
        for q in basis:
            if len(p.arrows) + len(q.arrows) <= cap:
                pairs += 1
                assert S.multiply_paths(p, q) == product_by_expansion(S, p, q), (p, q)
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

