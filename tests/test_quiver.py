"""Hopf quiver construction, path enumeration, components, recognition."""

import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfquiver import (
    AbstractQuiver,
    Path,
    RamificationData,
    connected_components,
    cyclic_group,
    hopf_quiver,
    paths_up_to,
    recognize_hopf_quiver,
    small_groups,
    subgroup_generated,
    symmetric_group,
)
from hopfquiver.errors import VertexCountMismatch
from hopfquiver.pathcoalg import path_splits
from hopfquiver.quiver import quiver_to_json, to_dot

from conftest import make_taft_structure


def test_z2_quiver():
    g = cyclic_group(2)
    q = hopf_quiver(g, RamificationData.from_class_reps(g, [(1, 1)]))
    assert [(a.source, a.target) for a in q.arrows] == [(0, 1), (1, 0)]


def test_path_value_semantics():
    g = cyclic_group(2)
    q = hopf_quiver(g, RamificationData.from_class_reps(g, [(1, 1)]))
    p = q.path(0, [0, 1])
    assert repr(p) == "Path(source=0, arrows=(0, 1), target=0)"
    assert repr(q.vertex_path(1)) == "Path(source=1, arrows=(), target=1)"
    # built two ways: by extension from a vertex, and directly
    direct = Path(0, (0, 1), 0)
    assert p == direct and p is direct
    assert hash(p) == hash(direct)
    assert {p: 1}[direct] == 1
    assert p != q.path(1, [1, 0]) and p != Path(0, (0, 1), 1)
    for other in ((0, (0, 1), 0), (0, 1), ()):
        assert p != other and other != p
    for attr in ("source", "arrows", "target", "extra"):
        with pytest.raises(AttributeError):
            setattr(p, attr, 1)
    with pytest.raises(AttributeError):
        del p.source
    assert p == direct and hash(p) == hash(direct)


def test_every_construction_route_returns_the_interned_path():
    S = make_taft_structure(2, cap=4)
    q = S.quiver
    p = Path(0, (0, 1), 0)
    assert q.path(0, [0, 1]) is p
    assert q.extend(q.arrow_path(0), 1) is p
    assert q.extend(q.extend(q.vertex_path(0), 0), 1) is p
    assert Path(0, (0,), 1) is q.arrow_path(0)
    assert Path(1, (), 1) is q.vertex_path(1)
    built = [piece for parts in path_splits(q, p) + S.splits(p) for piece in parts]
    built += S.multiply_paths(q.arrow_path(1), p).terms
    for r in built:
        assert q.path(r.source, list(r.arrows)) is r
        assert Path(r.source, r.arrows, r.target) is r


def test_concurrent_construction_yields_one_object_per_path():
    """Threads that build the same new paths at once all get one object per
    path.  Negative sources name no vertex, so no other test builds them."""
    base = -random.randrange(1 << 20, 1 << 40)
    keys = [(base - i, tuple(range(i % 5)), base - i) for i in range(5000)]
    n_threads = 8
    barrier = threading.Barrier(n_threads)
    results = [None] * n_threads

    def build(slot):
        barrier.wait(timeout=30)
        results[slot] = [Path(*k) for k in keys]

    threads = [threading.Thread(target=build, args=(i,), daemon=True) for i in range(n_threads)]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    canonical = [Path(*k) for k in keys]
    for built in results:
        assert built is not None
        assert all(a is b for a, b in zip(built, canonical, strict=True))


def test_empty_ramification():
    g = cyclic_group(3)
    q = hopf_quiver(g, RamificationData.from_dict({}))
    assert q.arrows == ()
    comps = connected_components(q)
    assert len(comps.components) == 3


def test_s3_transposition_quiver():
    g = symmetric_group(3)
    transposition_class = next(i for i, c in enumerate(g.classes) if len(c) == 3)
    q = hopf_quiver(g, RamificationData.from_dict({transposition_class: 1}))
    assert len(q.arrows) == 18  # |G| * |C| = 6 * 3


def test_arrow_count_formula():
    g = symmetric_group(3)
    ram = RamificationData.from_dict({i: i + 1 for i in range(len(g.classes))})
    q = hopf_quiver(g, ram)
    expected = g.order * sum(
        (i + 1) * len(c) for i, c in enumerate(g.classes)
    )
    assert len(q.arrows) == expected


def test_paths_up_to_z2():
    g = cyclic_group(2)
    q = hopf_quiver(g, RamificationData.from_class_reps(g, [(1, 1)]))
    per_degree = paths_up_to(q, 2)
    assert [len(d) for d in per_degree] == [2, 2, 2]
    # degree-2 paths alternate around the 2-cycle
    assert sorted(p.arrows for p in per_degree[2]) == [(0, 1), (1, 0)]


def test_paths_no_arrows():
    g = cyclic_group(4)
    q = hopf_quiver(g, RamificationData.from_dict({}))
    per_degree = paths_up_to(q, 5)
    assert [len(d) for d in per_degree] == [4, 0, 0, 0, 0, 0]


def test_loop_quiver_path_counts():
    # one loop per vertex: |Q_l| = n for every l
    g = cyclic_group(5)
    q = hopf_quiver(g, RamificationData.from_class_reps(g, [(0, 1)]))
    per_degree = paths_up_to(q, 4)
    assert [len(d) for d in per_degree] == [5, 5, 5, 5, 5]


def test_components_z4_halved():
    g = cyclic_group(4)
    q = hopf_quiver(g, RamificationData.from_class_reps(g, [(2, 1)]))
    comps = connected_components(q)
    assert comps.components == ((0, 2), (1, 3))
    assert comps.principal == 0


def test_components_match_subgroup_index():
    rng = random.Random(7)
    for name, g in small_groups(12):
        for _ in range(8):
            ram = RamificationData.from_dict(
                {i: rng.randint(0, 2) for i in range(len(g.classes))}
            )
            q = hopf_quiver(g, ram)
            comps = connected_components(q)
            sub, index = subgroup_generated(g, ram.support_elements(g))
            assert len(comps.components) == index, (name, ram)
            members = set(sub)
            # each component is a coset Ng
            for comp in comps.components:
                rep = comp[0]
                assert set(comp) == {g.mul(n, rep) for n in members}, (name, ram)


def test_connected_iff_support_generates():
    g = cyclic_group(6)
    for rep in range(6):
        ram = RamificationData.from_class_reps(g, [(rep, 1)])
        q = hopf_quiver(g, ram)
        comps = connected_components(q)
        _, index = subgroup_generated(g, [rep])
        assert (len(comps.components) == 1) == (index == 1)


# -- recognition --------------------------------------------------------------


def test_recognize_round_trip():
    g = symmetric_group(3)
    ram = RamificationData.from_dict({1: 2, 2: 1})
    q = hopf_quiver(g, ram)
    result = recognize_hopf_quiver(AbstractQuiver.of(q), g)
    assert result.ok
    assert result.ram == ram


def test_recognize_failure_witness():
    g = cyclic_group(2)
    lop = AbstractQuiver(2, ((0, 1),))  # arrow one way only
    result = recognize_hopf_quiver(lop, g)
    assert not result.ok
    (x1, y1), (x2, y2), c1, c2 = result.witness
    assert c1 != c2


def test_recognize_kronecker():
    g = cyclic_group(2)
    kron = AbstractQuiver(2, ((0, 1), (0, 1), (1, 0), (1, 0)))
    result = recognize_hopf_quiver(kron, g)
    assert result.ok
    assert result.ram == RamificationData.from_class_reps(g, [(1, 2)])


def test_recognize_vertex_mismatch():
    with pytest.raises(VertexCountMismatch):
        recognize_hopf_quiver(AbstractQuiver(3, ()), cyclic_group(2))


def test_recognize_respects_labeling():
    g = cyclic_group(2)
    q = AbstractQuiver(2, ((1, 0),))  # arrow from quiver-vertex 1 to 0
    # labeling swapping the vertices turns it into e -> g one way only: fail
    res = recognize_hopf_quiver(q, g, [1, 0])
    assert not res.ok


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_recognize_inverts_construction(data):
    name, g = data.draw(st.sampled_from(small_groups(8)))
    ram = RamificationData.from_dict(
        {
            i: data.draw(st.integers(0, 2))
            for i in range(len(g.classes))
        }
    )
    q = hopf_quiver(g, ram)
    result = recognize_hopf_quiver(AbstractQuiver.of(q), g)
    assert result.ok and result.ram == ram


# -- exports -----------------------------------------------------------------


def test_dot_export():
    g = cyclic_group(2)
    q = hopf_quiver(g, RamificationData.from_class_reps(g, [(1, 1)]))
    dot = to_dot(q)
    assert dot.count("->") == 2
    assert "g0" in dot and "g1" in dot


def test_json_export():
    g = cyclic_group(2)
    q = hopf_quiver(g, RamificationData.from_class_reps(g, [(1, 1)]))
    data = quiver_to_json(q)
    assert data["vertices"] == 2
    assert len(data["arrows"]) == 2
    assert data["ramification"] == [{"class_rep": 1, "mult": 1}]
