"""Hopf quivers Q(G, R), paths, connectivity, and recognition.

Conventions fixed here and relied on everywhere else:

* Arrows are enumerated by (source vertex, class element, multiplicity slot)
  in ascending order; the arrow with source x and class element c points
  x -> c*x.
* A Path stores its arrows in traversal order (first-traversed first).  In
  the customary written form a_l ... a_1 the traversal order is read right
  to left, so ``Path.arrows[0]`` is the rightmost written arrow.
* Paths are interned: one object per (source, arrow index tuple, target)
  in the process, so path equality is object identity (see `Path`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import VertexCountMismatch
from .groups import FiniteGroup, RamificationData


@dataclass(frozen=True)
class Arrow:
    index: int
    source: int
    class_elt: int
    slot: int
    target: int


class Path:
    """An immutable path: source vertex, traversed arrow indices, target.

    Paths are interned: constructing a path returns the one object that the
    process holds for `(source, arrows, target)`, so equal paths are the
    same object, and equality and hashing are the default identity ones,
    evaluated in C by every dict and tuple key that holds paths.  The table
    is process-wide and strong, like `field_context`'s cache: it is bounded
    by the distinct paths the process builds, and a weak table would make
    every problem's set-up rebuild the paths the previous one let die.  A
    miss stores the new object with `dict.setdefault`, which is atomic
    under the GIL for these int-tuple keys, so two threads that build the
    same path both get the object that was stored first.
    """

    __slots__ = ("source", "arrows", "target")

    def __new__(cls, source: int, arrows: tuple[int, ...], target: int):
        key = (source, arrows, target)
        path = _PATHS.get(key)
        if path is None:
            path = object.__new__(cls)
            init = object.__setattr__
            init(path, "source", source)
            init(path, "arrows", arrows)
            init(path, "target", target)
            path = _PATHS.setdefault(key, path)
        return path

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable Path")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable Path")

    def __repr__(self):
        return f"Path(source={self.source!r}, arrows={self.arrows!r}, target={self.target!r})"

    def __len__(self):
        return len(self.arrows)

    def is_vertex(self) -> bool:
        return not self.arrows

    def sort_key(self):
        return (len(self.arrows), self.source, self.arrows)

    def to_json(self):
        return {"source": self.source, "arrows": list(self.arrows)}


_PATHS: dict[tuple, Path] = {}


class HopfQuiver:
    """The Hopf quiver of (G, R): vertices G, R_C arrows x -> cx per c in C."""

    __slots__ = ("group", "ram", "arrows", "arrows_from")

    def __init__(self, group: FiniteGroup, ram: RamificationData, arrows: tuple[Arrow, ...]):
        self.group = group
        self.ram = ram
        self.arrows = arrows
        outgoing: list[list[int]] = [[] for _ in group.elements()]
        for a in arrows:
            outgoing[a.source].append(a.index)
        self.arrows_from = tuple(tuple(v) for v in outgoing)

    @property
    def num_vertices(self) -> int:
        return self.group.order

    def arrow(self, index: int) -> Arrow:
        return self.arrows[index]

    def has_arrow(self, index) -> bool:
        """Is `index` an arrow index?  `type(x) is int` rejects bool, which
        JSON true/false parse to."""
        return type(index) is int and 0 <= index < len(self.arrows)

    def vertex_path(self, v: int) -> Path:
        return Path(v, (), v)

    def arrow_path(self, index: int) -> Path:
        a = self.arrows[index]
        return Path(a.source, (index,), a.target)

    def extend(self, path: Path, arrow_index: int) -> Path:
        """Append one more traversed arrow; sources must match up."""
        a = self.arrows[arrow_index]
        if a.source != path.target:
            raise ValueError(
                f"arrow {arrow_index} starts at {a.source}, path ends at {path.target}"
            )
        return Path(path.source, path.arrows + (arrow_index,), a.target)

    def path(self, source: int, arrow_indices: Sequence[int]) -> Path:
        """The path read from input: `source`, then the traversed arrows."""
        if type(source) is not int or not 0 <= source < self.group.order:
            raise ValueError(f"no vertex {source!r}")
        p = self.vertex_path(source)
        for idx in arrow_indices:
            if not self.has_arrow(idx):
                raise ValueError(f"no arrow {idx!r}")
            p = self.extend(p, idx)
        return p

    def junctions(self, path: Path) -> list[int]:
        """Vertices visited, length len(path)+1, starting at the source."""
        out = [path.source]
        for idx in path.arrows:
            out.append(self.arrows[idx].target)
        return out

    def format_path(self, path: Path) -> str:
        """Written form: arrows right-to-left in traversal order."""
        if path.is_vertex():
            return f"g{path.source}"
        return "".join(f"a{idx}" for idx in reversed(path.arrows))


def hopf_quiver(group: FiniteGroup, ram: RamificationData) -> HopfQuiver:
    arrows = []
    class_elements = [
        (c, ram.mult_of_class(group.class_of[c]))
        for c in group.elements()
        if ram.mult_of_class(group.class_of[c]) > 0
    ]
    for x in group.elements():
        for c, mult in class_elements:
            for slot in range(mult):
                arrows.append(Arrow(len(arrows), x, c, slot, group.mul(c, x)))
    return HopfQuiver(group, ram, tuple(arrows))


def paths_up_to(quiver: HopfQuiver, cap: int) -> list[list[Path]]:
    """All paths of length <= cap, one deterministically ordered list per degree."""
    if cap < 0:
        raise ValueError("degree cap must be >= 0")
    degrees = [[quiver.vertex_path(v) for v in quiver.group.elements()]]
    for _ in range(cap):
        nxt = []
        for p in degrees[-1]:
            for idx in quiver.arrows_from[p.target]:
                nxt.append(quiver.extend(p, idx))
        degrees.append(nxt)
    return degrees


@dataclass(frozen=True)
class ComponentDecomposition:
    components: tuple[tuple[int, ...], ...]  # sorted vertex tuples, by min vertex
    component_of: tuple[int, ...]
    principal: int  # index of the component containing the identity vertex

    def component_vertices(self, vertex: int) -> tuple[int, ...]:
        return self.components[self.component_of[vertex]]


def connected_components(quiver: HopfQuiver) -> ComponentDecomposition:
    """Partition of vertices by underlying-graph (undirected) connectivity."""
    n = quiver.num_vertices
    adjacency: list[set[int]] = [set() for _ in range(n)]
    for a in quiver.arrows:
        adjacency[a.source].add(a.target)
        adjacency[a.target].add(a.source)
    seen = [False] * n
    components = []
    for v in range(n):
        if seen[v]:
            continue
        stack, comp = [v], []
        seen[v] = True
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in sorted(adjacency[x]):
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)
        components.append(tuple(sorted(comp)))
    components.sort(key=lambda c: c[0])
    component_of = [0] * n
    for i, comp in enumerate(components):
        for v in comp:
            component_of[v] = i
    principal = component_of[quiver.group.identity]
    return ComponentDecomposition(tuple(components), tuple(component_of), principal)


# ---------------------------------------------------------------------------
# recognition of Hopf quivers among abstract quivers


@dataclass(frozen=True)
class AbstractQuiver:
    """A bare quiver: a vertex count and a list of (source, target) arrows."""

    num_vertices: int
    arrows: tuple[tuple[int, int], ...]

    @staticmethod
    def of(quiver: HopfQuiver) -> "AbstractQuiver":
        return AbstractQuiver(
            quiver.num_vertices,
            tuple((a.source, a.target) for a in quiver.arrows),
        )


@dataclass(frozen=True)
class RecognitionResult:
    ram: RamificationData | None
    witness: tuple | None  # ((x1, y1), (x2, y2), count1, count2) on failure

    @property
    def ok(self) -> bool:
        return self.ram is not None


def recognize_hopf_quiver(
    quiver: AbstractQuiver,
    group: FiniteGroup,
    vertex_labeling: Sequence[int] | None = None,
) -> RecognitionResult:
    """Decide whether `quiver` is Q(group, R) under the given vertex labeling.

    Succeeds iff for every x and c the number of arrows x -> cx equals the
    number of arrows 1 -> c' for every c' conjugate to c; the recovered
    ramification is R_C = #arrows(1 -> c).  On failure the witness names two
    vertex pairs whose arrow counts should agree but do not.
    """
    n = group.order
    if quiver.num_vertices != n:
        raise VertexCountMismatch(quiver.num_vertices, n)
    labeling = tuple(vertex_labeling) if vertex_labeling is not None else tuple(range(n))
    if sorted(labeling) != list(range(n)):
        raise ValueError("vertex labeling must be a bijection onto the group elements")
    counts = [[0] * n for _ in range(n)]
    for s, t in quiver.arrows:
        counts[labeling[s]][labeling[t]] += 1
    e = group.identity
    # arrow counts out of the identity vertex must be constant on classes
    base = [0] * n
    for cls in group.classes:
        rep = cls[0]
        base_count = counts[e][group.mul(rep, e)]
        for c in cls:
            seen = counts[e][group.mul(c, e)]
            if seen != base_count:
                return RecognitionResult(
                    None, ((e, group.mul(rep, e)), (e, group.mul(c, e)), base_count, seen)
                )
            base[c] = base_count
    for x in group.elements():
        for c in group.elements():
            cx = group.mul(c, x)
            if counts[x][cx] != base[c]:
                return RecognitionResult(
                    None, ((x, cx), (e, group.mul(c, e)), counts[x][cx], base[c])
                )
    ram = RamificationData.from_dict(
        {i: base[cls[0]] for i, cls in enumerate(group.classes)}
    )
    return RecognitionResult(ram, None)


# ---------------------------------------------------------------------------
# export


def to_dot(quiver: HopfQuiver) -> str:
    """Deterministic DOT rendering of the quiver."""
    lines = ["digraph hopf_quiver {"]
    for v in quiver.group.elements():
        lines.append(f'  g{v} [label="g{v}"];')
    for a in quiver.arrows:
        lines.append(
            f'  g{a.source} -> g{a.target} [label="a{a.index} (c={a.class_elt}, slot={a.slot})"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def quiver_to_json(quiver: HopfQuiver) -> dict:
    return {
        "vertices": quiver.num_vertices,
        "ramification": quiver.ram.to_json(quiver.group),
        "arrows": [
            {
                "index": a.index,
                "source": a.source,
                "class_elt": a.class_elt,
                "slot": a.slot,
                "target": a.target,
            }
            for a in quiver.arrows
        ],
    }
