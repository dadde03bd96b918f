"""Exception types shared across the library."""


class HopfQuiverError(Exception):
    """Base class for all library errors."""


class FieldDivisionError(HopfQuiverError, ZeroDivisionError):
    """Inverse of the zero scalar was requested."""


class RootNotInField(HopfQuiverError):
    """A requested root of unity does not exist in the configured field."""


class NotAssociative(HopfQuiverError):
    def __init__(self, triple):
        self.triple = triple
        super().__init__(f"multiplication table is not associative at {triple}")


class NoIdentity(HopfQuiverError):
    def __init__(self):
        super().__init__("multiplication table has no two-sided identity")


class NoInverse(HopfQuiverError):
    def __init__(self, element):
        self.element = element
        super().__init__(f"element {element} has no two-sided inverse")


class ZeroCocycleValue(HopfQuiverError):
    def __init__(self, triple):
        self.triple = triple
        super().__init__(f"cocycle value at {triple} is zero; it must be invertible")


class MalformedCocycleTable(HopfQuiverError):
    """A cocycle table is not an n x n x n array of scalars: `index` is () for
    the table, (a,) for a plane, (a, b) for a row, (a, b, c) for an entry."""

    def __init__(self, index, reason):
        self.index = index
        self.reason = reason
        super().__init__(f"cocycle table at {index}: {reason}")


class ActionNotDegree1(HopfQuiverError):
    def __init__(self, key):
        self.key = key
        super().__init__(f"action value at {key} is not homogeneous of degree 1")


class DegreeCapExceeded(HopfQuiverError):
    def __init__(self, needed, cap):
        self.needed = needed
        self.cap = cap
        super().__init__(f"operation needs degree {needed} but the structure is capped at {cap}")


class NotSingleVertex(HopfQuiverError):
    def __init__(self, num_vertices):
        self.num_vertices = num_vertices
        super().__init__(f"primitive extraction needs a one-vertex quiver, got {num_vertices} vertices")


class VertexCountMismatch(HopfQuiverError):
    def __init__(self, quiver_vertices, group_order):
        self.quiver_vertices = quiver_vertices
        self.group_order = group_order
        super().__init__(
            f"quiver has {quiver_vertices} vertices but the group has order {group_order}"
        )


class IsoCheckFailed(HopfQuiverError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"crossed-product transport check failed at {witness}")


class SpecError(HopfQuiverError):
    """A problem file is malformed or internally inconsistent."""
