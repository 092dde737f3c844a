"""Surfaces with boundary, their first homology, and curves.

A surface of genus ``g`` with ``b >= 1`` boundary components carries the
ordered homology basis ``(a_1, b_1, ..., a_g, b_g, d_2, ..., d_b)`` of rank
``2g + b - 1``: one symplectic pair per handle plus one boundary class per
hole beyond the first.  Boundary component 1 is the "outer" one; the class
of a curve parallel to it is ``-(d_2 + ... + d_b)``, and such a curve is
stored with the ``boundary_parallel_to = 1`` flag.

On a planar surface (g = 0) the decidable curves are the convex ones: each
is isotopic to the round boundary of a sub-collection of holes and is
encoded by that subset (its hole set).  Two convex curves are certified
disjoint exactly when their hole sets are nested or disjoint
(``curves_commute``); every other geometric question is answered
"indeterminate" unless the user declares a disjointness fact
(``declared_pair``, ``pairwise_disjoint``).  That rule is wrong for one
case, which is a known open defect: on b >= 5 holes, two disjoint hole sets
can alternate around the circle of holes (a < b < c < d, with a and c in
one set and b and d in the other).  Their convex curves cross and their
twists do not commute, yet they are certified to commute, here and in the
word search.

Everything here is an immutable value (an ``errors.Value``: slotted, with
equality, hash and repr from its fields, and assignment refused) and every
operation is a pure function, so concurrent evaluation needs no
coordination.
"""

from __future__ import annotations

from typing import Collection, FrozenSet, Iterable, Optional, Sequence, Tuple

from .errors import RankMismatchError, Value

NamePair = FrozenSet[str]


def declared_pair(name1: str, name2: str) -> NamePair:
    return frozenset((name1, name2))


def pairwise_disjoint(curves: Sequence[Curve]) -> FrozenSet[NamePair]:
    """The declared pairs stating that the given curves are pairwise disjoint."""
    return frozenset(declared_pair(c.name, d.name) for i, c in enumerate(curves) for d in curves[i + 1:])


class Surface(Value):
    """An oriented compact surface of genus ``genus`` with ``boundary_count`` >= 1 holes."""

    __slots__ = ("genus", "boundary_count")

    def __init__(self, genus: int, boundary_count: int):
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "boundary_count", boundary_count)
        if genus < 0:
            raise ValueError(f"genus must be non-negative, got {genus}")
        if boundary_count < 1:
            raise ValueError("pages of open books always have boundary (b >= 1)")

    @property
    def rank(self) -> int:
        return 2 * self.genus + self.boundary_count - 1

    def zero_class(self) -> "HomologyClass":
        return HomologyClass(self, (0,) * self.rank)

    def basis_class(self, index: int) -> "HomologyClass":
        coords = [0] * self.rank
        coords[index] = 1
        return HomologyClass(self, tuple(coords))

    def a_class(self, i: int) -> "HomologyClass":
        if not 1 <= i <= self.genus:
            raise ValueError(f"a_{i} does not exist on genus {self.genus}")
        return self.basis_class(2 * (i - 1))

    def b_class(self, i: int) -> "HomologyClass":
        if not 1 <= i <= self.genus:
            raise ValueError(f"b_{i} does not exist on genus {self.genus}")
        return self.basis_class(2 * (i - 1) + 1)

    def d_coords(self, j: int) -> Tuple[int, ...]:
        """Coordinates of d_j."""
        if not 2 <= j <= self.boundary_count:
            raise ValueError(f"d_{j} is not a basis class (valid range 2..{self.boundary_count})")
        at = 2 * self.genus + (j - 2)
        return (0,) * at + (1,) + (0,) * (self.rank - 1 - at)

    def d_class(self, j: int) -> "HomologyClass":
        return HomologyClass(self, self.d_coords(j))

    def outer_boundary_coords(self) -> Tuple[int, ...]:
        """Coordinates of -(d_2 + ... + d_b), the class of a curve parallel to boundary 1."""
        return (0,) * (2 * self.genus) + (-1,) * (self.boundary_count - 1)

    def outer_boundary_class(self) -> "HomologyClass":
        """Class of a curve parallel to boundary 1, i.e. -(d_2 + ... + d_b)."""
        return HomologyClass(self, self.outer_boundary_coords())


class HomologyClass(Value):
    """An element of H_1 of a fixed surface, as an integer coordinate vector."""

    __slots__ = ("surface", "coords")

    def __init__(self, surface: Surface, coords: Tuple[int, ...]):
        object.__setattr__(self, "surface", surface)
        object.__setattr__(self, "coords", coords)
        if len(coords) != surface.rank:
            raise RankMismatchError(
                f"vector length {len(coords)} != rank {surface.rank} "
                f"of surface ({surface.genus},{surface.boundary_count})"
            )

    def __add__(self, other: "HomologyClass") -> "HomologyClass":
        _same_surface(self, other)
        return HomologyClass(self.surface, tuple(x + y for x, y in zip(self.coords, other.coords)))

    def __sub__(self, other: "HomologyClass") -> "HomologyClass":
        _same_surface(self, other)
        return HomologyClass(self.surface, tuple(x - y for x, y in zip(self.coords, other.coords)))

    def __neg__(self) -> "HomologyClass":
        return HomologyClass(self.surface, tuple(-x for x in self.coords))

    def __rmul__(self, scalar: int) -> "HomologyClass":
        return HomologyClass(self.surface, tuple(scalar * x for x in self.coords))

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.coords)


def _same_surface(x: HomologyClass, y: HomologyClass) -> None:
    if x.surface != y.surface:
        raise RankMismatchError(f"classes live on different surfaces: {x.surface} vs {y.surface}")


def intersection_pairing(x: HomologyClass, y: HomologyClass) -> int:
    """Algebraic intersection number <x, y>.

    Symplectic on each (a_i, b_i) pair, zero on all boundary classes and
    cross terms; antisymmetric and bilinear.
    """
    _same_surface(x, y)
    total = 0
    for i in range(x.surface.genus):
        total += x.coords[2 * i] * y.coords[2 * i + 1] - x.coords[2 * i + 1] * y.coords[2 * i]
    return total


class Curve(Value):
    """A simple closed curve, identified by name plus declared data.

    The engine never decides isotopy of arbitrary curves; equality is by
    declared identity.  ``hole_set`` is only meaningful on planar surfaces
    and then forces the homology class (the indicator vector of the set on
    the d_j coordinates, negated when the curve is flagged parallel to the
    outer boundary).
    """

    __slots__ = ("name", "homology", "hole_set", "rotation", "boundary_parallel_to")

    def __init__(
        self,
        name: str,
        homology: HomologyClass,
        hole_set: Optional[FrozenSet[int]] = None,
        rotation: Optional[int] = None,
        boundary_parallel_to: Optional[int] = None,
    ):
        if hole_set is not None:
            surface = homology.surface
            if surface.genus != 0:
                raise ValueError(f"curve {name}: hole sets only make sense on planar surfaces")
            expected = _hole_set_coords(surface, name, hole_set, boundary_parallel_to == 1)
            if homology.coords != expected:
                raise ValueError(
                    f"curve {name}: homology {homology.coords} does not match "
                    f"hole set {sorted(hole_set)} (expected {expected})"
                )
        self._settle(name, homology, hole_set, rotation, boundary_parallel_to)

    def _settle(
        self,
        name: str,
        homology: HomologyClass,
        hole_set: Optional[FrozenSet[int]],
        rotation: Optional[int],
        boundary_parallel_to: Optional[int],
    ) -> None:
        """Set the fields and check the boundary flag against them; the
        class already agrees with the hole set."""
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "homology", homology)
        object.__setattr__(self, "hole_set", hole_set)
        object.__setattr__(self, "rotation", rotation)
        object.__setattr__(self, "boundary_parallel_to", boundary_parallel_to)
        surface = homology.surface
        if boundary_parallel_to is not None:
            b = surface.boundary_count
            if not 1 <= boundary_parallel_to <= b:
                raise ValueError(f"curve {name}: boundary index {boundary_parallel_to} out of range")
            if boundary_parallel_to == 1:
                if hole_set is not None and hole_set != frozenset(range(2, b + 1)):
                    raise ValueError(f"curve {name}: an outer-parallel curve encloses every hole")
                if homology.coords != surface.outer_boundary_coords():
                    raise ValueError(f"curve {name}: outer-parallel curves carry class -(d_2+...+d_b)")
            elif hole_set is not None:
                if hole_set != frozenset((boundary_parallel_to,)):
                    raise ValueError(
                        f"curve {name}: a curve parallel to boundary {boundary_parallel_to} "
                        "encloses exactly that hole"
                    )
            else:
                d = surface.d_coords(boundary_parallel_to)
                if homology.coords != d and homology.coords != tuple(-x for x in d):
                    raise ValueError(f"curve {name}: boundary-parallel class must be +/- d_{boundary_parallel_to}")

    @property
    def surface(self) -> Surface:
        return self.homology.surface

    @property
    def is_allowable(self) -> bool:
        """A curve is allowable when its homology class is nonzero."""
        return not self.homology.is_zero()


def _hole_set_coords(surface: Surface, name: str, holes: Collection[int], outer: bool) -> Tuple[int, ...]:
    # the range check comes before any hole indexes a coordinate
    b = surface.boundary_count
    if holes and not (2 <= min(holes) and max(holes) <= b):
        bad = [j for j in holes if not 2 <= j <= b]
        raise ValueError(f"curve {name}: hole indices {bad} outside 2..{b}")
    coords = [0] * surface.rank
    for j in holes:
        coords[j - 2] = -1 if outer else 1
    return tuple(coords)


def convex_curve(
    surface: Surface,
    name: str,
    holes: Iterable[int],
    *,
    outer: bool = False,
    rotation: Optional[int] = None,
    boundary_parallel_to: Optional[int] = None,
) -> Curve:
    """A convex planar curve enclosing the given holes.

    With ``outer=True`` the curve is the one parallel to boundary 1 (its
    hole set must then be all of {2, ..., b}).
    """
    hole_set = frozenset(holes)
    if outer:
        boundary_parallel_to = 1
    homology = HomologyClass(surface, _hole_set_coords(surface, name, hole_set, outer))
    if surface.genus != 0 or boundary_parallel_to == 1 and not outer:
        # a class that may not fit the hole set: ``Curve`` compares them
        return Curve(name, homology, hole_set, rotation, boundary_parallel_to)
    # ``Curve`` would rebuild this class from the hole set only to find it equal
    curve = object.__new__(Curve)
    curve._settle(name, homology, hole_set, rotation, boundary_parallel_to)
    return curve


def twist_action(curve: Curve, x: HomologyClass, sign: int = 1) -> HomologyClass:
    """Homology action of the Dehn twist about ``curve``: the transvection
    x + <x, [c]> [c] for a positive twist, x - <x, [c]> [c] for a negative one.
    """
    c = curve.homology
    k = intersection_pairing(x, c)
    if k == 0:
        return x
    return x + (sign * k) * c


def curves_commute(
    c1: Curve,
    c2: Curve,
    declared: Collection[NamePair] = (),
) -> Optional[bool]:
    """True when the twists about the two curves are certified to commute.

    Certificates: identical curve; hole sets nested or disjoint; or an
    explicit user-declared disjointness fact.  Returns None (indeterminate,
    distinct from False) when no certificate is available: convex
    representatives of overlapping non-nested hole sets intersect, but
    disjoint isotopes may or may not exist, and the engine does not decide.
    """
    if c1.surface != c2.surface:
        raise RankMismatchError("curves live on different surfaces")
    if c1 == c2:
        return True
    if declared_pair(c1.name, c2.name) in declared:
        return True
    if c1.hole_set is not None and c2.hole_set is not None:
        common = c1.hole_set & c2.hole_set
        if not common or common == c1.hole_set or common == c2.hole_set:
            return True
    return None
