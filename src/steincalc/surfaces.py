"""Surfaces with boundary, their first homology, curves, and arcs.

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
(``declared_pair``, ``pairwise_disjoint``).

Everything here is an immutable value and every operation is a pure
function, so concurrent evaluation needs no coordination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, FrozenSet, Iterable, Optional, Sequence, Tuple

from .errors import RankMismatchError

NamePair = FrozenSet[str]


def declared_pair(name1: str, name2: str) -> NamePair:
    return frozenset((name1, name2))


def pairwise_disjoint(curves: Sequence[Curve]) -> FrozenSet[NamePair]:
    """The declared pairs stating that the given curves are pairwise disjoint."""
    return frozenset(declared_pair(c.name, d.name) for i, c in enumerate(curves) for d in curves[i + 1:])


@dataclass(frozen=True)
class Surface:
    """An oriented compact surface of genus ``genus`` with ``boundary_count`` >= 1 holes."""

    genus: int
    boundary_count: int

    def __post_init__(self):
        if self.genus < 0:
            raise ValueError(f"genus must be non-negative, got {self.genus}")
        if self.boundary_count < 1:
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

    def d_class(self, j: int) -> "HomologyClass":
        if not 2 <= j <= self.boundary_count:
            raise ValueError(f"d_{j} is not a basis class (valid range 2..{self.boundary_count})")
        return self.basis_class(2 * self.genus + (j - 2))

    def outer_boundary_class(self) -> "HomologyClass":
        """Class of a curve parallel to boundary 1, i.e. -(d_2 + ... + d_b)."""
        coords = [0] * self.rank
        for j in range(2, self.boundary_count + 1):
            coords[2 * self.genus + (j - 2)] = -1
        return HomologyClass(self, tuple(coords))

    def basis_classes(self) -> Tuple["HomologyClass", ...]:
        return tuple(self.basis_class(i) for i in range(self.rank))


@dataclass(frozen=True)
class HomologyClass:
    """An element of H_1 of a fixed surface, as an integer coordinate vector."""

    surface: Surface
    coords: Tuple[int, ...]

    def __post_init__(self):
        if len(self.coords) != self.surface.rank:
            raise RankMismatchError(
                f"vector length {len(self.coords)} != rank {self.surface.rank} "
                f"of surface ({self.surface.genus},{self.surface.boundary_count})"
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


def arc_pairing(rel: Sequence[int], y: HomologyClass) -> int:
    """Pairing of a relative class (coordinates A_1, B_1, ..., A_g, B_g, S_2, ..., S_b)
    with an absolute class.

    The arc basis vector S_j picks out the d_j coordinate of ``y``; A_i and
    B_i pair like their symplectic partners a_i and b_i.
    """
    surface = y.surface
    if len(rel) != surface.rank:
        raise RankMismatchError(f"relative vector length {len(rel)} != rank {surface.rank}")
    total = 0
    for i in range(surface.genus):
        total += rel[2 * i] * y.coords[2 * i + 1] - rel[2 * i + 1] * y.coords[2 * i]
    offset = 2 * surface.genus
    for j in range(offset, surface.rank):
        total += rel[j] * y.coords[j]
    return total


@dataclass(frozen=True)
class Arc:
    """A properly embedded arc from boundary 1 to boundary ``index``, as a relative class.

    Its boundary coordinates are forced: an arc from boundary 1 to boundary
    j has S-part exactly the unit vector S_j, and only its A_i/B_i part can
    vary.
    """

    surface: Surface
    index: int
    rel_class: Tuple[int, ...]

    def __post_init__(self):
        if not 2 <= self.index <= self.surface.boundary_count:
            raise ValueError(f"arc index {self.index} out of range 2..{self.surface.boundary_count}")
        if len(self.rel_class) != self.surface.rank:
            raise RankMismatchError("arc relative class has wrong length")
        unit = tuple(int(j == self.index) for j in range(2, self.surface.boundary_count + 1))
        if tuple(self.rel_class[2 * self.surface.genus:]) != unit:
            raise ValueError(f"an arc to boundary {self.index} has S-part the unit vector S_{self.index}")


def standard_arc(surface: Surface, j: int) -> Arc:
    """The standard arc sigma_j, dual to d_j: rel class = unit vector S_j."""
    coords = [0] * surface.rank
    coords[2 * surface.genus + (j - 2)] = 1
    return Arc(surface, j, tuple(coords))


@dataclass(frozen=True)
class Curve:
    """A simple closed curve, identified by name plus declared data.

    The engine never decides isotopy of arbitrary curves; equality is by
    declared identity.  ``hole_set`` is only meaningful on planar surfaces
    and then forces the homology class (the indicator vector of the set on
    the d_j coordinates, negated when the curve is flagged parallel to the
    outer boundary).
    """

    name: str
    homology: HomologyClass
    hole_set: Optional[FrozenSet[int]] = None
    rotation: Optional[int] = None
    boundary_parallel_to: Optional[int] = None

    def __post_init__(self):
        surface = self.homology.surface
        if self.hole_set is not None:
            if surface.genus != 0:
                raise ValueError(f"curve {self.name}: hole sets only make sense on planar surfaces")
            bad = [j for j in self.hole_set if not 2 <= j <= surface.boundary_count]
            if bad:
                raise ValueError(f"curve {self.name}: hole indices {bad} outside 2..{surface.boundary_count}")
            expected = _hole_set_class(surface, self.hole_set, self.boundary_parallel_to == 1)
            if self.homology != expected:
                raise ValueError(
                    f"curve {self.name}: homology {self.homology.coords} does not match "
                    f"hole set {sorted(self.hole_set)} (expected {expected.coords})"
                )
        if self.boundary_parallel_to is not None:
            b = surface.boundary_count
            if not 1 <= self.boundary_parallel_to <= b:
                raise ValueError(f"curve {self.name}: boundary index {self.boundary_parallel_to} out of range")
            if self.boundary_parallel_to == 1:
                if self.hole_set is not None and self.hole_set != frozenset(range(2, b + 1)):
                    raise ValueError(f"curve {self.name}: an outer-parallel curve encloses every hole")
                if self.homology != surface.outer_boundary_class():
                    raise ValueError(f"curve {self.name}: outer-parallel curves carry class -(d_2+...+d_b)")
            elif self.hole_set is not None:
                if self.hole_set != frozenset((self.boundary_parallel_to,)):
                    raise ValueError(
                        f"curve {self.name}: a curve parallel to boundary {self.boundary_parallel_to} "
                        "encloses exactly that hole"
                    )
            elif not (
                self.homology == surface.d_class(self.boundary_parallel_to)
                or self.homology == -surface.d_class(self.boundary_parallel_to)
            ):
                raise ValueError(f"curve {self.name}: boundary-parallel class must be +/- d_{self.boundary_parallel_to}")

    @property
    def surface(self) -> Surface:
        return self.homology.surface

    @property
    def is_allowable(self) -> bool:
        """A curve is allowable when its homology class is nonzero."""
        return not self.homology.is_zero()


def _hole_set_class(surface: Surface, holes: Collection[int], outer: bool) -> HomologyClass:
    coords = [0] * surface.rank
    for j in holes:
        coords[j - 2] = 1
    cls = HomologyClass(surface, tuple(coords))
    return -cls if outer else cls


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
    return Curve(
        name=name,
        homology=_hole_set_class(surface, hole_set, outer),
        hole_set=hole_set,
        rotation=rotation,
        boundary_parallel_to=boundary_parallel_to,
    )


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
