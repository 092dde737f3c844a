"""Built-in relators on standard curve configurations, with their ledger values.

Each entry pairs a relator with the two integers that drive the planarity
obstruction: ``sigma_delta`` (the signature change of the filling under a
substitution) and ``euler_delta`` (the Euler-characteristic change, i.e.
the exponent difference of the two sides).  Signature deltas are stored
constants plus additivity; they are never computed from a cocycle.  The
Euler change, the allowability and the obstruction value follow from the
words (``words.Relator``, ``RelatorEntry``), so the functions below state
only the signature change.  Every relator carries both of its words.  The
bounded-subsurface obstruction is not a relator here: it is the
``bounding_case`` table, which ``planarity.detect_bounding`` reads.

The boundary curve of an even chain bounds its supporting subsurface and is
therefore null-homologous, so even-chain relators are never allowable in
the homology sense.  The 2- and 3-chain entries still carry the obstruction
(``obstruction_asserted``): replacing the boundary twist through further
chain relations yields an allowable relator with the same obstruction
value, so detection on these configurations is legitimate; certificates
record which basis applied.
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Tuple

from .errors import RankMismatchError, Value
from .surfaces import (
    Curve,
    HomologyClass,
    NamePair,
    Surface,
    convex_curve,
    declared_pair,
    intersection_pairing,
    pairwise_disjoint,
    twist_action,
)
from .words import Relator, word_of

LANTERN_SIGMA_DELTA = 1
CHAIN2_SIGMA_DELTA = -7
CHAIN3_SIGMA_DELTA = -6


class RelatorEntry(Value):
    """A relator plus obstruction bookkeeping.

    ``obstruction`` is sigma_delta + euler_delta when sigma_delta is known,
    taken from the relator when not given; a given value must agree with
    it.  An entry certifies non-planarity only through a known nonzero
    value.
    ``obstruction_asserted`` marks entries whose obstruction stands on an
    external construction rather than on the homology allowability of the
    stored words (see module docstring).
    """

    __slots__ = (
        "relator",
        "obstruction",
        "obstruction_asserted",
        "disjoint",
        "note",
    )

    def __init__(
        self,
        relator: Relator,
        obstruction: Optional[int] = None,
        obstruction_asserted: bool = False,
        disjoint: FrozenSet[NamePair] = frozenset(),
        note: str = "",
    ):
        derived = relator.obstruction
        if obstruction is None:
            obstruction = derived
        elif derived is not None and obstruction != derived:
            raise ValueError(
                f"entry {relator.name}: obstruction {obstruction} != "
                f"sigma_delta + euler_delta = {derived}"
            )
        object.__setattr__(self, "relator", relator)
        object.__setattr__(self, "obstruction", obstruction)
        object.__setattr__(self, "obstruction_asserted", obstruction_asserted)
        object.__setattr__(self, "disjoint", disjoint)
        object.__setattr__(self, "note", note)

    @property
    def name(self) -> str:
        return self.relator.name

    @property
    def has_nonzero_obstruction(self) -> bool:
        return self.obstruction is not None and self.obstruction != 0


def lantern(
    a1: Curve,
    a2: Curve,
    a3: Curve,
    a4: Curve,
    a12: Curve,
    a23: Curve,
    a13: Curve,
    name: str = "lantern",
) -> RelatorEntry:
    """The lantern relator on a four-holed sphere configuration.

    Left side: the four boundary twists (a1 a2 a3 a4).  Right side: the
    three interior twists (a12 a23 a13).  The homology consistency check
    [a12]+[a23]+[a13] = [a1]+[a2]+[a3]+[a4] accepts [a4] up to sign, since
    an outer-parallel curve stores the negated class.
    """
    boundary = (a1, a2, a3, a4)
    interior = (a12, a23, a13)
    surface = a1.surface
    for c in boundary + interior:
        if c.surface != surface:
            raise RankMismatchError(f"lantern curve {c.name} lives on a different surface")
    total = interior[0].homology + interior[1].homology + interior[2].homology
    partial = a1.homology + a2.homology + a3.homology
    difference = total - partial
    if difference != a4.homology and difference != -a4.homology:
        raise ValueError(
            "lantern homology identity fails: "
            f"[a12]+[a23]+[a13]-[a1]-[a2]-[a3] = {difference.coords}, [a4] = {a4.homology.coords}"
        )
    relator = Relator(
        name=name,
        left=word_of(surface, boundary),
        right=word_of(surface, interior),
        sigma_delta=LANTERN_SIGMA_DELTA,
    )
    # the boundary curves, and each interior curve with a4 and with the one
    # of a1, a2, a3 it does not enclose
    disjoint = pairwise_disjoint(boundary).union(
        *(pairwise_disjoint((a, c, a4)) for a, c in ((a1, a23), (a2, a13), (a3, a12)))
    )
    return RelatorEntry(relator=relator, disjoint=disjoint)


def standard_lantern() -> RelatorEntry:
    """The lantern on the four-holed sphere, hole sets {2},{3},{4},{2,3,4}."""
    surface = Surface(0, 4)
    a1 = convex_curve(surface, "a1", {2})
    a2 = convex_curve(surface, "a2", {3})
    a3 = convex_curve(surface, "a3", {4})
    a4 = convex_curve(surface, "a4", {2, 3, 4}, boundary_parallel_to=1)
    a12 = convex_curve(surface, "a12", {2, 3})
    a23 = convex_curve(surface, "a23", {3, 4})
    a13 = convex_curve(surface, "a13", {2, 4})
    return lantern(a1, a2, a3, a4, a12, a23, a13)


class ChainConfig(Value):
    """A chain of curves plus the boundary of its regular neighborhood.

    Consecutive chain curves pair once, non-consecutive ones not at all.
    An even chain of length n fills a genus n/2 surface with one boundary
    curve (necessarily null-homologous); an odd chain fills genus (n-1)/2
    with two boundary curves whose classes cancel.
    """

    __slots__ = ("surface", "curves", "boundary")

    def __init__(self, surface: Surface, curves: Tuple[Curve, ...], boundary: Tuple[Curve, ...]):
        object.__setattr__(self, "surface", surface)
        object.__setattr__(self, "curves", curves)
        object.__setattr__(self, "boundary", boundary)
        n = len(self.curves)
        if n < 1:
            raise ValueError("a chain needs at least one curve")
        expected_boundary = 1 if n % 2 == 0 else 2
        if len(self.boundary) != expected_boundary:
            raise ValueError(
                f"a chain of length {n} has {expected_boundary} boundary curve(s), got {len(self.boundary)}"
            )
        for c in self.curves + self.boundary:
            if c.surface != self.surface:
                raise RankMismatchError(f"chain curve {c.name} lives on a different surface")
        for i in range(n):
            for j in range(i + 1, n):
                pairing = intersection_pairing(self.curves[i].homology, self.curves[j].homology)
                want = 1 if j == i + 1 else 0
                if abs(pairing) != want:
                    raise ValueError(
                        f"chain pairing <{self.curves[i].name},{self.curves[j].name}> = {pairing}, "
                        f"want +/-{want}"
                    )
        for d in self.boundary:
            for c in self.curves:
                if intersection_pairing(d.homology, c.homology) != 0:
                    raise ValueError(f"boundary curve {d.name} must pair trivially with the chain")
        total = self.surface.zero_class()
        for d in self.boundary:
            total = total + d.homology
        if not total.is_zero():
            raise ValueError("boundary classes of a chain neighborhood must sum to zero")


def chain_surface(n: int) -> Surface:
    """The minimal supporting surface of the length-n chain: genus n // 2,
    with one boundary component for even n and two for odd n (rank n)."""
    if n < 1:
        raise ValueError("chain length must be at least 1")
    return Surface(n // 2, 1 if n % 2 == 0 else 2)


def standard_chain_config(n: int) -> ChainConfig:
    """The chain on its minimal supporting surface.

    Odd slots carry the handle classes a_i, even slots b_i + b_{i+1}; an
    odd chain closes with a_h - a_{h-1} + a_{h-2} - ... + d_2, coefficient
    (-1)^(h-i) on a_i, the one class pairing once with b_h and trivially
    with every other chain curve.  So the alternating sum of odd-slot
    classes is the second boundary class d_2 up to sign.
    """
    surface = chain_surface(n)
    rank = surface.rank
    classes = []
    for k in range(1, n + 1):
        coords = [0] * rank
        if k % 2 == 0:
            i = k // 2
            coords[2 * (i - 1) + 1] = 1
            if i + 1 <= surface.genus:
                coords[2 * i + 1] = 1
        elif k < n or n % 2 == 0:
            i = (k + 1) // 2
            coords[2 * (i - 1)] = 1
        else:
            for i in range(1, surface.genus + 1):
                coords[2 * (i - 1)] = (-1) ** (surface.genus - i)
            coords[2 * surface.genus] = 1
        classes.append(HomologyClass(surface, tuple(coords)))
    curves = tuple(Curve(f"c{k + 1}", cls) for k, cls in enumerate(classes))
    if n % 2 == 0:
        boundary = (Curve("delta", surface.zero_class(), boundary_parallel_to=1),)
    else:
        boundary = (
            Curve("delta1", surface.outer_boundary_class(), boundary_parallel_to=1),
            Curve("delta2", surface.d_class(2), boundary_parallel_to=2),
        )
    return ChainConfig(surface=surface, curves=curves, boundary=boundary)


def chain(n: int, config: Optional[ChainConfig] = None, name: Optional[str] = None) -> RelatorEntry:
    """The chain relator of length n.

    Left side: the boundary twist(s).  Right side: the chain word raised to
    the 2n+2 (n even) or n+1 (n odd) power, so euler_delta is n(2n+2) - 1
    or n(n+1) - 2.  Signature deltas are stored for n <= 3 only; longer
    chains keep the exponent count and rely on bounding detection.
    """
    if config is None:
        config = standard_chain_config(n)
    if len(config.curves) != n:
        raise ValueError(f"config carries {len(config.curves)} curves, chain length is {n}")
    name = name or f"chain-{n}"
    power = 2 * n + 2 if n % 2 == 0 else n + 1
    curves, boundary = config.curves, config.boundary
    relator = Relator(
        name=name,
        left=word_of(config.surface, boundary),
        right=word_of(config.surface, list(curves) * power),
        sigma_delta={1: 0, 2: CHAIN2_SIGMA_DELTA, 3: CHAIN3_SIGMA_DELTA}.get(n),
    )
    # the boundary curves with each chain curve, and non-consecutive chain curves
    disjoint = frozenset().union(
        *(pairwise_disjoint(boundary + (c,)) for c in curves),
        (declared_pair(c.name, d.name) for i, c in enumerate(curves) for d in curves[i + 2:]),
    )
    return RelatorEntry(
        relator=relator,
        obstruction_asserted=n in (2, 3),
        disjoint=disjoint,
        note="" if n != 1 else "degenerate: both boundary curves are isotopic to the chain curve",
    )


def braid_relator(alpha: Curve, beta: Curve, image: Curve, name: str = "braid") -> RelatorEntry:
    """A braid-type relator: tau_alpha tau_beta = tau_image tau_alpha where
    ``image`` is declared to be the twist of beta about alpha.

    The engine cannot compute image curves, so the caller supplies one; the
    homology necessary condition [image] = (tau_alpha)_*[beta] is checked
    up to sign.  Both ledger values vanish.
    """
    expected = twist_action(alpha, beta.homology)
    if image.homology != expected and image.homology != -expected:
        raise ValueError(
            f"braid image class {image.homology.coords} is not the transvection "
            f"image {expected.coords} of [{beta.name}] about {alpha.name}"
        )
    surface = alpha.surface
    relator = Relator(
        name=name,
        left=word_of(surface, (alpha, beta)),
        right=word_of(surface, (image, alpha)),
        sigma_delta=0,
    )
    return RelatorEntry(relator=relator)


def standard_braid() -> RelatorEntry:
    """Braid relator on the one-holed torus: alpha = a_1, beta = b_1."""
    surface = Surface(1, 1)
    alpha = Curve("a1", surface.a_class(1))
    beta = Curve("b1", surface.b_class(1))
    image = Curve("a1_b1", surface.b_class(1) - surface.a_class(1))
    return braid_relator(alpha, beta, image)


def non_standard_relator(name: str = "non-standard") -> RelatorEntry:
    """A relator on the genus-1, 3-holed surface built from two lanterns of
    opposite orientation and a 2-chain, with no bounded subsurface in sight.

    Left side: three twists; right side: fourteen.  Its ledger values agree
    with the 2-chain's, so it detects non-planarity on configurations the
    bounding route misses.
    """
    surface = Surface(1, 3)

    def cls(*coords: int) -> HomologyClass:
        return HomologyClass(surface, coords)

    alpha = Curve("alpha", cls(1, 0, 0, 0))
    beta = Curve("beta", cls(0, 1, 0, 0))
    a1 = Curve("a1", cls(0, 0, -1, -1), boundary_parallel_to=1)
    a12 = Curve("a12", cls(0, 0, 0, -1))
    a13 = Curve("a13", cls(0, 0, -1, 0))
    ap12 = Curve("ap12", cls(0, 1, 1, 0))
    ap13 = Curve("ap13", cls(0, 1, 0, 1))
    ap4 = Curve("ap4", cls(0, -1, -1, -1))

    relator = Relator(
        name=name,
        left=word_of(surface, (ap4, a13, a12)),
        right=word_of(surface, [alpha] + [beta, alpha] * 5 + [ap13, ap12, a1]),
        sigma_delta=CHAIN2_SIGMA_DELTA,
    )
    return RelatorEntry(relator=relator, obstruction_asserted=True)


class BoundingCase(Value):
    """What is known when a factorization bounds a genus-g, b-holed subsurface."""

    __slots__ = ("verdict", "note")  # verdict: "obstructs" | "unknown" | "no-relator" | "none"


def bounding_case(g: int, b: int) -> BoundingCase:
    """Case table for the bounded-subsurface obstruction.

    Non-planarity follows when (g >= 1, b in {1,2}), (g = 1, b <= 9) or
    (g = 2, b <= 8).  Genus-1 subsurfaces with more than 9 holes admit no
    such relator (an elliptic fibration has at most 9 disjoint sections);
    for genus 2 the bound is 12, with existence open for 9 <= b <= 12.
    """
    if g <= 0:
        return BoundingCase("none", "planar subsurfaces carry no bounding obstruction")
    if b in (1, 2):
        note = "bounded genus >= 1 subsurface with at most two boundary components"
        if g == 1 and b == 1:
            note += " (the one-holed torus case rests on the non-planar filling of the Poincare sphere)"
        return BoundingCase("obstructs", note)
    if g == 1:
        if b <= 9:
            return BoundingCase(
                "obstructs",
                "genus-1 subsurface with 2 <= b <= 9 boundary components; "
                "obstruction value agrees with the 2-chain's (= 4)",
            )
        return BoundingCase(
            "no-relator",
            "no such relator for b > 9: elliptic fibrations admit at most 9 disjoint sections",
        )
    if g == 2:
        if b <= 8:
            return BoundingCase("obstructs", "genus-2 subsurface with b <= 8 boundary components")
        if b <= 12:
            return BoundingCase("unknown", "it is not known whether relators exist for 9 <= b <= 12")
        return BoundingCase("no-relator", "no such relator for b > 12")
    return BoundingCase("unknown", f"no configured obstruction for genus {g} with {b} boundary components")


def builtin_entries() -> Tuple[RelatorEntry, ...]:
    """The stock database: lantern, chains up to length 6, the braid
    example, and the non-standard relator, each on its standard surface."""
    return (
        standard_lantern(),
        *(chain(n) for n in range(1, 7)),
        standard_braid(),
        non_standard_relator(),
    )
