"""Non-planarity certificates.

A contact structure supported by an open book with planar page forces
e + sigma to agree across all of its Stein fillings, and any two positive
factorizations of one planar monodromy differ by lantern substitutions,
whose ledger values cancel.  Consequently a positive factorization that
admits an allowable relator with nonzero obstruction value
(sigma_delta + euler_delta != 0), or that bounds one of the known
subsurface configurations, cannot support a planar open book.

The engine certifies only one direction: every "non-planar" verdict
carries a machine-checkable witness, while the absence of an obstruction
is always reported as inconclusive, never as "planar".
"""

from __future__ import annotations

from typing import Collection, Sequence, Tuple

from .errors import NotApplicableError, UnsupportedInputError, Value
from .relators import RelatorEntry, bounding_case
from .surfaces import Curve, NamePair, pairwise_disjoint
from .words import Twist, Word, contains

NON_PLANAR = "non-planar"
NO_OBSTRUCTION = "no-obstruction-found"
NON_PLANAR_CONDITIONAL = "non-planar-conditional"
ASSERTION_INCONSISTENT = "assertion-inconsistent"


class RelatorWitness(Value):
    """Evidence for a relator-admission certificate: re-running containment
    with these positions and allowability data reproduces the verdict."""

    __slots__ = (
        "relator_name",
        "obstruction",
        "obstruction_nonzero",
        "positions",
        "swaps",
        "homology_allowable",
        "obstruction_asserted",
    )


class BoundingWitness(Value):
    """Evidence for a bounded-subsurface certificate."""

    __slots__ = ("genus", "boundary_count", "multicurve", "positions", "swaps")


class PlanarityCertificate(Value):
    __slots__ = ("verdict", "basis", "witness", "notes")
    _defaults = {"witness": None, "notes": ()}


class BoundingDeclaration(Value):
    """A user-declared embedded subsurface: its genus and boundary count,
    with the boundary multicurve named among the factorization's curves."""

    __slots__ = ("genus", "boundary_count", "multicurve")

    def __init__(self, genus: int, boundary_count: int, multicurve: Tuple[Curve, ...]):
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "boundary_count", boundary_count)
        object.__setattr__(self, "multicurve", multicurve)
        if genus < 0:
            raise ValueError(f"declared subsurface has negative genus {genus}")
        if boundary_count < 1:
            raise ValueError(f"declared subsurface has {boundary_count} boundary components, not at least one")
        if len(multicurve) != boundary_count:
            raise ValueError(
                f"declared subsurface has {boundary_count} boundary components "
                f"but the multicurve lists {len(multicurve)} curves"
            )


def detect_relator(
    word: Word,
    entries: Sequence[RelatorEntry],
    declared: Collection[NamePair] = (),
) -> list:
    """Scan a database of relators for admitted obstructions.

    For each entry whose left side is contained in the word (up to
    certified commutations): a nonzero obstruction value, together with
    allowability (from homology, or asserted by the entry's construction),
    yields a non-planar certificate.  Matches with zero obstruction are
    reported in notes.  No matches means no obstruction was found, which is
    never a planarity proof.  The word must be positive: the obstructions
    are read off a Stein filling.
    """
    if not word.is_positive:
        raise UnsupportedInputError("obstruction detection is defined on positive words")
    certificates = []
    notes = []
    given = frozenset(declared)
    for entry in entries:
        left = entry.relator.left
        if left.surface != word.surface:
            continue
        if not left.twists:  # contained in every word, so it certifies nothing
            notes.append(f"relator {entry.name} has an empty left side, which marks no place in the word")
            continue
        witness = contains(word, left, given.union(entry.disjoint))
        if witness is None:
            continue
        if not entry.has_nonzero_obstruction:
            notes.append(
                f"relator {entry.name} is admitted but its obstruction value is zero"
                if entry.obstruction == 0
                else f"relator {entry.name} is admitted but its obstruction value is unknown"
            )
            continue
        allowable = entry.relator.allowable
        if not (allowable or entry.obstruction_asserted):
            notes.append(
                f"relator {entry.name} is admitted with nonzero obstruction but is not allowable"
            )
            continue
        value = entry.obstruction
        basis = (
            "the factorization admits an allowable relator whose signature-plus-exponent "
            f"obstruction is {value}; a planar open book would force that value to vanish"
        )
        cert_notes = []
        if not allowable and entry.obstruction_asserted:
            cert_notes.append(
                "allowability rests on the entry's construction (boundary twists replaced "
                "through chain relations), not on the stored homology classes"
            )
        if entry.note:
            cert_notes.append(entry.note)
        certificates.append(
            PlanarityCertificate(
                verdict=NON_PLANAR,
                basis=basis,
                witness=RelatorWitness(
                    relator_name=entry.name,
                    obstruction=value,
                    obstruction_nonzero=True,
                    positions=witness.positions,
                    swaps=witness.swaps,
                    homology_allowable=allowable,
                    obstruction_asserted=entry.obstruction_asserted,
                ),
                notes=tuple(cert_notes),
            )
        )
    if certificates:
        return certificates
    return [
        PlanarityCertificate(
            verdict=NO_OBSTRUCTION,
            basis="no admitted relator with nonzero obstruction value was found; "
            "this is inconclusive, not a planarity proof",
            notes=tuple(notes),
        )
    ]


def detect_bounding(
    word: Word,
    declaration: BoundingDeclaration,
    declared: Collection[NamePair] = (),
) -> PlanarityCertificate:
    """Check a declared bounded subsurface against the known obstruction cases.

    The boundary multicurve twists must all appear in the factorization
    (they pairwise commute, so ordering is free).  Obstructing shapes:
    two or fewer boundary components at genus >= 1, genus 1 with at most
    9 holes, genus 2 with at most 8.  The word must be positive.
    """
    if not word.is_positive:
        raise UnsupportedInputError("obstruction detection is defined on positive words")
    multicurve_names = tuple(c.name for c in declaration.multicurve)
    target = Word(word.surface, tuple(Twist(c, 1) for c in declaration.multicurve))
    witness = contains(word, target, pairwise_disjoint(declaration.multicurve).union(declared))
    if witness is None:
        raise NotApplicableError(
            "the declared boundary multicurve does not appear in the factorization "
            "(up to certified commutations)"
        )
    case = bounding_case(declaration.genus, declaration.boundary_count)
    if case.verdict == "obstructs":
        return PlanarityCertificate(
            verdict=NON_PLANAR,
            basis=(
                f"the factorization bounds an embedded genus-{declaration.genus} subsurface "
                f"with {declaration.boundary_count} boundary components, a configuration whose "
                "associated relator has nonzero signature-plus-exponent obstruction"
            ),
            witness=BoundingWitness(
                genus=declaration.genus,
                boundary_count=declaration.boundary_count,
                multicurve=multicurve_names,
                positions=witness.positions,
                swaps=witness.swaps,
            ),
            notes=(case.note,),
        )
    return PlanarityCertificate(
        verdict=NO_OBSTRUCTION,
        basis="the declared subsurface is outside the known obstruction cases",
        notes=(case.note,),
    )


def esig_planarity_test(pair1: Tuple[int, int], pair2: Tuple[int, int]) -> PlanarityCertificate:
    """Compare (e, sigma) of two fillings asserted to fill the same contact
    manifold (an assertion the engine cannot verify).

    Unequal sums exclude planarity conditional on that assertion; sums that
    differ mod 4 contradict a congruence holding for every contact
    3-manifold, so the assertion itself is inconsistent.
    """
    esig1 = pair1[0] + pair1[1]
    esig2 = pair2[0] + pair2[1]
    if (esig1 - esig2) % 4 != 0:
        return PlanarityCertificate(
            verdict=ASSERTION_INCONSISTENT,
            basis=(
                f"e + sigma values {esig1} and {esig2} differ mod 4, which no pair of fillings "
                "of one contact manifold can do; the common-boundary assertion is wrong"
            ),
        )
    if esig1 != esig2:
        return PlanarityCertificate(
            verdict=NON_PLANAR_CONDITIONAL,
            basis=(
                f"e + sigma values {esig1} and {esig2} differ; planar contact manifolds force "
                "equality across fillings, so planarity is excluded conditional on the asserted "
                "common boundary"
            ),
        )
    return PlanarityCertificate(
        verdict=NO_OBSTRUCTION,
        basis=f"e + sigma agree (= {esig1}); consistent with planarity, which this does not prove",
    )
