"""Invariants of the Lefschetz filling carried by a positive factorization,
and of its boundary open book.

A positive word on a genus-g, b-holed page builds a 4-manifold from
(page) x (disk) by attaching one 2-handle per twist, with framing -1
relative to the page framing.  Euler characteristic is immediate:
(2 - 2g - b) + word length.  On a planar page with convex curves the
intersection form is computed exactly: the handle classes surviving to
second homology are the integer kernel of the boundary map sending each
curve to its homology class, and on that kernel the -1 framings restrict
to minus the standard dot product of coefficient vectors (hole-bilinear
corrections vanish on the kernel, so this representative is well defined;
it is pinned by the <-b> boundary-multitwist calibration and the lantern
substitution check).  One Smith normal form U B V = D of the boundary map
B, carrying nothing, yields the kernel K (the columns of V past the rank, as
sparse columns), whose form -K^T K ``negated_gram`` builds from one
triangle as the tuple rows ``PlanarForm.matrix`` stores, and its
orthogonal complement, the saturated row space C (rows of V^-1); the two
have isomorphic discriminant groups, so the form's invariant factors
above 1 are those of C C^T.  When every nonzero d_i is 1, B B^T is
U^-1 (C C^T + 0) U^-T, so they are the torsion of H_1 of the boundary
below, which ``filling_invariants`` builds once per word and hands to the
form; otherwise they come from the Smith diagonal (``smith_diagonal``, no
transforms) of the r x r Gram matrix C C^T, with r <= b-1 the rank of B,
and the form eliminates B again, carrying B's own columns, whose rows of
U B are those of C scaled by d_i.  So q itself is read by the report
alone.  The form is negative definite, so its signature is
rank B - n, and ``sigma`` reads rank B as the signature of the positive
semidefinite B B^T (the planar arc relations) by ``symmetric_signature``,
with no Smith form, no Gram matrix and no H_1.  Off the planar page the signature is ledger-relative only:
an asserted baseline plus the signature deltas of the substitutions
applied since, and "unknown" without one.
``check_comparable`` says whether two signatures can enter one e + sigma
comparison; ``planarity.esig_planarity_test`` gives its verdict.

First homology of the boundary 3-manifold is presented on the surface
basis by one variation map: phi - id on the handle classes (it fixes the
boundary classes) and one relation per standard arc, the arc of relative
class S_j joining boundary 1 to boundary j.  Any other arc to j differs
from it by a handle class, whose variation is already a relation, so no
other choice of arcs changes the group.  On a planar page an arc's
relative class never moves, so the arc relations are the columns of
B S B^T, with S the diagonal of twist signs, built in one pass over the
twists.  On pages of positive genus ``variation_rows`` (in ``words``, the
one homology mover, which ``verify_relator`` also reads) moves the 2g
handle classes and the b - 1 arcs together in one pass over the twists,
right to left.  Both build each curve's support (and pairing functional)
once, from the table of distinct curves that every ``Word`` carries, and
walk its letters.  The relations reach the quotient by rows, the layout
its eliminations read: B S B^T is symmetric, and ``variation_rows`` moves
the classes by coordinates, so neither is transposed.  Torsion is the payload, so nothing is done
rationally.  The h1 report and q's torsion read only H_1's Smith
diagonal, which ``smith_diagonal`` gives without transforms; the c1 report
reduces a class, so ``chern_pd`` alone makes H_1 run a
``smith_normal_form``, in the quotient's one query ``order_and_reduce``,
which carries c1's vector v and reads the order and the representative
of c1 from U v, with no U and no A V.
``filling_invariants`` runs it before the planar form, so a word with
Chern inputs runs one Smith form per H_1 and reads its diagonal from it,
and a word without them runs none.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .errors import IncomparableSigmaError, RankMismatchError, UnsupportedInputError, Value
from .intlinalg import AbelianQuotient, Matrix, add_multiple, negated_gram, smith_diagonal, smith_normal_form, symmetric_signature, zeros
from .surfaces import Surface
from .words import SubstitutionRecord, Word, unit_basis, variation_rows


def euler_characteristic(word: Word) -> int:
    """Euler characteristic of the filling: chi(page) + one per handle."""
    surface = word.surface
    return (2 - 2 * surface.genus - surface.boundary_count) + len(word)


class PlanarForm(Value):
    """Exact intersection form data of a planar filling."""

    __slots__ = ("matrix", "b2", "invariant_factors")

    def __init__(self, matrix: Tuple[Tuple[int, ...], ...], b2: int, invariant_factors: Tuple[int, ...]):
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "b2", b2)
        object.__setattr__(self, "invariant_factors", invariant_factors)

    @property
    def sigma(self) -> int:
        """The form is negative definite, so its signature is -b2."""
        return -self.b2


def has_exact_form(word: Word) -> bool:
    """Whether the word's filling has an exact intersection form: a positive
    word on a planar page whose every curve carries a hole set."""
    return (
        word.surface.genus == 0
        and word.is_positive
        and all(c.hole_set is not None for c in word._curves)
    )


def planar_intersection_form(word: Word, h1: Optional[AbelianQuotient] = None) -> PlanarForm:
    """Exact intersection form of the filling over a planar page.

    Requires every curve to carry a hole set (the decidable planar
    fragment).  The torsion is read off ``h1``, H_1 of the boundary (built
    here when None), when every d_i of the boundary map is at most 1.  The
    boundary map's Smith form carries nothing; the scaled branch alone,
    where some d_i > 1, eliminates it again carrying its own columns, to
    read the rows of U B.
    """
    if not has_exact_form(word):
        raise UnsupportedInputError(
            "exact intersection forms need a positive word on a planar page whose curves all have hole sets"
        )
    n = len(word)
    # the boundary map B: one column per twist, the homology class of its
    # curve (outer-parallel curves enter through their stored negated class)
    rank = word.surface.rank
    coords = [c.homology.coords for c in word._curves]
    columns = [coords[k] for k in word._letters]
    boundary_map = [[column[i] for column in columns] for i in range(rank)]
    snf = smith_normal_form(boundary_map, cols=n)
    r = snf.rank
    matrix = negated_gram(snf.columns[r:])  # -K^T K
    b2 = n - r
    # The first r rows C of V^-1 span the saturated row space of the
    # boundary map, the orthogonal complement of the kernel in the
    # unimodular lattice Z^n.  Both are primitive, so their discriminant
    # groups agree (Nikulin): C C^T has q's invariant factors above 1.
    if all(d <= 1 for d in snf.diag):
        # B = U^-1 D V^-1 with D's nonzero entries 1, so B B^T is
        # U^-1 (C C^T + 0) U^-T and its cokernel, H_1 of the boundary (the
        # word is positive, so B S B^T = B B^T), has the torsion of C C^T.
        torsion = (h1 if h1 is not None else h1_boundary(word)).invariant_factors
    else:
        # Some d_i > 1 scales the row space.  Row i < r of V^-1 is row i of
        # U B / d_i, so this branch alone eliminates again carrying B, reads
        # the first r rows of U B, and takes the Smith diagonal of the r x r
        # Gram matrix of C, whose sign it does not see.
        scaled = smith_normal_form(boundary_map, cols=n, carried=columns).row_ops[:r]
        complement = negated_gram([{k: x // d for k, x in enumerate(row) if x} for row, d in zip(scaled, snf.diag)])
        torsion = tuple(d for d in smith_diagonal(complement) if d > 1)
    # The kernel basis has full column rank, so q = -K^T K is negative
    # definite and its signature is -b2.
    return PlanarForm(
        matrix=matrix,
        b2=b2,
        invariant_factors=(1,) * (b2 - len(torsion)) + torsion,
    )


class SigmaLedger(Value):
    """An asserted signature for one factorization plus applied substitutions."""

    __slots__ = ("baseline_name", "baseline_sigma", "records")

    def __init__(self, baseline_name: str, baseline_sigma: int, records: Tuple[SubstitutionRecord, ...] = ()):
        object.__setattr__(self, "baseline_name", baseline_name)
        object.__setattr__(self, "baseline_sigma", baseline_sigma)
        object.__setattr__(self, "records", records)

    @property
    def offset(self) -> Optional[int]:
        total = 0
        for r in self.records:
            if r.sigma_delta is None:
                return None
            total += r.sigma_delta
        return total


class SigmaValue(Value):
    """An exact, baseline-relative, or unknown signature."""

    __slots__ = ("mode", "value", "baseline_name", "offset")  # mode: "exact" | "relative" | "unknown"

    def __init__(
        self,
        mode: str,
        value: Optional[int],
        baseline_name: Optional[str] = None,
        offset: Optional[int] = None,
    ):
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "baseline_name", baseline_name)
        object.__setattr__(self, "offset", offset)


def sigma(word: Word, ledger: Optional[SigmaLedger] = None) -> SigmaValue:
    """Signature of the filling: exact on the planar fragment, otherwise the
    baseline plus the accumulated substitution deltas.

    The exact value is rank B - n for the boundary map B: the form is
    negative definite of rank b2 = n - rank B.
    Never raises: mode is "unknown" when the page is off the planar
    fragment and no baseline is asserted, or when some applied relator has
    no stored signature delta.
    """
    if has_exact_form(word):
        # a positive word's arc relations B B^T are positive semidefinite: signature = rank = rank B
        return SigmaValue(mode="exact", value=symmetric_signature(_planar_arc_relations(word)) - len(word))
    if ledger is None:
        return SigmaValue(mode="unknown", value=None)
    offset = ledger.offset
    if offset is None:
        return SigmaValue(mode="unknown", value=None, baseline_name=ledger.baseline_name)
    return SigmaValue(
        mode="relative",
        value=ledger.baseline_sigma + offset,
        baseline_name=ledger.baseline_name,
        offset=offset,
    )


def _planar_arc_relations(word: Word) -> Matrix:
    """B S B^T for the boundary map B and the diagonal S of twist signs:
    on a planar page every closed class dies in relative coordinates, so an
    arc of relative class rho has relation B S B^T rho, the variation of rho."""
    rank = word.surface.rank
    m = zeros(rank, rank)
    supports = [[(i, x) for i, x in enumerate(c.homology.coords) if x] for c in word._curves]
    for t, k in zip(word.twists, word._letters):
        support = supports[k]
        for i, x in support:
            row = m[i]
            sx = t.sign * x
            for j, y in support:
                row[j] += sx * y
    return m


def h1_boundary(word: Word) -> AbelianQuotient:
    """H_1 of the boundary open book of the word.

    Quotient of the surface homology by the variation of the handle classes
    (the d_j pair trivially with every class, so the monodromy fixes them)
    and of the standard arc to each boundary component beyond the first.
    """
    surface = word.surface
    rank = surface.rank
    if surface.genus == 0:
        # the standard arc to boundary j has relative class S_j, so its
        # relation is column j of the symmetric B S B^T, which is row j
        return AbelianQuotient(rank, _planar_arc_relations(word))
    handles = 2 * surface.genus
    # the unit vectors A_1, B_1, ..., A_g, B_g, then S_2, ..., S_b: the
    # standard arcs; row i holds coordinate i of every variation, and the
    # handle classes the monodromy fixes give no relation
    rows = variation_rows(word, unit_basis(rank))
    kept = [k for k, column in enumerate(zip(*[row[:handles] for row in rows])) if any(column)]
    return AbelianQuotient(rank, [[row[k] for k in kept] + row[handles:] for row in rows])


class ChernData(Value):
    """Poincare dual of the first Chern class of the induced contact
    structure, as a vector over the surface basis reduced in H_1(M)."""

    __slots__ = ("vector", "reduced", "order")

    def __init__(self, vector: Tuple[int, ...], reduced: Tuple[int, ...], order: Optional[int]):
        object.__setattr__(self, "vector", vector)
        object.__setattr__(self, "reduced", reduced)
        object.__setattr__(self, "order", order)

    @property
    def is_zero(self) -> bool:
        return self.order == 1


def boundary_rotation(g: int, b: int, j: int) -> int:
    """Rotation number of boundary j in the flat-page Legendrian realization
    of the genus-g, b-holed page: 0 on the outer boundary, 2g on boundary
    b, and 1 on every other one."""
    if j == 1:
        return 0
    return 2 * g if j == b else 1


def boundary_multitwist_defaults(word: Word) -> Optional[Tuple[Tuple[int, ...], Tuple[Tuple[int, ...], ...]]]:
    """Library rotation numbers and meridian classes, available exactly when
    the word is one positive twist about each boundary component.

    Rotations are the flat-page ones of ``boundary_rotation``.  Meridian of
    the twist about boundary j maps to the class of d_j (of -(d_2+...+d_b)
    for the outer boundary).
    """
    surface = word.surface
    b = surface.boundary_count
    if len(word) != b or not word.is_positive:
        return None
    seen: Dict[int, int] = {}
    for idx, t in enumerate(word.twists):
        j = t.curve.boundary_parallel_to
        if j is None or j in seen:
            return None
        seen[j] = idx
    if set(seen) != set(range(1, b + 1)):
        return None
    rotations = [0] * b
    mu: List[Tuple[int, ...]] = [()] * b
    basis, handles = unit_basis(surface.rank), 2 * surface.genus
    for j, idx in seen.items():
        rotations[idx] = boundary_rotation(surface.genus, b, j)
        # d_j is the basis vector past the handles at j - 2
        mu[idx] = surface.outer_boundary_coords() if j == 1 else basis[handles + j - 2]
    return tuple(rotations), tuple(mu)


def chern_pd(
    word: Word,
    h1: Optional[AbelianQuotient] = None,
    rotations: Optional[Sequence[int]] = None,
    mu_map: Optional[Sequence[Sequence[int]]] = None,
) -> ChernData:
    """Sum of rotation numbers times meridian classes, reduced in H_1(M).

    Rotation numbers come from per-twist input, falling back to the curves'
    stored rotations, with library defaults only for the boundary
    multitwist configuration; the meridian map has the same default and is
    otherwise required input.  Absent inputs raise ``UnsupportedInputError``;
    a rotation list or meridian map that is not one per twist raises
    ``ValueError``, and a meridian class of the wrong rank
    ``RankMismatchError``.
    """
    surface = word.surface
    defaults = None  # built only when an input falls back to it
    if rotations is None:
        stored = [t.curve.rotation for t in word.twists]
        if all(r is not None for r in stored):
            rotations = [int(r) for r in stored]  # type: ignore[arg-type]
        else:
            defaults = boundary_multitwist_defaults(word)
            if defaults is None:
                raise UnsupportedInputError(
                    "rotation numbers are required outside the boundary-multitwist configuration"
                )
            rotations = list(defaults[0])
    if mu_map is None:
        defaults = defaults or boundary_multitwist_defaults(word)
        if defaults is None:
            raise UnsupportedInputError(
                "a meridian-to-homology map is required outside the boundary-multitwist configuration"
            )
        mu_map = list(defaults[1])
    if len(rotations) != len(word) or len(mu_map) != len(word):
        raise ValueError(
            f"{len(rotations)} rotations and {len(mu_map)} meridian classes for {len(word)} twists: "
            "give one of each per twist"
        )
    rank = surface.rank
    for mu in mu_map:
        if len(mu) != rank:
            raise RankMismatchError(f"meridian class of length {len(mu)} != rank {rank}")
    if h1 is None:
        h1 = h1_boundary(word)
    vector = [0] * rank
    for r, mu in zip(rotations, mu_map):
        if r:
            vector = add_multiple(vector, r, mu)
    order, reduced = h1.order_and_reduce(vector)
    return ChernData(vector=tuple(vector), reduced=tuple(reduced), order=order)


class FillingInvariants(Value):
    """The full invariant record of one positive factorization."""

    __slots__ = ("surface", "euler", "sigma", "b2", "q_matrix", "q_invariant_factors", "h1", "c1")

    def __init__(
        self,
        surface: Surface,
        euler: int,
        sigma: SigmaValue,
        b2: Optional[int] = None,
        q_matrix: Optional[Tuple[Tuple[int, ...], ...]] = None,
        q_invariant_factors: Optional[Tuple[int, ...]] = None,
        h1: Optional[AbelianQuotient] = None,
        c1: Optional[ChernData] = None,
    ):
        object.__setattr__(self, "surface", surface)
        object.__setattr__(self, "euler", euler)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "b2", b2)
        object.__setattr__(self, "q_matrix", q_matrix)
        object.__setattr__(self, "q_invariant_factors", q_invariant_factors)
        object.__setattr__(self, "h1", h1)
        object.__setattr__(self, "c1", c1)

    @property
    def esig(self) -> Optional[int]:
        """e + sigma, when the signature is resolved."""
        return None if self.sigma.value is None else self.euler + self.sigma.value

    @property
    def esig_mod4(self) -> Optional[int]:
        esig = self.esig
        return None if esig is None else esig % 4


def filling_invariants(
    word: Word,
    ledger: Optional[SigmaLedger] = None,
    rotations: Optional[Sequence[int]] = None,
    mu_map: Optional[Sequence[Sequence[int]]] = None,
) -> FillingInvariants:
    """Compute everything available for the word: exact planar data when the
    page allows it, ledger-relative signature otherwise, homology of the
    boundary always (one ``h1_boundary``, which the planar form reuses),
    Chern data when rotations and meridians are known."""
    euler = euler_characteristic(word)
    h1 = h1_boundary(word)
    # c1 first: with Chern inputs its reduction runs H_1's one Smith form,
    # carrying c1's vector and no U, whose diagonal the planar form then
    # reads; without them chern_pd raises before it touches H_1, and only
    # the diagonal is ever computed.  Only absent inputs give no c1:
    # malformed ones raise
    c1: Optional[ChernData]
    try:
        c1 = chern_pd(word, h1=h1, rotations=rotations, mu_map=mu_map)
    except UnsupportedInputError:
        c1 = None
    b2 = q_matrix = q_factors = None
    if has_exact_form(word):
        form = planar_intersection_form(word, h1)
        sigma_value = SigmaValue(mode="exact", value=form.sigma)
        b2, q_matrix, q_factors = form.b2, form.matrix, form.invariant_factors
    else:
        sigma_value = sigma(word, ledger)
    return FillingInvariants(
        surface=word.surface,
        euler=euler,
        sigma=sigma_value,
        b2=b2,
        q_matrix=q_matrix,
        q_invariant_factors=q_factors,
        h1=h1,
        c1=c1,
    )


def check_comparable(s1: SigmaValue, s2: SigmaValue) -> None:
    """Raise ``IncomparableSigmaError`` unless the two signatures can enter
    one e + sigma comparison: both resolved, and both exact or both
    relative to the same baseline.  ``planarity.esig_planarity_test`` gives
    the verdict."""
    if s1.value is None or s2.value is None:
        raise IncomparableSigmaError("both fillings need a resolved signature")
    if s1.mode != s2.mode:
        raise IncomparableSigmaError(f"signature modes differ: {s1.mode} vs {s2.mode}")
    if s1.mode == "relative" and s1.baseline_name != s2.baseline_name:
        raise IncomparableSigmaError(
            f"relative signatures over different baselines: {s1.baseline_name} vs {s2.baseline_name}"
        )
