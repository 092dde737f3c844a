"""Signed Dehn-twist words and the certified rewriting engine.

Words are stored fully expanded in written order and compose like mapping
classes: the rightmost twist acts first.  The only reordering move the
engine certifies is the commutation of twists about disjoint curves, so
searches here are sound but deliberately incomplete; a failed search means
"unknown", never "no".  Containment asks for the target's twists to appear
in order after certified commutations; substitution additionally needs the
matched block to become contiguous.  A ``Word`` indexes its distinct curve
objects once, when it is built, and every per-curve pass (here and in
``invariants``) reads that table.  Each search tabulates certified
commutation once per distinct curve of the word, as the set of positions
that curve blocks, from per-hole position bitsets (the rules of
``surfaces.curves_commute``, decided on integers), closes that relation
only from the target's first candidate position rightwards, matches
identical target letters left to right, and answers "unknown" when its
fixed node budget runs out.  A witness reorders only the window of
positions that the target's backward constraints span.

A relator is a pair of positive words (left, right) naming the same mapping
class.  ``verify_relator`` checks the necessary conditions that are
decidable at the homology level; passing them does not prove the relation.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass
from typing import Collection, Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import (
    ConsistencyAlarmError,
    NotApplicableError,
    RankMismatchError,
    UnsupportedInputError,
    Value,
)
from .surfaces import Curve, HomologyClass, NamePair, Surface, twist_action

# Positions the embedding search may test in one call before it gives up
# and answers "unknown"; it bounds the search on words with many identical
# letters.
_SEARCH_NODES = 100_000


class Twist(Value):
    """A signed Dehn twist: sign +1 is the positive (right-handed) twist."""

    __slots__ = ("curve", "sign")

    def __init__(self, curve: Curve, sign: int = 1):
        object.__setattr__(self, "curve", curve)
        object.__setattr__(self, "sign", sign)
        if sign not in (1, -1):
            raise ValueError(f"twist sign must be +1 or -1, got {sign}")


class Word(Value):
    """An ordered sequence of twists on one surface, applied right to left.

    ``_curves`` caches the distinct curve objects of the twists in order of
    first occurrence, told apart by identity so that no curve is hashed
    (equal but distinct objects keep separate entries), and ``_letters``
    the index into it of each position's curve.
    """

    __slots__ = ("surface", "twists", "_curves", "_letters")

    def __init__(self, surface: Surface, twists: Tuple[Twist, ...]):
        object.__setattr__(self, "surface", surface)
        object.__setattr__(self, "twists", twists)
        first = {id(t.curve): t.curve for t in twists}
        index = dict(zip(first, range(len(first))))
        object.__setattr__(self, "_curves", tuple(first.values()))
        object.__setattr__(self, "_letters", tuple([index[id(t.curve)] for t in twists]))
        for curve in self._curves:
            if curve.surface != surface:
                raise RankMismatchError(f"twist about {curve.name} lives on {curve.surface}, not {surface}")

    def __len__(self) -> int:
        return len(self.twists)

    @property
    def is_positive(self) -> bool:
        return all(t.sign == 1 for t in self.twists)

    def action_on(self, x: HomologyClass) -> HomologyClass:
        for t in reversed(self.twists):
            x = twist_action(t.curve, x, t.sign)
        return x

    def action_matrix(self) -> Tuple[Tuple[int, ...], ...]:
        """Columns of the induced map on the homology basis."""
        return tuple(self.action_on(e).coords for e in self.surface.basis_classes())


def word_of(surface: Surface, curves: Sequence[Curve], signs: Optional[Sequence[int]] = None) -> Word:
    if signs is None:
        signs = [1] * len(curves)
    return Word(surface, tuple(Twist(c, s) for c, s in zip(curves, signs)))


def compose(w1: Word, w2: Word) -> Word:
    """Concatenation w1 * w2 (w2 acts first). Does not normalize."""
    if w1.surface != w2.surface:
        raise RankMismatchError("cannot compose words on different surfaces")
    return Word(w1.surface, w1.twists + w2.twists)


def free_reduce(w: Word) -> Word:
    """Cancel adjacent inverse pairs about the identical curve."""
    stack: List[Twist] = []
    for t in w.twists:
        if stack and stack[-1].curve == t.curve and stack[-1].sign == -t.sign:
            stack.pop()
        else:
            stack.append(t)
    return Word(w.surface, tuple(stack))


def _bits(mask: int) -> Iterator[int]:
    """The set bits of a bitset, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _Dependence:
    """Certified commutation among the occurrences of one word, as bitsets.

    The relation is tabulated per distinct curve of the word (the word's
    curve table with equal objects merged into one id), with the declared
    pairs indexed by curve name once.
    ``inside[h]`` holds the positions whose curve encloses hole h.  A curve
    with hole set m blocks the positions whose hole set meets m (an OR of
    ``inside[h]`` over h in m), does not contain m (outside their AND) and
    does not lie inside m (an OR over h not in m): the hole sets neither
    nested with m nor disjoint from it, the rule of ``curves_commute``.
    Curves without a hole set block, and are blocked by, every position.
    Declared partners and a curve's own positions are never blocked.  A
    build thus costs O(D·b) bitset operations for D distinct curves and b
    holes; no pair of curves is compared.
    Bit j of ``dep[i]`` is set when the twists at positions i and j are not
    certified to commute.  ``reach[i]`` holds the positions j > i that some
    chain of dependent occurrences forces to stay after position i, and
    ``cover[i]`` is a subset of the later dependent positions of i whose
    chains already force all of ``reach[i]``.  Both read only later
    positions, so ``fill`` builds them right to left and stops at the
    smallest position a search needs (the target's first candidate); a
    later search on the same relation extends the fill and recomputes
    nothing.  Below ``low`` both hold None.
    """

    def __init__(self, w: Word, declared: Collection[NamePair]):
        # each curve object of the word is hashed once; equal objects meet in ``index``
        index: Dict[Curve, int] = {}  # curve -> curve id
        merged = [index.setdefault(c, len(index)) for c in w._curves]
        letters = [merged[k] for k in w._letters]  # curve id at each position
        curves = list(index)
        spots = [0] * len(curves)  # curve id -> bitset of its positions
        for i, k in enumerate(letters):
            spots[k] |= 1 << i
        self.at: Dict[Curve, int] = dict(zip(curves, spots))

        named: Dict[str, int] = {}  # name -> bitset of the curve ids carrying it
        for k, c in enumerate(curves):
            named[c.name] = named.get(c.name, 0) | 1 << k
        partners = [0] * len(curves)  # curve id -> ids of curves declared disjoint from it
        for pair in declared:
            if len(pair) in (1, 2):  # a one-name pair covers two curves sharing a name
                x, y = min(pair), max(pair)
                if x in named and y in named:
                    for k in _bits(named[x]):
                        partners[k] |= named[y]
                    for k in _bits(named[y]):
                        partners[k] |= named[x]

        n = len(w)
        inside: Dict[int, int] = {}  # hole -> positions whose curve encloses it
        loose = 0  # positions of the curves without a hole set
        for k, c in enumerate(curves):
            if c.hole_set is None:
                loose |= spots[k]
            else:
                for h in c.hole_set:
                    inside[h] = inside.get(h, 0) | spots[k]
        everywhere = (1 << n) - 1
        blocked = []  # curve id -> positions not certified to commute with it
        for k, c in enumerate(curves):
            if c.hole_set is None:
                ban = everywhere
            else:
                # hole sets meeting this one, not containing it, not inside it
                over = out = 0
                sup = everywhere
                for h, there in inside.items():
                    if h in c.hole_set:
                        over |= there
                        sup &= there
                    else:
                        out |= there
                ban = over & ~sup & out | loose
            for j in _bits(partners[k]):
                ban &= ~spots[j]
            blocked.append(ban & ~spots[k])
        self.dep = [blocked[k] for k in letters]
        # None until ``fill`` reaches the position: read as 0, an unfilled
        # entry would let ``_embeddings`` accept an unsound embedding
        self.reach: List[Optional[int]] = [None] * n
        self.cover: List[Optional[List[int]]] = [None] * n
        self.low = n  # ``reach`` and ``cover`` hold at positions >= low

    def fill(self, p: int) -> None:
        """Extend ``reach`` and ``cover`` right to left down to position p."""
        dep, reach, cover = self.dep, self.reach, self.cover
        for i in range(self.low - 1, p - 1, -1):
            # a later dependent position already in ``acc`` is forced after
            # i through an earlier one, and so is everything it forces
            todo = dep[i] >> (i + 1) << (i + 1)
            acc = 0
            ks = cover[i] = []
            while todo:
                bit = todo & -todo
                k = bit.bit_length() - 1
                ks.append(k)
                acc |= bit | reach[k]
                todo &= ~acc
            reach[i] = acc
        self.low = min(self.low, p)


# The one dataclass of the package: the benchmark's checks build tampered
# witnesses with ``dataclasses.replace``.
@dataclass(frozen=True)
class ContainmentWitness:
    """Machine-checkable evidence that a target appears in order.

    ``positions`` index the matched occurrences in the original word (in
    target order); ``swaps`` is a sequence of certified adjacent
    transpositions after which the matched occurrences sit at
    ``final_positions`` in increasing order.
    """

    positions: Tuple[int, ...]
    swaps: Tuple[int, ...]
    final_positions: Tuple[int, ...]


def _match_candidates(w: Word, target: Word, rel: _Dependence) -> Optional[List[List[int]]]:
    candidates = []
    for t in target.twists:
        slots = [i for i in _bits(rel.at.get(t.curve, 0)) if w.twists[i].sign == t.sign]
        if not slots:
            return None
        candidates.append(slots)
    return candidates


def _embeddings(w: Word, target: Word, rel: _Dependence) -> Iterator[Tuple[int, ...]]:
    """Injections of the target into w whose matched occurrences can be put
    in target order by certified commutations, in lexicographic order.

    An assignment is valid when no later target letter is forced (by a
    chain of dependent occurrences) to stay before an earlier one; this
    criterion is exact for commutation moves because the dependency
    closure is.  Identical target letters take increasing positions: twists
    about one curve commute, so this loses no embedding, and a valid
    assignment with a decreasing pair has a lexicographically smaller valid
    one without it, so a letter skips the slots that leave too few for its
    identical successors.  After ``_SEARCH_NODES`` tested positions the
    search stops, which its callers report as "unknown".
    """
    candidates = _match_candidates(w, target, rel)
    if candidates is None:
        return
    rel.fill(min(slots[0] for slots in candidates))
    m = len(target.twists)
    twin: List[int] = []  # index of the previous identical target letter, or -1
    last: Dict[Twist, int] = {}
    for k, t in enumerate(target.twists):
        twin.append(last.get(t, -1))
        last[t] = k
    left_after = [0] * m  # identical target letters still to place after k
    for k in range(m - 1, -1, -1):
        if twin[k] >= 0:
            left_after[twin[k]] = left_after[k] + 1
    reach = rel.reach
    chosen: List[int] = []
    taken = 0
    nodes = 0

    def extend(k: int) -> Iterator[Tuple[int, ...]]:
        nonlocal taken, nodes
        if k == m:
            yield tuple(chosen)
            return
        slots = candidates[k]
        lo = bisect_right(slots, chosen[twin[k]]) if twin[k] >= 0 else 0
        for pos in slots[lo:len(slots) - left_after[k]]:
            if nodes == _SEARCH_NODES:
                return
            nodes += 1
            if reach[pos] & taken:
                continue
            chosen.append(pos)
            taken |= 1 << pos
            yield from extend(k + 1)
            chosen.pop()
            taken ^= 1 << pos

    yield from extend(0)


def _linearize(
    rel: _Dependence,
    selected: Sequence[int],
    contiguous: bool,
) -> Optional[Tuple[List[int], List[int]]]:
    """Reorder the occurrences of the word so the selected ones appear in the
    given relative order (consecutively when ``contiguous``), moving letters
    only past certified-disjoint neighbours.

    Returns (order, swaps) where ``order`` lists original indices in their
    new sequence and ``swaps`` are the adjacent transpositions realizing it,
    or None when contiguity is blocked by a wedged occurrence.  ``order`` is
    the least topological order of the forced precedences, found by a
    min-heap; ``rel`` must be filled down to min(selected).  Only a backward
    edge a -> b (a > b) moves anything: positions below the smallest b, and
    above the largest a, have no backward edge into or out of them, so they
    keep their place, no path between two positions of the window [b, a]
    leaves it, and the heap runs over the window alone.  The swaps are those
    of a bubble sort by rank in ``order``, read off the placement: when the
    heap places x, the earlier positions still pending are the ones x
    passes, ``passed[x]`` of them.  Such a sort moves x one place left in
    each of its first ``passed[x]`` passes and in no other, so pass p swaps
    at x - p for every x with ``passed[x] >= p``, in increasing x.
    """
    dep, reach, cover = rel.dep, rel.reach, rel.cover
    n = len(dep)
    edges = list(zip(selected, selected[1:]))
    if contiguous and selected:
        first, last = selected[0], selected[-1]
        sel = 0
        forced_after = 0  # positions some matched occurrence must precede
        for s in selected:
            sel |= 1 << s
            forced_after |= reach[s]
        # below min(selected) nothing is forced after a matched occurrence,
        # above max(selected) nothing is forced before one: no wedge, and
        # the edge to or from x points forward
        for x in range(min(selected) + 1, max(selected)):
            if (sel >> x) & 1:
                continue
            before = reach[x] & sel
            after = (forced_after >> x) & 1
            if before and after:
                return None  # wedged between two matched occurrences
            if before or (not after and x < first):
                edges.append((x, first))
            else:
                edges.append((last, x))
    back = [(a, b) for a, b in edges if a > b]
    if not back:
        return list(range(n)), []
    lo = min(b for _, b in back)
    hi = max(a for a, _ in back)

    # The min-heap order depends only on the transitive closure of the
    # successor relation, and ``cover`` has the same closure as the full
    # dependency relation, so it stands in for it.  The successor sets are
    # built only once no occurrence is wedged.
    succ = {i: set(cover[i][:bisect_right(cover[i], hi)]) for i in range(lo, hi + 1)}
    for a, b in edges:
        if lo <= a and b <= hi:  # both ends in the window
            succ[a].add(b)
    indegree = dict.fromkeys(succ, 0)
    for ks in succ.values():
        for j in ks:
            indegree[j] += 1
    heap = [i for i, d in indegree.items() if d == 0]
    heapq.heapify(heap)
    window: List[int] = []
    pending = (1 << (hi + 1)) - (1 << lo)  # window positions not yet placed
    passed: Dict[int, int] = {}  # position -> earlier positions it moves past, if any
    while heap:
        i = heapq.heappop(heap)
        window.append(i)
        bit = 1 << i
        pending ^= bit
        over = pending & (bit - 1)
        if over:
            if dep[i] & over:
                raise ConsistencyAlarmError("linearization produced an uncertified swap")
            passed[i] = over.bit_count()
        for j in succ[i]:
            indegree[j] -= 1
            if indegree[j] == 0:
                heapq.heappush(heap, j)
    if len(window) != len(succ):
        return None  # cycle: the required order is not reachable

    order = list(range(lo)) + window + list(range(hi + 1, n))
    swaps: List[int] = []
    movers = sorted(passed)
    p = 1
    while movers:
        swaps.extend(x - p for x in movers)
        p += 1
        movers = [x for x in movers if passed[x] >= p]
    return order, swaps


def contains(w: Word, target: Word, declared: Collection[NamePair] = ()) -> Optional[ContainmentWitness]:
    """Search for the target's twists in order, up to certified commutations.

    Returns a witness on success and None on failure; None means "unknown"
    (containment quantifies over every positive factorization, which the
    engine cannot enumerate), never a definite "no".
    """
    if w.surface != target.surface:
        raise RankMismatchError("containment across different surfaces")
    if not target.twists:
        return ContainmentWitness((), (), ())
    return _contains(w, target, _Dependence(w, declared))


def _contains(w: Word, target: Word, rel: _Dependence) -> Optional[ContainmentWitness]:
    """``contains`` on a relation already built for w, so callers that
    search one word for several targets build it once."""
    for positions in _embeddings(w, target, rel):
        # no cycle: ``_embeddings`` forces no later target letter before an earlier one
        lin = _linearize(rel, positions, contiguous=False)
        if lin is None:
            raise ConsistencyAlarmError("an embedding of the target could not be put in target order")
        order, swaps = lin
        # a position outside the reordered window has order[p] == p
        return ContainmentWitness(
            positions=positions,
            swaps=tuple(swaps),
            final_positions=tuple(p if order[p] == p else order.index(p) for p in positions),
        )
    return None


class Relator(Value):
    """Two positive words naming the same mapping class.

    ``euler_delta`` is the total exponent difference len(right) - len(left):
    the Euler-characteristic change of the filling when a substitution
    replaces the left side by the right side.  ``allowable`` says every
    twist is about a homologically nontrivial curve.  When both sides are
    given, both values follow from the words: an omitted one is filled in,
    a stated ``euler_delta`` must match, and a stated ``allowable`` is kept
    so ``verify_relator`` can compare it.  ``sigma_delta`` is the
    corresponding signature change; it is stored (from known values and
    additivity), never derived from the words.  A relator carries both
    words or neither: ledger-only relators produced by composition carry
    none, and their ``allowable`` defaults to False.
    """

    __slots__ = ("name", "left", "right", "euler_delta", "sigma_delta", "allowable", "provenance")

    def __init__(
        self,
        name: str,
        left: Optional[Word],
        right: Optional[Word],
        euler_delta: Optional[int] = None,
        sigma_delta: Optional[int] = None,
        allowable: Optional[bool] = None,
        provenance: str = "user-asserted",
    ):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "euler_delta", euler_delta)
        object.__setattr__(self, "sigma_delta", sigma_delta)
        object.__setattr__(self, "allowable", allowable)
        object.__setattr__(self, "provenance", provenance)
        if (left is None) != (right is None):
            raise ValueError(f"relator {name}: give both sides or neither")
        if left is None:
            if allowable is None:
                object.__setattr__(self, "allowable", False)
            return
        if not (left.is_positive and right.is_positive):
            raise ValueError(f"relator {name}: both sides must be positive words")
        if left.surface != right.surface:
            raise RankMismatchError(f"relator {name}: sides live on different surfaces")
        derived = len(right) - len(left)
        if euler_delta is None:
            object.__setattr__(self, "euler_delta", derived)
        elif euler_delta != derived:
            raise ValueError(
                f"relator {name}: euler_delta {euler_delta} != "
                f"len(right) - len(left) = {derived}"
            )
        if allowable is None:
            object.__setattr__(self, "allowable", computed_allowable(self))

    @property
    def obstruction(self) -> Optional[int]:
        """sigma_delta + euler_delta; the planarity obstruction value."""
        if self.sigma_delta is None or self.euler_delta is None:
            return None
        return self.sigma_delta + self.euler_delta

    def inverse(self) -> "Relator":
        return Relator(
            name=f"{self.name}^-1",
            left=self.right,
            right=self.left,
            euler_delta=None if self.euler_delta is None else -self.euler_delta,
            sigma_delta=None if self.sigma_delta is None else -self.sigma_delta,
            allowable=self.allowable,
            provenance=self.provenance,
        )

    def curves(self) -> Tuple[Curve, ...]:
        """The distinct curves of both sides, in order of first occurrence."""
        if self.left is None:
            return ()
        return tuple(dict.fromkeys(self.left._curves + self.right._curves))


def computed_allowable(r: Relator) -> Optional[bool]:
    """All twists about homologically non-trivial curves; None without both sides."""
    if r.right is None:
        return None
    return all(c.is_allowable for side in (r.left, r.right) for c in side._curves)


class SubstitutionRecord(Value):
    """Ledger entry left behind by one substitution."""

    __slots__ = ("relator_name", "sigma_delta", "euler_delta", "positions", "swaps")

    def __init__(
        self,
        relator_name: str,
        sigma_delta: Optional[int],
        euler_delta: int,
        positions: Tuple[int, ...],
        swaps: Tuple[int, ...],
    ):
        object.__setattr__(self, "relator_name", relator_name)
        object.__setattr__(self, "sigma_delta", sigma_delta)
        object.__setattr__(self, "euler_delta", euler_delta)
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "swaps", swaps)


def substitute(
    w: Word,
    relator: Relator,
    declared: Collection[NamePair] = (),
    positions: Optional[Sequence[int]] = None,
) -> Tuple[Word, SubstitutionRecord]:
    """Replace an occurrence of the relator's left side by its right side.

    The left side must embed as an in-order subword reachable by certified
    commutations, with the matched block commutable into a contiguous run.
    The engine searches for such an embedding (or verifies a supplied one)
    and records the move for the signature ledger.
    """
    if relator.left is None:
        raise NotApplicableError(f"relator {relator.name} carries no words to substitute")
    if not relator.left.twists:
        raise NotApplicableError(f"relator {relator.name} has an empty left side, which marks no place to substitute")
    if w.surface != relator.left.surface:
        raise RankMismatchError("substitution across different surfaces")
    if not w.is_positive:
        raise UnsupportedInputError("substitution is defined on positive words")

    if positions is not None:
        if len(positions) != len(relator.left):
            raise NotApplicableError(
                f"{len(positions)} positions given for the {len(relator.left)} twists of {relator.name}"
            )
        for k, p in enumerate(positions):
            if not 0 <= p < len(w):
                raise NotApplicableError(f"position {p} lies outside a word of length {len(w)}")
            if p in positions[:k]:
                raise NotApplicableError(f"position {p} is given twice")
            t = relator.left.twists[k]
            if w.twists[p].curve != t.curve or w.twists[p].sign != t.sign:
                raise NotApplicableError(f"position {p} does not carry the twist {t.curve.name}")
    rel = _Dependence(w, declared)
    if positions is not None:
        rel.fill(min(positions))
    chosen = [tuple(positions)] if positions is not None else _embeddings(w, relator.left, rel)

    for pos in chosen:
        lin = _linearize(rel, pos, contiguous=True)
        if lin is None:
            continue
        order, swaps = lin
        start = order.index(pos[0])
        block = order[start : start + len(pos)]
        if block != list(pos):
            raise ConsistencyAlarmError("contiguous linearization lost the matched block")
        new_twists = (
            tuple(w.twists[i] for i in order[:start])
            + relator.right.twists
            + tuple(w.twists[i] for i in order[start + len(pos):])
        )
        record = SubstitutionRecord(
            relator_name=relator.name,
            sigma_delta=relator.sigma_delta,
            euler_delta=relator.euler_delta,
            positions=tuple(pos),
            swaps=tuple(swaps),
        )
        return Word(w.surface, new_twists), record
    raise NotApplicableError(
        f"no certified embedding of the left side of {relator.name} was found "
        "(which does not prove the configuration is absent)"
    )


class RelatorCheck(Value):
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: Optional[bool], detail: str):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "detail", detail)


class RelatorReport(Value):
    """Per-check results of the necessary-condition suite for a relator.

    A pass does not prove the two sides are equal in the mapping class
    group; it says the homology-level necessary conditions hold.
    """

    __slots__ = ("relator_name", "checks")

    def __init__(self, relator_name: str, checks: Tuple[RelatorCheck, ...]):
        object.__setattr__(self, "relator_name", relator_name)
        object.__setattr__(self, "checks", checks)

    @property
    def necessary_conditions_hold(self) -> bool:
        return all(c.passed for c in self.checks if c.passed is not None)

    def check(self, name: str) -> RelatorCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def verify_relator(r: Relator) -> RelatorReport:
    """Check the decidable necessary conditions for a relator.

    homology_identity: left and right act identically on every homology
    basis vector.  euler_delta_consistent: the stored exponent difference
    matches the words.  allowable_consistent: the stored allowability flag
    matches the homology computation (twists about nonzero classes only).
    """
    checks: List[RelatorCheck] = []
    if r.left is None:
        checks.append(RelatorCheck("homology_identity", None, "skipped: ledger-only relator has no words"))
        checks.append(RelatorCheck("euler_delta_consistent", None, "skipped: ledger-only relator has no words"))
        checks.append(RelatorCheck("allowable_consistent", None, "skipped: ledger-only relator has no words"))
        return RelatorReport(r.name, tuple(checks))

    same = r.left.action_matrix() == r.right.action_matrix()
    checks.append(
        RelatorCheck(
            "homology_identity",
            same,
            "both sides act identically on the homology basis" if same else "the sides differ on some basis vector",
        )
    )
    expected = len(r.right) - len(r.left)
    checks.append(
        RelatorCheck(
            "euler_delta_consistent",
            r.euler_delta == expected,
            f"stored {r.euler_delta}, words give {expected}",
        )
    )
    computed = computed_allowable(r)
    checks.append(
        RelatorCheck(
            "allowable_consistent",
            r.allowable == computed,
            f"stored allowable={r.allowable}, homology gives {computed}",
        )
    )
    return RelatorReport(r.name, tuple(checks))
