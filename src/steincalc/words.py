"""Signed Dehn-twist words and the certified rewriting engine.

Words are stored fully expanded in written order and compose like mapping
classes: the rightmost twist acts first.  The only reordering move the
engine certifies is the commutation of twists about disjoint curves, so
searches here are sound but deliberately incomplete; a failed search means
"unknown", never "no".  Containment asks for the target's twists to appear
in order after certified commutations; substitution additionally needs the
matched block to become contiguous.  A ``Word`` indexes its distinct curves
once, when it is built, in one table keyed by name (equal objects merged),
which the search and every per-curve pass (here and in ``invariants``) read,
so no search hashes a curve; a substitution's result inherits its parent's
table, extended by the right side's new curves and renumbered, instead of
building one, and is positive by construction.  A word computes whether it
is positive once.  The searches take positive words only, so a target letter
is its curve: a search takes each letter's candidate positions from the
word's per-curve position tuples, each read off the curve's position bitset
on its first request and kept.  The first search that finds a candidate
position for every target letter also builds the word's commutation blocks,
per distinct curve the positions it does not commute with, from per-hole
position bitsets (the rules of ``surfaces.curves_commute``, decided on
integers), and keeps them on the word for every later search.  The word also
keeps one commutation relation per effective declared set (the declared
pairs of one or two names that all occur in the word): the blocks with those
pairs' partners cleared, and its closure, filled from the last position down
to the lowest first candidate any search on the word has asked for.  Every
search on the word under that set shares it.  A search matches identical
target letters left to right and answers "unknown" when its fixed node
budget runs out.  A substitution always finds its own embedding.  A witness
reorders only the window of positions that the target's backward constraints
span.

A relator is a pair of positive words (left, right) naming the same mapping
class.  ``verify_relator`` checks the necessary conditions that are
decidable at the homology level; passing them does not prove the relation.
Its homology check compares the two sides' ``variation_rows`` on the handle
classes: the one pass over the twists that ``invariants`` reads for H_1,
by coordinates, so no action matrix is built or transposed.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain, compress, repeat
from operator import attrgetter, sub
from typing import Collection, Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from .errors import (
    ConsistencyAlarmError,
    NotApplicableError,
    RankMismatchError,
    UnsupportedInputError,
    Value,
)
from .intlinalg import add_multiple
from .surfaces import Curve, NamePair, Surface

# Positions the embedding search may test in one call before it gives up
# and answers "unknown"; it bounds the search on words with many identical
# letters.
_SEARCH_NODES = 100_000

_sign = attrgetter("sign")


class Twist(Value):
    """A signed Dehn twist: sign +1 is the positive (right-handed) twist."""

    __slots__ = ("curve", "sign")
    _defaults = {"sign": 1}

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError(f"twist sign must be +1 or -1, got {self.sign}")


class Word(Value):
    """An ordered sequence of twists on one surface, applied right to left.

    The underscore slots are caches, not fields; a copy or a pickle
    rebuilds them.  ``_curves`` holds the distinct curves of the twists in
    order of first occurrence, equal objects merged by ``==`` within each
    name (curves with different names are never equal), so no curve is
    hashed; ``_names`` maps a name to the ids (indices into ``_curves``) of
    the curves carrying it, and ``_letters`` holds each position's curve
    id; ``_assign`` sets them, from ``__init__``'s merge or, for a
    substitution's result, from the parent's table (``_splice``).
    ``_positive`` is set by the first read of ``is_positive`` (or by
    ``_splice``, whose words are positive).  ``_spots`` (each curve id's
    positions) and ``_blocks`` (the positions each curve id does not
    commute with by the hole rule) are int bitsets, set by the first
    search that reads them.  ``_places`` holds each curve id's positions
    as a tuple, read off its bitset by the first search with a letter on
    that curve (None until then).
    ``_relations`` maps an effective declared set (``_effective``) to the
    word's ``_Dependence`` under it, built by the first search that needs
    it.
    """

    __slots__ = (
        "surface", "twists", "_curves", "_names", "_letters", "_positive", "_spots", "_places", "_blocks", "_relations"
    )

    def __init__(self, surface: Surface, twists: Tuple[Twist, ...]):
        curves: List[Curve] = []
        names: Dict[str, List[int]] = {}
        index = {}  # id of a curve object -> its curve id
        for key, c in {id(t.curve): t.curve for t in twists}.items():
            ids = names.setdefault(c.name, [])
            for k in ids:
                if curves[k] == c:
                    break
            else:
                k = len(curves)
                ids.append(k)
                curves.append(c)
            index[key] = k
        self._assign(surface, twists, tuple(curves), names, tuple([index[id(t.curve)] for t in twists]))
        for curve in curves:
            if curve.surface != surface:
                raise RankMismatchError(f"twist about {curve.name} lives on {curve.surface}, not {surface}")

    def _assign(
        self,
        surface: Surface,
        twists: Tuple[Twist, ...],
        curves: Tuple[Curve, ...],
        names: Dict[str, List[int]],
        letters: Tuple[int, ...],
    ) -> None:
        """Set the fields and the curve table; the other caches start unset
        (``_relations`` empty).  ``__init__`` and ``_splice`` build a word
        through here alone."""
        object.__setattr__(self, "surface", surface)
        object.__setattr__(self, "twists", twists)
        object.__setattr__(self, "_curves", curves)
        object.__setattr__(self, "_names", names)
        object.__setattr__(self, "_letters", letters)
        object.__setattr__(self, "_relations", {})

    def __len__(self) -> int:
        return len(self.twists)

    @property
    def is_positive(self) -> bool:
        """No twist is negative; computed on the first read and kept."""
        try:
            return self._positive
        except AttributeError:  # first read
            positive = -1 not in map(_sign, self.twists)
            object.__setattr__(self, "_positive", positive)
            return positive

    def _find(self, c: Curve) -> int:
        """The id of the word's curve equal to c, or -1 when c is absent."""
        for k in self._names.get(c.name, ()):
            if self._curves[k] == c:
                return k
        return -1

    def _positions(self) -> List[int]:
        """``_spots``: bit i of entry k is set when position i carries curve id k."""
        try:
            return self._spots
        except AttributeError:  # first read
            spots = [0] * len(self._curves)
            for i, k in enumerate(self._letters):
                spots[k] |= 1 << i
            object.__setattr__(self, "_spots", spots)
            return spots

    def _occurrences(self, k: int) -> Tuple[int, ...]:
        """Curve id k's positions in increasing order: read off its
        ``_spots`` bitset on the first request for k, then kept in
        ``_places``."""
        try:
            places = self._places
        except AttributeError:  # first read
            places = [None] * len(self._curves)
            object.__setattr__(self, "_places", places)
        slots = places[k]
        if slots is None:
            slots = places[k] = tuple(_bits(self._positions()[k]))
        return slots

    def _effective(self, declared: Collection[NamePair]) -> FrozenSet[NamePair]:
        """The declared pairs that can clear a block: one or two names, all
        carried by the word (a one-name pair covers two curves sharing a
        name)."""
        names = self._names.keys()
        return frozenset([pair for pair in declared if len(pair) in (1, 2) and pair <= names])

    def _relation(self, declared: Collection[NamePair]) -> "_Dependence":
        """The word's relation under the declared set, built on the first
        request for its effective set and shared by every later one."""
        key = self._effective(declared)
        rel = self._relations.get(key)
        if rel is None:
            rel = self._relations[key] = _Dependence(self, key)
        return rel

    def _blocked(self) -> List[int]:
        """``_blocks``, built by ``_tabulate`` on the first read."""
        try:
            return self._blocks
        except AttributeError:  # first read
            object.__setattr__(self, "_blocks", self._tabulate())
            return self._blocks

    def _tabulate(self) -> List[int]:
        """Per curve id, the positions not certified to commute with it by
        the hole rule of ``curves_commute``, decided on integers.

        ``inside[h]`` holds the positions whose curve encloses hole h.  A
        curve with hole set m blocks the positions whose hole set meets m
        (an OR of ``inside[h]`` over h in m), does not contain m (outside
        their AND) and does not lie inside m (an OR over h not in m): the
        hole sets neither nested with m nor disjoint from it.  Curves
        without a hole set block, and are blocked by, every position.  A
        curve's own positions are never blocked.  This costs O(D·b) bitset
        operations for D distinct curves and b holes; no pair of curves is
        compared.
        """
        spots = self._positions()
        inside: Dict[int, int] = {}  # hole -> positions whose curve encloses it
        loose = 0  # positions of the curves without a hole set
        for c, here in zip(self._curves, spots):
            if c.hole_set is None:
                loose |= here
            else:
                for h in c.hole_set:
                    inside[h] = inside.get(h, 0) | here
        holes = list(inside.items())
        everywhere = (1 << len(self.twists)) - 1
        blocked = []
        for c, here in zip(self._curves, spots):
            m = c.hole_set
            if m is None:
                ban = everywhere
            else:
                # hole sets meeting this one, not containing it, not inside it
                over = out = 0
                sup = everywhere
                for h, there in holes:
                    if h in m:
                        over |= there
                        sup &= there
                    else:
                        out |= there
                ban = over & ~sup & out | loose
            blocked.append(ban & ~here)
        return blocked


def word_of(surface: Surface, curves: Sequence[Curve], signs: Optional[Sequence[int]] = None) -> Word:
    if signs is None:
        signs = [1] * len(curves)
    elif len(signs) != len(curves):
        raise ValueError(f"{len(signs)} signs given for {len(curves)} curves")
    return Word(surface, tuple(Twist(c, s) for c, s in zip(curves, signs)))


def unit_basis(rank: int) -> List[Tuple[int, ...]]:
    """The unit vectors of Z^rank, each a slice of one tuple."""
    unit = (0,) * (rank - 1) + (1,) + (0,) * (rank - 1)
    return [unit[rank - 1 - i:2 * rank - 1 - i] for i in range(rank)]


def variation_rows(word: Word, rels: Sequence[Sequence[int]]) -> List[List[int]]:
    """The closed classes by which the monodromy moves relative classes, by
    coordinates: row i holds coordinate i of every class's variation.

    One pass over the twists in application order (right to left) moves
    every relative class together: at a twist about c each picks up as many
    copies of [c] as its arc pairing with [c], while the running relative
    class only sees the image of [c] in relative coordinates (boundary
    classes die there, so only its A_i/B_i part moves).  Each distinct curve
    of the word's table has its nonzero support and pairing functional built
    once: the arc pairing reads rel[i ^ 1] against a handle coordinate i
    (B_i against a_i with sign -1, A_i against b_i with sign +1) and rel[j]
    against a boundary coordinate j.  On A_i and B_i this is phi(e) - e for
    e = a_i, b_i; on arcs the boundary multitwist gives
    d_j + (d_2 + ... + d_b): d_j = d_k, b d_j = 0 in H_1.  The monodromy
    fixes each d_j, which pairs to zero with every class.  A class of the
    wrong length raises ``RankMismatchError`` before any twist is read.
    """
    surface = word.surface
    rank, handles = surface.rank, 2 * surface.genus
    for rel in rels:
        if len(rel) != rank:
            raise RankMismatchError(f"relative vector length {len(rel)} != rank {rank}")
    # by coordinates: moving[i] and moved[i] hold coordinate i of every class
    moving = [list(column) for column in zip(*rels)] if rels else [[] for _ in range(rank)]
    moved = [[0] * len(rels) for _ in range(rank)]
    table = []  # per distinct curve: its support, its handle support and its functional
    for c in word._curves:
        support = [(i, x) for i, x in enumerate(c.homology.coords) if x]
        functional = [(i ^ 1, x if i & 1 else -x) if i < handles else (i, x) for i, x in support]
        table.append((support, [(i, x) for i, x in support if i < handles], functional))
    for t, k in zip(reversed(word.twists), reversed(word._letters)):
        support, handle_support, functional = table[k]
        counts = None  # the arc pairing of every class with [c]; None for a null class
        for i, x in functional:
            # rows are replaced, never changed in place, so counts may share one
            if counts is None:
                counts = moving[i] if x == 1 else [x * y for y in moving[i]]
            else:
                counts = add_multiple(counts, x, moving[i])
        if counts is None or not any(counts):
            continue
        x = t.sign
        for i, y in support:
            moved[i] = add_multiple(moved[i], x * y, counts)
        for i, y in handle_support:
            moving[i] = add_multiple(moving[i], x * y, counts)
    return moved


def _bits(mask: int) -> Iterator[int]:
    """The set bits of a bitset, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _runs(mask: int) -> Iterator[Tuple[int, int]]:
    """The maximal runs of set bits of a bitset, as (start, stop), lowest first."""
    while mask:
        low = mask & -mask
        top = mask + low  # the run cleared and the bit above it set
        yield low.bit_length() - 1, (top & -top).bit_length() - 1
        mask &= top


class _Dependence:
    """Certified commutation among the occurrences of one word under one
    declared set, as bitsets, and its transitive closure: the dependence
    relation of the trace monoid over the word's letters, and plain
    reachability in it.  ``Word._relation`` builds one per effective
    declared set and keeps it, so every search on the word under that set
    shares it.

    Bit j of ``dep[i]`` is set when the twists at positions i and j are not
    certified to commute: the word's hole-rule blocks (``Word._blocked``)
    with the positions of declared partners cleared.  It is built with the
    relation, which a search asks for only once every target letter has a
    candidate, so a target with an absent letter builds nothing.
    ``reach[i]`` holds the later positions j that some chain of dependent
    occurrences forces to stay after position i, and ``cover[i]`` (a tuple
    in increasing order) is a subset of the later dependent positions of i
    whose chains already force all of ``reach[i]``.  ``fill(p)`` builds
    them right to left, from the last position down to p, and a later call
    with a lower p extends them leftwards; ``low`` is the lowest filled
    position, and every entry below it holds None.

    Each reader masks the closure to its own window: ``_embeddings`` reads
    ``reach[pos] & taken``, and ``_linearize`` masks with its matched
    positions and the span between them and cuts ``cover`` at the window's
    last position q.  A chain moves to ever larger positions, so the part
    of ``reach[i]`` at or below q is the closure of the relation cut at q,
    and ``cover[i]``'s entries at or below q come first and are the ones a
    fill cut at q would list: filling to the end gives every reader what a
    fill over its own window alone would.
    """

    def __init__(self, w: Word, declared: Collection[NamePair]):
        names, spots = w._names, w._positions()
        partners = [0] * len(spots)  # curve id -> positions of the curves declared disjoint from it
        for pair in w._effective(declared):
            x, y = min(pair), max(pair)
            for k in names[x]:
                for j in names[y]:
                    partners[k] |= spots[j]
                    partners[j] |= spots[k]
        blocked = [ban & ~partner for ban, partner in zip(w._blocked(), partners)]
        self.dep: List[int] = [blocked[k] for k in w._letters]
        # None until ``fill`` reaches the position: read as 0, an unfilled
        # entry would let ``_embeddings`` accept an unsound embedding
        self.reach: List[Optional[int]] = [None] * len(w)
        self.cover: List[Optional[Tuple[int, ...]]] = [None] * len(w)
        self.low = len(w)

    def fill(self, p: int) -> None:
        """Fill ``reach`` and ``cover`` right to left down to position p."""
        dep, reach, cover = self.dep, self.reach, self.cover
        for i in range(self.low - 1, p - 1, -1):
            # a later dependent position already in ``acc`` is forced after
            # i through an earlier one, and so is everything it forces
            todo = dep[i] >> (i + 1) << (i + 1)
            acc = 0
            ks = []
            while todo:
                bit = todo & -todo
                k = bit.bit_length() - 1
                ks.append(k)
                acc |= bit | reach[k]
                todo &= ~acc
            cover[i] = tuple(ks)  # kept for the word's life: no spare list capacity
            reach[i] = acc
        if p < self.low:
            self.low = p


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


def _match_candidates(w: Word, target: Word) -> Optional[Tuple[List[Sequence[int]], List[int]]]:
    """Each target letter's positions in w, and the index of the previous
    identical target letter (or -1); None when some letter has no position.
    Both words are positive, so a letter is its curve alone: each of the
    target's distinct curves is looked up in w's table once, and no curve
    is hashed.  A letter's positions are its curve's tuple
    (``Word._occurrences``), kept on the word and shared by every search."""
    ids = [w._find(c) for c in target._curves]
    if -1 in ids:
        return None
    candidates: List[Sequence[int]] = []
    twin: List[int] = []
    last = [-1] * len(ids)  # the target's curve id -> its latest target index
    for k in target._letters:
        prev = last[k]
        candidates.append(candidates[prev] if prev >= 0 else w._occurrences(ids[k]))
        last[k] = len(twin)
        twin.append(prev)
    return candidates, twin


def _embeddings(rel: _Dependence, candidates: List[Sequence[int]], twin: List[int]) -> Iterator[Tuple[int, ...]]:
    """Injections of the target into w whose matched occurrences can be put
    in target order by certified commutations, in lexicographic order;
    ``candidates`` and ``twin`` are ``_match_candidates``' answer and
    ``rel`` is w's relation, which is filled down to the first candidate.

    An assignment is valid when no later target letter is forced (by a
    chain of dependent occurrences) to stay before an earlier one; this
    criterion is exact for commutation moves because the dependency
    closure is.  Identical target letters take increasing positions: twists
    about one curve commute, so this loses no embedding, and a valid
    assignment with a decreasing pair has a lexicographically smaller valid
    one without it, so a letter skips the slots that leave too few for its
    identical successors.  After ``_SEARCH_NODES`` tested positions the
    search stops, which its callers report as "unknown".  The depth-first
    walk keeps one iterator over the untried slots per placed letter, on a
    stack, so it builds no closure that refers to itself.
    """
    rel.fill(min(slots[0] for slots in candidates))
    m = len(candidates)
    left_after = [0] * m  # identical target letters still to place after k
    for k in range(m - 1, -1, -1):
        if twin[k] >= 0:
            left_after[twin[k]] = left_after[k] + 1
    reach = rel.reach
    chosen: List[int] = []
    stack: List[Iterator[int]] = []  # the untried slots of each placed letter
    slots = candidates[0]
    untried = iter(slots[:len(slots) - left_after[0]])
    taken = 0
    nodes = 0
    while True:
        pos = next(untried, -1)
        if pos < 0:  # the letter's slots are used up: take back the previous letter's
            if not stack:
                return
            untried = stack.pop()
            taken ^= 1 << chosen.pop()
            continue
        if nodes == _SEARCH_NODES:
            return
        nodes += 1
        if reach[pos] & taken:
            continue
        chosen.append(pos)
        k = len(chosen)
        if k == m:
            yield tuple(chosen)
            chosen.pop()
            continue
        taken |= 1 << pos
        stack.append(untried)
        slots = candidates[k]
        lo = bisect_right(slots, chosen[twin[k]]) if twin[k] >= 0 else 0
        untried = iter(slots[lo:len(slots) - left_after[k]])


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
    or None when that order is not reachable: a selected occurrence is
    forced before an earlier one, or (when ``contiguous``) an occurrence is
    wedged between two matched ones.  ``rel`` must be filled down to
    min(selected).  ``order`` is the least order that keeps
    every forced precedence and ``swaps`` the passes of a bubble sort into
    it.  Only the window that a backward constraint spans moves: a
    substitution puts the positions that go before the block first, then
    the block, then the rest, each in index order, and containment sweeps
    the window in index order, where only the letters a backward constraint
    holds back wait in a min-heap for their predecessors.
    """
    dep, reach, cover = rel.dep, rel.reach, rel.cover
    n = len(dep)
    runs: List[Tuple[int, int, int]] = []  # (start, stop, k): the positions start..stop-1 each pass k letters
    if contiguous and selected:
        sel = forced_after = 0  # matched positions; positions some matched occurrence must precede
        for s in selected:
            if reach[s] & sel:
                return None  # forced before an earlier matched occurrence
            sel |= 1 << s
            forced_after |= reach[s]
        lo, hi, first = min(selected), max(selected), selected[0]
        between = (1 << hi) - (2 << lo) if hi > lo else 0  # the positions strictly between lo and hi
        # below lo nothing is forced after a matched occurrence, above hi
        # nothing before one: only the positions strictly between can move.
        # Those forced before a matched occurrence go before the block, and
        # so do those below its first letter that are not forced after it.
        ahead = 0
        for x in compress(range(lo + 1, hi), map(sel.__and__, reach[lo + 1:hi])):
            ahead |= 1 << x
        ahead &= ~sel
        if ahead & forced_after:
            return None  # wedged between two matched occurrences
        ahead |= between & ((1 << first) - 1) & ~(sel | forced_after)
        order = list(range(lo))
        for start, stop in _runs(ahead):
            order.extend(range(start, stop))
            over = ((1 << start) - (1 << lo)) & ~ahead  # the positions each letter of the run passes
            if over:
                if any(map(over.__and__, dep[start:stop])):
                    raise ConsistencyAlarmError("linearization produced an uncertified swap")
                runs.append((start, stop, over.bit_count()))
        order.extend(selected)
        placed = ahead
        for x in selected:
            over = ((1 << x) - (1 << lo)) & ~placed
            placed |= 1 << x
            if over:
                if dep[x] & over:
                    raise ConsistencyAlarmError("linearization produced an uncertified swap")
                runs.append((x, x + 1, over.bit_count()))
        for start, stop in _runs(between & ~placed):  # the rest, in index order
            order.extend(range(start, stop))
        order.extend(range(hi + 1, n))
    else:
        edges = list(zip(selected, selected[1:]))
        back = [(a, b) for a, b in edges if a > b]
        if not back:
            return list(range(n)), []
        # Only a backward edge a -> b moves anything: positions below the
        # smallest b and above the largest a keep their place, and no path
        # between two positions of the window [lo, hi] leaves it.  A window
        # position is held back while a predecessor is unplaced: a backward
        # edge's source, or a held position that ``cover`` (whose closure is
        # the dependency closure) or the target order puts before it.
        # Successor lists and indegrees exist for those alone.
        lo = min(b for _, b in back)
        hi = max(a for a, _ in back)
        after = dict(edges)
        succ: Dict[int, Tuple[int, ...]] = {}
        indegree = {b: 1 for _, b in back}
        blocked = sources = 0  # positions with an unplaced predecessor; backward sources
        for a, b in back:
            blocked |= 1 << b
            sources |= 1 << a
        window: List[int] = []
        held = 0  # positions the sweep has passed and not placed
        x = lo
        while x <= hi:
            ahead = (blocked | sources) >> x  # nonzero: hi is a source
            stop = x + (ahead & -ahead).bit_length() - 1
            if stop > x:  # placed at once, each past every held letter
                window.extend(range(x, stop))
                if held:
                    if any(map(held.__and__, dep[x:stop])):
                        raise ConsistencyAlarmError("linearization produced an uncertified swap")
                    runs.append((x, stop, held.bit_count()))
                x = stop
            bit = 1 << x
            if blocked & bit:
                held |= bit
                later = cover[x][:bisect_right(cover[x], hi)]
                if x < after.get(x, -1) <= hi:
                    later += (after[x],)
                for k in later:
                    indegree[k] = indegree.get(k, 0) + 1
                    blocked |= 1 << k
                succ[x] = later
            else:  # a backward source: place it, then every held letter it frees, least first
                ready: List[int] = []
                i = x
                while True:
                    bit = 1 << i
                    held &= ~bit
                    over = held & (bit - 1)
                    if over:
                        if dep[i] & over:
                            raise ConsistencyAlarmError("linearization produced an uncertified swap")
                        runs.append((i, i + 1, over.bit_count()))
                    window.append(i)
                    freed = succ.pop(i, ())
                    if after.get(i, i) < i:
                        freed += (after[i],)  # its backward target
                    for k in freed:
                        indegree[k] -= 1
                        if not indegree[k]:
                            blocked ^= 1 << k
                            if k < x:  # held; a later k is placed by the sweep
                                heapq.heappush(ready, k)
                    if not ready:
                        break
                    i = heapq.heappop(ready)
            x += 1
        if held:
            return None  # cycle: the required order is not reachable
        order = list(range(lo)) + window + list(range(hi + 1, n))

    # A letter placed past k earlier ones moves one place left in each of the
    # sort's first k passes and in no other, so pass p swaps at x - p for
    # every x that passes at least p letters, in increasing x.
    runs.sort()
    swaps: List[int] = []
    p = 1
    while runs:
        # passes p..last move the same letters, each one place further left
        last = min(k for _, _, k in runs)
        movers: List[int] = []
        for start, stop, _ in runs:
            movers.extend(range(start, stop))
        passes = chain.from_iterable(map(repeat, range(p, last + 1), repeat(len(movers))))
        swaps.extend(map(sub, movers * (last + 1 - p), passes))
        p = last + 1
        runs = [r for r in runs if r[2] > last]
    return order, swaps


def contains(w: Word, target: Word, declared: Collection[NamePair] = ()) -> Optional[ContainmentWitness]:
    """Search for the target's twists in order, up to certified commutations.

    Both words must be positive.  Returns a witness on success and None on
    failure; None means "unknown" (containment quantifies over every
    positive factorization, which the engine cannot enumerate), never a
    definite "no".
    """
    if w.surface != target.surface:
        raise RankMismatchError("containment across different surfaces")
    if not (w.is_positive and target.is_positive):
        raise UnsupportedInputError("containment is defined on positive words")
    if not target.twists:
        return ContainmentWitness((), (), ())
    found = _match_candidates(w, target)
    if found is None:
        return None
    rel = w._relation(declared)
    for positions in _embeddings(rel, *found):
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
    twist is about a homologically nontrivial curve.  Both values follow
    from the words: an omitted one is filled in, and a stated one must
    match or ``ValueError`` is raised.  ``sigma_delta`` is the
    corresponding signature change; it is stored (from known values and
    additivity), never derived from the words.  A relator always carries
    both words: a missing side raises ``ValueError``.
    """

    __slots__ = ("name", "left", "right", "euler_delta", "sigma_delta", "allowable")
    _defaults = dict.fromkeys(("euler_delta", "sigma_delta", "allowable"))

    def __post_init__(self):
        name, left, right = self.name, self.left, self.right
        if left is None or right is None:
            raise ValueError(f"relator {name}: give both sides")
        if not (left.is_positive and right.is_positive):
            raise ValueError(f"relator {name}: both sides must be positive words")
        if left.surface != right.surface:
            raise RankMismatchError(f"relator {name}: sides live on different surfaces")
        derived = len(right) - len(left)
        if self.euler_delta is not None and self.euler_delta != derived:
            raise ValueError(
                f"relator {name}: euler_delta {self.euler_delta} != "
                f"len(right) - len(left) = {derived}"
            )
        object.__setattr__(self, "euler_delta", derived)
        computed = computed_allowable(self)
        if self.allowable is not None and self.allowable != computed:
            raise ValueError(f"relator {name}: allowable {self.allowable} != {computed}, which its curves give")
        object.__setattr__(self, "allowable", computed)

    @property
    def obstruction(self) -> Optional[int]:
        """sigma_delta + euler_delta; the planarity obstruction value, None
        when the signature change is not known."""
        if self.sigma_delta is None:
            return None
        return self.sigma_delta + self.euler_delta

    def inverse(self) -> "Relator":
        return Relator(
            name=f"{self.name}^-1",
            left=self.right,
            right=self.left,
            sigma_delta=None if self.sigma_delta is None else -self.sigma_delta,
        )

    def curves(self) -> Tuple[Curve, ...]:
        """The distinct curves of both sides, in order of first occurrence."""
        return self.left._curves + tuple(c for c in self.right._curves if self.left._find(c) < 0)


def computed_allowable(r: Relator) -> bool:
    """All twists about homologically non-trivial curves."""
    return all(c.is_allowable for side in (r.left, r.right) for c in side._curves)


class SubstitutionRecord(Value):
    """Ledger entry left behind by one substitution."""

    __slots__ = ("relator_name", "sigma_delta", "euler_delta", "positions", "swaps")


def substitute(w: Word, relator: Relator, declared: Collection[NamePair] = ()) -> Tuple[Word, SubstitutionRecord]:
    """Replace an occurrence of the relator's left side by its right side.

    The left side must embed as an in-order subword reachable by certified
    commutations, with the matched block commutable into a contiguous run.
    The engine searches for such an embedding and records the move for the
    signature ledger.  The result inherits w's curve table (``_splice``):
    it runs no ``Word.__init__``, and needs no per-curve surface check,
    since the right side lives on the left side's surface, which must be
    w's.
    """
    if not relator.left.twists:
        raise NotApplicableError(f"relator {relator.name} has an empty left side, which marks no place to substitute")
    if w.surface != relator.left.surface:
        raise RankMismatchError("substitution across different surfaces")
    if not w.is_positive:
        raise UnsupportedInputError("substitution is defined on positive words")

    found = _match_candidates(w, relator.left)
    if found is not None:
        rel = w._relation(declared)
        for pos in _embeddings(rel, *found):
            lin = _linearize(rel, pos, contiguous=True)
            if lin is None:
                continue
            order, swaps = lin
            start = order.index(pos[0])
            if order[start : start + len(pos)] != list(pos):
                raise ConsistencyAlarmError("contiguous linearization lost the matched block")
            record = SubstitutionRecord(
                relator_name=relator.name,
                sigma_delta=relator.sigma_delta,
                euler_delta=relator.euler_delta,
                positions=pos,
                swaps=tuple(swaps),
            )
            return _splice(w, order[:start], relator.right, order[start + len(pos):]), record
    raise NotApplicableError(
        f"no certified embedding of the left side of {relator.name} was found "
        "(which does not prove the configuration is absent)"
    )


def _splice(w: Word, head: Sequence[int], right: Word, tail: Sequence[int]) -> Word:
    """The positive word of w's twists at the positions ``head``, then the
    twists of right (a positive word on w's surface), then w's twists at
    ``tail``, with the curve table ``Word.__init__`` would build, derived
    from the two tables.

    Right's curves are looked up in w's table once each (``_find``), and
    the ones w lacks take the next free ids, so every id names one class
    of equal curves.  The ids are then renumbered in order of first
    occurrence, and each class keeps the object at its first position:
    ``__init__`` keeps the first object of a class it meets, and it meets
    the objects in that order.
    """
    twists, letters = w.twists, w._letters
    ids = []  # right's curve id -> its id in w's table, or a fresh one
    free = len(w._curves)
    for c in right._curves:
        k = w._find(c)
        if k < 0:
            k = free
            free += 1
        ids.append(k)
    new_twists = tuple([twists[i] for i in head]) + right.twists + tuple([twists[i] for i in tail])
    spliced = [letters[i] for i in head]  # ids in w's table extended by right's new curves
    spliced += [ids[k] for k in right._letters]
    spliced += [letters[i] for i in tail]
    # each id's first position: the reversed walk writes its earliest position last
    firsts = sorted(dict(zip(reversed(spliced), range(len(spliced) - 1, -1, -1))).values())
    renumber = [0] * free
    curves: List[Curve] = []
    names: Dict[str, List[int]] = {}
    for k, i in enumerate(firsts):
        renumber[spliced[i]] = k
        c = new_twists[i].curve
        curves.append(c)
        names.setdefault(c.name, []).append(k)
    new = Word.__new__(Word)
    new._assign(w.surface, new_twists, tuple(curves), names, tuple([renumber[k] for k in spliced]))
    object.__setattr__(new, "_positive", True)
    return new


class RelatorCheck(Value):
    """One necessary condition of ``verify_relator``: its name, whether it
    holds, and what was compared."""

    __slots__ = ("name", "passed", "detail")


class RelatorReport(Value):
    """Per-check results of the necessary-condition suite for a relator.

    A pass does not prove the two sides are equal in the mapping class
    group; it says the homology-level necessary conditions hold.
    """

    __slots__ = ("relator_name", "checks")

    @property
    def necessary_conditions_hold(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> RelatorCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def verify_relator(r: Relator) -> RelatorReport:
    """Check the decidable necessary conditions for a relator, each on its
    two words.

    homology_identity: left and right act identically on every homology
    basis vector.  euler_delta_consistent: the stored exponent difference
    matches the words.  allowable_consistent: the stored allowability flag
    matches the homology computation (twists about nonzero classes only).
    ``Relator`` refuses stated values that disagree with its words, so the
    last two hold on every relator; the report still shows what they
    compared.
    """
    checks: List[RelatorCheck] = []
    # each side moves the handle classes by its variations and fixes the
    # boundary classes, so equal variation rows are equal actions (a planar
    # page has no handle class, and runs no pass)
    surface = r.left.surface
    handles = unit_basis(surface.rank)[:2 * surface.genus]
    same = not handles or variation_rows(r.left, handles) == variation_rows(r.right, handles)
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
