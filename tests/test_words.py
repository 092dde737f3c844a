"""Word calculus: the curve table, certified moves, containment,
substitution, and the relator checks."""

import copy
import gc
import hashlib
import heapq
import pickle
import random
import time
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from steincalc import planarity, surfaces, words
from steincalc.errors import (
    ConsistencyAlarmError,
    NotApplicableError,
    RankMismatchError,
    UnsupportedInputError,
)
from steincalc.relators import RelatorEntry, chain, standard_lantern
from steincalc.surfaces import Curve, HomologyClass, Surface, convex_curve, curves_commute, declared_pair
from steincalc.words import (
    _Dependence,
    _linearize,
    ContainmentWitness,
    Relator,
    SubstitutionRecord,
    Twist,
    Word,
    contains,
    substitute,
    unit_basis,
    variation_rows,
    verify_relator,
    word_of,
)


@pytest.fixture
def planar4():
    s = Surface(0, 4)
    return s, {
        "d1": convex_curve(s, "d1", {2, 3, 4}, boundary_parallel_to=1),
        "d2": convex_curve(s, "d2", {2}),
        "d3": convex_curve(s, "d3", {3}),
        "d4": convex_curve(s, "d4", {4}),
        "a12": convex_curve(s, "a12", {2, 3}),
        "a23": convex_curve(s, "a23", {3, 4}),
        "a13": convex_curve(s, "a13", {2, 4}),
    }


@pytest.fixture
def torus1():
    s = Surface(1, 1)
    return s, Curve("a", s.a_class(1)), Curve("b", s.b_class(1))


class TestContains:
    def test_plain_subsequence(self, torus1):
        s, a, b = torus1
        w = word_of(s, [a, b, a])
        witness = contains(w, word_of(s, [a, a]))
        assert witness is not None
        assert witness.positions == (0, 2)

    def test_boundary_multitwist_contains_lantern_left(self, planar4):
        s, c = planar4
        w = word_of(s, [c["d1"], c["d2"], c["d3"], c["d4"]])
        target = word_of(s, [c["d2"], c["d3"], c["d4"], c["d1"]])
        witness = contains(w, target)
        assert witness is not None
        assert witness.final_positions == (0, 1, 2, 3)

    def test_absent_twist_is_unknown(self, planar4):
        s, c = planar4
        assert contains(word_of(s, [c["a12"]]), word_of(s, [c["a13"]])) is None

    def test_signed_words_are_refused(self, planar4):
        # containment is defined on positive words, as substitution and detection are
        s, c = planar4
        x, y = c["a12"], c["d2"]
        for w, target in ((word_of(s, [x, y], [1, -1]), word_of(s, [x])), (word_of(s, [x, y]), word_of(s, [y], [-1]))):
            with pytest.raises(UnsupportedInputError, match="containment is defined on positive words"):
                contains(w, target)

    def test_order_blocked_by_intersections_is_unknown(self, planar4):
        s, c = planar4
        # a13 before a12 cannot be certified-reordered to a12 before a13
        w = word_of(s, [c["a13"], c["a12"]])
        assert contains(w, word_of(s, [c["a12"], c["a13"]])) is None

    def test_monotone_under_enlargement(self, planar4):
        s, c = planar4
        rng = random.Random(7)
        pool = list(c.values())
        for _ in range(25):
            w = word_of(s, [rng.choice(pool) for _ in range(rng.randint(1, 6))])
            t = word_of(s, [rng.choice(pool) for _ in range(rng.randint(1, 3))])
            v = word_of(s, [rng.choice(pool) for _ in range(rng.randint(0, 4))])
            if contains(w, t) is not None:
                assert contains(Word(s, w.twists + v.twists), t) is not None

    def test_repeated_letter_witness_is_pinned(self, planar4):
        s, c = planar4
        x, y = c["a12"], c["a23"]
        witness = contains(word_of(s, [x, x, y, x, x, x]), word_of(s, [y, x, x, x]))
        assert witness == ContainmentWitness(positions=(2, 3, 4, 5), swaps=(), final_positions=(2, 3, 4, 5))

    def test_repeated_letters_past_a_blocker_are_unknown(self, planar4):
        s, c = planar4
        x, y = c["a12"], c["a23"]
        w = word_of(s, [x] * 8 + [y] + [x] * 8)
        assert contains(w, word_of(s, [y] + [x] * 16)) is None

    def test_too_few_slots_for_repeated_letters_answer_at_once(self, planar4):
        s, c = planar4
        x, y = c["a12"], c["a23"]
        # only k slots follow y, so no choice of the first x can be completed
        start = time.perf_counter()
        for k in range(20, 61):
            w = word_of(s, [x] * k + [y] + [x] * k)
            assert contains(w, word_of(s, [y] + [x] * (2 * k))) is None
        assert time.perf_counter() - start < 1.0

    def test_failed_linearization_is_an_alarm(self, planar4, monkeypatch):
        # every embedding the search yields can be put in target order, so a
        # linearization that fails is a fault, not an "unknown"
        s, c = planar4
        monkeypatch.setattr(words, "_linearize", lambda rel, selected, contiguous: None)
        with pytest.raises(ConsistencyAlarmError):
            contains(word_of(s, [c["a12"], c["d2"]]), word_of(s, [c["d2"]]))

    def test_every_embedding_linearizes(self):
        rng = random.Random(41)
        for _ in range(300):
            w = word_of(_SPHERE5, [rng.choice(_POOL) for _ in range(rng.randint(1, 9))])
            target = word_of(_SPHERE5, [rng.choice(_POOL[:4]) for _ in range(rng.randint(1, 4))])
            found = words._match_candidates(w, target)
            if found is None:
                continue
            rel = w._relation(())
            for positions in words._embeddings(rel, *found):
                assert _linearize(rel, positions, contiguous=False) is not None

    def test_node_budget_bounds_the_search(self):
        s = Surface(0, 6)
        x, z = convex_curve(s, "x", {2, 3}), convex_curve(s, "z", {3, 4})
        # z must follow twelve x's but is wedged before all of them; every
        # increasing choice of the x's is tried until the budget runs out
        start = time.perf_counter()
        assert contains(word_of(s, [z] + [x] * 24), word_of(s, [x] * 12 + [z])) is None
        assert time.perf_counter() - start < 1.0


class TestSubstitute:
    def test_empty_left_side_is_not_applicable(self, planar4):
        s, c = planar4
        w = word_of(s, [c["d2"], c["d3"]])
        relator = Relator("empty", word_of(s, []), word_of(s, [c["d4"]]), euler_delta=1)
        with pytest.raises(NotApplicableError, match="empty left side"):
            substitute(w, relator)

    def test_lantern_on_boundary_multitwist(self, planar4):
        s, c = planar4
        entry = standard_lantern()
        w = word_of(s, [c["d1"], c["d2"], c["d3"], c["d4"]])
        # rebuild the relator on this document's curves
        from steincalc.relators import lantern

        entry = lantern(c["d2"], c["d3"], c["d4"], c["d1"], c["a12"], c["a23"], c["a13"])
        new_w, record = substitute(w, entry.relator, entry.disjoint)
        assert [t.curve.name for t in new_w.twists] == ["a12", "a23", "a13"]
        assert record.sigma_delta == 1 and record.euler_delta == -1

    def test_trivial_relator_leaves_word_unchanged(self, torus1):
        s, a, b = torus1
        w = word_of(s, [a, b])
        trivial = Relator("same", word_of(s, [a]), word_of(s, [a]), euler_delta=0, sigma_delta=0)
        new_w, record = substitute(w, trivial)
        assert new_w == w
        assert record.euler_delta == 0

    def test_commutes_interloper_out(self, planar4):
        s, c = planar4
        from steincalc.relators import lantern

        entry = lantern(c["d2"], c["d3"], c["d4"], c["d1"], c["a12"], c["a23"], c["a13"])
        x = convex_curve(s, "x", {2, 3})
        w = word_of(s, [x, c["d2"], c["d3"], c["d4"], c["d1"]])
        new_w, record = substitute(w, entry.relator, entry.disjoint)
        assert len(new_w) == 4
        assert [t.curve.name for t in new_w.twists] == ["x", "a12", "a23", "a13"]

    def test_wedged_interloper_blocks_substitution_but_not_containment(self, planar4):
        s, c = planar4
        # a23 intersects both a12 and a13, so it is wedged inside the block:
        # the pair appears in order (containment holds) but cannot be made
        # contiguous (substitution refuses).
        w = word_of(s, [c["a12"], c["a23"], c["a13"]])
        target = word_of(s, [c["a12"], c["a13"]])
        assert contains(w, target) is not None
        wedged = Relator("pair", target, target, euler_delta=0, sigma_delta=0)
        with pytest.raises(NotApplicableError):
            substitute(w, wedged)

    def test_changes_length_by_euler_delta(self, planar4):
        s, c = planar4
        from steincalc.relators import lantern

        entry = lantern(c["d2"], c["d3"], c["d4"], c["d1"], c["a12"], c["a23"], c["a13"])
        w = word_of(s, [c["d1"], c["d2"], c["d3"], c["d4"]])
        new_w, record = substitute(w, entry.relator, entry.disjoint)
        assert len(new_w) - len(w) == record.euler_delta

    def test_preserves_action(self, planar4):
        s, c = planar4
        from steincalc.relators import lantern

        entry = lantern(c["d2"], c["d3"], c["d4"], c["d1"], c["a12"], c["a23"], c["a13"])
        w = word_of(s, [c["a13"], c["d1"], c["d2"], c["d3"], c["d4"]])
        new_w, _ = substitute(w, entry.relator, entry.disjoint)
        # a planar page has no handle classes, so the variations of the
        # standard arcs carry the whole action
        arcs = unit_basis(s.rank)
        assert variation_rows(new_w, arcs) == variation_rows(w, arcs) != [[0] * s.rank] * s.rank

    def test_not_applicable(self, planar4):
        s, c = planar4
        from steincalc.relators import lantern

        entry = lantern(c["d2"], c["d3"], c["d4"], c["d1"], c["a12"], c["a23"], c["a13"])
        w = word_of(s, [c["d2"], c["d3"]])
        with pytest.raises(NotApplicableError):
            substitute(w, entry.relator, entry.disjoint)

    def test_repeated_letter_record_is_pinned(self, planar4):
        s, c = planar4
        x, y, d2, d4 = c["a12"], c["a23"], c["d2"], c["d4"]
        w = word_of(s, [x, d4, x, y, d2, x, x, d4, x])
        rep = Relator("rep", word_of(s, [y, x, x]), word_of(s, [x, x, y]), euler_delta=0, sigma_delta=0)
        new_w, record = substitute(w, rep)
        assert [t.curve.name for t in new_w.twists] == ["a12", "d4", "a12", "a12", "a12", "a23", "d2", "d4", "a12"]
        assert record == SubstitutionRecord(
            relator_name="rep", sigma_delta=0, euler_delta=0, positions=(3, 5, 6), swaps=(4, 5)
        )


# Eight convex curves on the 5-holed sphere; several pairs overlap without
# nesting, so their twists are not certified to commute.
_SPHERE5 = Surface(0, 5)
_POOL = [
    convex_curve(_SPHERE5, f"c{i}", holes)
    for i, holes in enumerate([{2}, {3}, {2, 3}, {3, 4}, {2, 4}, {4, 5}, {2, 3, 4}, {3, 4, 5}])
]


# Two unequal curves that share the name x, with a curve overlapping both,
# one nested in both and an equal copy of the first.
_TWINS = [
    convex_curve(_SPHERE5, "x", {2, 3}),
    convex_curve(_SPHERE5, "x", {3, 4}),
    _POOL[4],
    _POOL[1],
    convex_curve(_SPHERE5, "x", {2, 3}),
]


def _reachable_orders(w, declared):
    """Every order of w's positions reachable by certified adjacent swaps."""
    n = len(w)
    commutes = {
        (a, b): curves_commute(w.twists[a].curve, w.twists[b].curve, declared) is True
        for a in range(n)
        for b in range(n)
    }
    start = tuple(range(n))
    seen = {start}
    queue = deque([start])
    while queue:
        seq = queue.popleft()
        for i in range(n - 1):
            if commutes[seq[i], seq[i + 1]]:
                nxt = seq[:i] + (seq[i + 1], seq[i]) + seq[i + 2 :]
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return seen


def _replay(w, swaps, declared):
    seq = list(range(len(w)))
    for i in swaps:
        assert curves_commute(w.twists[seq[i]].curve, w.twists[seq[i + 1]].curve, declared) is True
        seq[i], seq[i + 1] = seq[i + 1], seq[i]
    return seq


def _has_subsequence(letters, target):
    it = iter(letters)
    return all(t in it for t in target)


class TestSearchExactness:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.sampled_from(_POOL), max_size=7),
        st.lists(st.sampled_from(_POOL), min_size=1, max_size=4),
        st.lists(st.tuples(st.sampled_from(_POOL), st.sampled_from(_POOL)), max_size=1),
    )
    def test_search_matches_brute_force(self, letters, target_letters, facts):
        declared = {declared_pair(a.name, b.name) for a, b in facts}
        _check_against_brute_force(_SPHERE5, letters, target_letters, declared)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.sampled_from(_TWINS), max_size=7),
        st.lists(st.sampled_from(_TWINS), min_size=1, max_size=4),
        st.booleans(),
    )
    def test_one_name_pair_matches_brute_force(self, letters, target_letters, one_name):
        # two unequal curves named x overlap without nesting: only the
        # one-name pair {x} certifies that they commute
        declared = {frozenset({"x"})} if one_name else set()
        _check_against_brute_force(_SPHERE5, letters, target_letters, declared)


def _check_against_brute_force(surface, letters, target_letters, declared):
    """``contains`` and ``substitute`` answer as the search over every
    reachable order does, and their witnesses replay."""
    w, target = word_of(surface, letters), word_of(surface, target_letters)
    m = len(target)
    orders = [[letters[i] for i in seq] for seq in _reachable_orders(w, declared)]

    witness = contains(w, target, declared)
    assert (witness is not None) == any(_has_subsequence(o, target_letters) for o in orders)
    if witness is not None:
        seq = _replay(w, witness.swaps, declared)
        assert list(witness.final_positions) == sorted(set(witness.final_positions))
        for k, (p, f) in enumerate(zip(witness.positions, witness.final_positions)):
            assert seq[f] == p and letters[p] == target_letters[k]

    contiguous = any(o[i : i + m] == target_letters for o in orders for i in range(len(o) - m + 1))
    same = Relator("same", target, target, euler_delta=0, sigma_delta=0)
    try:
        new_w, record = substitute(w, same, declared)
    except NotApplicableError:
        assert not contiguous
        return
    assert contiguous
    seq = _replay(w, record.swaps, declared)
    start = seq.index(record.positions[0])
    assert seq[start : start + m] == list(record.positions)
    assert [letters[p] for p in record.positions] == target_letters
    assert new_w == Word(surface, tuple(w.twists[i] for i in seq))
    _assert_table_as_built(new_w)


def _assert_table_as_built(word):
    """The word's curve table and positivity are what ``Word.__init__``
    builds for its twists: the same curve objects, names and letters."""
    fresh = Word(word.surface, word.twists)
    assert len(word._curves) == len(fresh._curves)
    assert all(a is b for a, b in zip(word._curves, fresh._curves))
    assert word._names == fresh._names
    assert word._letters == fresh._letters
    assert word.is_positive == fresh.is_positive


_NAMES = ("p", "q", "r", "s")  # few names, so distinct curves share them


@st.composite
def _mixed_word(draw):
    """A word on a page of genus 0..2 drawn from a small curve pool: convex
    curves (outer-parallel ones included) on planar pages, curves without a
    hole set on every page, rebuilt equal copies of pool curves, and
    distinct curves that share a name.  The pool comes from a drawn seed,
    which spreads the hole sets (and so their overlaps) wider than drawing
    each set from hypothesis."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    genus = rng.choice((0, 0, 1, 2))
    surface = Surface(genus, rng.randint(4, 7) if genus == 0 else rng.randint(1, 3))
    b = surface.boundary_count
    pool = []
    for _ in range(rng.randint(2, 7)):
        name = rng.choice(_NAMES)
        kind = rng.choice(("convex", "convex", "outer", "homology") if genus == 0 else ("homology",))
        if kind == "convex":  # mostly two or more holes, which may overlap without nesting
            size = rng.randint(2, b - 2) if rng.random() < 0.75 else rng.randint(0, b - 1)
            pool.append(convex_curve(surface, name, rng.sample(range(2, b + 1), size)))
        elif kind == "outer":
            pool.append(convex_curve(surface, name, range(2, b + 1), boundary_parallel_to=1))
        else:
            pool.append(Curve(name, HomologyClass(surface, tuple(rng.choices((-1, 0, 1), k=surface.rank)))))
    # equal but distinct curve objects
    pool += [Curve(c.name, c.homology, c.hole_set, c.rotation, c.boundary_parallel_to)
             for c in rng.sample(pool, rng.randint(0, 2))]
    return word_of(surface, rng.choices(pool, k=rng.randint(2, 12)))


def _reference_commute(c1, c2, declared):
    """The certificate rules spelled out on frozensets, independent of the
    hole masks: identical curves, a declared name pair, or hole sets that
    are nested or disjoint."""
    if c1 == c2 or frozenset((c1.name, c2.name)) in declared:
        return True
    s1, s2 = c1.hole_set, c2.hole_set
    return s1 is not None and s2 is not None and (s1 <= s2 or s2 <= s1 or not s1 & s2)


class TestTabulatedRelation:
    @pytest.mark.parametrize("container", ["list", "set", "one-name set"])
    @settings(max_examples=150, deadline=None)
    @given(w=_mixed_word(), pairs=st.lists(st.tuples(st.sampled_from(_NAMES), st.sampled_from(_NAMES)), max_size=4))
    def test_dependence_matches_curves_commute(self, container, w, pairs):
        declared = [declared_pair(x, y) for x, y in pairs]
        if container != "list":
            declared = set(declared)
        if container == "one-name set":
            declared.add(frozenset(_NAMES[:1]))
        rel = _Dependence(w, declared)
        curves = [t.curve for t in w.twists]
        for i, c1 in enumerate(curves):
            for j, c2 in enumerate(curves):
                certified = curves_commute(c1, c2, declared)
                assert certified is (True if _reference_commute(c1, c2, declared) else None)
                assert (rel.dep[i] >> j) & 1 == (certified is not True)

    def test_search_never_calls_curves_commute(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("curves_commute called by the search")

        monkeypatch.setattr(surfaces, "curves_commute", refuse)
        rng = random.Random(7)
        s = Surface(0, 7)
        pool = [convex_curve(s, f"c{i}", rng.sample(range(2, 8), rng.randint(1, 4))) for i in range(40)]
        w = word_of(s, [rng.choice(pool) for _ in range(300)])
        target = word_of(s, [w.twists[p].curve for p in (10, 150, 290)])
        assert contains(w, target) is not None
        one = word_of(s, [w.twists[0].curve])
        _, record = substitute(w, Relator("same", one, one, euler_delta=0, sigma_delta=0))
        assert record.positions == (0,)
        relator = Relator("r", target, target, euler_delta=0, sigma_delta=1)
        entry = RelatorEntry(relator=relator, obstruction=1)
        assert [c.verdict for c in planarity.detect_relator(w, [entry, entry])] == [planarity.NON_PLANAR] * 2


def _reference_candidates(w, target):
    """``_match_candidates`` as it ran before it read ``Word._occurrences``:
    each letter's positions read off its curve's bitset, then filtered by
    sign on every word."""
    candidates, twin, last = [], [], {}
    for t in target.twists:
        c = w._find(t.curve)
        if c < 0:
            return None
        key = (c, t.sign)
        prev = last.get(key, -1)
        if prev >= 0:
            slots = candidates[prev]
        else:
            mask = w._positions()[c]
            slots = [i for i in range(len(w)) if (mask >> i) & 1 and w.twists[i].sign == t.sign]
        if not slots:
            return None
        last[key] = len(twin)
        twin.append(prev)
        candidates.append(slots)
    return candidates, twin


class TestNameKeyedTable:
    """The word's curve table is keyed by name, so no search hashes a curve,
    and a target with an absent letter builds nothing."""

    def test_search_hashes_no_curve(self, monkeypatch):
        w, target, declared = _pinned_case(27)  # 317 twists, five target letters
        assert len(w) == 317
        same = Relator("same", target, target, euler_delta=0, sigma_delta=0)
        entry = RelatorEntry(relator=Relator("r", target, target, euler_delta=0, sigma_delta=1),
                             obstruction=1, disjoint=frozenset(declared))
        bounding = planarity.BoundingDeclaration(1, 2, w._curves[:2])
        hashed = []
        real = Curve.__hash__

        def counting(curve):
            hashed.append(curve.name)
            return real(curve)

        monkeypatch.setattr(Curve, "__hash__", counting)
        assert contains(w, target, declared) is not None
        assert substitute(w, same, declared)[1].positions
        assert [c.verdict for c in planarity.detect_relator(w, [entry, entry])] == [planarity.NON_PLANAR] * 2
        assert planarity.detect_bounding(w, bounding).verdict == planarity.NON_PLANAR
        assert hashed == []

    def test_absent_letter_tabulates_nothing(self, monkeypatch):
        s = Surface(0, 5)
        a, b = convex_curve(s, "a", {2, 3}), convex_curve(s, "b", {3, 4})
        w = word_of(s, [a, b, a, b])
        tabulated = []
        real = Word._tabulate
        monkeypatch.setattr(Word, "_tabulate", lambda word: tabulated.append(word) or real(word))
        for absent in (
            convex_curve(s, "z", {2, 3}),  # a's hole set under another name
            convex_curve(s, "a", {2, 4}),  # a's name on another hole set
        ):
            target = word_of(s, [a, absent])
            assert contains(w, target) is None
            with pytest.raises(NotApplicableError):
                substitute(w, Relator("r", target, target, euler_delta=0, sigma_delta=0))
            with pytest.raises(NotApplicableError):
                planarity.detect_bounding(w, planarity.BoundingDeclaration(1, 2, (a, absent)))
        assert tabulated == []
        assert contains(w, word_of(s, [b, a])) is not None
        assert len(tabulated) == 1 and tabulated[0] is w
        # the relation is readable as soon as it is built, from the word's blocks built before
        assert _Dependence(w, ()).dep == [0b1010, 0b0101, 0b1010, 0b0101]
        assert len(tabulated) == 1

    def test_copy_and_pickle_rebuild_the_caches(self, monkeypatch):
        w, target, declared = _pinned_case(27)
        built = []
        real = Word._tabulate
        monkeypatch.setattr(Word, "_tabulate", lambda word: built.append(word) or real(word))
        witness = contains(w, target, declared)
        assert witness is not None and w._spots and w._places and w._positive and w._blocks and w._relations
        others = (copy.copy(w), pickle.loads(pickle.dumps(w)))
        for other in others:
            assert other == w
            for cache in ("_spots", "_places", "_positive", "_blocks"):
                assert not hasattr(other, cache)
            assert other._relations == {}
            assert contains(other, target, declared) == witness
            assert other._places == w._places and other._positive is True
            assert other._relations.keys() == w._relations.keys()
            assert all(a is not b for a, b in zip(other._relations.values(), w._relations.values()))
        assert [id(word) for word in built] == [id(w)] + [id(other) for other in others]

        # a substitution derives its result's table and never builds a Word
        same = Relator("same", target, target, euler_delta=0, sigma_delta=0)
        elsewhere = Surface(0, w.surface.boundary_count + 1)
        far = word_of(elsewhere, [convex_curve(elsewhere, c.name, c.hole_set) for c in target._curves])
        inits = []
        real_init = Word.__init__
        monkeypatch.setattr(Word, "__init__", lambda word, *args: inits.append(word) or real_init(word, *args))
        new_w, _ = substitute(w, same, declared)
        assert inits == [] and new_w._relations == {} and not hasattr(new_w, "_places")
        _assert_table_as_built(new_w)
        with pytest.raises(RankMismatchError):
            substitute(w, Relator("far", far, far, euler_delta=0, sigma_delta=0), declared)

    @settings(max_examples=200, deadline=None)
    @given(_mixed_word(), st.randoms(use_true_random=False))
    def test_candidates_match_the_bitset_oracle(self, w, rng):
        # a target whose letters are the word's curves, equal copies of them,
        # or a curve the word lacks
        absent = Curve("absent", w.surface.zero_class())
        for _ in range(5):
            letters = []
            for _ in range(rng.randint(1, 5)):
                c = rng.choice(w.twists).curve
                if rng.random() < 0.2:
                    c = Curve(c.name, c.homology, c.hole_set, c.rotation, c.boundary_parallel_to)
                elif rng.random() < 0.05:
                    c = absent
                letters.append(c)
            target = word_of(w.surface, letters)
            found, expected = words._match_candidates(w, target), _reference_candidates(w, target)
            assert (found is None) == (expected is None)
            if found is not None:
                candidates, twin = found
                assert [list(slots) for slots in candidates] == expected[0] and twin == expected[1]
        for k, slots in enumerate(getattr(w, "_places", ())):  # the tuples kept for later searches
            assert slots is None or list(slots) == [i for i, letter in enumerate(w._letters) if letter == k]

    @settings(max_examples=100, deadline=None)
    @given(
        _mixed_word(),
        st.lists(st.lists(st.sampled_from(_NAMES), min_size=1, max_size=2).map(frozenset), max_size=4),
        st.lists(st.lists(st.sampled_from(_NAMES), min_size=1, max_size=2).map(frozenset), max_size=4),
    )
    def test_cached_blocks_serve_every_declared_set(self, w, first, second):
        # partners are cleared in a relation's own list, never in the word's blocks
        for declared in (first, second, ()):
            assert _Dependence(w, declared).dep == _Dependence(copy.copy(w), declared).dep


class TestCurveTable:
    """``Word`` indexes its distinct curves once, equal objects merged; the
    search and the per-curve passes of ``invariants`` read that table, and
    a substitution's result derives its own from its parent's."""

    def test_foreign_curve_named_at_its_first_twist(self):
        # each distinct curve is checked once, in order of first occurrence
        s, other = Surface(0, 3), Surface(0, 4)
        home = convex_curve(s, "home", {2})
        far, farther = convex_curve(other, "far", {2}), convex_curve(other, "farther", {3})
        with pytest.raises(RankMismatchError, match="twist about far lives on"):
            word_of(s, [home, far, home, farther, far])
        with pytest.raises(RankMismatchError, match="twist about farther lives on"):
            word_of(s, [home] * 5 + [farther, far])

    def test_word_of_takes_one_sign_per_curve(self):
        # zip would truncate: two curves and one sign gave a one-twist word
        s = Surface(0, 3)
        a, b = convex_curve(s, "a", {2}), convex_curve(s, "b", {3})
        assert word_of(s, [a, b], [1, -1]).twists == (Twist(a, 1), Twist(b, -1))
        for signs in ([1], [1, 1, 1], []):
            with pytest.raises(ValueError, match=f"{len(signs)} signs given for 2 curves"):
                word_of(s, [a, b], signs)

    @settings(max_examples=200, deadline=None)
    @given(_mixed_word())
    def test_table_reproduces_the_word(self, w):
        for word in (w, copy.copy(w), pickle.loads(pickle.dumps(w))):
            curves, letters = word._curves, word._letters
            first = []  # the first object of each class of equal curves, in order of first occurrence
            for t in word.twists:
                if all(c != t.curve for c in first):
                    first.append(t.curve)
            assert len(curves) == len(first) and all(a is b for a, b in zip(curves, first))
            assert len(letters) == len(word.twists)
            assert all(curves[k] == t.curve for k, t in zip(letters, word.twists))
            assert letters == w._letters
            assert word._names == {
                c.name: [k for k, d in enumerate(curves) if d.name == c.name] for c in curves
            }
            assert [word._find(t.curve) for t in word.twists] == list(letters)
            for c in curves:  # a curve under one of the word's names, which the word may lack
                null = Curve(c.name, word.surface.zero_class())
                assert word._find(null) == next((k for k, d in enumerate(curves) if d == null), -1)

    @settings(max_examples=200, deadline=None)
    @given(_mixed_word(), st.integers(0, 12))
    def test_relator_curves_match_a_dict_of_both_sides(self, w, split):
        left, right = Word(w.surface, w.twists[:split]), Word(w.surface, w.twists[split:])
        found = Relator("r", left, right).curves()
        expected = tuple(dict.fromkeys(t.curve for t in w.twists))
        assert len(found) == len(expected) and all(a is b for a, b in zip(found, expected))

    @settings(max_examples=200, deadline=None)
    @given(_mixed_word().filter(lambda w: w.surface.genus == 0), st.randoms(use_true_random=False))
    def test_substitution_inherits_the_table(self, w, rng):
        # the result's table comes from w's and the right side's, never from
        # Word.__init__: it must still hold the first-occurring object of each
        # class, in order of first occurrence, when the right side brings new
        # curves, equal but distinct copies of w's curves (which must stand
        # for their class where they come first) and distinct curves sharing
        # a name
        s, n = w.surface, len(w)
        holes = range(2, s.boundary_count + 1)
        if rng.random() < 0.5:
            start = rng.randrange(n)
            picked = list(range(start, rng.randint(start + 1, min(n, start + 4))))
        else:
            picked = rng.sample(range(n), rng.randint(1, min(n, 3)))
        left = word_of(s, [w.twists[i].curve for i in picked])
        right = []
        for _ in range(rng.randint(0, 5)):
            kind = rng.choice(("same", "copy", "shared name", "new name"))
            c = rng.choice(w.twists).curve
            if kind == "copy":
                c = Curve(c.name, c.homology, c.hole_set, c.rotation, c.boundary_parallel_to)
            elif kind != "same":
                name = c.name if kind == "shared name" else "new"
                c = convex_curve(s, name, rng.sample(holes, rng.randint(1, len(holes))))
            right += [c] * rng.randint(1, 2)
        relator = Relator("r", left, word_of(s, right), sigma_delta=0)
        try:
            new_w, record = substitute(w, relator)
        except NotApplicableError:
            return
        seq = _replay(w, record.swaps, ())
        start = seq.index(record.positions[0])
        head, tail = seq[:start], seq[start + len(left):]
        expected = tuple(w.twists[i] for i in head) + relator.right.twists + tuple(w.twists[i] for i in tail)
        assert new_w.twists == expected
        _assert_table_as_built(new_w)


def _pinned_case(seed):
    """A seeded planar word (b 6..10, up to about 320 twists) with a target
    drawn from a few core curves inside a small region of holes.  Most
    fillers commute with the core (disjoint from the region, enclosing it, or
    one hole of it), the rest overlap it without nesting, so witnesses need
    long swap lists in which a letter passes many others (and so moves in
    many passes of the bubble sort), and some searches fail."""
    rng = random.Random(f"pin:{seed}")
    b = rng.randint(6, 10)
    s = Surface(0, b)
    holes = list(range(2, b + 1))
    region = rng.sample(holes, rng.randint(3, 4))
    rest = [h for h in holes if h not in region]
    core = [convex_curve(s, f"k{i}", rng.sample(region, rng.randint(1, 2))) for i in range(rng.randint(1, 4))]
    pool = []
    for i in range(rng.randint(3, 12)):
        r = rng.random()
        if r < 0.35:
            hs = rng.sample(rest, rng.randint(1, len(rest)))
        elif r < 0.6:
            hs = region + rng.sample(rest, rng.randint(0, len(rest)))
        elif r < 0.75:
            hs = [rng.choice(region)]
        else:
            hs = rng.sample(holes, rng.randint(2, len(holes) - 1))
        pool.append(convex_curve(s, f"f{i}", hs))
    if rng.random() < 0.3:
        pool.append(convex_curve(s, "outer", holes, boundary_parallel_to=1))
    seq = [rng.choice(pool) for _ in range(rng.randint(0, 310))]
    for c in core:
        for _ in range(rng.randint(1, 3)):
            seq.insert(rng.randint(0, len(seq)), c)
    target = rng.sample(core, len(core))
    if rng.random() < 0.2:
        target.insert(rng.randint(0, len(target)), rng.choice(core))
    declared = set()
    if rng.random() < 0.3:
        a, c = rng.sample(core + pool, 2)
        declared.add(declared_pair(a.name, c.name))
    return word_of(s, seq), word_of(s, target), declared


def _full_pass_swaps(dep, order):
    """The bubble sort that replays ``order`` as adjacent swaps, every pass
    over the whole word, as ``_linearize`` ran it before its passes were
    bounded."""
    n = len(dep)
    rank = [0] * n
    for r, i in enumerate(order):
        rank[i] = r
    seq = list(range(n))
    swaps = []
    changed = True
    while changed:
        changed = False
        for i in range(n - 1):
            a, b = seq[i], seq[i + 1]
            if rank[a] > rank[b]:
                assert not (dep[a] >> b) & 1
                seq[i], seq[i + 1] = b, a
                swaps.append(i)
                changed = True
    return swaps


def _full_closure(dep):
    """``reach`` and ``cover`` at every position, filled right to left over
    the whole word, as ``_Dependence`` built them before it filled on demand."""
    n = len(dep)
    reach, cover = [0] * n, [[] for _ in range(n)]
    for i in range(n - 1, -1, -1):
        todo = dep[i] >> (i + 1) << (i + 1)
        acc = 0
        while todo:
            low = todo & -todo
            k = low.bit_length() - 1
            cover[i].append(k)
            acc |= low | reach[k]
            todo &= ~acc
        reach[i] = acc
    return reach, cover


def _full_linearize(dep, reach, cover, selected, contiguous):
    """``_linearize`` as it ran before it ordered only the window: the wedge
    scan over every position, the min-heap over every position and bubble
    passes over the whole word."""
    n = len(dep)
    edges = list(zip(selected, selected[1:]))
    if contiguous and selected:
        first, last = selected[0], selected[-1]
        sel = forced_after = 0
        for s in selected:
            sel |= 1 << s
            forced_after |= reach[s]
        for x in range(n):
            if (sel >> x) & 1:
                continue
            before = reach[x] & sel
            after = (forced_after >> x) & 1
            if before and after:
                return None
            if before:
                edges.append((x, first))
            elif after:
                edges.append((last, x))
            elif x < first:
                edges.append((x, first))
            else:
                edges.append((last, x))
    succ = [set(ks) for ks in cover]
    for a, b in edges:
        succ[a].add(b)
    indegree = [0] * n
    for i in range(n):
        for j in succ[i]:
            indegree[j] += 1
    heap = [i for i in range(n) if indegree[i] == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        i = heapq.heappop(heap)
        order.append(i)
        for j in succ[i]:
            indegree[j] -= 1
            if indegree[j] == 0:
                heapq.heappush(heap, j)
    if len(order) != n:
        return None
    return order, _full_pass_swaps(dep, order)


def _search_selection(reach, rng, n):
    """Up to five positions in an order the search could ask for: none is
    forced after a later one."""
    selected, taken = [], 0
    for p in rng.sample(range(n), n):
        if len(selected) < 5 and not reach[p] & taken:
            selected.append(p)
            taken |= 1 << p
    return selected


_SEARCH_WORDS = st.one_of(_mixed_word(), st.integers(0, 10**6).map(lambda seed: _pinned_case(seed)[0]))


class TestPinnedWitnesses:
    # sha256 of the contains witnesses and substitute records on 2000 seeded
    # planar words (``_pinned_case``): 813 of the 1650 witnesses and 1055 of
    # the 1455 records carry swaps, up to 8829 in one list
    DIGEST = "39d51cf3df2ab4bdcc8207c4d6b2398f9a916b4b58bf9c12f98abbdfe2839574"

    def test_witnesses_are_pinned(self):
        h = hashlib.sha256()
        for seed in range(2000):
            w, target, declared = _pinned_case(seed)
            wit = contains(w, target, declared)
            h.update(repr(None if wit is None else (wit.positions, wit.swaps, wit.final_positions)).encode())
            try:
                new_w, rec = substitute(w, Relator("same", target, target, euler_delta=0, sigma_delta=0), declared)
            except NotApplicableError:
                h.update(b"none")
                continue
            h.update(repr((rec.positions, rec.swaps, [t.curve.name for t in new_w.twists])).encode())
        assert h.hexdigest() == self.DIGEST

    @settings(max_examples=200, deadline=None)
    @given(_SEARCH_WORDS, st.randoms(use_true_random=False), st.booleans())
    def test_linearize_swaps_match_full_passes(self, w, rng, contiguous):
        rel = _Dependence(w, ())
        rel.fill(0)
        selected = _search_selection(rel.reach, rng, len(w))
        lin = _linearize(rel, selected, contiguous)
        assert lin is not None or contiguous
        if lin is not None:
            order, swaps = lin
            assert swaps == _full_pass_swaps(rel.dep, order)


class TestLinearizeAlarm:
    @pytest.mark.parametrize(
        "seed, contiguous",
        [pytest.param(seed, False, id=str(seed)) for seed in range(12)]
        + [pytest.param(seed, True, id=f"contiguous-{seed}") for seed in range(12)],
    )
    def test_an_uncertified_swap_raises(self, seed, contiguous):
        # a witness or substitution record that moves letters, then one pair
        # its order inverts marked dependent
        for case in range(seed, 2000, 12):
            w, target, declared = _pinned_case(case)
            if contiguous:
                try:
                    _, found = substitute(w, Relator("same", target, target, euler_delta=0, sigma_delta=0), declared)
                except NotApplicableError:
                    continue
            else:
                found = contains(w, target, declared)
            if found is not None and found.swaps:
                break
        rel = _Dependence(w, declared)  # its own, never the word's: the test tampers with it
        rel.fill(min(found.positions))
        order, swaps = _linearize(rel, found.positions, contiguous)
        assert tuple(swaps) == found.swaps
        placed = {x: r for r, x in enumerate(order)}
        inverted = [(y, x) for y in range(len(w)) for x in range(y + 1, len(w)) if placed[x] < placed[y]]
        y, x = random.Random(seed).choice(inverted)
        rel.dep[y] |= 1 << x
        rel.dep[x] |= 1 << y
        with pytest.raises(ConsistencyAlarmError, match="uncertified swap"):
            _linearize(rel, found.positions, contiguous)


class TestWindowedSearch:
    """``_linearize`` orders only the window its backward edges span, and
    ``_Dependence`` fills its closure from the last position down to the
    lowest one a caller asks for, extending it on a later, lower request;
    both give what the full-word computations give."""

    @settings(max_examples=200, deadline=None)
    @given(_SEARCH_WORDS, st.randoms(use_true_random=False), st.booleans())
    def test_window_and_fill_match_the_full_word_oracles(self, w, rng, contiguous):
        names = sorted({t.curve.name for t in w.twists})
        declared = {declared_pair(rng.choice(names), rng.choice(names)) for _ in range(rng.randint(0, 4))}
        n = len(w)
        dep = _Dependence(w, declared).dep
        reach, cover = _full_closure(dep)
        selections = [_search_selection(reach, rng, n), _search_selection(reach, rng, n)]
        rel = _Dependence(w, declared)  # successive fills on one relation, each as low as the last or lower
        for selected in sorted(selections, key=min, reverse=True) + [None]:
            p = 0 if selected is None else min(selected)
            rel.fill(p)
            rel.fill(n - 1)  # a higher request fills nothing more
            assert rel.low == p
            for i in range(n):
                if i >= p:
                    assert rel.reach[i] == reach[i] and list(rel.cover[i]) == cover[i]
                else:
                    assert rel.reach[i] is None and rel.cover[i] is None
            if selected is not None:
                assert _linearize(rel, selected, contiguous) == _full_linearize(dep, reach, cover, selected, contiguous)
        for selected in selections:  # on a relation filled below the selection
            assert _linearize(rel, selected, contiguous) == _full_linearize(dep, reach, cover, selected, contiguous)

    @settings(max_examples=200, deadline=None)
    @given(_SEARCH_WORDS, st.randoms(use_true_random=False), st.booleans())
    def test_arbitrary_positions_match_the_full_word_oracle(self, w, rng, contiguous):
        # any order of distinct positions, not only one the search would ask
        # for: a selected occurrence forced before an earlier one makes the
        # order unreachable, which both must answer with None
        n = len(w)
        dep = _Dependence(w, ()).dep
        reach, cover = _full_closure(dep)
        for _ in range(3):
            span = rng.randint(1, min(n, 24))  # a narrow span, where forced precedences are common
            start = rng.randint(0, n - span)
            selected = rng.sample(range(start, start + span), rng.randint(1, min(span, 5)))
            rel = _Dependence(w, ())
            rel.fill(min(selected))
            assert _linearize(rel, selected, contiguous) == _full_linearize(dep, reach, cover, selected, contiguous)


def _shared_relator_entry(target, disjoint):
    """An entry whose left side is the target, with a nonzero obstruction
    asserted whatever the target's curves, so ``detect_relator`` reports
    each admission with its witness."""
    relator = Relator("r", target, target, euler_delta=0, sigma_delta=1)
    return RelatorEntry(relator=relator, obstruction=1, obstruction_asserted=True, disjoint=frozenset(disjoint))


class TestRelationCache:
    """A word keeps one ``_Dependence`` per effective declared set, shared by
    every search on it, and its fill only grows leftwards."""

    def test_a_search_leaves_no_garbage(self):
        w, target, declared = _pinned_case(27)
        same = Relator("same", target, target, euler_delta=0, sigma_delta=0)
        gc.collect()
        witness = contains(w, target, declared)
        _, record = substitute(w, same, declared)
        assert witness is not None and record.positions
        assert gc.collect() == 0
        del w, witness, record  # the word and its relations go with their last reference
        assert gc.collect() == 0

    def test_relations_are_built_once_per_effective_set(self, monkeypatch):
        s = Surface(0, 5)
        a, b, c = convex_curve(s, "a", {2, 3}), convex_curve(s, "b", {3, 4}), convex_curve(s, "c", {5})
        w = word_of(s, [c, a, b, c, a, b])
        target = word_of(s, [a, b])
        built = []
        real = _Dependence.__init__
        monkeypatch.setattr(_Dependence, "__init__", lambda rel, word, declared: built.append(word) or real(rel, word, declared))
        # a pair naming a curve the word lacks clears nothing, so these share one relation
        unread = [set(), {declared_pair("y", "z")}, {declared_pair("a", "z")}, {frozenset({"y"})}]
        certificates = planarity.detect_relator(w, [_shared_relator_entry(target, d) for d in unread])
        assert [cert.verdict for cert in certificates] == [planarity.NON_PLANAR] * 4
        assert len(built) == 1 and list(w._relations) == [frozenset()]
        # an entry whose pair names two curves of the word needs its own
        other = copy.copy(w)
        pairs = [{declared_pair("a", "b")}, set()]
        planarity.detect_relator(other, [_shared_relator_entry(target, d) for d in pairs])
        assert len(built) == 3 and set(other._relations) == {frozenset(), frozenset({declared_pair("a", "b")})}
        # a later search whose first candidate lies lower extends the fill
        rel = w._relations[frozenset()]
        assert rel.low == 1 and rel.reach[0] is None
        filled = rel.reach[1:], rel.cover[1:]
        assert contains(w, word_of(s, [c, a]), {declared_pair("y", "z")}) is not None
        assert len(built) == 3 and w._relations == {frozenset(): rel}
        assert rel.low == 0 and rel.reach[0] is not None
        assert (rel.reach[1:], rel.cover[1:]) == filled

    @settings(max_examples=100, deadline=None)
    @given(_SEARCH_WORDS, st.randoms(use_true_random=False))
    def test_shared_relations_answer_as_fresh_ones(self, w, rng):
        # a sequence of searches on one word, under declared sets with pairs
        # naming absent curves, one-name pairs (over two unequal curves where
        # the word has them) and the empty set, answers each call as the
        # same call on a fresh copy of the word does
        names = sorted(w._names) + ["absent"]

        def draw_declared():
            if rng.random() < 0.3:
                return set()
            return {frozenset(rng.sample(names, rng.randint(1, 2))) for _ in range(rng.randint(1, 3))}

        def answer(call, word):
            try:
                return call(word)
            except NotApplicableError as e:
                return str(e)

        n = len(w)
        for _ in range(rng.randint(2, 8)):
            declared = draw_declared()
            picked = rng.sample(range(n), rng.randint(1, min(n, 4)))
            target = word_of(w.surface, [w.twists[i].curve for i in picked])
            same = Relator("same", target, target, euler_delta=0, sigma_delta=0)
            op = rng.choice(("contains", "substitute", "detect"))
            if op == "contains":
                call = lambda word: contains(word, target, declared)
            elif op == "substitute":
                call = lambda word: substitute(word, same, declared)
            else:
                entries = [_shared_relator_entry(target, draw_declared()) for _ in range(rng.randint(1, 3))]
                call = lambda word: planarity.detect_relator(word, entries, declared)
            shared, fresh = answer(call, w), answer(call, copy.copy(w))
            if op == "contains" and shared is not None:
                assert (shared.positions, shared.swaps, shared.final_positions) == (
                    fresh.positions, fresh.swaps, fresh.final_positions)
            elif op == "substitute" and not isinstance(shared, str):
                (new_shared, rec), (new_fresh, rec_fresh) = shared, fresh
                assert new_shared.twists == new_fresh.twists
                assert [getattr(rec, f) for f in rec._fields] == [getattr(rec_fresh, f) for f in rec_fresh._fields]
            elif op == "detect":
                assert [(c.verdict, c.basis, c.notes) for c in shared] == [(c.verdict, c.basis, c.notes) for c in fresh]
                assert [c.witness and [getattr(c.witness, f) for f in c.witness._fields] for c in shared] == [
                    c.witness and [getattr(c.witness, f) for f in c.witness._fields] for c in fresh]
            assert shared == fresh


class TestVerifyRelator:
    def test_lantern_passes(self):
        entry = standard_lantern()
        report = verify_relator(entry.relator)
        assert report.necessary_conditions_hold

    def test_two_chain_homology_and_count(self):
        from steincalc.relators import chain

        entry = chain(2)
        report = verify_relator(entry.relator)
        assert report.check("homology_identity").passed
        assert entry.relator.euler_delta == 11

    def test_fake_relator_fails_homology(self, torus1):
        s, a, b = torus1
        fake = Relator("fake", word_of(s, [a]), word_of(s, [b]), euler_delta=0)
        report = verify_relator(fake)
        assert report.check("homology_identity").passed is False
        assert not report.necessary_conditions_hold


class TestRelatorValues:
    """``Relator`` works out its Euler change and allowability from its words."""

    def test_allowable_follows_the_curves(self):
        s = Surface(0, 3)
        z = convex_curve(s, "z", [])  # class 0
        a, b = convex_curve(s, "a", {2}), convex_curve(s, "b", {3})
        over_zero = Relator("u", word_of(s, [z]), word_of(s, [z, a]))
        assert over_zero.allowable is False and over_zero.euler_delta == 1
        assert verify_relator(over_zero).check("allowable_consistent").passed
        nonzero = Relator("v", word_of(s, [a, b]), word_of(s, [b, a]))
        assert nonzero.allowable is True and nonzero.euler_delta == 0
        assert verify_relator(nonzero).check("allowable_consistent").passed

    def test_stated_values(self):
        s = Surface(0, 3)
        a = convex_curve(s, "a", {2})
        assert Relator("w", word_of(s, [a]), word_of(s, [a]), allowable=True).allowable is True
        with pytest.raises(ValueError, match="allowable False != True"):
            Relator("w", word_of(s, [a]), word_of(s, [a]), allowable=False)
        two = chain(2).relator  # its boundary curve is null-homologous
        with pytest.raises(ValueError, match="allowable True != False"):
            Relator("fake", two.left, two.right, sigma_delta=-7, allowable=True)
        with pytest.raises(ValueError, match="euler_delta 1 != len"):
            Relator("w", word_of(s, [a]), word_of(s, [a]), 1)

    def test_left_side_alone(self):
        # a relator always carries both words; a missing side raises
        s = Surface(0, 3)
        w = word_of(s, [convex_curve(s, "a", {2})])
        for left, right in ((w, None), (None, w), (None, None)):
            with pytest.raises(ValueError, match="give both sides"):
                Relator("k", left, right)
