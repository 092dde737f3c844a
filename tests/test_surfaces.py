"""Surface model: pairings, twists, convex curves, commutation certificates."""

import functools
import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from steincalc import surfaces
from steincalc.document import lantern_document, tau_boundary_document
from steincalc.errors import RankMismatchError
from steincalc.surfaces import (
    Curve,
    HomologyClass,
    Surface,
    convex_curve,
    curves_commute,
    intersection_pairing,
    twist_action,
)
from steincalc.relators import lantern, standard_lantern
from steincalc.words import Twist, Word, word_of


def classes(surface, max_entry=8):
    return st.lists(
        st.integers(-max_entry, max_entry), min_size=surface.rank, max_size=surface.rank
    ).map(lambda v: HomologyClass(surface, tuple(v)))


class TestSurface:
    def test_rank_and_basis(self):
        s = Surface(2, 3)
        assert s.rank == 6

    def test_boundary_required(self):
        with pytest.raises(ValueError):
            Surface(1, 0)

    def test_outer_boundary_class(self):
        s = Surface(1, 3)
        assert s.outer_boundary_class().coords == (0, 0, -1, -1)

    def test_basis_class_checks_its_index(self):
        s = Surface(0, 4)
        assert [s.basis_class(i).coords for i in range(3)] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        for index in (-1, 3):
            with pytest.raises(ValueError, match=rf"^basis class {index} does not exist \(valid range 0\.\.2\)$"):
                s.basis_class(index)


class TestIntersectionPairing:
    def test_symplectic_pair(self):
        s = Surface(1, 1)
        assert intersection_pairing(s.a_class(1), s.b_class(1)) == 1

    def test_boundary_classes_pair_trivially(self):
        s = Surface(0, 3)
        assert intersection_pairing(s.d_class(2), s.d_class(3)) == 0

    def test_bilinearity_example(self):
        s = Surface(1, 2)
        assert intersection_pairing(s.a_class(1) + s.d_class(2), s.b_class(1)) == 1

    def test_dimension_mismatch(self):
        with pytest.raises(RankMismatchError):
            intersection_pairing(Surface(1, 1).a_class(1), Surface(1, 2).a_class(1))

    @settings(max_examples=60)
    @given(st.data())
    def test_antisymmetry_and_bilinearity(self, data):
        s = Surface(2, 2)
        x = data.draw(classes(s))
        y = data.draw(classes(s))
        z = data.draw(classes(s))
        assert intersection_pairing(x, y) == -intersection_pairing(y, x)
        assert intersection_pairing(x + z, y) == intersection_pairing(x, y) + intersection_pairing(z, y)


class TestTwistAction:
    def test_boundary_twist_acts_trivially(self):
        s = Surface(1, 2)
        c = Curve("d2", s.d_class(2))
        assert twist_action(c, s.a_class(1)) == s.a_class(1)

    def test_transvection(self):
        s = Surface(1, 1)
        a = Curve("a", s.a_class(1))
        assert twist_action(a, s.b_class(1)) == s.b_class(1) - s.a_class(1)

    def test_fixes_own_class(self):
        s = Surface(1, 1)
        a = Curve("a", s.a_class(1))
        assert twist_action(a, s.a_class(1)) == s.a_class(1)

    @settings(max_examples=60)
    @given(st.data())
    def test_invertibility(self, data):
        s = Surface(2, 3)
        x = data.draw(classes(s))
        c = Curve("c", data.draw(classes(s, max_entry=3)))
        assert twist_action(c, twist_action(c, x, 1), -1) == x

    @settings(max_examples=60)
    @given(st.data())
    def test_fixes_orthogonal_classes(self, data):
        s = Surface(2, 2)
        x = data.draw(classes(s))
        c = Curve("c", data.draw(classes(s, max_entry=3)))
        if intersection_pairing(x, c.homology) == 0:
            assert twist_action(c, x) == x


class TestConvexCurves:
    def test_hole_set_fixes_homology(self):
        s = Surface(0, 5)
        c = convex_curve(s, "c", {2, 4})
        assert c.homology.coords == (1, 0, 1, 0)

    def test_outer_curve_stores_negated_class(self):
        s = Surface(0, 4)
        c = convex_curve(s, "outer", {2, 3, 4}, boundary_parallel_to=1)
        assert c.homology.coords == (-1, -1, -1)
        assert c.boundary_parallel_to == 1

    def test_hole_sets_need_planar_surface(self):
        s = Surface(1, 2)
        with pytest.raises(ValueError):
            Curve("c", s.d_class(2), hole_set=frozenset({2}))

    def test_mismatched_homology_rejected(self):
        s = Surface(0, 3)
        with pytest.raises(ValueError):
            Curve("c", s.d_class(2), hole_set=frozenset({3}))

    def test_class_is_built_once_and_checked_where_it_may_not_fit(self, monkeypatch):
        s = Surface(0, 5)
        built = []
        real = surfaces._hole_set_coords
        monkeypatch.setattr(surfaces, "_hole_set_coords", lambda *args: built.append(args[2]) or real(*args))
        assert convex_curve(s, "c", {2, 4}).homology.coords == (1, 0, 1, 0)
        assert convex_curve(s, "o", {2, 3, 4, 5}, boundary_parallel_to=1).homology.coords == (-1, -1, -1, -1)
        assert built == [frozenset({2, 4}), frozenset({2, 3, 4, 5})]
        # a class that disagrees with the hole set still raises, named by the check
        with pytest.raises(ValueError, match=r"^curve c: homology \(1, 0, 0, 0\) does not match hole set \[3\] "
                                             r"\(expected \(0, 1, 0, 0\)\)$"):
            Curve("c", s.d_class(2), hole_set=frozenset({3}))
        # the flag alone makes the class the outer one, and an outer-parallel
        # curve must enclose every hole
        with pytest.raises(ValueError, match="^curve o: an outer-parallel curve encloses every hole$"):
            convex_curve(s, "o", {2, 3, 4}, boundary_parallel_to=1)
        # the range check runs before any hole indexes a coordinate
        built.clear()
        with pytest.raises(ValueError, match=r"^curve c: hole indices \[6\] outside 2..5$"):
            convex_curve(s, "c", {2, 6})
        assert built == [frozenset({2, 6})]
        with pytest.raises(ValueError, match="^curve c: hole sets only make sense on planar surfaces$"):
            convex_curve(Surface(1, 3), "c", {2})

    def test_empty_and_full_hole_sets_allowed(self):
        s = Surface(0, 3)
        empty = convex_curve(s, "nullb", ())
        assert not empty.is_allowable
        full = convex_curve(s, "full", {2, 3})
        assert full.is_allowable

    def test_allowable_means_nonzero_class(self):
        s = Surface(1, 1)
        assert Curve("a", s.a_class(1)).is_allowable
        assert not Curve("delta", s.zero_class()).is_allowable

    @settings(max_examples=40)
    @given(st.sets(st.integers(2, 6)))
    def test_indicator_invariant(self, holes):
        s = Surface(0, 6)
        c = convex_curve(s, "c", holes)
        for j in range(2, 7):
            assert c.homology.coords[j - 2] == (1 if j in holes else 0)


class TestCurvesCommute:
    def test_disjoint_hole_sets(self):
        s = Surface(0, 4)
        assert curves_commute(convex_curve(s, "x", {2}), convex_curve(s, "y", {3})) is True

    def test_nested_hole_sets(self):
        s = Surface(0, 4)
        assert curves_commute(convex_curve(s, "x", {2}), convex_curve(s, "y", {2, 3})) is True

    def test_overlapping_hole_sets_are_indeterminate(self):
        s = Surface(0, 5)
        assert curves_commute(convex_curve(s, "x", {2, 3}), convex_curve(s, "y", {3, 4})) is None

    def test_declared_disjointness(self):
        s = Surface(1, 1)
        x = Curve("x", s.a_class(1))
        y = Curve("y", s.b_class(1))
        assert curves_commute(x, y) is None
        assert curves_commute(x, y, declared={frozenset({"x", "y"})}) is True

    def test_identical_curve(self):
        s = Surface(1, 1)
        x = Curve("x", s.a_class(1))
        assert curves_commute(x, x) is True

    def test_outer_flagged_curve_nests_everything(self):
        s = Surface(0, 4)
        outer = convex_curve(s, "outer", {2, 3, 4}, boundary_parallel_to=1)
        assert curves_commute(outer, convex_curve(s, "x", {2, 3})) is True


# An exact oracle for commutation on planar pages: the Artin action of the
# braid group B_n on the free group F_n, which is faithful.  Holes 2..b sit
# on a circle in index order and become punctures 1..b-1; boundary 1 lies
# outside.  A free-group word is a tuple of nonzero ints, k for x_k and -k
# for its inverse; a braid word is a list of (i, +1 or -1) for sigma_i^(+-1).


def _sigma_images(i, sign):
    """The generators sigma_i^sign moves, with their images."""
    if sign == 1:
        return {i: (i, i + 1, -i), i + 1: (i,)}
    return {i: (i + 1,), i + 1: (-(i + 1), i, i + 1)}


def _braid_images(braid, n):
    """The images of x_1..x_n under the braid word, freely reduced."""
    images = [(k,) for k in range(1, n + 1)]
    for i, sign in braid:
        move = _sigma_images(i, sign)
        moved = []
        for word in images:
            out = []
            for x in word:
                image = move.get(abs(x), (abs(x),))
                for y in image if x > 0 else [-y for y in reversed(image)]:
                    if out and out[-1] == -y:
                        out.pop()
                    else:
                        out.append(y)
            moved.append(tuple(out))
        images = moved
    return images


def _band(i, j):
    """A_ij = sigma_{j-1}..sigma_{i+1} sigma_i^2 sigma_{i+1}^-1..sigma_{j-1}^-1, for punctures i < j."""
    down = [(k, 1) for k in range(j - 1, i, -1)]
    return down + [(i, 1), (i, 1)] + [(k, -1) for k, _ in reversed(down)]


def _convex_twist(holes):
    """The twist about the convex curve around the holes: prod_b prod_{a<b} A_{p_a p_b}."""
    p = sorted(h - 1 for h in holes)
    return [g for b in range(1, len(p)) for a in range(b) for g in _band(p[a], p[b])]


def _braid_twists_commute(holes1, holes2, b):
    t1, t2 = _convex_twist(holes1), _convex_twist(holes2)
    return _braid_images(t1 + t2, b - 1) == _braid_images(t2 + t1, b - 1)


def _alternate(holes1, holes2):
    """Disjoint hole sets whose holes interleave around the circle: a < b < c
    < d with a, c in one set and b, d in the other, i.e. the sets change at
    least three times along the sorted union."""
    if holes1 & holes2:
        return False
    owners = [h in holes1 for h in sorted(holes1 | holes2)]
    return sum(x != y for x, y in zip(owners, owners[1:])) >= 3


@functools.lru_cache(maxsize=None)
def _convex_pair_audit():
    """Every ordered pair of distinct hole sets on b = 3..6 (1188 pairs), as
    (b, holes1, holes2, rule, table, commute): whether ``curves_commute``
    certifies the pair, whether the two-letter word's ``_blocked`` table
    leaves the second position free of the first curve, and whether the
    braid oracle says the twists commute."""
    audit = []
    for b in range(3, 7):
        s = Surface(0, b)
        sets = [frozenset(c) for k in range(1, b) for c in itertools.combinations(range(2, b + 1), k)]
        for holes1, holes2 in itertools.permutations(sets, 2):
            x, y = convex_curve(s, "x", holes1), convex_curve(s, "y", holes2)
            table = not Word(s, (Twist(x), Twist(y)))._blocked()[0] >> 1 & 1
            audit.append((b, holes1, holes2, curves_commute(x, y) is True, table,
                          _braid_twists_commute(holes1, holes2, b)))
    return tuple(audit)


@st.composite
def _convex_pairs(draw):
    b = draw(st.integers(3, 8))
    holes = st.frozensets(st.integers(2, b), min_size=1)
    return b, draw(holes), draw(holes)


class TestBraidOracle:
    @settings(max_examples=200, deadline=None)
    @given(_convex_pairs())
    @example((5, frozenset({2, 4}), frozenset({3, 5})))  # alternating
    @example((5, frozenset({2, 5}), frozenset({3, 4})))  # disjoint, not alternating
    @example((5, frozenset({2, 3}), frozenset({3, 4})))  # overlapping
    @example((8, frozenset({2, 4, 6, 8}), frozenset({3, 4, 5, 6, 7})))  # nested
    def test_convex_twists_commute_as_the_braid_group_says(self, pair):
        b, holes1, holes2 = pair
        s = Surface(0, b)
        x, y = convex_curve(s, "x", holes1), convex_curve(s, "y", holes2)
        if holes1 <= holes2 or holes2 <= holes1 or not (holes1 & holes2 or _alternate(holes1, holes2)):
            assert curves_commute(x, y) is True
            assert _braid_twists_commute(holes1, holes2, b)
        else:  # alternating, or overlapping and not nested
            assert not _braid_twists_commute(holes1, holes2, b)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1: curves_commute certifies alternating hole sets")
    def test_alternating_hole_sets_are_not_certified(self):
        s = Surface(0, 5)
        a, c = convex_curve(s, "a", {2, 4}), convex_curve(s, "c", {3, 5})
        assert curves_commute(a, c) is not True or _braid_twists_commute({2, 4}, {3, 5}, 5)

    def test_convex_pair_mismatches_are_the_alternating_pairs(self):
        # pins item 1's defect exactly: both certificate rules agree with each
        # other everywhere, miss no commuting pair, and certify nothing false
        # but the alternating pairs
        audit = _convex_pair_audit()
        assert len(audit) == 1188
        mismatches = [(b, h1, h2) for b, h1, h2, rule, table, commute in audit if not rule == table == commute]
        assert mismatches == [(b, h1, h2) for b, h1, h2, *_ in audit if _alternate(h1, h2)]
        assert [sum(b == n for b, *_ in mismatches) for n in (3, 4, 5, 6)] == [0, 0, 2, 20]
        assert all(pair[3:] == (True, True, False) for pair in audit if pair[:3] in mismatches)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1: curves_commute and Word._tabulate certify alternating hole sets")
    def test_no_non_commuting_convex_pair_is_certified(self):
        assert [pair[:3] for pair in _convex_pair_audit() if (pair[3] or pair[4]) and not pair[5]] == []


def _framed_action(word):
    """The word in P_{b-1} x Z^{b-1}, the mapping classes of the disk with
    the holes 2..b fixing them pointwise: the braid images of its twists,
    the rightmost acting first, and its framing vector, the number of
    twists whose curve encloses each hole."""
    b = word.surface.boundary_count
    braid = [g for t in reversed(word.twists) for g in _convex_twist(t.curve.hole_set)]
    framing = tuple(sum(h in t.curve.hole_set for t in word.twists) for h in range(2, b + 1))
    return _braid_images(braid, b - 1), framing


class TestLanternOrientation:
    # holes sit on a circle in index order and a word's rightmost twist
    # acts first: then a12 a23 a13 is a1 a2 a3 a4, and a13 a23 a12 is not

    def test_every_hole_triple(self):
        checked = 0
        for b in range(4, 8):
            s = Surface(0, b)
            for i, j, k in itertools.combinations(range(2, b + 1), 3):
                a1, a2, a3, a4, a12, a23, a13 = (
                    convex_curve(s, name, holes) for name, holes in (
                        ("a1", {i}), ("a2", {j}), ("a3", {k}), ("a4", {i, j, k}),
                        ("a12", {i, j}), ("a23", {j, k}), ("a13", {i, k})))
                relator = lantern(a1, a2, a3, a4, a12, a23, a13).relator
                boundary = _framed_action(relator.left)
                assert _framed_action(relator.right) == boundary
                assert _framed_action(word_of(s, [a13, a23, a12])) != boundary
                checked += 1
        assert checked == 35

    def test_stock_lanterns(self):
        doc = lantern_document()
        sides = [(e.relator.left, e.relator.right)
                 for e in (standard_lantern(), tau_boundary_document(0, 4).relator_entries["lantern"])]
        sides.append((doc.words["lantern_left"], doc.words["lantern_right"]))
        for left, right in sides:
            boundary = _framed_action(left)
            assert _framed_action(right) == boundary
            assert _framed_action(word_of(left.surface, [t.curve for t in reversed(right.twists)])) != boundary
