"""Surface model: pairings, twists, convex curves, commutation certificates."""

import pytest
from hypothesis import example, given, settings, strategies as st

from steincalc import surfaces
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
        c = convex_curve(s, "outer", {2, 3, 4}, outer=True)
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
        assert convex_curve(s, "o", {2, 3, 4, 5}, outer=True).homology.coords == (-1, -1, -1, -1)
        assert built == [frozenset({2, 4}), frozenset({2, 3, 4, 5})]
        # a class that disagrees with the hole set still raises, named by the check
        with pytest.raises(ValueError, match=r"^curve c: homology \(1, 0, 0, 0\) does not match hole set \[3\] "
                                             r"\(expected \(0, 1, 0, 0\)\)$"):
            Curve("c", s.d_class(2), hole_set=frozenset({3}))
        # flagged parallel to boundary 1 without outer=True: the indicator class is not the outer one
        with pytest.raises(ValueError, match=r"^curve o: homology \(1, 1, 1, 1\) does not match"):
            convex_curve(s, "o", {2, 3, 4, 5}, boundary_parallel_to=1)
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
        outer = convex_curve(s, "outer", {2, 3, 4}, outer=True)
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
