"""Surface model: pairings, twists, convex curves, commutation certificates."""

import pytest
from hypothesis import given, settings, strategies as st

from steincalc.errors import RankMismatchError
from steincalc.surfaces import (
    Arc,
    Curve,
    HomologyClass,
    Surface,
    arc_pairing,
    convex_curve,
    curves_commute,
    intersection_pairing,
    relative_embedding,
    standard_arc,
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
        assert s.basis_names() == ("a1", "b1", "a2", "b2", "d2", "d3")

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


class TestArcPairing:
    def test_dual_basis(self):
        s = Surface(0, 3)
        s2 = standard_arc(s, 2)
        assert arc_pairing(s2.rel_class, s.d_class(2)) == 1
        assert arc_pairing(s2.rel_class, s.d_class(3)) == 0

    def test_outer_class_against_arc(self):
        s = Surface(0, 3)
        s3 = standard_arc(s, 3)
        assert arc_pairing(s3.rel_class, s.outer_boundary_class()) == -1

    def test_symplectic_slots(self):
        s = Surface(1, 2)
        a_slot = (1, 0, 0)  # A_1
        b_slot = (0, 1, 0)  # B_1
        assert arc_pairing(a_slot, s.b_class(1)) == 1
        assert arc_pairing(b_slot, s.a_class(1)) == -1

    def test_relative_embedding_kills_boundary(self):
        s = Surface(1, 3)
        assert relative_embedding(s.d_class(2)) == (0, 0, 0, 0)
        assert relative_embedding(s.a_class(1)) == (1, 0, 0, 0)


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


class TestArcs:
    def test_standard_arc_is_unit_vector(self):
        s = Surface(1, 3)
        assert standard_arc(s, 3).rel_class == (0, 0, 0, 1)

    def test_arc_index_range(self):
        with pytest.raises(ValueError):
            Arc(Surface(0, 3), 4, (0, 0))

    def test_arc_boundary_part_is_forced(self):
        # only the A_i/B_i part of an arc from boundary 1 to boundary j can vary
        assert Arc(Surface(1, 3), 2, (5, -2, 1, 0)).rel_class[2:] == (1, 0)
        for surface, index, rel in (
            (Surface(0, 3), 2, (1, 1)),
            (Surface(0, 3), 2, (2, 0)),
            (Surface(0, 3), 3, (1, 0)),
            (Surface(0, 3), 3, (0, -1)),
            (Surface(1, 3), 3, (0, 0, 1, 0)),
        ):
            with pytest.raises(ValueError):
                Arc(surface, index, rel)
