"""Relator database: ledger values, configurations, additivity, bounding table."""

import hashlib
import json

import pytest

from steincalc.document import chain_document, lantern_document, non_standard_document, parse, tau_boundary_document
from steincalc.relators import (
    RelatorEntry,
    bounding_case,
    braid_relator,
    builtin_entries,
    chain,
    ChainConfig,
    lantern,
    non_standard_relator,
    standard_braid,
    standard_chain_config,
    standard_lantern,
)
from steincalc.surfaces import Curve, Surface, convex_curve
from steincalc.words import verify_relator


class TestLantern:
    def test_ledger_values(self):
        entry = standard_lantern()
        assert entry.relator.sigma_delta == 1
        assert entry.relator.euler_delta == -1
        assert entry.obstruction == 0
        assert entry.relator.allowable

    def test_embedded_in_larger_planar_surface(self):
        s = Surface(0, 5)
        entry = lantern(
            convex_curve(s, "a1", {2}),
            convex_curve(s, "a2", {3}),
            convex_curve(s, "a3", {4}),
            convex_curve(s, "a4", {2, 3, 4}),
            convex_curve(s, "a12", {2, 3}),
            convex_curve(s, "a23", {3, 4}),
            convex_curve(s, "a13", {2, 4}),
        )
        assert entry.relator.sigma_delta == 1
        assert entry.relator.euler_delta == -1
        assert verify_relator(entry.relator).necessary_conditions_hold

    def test_homology_mismatch_rejected(self):
        s = Surface(0, 5)
        with pytest.raises(ValueError):
            lantern(
                convex_curve(s, "a1", {5}),  # wrong hole: sum mismatch
                convex_curve(s, "a2", {3}),
                convex_curve(s, "a3", {4}),
                convex_curve(s, "a4", {2, 3, 4}),
                convex_curve(s, "a12", {2, 3}),
                convex_curve(s, "a23", {3, 4}),
                convex_curve(s, "a13", {2, 4}),
            )


class TestChain:
    @pytest.mark.parametrize("n,expected_euler", [(1, 0), (2, 11), (3, 10), (4, 39), (5, 28), (6, 83)])
    def test_exponent_formula(self, n, expected_euler):
        entry = chain(n)
        assert entry.relator.euler_delta == expected_euler

    def test_two_chain_values(self):
        entry = chain(2)
        assert entry.relator.sigma_delta == -7
        assert entry.obstruction == 4
        assert not entry.relator.allowable  # the boundary curve bounds, class zero
        assert entry.obstruction_asserted

    def test_three_chain_values(self):
        entry = chain(3)
        assert entry.relator.sigma_delta == -6
        assert entry.obstruction == 4
        assert entry.relator.allowable  # both boundary classes are nonzero here

    def test_longer_chains_have_no_sigma_delta(self):
        for n in (4, 5, 6):
            entry = chain(n)
            assert entry.relator.sigma_delta is None
            assert entry.obstruction is None

    @pytest.mark.parametrize("n", range(1, 7))
    def test_homology_identity(self, n):
        report = verify_relator(chain(n).relator)
        assert report.check("homology_identity").passed

    def test_malformed_config_rejected(self):
        s = Surface(1, 1)
        with pytest.raises(ValueError):
            ChainConfig(
                surface=s,
                curves=(Curve("x", s.a_class(1)), Curve("y", s.a_class(1))),  # pair 0, want 1
                boundary=(Curve("delta", s.zero_class()),),
            )

    def test_wrong_boundary_count_rejected(self):
        config = standard_chain_config(2)
        with pytest.raises(ValueError):
            ChainConfig(surface=config.surface, curves=config.curves, boundary=())


class TestBraid:
    def test_ledger_values(self):
        entry = standard_braid()
        assert entry.relator.sigma_delta == 0
        assert entry.relator.euler_delta == 0
        assert verify_relator(entry.relator).necessary_conditions_hold

    def test_wrong_image_rejected(self):
        s = Surface(1, 1)
        alpha, beta = Curve("a", s.a_class(1)), Curve("b", s.b_class(1))
        with pytest.raises(ValueError):
            braid_relator(alpha, beta, Curve("g", s.b_class(1)))


class TestNonStandard:
    def test_ledger_matches_two_chain(self):
        entry = non_standard_relator()
        assert entry.relator.sigma_delta == -7
        assert entry.relator.euler_delta == 11
        assert entry.obstruction == 4
        assert len(entry.relator.right) - len(entry.relator.left) == 11

    def test_homology_identity_on_rank_four(self):
        entry = non_standard_relator()
        assert entry.relator.left.surface.rank == 4
        assert verify_relator(entry.relator).check("homology_identity").passed

    def test_decomposition_sums(self):
        entry = non_standard_relator()
        lantern_entry = standard_lantern()
        parts = {"lantern": lantern_entry.relator, "chain-2": chain(2).relator}
        # two lanterns of opposite orientation and a 2-chain
        decomposition = (("lantern", 1), ("lantern", -1), ("chain-2", 1))
        sigma = sum(m * parts[name].sigma_delta for name, m in decomposition)
        euler = sum(m * parts[name].euler_delta for name, m in decomposition)
        assert sigma == entry.relator.sigma_delta == -7
        assert euler == entry.relator.euler_delta == 11

    def test_allowable(self):
        assert non_standard_relator().relator.allowable


class TestCompose:
    """The stored ledger values add along a composition of relators."""

    def test_three_chain_from_lantern_and_two_chain(self):
        parts = (standard_lantern().relator, chain(2).relator)
        three = chain(3)
        assert sum(r.sigma_delta for r in parts) == three.relator.sigma_delta == -6
        assert sum(r.euler_delta for r in parts) == three.relator.euler_delta == 10
        assert three.obstruction == 4

    def test_inverse_negates_ledger(self):
        inv = standard_lantern().relator.inverse()
        assert inv.sigma_delta == -1
        assert inv.euler_delta == 1

    def test_entry_obstruction_from_relator(self):
        inverse = chain(2).relator.inverse()
        assert RelatorEntry(relator=inverse).obstruction == 7 - 11
        with pytest.raises(ValueError, match="obstruction 4 != sigma_delta"):
            RelatorEntry(relator=inverse, obstruction=4)


class TestGenusBoundary:
    def test_genus_one_beyond_nine_absent(self):
        assert "no such relator" in bounding_case(1, 10).note

    def test_genus_two_unknown_zone(self):
        assert bounding_case(2, 10).verdict == "unknown"

    def test_case_table(self):
        assert bounding_case(0, 3).verdict == "none"
        assert bounding_case(3, 1).verdict == "obstructs"
        assert bounding_case(3, 2).verdict == "obstructs"
        assert bounding_case(3, 3).verdict == "unknown"
        assert bounding_case(2, 13).verdict == "no-relator"


class TestBuiltins:
    def test_every_builtin_passes_necessary_conditions(self):
        for entry in builtin_entries():
            report = verify_relator(entry.relator)
            assert report.necessary_conditions_hold, entry.name

    def test_known_obstructions_vanish_mod_four(self):
        for entry in builtin_entries():
            if entry.obstruction is not None:
                assert entry.obstruction % 4 == 0, entry.name


# A document whose user relators cover a class-0 curve and a relator
# without sigma_delta.
USER_RELATORS = {
    "surface": {"genus": 0, "boundary": 3},
    "curves": [{"name": "z", "holes": []}, {"name": "a", "holes": [2]}, {"name": "b", "holes": [3]}],
    "words": {"w": [{"curve": "a"}, {"curve": "z"}]},
    "relators": [
        {"name": "U", "kind": "user", "left": [{"curve": "z"}], "right": [{"curve": "z"}, {"curve": "a"}],
         "sigma_delta": 2},
        {"name": "V", "kind": "user", "left": [{"curve": "a"}, {"curve": "b"}], "right": [{"curve": "b"}]},
    ],
}


def _entry_fields(entry):
    r = entry.relator

    def names(side):
        return tuple(t.curve.name for t in side.twists)

    return (
        r.name, names(r.left), names(r.right), r.euler_delta, r.sigma_delta, r.allowable,
        entry.obstruction, entry.obstruction_asserted,
        tuple(sorted(tuple(sorted(pair)) for pair in entry.disjoint)), entry.note,
    )


class TestEntryPins:
    """Every entry the package builds, pinned field by field: the Euler
    change, allowability and obstruction the words give must equal the
    values the builders once stated by hand."""

    GROUPS = {
        "builtins": lambda: builtin_entries(),
        "documents": lambda: [
            entry
            for doc in (
                *(tau_boundary_document(g, b) for g in range(3) for b in range(1, 7)),
                lantern_document(),
                *(chain_document(n) for n in range(1, 9)),
                non_standard_document(),
            )
            for entry in doc.relator_entries.values()
        ],
        "user": lambda: list(parse(json.dumps(USER_RELATORS)).relator_entries.values()),
    }
    SHA256 = {
        "builtins": (9, "d625234b453c96ef46d92301ddd494bf1719921b5520d96d41496340cd836cc0"),
        "documents": (11, "e2e933c61ea80ed2235f86bd7bd6f75115466a95f72ab64dcb5f4a3543b7de18"),
        "user": (2, "a74dff814e99f677b9c98e1e33d1960fb95d15b0046a2b62d38002a65fd427a0"),
    }

    @pytest.mark.parametrize("group", sorted(GROUPS))
    def test_entry_fields_pinned(self, group):
        entries = list(self.GROUPS[group]())
        digest = hashlib.sha256(repr([_entry_fields(e) for e in entries]).encode()).hexdigest()
        assert (len(entries), digest) == self.SHA256[group]
