"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line when its assertions hold, so running
with ``pytest -v -s tests/test_acceptance.py`` gives one line per criterion.
"""

import random

from steincalc.document import chain_document, tau_boundary_document
from steincalc.invariants import (
    euler_characteristic,
    filling_invariants,
    h1_boundary,
    chern_pd,
    planar_intersection_form,
)
from steincalc.planarity import (
    ASSERTION_INCONSISTENT,
    NO_OBSTRUCTION,
    NON_PLANAR,
    BoundingDeclaration,
    detect_bounding,
    detect_relator,
    esig_planarity_test,
)
from steincalc.relators import (
    builtin_entries,
    chain,
    compose_relators,
    lantern,
    non_standard_relator,
    standard_braid,
    standard_lantern,
)
from steincalc.errors import NotApplicableError
from steincalc.surfaces import Surface, convex_curve
from steincalc.words import Twist, Word, substitute, verify_relator, word_of


def _report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS  ({detail})")


def test_criterion_1_relator_value_table():
    values = {
        "lantern": (standard_lantern(), 1, -1),
        "2-chain": (chain(2), -7, 11),
        "braid": (standard_braid(), 0, 0),
        "3-chain": (compose_relators([standard_lantern(), chain(2)]), -6, 10),
        "non-standard": (non_standard_relator(), -7, 11),
    }
    for name, (entry, sigma_delta, euler_delta) in values.items():
        assert entry.relator.sigma_delta == sigma_delta, name
        assert entry.relator.euler_delta == euler_delta, name
    assert chain(3).relator.sigma_delta == -6 and chain(3).relator.euler_delta == 10
    _report("criterion-1", "lantern (1,-1); 2-chain (-7,11); braid (0,0); 3-chain (-6,10); non-standard (-7,11)")


def test_criterion_2_planar_calibration():
    for b in range(2, 11):
        inv = filling_invariants(tau_boundary_document(0, b).words["tau_del"])
        assert inv.euler == 2, b
        assert inv.sigma.mode == "exact" and inv.sigma.value == -1, b
        assert inv.b2 == 1 and inv.q_invariant_factors == (b,), b
        assert inv.h1.report() == [[b], 0], b
    _report("criterion-2", "boundary multitwist on 2..10 holes: Q = <-b>, sigma = -1, e = 2, H1 = Z/b")


def test_criterion_3_substitution_consistency():
    doc = tau_boundary_document(0, 4)
    word = doc.words["tau_del"]
    entry = doc.relator_entries["lantern"]
    before = planar_intersection_form(word)
    new_word, record = substitute(word, entry.relator, doc.disjoint | entry.disjoint)
    after = planar_intersection_form(new_word)
    assert (euler_characteristic(word), before.sigma) == (2, -1)
    assert (euler_characteristic(new_word), after.sigma) == (1, 0)
    assert after.sigma - before.sigma == record.sigma_delta == 1
    assert euler_characteristic(new_word) - euler_characteristic(word) == record.euler_delta == -1
    _report("criterion-3", "lantern substitution: (e, sigma) = (2,-1) -> (1,0); deltas match the ledger")


def test_criterion_4_esig_invariance_under_lantern_moves():
    rng = random.Random(20260808)
    trials = 1000
    applied = 0
    for _ in range(trials):
        b = rng.randint(2, 8)
        surface = Surface(0, b)
        cache = {}

        def curve_for(holes):
            key = frozenset(holes)
            if key not in cache:
                name = "c" + "_".join(map(str, sorted(key))) if key else "c_null"
                cache[key] = convex_curve(surface, name, key)
            return cache[key]

        all_holes = list(range(2, b + 1))
        word_curves = [
            curve_for(rng.sample(all_holes, rng.randint(0, b - 1)))
            for _ in range(rng.randint(0, 16))
        ]
        entry = None
        if b >= 4 and rng.random() < 0.8:
            chosen = rng.sample(all_holes, rng.randint(3, b - 1))
            cut1 = rng.randint(1, len(chosen) - 2)
            cut2 = rng.randint(cut1 + 1, len(chosen) - 1)
            parts = [chosen[:cut1], chosen[cut1:cut2], chosen[cut2:]]
            a1, a2, a3 = (curve_for(p) for p in parts)
            a4 = curve_for(chosen)
            a12 = curve_for(set(parts[0]) | set(parts[1]))
            a23 = curve_for(set(parts[1]) | set(parts[2]))
            a13 = curve_for(set(parts[0]) | set(parts[2]))
            entry = lantern(a1, a2, a3, a4, a12, a23, a13, name="random-lantern")
            side = [a1, a2, a3, a4] if rng.random() < 0.5 else [a12, a23, a13]
            at = rng.randint(0, len(word_curves))
            word_curves[at:at] = side
        word = word_of(surface, word_curves)
        assert len(word) <= 20
        if entry is None:
            continue
        base_esig = euler_characteristic(word) + planar_intersection_form(word).sigma
        for relator in (entry.relator, entry.relator.inverse()):
            try:
                new_word, record = substitute(word, relator, entry.disjoint)
            except NotApplicableError:
                continue
            new_esig = euler_characteristic(new_word) + planar_intersection_form(new_word).sigma
            assert new_esig == base_esig
            delta = planar_intersection_form(new_word).sigma - planar_intersection_form(word).sigma
            assert delta == record.sigma_delta
            applied += 1
    assert applied >= 300, f"only {applied} substitutions applied; suite too weak"
    _report("criterion-4", f"{trials} random planar factorizations, {applied} lantern moves, e+sigma invariant")


def test_criterion_5_relator_homology_identities():
    ranks = {}
    for entry in builtin_entries():
        report = verify_relator(entry.relator)
        assert report.check("homology_identity").passed, entry.name
        assert report.necessary_conditions_hold, entry.name
        ranks[entry.name] = entry.relator.left.surface.rank
    assert ranks["lantern"] == 3
    assert ranks["chain-2"] == 2
    assert ranks["non-standard"] == 4
    assert all(f"chain-{n}" in ranks for n in range(1, 7))
    _report("criterion-5", "homology identity holds for lantern, chains 1..6, braid, non-standard")


def test_criterion_6_h1_family_sweep():
    for g in range(0, 4):
        for b in range(2, 13):
            h1 = h1_boundary(tau_boundary_document(g, b).words["tau_del"])
            assert h1.invariant_factors == (b,), (g, b)
            assert h1.free_rank == 2 * g, (g, b)
    _report("criterion-6", "H1 of the boundary multitwist book is Z^2g + Z/b for g <= 3, b <= 12")


def test_criterion_7_chern_class_cases():
    checked = 0
    for g in range(1, 5):
        for b in range(2, 9):
            word = tau_boundary_document(g, b).words["tau_del"]
            h1 = h1_boundary(word)
            c1 = chern_pd(word, h1=h1)
            if b == 2 or g == 1:
                assert c1.is_zero, (g, b)
            else:
                expected_zero = (2 * g - 2) % b == 0
                assert c1.is_zero == expected_zero, (g, b)
                assert c1.order is not None and b % c1.order == 0, (g, b)
                target = [0] * word.surface.rank
                target[2 * g] = 2 * g - 2
                assert h1.order_and_reduce([x - y for x, y in zip(c1.vector, target)])[0] == 1, (g, b)
            checked += 1
    _report("criterion-7", f"{checked} boundary-multitwist Chern classes match the closed forms")


def test_criterion_8_obstruction_certificates():
    doc = chain_document(2)
    word = doc.words["boundary"]
    extended = Word(word.surface, word.twists + (Twist(doc.curves["c1"], 1),))
    certs = detect_relator(extended, list(doc.relator_entries.values()), doc.disjoint)
    assert certs[0].verdict == NON_PLANAR
    assert certs[0].witness.obstruction == 4

    for g in range(0, 4):
        for b in range(1, 13):
            tau_doc = tau_boundary_document(g, b)
            tau_word = tau_doc.words["tau_del"]
            declaration = BoundingDeclaration(
                g, b, tuple(tau_doc.curves[f"d{j}" if j > 1 else "d1"] for j in range(1, b + 1))
            )
            cert = detect_bounding(tau_word, declaration, tau_doc.disjoint)
            expected = (g >= 1 and b in (1, 2)) or (g == 1 and b <= 9) or (g == 2 and b <= 8)
            assert (cert.verdict == NON_PLANAR) == expected, (g, b)
            if (g, b) == (1, 10):
                assert cert.verdict == NO_OBSTRUCTION
                assert any("no such relator" in note for note in cert.notes)
    _report("criterion-8", "2-chain detection fires with value 4; bounding case matrix exact, (1,10) rejected")


def test_criterion_9_mod_four_sanity():
    for entry in builtin_entries():
        if entry.obstruction is not None:
            assert entry.obstruction % 4 == 0, entry.name
    cert = esig_planarity_test((1, 0), (2, 0))
    assert cert.verdict == ASSERTION_INCONSISTENT
    _report("criterion-9", "known obstruction values vanish mod 4; fabricated mod-4 violation is flagged")
