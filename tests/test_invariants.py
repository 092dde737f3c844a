"""Filling invariants: Euler characteristic, planar forms, signatures,
boundary homology, Chern data, and the e + sigma comparability guard."""

import hashlib
import json
import random
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from steincalc import cli, intlinalg, invariants
from steincalc.document import tau_boundary_document
from steincalc.errors import (
    IncomparableSigmaError,
    RankMismatchError,
    UnsupportedInputError,
)
from steincalc.intlinalg import AbelianQuotient, smith_diagonal, smith_normal_form, symmetric_signature
from steincalc.invariants import (
    SigmaLedger,
    SigmaValue,
    check_comparable,
    euler_characteristic,
    filling_invariants,
    h1_boundary,
    chern_pd,
    has_exact_form,
    planar_intersection_form,
    sigma,
)
from steincalc.planarity import NO_OBSTRUCTION, NON_PLANAR_CONDITIONAL, esig_planarity_test
from steincalc.relators import chain, standard_lantern
from steincalc.surfaces import Curve, HomologyClass, Surface, convex_curve, twist_action
from steincalc.words import (
    RelatorCheck,
    RelatorReport,
    SubstitutionRecord,
    Twist,
    Word,
    unit_basis,
    variation_rows,
    verify_relator,
    word_of,
)


def boundary_multitwist(g, b):
    doc = tau_boundary_document(g, b)
    return doc.words["tau_del"]


def arc_pairing(rel, y):
    """Pairing of a relative class (coordinates A_1, B_1, ..., A_g, B_g, S_2,
    ..., S_b) with an absolute class: the arc basis vector S_j picks out the
    d_j coordinate of ``y``; A_i and B_i pair like their symplectic partners
    a_i and b_i."""
    surface = y.surface
    if len(rel) != surface.rank:
        raise RankMismatchError(f"relative vector length {len(rel)} != rank {surface.rank}")
    total = 0
    for i in range(surface.genus):
        total += rel[2 * i] * y.coords[2 * i + 1] - rel[2 * i + 1] * y.coords[2 * i]
    for j in range(2 * surface.genus, surface.rank):
        total += rel[j] * y.coords[j]
    return total


class TestArcPairing:
    def test_dual_basis(self):
        s = Surface(0, 3)
        s2 = (1, 0)  # S_2, the standard arc to boundary 2
        assert arc_pairing(s2, s.d_class(2)) == 1
        assert arc_pairing(s2, s.d_class(3)) == 0

    def test_outer_class_against_arc(self):
        s = Surface(0, 3)
        s3 = (0, 1)  # S_3
        assert arc_pairing(s3, s.outer_boundary_class()) == -1

    def test_symplectic_slots(self):
        s = Surface(1, 2)
        a_slot = (1, 0, 0)  # A_1
        b_slot = (0, 1, 0)  # B_1
        assert arc_pairing(a_slot, s.b_class(1)) == 1
        assert arc_pairing(b_slot, s.a_class(1)) == -1


def _variation_oracle(word, rel):
    """The closed class by which the monodromy moves ``rel``: one vector at
    a time, one ``arc_pairing`` per twist, the rule the one-pass
    ``variation_rows`` replaces."""
    handles = 2 * word.surface.genus
    rel = list(rel)
    acc = [0] * word.surface.rank
    for t in reversed(word.twists):
        c = t.curve.homology
        count = arc_pairing(rel, c) * t.sign
        if count == 0:
            continue
        for i, x in enumerate(c.coords):
            if x:
                acc[i] += count * x
                if i < handles:
                    rel[i] += count * x
    return tuple(acc)


def _action_oracle(word):
    """The images of the basis classes under the word's monodromy, moved one
    class and one ``twist_action`` at a time, right to left: the per-twist
    rule that ``variation_rows`` gives on the handle classes in one pass."""
    images = []
    for i in range(word.surface.rank):
        x = word.surface.basis_class(i)
        for t in reversed(word.twists):
            x = twist_action(t.curve, x, t.sign)
        images.append(x)
    return images


def _h1_oracle(word):
    """H_1 of the boundary presented by the oracle's variations, in the
    order ``h1_boundary`` gives: moved handle classes, then the standard
    arcs, whose relative classes S_j are the basis vectors past 2g."""
    s = word.surface
    handles = 2 * s.genus
    moved = [_variation_oracle(word, s.basis_class(i).coords) for i in range(s.rank)]
    return AbelianQuotient.from_relations(s.rank, [m for m in moved[:handles] if any(m)] + moved[handles:])


def _planar_pin_case(seed):
    """A seeded planar word (b 1..10, n 0..60) over a pool holding the
    empty curve, the outer-parallel curve and random convex curves, with
    mixed signs on about a third of the seeds; the rng is returned to draw
    query vectors from."""
    rng = random.Random(seed)
    b = rng.randint(1, 10)
    s = Surface(0, b)
    holes = range(2, b + 1)
    pool = [convex_curve(s, "empty", ()), convex_curve(s, "outer", holes, boundary_parallel_to=1)]
    for i in range(rng.randint(1, 8)):
        pool.append(convex_curve(s, f"c{i}", {h for h in holes if rng.random() < 0.4}))
    mixed = rng.random() < 0.3
    twists = tuple(
        Twist(rng.choice(pool), rng.choice((1, -1)) if mixed else 1) for _ in range(rng.randint(0, 60))
    )
    return Word(s, twists), rng


class TestEuler:
    def test_empty_word_on_annulus(self):
        assert euler_characteristic(Word(Surface(0, 2), ())) == 0

    def test_boundary_multitwist_four_holes(self):
        assert euler_characteristic(boundary_multitwist(0, 4)) == 2

    def test_lantern_right_side(self):
        s = Surface(0, 4)
        w = word_of(s, [
            convex_curve(s, "a12", {2, 3}),
            convex_curve(s, "a23", {3, 4}),
            convex_curve(s, "a13", {2, 4}),
        ])
        assert euler_characteristic(w) == 1


def _triangle_word():
    """a b c a b c on the 4-holed sphere with hole sets {2,3}, {3,4}, {2,4}:
    its boundary map has Smith diagonal (1, 1, 2)."""
    s = Surface(0, 4)
    a, b, c = (convex_curve(s, name, holes) for name, holes in (("a", {2, 3}), ("b", {3, 4}), ("c", {2, 4})))
    return word_of(s, [a, b, c] * 2)


class TestPlanarForm:
    @pytest.mark.parametrize("b", range(2, 11))
    def test_boundary_multitwist_form(self, b):
        form = planar_intersection_form(boundary_multitwist(0, b))
        assert form.b2 == 1
        assert form.sigma == -1
        assert form.invariant_factors == (b,)

    def test_lantern_right_side_trivial_kernel(self):
        s = Surface(0, 4)
        w = word_of(s, [
            convex_curve(s, "a12", {2, 3}),
            convex_curve(s, "a23", {3, 4}),
            convex_curve(s, "a13", {2, 4}),
        ])
        form = planar_intersection_form(w)
        assert form.b2 == 0 and form.sigma == 0

    def test_empty_word(self):
        form = planar_intersection_form(Word(Surface(0, 3), ()))
        assert form.b2 == 0 and form.sigma == 0

    def test_sigma_is_minus_b2(self):
        import random

        rng = random.Random(3)
        s = Surface(0, 5)
        pool = [convex_curve(s, f"c{i}", holes) for i, holes in enumerate(
            [{2}, {3}, {4}, {5}, {2, 3}, {3, 4}, {4, 5}, {2, 3, 4}, {2, 3, 4, 5}]
        )]
        for _ in range(30):
            w = word_of(s, [rng.choice(pool) for _ in range(rng.randint(0, 12))])
            form = planar_intersection_form(w)
            assert symmetric_signature(form.matrix) == form.sigma == -form.b2
            assert sigma(w).value == form.sigma

    def test_invariant_factors_match_full_snf(self):
        rng = random.Random(11)
        multi = 0
        for _ in range(200):
            b = rng.randint(2, 10)
            s = Surface(0, b)
            pool = [convex_curve(s, "empty", ()), convex_curve(s, "outer", range(2, b + 1), boundary_parallel_to=1)]
            for i in range(rng.randint(1, 6)):
                pool.append(convex_curve(s, f"c{i}", {h for h in range(2, b + 1) if rng.random() < 0.4}))
            w = word_of(s, [rng.choice(pool) for _ in range(rng.randint(0, 40))])
            form = planar_intersection_form(w)
            full = smith_normal_form(form.matrix, cols=form.b2)
            assert form.invariant_factors == tuple(d for d in full.diag if d != 0)
            multi += sum(d > 1 for d in form.invariant_factors) > 1
        assert multi > 0

    def test_matrix_is_minus_kernel_gram(self):
        rng = random.Random(5)
        seen = set()
        for n in [0, 3, 6, 12, 20, 30, 40, 160]:
            s = Surface(0, 8)
            pool = [convex_curve(s, "outer", range(2, 9), boundary_parallel_to=1)]
            pool += [convex_curve(s, f"c{i}", rng.sample(range(2, 9), rng.randint(1, 7))) for i in range(6)]
            w = word_of(s, [rng.choice(pool) for _ in range(n)])
            form = planar_intersection_form(w)
            boundary_map = [[t.curve.homology.coords[i] for t in w.twists] for i in range(s.rank)]
            kernel = intlinalg.kernel_basis(boundary_map, cols=n)
            assert form.matrix == tuple(tuple(-sum(x * y for x, y in zip(u, v)) for v in kernel) for u in kernel)
            r = n - form.b2
            seen.add("b2 = 0" if not form.b2 else "b2 < r" if form.b2 < r else "b2 > r" if form.b2 > r else "b2 = r")
        assert {"b2 = 0", "b2 < r", "b2 > r"} <= seen

    def test_two_factor_discriminant(self):
        # A1 + A3: the discriminant group is Z/2 + Z/4
        s = Surface(0, 3)
        d2, d3 = convex_curve(s, "d2", {2}), convex_curve(s, "d3", {3})
        form = planar_intersection_form(word_of(s, [d2] * 2 + [d3] * 4))
        assert form.b2 == 4
        assert form.invariant_factors == (1, 1, 2, 4)

    def test_no_snf_of_the_form_itself(self, monkeypatch):
        # filling_invariants runs the boundary SNF (carrying nothing: only
        # the branch where B's diagonal scales reads U B, and it eliminates
        # again carrying B's n columns) and reads H_1's (b-1) x (b-1) Smith
        # diagonal, which also gives q's torsion when the nonzero diagonal
        # of B is all 1; only otherwise one more Smith diagonal, of the
        # smaller Gram matrix.  H_1 runs a Smith form only for a word with Chern inputs,
        # carrying c1's one vector, and then reads its diagonal from it.
        # Besides the boundary SNF nothing is larger than (b-1) x (b-1) and
        # nothing is b2 x b2 for b2 > b-1.  A Smith form records "X k" when
        # it carries k columns.
        # The shapes are compared as multisets, since the order of the
        # calls is no part of the claim.
        shapes = []
        real_snf, real_diagonal = smith_normal_form, smith_diagonal

        def recording_snf(matrix, cols=None, carried=()):
            shapes.append(("snf", len(matrix), len(matrix[0]) if matrix else 0, f"X {len(carried)}"))
            return real_snf(matrix, cols=cols, carried=carried)

        def recording_diagonal(matrix):
            shapes.append(("diagonal", len(matrix), len(matrix[0]) if matrix else 0))
            return real_diagonal(matrix)

        for module in (intlinalg, invariants):
            monkeypatch.setattr(module, "smith_normal_form", recording_snf)
            monkeypatch.setattr(module, "smith_diagonal", recording_diagonal)
        s = Surface(0, 6)
        curves = [convex_curve(s, f"c{i}", holes) for i, holes in enumerate([{2}, {2, 3}, {3, 4, 5}, {6}])]
        # a form larger than the boundary rank, with no Chern inputs
        shapes.clear()
        word = word_of(s, curves * 3)
        inv = filling_invariants(word)
        assert inv.b2 > s.rank and inv.c1 is None
        assert sorted(shapes) == sorted([("snf", s.rank, len(word), "X 0"), ("diagonal", s.rank, s.rank)])
        # the boundary multitwist (b2 = 1 below r = 5) reduces c1 in H_1
        shapes.clear()
        word = boundary_multitwist(0, 6)
        inv = filling_invariants(word)
        assert inv.b2 == 1 and inv.c1 is not None
        assert sorted(shapes) == sorted([("snf", s.rank, len(word), "X 0"), ("snf", s.rank, s.rank, "X 1")])
        # the triangle word: B has diagonal (1, 1, 2) and b2 = r = 3, so the
        # form's torsion needs its own Smith diagonal, of the 3 x 3
        # complement Gram matrix, whose rows U B / d_i come from eliminating
        # B again carrying its 6 columns: of these three words it is the
        # only one that reads U B; H_1's diagonal waits until its report
        # reads it
        shapes.clear()
        inv = filling_invariants(_triangle_word())
        assert inv.b2 == 3 and inv.c1 is None and inv.q_invariant_factors == (2, 2, 2)
        assert sorted(shapes) == sorted([("snf", 3, 6, "X 0"), ("snf", 3, 6, "X 6"), ("diagonal", 3, 3)])
        assert inv.h1.report() == [[2, 2, 8], 0]
        assert sorted(shapes) == sorted([("snf", 3, 6, "X 0"), ("snf", 3, 6, "X 6"), ("diagonal", 3, 3), ("diagonal", 3, 3)])

    def test_missing_hole_set_rejected(self):
        s = Surface(0, 3)
        bare = Curve("bare", s.d_class(2))
        with pytest.raises(UnsupportedInputError):
            planar_intersection_form(word_of(s, [bare]))

    def test_has_exact_form(self):
        s = Surface(0, 3)
        d2 = convex_curve(s, "d2", {2})
        assert has_exact_form(word_of(s, [d2]))
        assert not has_exact_form(word_of(s, [Curve("bare", s.d_class(2))]))
        assert not has_exact_form(Word(s, (Twist(d2, -1),)))
        assert not has_exact_form(boundary_multitwist(1, 2))

    def test_orientation_invariance(self):
        # the outer-parallel curve stores the negated class; swapping it for
        # the unflagged curve with the same hole set negates one column of
        # the boundary map and must not change any reported invariant
        s = Surface(0, 4)
        flagged = convex_curve(s, "out", {2, 3, 4}, boundary_parallel_to=1)
        unflagged = convex_curve(s, "ring", {2, 3, 4})
        rest = [convex_curve(s, "d2", {2}), convex_curve(s, "d3", {3}), convex_curve(s, "d4", {4})]
        form1 = planar_intersection_form(word_of(s, [flagged] + rest))
        form2 = planar_intersection_form(word_of(s, [unflagged] + rest))
        assert form1.sigma == form2.sigma == -1
        assert form1.invariant_factors == form2.invariant_factors == (4,)
        assert form1.b2 == form2.b2 == 1

    def test_column_permutation_invariance(self):
        s = Surface(0, 5)
        curves = [
            convex_curve(s, "x", {2, 3}),
            convex_curve(s, "y", {3, 4}),
            convex_curve(s, "z", {2, 3, 4}),
            convex_curve(s, "w", {5}),
        ]
        base = planar_intersection_form(word_of(s, curves))
        import itertools

        for perm in itertools.permutations(curves):
            form = planar_intersection_form(word_of(s, list(perm)))
            assert form.sigma == base.sigma
            assert form.invariant_factors == base.invariant_factors
            assert form.b2 == base.b2


class TestPinnedPlanarInvariants:
    # sha256 of the planar form (matrix, b2, invariant factors) and of H_1
    # (report, reduce and order on seeded vectors) of ``filling_invariants``
    # on 2000 seeded planar words, 1388 of them positive; recorded when H_1
    # still came from ``variation`` and V was stored by rows
    DIGEST = "a50afa167552c64994bc7ce35fee1a606bc5c0c610cad29e22613910d843b53e"

    def test_planar_outputs_are_pinned(self):
        h = hashlib.sha256()
        for seed in range(2000):
            w, rng = _planar_pin_case(seed)
            inv = filling_invariants(w)
            answers = [inv.q_matrix, inv.b2, inv.q_invariant_factors, inv.h1.report()]
            for _ in range(3):
                v = [rng.randint(-12, 12) for _ in range(w.surface.rank)]
                order, rep = inv.h1.order_and_reduce(v)
                answers.append((rep, order))
            h.update(repr(answers).encode())
        assert h.hexdigest() == self.DIGEST


def _uncovered_planar_case(rng):
    """A positive planar word (b 1..10, n 0..24) over a pool holding the
    outer-parallel curve and curves that avoid some holes, so the boundary
    map can have rank below b - 1."""
    b = rng.randint(1, 10)
    s = Surface(0, b)
    holes = range(2, b + 1)
    covered = [h for h in holes if rng.random() < 0.7]
    pool = [convex_curve(s, "outer", holes, boundary_parallel_to=1)]
    for i in range(rng.randint(1, 6)):
        pool.append(convex_curve(s, f"c{i}", {h for h in covered if rng.random() < 0.5}))
    return word_of(s, [rng.choice(pool) for _ in range(rng.randint(0, 24))])


def _recording_snf(monkeypatch):
    """Patch smith_normal_form where the package calls it; returns the list
    of (matrix, carried columns) pairs it is then called on."""
    seen = []
    real = smith_normal_form

    def recording(matrix, *args, carried=(), **kwargs):
        seen.append(([list(row) for row in matrix], [list(c) for c in carried]))
        return real(matrix, *args, carried=carried, **kwargs)

    monkeypatch.setattr(intlinalg, "smith_normal_form", recording)
    monkeypatch.setattr(invariants, "smith_normal_form", recording)
    return seen


class TestLazyH1:
    # H_1's report and q's torsion read only its Smith diagonal; one
    # smith_normal_form, carrying c1's vector and building no A V, runs
    # only when chern_pd reduces c1

    def test_diagonal_of_seeded_h1_matrices(self):
        for seed in range(2000):
            w, _ = _planar_pin_case(seed)
            m = invariants._planar_arc_relations(w)
            assert smith_diagonal(m) == smith_normal_form(m, cols=len(m)).diag

    def test_no_chern_inputs_build_no_u(self, monkeypatch, capsys):
        seen = _recording_snf(monkeypatch)
        checked = scaled = 0
        for seed in range(300):
            w, _ = _planar_pin_case(seed)
            seen.clear()
            inv = filling_invariants(w)
            if inv.c1 is not None:
                continue  # a lone outer-parallel twist on the disk is a boundary multitwist
            inv.h1.report()
            rows = w.surface.rank
            boundary_map = [[t.curve.homology.coords[i] for t in w.twists] for i in range(rows)]
            # the boundary SNF of an exact form, carrying nothing, and
            # nothing for H_1; B again, carrying B's own columns for U B,
            # only where B's diagonal scales
            expected = []
            if has_exact_form(w):
                diag = smith_diagonal(boundary_map) if rows else ()
                needs_ub = any(d > 1 for d in diag)
                columns = [list(t.curve.homology.coords) for t in w.twists]
                expected = [(boundary_map, [])] + [(boundary_map, columns)] * needs_ub
                scaled += needs_ub
            assert seen == expected
            checked += 1
        assert checked > 250 and scaled > 0
        seen.clear()
        assert cli.main(["invariants", "--lantern", "--word", "lantern_right"]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["c1_pd"] is None
        # the 3 x 3 boundary map, whose diagonal (1, 1, 2) scales, so it runs
        # again carrying its own columns
        assert [(len(m), len(m[0]), c) for m, c in seen] == [(3, 3, []), (3, 3, [list(row) for row in zip(*seen[0][0])])]

    @pytest.mark.parametrize("g", range(0, 3))
    def test_boundary_multitwist_one_snf_per_h1(self, g, monkeypatch):
        # c1 is reduced, so H_1 runs one Smith form, carrying c1's vector
        # alone, whose diagonal the report and the planar form then read; a
        # planar page adds the boundary SNF, carrying nothing
        seen = _recording_snf(monkeypatch)
        for b in range(2, 9):
            w = boundary_multitwist(g, b)
            seen.clear()
            inv = filling_invariants(w)
            assert inv.c1 is not None and inv.h1.report() == [[b], 2 * g]
            h1_matrix = [list(row) for row in inv.h1.rows]
            assert [(m, c) for m, c in seen if c] == [(h1_matrix, [list(inv.c1.vector)])]
            assert len(seen) == (2 if g == 0 else 1)
            if g == 0:
                assert h1_matrix == invariants._planar_arc_relations(w)
                rows = w.surface.rank
                boundary_map = [[t.curve.homology.coords[i] for t in w.twists] for i in range(rows)]
                assert (boundary_map, []) in seen
            assert inv.h1.order_and_reduce(inv.c1.vector) == (inv.c1.order, list(inv.c1.reduced))

    def test_no_package_path_reads_u_or_a_v(self, capsys):
        # the quotient keeps no U or A V view to read, and every stock
        # document's invariants and the family sweep reduce classes without
        # them
        assert not hasattr(AbelianQuotient, "row_ops") and not hasattr(AbelianQuotient, "relations")
        argvs = [["invariants", "--tau-boundary", str(g), str(b)] for g in range(4) for b in range(1, 8)]
        argvs += [["invariants", "--lantern", "--word", name] for name in ("tau_del", "lantern_left", "lantern_right")]
        argvs += [["invariants", "--chain", str(n), "--word", name] for n in range(1, 5) for name in ("boundary", "chain_power")]
        argvs += [["invariants", "--r-ns", "--word", name] for name in ("short_side", "long_side")]
        argvs += [["family", "--g-max", "2", "--b-max", "6"]]
        for argv in argvs:
            assert cli.main(argv) == 0, argv
        capsys.readouterr()
        q = h1_boundary(boundary_multitwist(1, 5))
        order, rep = q.order_and_reduce([1, 0, 1, 0, 0, 0])
        assert order is None and q.order_and_reduce(rep) == (None, rep)
        assert q.order_and_reduce([0, 0, 5, 0, 0, 0])[0] == 1


class TestTorsionFromH1:
    # with B = U^-1 D V^-1 and D's nonzero entries 1, B B^T = U^-1 (C C^T + 0) U^-T,
    # so q's invariant factors above 1 are those of H_1 of the boundary

    def test_factors_match_full_snf_and_h1(self):
        rng = random.Random(8191)
        unit = scaled = rank_deficient = 0
        for _ in range(2000):
            w = _uncovered_planar_case(rng)
            inv = filling_invariants(w)
            full = smith_normal_form(inv.q_matrix, cols=inv.b2)
            assert inv.q_invariant_factors == tuple(d for d in full.diag if d != 0)
            assert sigma(w).value == -inv.b2
            rows = w.surface.rank
            boundary_map = [[t.curve.homology.coords[i] for t in w.twists] for i in range(rows)]
            snf = smith_normal_form(boundary_map, cols=len(w))
            rank_deficient += snf.rank < rows
            if all(d <= 1 for d in snf.diag):
                unit += 1
                above = tuple(d for d in inv.q_invariant_factors if d > 1)
                assert above == h1_boundary(w).invariant_factors
            else:
                scaled += 1
        assert unit > 1000 and scaled > 10 and rank_deficient > 200

    def test_scaled_branch_diagonal_is_r_by_r(self, monkeypatch):
        # where some d_i > 1, q's torsion comes from the r x r complement
        # Gram matrix read off U B, and the planar form takes no Smith
        # diagonal of q: the lantern right side and its powers
        # (a12 a23 a13)^k on the 4-holed sphere (B's diagonal (1, 1, 2),
        # b2 = 3k - 3, torsion (k, k, k) from k = 2 on) and seeded planar
        # words of that kind, b2 < r included
        seen = []
        monkeypatch.setattr(invariants, "smith_diagonal", lambda m: seen.append(m) or smith_diagonal(m))
        s = Surface(0, 4)
        a12, a23, a13 = (convex_curve(s, name, holes) for name, holes in (("a12", {2, 3}), ("a23", {3, 4}), ("a13", {2, 4})))
        words = [word_of(s, [a12, a23, a13] * k) for k in range(1, 13)]
        rng = random.Random(8191)
        for _ in range(2000):
            w = _uncovered_planar_case(rng)
            rows = w.surface.rank
            diag = smith_diagonal([[t.curve.homology.coords[i] for t in w.twists] for i in range(rows)]) if rows else ()
            if any(d > 1 for d in diag):
                words.append(w)
        short = 0
        for w in words:
            seen.clear()
            form = planar_intersection_form(w)
            r = len(w) - form.b2
            short += form.b2 < r
            assert [(len(m), len(m[0]) if m else 0) for m in seen] == [(r, r)] and seen[0] is not form.matrix
            assert tuple(d for d in form.invariant_factors if d > 1) == tuple(d for d in smith_diagonal(form.matrix) if d > 1)
        assert len(words) > 12 + 20 and short > 1
        factors = [planar_intersection_form(w).invariant_factors for w in words[:12]]
        assert factors == [()] + [(1,) * (3 * k - 6) + (k,) * 3 for k in range(2, 13)]

    def test_triangle_word_keeps_its_own_torsion(self):
        # B has diagonal (1, 1, 2): q is 2 I_3, while H_1 is Z/2 + Z/2 + Z/8
        w = _triangle_word()
        inv = filling_invariants(w)
        assert inv.q_matrix == ((-2, 0, 0), (0, -2, 0), (0, 0, -2))
        assert inv.q_invariant_factors == (2, 2, 2)
        assert inv.h1.report() == [[2, 2, 8], 0]
        assert planar_intersection_form(w).invariant_factors == (2, 2, 2)

    def test_h1_equals_h1_boundary(self):
        rng = random.Random(131)
        for _ in range(300):
            w = _uncovered_planar_case(rng)
            assert filling_invariants(w).h1 == h1_boundary(w)

    def test_one_h1_per_call(self, monkeypatch):
        # the planar form reads its torsion off the H_1 that filling_invariants
        # built, on every page
        calls = []
        real = invariants.h1_boundary

        def counting(word):
            calls.append(word)
            return real(word)

        monkeypatch.setattr(invariants, "h1_boundary", counting)
        s = Surface(0, 3)
        d2, d3 = convex_curve(s, "d2", {2}), convex_curve(s, "d3", {3})
        cases = [
            boundary_multitwist(0, 6),
            _triangle_word(),
            word_of(s, [d2, d2, d3], signs=[1, -1, 1]),
            boundary_multitwist(1, 3),
            boundary_multitwist(2, 2),
        ]
        for w in cases:
            calls.clear()
            filling_invariants(w)
            assert calls == [w]


class TestSigma:
    def test_exact_on_planar(self):
        value = sigma(boundary_multitwist(0, 6))
        assert value.mode == "exact" and value.value == -1

    def test_relative_with_ledger(self):
        w = boundary_multitwist(1, 1)
        ledger = SigmaLedger("tau_del", -1, (
            SubstitutionRecord("chain-2", -7, 11, (), ()),
        ))
        value = sigma(w, ledger)
        assert value.mode == "relative"
        assert value.value == -8
        assert value.offset == -7

    def test_unknown_delta_gives_unknown(self):
        w = boundary_multitwist(2, 1)
        ledger = SigmaLedger("tau_del", -1, (
            SubstitutionRecord("chain-4", None, 39, (), ()),
        ))
        assert sigma(w, ledger).mode == "unknown"

    def test_no_baseline_gives_unknown(self):
        assert sigma(boundary_multitwist(1, 2)) == SigmaValue(mode="unknown", value=None)
        s = Surface(0, 3)
        d2 = convex_curve(s, "d2", {2})
        assert sigma(word_of(s, [d2, d2], signs=[1, -1])) == SigmaValue(mode="unknown", value=None)

    def test_cli_signatures_run_no_smith_form(self, monkeypatch, capsys):
        # substitute and esig-compare read sigma = rank B - n, with rank B
        # the signature of B B^T: no Smith form, no Gram matrix, no H_1
        shapes = []
        real = smith_normal_form

        def recording(matrix, cols=None, carried=()):
            shapes.append((len(matrix), len(matrix[0]) if matrix else 0))
            return real(matrix, cols=cols, carried=carried)

        monkeypatch.setattr(intlinalg, "smith_normal_form", recording)
        monkeypatch.setattr(invariants, "smith_normal_form", recording)
        for argv in (
            ["substitute", "--lantern"],
            ["esig-compare", "--lantern", "--word", "lantern_left", "--word2", "lantern_right"],
        ):
            assert cli.main(argv) == 0
        assert cli.main(["esig-compare", "--tau-boundary", "0", "6", "--word2", "tau_del"]) == 0
        assert shapes == []
        capsys.readouterr()

    def test_no_substitutions_returns_baseline(self):
        value = sigma(boundary_multitwist(1, 2), SigmaLedger("tau_del", -1))
        assert value.value == -1 and value.offset == 0


class TestH1Boundary:
    @pytest.mark.parametrize("g", range(0, 4))
    @pytest.mark.parametrize("b", range(2, 13))
    def test_boundary_multitwist_family(self, g, b):
        h1 = h1_boundary(boundary_multitwist(g, b))
        assert h1.invariant_factors == (b,)
        assert h1.free_rank == 2 * g

    def test_empty_word_gives_free_group(self):
        h1 = h1_boundary(Word(Surface(2, 3), ()))
        assert h1.invariant_factors == ()
        assert h1.free_rank == 6

    @pytest.mark.parametrize("k", [1, 2, 5, 12])
    def test_lens_space_family(self, k):
        s = Surface(0, 2)
        d2 = convex_curve(s, "d2", {2})
        h1 = h1_boundary(word_of(s, [d2] * k))
        if k == 1:
            assert h1.invariant_factors == () and h1.free_rank == 0
        else:
            assert h1.invariant_factors == (k,) and h1.free_rank == 0

    def test_null_class_twist_is_invisible(self):
        s = Surface(1, 2)
        base = boundary_multitwist(1, 2)
        null = Curve("null", s.zero_class())
        extended = Word(s, base.twists + (Twist(null, 1),))
        assert h1_boundary(extended).invariant_factors == h1_boundary(base).invariant_factors
        assert h1_boundary(extended).free_rank == h1_boundary(base).free_rank

    def test_monodromy_action_relations_are_included(self):
        # a single twist about a nonseparating curve on the closed-up torus side
        s = Surface(1, 1)
        a = Curve("a", s.a_class(1))
        h1 = h1_boundary(word_of(s, [a]))
        # relation: (phi - id) b = -a kills a; result Z
        assert h1.invariant_factors == ()
        assert h1.free_rank == 1

    def test_arc_relation_vector_boundary_multitwist(self):
        w = boundary_multitwist(0, 4)
        rows = variation_rows(w, [(1, 0, 0)])  # S_2, the standard arc to boundary 2
        assert rows == [[2], [1], [1]]  # d_2 + (d_2 + d_3 + d_4), by coordinates

    def test_variation_on_handles_is_the_action(self):
        rng = random.Random(17)
        for _ in range(60):
            s = Surface(rng.randint(1, 3), rng.randint(1, 4))
            pool = [Curve(f"c{i}", HomologyClass(s, tuple(rng.randint(-2, 2) for _ in range(s.rank))))
                    for i in range(4)]
            w = Word(s, tuple(Twist(rng.choice(pool), rng.choice((1, -1))) for _ in range(rng.randint(0, 10))))
            images = _action_oracle(w)
            for i in range(2 * s.genus):
                e = s.basis_class(i)
                assert variation_rows(w, [e.coords]) == [[x] for x in (images[i] - e).coords]

    def test_h1_does_not_act_on_classes(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("h1_boundary applied the monodromy to a class")

        # every binding of twist_action in the package, not only the one in surfaces
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "steincalc" and getattr(module, "twist_action", None) is twist_action:
                monkeypatch.setattr(module, "twist_action", refuse)
        for g, b in ((0, 4), (1, 2), (2, 3)):
            assert h1_boundary(boundary_multitwist(g, b)).report() == [[b], 2 * g]
        s = Surface(1, 1)
        assert h1_boundary(word_of(s, [Curve("a", s.a_class(1))])).report() == [[], 1]

    def test_declared_arcs_change_no_group(self):
        # variation is linear in the relative class, and an arc to boundary j
        # differs from the standard arc S_j by a handle class, whose variation
        # is already a relation: arcs with any handle parts present the group
        # and the class orders of the standard ones, so h1_boundary takes none
        rng = random.Random(29)
        for _ in range(60):
            s = Surface(rng.randint(1, 2), rng.randint(2, 4))
            pool = [Curve(f"c{i}", HomologyClass(s, tuple(rng.randint(-2, 2) for _ in range(s.rank))))
                    for i in range(4)]
            w = word_of(s, [rng.choice(pool) for _ in range(rng.randint(0, 8))])
            handles = 2 * s.genus
            basis = [s.basis_class(i).coords for i in range(s.rank)]
            arcs = [tuple(rng.randint(-3, 3) for _ in range(handles)) + e[handles:] for e in basis[handles:]]
            declared = AbelianQuotient(s.rank, variation_rows(w, basis[:handles] + arcs))
            standard = h1_boundary(w)
            assert declared.report() == standard.report()
            for _ in range(3):
                v = [rng.randint(-3, 3) for _ in range(s.rank)]
                assert declared.order_and_reduce(v)[0] == standard.order_and_reduce(v)[0]

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_one_pass_matches_the_per_twist_oracle(self, data):
        # genus 1..3 words with mixed signs over curves of arbitrary classes,
        # and the relative classes of arcs with random handle parts, in any order
        g, b = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4))
        s = Surface(g, b)
        coords = st.lists(st.integers(-3, 3), min_size=s.rank, max_size=s.rank).map(tuple)
        pool = [Curve(f"c{i}", HomologyClass(s, c)) for i, c in enumerate(data.draw(st.lists(coords, min_size=1, max_size=5)))]
        letters = data.draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from((1, -1))), max_size=12))
        w = Word(s, tuple(Twist(c, sign) for c, sign in letters))
        basis = [s.basis_class(i).coords for i in range(s.rank)]
        arcs = []
        for e in basis[2 * g:]:
            if data.draw(st.booleans()):
                handle = tuple(data.draw(st.lists(st.integers(-3, 3), min_size=2 * g, max_size=2 * g)))
                arcs.append(handle + e[2 * g:])
        arcs = data.draw(st.permutations(arcs))
        assert h1_boundary(w) == _h1_oracle(w)
        rels = arcs + basis
        expected = [_variation_oracle(w, rel) for rel in rels]
        assert variation_rows(w, rels) == [list(row) for row in zip(*expected)]
        assert [[row for (row,) in variation_rows(w, [rel])] for rel in rels] == [list(x) for x in expected]

    def test_wrong_length_is_rejected_before_any_twist(self):
        # an empty word used to return zeros for a class of any length
        class Unread:
            surface = Surface(1, 2)

            @property
            def twists(self):
                raise AssertionError("a twist was read")

        for w in (Unread(), Word(Surface(1, 2), ()), Word(Surface(0, 3), ()), boundary_multitwist(2, 3)):
            rank = w.surface.rank
            for rel in ((), (0,) * (rank - 1), (1,) * (rank + 1)):
                with pytest.raises(RankMismatchError, match=f"relative vector length {len(rel)} != rank {rank}"):
                    variation_rows(w, [rel])
                with pytest.raises(RankMismatchError, match="relative vector length"):
                    variation_rows(w, [(0,) * rank, rel])

    def test_planar_relations_are_the_variation(self):
        # on a planar page the arc relations come from B S B^T and must be
        # the rows ``variation_rows`` gives in its pass over the twists, as
        # the relation rows of H_1
        for seed in range(300):
            w, _ = _planar_pin_case(seed)
            assert h1_boundary(w).rows == tuple(map(tuple, variation_rows(w, unit_basis(w.surface.rank))))

    def test_planar_h1_never_calls_variation(self, monkeypatch):
        def refuse(word, rels):
            raise AssertionError("h1_boundary called variation_rows on a planar page")

        monkeypatch.setattr(invariants, "variation_rows", refuse)
        for b in range(1, 8):
            assert h1_boundary(boundary_multitwist(0, b)).report() == [[b] if b > 1 else [], 0]
        s = Surface(0, 3)
        d2, d3 = convex_curve(s, "d2", {2}), convex_curve(s, "d3", {3})
        assert filling_invariants(word_of(s, [d2, d2, d3], signs=[1, -1, 1])).h1.report() == [[], 1]
        assert filling_invariants(word_of(s, [d2, d2, d3, d3, d3])).h1.report() == [[6], 0]


@st.composite
def _any_word(draw):
    """A word on a page of genus 0..3 with 1..5 holes (the rank-0 disk
    included), over up to five curves of arbitrary classes, with mixed
    signs."""
    s = Surface(draw(st.integers(0, 3)), draw(st.integers(1, 5)))
    coords = st.lists(st.integers(-3, 3), min_size=s.rank, max_size=s.rank).map(tuple)
    pool = [Curve(f"c{i}", HomologyClass(s, c)) for i, c in enumerate(draw(st.lists(coords, min_size=1, max_size=5)))]
    letters = draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from((1, -1))), max_size=12))
    return Word(s, tuple(Twist(c, sign) for c, sign in letters))


# verify_relator's reports as the twist-by-twist route gave them: every check
# passes, with these Euler deltas and allowability flags
_RECORDED_REPORTS = {
    **{f"chain-{n}": (delta, n % 2 == 1) for n, delta in zip(range(1, 9), (0, 11, 10, 39, 28, 83, 54, 143))},
    "lantern": (-1, True),
}


class TestVariationRows:
    @settings(max_examples=200, deadline=None)
    @given(_any_word())
    @example(Word(Surface(0, 1), ()))
    @example(Word(Surface(2, 3), ()))
    def test_matches_the_twist_by_twist_oracle(self, w):
        # the variation rows of the handle classes are the oracle's images
        # minus the classes, by coordinates, and the oracle fixes every
        # boundary class: what verify_relator compares on its two sides
        s = w.surface
        handles = 2 * s.genus
        images = _action_oracle(w)
        basis = unit_basis(s.rank)
        moved = [(images[i] - s.basis_class(i)).coords for i in range(handles)]
        assert variation_rows(w, basis[:handles]) == [[x[i] for x in moved] for i in range(s.rank)]
        assert [x.coords for x in images[handles:]] == basis[handles:]

    def test_relator_reports_need_no_twist_action(self, monkeypatch):
        entries = [chain(n) for n in range(1, 9)] + [standard_lantern()]

        def refuse(*args, **kwargs):
            raise AssertionError("twist_action was called")

        # every binding of twist_action in the package, not only the one in surfaces
        bound = [name for name, module in list(sys.modules.items())
                 if name.split(".")[0] == "steincalc" and getattr(module, "twist_action", None) is twist_action]
        assert "steincalc.surfaces" in bound
        for name in bound:
            monkeypatch.setattr(sys.modules[name], "twist_action", refuse)
        reports = [verify_relator(e.relator) for e in entries]
        assert [r.relator_name for r in reports] == list(_RECORDED_REPORTS)
        for report, (delta, allowable) in zip(reports, _RECORDED_REPORTS.values()):
            assert report == RelatorReport(report.relator_name, (
                RelatorCheck("homology_identity", True, "both sides act identically on the homology basis"),
                RelatorCheck("euler_delta_consistent", True, f"stored {delta}, words give {delta}"),
                RelatorCheck("allowable_consistent", True, f"stored allowable={allowable}, homology gives {allowable}"),
            ))


@st.composite
def _hurwitz_move(draw):
    """A positive word of at least two twists on a page of genus 1..3 with
    1..4 holes, over up to five curves of arbitrary classes, and the
    position of its twist pair t_a t_b to move."""
    s = Surface(draw(st.integers(1, 3)), draw(st.integers(1, 4)))
    coords = st.lists(st.integers(-3, 3), min_size=s.rank, max_size=s.rank).map(tuple)
    pool = [Curve(f"c{i}", HomologyClass(s, c)) for i, c in enumerate(draw(st.lists(coords, min_size=1, max_size=5)))]
    w = word_of(s, draw(st.lists(st.sampled_from(pool), min_size=2, max_size=12)))
    return w, draw(st.integers(0, len(w) - 2))


class TestHurwitzMoves:
    @settings(max_examples=300, deadline=None)
    @given(_hurwitz_move())
    def test_a_move_keeps_h1_and_the_variation(self, move):
        # t_a t_b = t_{t_a(b)} t_a as mapping classes, the rightmost twist
        # acting first, so the monodromy and every invariant of it stay
        w, p = move
        curves = [t.curve for t in w.twists]
        a, b = curves[p], curves[p + 1]
        image = Curve("moved", twist_action(a, b.homology))
        moved = word_of(w.surface, curves[:p] + [image, a] + curves[p + 2:])
        handles = unit_basis(w.surface.rank)[:2 * w.surface.genus]
        assert h1_boundary(moved).report() == h1_boundary(w).report()
        assert variation_rows(moved, handles) == variation_rows(w, handles)


@st.composite
def _planar_stabilization(draw):
    """A positive word on a planar page of 1..8 holes over up to six convex
    curves (the outer-parallel one among them), the hole set of a convex
    curve holding the new hole b + 1, and where its twist goes."""
    b = draw(st.integers(1, 8))
    s = Surface(0, b)
    subsets = st.frozensets(st.integers(2, b), max_size=b - 1) if b > 1 else st.just(frozenset())
    pool = [convex_curve(s, "outer", range(2, b + 1), boundary_parallel_to=1)]
    pool += [convex_curve(s, f"c{i}", holes) for i, holes in enumerate(draw(st.lists(subsets, max_size=5)))]
    w = word_of(s, draw(st.lists(st.sampled_from(pool), max_size=16)))
    return w, draw(subsets) | {b + 1}, draw(st.integers(0, len(w)))


class TestPlanarStabilization:
    @settings(max_examples=300, deadline=None)
    @given(_planar_stabilization())
    def test_a_stabilization_keeps_the_invariants(self, stabilization):
        # hole b + 1 is a 1-handle on the outer boundary, and a twist about a
        # curve through it once cancels it, at any position: the filling and
        # its boundary stay, so e, sigma, the form's factors and H_1 do.  The
        # old curves keep their hole sets; the outer-parallel one now misses
        # hole b + 1, so it is a plain convex curve
        w, holes, p = stabilization
        s = Surface(0, w.surface.boundary_count + 1)
        curves = [convex_curve(s, t.curve.name, t.curve.hole_set) for t in w.twists]
        stabilized = word_of(s, curves[:p] + [convex_curve(s, "stab", holes)] + curves[p:])
        before, after = filling_invariants(w), filling_invariants(stabilized)
        assert (after.euler, after.sigma, after.q_invariant_factors) == (before.euler, before.sigma,
                                                                        before.q_invariant_factors)
        assert after.h1.report() == before.h1.report()


class TestChern:
    def test_two_holes_positive_genus_vanishes(self):
        for g in (1, 2, 3, 4):
            c1 = chern_pd(boundary_multitwist(g, 2))
            assert c1.is_zero

    def test_genus_one_vanishes(self):
        for b in range(2, 9):
            c1 = chern_pd(boundary_multitwist(1, b))
            assert c1.is_zero

    def test_higher_genus_torsion_class(self):
        for g in (2, 3, 4):
            for b in range(3, 9):
                w = boundary_multitwist(g, b)
                h1 = h1_boundary(w)
                c1 = chern_pd(w, h1=h1)
                expected_zero = (2 * g - 2) % b == 0
                assert c1.is_zero == expected_zero, (g, b)
                assert c1.order is not None and b % c1.order == 0
                # the class equals (2g-2) d_2 in the quotient
                target = [0] * w.surface.rank
                target[2 * g] = 2 * g - 2
                assert h1.order_and_reduce([x - y for x, y in zip(c1.vector, target)])[0] == 1

    def test_one_u_v_per_chern_class(self, monkeypatch):
        # the order and the representative come from one order_and_reduce,
        # whose one Smith form of H_1 carries c1's vector in place of U
        calls = []
        real = AbelianQuotient.order_and_reduce

        def recording(q, v, *args, **kwargs):
            calls.append(tuple(v))
            return real(q, v, *args, **kwargs)

        monkeypatch.setattr(AbelianQuotient, "order_and_reduce", recording)
        seen = _recording_snf(monkeypatch)
        for g in range(4):
            for b in (2, 5, 9):
                calls.clear()
                seen.clear()
                c1 = chern_pd(boundary_multitwist(g, b))
                assert calls == [c1.vector]
                assert [c for _, c in seen] == [[list(c1.vector)]]
        calls.clear()
        inv = filling_invariants(boundary_multitwist(1, 4))
        assert calls == [inv.c1.vector]

    def test_defaults_only_when_read(self, monkeypatch):
        # the boundary-multitwist defaults are built only when the rotations
        # fall back past the curves' stored ones, or when no meridian map is
        # given, and then once for both
        calls = []
        real = invariants.boundary_multitwist_defaults
        monkeypatch.setattr(invariants, "boundary_multitwist_defaults", lambda w: calls.append(w) or real(w))
        stored = boundary_multitwist(1, 3)  # its curves store their rotations
        s = Surface(0, 3)
        bare = word_of(s, [convex_curve(s, "d1", {2, 3}, boundary_parallel_to=1)]
                       + [convex_curve(s, f"d{j}", {j}, boundary_parallel_to=j) for j in (2, 3)])
        mu, bare_mu = [(0, 0, 1, 0)] * 3, [(-1, -1), (1, 0), (0, 1)]
        for w, kwargs in ((stored, {"rotations": [0, 1, 2], "mu_map": mu}), (stored, {"mu_map": mu}),
                          (bare, {"rotations": [0, 1, 0], "mu_map": bare_mu})):
            calls.clear()
            chern_pd(w, **kwargs)
            assert calls == []
        for w, kwargs in ((stored, {}), (bare, {}), (bare, {"mu_map": bare_mu}), (bare, {"rotations": [0, 1, 0]})):
            calls.clear()
            rotations, mu_map = real(w)
            assert chern_pd(w, **kwargs) == chern_pd(w, rotations=rotations, mu_map=mu_map)
            assert calls == [w]
        # the raise order: rotations first, then the meridian map
        lone = word_of(Surface(0, 3), [convex_curve(Surface(0, 3), "d2", {2})])
        with pytest.raises(UnsupportedInputError, match="rotation numbers are required"):
            chern_pd(lone, mu_map=[(1, 0)])
        with pytest.raises(UnsupportedInputError, match="a meridian-to-homology map is required"):
            chern_pd(lone, rotations=[1])

    def test_rotations_required_off_the_multitwist(self):
        s = Surface(1, 1)
        a = Curve("a", s.a_class(1))
        with pytest.raises(UnsupportedInputError):
            chern_pd(word_of(s, [a]))

    def test_malformed_inputs_raise(self):
        # only absent inputs give no c1: a rotation list or meridian map that
        # is not one per twist, or a meridian of the wrong rank, raises
        w = boundary_multitwist(1, 3)  # 3 twists, rank 4
        for call in (chern_pd, filling_invariants):
            with pytest.raises(ValueError, match="1 rotations and 1 meridian classes for 3 twists"):
                call(w, rotations=[1], mu_map=[(0, 0, 1, 0)])
            with pytest.raises(ValueError, match="3 rotations and 1 meridian classes for 3 twists"):
                call(w, mu_map=[(0, 0, 1, 0)])
            with pytest.raises(RankMismatchError, match="meridian class of length 1 != rank 4"):
                call(w, rotations=[0, 1, 2], mu_map=[(1,), (1,), (1,)])
        s = Surface(1, 1)
        lone = word_of(s, [Curve("a", s.a_class(1))])
        assert filling_invariants(lone).c1 is None
        assert filling_invariants(lone, rotations=[1]).c1 is None  # no meridian map

    def test_explicit_rotations_and_meridians(self):
        s = Surface(0, 2)
        d2 = convex_curve(s, "d2", {2})
        w = word_of(s, [d2, d2])
        c1 = chern_pd(w, rotations=[1, 1], mu_map=[[1], [1]])
        assert c1.vector == (2,)
        assert c1.is_zero  # H1 = Z/2


def _esig_pair(word, ledger=None):
    return euler_characteristic(word), sigma(word, ledger).value


class TestEsigCheck:
    # e + sigma of two fillings: check_comparable guards the comparison and
    # esig_planarity_test gives the verdict, as esig-compare runs them

    def test_lantern_pair_is_equal(self):
        s = Surface(0, 4)
        left = boundary_multitwist(0, 4)
        right = word_of(s, [
            convex_curve(s, "a12", {2, 3}),
            convex_curve(s, "a23", {3, 4}),
            convex_curve(s, "a13", {2, 4}),
        ])
        check_comparable(sigma(left), sigma(right))
        assert _esig_pair(left) == (2, -1) and _esig_pair(right) == (1, 0)
        assert esig_planarity_test(_esig_pair(left), _esig_pair(right)).verdict == NO_OBSTRUCTION

    def test_ten_twist_baseline_pair_agrees(self):
        # (e, sigma) = (9, -8) against (1, 0): the pairs differ but the sums
        # agree (1 = 1), hence congruent mod 4 as well.
        w = boundary_multitwist(1, 1)
        ledger1 = SigmaLedger("base", -8 + 9 - euler_characteristic(w))
        ledger2 = SigmaLedger("base", 1 - euler_characteristic(w))
        check_comparable(sigma(w, ledger1), sigma(w, ledger2))
        pair1, pair2 = _esig_pair(w, ledger1), _esig_pair(w, ledger2)
        assert sum(pair1) == sum(pair2) == 1
        assert esig_planarity_test(pair1, pair2).verdict == NO_OBSTRUCTION

    def test_congruent_but_not_equal(self):
        w = boundary_multitwist(1, 1)
        ledger1 = SigmaLedger("base", 1 - euler_characteristic(w))
        ledger2 = SigmaLedger("base", 5 - euler_characteristic(w))
        check_comparable(sigma(w, ledger1), sigma(w, ledger2))
        pair1, pair2 = _esig_pair(w, ledger1), _esig_pair(w, ledger2)
        assert (sum(pair1), sum(pair2)) == (1, 5)
        assert esig_planarity_test(pair1, pair2).verdict == NON_PLANAR_CONDITIONAL

    def test_identical_inputs(self):
        w = boundary_multitwist(0, 5)
        check_comparable(sigma(w), sigma(w))
        assert esig_planarity_test(_esig_pair(w), _esig_pair(w)).verdict == NO_OBSTRUCTION

    def test_incomparable_modes(self):
        exact = sigma(boundary_multitwist(0, 4))
        relative = sigma(boundary_multitwist(1, 2), SigmaLedger("tau_del", -1))
        with pytest.raises(IncomparableSigmaError, match="signature modes differ: exact vs relative"):
            check_comparable(exact, relative)
        with pytest.raises(IncomparableSigmaError, match="signature modes differ: relative vs exact"):
            check_comparable(relative, exact)

    def test_different_baselines(self):
        w = boundary_multitwist(1, 2)
        with pytest.raises(IncomparableSigmaError, match="relative signatures over different baselines: a vs b"):
            check_comparable(sigma(w, SigmaLedger("a", -1)), sigma(w, SigmaLedger("b", -1)))

    def test_unresolved_signature(self):
        exact = sigma(boundary_multitwist(0, 4))
        for unknown in (sigma(boundary_multitwist(1, 2)), SigmaValue(mode="unknown", value=None, baseline_name="b")):
            for pair in ((exact, unknown), (unknown, exact), (unknown, unknown)):
                with pytest.raises(IncomparableSigmaError, match="both fillings need a resolved signature"):
                    check_comparable(*pair)


class TestFillingInvariants:
    def test_planar_report(self):
        inv = filling_invariants(boundary_multitwist(0, 4))
        assert inv.euler == 2
        assert inv.sigma.value == -1
        assert inv.b2 == 1
        assert inv.q_invariant_factors == (4,)
        assert inv.h1.report() == [[4], 0]
        assert inv.esig == 1 and inv.esig_mod4 == 1

    def test_nonplanar_without_baseline(self):
        inv = filling_invariants(boundary_multitwist(2, 3))
        assert inv.sigma.mode == "unknown"
        assert inv.esig is None
        assert inv.h1.report() == [[3], 4]

    def test_no_package_path_reads_dense_v(self, monkeypatch):
        # every caller takes V from the Smith form's sparse columns; sigma
        # from the signature of B B^T agrees with the form's -b2
        def refuse(self):
            raise AssertionError("a package path read SmithForm.col_ops")

        monkeypatch.setattr(intlinalg.SmithForm, "col_ops", property(refuse))
        words = [_planar_pin_case(seed)[0] for seed in range(300)] + [_triangle_word()]
        rng = random.Random(43)
        for _ in range(60):
            s = Surface(1, rng.randint(1, 4))
            pool = [Curve(f"c{i}", HomologyClass(s, tuple(rng.randint(-2, 2) for _ in range(s.rank))))
                    for i in range(4)]
            words.append(Word(s, tuple(Twist(rng.choice(pool), rng.choice((1, -1))) for _ in range(rng.randint(0, 10)))))
        for w in words:
            inv = filling_invariants(w)
            assert inv.sigma == sigma(w)
            assert h1_boundary(w).report() == inv.h1.report()
