"""Non-planarity certificates: relator detection, bounding detection,
and the e + sigma comparison."""

import json

import pytest

from steincalc.cli import main
from steincalc.document import chain_document, tau_boundary_document
from steincalc.errors import NotApplicableError, UnsupportedInputError
from steincalc.planarity import (
    ASSERTION_INCONSISTENT,
    NO_OBSTRUCTION,
    NON_PLANAR,
    NON_PLANAR_CONDITIONAL,
    BoundingDeclaration,
    detect_bounding,
    detect_relator,
    esig_planarity_test,
)
from steincalc.relators import RelatorEntry, bounding_case
from steincalc.surfaces import Curve, Surface
from steincalc.words import Twist, Word, contains, substitute, word_of


def chain2_setup():
    doc = chain_document(2)
    word = doc.words["boundary"]
    entries = list(doc.relator_entries.values())
    return doc, word, entries


class TestDetectRelator:
    def test_two_chain_fires(self):
        doc, word, entries = chain2_setup()
        # extend the boundary twist by extra positive twists
        extra = doc.curves["c1"]
        extended = Word(word.surface, word.twists + (Twist(extra, 1), Twist(extra, 1)))
        certs = detect_relator(extended, entries, doc.disjoint)
        assert len(certs) == 1
        cert = certs[0]
        assert cert.verdict == NON_PLANAR
        assert cert.witness.obstruction == 4
        assert cert.witness.obstruction_asserted and not cert.witness.homology_allowable

    def test_lantern_alone_gives_no_obstruction(self):
        doc = tau_boundary_document(0, 4)
        word = doc.words["tau_del"]
        certs = detect_relator(word, list(doc.relator_entries.values()), doc.disjoint)
        assert len(certs) == 1
        assert certs[0].verdict == NO_OBSTRUCTION
        assert any("zero" in note for note in certs[0].notes)

    def test_unmatched_word_gives_no_obstruction(self):
        s = Surface(1, 1)
        a = Curve("a", s.a_class(1))
        doc, _, entries = chain2_setup()
        certs = detect_relator(word_of(s, [a]), entries, doc.disjoint)
        assert certs[0].verdict == NO_OBSTRUCTION

    def test_monotone_under_enlargement(self):
        doc, word, entries = chain2_setup()
        assert detect_relator(word, entries, doc.disjoint)[0].verdict == NON_PLANAR
        for extra_name in ("c1", "c2", "delta"):
            extra = doc.curves[extra_name]
            bigger = Word(word.surface, word.twists + (Twist(extra, 1),))
            assert detect_relator(bigger, entries, doc.disjoint)[0].verdict == NON_PLANAR

    def test_never_fires_on_lantern_only_database(self):
        import random

        rng = random.Random(11)
        doc = tau_boundary_document(0, 4)
        entries = list(doc.relator_entries.values())
        pool = list(doc.curves.values())
        for _ in range(40):
            w = word_of(doc.surface, [rng.choice(pool) for _ in range(rng.randint(0, 10))])
            for cert in detect_relator(w, entries, doc.disjoint):
                assert cert.verdict == NO_OBSTRUCTION

    def test_one_block_build_per_word(self, monkeypatch):
        # the sequence of searches ``detect`` makes on one word, plus contains and substitute
        doc, word, entries = chain2_setup()
        e = entries[0]
        wider = RelatorEntry(relator=e.relator, obstruction=e.obstruction,
                             obstruction_asserted=e.obstruction_asserted, decomposition=e.decomposition,
                             disjoint=e.disjoint | {frozenset(("c1",))}, note=e.note)
        built = []
        real = Word._tabulate
        monkeypatch.setattr(Word, "_tabulate", lambda w: built.append(w) or real(w))
        certs = detect_relator(word, [entries[0], wider, entries[0], wider], doc.disjoint)
        assert len(certs) == 4
        assert all(c.witness == certs[0].witness for c in certs)
        assert detect_bounding(word, doc.declarations[0], doc.disjoint).verdict == NON_PLANAR
        assert contains(word, e.relator.left, doc.disjoint | wider.disjoint).positions == certs[0].witness.positions
        substitute(word, e.relator, doc.disjoint | e.disjoint)
        assert len(built) == 1 and built[0] is word

    def test_witness_is_machine_checkable(self):
        doc, word, entries = chain2_setup()
        cert = detect_relator(word, entries, doc.disjoint)[0]
        entry = doc.relator_entries[cert.witness.relator_name]
        rerun = contains(word, entry.relator.left, doc.disjoint | entry.disjoint)
        assert rerun is not None
        assert rerun.positions == cert.witness.positions
        assert entry.has_nonzero_obstruction


class TestDetectBounding:
    def test_one_holed_torus(self):
        doc = tau_boundary_document(1, 1)
        cert = detect_bounding(doc.words["tau_del"], doc.declarations[0], doc.disjoint)
        assert cert.verdict == NON_PLANAR
        assert any("Poincare" in note for note in cert.notes)

    def test_genus_one_two_holes(self):
        doc = tau_boundary_document(1, 2)
        cert = detect_bounding(doc.words["tau_del"], doc.declarations[0], doc.disjoint)
        assert cert.verdict == NON_PLANAR

    def test_genus_one_ten_holes_rejected_with_note(self):
        doc = tau_boundary_document(1, 10)
        cert = detect_bounding(doc.words["tau_del"], doc.declarations[0], doc.disjoint)
        assert cert.verdict == NO_OBSTRUCTION
        assert any("no such relator" in note for note in cert.notes)

    def test_genus_two_eight_holes(self):
        doc = tau_boundary_document(2, 8)
        cert = detect_bounding(doc.words["tau_del"], doc.declarations[0], doc.disjoint)
        assert cert.verdict == NON_PLANAR

    def test_exact_case_matrix(self):
        for g in range(0, 5):
            for b in range(1, 14):
                expected = (g >= 1 and b in (1, 2)) or (g == 1 and b <= 9) or (g == 2 and b <= 8)
                assert (bounding_case(g, b).verdict == "obstructs") == expected, (g, b)

    def test_multicurve_not_contained(self):
        doc = tau_boundary_document(1, 2)
        s = doc.surface
        a = Curve("a", s.a_class(1))
        with pytest.raises(NotApplicableError):
            detect_bounding(word_of(s, [a]), doc.declarations[0], doc.disjoint)

    def test_declaration_shape_validated(self):
        s = Surface(1, 2)
        with pytest.raises(ValueError):
            BoundingDeclaration(1, 2, (Curve("x", s.d_class(2)),))

    def test_declaration_without_boundary_is_rejected(self):
        # with no boundary the multicurve is empty, contained in every word,
        # and bounding_case answers "obstructs" for genus 1: every word would
        # be certified non-planar
        s = Surface(0, 4)
        d = Curve("d", s.d_class(2))
        assert bounding_case(1, 0).verdict == bounding_case(1, -3).verdict == "obstructs"
        with pytest.raises(ValueError, match="0 boundary components, not at least one"):
            BoundingDeclaration(1, 0, ())
        with pytest.raises(ValueError, match="-3 boundary components, not at least one"):
            BoundingDeclaration(1, -3, ())
        with pytest.raises(ValueError, match="negative genus -1"):
            BoundingDeclaration(-1, 1, (d,))
        assert detect_bounding(word_of(s, [d]), BoundingDeclaration(0, 1, (d,))).verdict == NO_OBSTRUCTION


class TestPositiveWords:
    """Both obstructions are read off a Stein filling, so detection refuses a
    word with a negative twist.  On the chain-2 page the word
    delta delta^-1 delta^-1 is t_delta^-1, which is not right-veering, so its
    contact structure is overtwisted and planar; it contains the chain-2
    relator's left side and the genus-1 multicurve all the same."""

    def inverse_boundary_twist(self):
        doc, word, entries = chain2_setup()
        delta = doc.curves["delta"]
        return doc, word_of(word.surface, [delta] * 3, [1, -1, -1]), entries

    def test_library_refuses_a_negative_twist(self):
        doc, w, entries = self.inverse_boundary_twist()
        with pytest.raises(UnsupportedInputError, match="positive words"):
            detect_relator(w, entries, doc.disjoint)
        with pytest.raises(UnsupportedInputError, match="positive words"):
            detect_bounding(w, doc.declarations[0], doc.disjoint)

    def test_detect_exits_3_without_a_certificate(self, tmp_path, capsys):
        assert main(["gen", "--chain", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        doc["words"] = {"w": [{"curve": "delta", "sign": sign} for sign in (1, -1, -1)]}
        path = tmp_path / "inverse.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["detect", "--in", str(path)]) == 3
        out = capsys.readouterr().out
        assert json.loads(out)["error"]["kind"] == "precondition"
        assert NON_PLANAR not in out


class TestEsigPlanarityTest:
    def test_lantern_pair_consistent(self):
        cert = esig_planarity_test((2, -1), (1, 0))
        assert cert.verdict == NO_OBSTRUCTION

    def test_difference_of_four_excludes_planarity(self):
        cert = esig_planarity_test((1, 0), (5, 0))
        assert cert.verdict == NON_PLANAR_CONDITIONAL

    def test_mod_four_violation_is_inconsistent(self):
        cert = esig_planarity_test((1, 0), (2, 0))
        assert cert.verdict == ASSERTION_INCONSISTENT
