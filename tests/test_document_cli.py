"""Document parsing, serialization round-trip, and the command line."""

import argparse
import json

import pytest

from steincalc.cli import main, run
from steincalc.document import (
    chain_document,
    lantern_document,
    non_standard_document,
    parse,
    serialize,
    tau_boundary_document,
)
from steincalc.errors import DocumentError

MINIMAL = {
    "surface": {"genus": 0, "boundary": 4},
    "curves": [
        {"name": "d1", "holes": [2, 3, 4], "boundary_parallel_to": 1},
        {"name": "d2", "holes": [2]},
        {"name": "d3", "holes": [3]},
        {"name": "d4", "holes": [4]},
    ],
    "words": {"tau_del": [{"curve": c, "sign": 1} for c in ("d1", "d2", "d3", "d4")]},
}


class TestParse:
    def test_minimal_document(self):
        doc = parse(json.dumps(MINIMAL))
        assert doc.surface.rank == 3
        assert len(doc.words["tau_del"]) == 4

    def test_hole_one_without_flag_rejected(self):
        bad = json.loads(json.dumps(MINIMAL))
        bad["curves"][1] = {"name": "d2", "holes": [1]}
        with pytest.raises(DocumentError) as err:
            parse(json.dumps(bad))
        assert "curves[1]" in str(err.value)

    def test_unknown_curve_named_in_error(self):
        bad = json.loads(json.dumps(MINIMAL))
        bad["words"] = {"w": [{"curve": "ghost", "sign": 1}]}
        with pytest.raises(DocumentError) as err:
            parse(json.dumps(bad))
        assert "ghost" in str(err.value)

    def test_rank_mismatch_located(self):
        bad = json.loads(json.dumps(MINIMAL))
        bad["curves"].append({"name": "x", "homology": [1, 0]})
        with pytest.raises(DocumentError) as err:
            parse(json.dumps(bad))
        assert "curves[4]" in str(err.value)

    def test_invalid_json_located(self):
        with pytest.raises(DocumentError) as err:
            parse("{not json")
        assert "line" in err.value.location

    def test_baseline_for_unknown_word_rejected(self):
        bad = json.loads(json.dumps(MINIMAL))
        bad["baselines"] = {"ghost": -1}
        with pytest.raises(DocumentError):
            parse(json.dumps(bad))

    @pytest.mark.parametrize(
        "key, value",
        [
            ("rotations", []),
            ("mu_maps", "x"),
            ("relators", 5),
            ("arcs", 3),
            ("disjoint", 7),
            ("curves", {}),
            ("declarations", {}),
        ],
    )
    def test_malformed_section_rejected(self, key, value, tmp_path, capsys):
        text = json.dumps({**MINIMAL, key: value})
        with pytest.raises(DocumentError) as err:
            parse(text)
        assert err.value.location == key
        bad = tmp_path / "bad.json"
        bad.write_text(text, encoding="utf-8")
        assert main(["invariants", "--in", str(bad)]) == 2
        assert json.loads(capsys.readouterr().out)["error"]["kind"] == "document"

    @pytest.mark.parametrize(
        "override",
        [
            {"surface": {"genus": True, "boundary": 1}, "curves": [], "words": {}},
            {"words": {"w": [{"curve": "d2", "sign": 1.0}]}},
            {"words": {"w": [{"curve": "d2", "sign": True}]}},
            {"curves": MINIMAL["curves"] + [{"name": "x", "homology": [True, 0, 0]}]},
            {"curves": MINIMAL["curves"] + [{"name": "x", "holes": [2], "rotation": False}]},
            {"baselines": {"tau_del": True}},
        ],
    )
    def test_bool_and_float_are_not_integers(self, override, tmp_path, capsys):
        text = json.dumps({**MINIMAL, **override})
        with pytest.raises(DocumentError):
            parse(text)
        bad = tmp_path / "bad.json"
        bad.write_text(text, encoding="utf-8")
        assert main(["gen", "--in", str(bad)]) == 2
        assert json.loads(capsys.readouterr().out)["error"]["kind"] == "document"

    def test_user_relator_non_positive_rejected(self):
        bad = json.loads(json.dumps(MINIMAL))
        bad["relators"] = [{
            "name": "r", "kind": "user",
            "left": [{"curve": "d2", "sign": -1}],
            "right": [{"curve": "d2", "sign": 1}],
        }]
        with pytest.raises(DocumentError):
            parse(json.dumps(bad))

    def test_user_relator_allowability_computed(self):
        data = json.loads(json.dumps(MINIMAL))
        data["relators"] = [{
            "name": "r", "kind": "user",
            "left": [{"curve": "d2", "sign": 1}],
            "right": [{"curve": "d2", "sign": 1}],
        }]
        doc = parse(json.dumps(data))
        entry = doc.relator_entries["r"]
        assert entry.relator.provenance == "user-asserted"
        assert entry.relator.allowable  # d2 has nonzero class


class TestRoundTrip:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: parse(json.dumps(MINIMAL)),
            lambda: tau_boundary_document(0, 4),
            lambda: tau_boundary_document(2, 5),
            lambda: lantern_document(),
            lambda: chain_document(2),
            lambda: chain_document(3),
            lambda: non_standard_document(),
        ],
    )
    def test_parse_serialize_identity(self, factory):
        doc = factory()
        assert parse(serialize(doc)) == doc


class TestRun:
    def test_invariants_payload(self):
        doc = tau_boundary_document(0, 4)
        payload = run("invariants", doc)
        assert payload["euler"] == 2
        assert payload["sigma"]["value"] == -1
        assert payload["q_matrix"] == [[-4]]
        assert payload["q_invariant_factors"] == [4]
        assert payload["h1"] == [[4], 0]
        assert payload["esig"] == 1

    def test_substitute_payload(self):
        doc = tau_boundary_document(0, 4)
        payload = run("substitute", doc, word="tau_del", relator="lantern")
        assert payload["ledger"] == {"sigma_delta": 1, "euler_delta": -1}
        assert [t["curve"] for t in payload["new_word"]] == ["a12", "a23", "a13"]
        assert payload["sigma_before"] == -1 and payload["sigma_after"] == 0

    def test_detect_payload(self):
        doc = chain_document(2)
        payload = run("detect", doc, word="boundary")
        assert payload["certificates"][0]["verdict"] == "non-planar"
        assert payload["bounding"][0]["verdict"] == "non-planar"

    def test_verify_relator_payload(self):
        doc = chain_document(2)
        payload = run("verify-relator", doc, relator="chain-2")
        checks = {c["name"]: c["passed"] for c in payload["checks"]}
        assert checks["homology_identity"] is True
        assert payload["necessary_conditions_hold"]

    def test_family_rows(self):
        payload = run("family", g_max=1, b_max=4)
        rows = {(r["genus"], r["boundary"]): r for r in payload["rows"]}
        assert rows[(0, 4)]["h1"] == [[4], 0]
        assert rows[(1, 3)]["h1"] == [[3], 2]
        assert rows[(0, 2)]["sigma"]["value"] == -1


class TestMain:
    def test_invariants_command(self, capsys):
        code = main(["invariants", "--tau-boundary", "0", "4"])
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads(out)
        assert report["tool"] == "steincalc"
        assert report["result"]["euler"] == 2

    def test_gen_round_trips(self, capsys):
        assert main(["gen", "--chain", "3"]) == 0
        doc = parse(capsys.readouterr().out)
        assert doc.surface.genus == 1 and doc.surface.boundary_count == 2

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}", encoding="utf-8")
        assert main(["invariants", "--in", str(bad)]) == 2
        assert json.loads(capsys.readouterr().out)["error"]["kind"] == "document"

    def test_inapplicable_substitution_exit_code(self, capsys):
        code = main(["substitute", "--lantern", "--word", "lantern_right", "--relator", "lantern"])
        out = capsys.readouterr().out
        assert code == 3
        assert json.loads(out)["error"]["kind"] == "precondition"

    def test_non_positive_substitution_exit_code(self, tmp_path, capsys):
        data = json.loads(serialize(lantern_document()))
        data["words"]["lantern_left"][0]["sign"] = -1
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code = main(["substitute", "--in", str(path), "--word", "lantern_left"])
        out = capsys.readouterr().out
        assert code == 3
        assert json.loads(out)["error"] == {
            "kind": "precondition",
            "message": "substitution is defined on positive words",
        }

    def test_unknown_word_exit_code(self, capsys):
        assert main(["invariants", "--tau-boundary", "0", "4", "--word", "ghost"]) == 3
        assert json.loads(capsys.readouterr().out)["error"]["kind"] == "precondition"

    def test_esig_inconsistent_exit_code(self, capsys):
        code = main(["esig-compare", "--tau-boundary", "0", "2", "--pair", "1,0", "--pair2", "2,0"])
        out = capsys.readouterr().out
        assert code == 4
        assert json.loads(out)["result"]["certificate"]["verdict"] == "assertion-inconsistent"

    def test_baseline_flag(self, capsys):
        code = main([
            "invariants", "--tau-boundary", "1", "2", "--word", "tau_del", "--baseline", "tau_del=-5",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out)["result"]["sigma"]["value"] == -5

    def test_byte_stable_reports(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for path in (out1, out2):
            assert main(["invariants", "--lantern", "--word", "tau_del", "--json-out", str(path)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_detect_command(self, capsys):
        assert main(["detect", "--chain", "2", "--word", "boundary"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["result"]["certificates"][0]["verdict"] == "non-planar"
        assert report["result"]["certificates"][0]["witness"]["obstruction"] == 4

    def test_family_command(self, capsys):
        assert main(["family", "--g-max", "0", "--b-max", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["result"]["rows"]) == 2

    def test_consistency_alarm_exit_code(self, tmp_path, capsys):
        # a user relator asserting the wrong signature delta contradicts the
        # direct planar computation during substitution
        data = json.loads(json.dumps(MINIMAL))
        data["curves"] += [
            {"name": "a12", "holes": [2, 3]},
            {"name": "a23", "holes": [3, 4]},
            {"name": "a13", "holes": [2, 4]},
        ]
        data["relators"] = [{
            "name": "wrong", "kind": "user",
            "left": [{"curve": c, "sign": 1} for c in ("d2", "d3", "d4", "d1")],
            "right": [{"curve": c, "sign": 1} for c in ("a12", "a23", "a13")],
            "sigma_delta": 5,
        }]
        data["disjoint"] = [["d1", "d2"], ["d1", "d3"], ["d1", "d4"],
                            ["d2", "d3"], ["d2", "d4"], ["d3", "d4"]]
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code = main(["substitute", "--in", str(path), "--word", "tau_del", "--relator", "wrong"])
        out = capsys.readouterr().out
        assert code == 4
        assert json.loads(out)["error"]["kind"] == "consistency-alarm"

    @pytest.mark.parametrize(
        "flags",
        [["--chain", "0"], ["--chain", "-2"], ["--tau-boundary", "0", "0"], ["--tau-boundary", "-1", "3"]],
    )
    def test_bad_generator_value_exit_code(self, flags, capsys):
        for command in ("gen", "invariants"):
            assert main([command] + flags) == 2
            error = json.loads(capsys.readouterr().out)["error"]
            assert error["kind"] == "document" and error["location"] == flags[0]

    @pytest.mark.parametrize("n", [7, 9, 11])
    def test_gen_long_odd_chain(self, n, capsys):
        assert main(["gen", "--chain", str(n)]) == 0
        doc = parse(capsys.readouterr().out)
        assert (doc.surface.genus, doc.surface.boundary_count) == ((n - 1) // 2, 2)

    def test_verify_long_odd_chain(self, capsys):
        assert main(["verify-relator", "--chain", "7"]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["relator"] == "chain-7"
        assert result["necessary_conditions_hold"]
        assert all(c["passed"] for c in result["checks"])

    def test_parser_built_once(self, monkeypatch, capsys):
        calls = []
        real = argparse._ActionsContainer.add_argument

        def counting(self, *args, **kwargs):
            calls.append(args)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counting)
        argv = ["invariants", "--tau-boundary", "0", "4"]
        assert main(argv) == 0
        calls.clear()
        assert main(argv) == 0
        assert calls == []

    def test_baseline_flag_does_not_leak_into_next_call(self, capsys):
        argv = ["invariants", "--tau-boundary", "1", "2", "--word", "tau_del"]
        assert main(argv + ["--baseline", "tau_del=5"]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["sigma"]["value"] == 5
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["result"]["sigma"]["value"] == -1
