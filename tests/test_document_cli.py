"""Document parsing, serialization round-trip, and the command line."""

import argparse
import ast
import contextlib
import functools
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from steincalc import cli, document
from steincalc.cli import main, run
from steincalc.document import (
    Document,
    chain_document,
    lantern_document,
    non_standard_document,
    parse,
    serialize,
    tau_boundary_document,
    tau_boundary_word,
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

# every document the generator flags emit, keyed by the flags
GENERATORS = {
    **{f"--tau-boundary {g} {b}": functools.partial(tau_boundary_document, g, b)
       for g in range(4) for b in range(1, 13)},
    "--lantern": lantern_document,
    "--r-ns": non_standard_document,
    **{f"--chain {n}": functools.partial(chain_document, n) for n in range(1, 13)},
}

# sha256 of `steincalc gen FLAGS` stdout
GEN_SHA256 = {
    "--tau-boundary 0 1": "badbf0e8fd7b5a138bf776182316365f77984e4d1ea57ae41d4959ffa2ddcc5e",
    "--tau-boundary 0 2": "9ccc60e4ef62dfe834a8392d3b40e7389fe21376124b4a4892f27195f786dc95",
    "--tau-boundary 0 3": "8a9a109d8072703ba5c33566472546845ab5530ce6982d6ec18be04ce2ba11ee",
    "--tau-boundary 0 4": "1f84fede75c9866e8139a0e9012659e7d455030057b51a4af412164a3c87fbd9",
    "--tau-boundary 0 5": "dd617166ff7502e348c3b9cb5da225d373b4b832a250bcc0b45db5938c7f31c7",
    "--tau-boundary 0 6": "54330b98f7e6478e508cfa537a02b57dd33f9c8d3e02afd7eccf16c3b00f6f2f",
    "--tau-boundary 0 7": "7f1beaea4a7a269fc5086448579171961fc2361462d842a69053b8442305c939",
    "--tau-boundary 0 8": "242626adeb3ac0ee5e8a871b72eb47ca28422346146d17e06bfc37432e11d330",
    "--tau-boundary 0 9": "12dd1db03c261519ddf5aca1fbc293a08e3d1b307909084f92d0ef94014aeca5",
    "--tau-boundary 0 10": "4baf4b1572dfe831a2ab5f5b59a41a1acfa1123f2b5d94a23e9bafe515bbbe25",
    "--tau-boundary 0 11": "866b11accbabcdb7835002ca1ab690f7010b2498b4288bc42e144aa2b85b0d9a",
    "--tau-boundary 0 12": "2af8d8dad7a29a37788778f4ee3302948c3eabf05e1b09801a44b71bf8c105f4",
    "--tau-boundary 1 1": "bcb3b06a630fc16550eb8fd88f7447601e38efca33a1fd8a3b0fd6a877be6a60",
    "--tau-boundary 1 2": "203a4d6aa28edf74bf19f7701ea6e5ee61cb0fbe6abdcbd723418aaafe89bcef",
    "--tau-boundary 1 3": "178cd0a3a4004c5c330a5f4c263f6001380e724966ec6e536f4f8de0f0062e2b",
    "--tau-boundary 1 4": "f9ace038f5f5adcecd8be04d774f6bccd8452bbd74b56ba1be201bcea23e70a8",
    "--tau-boundary 1 5": "2934dabba2a4cffddb09170aa6b9fc269c81ad97e6f11af10ce97d179336d3a8",
    "--tau-boundary 1 6": "362d942bde67a9c5dcd4e8840de27a8d8680c3fbd61cf242978c6e2a1e9a0041",
    "--tau-boundary 1 7": "a6083431c293dfee5ebb89a577b6e94067cf3e01e35d39152813cc91721fed5b",
    "--tau-boundary 1 8": "7524bf57aeb7bb459b23b63acffb80dc86898809dcbeedaeb26e2fae464bb1d7",
    "--tau-boundary 1 9": "f92b81fee029b2a7ba8b3707377b930cac57cc5e7d19e72ccfc874d1d4ed55e6",
    "--tau-boundary 1 10": "db538c607609c117f308c95dc46a636a5f17172140cafd65a4ceea771bdfbc2a",
    "--tau-boundary 1 11": "3d9420010d74d448299f04ba7eb7a8ba71d8ccc2b4012403e68963fe4ff29d25",
    "--tau-boundary 1 12": "20ee783148e37c7186c1296da5771eb5115c159c8893ec2354b4c22886628844",
    "--tau-boundary 2 1": "5764497a84ba211d26d48eece5232968820478ea1527ecfffebe0d4fb59cc759",
    "--tau-boundary 2 2": "d2e7dfad7a4b25cfe1cb8b37d2a8cb2dcdaa98f2b2b9b7ddbedadd4c3d18df90",
    "--tau-boundary 2 3": "1cf8622b5aaac4f38a835f1c1b2d5e5b2d971e017c7061949dca0d16faed503b",
    "--tau-boundary 2 4": "1c65422b2012758cf284986a6f2ec5eda98df1f606939b2a22e3668c8c59a87d",
    "--tau-boundary 2 5": "0337a167d255f0039e0098e2978755c1fb1102c0e1609aeed7a10485658ca257",
    "--tau-boundary 2 6": "9774110944970f75c53fa7a0da59defb7f2cf2ad8d4f9e30d7bcf3848bbd78cb",
    "--tau-boundary 2 7": "49719155d0e9fb229a80a48af5ff04770209cc44cbe099aeb2d54883382d00b7",
    "--tau-boundary 2 8": "042366cb925f000e61d6bae545d57f2c65f012a0af95c2e45b149552455cee97",
    "--tau-boundary 2 9": "a38f593c965f39e8deebe3e4ce44f3e4bb874f4b7b03a6a298a8576397b876db",
    "--tau-boundary 2 10": "8ac92e4957cc9646fa6994d9cdfed73d1f3289e2d8be23ff2ce5af95f83109e4",
    "--tau-boundary 2 11": "1d3a7185dbfa3bb4afc6ed3f3161a474ccee629c95834a4bdda7edb76e639aab",
    "--tau-boundary 2 12": "c96dfa473ba6e0b2188c81a84546f5917188387b4c0f2de58b28c1d6ad40787d",
    "--tau-boundary 3 1": "dd75153e6706163bfff80d7e2bb37b5f6b46f7976c140c293c8653fe31c5bd00",
    "--tau-boundary 3 2": "07c2d2fb7476f5e3abc1307c0ed7334f1d293371183ad47f69af9819bcfc4129",
    "--tau-boundary 3 3": "a8315b4ffcc019c79fa678907a033994bee38d673549a209a57f915acb013f31",
    "--tau-boundary 3 4": "75533233aaf9561bf55675063bf7615173e7f07445da2d5924e3edc7b87106fd",
    "--tau-boundary 3 5": "c2798b4fe557386cbf4102c95cfd345d7a7beacb72f58f28e738c486b24c664d",
    "--tau-boundary 3 6": "007879e8cfd26bf4f8158cc41e38bd817ddca30e69e182dd6c933092fb56df9d",
    "--tau-boundary 3 7": "b01cdec002ba6c9719305738540fe7b2f8db31bbc5723a40853e26ace3bd8159",
    "--tau-boundary 3 8": "83112891adf9ee2ec3042cb626b70e685f6f1f19be9304bd2f1680c4eefb39ca",
    "--tau-boundary 3 9": "f8f181b9b1c79b83634a8afe3a11f0878d46d2fbe826c57d808822ce5132e079",
    "--tau-boundary 3 10": "508df00abc289b2bfe87f0e84181b1e815d86612e199857cf1d789732586438a",
    "--tau-boundary 3 11": "32a7b3d6474c808d9368a538ea931f95ecd39a9342438dbef30829b492d7d03f",
    "--tau-boundary 3 12": "b8c9d9f9906bf8296ca214a457fbb2f4a3d728a5b35609b12704fed2ebb4e641",
    "--lantern": "a05ad2385ddc9222cad7ec37f5df04d39257aa2c5e21042890d21650fe162a9b",
    "--r-ns": "3334eee291b6a37c30d0d966341f350b24a0d14acb24087b5a8326bd6c4a2925",
    "--chain 1": "8648d4bda0a3f57f4bf4bf09dec2817fe8f0f0f9898ce5ae126eafd4dfd12bb3",
    "--chain 2": "86fd07cec079e118dddd0f0e562b2ba3016f4f58ccab3372c16c3a69a067db8c",
    "--chain 3": "9346db6dc3c7cf37a941acd4c5db503c556151ca49a464c5570190c8887b4f4c",
    "--chain 4": "f8db1cebf10d75b6969c2c74c73a24c193d6e1c133690313700ac328599bb712",
    "--chain 5": "a362504508af12b9cc2aa7c103c9aa82abc6c1467f53cec54be8d96d035eee1b",
    "--chain 6": "d5f752f7a2490d8ae67f56d86081061482f46780c426d1c0c9f4689d6f7de570",
    "--chain 7": "c2b9dc7da2c4003b56578d1efe2a0d5fd7f2a43f64d7986e59a339191170a23b",
    "--chain 8": "a321ea08364b9c3221caaaef02e61968e2b4836611c0a1760c09d1a4c12dadc2",
    "--chain 9": "d470c2eec29ab750ead3646969ac0c52749f93e8202fc646165ce8e6f06a7903",
    "--chain 10": "44c1094f9e035709de5cf21ab2676d9cb0e828e9b57ffaf3fd6d8c5cad8e2bc4",
    "--chain 11": "ab415574d7c0d06f8a831db48df86dc2599945e1420b68590b9d294679da920d",
    "--chain 12": "b0e4133616905fb9af32b189c00a2f171f7aae56776f6e356e170e08e529fd51",
}

# "arcs" is no section any more: parse ignores it, as it ignores every
# top-level key it does not read, and old documents carry it
SECTIONS = ("surface", "curves", "words", "relators", "arcs", "declarations",
            "baselines", "disjoint", "rotations", "mu_maps")
_KEYS = st.sampled_from(SECTIONS + (
    "genus", "boundary", "name", "holes", "homology", "rotation", "boundary_parallel_to", "curve",
    "sign", "kind", "left", "right", "sigma_delta", "index", "rel_class", "multicurve", "tau_del",
)) | st.text(max_size=3)
_SCALARS = (
    st.none() | st.booleans() | st.integers(-3, 6) | st.floats(allow_nan=False)
    | st.sampled_from(["d1", "d2", "d3", "d4", "tau_del", "lantern", "chain", "braid", "user", "non-standard"])
)
JSON_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=7) | st.dictionaries(_KEYS, inner, max_size=5),
    max_leaves=40,
)

# curve names the fuzzed documents declare and reference ("absent" never declared)
_FUZZ_NAMES = ("d1", "d2", "d3", "d4", "x", "y", "z", "absent")
_FUZZ_KINDS = ("user", "user", "lantern", "chain", "braid", "non-standard", "other")
# a relator or twist key that parse never reads
_UNREAD_KEY = "weight"

# a user relator with an unread key: `gen` wrote it back verbatim, and a
# float there raised TypeError in the JSON writer
UNREAD_RELATOR_KEY = {
    "surface": {"genus": 0, "boundary": 3},
    "curves": [{"name": "a", "holes": [2]}],
    "words": {"w": [{"curve": "a"}]},
    "relators": [{"name": "r", "kind": "user", "left": [{"curve": "a"}], "right": [{"curve": "a"}], "weight": 0.5}],
}
DOCUMENT_COMMANDS = ("invariants", "substitute", "detect", "verify-relator", "esig-compare", "gen")


def _fuzz_document(rng):
    """A JSON-ready document: a small page, curves by hole set or homology
    vector, words, relators of every kind and the other sections, filled
    from the declared curve names.  Two documents in three are clean, so
    they mostly get past ``parse``; the rest carry a mistake now and then
    (an undeclared name, a wrong vector length, a bad hole or boundary
    flag, a negative twist, a bad page or one above the size limit)."""
    slip = 0.0 if rng.random() < 2 / 3 else 0.1
    genus = rng.choice((0, 0, 0, 1, 2))
    boundary = rng.randint(1, 5)
    rank = 2 * genus + boundary - 1
    declared = rng.sample(_FUZZ_NAMES[:-1], rng.randint(0, 6))

    def name():
        return rng.choice(_FUZZ_NAMES) if not declared or rng.random() < slip else rng.choice(declared)

    def vector():
        return [rng.randint(-2, 2) for _ in range(rng.randint(0, 4) if rng.random() < slip else rank)]

    def word():
        return [{"curve": name(), "sign": -1 if rng.random() < slip else 1} for _ in range(rng.randint(0, 8))]

    curves = []
    for n in declared:
        spec = {"name": n}
        if genus == 0 and rng.random() < 0.7:
            spec["holes"] = rng.sample(range(2, boundary + 1), rng.randint(0, boundary - 1))
            if rng.random() < slip:
                spec["holes"].append(rng.choice((1, boundary + 1)))
        else:
            spec["homology"] = vector()
        if rng.random() < slip:
            spec["boundary_parallel_to"] = rng.randint(1, 3)
        if rng.random() < 0.3:
            spec["rotation"] = rng.randint(-2, 2)
        curves.append(spec)
    relators = []
    for r in rng.sample(("r", "s"), rng.choice((0, 1, 1, 2))):
        spec = {"name": r, "kind": rng.choice(_FUZZ_KINDS), "sigma_delta": rng.randint(-2, 2)}
        spec["curves"] = [name() for _ in range(rng.choice((3, 7, rng.randint(0, 7))))]
        spec["boundary"] = [name() for _ in range(rng.randint(1, 2))]
        spec["left"], spec["right"] = word(), word()
        relators.append(spec)
    words = {w: word() for w in rng.sample(("tau_del", "w"), rng.randint(0, 2))}
    if rng.random() < slip:
        genus, boundary = rng.choice(((-1, 2), (0, 0), (64, 1), (0, 129), (64, 2), (0, 10**12)))
    return {
        "surface": {"genus": genus, "boundary": boundary},
        "curves": curves,
        "words": words,
        "relators": relators,
        "disjoint": [[name(), name()] for _ in range(rng.randint(0, 4))],
        "baselines": {w: rng.randint(-3, 3) for w in words if rng.random() < 0.5},
        "declarations": [
            {"genus": rng.randint(0, 3), "boundary": k, "multicurve": [name() for _ in range(k)]}
            for k in rng.sample((1, 2, 3), rng.randint(0, 1))
        ],
        "arcs": [
            {"index": rng.randint(2, boundary + (rng.random() < slip)), "rel_class": vector()}
            for _ in range(rng.randint(0, 2) if boundary >= 2 else 0)
        ],
        "rotations": {w: [rng.randint(-2, 2) for _ in t] for w, t in words.items() if rng.random() < 0.3},
        "mu_maps": {w: [vector() for _ in t] for w, t in words.items() if rng.random() < 0.3},
    }


@st.composite
def _fuzz_documents(draw):
    """A fuzzed document from a drawn seed (seeded choices keep most
    documents valid, which per-field hypothesis draws do not); now and then
    a relator spec or a twist gets an unread key holding an arbitrary JSON
    value, and one section is replaced by one."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    doc = _fuzz_document(rng)
    # an unread key on relator specs and twist objects, which parse drops
    specs = doc["relators"]
    twists = [t for w in doc["words"].values() for t in w] + [t for r in specs for t in r["left"] + r["right"]]
    for obj in specs + twists:
        if rng.random() < 0.15:
            obj[_UNREAD_KEY] = draw(JSON_VALUES)
    if rng.random() < 0.1:
        doc[rng.choice(SECTIONS)] = draw(JSON_VALUES)
    return json.dumps(doc)


def _generated(factory, word):
    return lambda: (json.loads(serialize(factory())), word)


_TORUS_WORD = [{"curve": "a1", "sign": 1}, {"curve": "b1", "sign": 1}]


def _on_the_torus(spec):
    # a one-holed torus page whose word w is the relator's left side a1 b1
    return lambda: ({
        "surface": {"genus": 1, "boundary": 1},
        "curves": [{"name": "a1", "homology": [1, 0]}, {"name": "b1", "homology": [0, 1]},
                   {"name": "a1_b1", "homology": [-1, 1]}],
        "words": {"w": _TORUS_WORD},
        "relators": [dict(spec)],
    }, "w")


# one document per relator kind, with the word that holds its left side
RENAMED_RELATORS = {
    "lantern": _generated(lantern_document, "lantern_left"),
    "chain": _generated(functools.partial(chain_document, 2), "boundary"),
    "braid": _on_the_torus({"name": "braid", "kind": "braid", "curves": ["a1", "b1", "a1_b1"]}),
    "non-standard": _generated(non_standard_document, "short_side"),
    "user": _on_the_torus({"name": "user", "kind": "user", "left": _TORUS_WORD, "right": _TORUS_WORD[::-1]}),
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

    def test_deep_nesting_rejected(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
        assert main(["invariants", "--in", str(deep)]) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["kind"] == "document" and error["location"] == "$"

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        JSON_VALUES.map(json.dumps),
        st.tuples(st.sampled_from(SECTIONS), JSON_VALUES).map(lambda kv: json.dumps({**MINIMAL, kv[0]: kv[1]})),
    ))
    @example("[" * 100000 + "]" * 100000)
    def test_parse_is_total(self, text):
        try:
            assert isinstance(parse(text), Document)
        except DocumentError:
            pass

    @pytest.mark.parametrize("doc", [
        # the planar page of an old arc rejection test
        {"surface": {"genus": 0, "boundary": 3},
         "curves": [{"name": "d2", "holes": [2]}],
         "words": {"w": [{"curve": "d2", "sign": 1}]}},
        # a genus-1 page on which declared arcs used to move c1_pd.reduced
        {"surface": {"genus": 1, "boundary": 3},
         "curves": [{"name": "b", "homology": [0, 0, 0, 1]}, {"name": "c", "homology": [-1, 0, -1, 0]}],
         "words": {"w": [{"curve": c, "sign": 1} for c in "cccb"]},
         "rotations": {"w": [1, 1, 1, 1]}, "mu_maps": {"w": [[0, 0, 1, 0]] * 4}},
    ], ids=["planar", "genus-1"])
    def test_arcs_section_is_ignored(self, doc, tmp_path, capsys):
        # H_1, the order of c1 and is_zero never depended on the arcs; now
        # an arcs key, valid or not, changes no report byte
        path = tmp_path / "doc.json"

        def report(data):
            path.write_text(json.dumps(data), encoding="utf-8")
            assert main(["invariants", "--in", str(path)]) == 0
            return capsys.readouterr().out

        plain = report(doc)
        handle = [1, -1] * doc["surface"]["genus"]
        for arcs in (
            [{"index": 2, "rel_class": handle + [1, 0]}],
            [{"index": 3, "rel_class": handle + [0, 1]}, {"index": 2, "rel_class": [0] * len(handle) + [1, 0]}],
            [{"index": 2, "rel_class": handle + [2, 0]}],
            [{"index": 2, "rel_class": handle + [1, 0]}] * 2,
            [{"index": 7}, "x"],
            3,
        ):
            assert report({**doc, "arcs": arcs}) == plain
            assert parse(json.dumps({**doc, "arcs": arcs})) == parse(json.dumps(doc))

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
            ("baselines", 3),
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

    @pytest.mark.parametrize(
        "override, location, message",
        [
            # _parse_word: the second twist of word w is the bad one
            *[({"words": {"w": [{"curve": "d2"}, twist]}}, "words.w[1]", message) for twist, message in (
                (5, "each twist is an object"),
                ([], "each twist is an object"),
                ({"sign": 1}, "twist needs a curve name"),
                ({"curve": 7}, "twist needs a curve name"),
                ({"curve": ["d2"]}, "twist needs a curve name"),
                ({"curve": "ghost"}, "word references undeclared curve 'ghost'"),
            )],
            *[({"words": {"w": [{"curve": "d2"}, {"curve": "d3", "sign": sign}]}}, "words.w[1].sign",
               "sign must be 1 or -1") for sign in (True, 2, "1", 1.0, 0, None)],
            ({"words": {"w": {"curve": "d2"}}}, "words.w", "a word is a list of {curve, sign} objects"),
            # _parse_curve: the fifth curve is the bad one
            *[({"curves": MINIMAL["curves"] + [spec]}, location, message) for spec, location, message in (
                (3, "curves[4]", "curve entries must be objects"),
                ({"holes": [2]}, "curves[4]", "curve needs a non-empty string name"),
                ({"name": "", "holes": [2]}, "curves[4]", "curve needs a non-empty string name"),
                ({"name": "x", "holes": [2], "rotation": True}, "curves[4].rotation", "rotation must be an integer"),
                ({"name": "x", "holes": [2], "rotation": 1.0}, "curves[4].rotation", "rotation must be an integer"),
                ({"name": "x", "holes": [2], "boundary_parallel_to": False}, "curves[4].boundary_parallel_to",
                 "boundary index must be an integer"),
                ({"name": "x", "holes": [2], "boundary_parallel_to": 2.0}, "curves[4].boundary_parallel_to",
                 "boundary index must be an integer"),
                ({"name": "x"}, "curves[4]", "declare exactly one of 'holes' (planar convex curve) or 'homology'"),
                ({"name": "x", "holes": [2], "homology": [1, 0, 0]}, "curves[4]",
                 "declare exactly one of 'holes' (planar convex curve) or 'homology'"),
                ({"name": "x", "holes": [2, True]}, "curves[4].holes", "holes must be a list of integers"),
                ({"name": "x", "holes": [2.0]}, "curves[4].holes", "holes must be a list of integers"),
                ({"name": "x", "holes": ["2"]}, "curves[4].holes", "holes must be a list of integers"),
                ({"name": "x", "holes": 2}, "curves[4].holes", "holes must be a list of integers"),
                ({"name": "x", "holes": [1, 2]}, "curves[4].holes",
                 "boundary 1 is the outer boundary; declare the curve parallel to it with "
                 "boundary_parallel_to: 1 and holes [2..b]"),
                ({"name": "x", "holes": [0]}, "curves[4]", "curve x: hole indices [0] outside 2..4"),
                ({"name": "x", "holes": [0, -1]}, "curves[4]", "curve x: hole indices [0, -1] outside 2..4"),
                ({"name": "x", "holes": [2, 5]}, "curves[4]", "curve x: hole indices [5] outside 2..4"),
                ({"name": "x", "holes": [3, 0, -2]}, "curves[4]", "curve x: hole indices [0, -2] outside 2..4"),
                ({"name": "x", "holes": [2], "boundary_parallel_to": 1}, "curves[4]",
                 "curve x: an outer-parallel curve encloses every hole"),
                ({"name": "x", "holes": [2], "boundary_parallel_to": 3}, "curves[4]",
                 "curve x: a curve parallel to boundary 3 encloses exactly that hole"),
                ({"name": "x", "holes": [2], "boundary_parallel_to": 9}, "curves[4]",
                 "curve x: boundary index 9 out of range"),
                ({"name": "x", "homology": [1, 0, True]}, "curves[4].homology", "homology must be a list of integers"),
                ({"name": "x", "homology": "1"}, "curves[4].homology", "homology must be a list of integers"),
                ({"name": "x", "homology": [1, 0]}, "curves[4].homology", "vector length 2 does not match surface rank 3"),
                ({"name": "x", "homology": [1, 0, 0], "boundary_parallel_to": 3}, "curves[4]",
                 "curve x: boundary-parallel class must be +/- d_3"),
                ({"name": "d2", "holes": [3]}, "curves[4]", "duplicate curve name 'd2'"),
            )],
            ({"surface": {"genus": 1, "boundary": 2}, "curves": [{"name": "x", "holes": [2]}], "words": {}},
             "curves[0].holes", "hole sets only make sense on planar surfaces"),
        ],
    )
    def test_rejection_table(self, override, location, message):
        # every raise of _parse_curve and _parse_word, with its exact location and message
        with pytest.raises(DocumentError) as err:
            parse(json.dumps({**MINIMAL, **override}))
        assert (err.value.location, err.value.message) == (location, message)

    def test_user_relator_non_positive_rejected(self):
        bad = json.loads(json.dumps(MINIMAL))
        bad["relators"] = [{
            "name": "r", "kind": "user",
            "left": [{"curve": "d2", "sign": -1}],
            "right": [{"curve": "d2", "sign": 1}],
        }]
        with pytest.raises(DocumentError) as exc:
            parse(json.dumps(bad))
        # Relator's own message, relocated to the relator entry
        assert exc.value.location == "relators[0]"
        assert exc.value.message == "relator r: both sides must be positive words"

    def test_user_relator_allowability_computed(self):
        data = json.loads(json.dumps(MINIMAL))
        data["relators"] = [{
            "name": "r", "kind": "user",
            "left": [{"curve": "d2", "sign": 1}],
            "right": [{"curve": "d2", "sign": 1}],
        }]
        doc = parse(json.dumps(data))
        entry = doc.relator_entries["r"]
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
            *(pytest.param(factory, id=flags) for flags, factory in GENERATORS.items()),
        ],
    )
    def test_parse_serialize_identity(self, factory):
        doc = factory()
        assert parse(serialize(doc)) == doc

    def test_generators_go_through_neither_json_nor_parse(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a generator went through JSON")

        monkeypatch.setattr(document, "parse", refuse)
        monkeypatch.setattr(json, "dumps", refuse)
        monkeypatch.setattr(json, "loads", refuse)
        for factory in GENERATORS.values():
            assert isinstance(factory(), Document)

    @pytest.mark.parametrize("flags, digest", GEN_SHA256.items(), ids=list(GEN_SHA256))
    def test_gen_output_is_pinned(self, flags, digest, capsys):
        assert main(["gen", *flags.split()]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


class TestRun:
    def test_invariants_payload(self):
        doc = tau_boundary_document(0, 4)
        payload = run("invariants", doc)
        assert payload["euler"] == 2
        assert payload["sigma"]["value"] == -1
        assert payload["q_matrix"] == ((-4,),)
        assert payload["q_invariant_factors"] == (4,)
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

    def test_family_builds_no_document(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("family built a document")

        monkeypatch.setattr(document, "tau_boundary_document", refused)
        monkeypatch.setattr(cli, "tau_boundary_document", refused)
        monkeypatch.setattr(Document, "__init__", refused)
        rows = run("family", g_max=3, b_max=12)["rows"]
        assert len(rows) == 44 and rows[-1]["genus"] == 3 and rows[-1]["sigma"]["baseline"] == "tau_del"

    @pytest.mark.parametrize("g", range(4))
    def test_family_word_and_baseline_are_the_documents(self, g):
        for b in range(1, 13):
            doc = tau_boundary_document(g, b)
            assert tau_boundary_word(g, b) == (doc.words["tau_del"], doc.baselines["tau_del"])


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

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(_fuzz_documents(), JSON_VALUES.map(json.dumps)))
    @example(json.dumps({"surface": {"genus": 0, "boundary": 100000000}}))
    @example('{"surface": {"genus": 0, "boundary": ' + "1" * 5000 + "}}")
    @example(json.dumps({**MINIMAL, "relators": [{"name": "r", "kind": "user", "left": [], "right": []}]}))
    @example(json.dumps(UNREAD_RELATOR_KEY))
    def test_main_never_crashes_on_a_document(self, text):
        for command in DOCUMENT_COMMANDS:
            with mock.patch.object(sys, "stdin", io.StringIO(text)), contextlib.redirect_stdout(io.StringIO()):
                assert main([command, "--in", "-"]) in (0, 2, 3, 4)

    @pytest.mark.parametrize(
        "argv, location",
        [
            (["--in", "-"], "surface"),
            (["--tau-boundary", "0", "100000000"], "--tau-boundary"),
            (["--chain", "100000000"], "--chain"),
        ],
    )
    def test_page_above_size_limit_rejected(self, argv, location, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"surface": {"genus": 0, "boundary": 100000000}})))
        assert main(["gen"] + argv) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["kind"] == "document" and error["location"] == location
        assert str(document.MAX_PAGE_RANK) in error["message"]

    def test_size_limit_admits_its_largest_page(self, capsys):
        limit = document.MAX_PAGE_RANK
        assert main(["gen", "--tau-boundary", "0", str(limit + 1)]) == 0
        assert parse(capsys.readouterr().out).surface.rank == limit
        assert main(["gen", "--chain", str(limit)]) == 0
        assert parse(capsys.readouterr().out).surface.rank == limit
        assert main(["gen", "--tau-boundary", "0", str(limit + 2)]) == 2

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}", encoding="utf-8")
        assert main(["invariants", "--in", str(bad)]) == 2
        assert json.loads(capsys.readouterr().out)["error"]["kind"] == "document"

    @pytest.mark.parametrize("case", ["missing", "directory", "not-utf8", "stdin-not-utf8"])
    def test_unreadable_input_exit_code(self, case, tmp_path, monkeypatch, capsys):
        path = tmp_path / "doc.json"
        if case == "directory":
            path = tmp_path
        elif case == "not-utf8":
            path.write_bytes(b'{"surface": "\xff"}')
        elif case == "stdin-not-utf8":
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\xff\xfe{"), encoding="utf-8"))
            path = "-"
        assert main(["invariants", "--in", str(path)]) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["kind"] == "document" and error["location"] == "--in"

    @pytest.mark.parametrize("argv", [["gen", "--lantern"], ["invariants", "--lantern"]], ids=["gen", "report"])
    def test_unwritable_json_out_exit_code(self, argv, tmp_path, capsys):
        assert main(argv + ["--json-out", str(tmp_path / "missing" / "out.json")]) == 3
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["kind"] == "precondition" and error["message"].startswith("--json-out")

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
        code = main(["esig-compare", "--pair", "1,0", "--pair2", "2,0"])
        out = capsys.readouterr().out
        assert code == 4
        assert json.loads(out)["result"]["certificate"]["verdict"] == "assertion-inconsistent"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["--chain", "3", "--baseline", "boundary=-1", "--baseline", "chain_power=-7",
                 "--word", "boundary", "--word2", "chain_power"],
                "relative signatures over different baselines: boundary vs chain_power",
            ),
            (["--in", "-", "--word", "w", "--word2", "v"], "signature modes differ: exact vs relative"),
            (["--r-ns", "--word", "short_side", "--word2", "long_side"],
             "word 'short_side' has no resolvable signature"),
        ],
        ids=["baselines", "modes", "unresolved"],
    )
    def test_esig_incomparable_exit_code(self, argv, message, monkeypatch, capsys):
        # w is positive on the planar page (exact sigma); v holds a -1 twist,
        # so its sigma is relative to its asserted baseline
        data = {
            "surface": {"genus": 0, "boundary": 3},
            "curves": [{"name": "d2", "holes": [2]}, {"name": "d3", "holes": [3]}],
            "words": {
                "w": [{"curve": "d2", "sign": 1}, {"curve": "d3", "sign": 1}],
                "v": [{"curve": "d2", "sign": 1}, {"curve": "d3", "sign": -1}],
            },
            "baselines": {"v": -1},
        }
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(data)))
        assert main(["esig-compare"] + argv) == 3
        assert json.loads(capsys.readouterr().out)["error"] == {"kind": "precondition", "message": message}

    def test_baseline_flag(self, capsys):
        code = main([
            "invariants", "--tau-boundary", "1", "2", "--word", "tau_del", "--baseline", "tau_del=-5",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out)["result"]["sigma"]["value"] == -5

    def test_gen_applies_baseline_flag(self, capsys):
        assert main(["gen", "--lantern", "--baseline", "tau_del=5"]) == 0
        assert parse(capsys.readouterr().out).baselines["tau_del"] == 5
        assert main(["gen", "--lantern", "--baseline", "nosuch=5"]) == 3
        assert json.loads(capsys.readouterr().out)["error"] == {
            "kind": "precondition",
            "message": "baseline for undeclared word 'nosuch'",
        }

    @pytest.mark.parametrize("pair", [["--pair", "100,3"], ["--pair2", "100,3"]], ids=["pair", "pair2"])
    @pytest.mark.parametrize(
        "source", [[], ["--lantern", "--word", "lantern_left", "--word2", "lantern_right"]], ids=["no-doc", "doc"]
    )
    def test_one_pair_rejected(self, pair, source, capsys):
        assert main(["esig-compare"] + source + pair) == 3
        assert json.loads(capsys.readouterr().out)["error"] == {
            "kind": "precondition",
            "message": "--pair and --pair2 go together; give both or neither",
        }

    @pytest.mark.parametrize(
        "flags",
        [
            ["--in", "missing.json"],
            ["--in", "-"],
            ["--tau-boundary", "0", "3"],
            ["--lantern"],
            ["--chain", "0"],
            ["--r-ns"],
            ["--baseline", "nosuch=5"],
            ["--word", "w"],
            ["--word2", "w"],
        ],
        ids=" ".join,
    )
    def test_both_pairs_reject_document_flags(self, flags, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(sys, "stdin", io.StringIO("{}"))
        assert main(["esig-compare", "--pair", "1,0", "--pair2", "1,0"] + flags) == 3
        assert json.loads(capsys.readouterr().out)["error"] == {
            "kind": "precondition",
            "message": f"--pair and --pair2 take no document; drop {flags[0]}",
        }

    @pytest.mark.parametrize("command", ["invariants", "detect", "substitute", "esig-compare"])
    def test_document_without_words(self, command, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({**MINIMAL, "words": {}}), encoding="utf-8")
        assert main([command, "--in", str(path)]) == 3
        assert json.loads(capsys.readouterr().out)["error"] == {
            "kind": "precondition",
            "message": "document declares no words",
        }

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

    @pytest.mark.parametrize("kind", RENAMED_RELATORS)
    def test_a_relator_declared_under_its_own_name_reports_it(self, kind, tmp_path, capsys):
        # every kind's builder takes the declared name; the notes and
        # certificates of detect, and substitute's report, carry it
        data, word = RENAMED_RELATORS[kind]()
        data["relators"][0]["name"] = "own"
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(data))
        assert main(["detect", "--in", str(path), "--word", word]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        named = [c["witness"]["relator_name"] for c in result["certificates"] if c["witness"]]
        notes = [note for c in result["certificates"] for note in c["notes"] if note.startswith("relator ")]
        assert named + [note.split()[1] for note in notes] == ["own"]
        assert main(["substitute", "--in", str(path), "--word", word, "--relator", "own"]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["relator"] == "own"

    @pytest.mark.parametrize("json_out", [False, True])
    def test_report_integer_over_the_str_limit_exits_3(self, json_out, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(cli, "run", lambda *args, **kwargs: {"reduced": [1, 10**5000]})
        out = tmp_path / "report.json"
        argv = ["family"] + (["--json-out", str(out)] if json_out else [])
        assert main(argv) == 3
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["kind"] == "precondition"
        assert str(sys.get_int_max_str_digits()) in error["message"]
        assert not out.exists()

    def test_family_command(self, capsys):
        assert main(["family", "--g-max", "0", "--b-max", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["result"]["rows"]) == 2

    def test_default_family_sweep_is_pinned(self, capsys):
        # sha256 of `steincalc family` stdout (g 0..3, b 2..12)
        assert main(["family"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "0b8c554b31b9e42b1da043a7e41605fea8ba2c9da7f65e80e34e4af314b4ff1c"

    @pytest.mark.parametrize("g_max, b_max", [(0, 400), (1, 128), (64, 2), (0, 10**9)])
    def test_family_above_size_limit_rejected_at_once(self, g_max, b_max, capsys):
        start = time.perf_counter()
        assert main(["family", "--g-max", str(g_max), "--b-max", str(b_max)]) == 2
        assert time.perf_counter() - start < 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["kind"] == "document" and error["location"] == "--g-max/--b-max"
        assert str(document.MAX_PAGE_RANK) in error["message"]

    @pytest.mark.parametrize("g_max, b_max", [(-1, 400), (0, 1)])
    def test_empty_family_sweep_has_no_rows(self, g_max, b_max, capsys):
        assert main(["family", "--g-max", str(g_max), "--b-max", str(b_max)]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["rows"] == []

    def test_empty_boundary_range_returns_at_once(self):
        # with no boundary count >= 2 the sweep used to loop over every genus
        # up to --g-max anyway, emitting no row
        import steincalc

        env = {**os.environ, "PYTHONPATH": str(Path(steincalc.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-m", "steincalc.cli", "family", "--g-max", "1000000000000", "--b-max", "1"],
            capture_output=True, text=True, env=env, timeout=10,
        )
        assert out.returncode == 0
        assert json.loads(out.stdout)["result"]["rows"] == []

    def test_gen_keeps_only_the_keys_a_relator_reads(self, tmp_path, capsys):
        # an unread key on a relator or on one of its twists is dropped, as
        # at the top level, and the sides are written as the words section is
        data = json.loads(json.dumps(UNREAD_RELATOR_KEY))
        data["relators"][0]["left"][0]["weight"] = 0.25
        data["relators"].append({"name": "s", "kind": "user", "left": [{"curve": "a", "sign": 1}],
                                 "right": [{"curve": "a"}], "sigma_delta": 0, "curves": [1.5]})
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["gen", "--in", str(path)]) == 0
        out = capsys.readouterr().out
        side = [{"curve": "a", "sign": 1}]
        assert json.loads(out)["relators"] == [
            {"name": "r", "kind": "user", "left": side, "right": side},
            {"name": "s", "kind": "user", "left": side, "right": side, "sigma_delta": 0},
        ]
        assert parse(out) == parse(json.dumps(data))
        assert serialize(parse(out)) == out

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

    def test_admitted_relator_that_is_not_allowable(self, tmp_path, capsys):
        # U twists about the class-0 curve z, so its nonzero obstruction
        # (2 + 1) certifies nothing
        data = {
            "surface": {"genus": 0, "boundary": 3},
            "curves": [{"name": "z", "holes": []}, {"name": "a", "holes": [2]}],
            "words": {"w": [{"curve": "a"}, {"curve": "z"}]},
            "relators": [{"name": "U", "kind": "user", "left": [{"curve": "z"}],
                          "right": [{"curve": "z"}, {"curve": "a"}], "sigma_delta": 2}],
        }
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["detect", "--in", str(path)]) == 0
        (cert,) = json.loads(capsys.readouterr().out)["result"]["certificates"]
        assert cert["verdict"] == "no-obstruction-found"
        assert cert["notes"] == ["relator U is admitted with nonzero obstruction but is not allowable"]
        assert main(["verify-relator", "--in", str(path)]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        check = next(c for c in result["checks"] if c["name"] == "allowable_consistent")
        assert check["passed"] is True and check["detail"].startswith("stored allowable=False")
        assert result["ledger"] == {"sigma_delta": 2, "euler_delta": 1, "obstruction": 3}

    def test_relator_with_an_empty_left_side_certifies_nothing(self, tmp_path, capsys):
        # an empty left side is contained in every word, so its obstruction
        # 5 + 1 would otherwise certify any word non-planar
        data = {
            "surface": {"genus": 0, "boundary": 4},
            "curves": [{"name": "a", "holes": [2, 3]}, {"name": "b", "holes": [3, 4]}],
            "words": {"w": [{"curve": "a"}, {"curve": "b"}]},
            "relators": [{"name": "bogus", "kind": "user", "left": [], "right": [{"curve": "a"}],
                          "sigma_delta": 5}],
        }
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["detect", "--in", str(path)]) == 0
        (cert,) = json.loads(capsys.readouterr().out)["result"]["certificates"]
        assert cert["verdict"] == "no-obstruction-found"
        assert cert["notes"] == ["relator bogus has an empty left side, which marks no place in the word"]
        assert main(["substitute", "--in", str(path), "--relator", "bogus"]) == 3

    def test_import_loads_no_fractions(self):
        # nor does computing a signature: the package's arithmetic is integer only
        import steincalc

        package = Path(steincalc.__file__).parent
        assert not [p.name for p in package.glob("*.py") if "fractions" in p.read_text(encoding="utf-8")]
        probe = (
            "import sys, steincalc.cli\n"
            "from steincalc.document import tau_boundary_document\n"
            "from steincalc.intlinalg import symmetric_signature\n"
            "from steincalc.invariants import sigma\n"
            "assert symmetric_signature([[0, 2], [2, 0]]) == 0\n"
            "assert sigma(tau_boundary_document(0, 4).words['tau_del']).value == -1\n"
            "print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(steincalc.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env,
                             timeout=120, check=True).stdout
        assert out.strip() == "[]"


README = Path(__file__).parents[1] / "README.md"


def _readme_blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


class TestReadme:
    """The README's examples run and do what their comments say."""

    # CLI example -> (exit code, what its comment states about the result)
    CLI = {
        "invariants --tau-boundary 0 4": (
            0, lambda r: (r["euler"], r["sigma"]["value"], r["q_matrix"], r["h1"]) == (2, -1, [[-4]], [[4], 0])),
        "substitute --lantern --word tau_del --relator lantern": (
            0, lambda r: r["ledger"] == {"sigma_delta": 1, "euler_delta": -1}),
        "detect --chain 2 --word boundary": (
            0, lambda r: [(c["verdict"], c["witness"]["obstruction"]) for c in r["certificates"]]
            == [("non-planar", 4)]),
        "verify-relator --r-ns --relator non-standard": (0, lambda r: r["necessary_conditions_hold"]),
        "esig-compare --pair 2,-1 --pair2 2,0": (
            4, lambda r: r["certificate"]["verdict"] == "assertion-inconsistent"),
        "family --g-max 3 --b-max 12": (0, lambda r: len(r["rows"]) == 4 * 11),
    }

    def test_library_example(self):
        (block,) = _readme_blocks("python")
        exec(compile(block, str(README), "exec"), {})

    def test_cli_examples(self, capsys):
        examples = [line.split(None, 1)[1] for block in _readme_blocks("sh")
                    for line in block.splitlines() if line.startswith("steincalc ")]
        assert sorted(examples) == sorted(self.CLI)
        for example_args, (code, holds) in self.CLI.items():
            assert main(example_args.split()) == code, example_args
            assert holds(json.loads(capsys.readouterr().out)["result"]), example_args

    def test_every_export_has_a_caller(self):
        # each name the package exports is read by another module of the
        # package or by the library example
        package = Path(cli.__file__).parent
        init = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
        exported = {alias.asname or alias.name for node in ast.walk(init)
                    if isinstance(node, ast.ImportFrom) for alias in node.names}
        sources = [p.read_text(encoding="utf-8") for p in package.glob("*.py") if p.name != "__init__.py"]
        used = set()
        for text in sources + _readme_blocks("python"):
            for node in ast.walk(ast.parse(text)):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
        assert sorted(exported - used) == []
