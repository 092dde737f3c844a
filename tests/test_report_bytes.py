"""Report bytes: the JSON writer, the pinned stdout of every report command,
and a standard output that cannot be written."""

import errno
import functools
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from steincalc import document
from steincalc.cli import main
from steincalc.document import chain_document
from test_document_cli import GENERATORS

# a curve name and a word name with non-ASCII characters, control
# characters and a lone surrogate, which the writer escapes
ODD_CURVE = "cé\x07\n\t\"\\☃\U0001d11e\ud800"
ODD_WORD = "wörd\x1fÿ"

# sha256 over every command line of one command: its argv, exit code and stdout
REPORT_SHA256 = {
    ("generators", "invariants"): "811814e3c8ccf4f14513c045e2f863fd16dd9ff945952b6030d3d7722fe7068d",
    ("generators", "detect"): "d2eda0f9d44521fcee6f24433d234ea21ce9933e2be82002a6bf936ee7bebc7c",
    ("generators", "substitute"): "11e8c4786ea2f5f3270fd6d6a7c26747ccb5092addb447742dc4a36891d50aa8",
    ("generators", "verify-relator"): "1c38d2591ecec6ed1e699c13118d714a0a93c5c55e2a94ee9238af8f1ea23891",
    ("generators", "esig-compare"): "c084346cd4a8f0b3aafb5080e0dcff5cd70254c81a0af85fb89499e8275d11e5",
    ("seeded", "invariants"): "a9a927a6316a17b2ee09df5d8bbb8850ca2fc92231e08e654afa92c0b1a70b2a",
    ("seeded", "detect"): "089098128d0fec118843fbc36a3243c7b47fdc4ec55910837ec6ead7d57d6249",
    ("seeded", "substitute"): "46a4eb5dcb9b4ebee3f1b127a9bc6dcafb119da7b5385291395c6af130aaa235",
    ("seeded", "verify-relator"): "6ea3475078c61e7e8a06f5085477104040ec909a3c1c32bae05ed14d0a6ef805",
    ("seeded", "esig-compare"): "d7addc2e4467856131cc4cce5dddb7856a4ba1f861b688695cfc42893fe0f4a7",
    ("seeded", "gen"): "dc51376d8a12f1310e3f58cf0e6dae51265599aa3f9afc9f18c14577ba10b49d",
}

# sha256 of `steincalc verify-relator --chain N` stdout, on pages of genus
# up to 24, past the --chain 1..12 documents of the generator group
CHAIN_VERIFY_SHA256 = {
    32: "ccc76028549f0a93348414edf0fb101aac50cc2a96673b9d026790a2eaaf4420",
    48: "0428096f5bf4137a05b22f64dbee7496a036311ebcc20c691623524c6748998f",
}


def _planar_document(seed):
    """A seeded planar document: a page with 1..10 holes and one word of
    up to 110 twists about random convex curves (b2 up to about 100).  On
    four or more holes it usually carries a lantern, whose left side is
    scattered through a second word, and now and then a user relator, a
    bounding declaration, disjointness facts and a baseline.  One document
    in five names a curve and its second word with odd characters."""
    rng = random.Random(seed)
    b = rng.randint(1, 10)
    holes = list(range(2, b + 1))
    odd = seed % 5 == 0
    curves, names = [], []
    for i in range(rng.randint(1, 9)):
        name = ODD_CURVE if odd and i == 0 else f"c{i}"
        curves.append({"name": name, "holes": sorted(h for h in holes if rng.random() < 0.4)})
        names.append(name)
    n = rng.randint(0, 40) if rng.random() < 0.75 else rng.randint(40, 110)
    w = [{"curve": rng.choice(names), "sign": 1} for _ in range(n)]
    doc = {"surface": {"genus": 0, "boundary": b}, "curves": curves, "words": {"w": w}}
    second = ODD_WORD if odd else "v"
    if b >= 4 and rng.random() < 0.7:
        i, j, k = sorted(rng.sample(holes, 3))
        lantern = {"l1": [i], "l2": [j], "l3": [k], "l4": [i, j, k], "l12": [i, j], "l23": [j, k], "l13": [i, k]}
        curves.extend({"name": name, "holes": hs} for name, hs in lantern.items())
        doc["relators"] = [{"name": "lantern", "kind": "lantern", "curves": list(lantern)}]
        v = [dict(t) for t in w]
        for name in ("l1", "l2", "l3", "l4"):
            v.insert(rng.randint(0, len(v)), {"curve": name, "sign": 1})
        doc["words"][second] = v
    else:
        doc["words"][second] = [{"curve": rng.choice(names), "sign": 1} for _ in range(rng.randint(0, 12))]
    if rng.random() < 0.3:
        x, y = rng.choice(names), rng.choice(names)
        doc.setdefault("relators", []).append({
            "name": "swap", "kind": "user", "sigma_delta": rng.randint(-2, 2),
            "left": [{"curve": x, "sign": 1}, {"curve": y, "sign": 1}],
            "right": [{"curve": y, "sign": 1}, {"curve": x, "sign": 1}],
        })
    if rng.random() < 0.3:
        doc["declarations"] = [{"genus": 1, "boundary": 1, "multicurve": [rng.choice(names)]}]
    if rng.random() < 0.3:
        doc["disjoint"] = [[rng.choice(names), rng.choice(names)] for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.3:
        doc["baselines"] = {"w": rng.randint(-5, 5)}
    return doc


def _command_lines(source, words, relators):
    """Every report command line on one document: each word under
    invariants and detect, each word against the first under esig-compare,
    each relator under verify-relator and with each word under substitute."""
    for word in words:
        yield ["invariants", *source, "--word", word]
        yield ["detect", *source, "--word", word]
        yield ["esig-compare", *source, "--word", words[0], "--word2", word]
        for relator in relators:
            yield ["substitute", *source, "--word", word, "--relator", relator]
    for relator in relators:
        yield ["verify-relator", *source, "--relator", relator]


@functools.cache
def _cases(group, tmp_dir):
    """The command lines of one group, by command."""
    lines = []
    if group == "generators":
        for flags, factory in GENERATORS.items():
            doc = factory()
            lines.extend(_command_lines(flags.split(), list(doc.words), list(doc.relator_entries)))
    else:
        for seed in range(200):
            doc = _planar_document(seed)
            path = Path(tmp_dir) / f"planar-{seed}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            source = ["--in", str(path)]
            relators = [r["name"] for r in doc.get("relators", ())]
            lines.extend(_command_lines(source, list(doc["words"]), relators))
            lines.append(["gen", *source])
    by_command = {}
    for argv in lines:
        by_command.setdefault(argv[0], []).append(argv)
    return by_command


def _report_digest(argvs, capsys):
    h = hashlib.sha256()
    for argv in argvs:
        code = main(argv)
        # the --in path differs between runs; only its file name goes in
        shown = [Path(a).name if a.endswith(".json") else a for a in argv]
        h.update("\0".join(shown).encode("utf-8", "surrogatepass"))
        h.update(f"\0{code}\0".encode())
        h.update(capsys.readouterr().out.encode("utf-8", "surrogatepass"))
    return h.hexdigest()


@pytest.fixture(scope="module")
def doc_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("reports"))


@pytest.mark.parametrize("group, command", list(REPORT_SHA256), ids=[" ".join(k) for k in REPORT_SHA256])
def test_report_bytes_are_pinned(group, command, doc_dir, capsys):
    argvs = _cases(group, doc_dir)[command]
    assert _report_digest(argvs, capsys) == REPORT_SHA256[group, command]


@pytest.mark.parametrize("n", list(CHAIN_VERIFY_SHA256))
def test_large_chain_verify_relator_bytes_are_pinned(n, capsys):
    assert main(["verify-relator", "--chain", str(n)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == CHAIN_VERIFY_SHA256[n]


# -- the writer ---------------------------------------------------------------

_TEXT = st.text(st.characters() | st.sampled_from(["\x00", "\x1f", "\x7f", "\"", "\\", "é", " ", "\ud800", "\udfff"]))
_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.integers(-2**200, 2**200)
    | st.lists(st.integers(), max_size=12) | _TEXT
)
# square int matrices, as an intersection form is written, with entries on
# both sides of the writer's int table (-1024..1024)
_MATRICES = st.integers(0, 6).flatmap(
    lambda n: st.lists(st.lists(st.integers(-1100, 1100), min_size=n, max_size=n), min_size=n, max_size=n)
)
_VALUES = st.recursive(
    _SCALARS | _MATRICES,
    lambda inner: st.lists(inner, max_size=6) | st.lists(inner, max_size=6).map(tuple)
    | st.dictionaries(_TEXT, inner, max_size=6),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_VALUES)
@example([])
@example(())
@example({})
@example({"": [], "b": {}, "a": ()})
@example([1, True, 0, False, None, -1])
@example((2**100, -2**70, 0))
@example([[[]], [()], [{}]])
@example({ODD_CURVE: ODD_WORD, "\ud800": ["\udfff", "\x00"]})
@example([-1025, -1024, 1024, 1025])  # the edges of the writer's int table
@example({"a": -1025, "b": -1024, "c": 1024, "d": 1025})
@example([2, True, -1025])
@example([[-2, 1], [1, 1025]])
@example([1, 10 ** sys.get_int_max_str_digits()])  # one digit past the limit
def test_dump_json_matches_json_dumps(value):
    try:
        expected = json.dumps(value, indent=2, sort_keys=True)
    except ValueError:  # an int past the digit limit; the CLI exits 3 on it
        with pytest.raises(ValueError):
            document.dump_json(value)
    else:
        assert document.dump_json(value) == expected
    assert len(document._INT_TEXT) == 2049  # an int past the table is not kept


@pytest.mark.parametrize(
    "value",
    [1.5, [1, 2.0], {1: 2}, {"a": {1, 2}}, object(), b"bytes", {"a": [None, 1j]}],
    ids=["float", "float-item", "int-key", "set", "object", "bytes", "complex"],
)
def test_dump_json_rejects_other_types(value):
    with pytest.raises(TypeError):
        document.dump_json(value)


def test_reports_skip_the_pure_python_encoder(monkeypatch, tmp_path, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a report went through json's pure-Python encoder")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    path = tmp_path / "chain2.json"
    path.write_text(document.serialize(chain_document(2)), encoding="utf-8")
    for argv, code in (
        (["invariants", "--lantern", "--word", "tau_del"], 0),
        (["invariants", "--in", str(path), "--word", "boundary"], 0),
        (["detect", "--chain", "2", "--word", "boundary"], 0),
        (["gen", "--r-ns"], 0),
        (["family", "--g-max", "1", "--b-max", "4"], 0),
        (["invariants", "--lantern", "--word", "nosuch"], 3),
    ):
        assert main(argv) == code
        assert json.loads(capsys.readouterr().out)


# -- a standard output that cannot be written ---------------------------------

class _BrokenStdout(io.StringIO):
    """A stdout whose write or flush raises ``error``."""

    def __init__(self, method, error):
        super().__init__()
        self.method, self.error = method, error

    def write(self, text):
        if self.method == "write":
            raise self.error
        return super().write(text)

    def flush(self):
        if self.method == "flush":
            raise self.error


STDOUT_ERRORS = {
    "ENOSPC": OSError(errno.ENOSPC, "No space left on device"),
    "EPIPE": BrokenPipeError(errno.EPIPE, "Broken pipe"),
}
LONG_AND_SHORT_REPORTS = (
    ["family", "--g-max", "2", "--b-max", "12"],
    ["invariants", "--lantern", "--word", "tau_del"],
    ["esig-compare", "--pair", "1,0", "--pair2", "1,0"],
    ["gen", "--lantern"],
)


@pytest.mark.parametrize("argv", LONG_AND_SHORT_REPORTS, ids=lambda argv: argv[0])
@pytest.mark.parametrize("method", ["write", "flush"])
@pytest.mark.parametrize("error", list(STDOUT_ERRORS), ids=list(STDOUT_ERRORS))
def test_unwritable_stdout_exit_code(argv, method, error, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", _BrokenStdout(method, STDOUT_ERRORS[error]))
    assert main(argv) == 3
    failure = json.loads(capsys.readouterr().err)["error"]
    assert failure["kind"] == "precondition"
    assert failure["message"] == f"cannot write the report to stdout: {STDOUT_ERRORS[error].strerror}"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a full device")
@pytest.mark.parametrize("argv", LONG_AND_SHORT_REPORTS, ids=lambda argv: argv[0])
def test_unwritable_stdout_leaves_nothing_to_flush(argv, monkeypatch, capsys):
    # a buffered stdout keeps what it could not write; the flush at
    # interpreter exit must not fail on it again
    full = open("/dev/full", "w", encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", full)
    try:
        assert main(argv) == 3
        full.flush()
    finally:
        full.close()
    assert json.loads(capsys.readouterr().err)["error"]["kind"] == "precondition"


def _run_cli_process(argv, stdout, buffered):
    import steincalc

    env = {**os.environ, "PYTHONPATH": str(Path(steincalc.__file__).parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "steincalc.cli", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, env=env, timeout=120)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a full device")
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", LONG_AND_SHORT_REPORTS, ids=lambda argv: argv[0])
def test_full_device_exit_code(argv, buffered):
    with open("/dev/full", "w") as full:
        proc = _run_cli_process(argv, full, buffered)
    assert proc.returncode == 3, proc.stderr
    assert json.loads(proc.stderr)["error"]["kind"] == "precondition"


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", LONG_AND_SHORT_REPORTS[:2], ids=lambda argv: argv[0])
def test_closed_pipe_exit_code(argv, buffered):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _run_cli_process(argv, write_end, buffered)
    finally:
        os.close(write_end)
    assert proc.returncode == 3, proc.stderr
    assert json.loads(proc.stderr)["error"]["message"] == "cannot write the report to stdout: Broken pipe"
