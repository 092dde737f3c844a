"""The three seeded workloads of the steincalc benchmark.

A workload is a list of ops built from the seed; one pass runs every op
once, and a run repeats passes.  An op has a timed part (``run``) and an
untimed ``check`` that judges the output.  Ops call the library through
module attributes (``cli.main``, ``words.contains``, ...), so wrappers that
the traced run installs on those attributes see every call.

Why these workloads (each stresses a different layer):

* ``planar-invariants``: ``steincalc invariants --in DOC`` on random planar
  words.  Nearly all the time goes to integer linear algebra (kernel, SNF
  and the signature of the form); the word search is never called.
* ``search``: ``contains``, ``substitute``, ``detect_relator`` and
  ``detect_bounding`` on long planar words built so that each op is a hit or
  a miss by construction, plus repeated-letter probes that end in
  "unknown".  The word search does nearly all the work; no SNF runs.
* ``cli-docs``: ``steincalc.cli.main`` over every generator document and
  every applicable command, the expected exit-3 rejections and ``family``
  sweeps.  Ops take milliseconds, so document parsing, relator building,
  argparse, JSON output and many tiny SNFs dominate.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, List, Optional

from steincalc import cli, document, planarity, words
from steincalc.errors import NotApplicableError
from steincalc.planarity import NON_PLANAR, BoundingDeclaration
from steincalc.relators import RelatorEntry, lantern
from steincalc.surfaces import Surface, convex_curve
from steincalc.words import Relator, word_of

import checks

WORKLOADS = ("planar-invariants", "search", "cli-docs")
DEFAULT_SEED = 0
GOLDEN_PATH = Path(__file__).with_name("golden.json")

# Input sizes that drive cost.  planar-invariants: twist count n (cost grows
# about as n^3) on a b-holed sphere, b cycling through 6..10; 72 words with
# n in 24..47, so the latency percentiles rest on many similar words, plus a
# few long ones whose cubic cost dominates the pass.
PI_LENGTHS = tuple(24 + (24 * i) // 72 for i in range(72)) + (72, 84, 96, 120)
PI_HOLES = range(6, 11)
# search: word length n around each base (+-8), b cycling through 6..10;
# each base is used once per design, and every word carries six ops.  The
# middle bases are close together so the median op sits among many
# similar ones.
SEARCH_BASES = (80, 160, 200, 240, 320)
SEARCH_JITTER = 8
SEARCH_HOLES = range(6, 11)
DESIGNS = ("ordered", "wedged", "reversed")
# Repeated-letter probes: contains(x^k y x^k, y x^2k) with x, y overlapping
# without nesting; the search tries every order of the identical x letters.
PROBE_KS = (6, 7, 8)
# cli-docs: every --tau-boundary G B document in these ranges, the lantern,
# chains 1..6 and the non-standard relator, and family sweeps over the same
# ranges.
CLI_GENUS = range(0, 4)
CLI_BOUNDARY = range(2, 13)
CLI_CHAINS = range(1, 7)
CLI_PAIRS = 4


@dataclass(frozen=True)
class Verdict:
    """The judgement of one op's output."""

    error: Optional[str]  # why the output is wrong; None when it is right
    decided: bool  # a full result or a replayable witness, not "unknown"
    answer: str  # compared with the recording: a report digest or hit/unknown


@dataclass
class Op:
    key: str
    run: Callable[[], Any]
    check: Callable[[Any], Verdict]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def run_cli(argv: List[str]):
    """steincalc's exit code and standard output for one command line."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejecting the command line
            code = exc.code
    return code, buf.getvalue()


def build(workload: str, seed: int, workdir: Path, golden: Optional[dict], scale: float = 1.0) -> List[Op]:
    """The op list of one workload.  ``golden`` is the recording to compare
    against (None while recording); ``scale`` < 1 shrinks the inputs for the
    smoke test, and the per-seed recordings then no longer apply."""
    if scale != 1.0 and golden is not None:
        golden = {"seed": None, "cli-docs": golden["cli-docs"]}
    if workload == "planar-invariants":
        return _planar_invariants(seed, workdir, golden, scale)
    if workload == "search":
        return _search(seed, golden, scale)
    if workload == "cli-docs":
        return _cli_docs(seed, workdir, golden, scale)
    raise ValueError(f"unknown workload {workload!r}")


def _recorded(golden: Optional[dict], workload: str, seed: int) -> Optional[dict]:
    if golden is None or seed != golden["seed"]:
        return None
    return golden[workload]


# ---------------------------------------------------------------------------
# planar-invariants


def _planar_invariants(seed, workdir, golden, scale):
    rng = random.Random(f"planar-invariants:{seed}")
    recorded = _recorded(golden, "planar-invariants", seed)
    lengths = [max(4, int(n * scale)) for n in PI_LENGTHS]
    ops = []
    for slot, n in enumerate(lengths):
        b = PI_HOLES[slot % len(PI_HOLES)]
        holes = list(range(2, b + 1))
        hole_sets = [sorted(rng.sample(holes, rng.randint(1, len(holes)))) for _ in range(n)]
        names = {tuple(hs): "h" + "_".join(map(str, hs)) for hs in hole_sets}
        doc = {
            "surface": {"genus": 0, "boundary": b},
            "curves": [{"name": name, "holes": list(hs)} for hs, name in sorted(names.items())],
            "words": {"w": [{"curve": names[tuple(hs)], "sign": 1} for hs in hole_sets]},
        }
        path = workdir / f"planar-{slot}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        key = f"pi-{slot}"
        ops.append(Op(key, _bind(run_cli, ["invariants", "--in", str(path)]),
                      _planar_check(key, b, [frozenset(hs) for hs in hole_sets], recorded)))
    rng.shuffle(ops)
    return ops


def _bind(fn, *args):
    return lambda: fn(*args)


def _planar_check(key, b, hole_sets, recorded):
    def check(outcome):
        code, text = outcome
        answer = digest(text)
        try:
            if code != 0:
                raise ValueError(f"exit code {code}")
            report = json.loads(text)
            if report["command"] != "invariants" or report["result"]["word"] != "w":
                raise ValueError("report is not the invariants of word w")
            checks.check_planar_report(report["result"], b, hole_sets, random.Random(key))
            if recorded is not None and recorded.get(key) != answer:
                raise ValueError("report differs from the recording")
        except (ValueError, KeyError, TypeError) as exc:
            return Verdict(f"{key}: {exc}", False, answer)
        return Verdict(None, True, answer)

    return check


# ---------------------------------------------------------------------------
# search


def designed_word(rng, b, n, design):
    """A positive planar word of length n holding one lantern configuration.

    Filler letters commute with every lantern curve (their hole sets avoid
    the lantern's three holes, contain all three, or are one of them), so:
    the lantern's left side is always contained and substitutable; its right
    side a12 a23 a13 (pairwise overlapping, so their order is fixed) is
    contained unless the design reverses it; and substituting the right side
    also fails when a blocker that overlaps a12 and a23 sits between them.
    """
    surface = Surface(0, b)
    holes = list(range(2, b + 1))
    i, j, k = sorted(rng.sample(holes, 3))
    rest = [h for h in holes if h not in (i, j, k)]

    def curve(name, hs):
        return convex_curve(surface, name, hs)

    a1, a2, a3, a4 = curve("a1", {i}), curve("a2", {j}), curve("a3", {k}), curve("a4", {i, j, k})
    a12, a23, a13 = curve("a12", {i, j}), curve("a23", {j, k}), curve("a13", {i, k})
    entry = lantern(a1, a2, a3, a4, a12, a23, a13)
    blocker = curve("blocker", {j, rng.choice(rest)})
    fixed = {
        "ordered": [a12, a23, a13],
        "wedged": [a12, blocker, a23, a13],
        "reversed": [a13, a23, a12],
    }[design]
    fillers = {}
    seq = [a1, a2, a3, a4] + fixed
    while len(seq) < n:
        r = rng.random()
        if r < 0.6:
            hs = rng.sample(rest, rng.randint(1, len(rest)))
        elif r < 0.85:
            hs = [i, j, k] + rng.sample(rest, rng.randint(0, len(rest)))
        else:
            hs = [rng.choice((i, j, k))]
        name = "f" + "_".join(map(str, sorted(hs)))
        if name not in fillers:
            fillers[name] = curve(name, hs)
        seq.append(fillers[name])
    rng.shuffle(seq)
    spots = sorted(p for p, c in enumerate(seq) if c in fixed)
    for p, c in zip(spots, fixed):
        seq[p] = c
    return word_of(surface, seq), entry, seq


def asserted_entry(entry: RelatorEntry) -> RelatorEntry:
    """The reversed lantern with a user-asserted nonzero obstruction, so that
    detect_relator emits a certificate whose witness the checker replays.
    (The true obstruction of any planar relator is 0.)"""
    inverse = entry.relator.inverse()
    relator = Relator("asserted", inverse.left, inverse.right, inverse.euler_delta,
                      sigma_delta=1, allowable=True)
    return RelatorEntry(relator=relator, obstruction=relator.obstruction, disjoint=entry.disjoint)


def _search(seed, golden, scale):
    rng = random.Random(f"search:{seed}")
    recorded = _recorded(golden, "search", seed)
    ops = []

    def add(kind, run, judge):
        key = f"s{len(ops)}-{kind}"
        ops.append(Op(key, run, _search_check(key, judge, recorded)))

    for base in SEARCH_BASES:
        for design in DESIGNS:
            n = max(12, int((base + rng.randint(-SEARCH_JITTER, SEARCH_JITTER)) * scale))
            b = SEARCH_HOLES[len(ops) // 6 % len(SEARCH_HOLES)]
            w, entry, seq = designed_word(rng, b, n, design)
            declared = entry.disjoint
            inverse = entry.relator.inverse()
            asserted = asserted_entry(entry)
            first = {}
            for p, c in enumerate(seq):
                if c.name.startswith("f"):
                    first.setdefault(c.name, (p, c))
            present = sorted(first.values(), key=lambda pc: pc[1].name)
            picked = sorted(rng.sample(present, min(3, len(present))), key=lambda pc: pc[0])
            multicurve = [c for _, c in picked]
            if design == "reversed":
                multicurve[-1] = convex_curve(w.surface, "absent", multicurve[-1].hole_set)
            decl = BoundingDeclaration(1, len(multicurve), tuple(multicurve))
            for target in (entry.relator.left, inverse.left):
                add("contains", _bind(_contains, w, target, declared),
                    _contains_judge(w, target, declared))
            for relator in (entry.relator, inverse):
                add("substitute", _bind(_substitute, w, relator, declared),
                    _substitute_judge(w, relator, declared))
            add("detect_relator", _bind(_detect_relator, w, [entry, asserted]),
                _detect_relator_judge(w, asserted))
            add("detect_bounding", _bind(_detect_bounding, w, decl), _detect_bounding_judge(w, decl))

    probe_surface = Surface(0, rng.choice(SEARCH_HOLES))
    p, q, r = rng.sample(range(2, probe_surface.boundary_count + 1), 3)
    x = convex_curve(probe_surface, "x", {p, q})
    y = convex_curve(probe_surface, "y", {q, r})
    for k in PROBE_KS:
        k = max(2, round(k * scale))
        w = word_of(probe_surface, [x] * k + [y] + [x] * k)
        target = word_of(probe_surface, [y] + [x] * (2 * k))
        add("probe", _bind(_contains, w, target, ()), _contains_judge(w, target, ()))
    rng.shuffle(ops)
    return ops


# The op bodies look the library functions up when they run, so the traced
# run's wrappers on those module attributes see the calls.


def _contains(w, target, declared):
    return words.contains(w, target, declared)


def _detect_relator(w, entries):
    return planarity.detect_relator(w, entries)


def _substitute(w, relator, declared):
    try:
        return words.substitute(w, relator, declared)
    except NotApplicableError:
        return None


def _detect_bounding(w, decl):
    try:
        return planarity.detect_bounding(w, decl)
    except NotApplicableError:
        return None


def _search_check(key, judge, recorded):
    def check(outcome):
        try:
            decided = judge(outcome)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            return Verdict(f"{key}: {exc}", False, "invalid")
        answer = "hit" if decided else "unknown"
        if recorded is not None and recorded.get(key) == "hit" and not decided:
            return Verdict(f"{key}: recorded hit is now unknown", False, answer)
        return Verdict(None, decided, answer)

    return check


def _contains_judge(w, target, declared):
    def judge(witness):
        if witness is None:
            return False
        checks.check_containment(w, target, witness, declared)
        return True

    return judge


def _substitute_judge(w, relator, declared):
    def judge(outcome):
        if outcome is None:
            return False
        new_word, record = outcome
        if (record.sigma_delta, record.euler_delta) != (relator.sigma_delta, relator.euler_delta):
            raise ValueError("substitution record carries the wrong ledger values")
        checks.check_substitution(w, relator, new_word, record, declared)
        return True

    return judge


def _detect_relator_judge(w, asserted):
    def judge(certificates):
        hits = [c for c in certificates if c.verdict == NON_PLANAR]
        if not hits:
            if len(certificates) != 1:
                raise ValueError("inconclusive scan should give one certificate")
            return False
        for cert in hits:
            wit = cert.witness
            if wit.relator_name != asserted.name or wit.obstruction != asserted.obstruction:
                raise ValueError(f"certificate names {wit.relator_name} with obstruction {wit.obstruction}")
            checks.replay(w, asserted.relator.left, wit.positions, wit.swaps, asserted.disjoint)
        return True

    return judge


def _detect_bounding_judge(w, decl):
    names = tuple(c.name for c in decl.multicurve)
    pairs = [(a, b) for n, a in enumerate(names) for b in names[n + 1:]]
    target = word_of(w.surface, decl.multicurve)

    def judge(cert):
        if cert is None:
            return False
        wit = cert.witness
        if cert.verdict != NON_PLANAR or wit.multicurve != names:
            raise ValueError("bounding certificate does not match the declaration")
        checks.replay(w, target, wit.positions, wit.swaps, pairs)
        return True

    return judge


# ---------------------------------------------------------------------------
# cli-docs


def cli_documents():
    """Every generator document: (id, generator flags, document text, word
    names, relator names)."""
    specs = [(f"tau-{g}-{b}", ["--tau-boundary", str(g), str(b)]) for g in CLI_GENUS for b in CLI_BOUNDARY]
    specs.append(("lantern", ["--lantern"]))
    specs += [(f"chain-{n}", ["--chain", str(n)]) for n in CLI_CHAINS]
    specs.append(("r-ns", ["--r-ns"]))
    docs = []
    for doc_id, flags in specs:
        code, text = run_cli(["gen"] + flags)
        if code != 0:
            raise RuntimeError(f"generator {flags} failed")
        doc = document.parse(text)
        docs.append((doc_id, flags, text, list(doc.words), list(doc.relator_entries)))
    return docs


def cli_universe(docs):
    """Every op on the generator documents ``docs`` and every family sweep:
    (document id, command arguments, generator flags); the op runs
    ``command + flags``."""
    ops = []
    for doc_id, flags, _, word_names, relator_names in docs:
        ops.append((doc_id, ["gen"], flags))
        for w in word_names:
            ops.append((doc_id, ["invariants", "--word", w], flags))
            ops.append((doc_id, ["detect", "--word", w], flags))
            for r in relator_names:
                ops.append((doc_id, ["substitute", "--word", w, "--relator", r], flags))
        if not relator_names:
            ops.append((doc_id, ["substitute", "--word", word_names[0]], flags))
            ops.append((doc_id, ["verify-relator"], flags))
        for r in relator_names:
            ops.append((doc_id, ["verify-relator", "--relator", r], flags))
        pairs = [(a, b) for n, a in enumerate(word_names) for b in word_names[n + 1:]] or [(word_names[0],) * 2]
        for a, b in pairs:
            ops.append((doc_id, ["esig-compare", "--word", a, "--word2", b], flags))
    for g in CLI_GENUS:
        for b in CLI_BOUNDARY:
            ops.append((None, ["family", "--g-max", str(g), "--b-max", str(b)], []))
    return ops


def _cli_docs(seed, workdir, golden, scale):
    rng = random.Random(f"cli-docs:{seed}")
    recorded = golden["cli-docs"] if golden is not None else None
    docs = cli_documents()
    paths = {}
    for doc_id, _, text, _, _ in docs:
        paths[doc_id] = workdir / f"cli-{doc_id}.json"
        paths[doc_id].write_text(text, encoding="utf-8")
    universe = cli_universe(docs)
    if scale < 1:
        universe = universe[:: max(1, int(1 / scale))]
    ops = []
    for doc_id, command, flags in universe:
        argv = command + flags
        key = " ".join(argv)
        run_argv = argv
        if doc_id is not None and rng.random() < 0.5:
            # read the same document from a file: the report must not change
            run_argv = command + ["--in", str(paths[doc_id])]
        ops.append(Op(key, _bind(run_cli, run_argv), _cli_check(key, argv, recorded)))
    for _ in range(CLI_PAIRS):
        e1, s1, e2, s2 = (rng.randint(-6, 6) for _ in range(4))
        argv = ["esig-compare", f"--pair={e1},{s1}", f"--pair2={e2},{s2}"]
        expected = 4 if (e1 + s1 - e2 - s2) % 4 else 0
        ops.append(Op(" ".join(argv), _bind(run_cli, argv), _pair_check(argv, expected)))
    rng.shuffle(ops)
    return ops


def _unknown(argv, code, text):
    """Inconclusive answers: a substitution with no certified embedding, or a
    detect report without a non-planar certificate."""
    if argv[0] == "substitute" and code == 3:
        return "no certified embedding" in text
    if argv[0] == "detect" and code == 0:
        result = json.loads(text)["result"]
        return all(c["verdict"] != NON_PLANAR for c in result["certificates"] + result["bounding"])
    return False


def _cli_check(key, argv, recorded):
    def check(outcome):
        code, text = outcome
        answer = digest(text)
        try:
            if code not in (0, 2, 3, 4):
                raise ValueError(f"exit code {code}")
            report = json.loads(text)
            if code == 0 and argv[0] != "gen" and report["command"] != argv[0]:
                raise ValueError("report names another command")
            if code in (2, 3) and "error" not in report:
                raise ValueError("rejection without an error object")
            if recorded is not None:
                if key not in recorded:
                    raise ValueError("op has no recording")
                if recorded[key] != [code, answer]:
                    raise ValueError(f"exit {code} / report {answer} differ from the recording {recorded[key]}")
            decided = not _unknown(argv, code, text)
        except (ValueError, KeyError, TypeError) as exc:
            return Verdict(f"{key}: {exc}", False, answer)
        return Verdict(None, decided, answer)

    return check


def _pair_check(argv, expected):
    def check(outcome):
        code, text = outcome
        answer = digest(text)
        try:
            report = json.loads(text)
            if code != expected:
                raise ValueError(f"exit code {code}, expected {expected}")
            if report["result"]["pair1"] != [int(x) for x in argv[1].split("=")[1].split(",")]:
                raise ValueError("report echoes another pair")
        except (ValueError, KeyError, TypeError) as exc:
            return Verdict(f"{' '.join(argv)}: {exc}", False, answer)
        return Verdict(None, True, answer)

    return check
