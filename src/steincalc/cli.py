"""Command-line front end.

Commands: invariants, substitute, detect, verify-relator, esig-compare,
family, gen.  Input comes from --in FILE or one of the generator flags
(--tau-boundary G B, --lantern, --chain N, --r-ns).  Reports are JSON with
the tool version in a header field and a byte-stable payload.  They are
written by ``document.dump_json``, which gives the bytes of ``json.dumps``
with sorted keys and an indent of 2, and stdout is flushed before ``main``
returns.  A failure is one compact JSON line on stdout, or on stderr when
stdout cannot be written.

Exit codes: 0 success, 2 document rejected (an --in file that cannot be
read as UTF-8 text included), 3 precondition failure (a --json-out file or
a stdout that cannot be written, and a report integer longer than
``sys.get_int_max_str_digits()`` digits, included), 4 internal consistency
alarm.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import List, Optional, Sequence

from . import __version__
from .document import (
    TAU_BOUNDARY_WORD,
    Document,
    chain_document,
    check_page,
    dump_json,
    lantern_document,
    non_standard_document,
    parse,
    serialize,
    tau_boundary_document,
    tau_boundary_word,
    word_payload,
)
from .errors import (
    ConsistencyAlarmError,
    DocumentError,
    IncomparableSigmaError,
    NotApplicableError,
    RankMismatchError,
    UnsupportedInputError,
)
from .invariants import (
    FillingInvariants,
    SigmaLedger,
    check_comparable,
    euler_characteristic,
    filling_invariants,
    sigma,
)
from .planarity import (
    ASSERTION_INCONSISTENT,
    PlanarityCertificate,
    detect_bounding,
    detect_relator,
    esig_planarity_test,
)
from .relators import chain_surface
from .surfaces import Surface
from .words import substitute, verify_relator

PRECONDITION_ERRORS = (
    UnsupportedInputError,
    NotApplicableError,
    IncomparableSigmaError,
    RankMismatchError,
)


def _sigma_payload(sv) -> dict:
    payload = {"mode": sv.mode, "value": sv.value}
    if sv.baseline_name is not None:
        payload["baseline"] = sv.baseline_name
    if sv.offset is not None:
        payload["offset"] = sv.offset
    return payload


def _invariants_payload(inv: FillingInvariants) -> dict:
    return {
        "surface": {"genus": inv.surface.genus, "boundary": inv.surface.boundary_count},
        "euler": inv.euler,
        "sigma": _sigma_payload(inv.sigma),
        "b2": inv.b2,
        "q_matrix": inv.q_matrix,
        "q_invariant_factors": inv.q_invariant_factors,
        "h1": None if inv.h1 is None else inv.h1.report(),
        "esig": inv.esig,
        "esig_mod4": inv.esig_mod4,
        "c1_pd": None
        if inv.c1 is None
        else {
            "vector": list(inv.c1.vector),
            "reduced": list(inv.c1.reduced),
            "is_zero": inv.c1.is_zero,
            "order": inv.c1.order,
        },
    }


# the _invariants_payload fields a family row repeats
_FAMILY_FIELDS = ("euler", "sigma", "q_invariant_factors", "h1", "esig", "esig_mod4")


def _certificate_payload(cert: PlanarityCertificate) -> dict:
    witness = cert.witness
    return {
        "verdict": cert.verdict,
        "basis": cert.basis,
        "witness": None if witness is None else {name: getattr(witness, name) for name in witness._fields},
        "notes": list(cert.notes),
    }


def _ledger_for(doc: Document, word_name: str) -> Optional[SigmaLedger]:
    # a baseline asserts the signature of one specific factorization; it is
    # never borrowed across words (substitution records are what connect them)
    if word_name in doc.baselines:
        return SigmaLedger(baseline_name=word_name, baseline_sigma=doc.baselines[word_name])
    return None


def _pick_word(doc: Document, name: Optional[str], flag: str = "--word") -> str:
    if name is not None:
        if name not in doc.words:
            raise UnsupportedInputError(f"document has no word named '{name}'")
        return name
    if not doc.words:
        raise UnsupportedInputError("document declares no words")
    if len(doc.words) == 1:
        return next(iter(doc.words))
    if TAU_BOUNDARY_WORD in doc.words:
        return TAU_BOUNDARY_WORD
    raise UnsupportedInputError(f"several words declared; pick one with {flag}")


def _pick_relator(doc: Document, name: Optional[str]) -> str:
    if name is None:
        if len(doc.relator_entries) != 1:
            raise UnsupportedInputError("pick a relator with --relator")
        return next(iter(doc.relator_entries))
    if name not in doc.relator_entries:
        raise UnsupportedInputError(f"document has no relator named '{name}'")
    return name


def run(command: str, doc: Optional[Document] = None, *, word: Optional[str] = None,
        word2: Optional[str] = None, relator: Optional[str] = None, pair1: Optional[tuple] = None,
        pair2: Optional[tuple] = None, g_max: int = 3, b_max: int = 12) -> dict:
    """Execute one command against a document and return the report payload.

    The family sweep ignores ``doc``: each row reads the word and baseline
    of ``tau_boundary_document(g, b)`` from ``tau_boundary_word``, so no
    document is built.  esig-compare needs no document when both pairs are
    given.
    """
    if command == "family":
        if g_max < 0 or b_max < 2:  # no page in the sweep
            return {"rows": []}
        check_page(Surface(g_max, b_max), "--g-max/--b-max")  # the largest page, checked before any row
        rows = []
        for g in range(0, g_max + 1):
            for b in range(2, b_max + 1):
                tau, baseline = tau_boundary_word(g, b)
                inv = filling_invariants(tau, ledger=SigmaLedger(TAU_BOUNDARY_WORD, baseline))
                full = _invariants_payload(inv)
                c1 = full["c1_pd"] or {}
                rows.append({
                    "genus": g,
                    "boundary": b,
                    **{key: full[key] for key in _FAMILY_FIELDS},
                    "c1_is_zero": c1.get("is_zero"),
                    "c1_order": c1.get("order"),
                })
        return {"rows": rows}

    if (pair1 is None) != (pair2 is None):
        raise UnsupportedInputError("--pair and --pair2 go together; give both or neither")
    if doc is None and not (command == "esig-compare" and pair1 is not None):
        raise UnsupportedInputError(f"command '{command}' needs a document")

    if command == "invariants":
        word_name = _pick_word(doc, word)
        word = doc.words[word_name]
        inv = filling_invariants(
            word,
            ledger=_ledger_for(doc, word_name),
            rotations=doc.rotations.get(word_name),
            mu_map=doc.mu_maps.get(word_name),
        )
        return {"word": word_name, **_invariants_payload(inv)}

    if command == "substitute":
        word_name = _pick_word(doc, word)
        relator_name = _pick_relator(doc, relator)
        entry = doc.relator_entries[relator_name]
        word = doc.words[word_name]
        declared = doc.disjoint | entry.disjoint
        new_word, record = substitute(word, entry.relator, declared)
        payload = {
            "word": word_name,
            "relator": relator_name,
            "new_word": word_payload(new_word),
            "ledger": {"sigma_delta": record.sigma_delta, "euler_delta": record.euler_delta},
            "positions": list(record.positions),
            "swaps": list(record.swaps),
        }
        before, after = sigma(word), sigma(new_word)
        if before.mode == after.mode == "exact":
            payload["sigma_before"] = before.value
            payload["sigma_after"] = after.value
            if record.sigma_delta is not None and after.value - before.value != record.sigma_delta:
                raise ConsistencyAlarmError(
                    f"planar signature change {after.value - before.value} contradicts the "
                    f"relator's stored delta {record.sigma_delta}"
                )
        return payload

    if command == "detect":
        word_name = _pick_word(doc, word)
        word = doc.words[word_name]
        certificates = detect_relator(word, list(doc.relator_entries.values()), doc.disjoint)
        bounding = []
        for decl in doc.declarations:
            try:
                bounding.append(_certificate_payload(detect_bounding(word, decl, doc.disjoint)))
            except NotApplicableError as exc:
                bounding.append({"verdict": "not-applicable", "basis": str(exc), "witness": None, "notes": []})
        return {
            "word": word_name,
            "certificates": [_certificate_payload(c) for c in certificates],
            "bounding": bounding,
        }

    if command == "verify-relator":
        relator_name = _pick_relator(doc, relator)
        entry = doc.relator_entries[relator_name]
        report = verify_relator(entry.relator)
        return {
            "relator": relator_name,
            "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in report.checks],
            "necessary_conditions_hold": report.necessary_conditions_hold,
            "ledger": {
                "sigma_delta": entry.relator.sigma_delta,
                "euler_delta": entry.relator.euler_delta,
                "obstruction": entry.obstruction,
            },
        }

    if command == "esig-compare":
        if pair1 is None:
            names = (_pick_word(doc, word), _pick_word(doc, word2, flag="--word2"))
            sigmas = [sigma(doc.words[name], _ledger_for(doc, name)) for name in names]
            for name, value in zip(names, sigmas):
                if value.value is None:
                    raise UnsupportedInputError(f"word '{name}' has no resolvable signature")
            check_comparable(*sigmas)
            pair1, pair2 = ((euler_characteristic(doc.words[name]), s.value) for name, s in zip(names, sigmas))
        cert = esig_planarity_test(tuple(pair1), tuple(pair2))
        return {
            "pair1": list(pair1),
            "pair2": list(pair2),
            "esig": [pair1[0] + pair1[1], pair2[0] + pair2[1]],
            "certificate": _certificate_payload(cert),
        }

    raise UnsupportedInputError(f"unknown command '{command}'")


# The document sources of ``add_io``, as (flag, dest).
_SOURCES = (("--in", "infile"), ("--tau-boundary", "tau_boundary"), ("--lantern", "lantern"),
            ("--chain", "chain"), ("--r-ns", "r_ns"))


def _given_sources(args: argparse.Namespace) -> List[str]:
    """The source flags given; ``--chain 0`` is given (and rejected later)."""
    return [flag for flag, dest in _SOURCES if (value := getattr(args, dest)) is not None and value is not False]


def _load_document(args: argparse.Namespace) -> Document:
    if len(_given_sources(args)) != 1:
        raise DocumentError("$", "give exactly one input: --in FILE or a generator flag")
    if args.infile is not None:
        try:
            if args.infile == "-":
                text = sys.stdin.read()
            else:
                with open(args.infile, "r", encoding="utf-8") as fh:
                    text = fh.read()
        except OSError as exc:
            raise DocumentError("--in", f"cannot read '{args.infile}': {exc.strerror}") from exc
        except UnicodeDecodeError as exc:
            raise DocumentError(
                "--in", f"'{args.infile}' is not UTF-8 text: {exc.reason} at byte {exc.start}"
            ) from exc
        doc = parse(text)
    elif args.tau_boundary is not None:
        g, b = args.tau_boundary
        if g < 0 or b < 1:
            raise DocumentError("--tau-boundary", "needs a genus G >= 0 and a boundary count B >= 1")
        check_page(Surface(g, b), "--tau-boundary")
        doc = tau_boundary_document(g, b)
    elif args.lantern:
        doc = lantern_document()
    elif args.chain is not None:
        if args.chain < 1:
            raise DocumentError("--chain", "chain length must be at least 1")
        check_page(chain_surface(args.chain), "--chain")
        doc = chain_document(args.chain)
    else:
        doc = non_standard_document()
    _apply_baseline_flags(doc, args.baseline)
    return doc


def _parse_pair(text: Optional[str]) -> Optional[tuple]:
    if text is None:
        return None
    parts = text.split(",")
    if len(parts) != 2:
        raise UnsupportedInputError(f"expected E,SIGMA, got '{text}'")
    try:
        return (int(parts[0]), int(parts[1]))
    except ValueError as exc:
        raise UnsupportedInputError(f"expected integers in '{text}'") from exc


def _apply_baseline_flags(doc: Document, flags: Sequence[str]) -> None:
    for flag in flags:
        name, _, value = flag.partition("=")
        if not value:
            raise UnsupportedInputError(f"--baseline takes NAME=VALUE, got '{flag}'")
        if name not in doc.words:
            raise UnsupportedInputError(f"baseline for undeclared word '{name}'")
        try:
            doc.baselines[name] = int(value)
        except ValueError as exc:
            raise UnsupportedInputError(f"baseline value '{value}' is not an integer") from exc


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steincalc",
        description="invariants and planarity obstructions of positive Dehn-twist factorizations",
    )
    parser.add_argument("--version", action="version", version=f"steincalc {__version__}")
    # the options each subcommand leaves out reach run() as None
    parser.set_defaults(word=None, word2=None, relator=None, pair1=None, pair2=None, g_max=None, b_max=None)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p: argparse.ArgumentParser, words: bool = True) -> None:
        p.add_argument("--in", dest="infile", metavar="FILE", help="input document ('-' for stdin)")
        p.add_argument("--tau-boundary", nargs=2, type=int, metavar=("G", "B"),
                       help="generate the boundary-multitwist document on the genus-G, B-holed page")
        p.add_argument("--lantern", action="store_true", help="generate the four-holed sphere lantern document")
        p.add_argument("--chain", type=int, metavar="N", help="generate the length-N chain document")
        p.add_argument("--r-ns", action="store_true", help="generate the non-standard relator document")
        p.add_argument("--baseline", action="append", default=[], metavar="NAME=VALUE",
                       help="assert a signature baseline for a word")
        p.add_argument("--json-out", metavar="FILE", help="write the report to FILE instead of stdout")
        if words:
            p.add_argument("--word", help="which factorization to use")

    p = sub.add_parser("invariants", help="invariants of the filling of one factorization")
    add_io(p)

    p = sub.add_parser("substitute", help="apply a relator substitution to a factorization")
    add_io(p)
    p.add_argument("--relator", help="which relator to substitute")

    p = sub.add_parser("detect", help="search for planarity obstructions")
    add_io(p)

    p = sub.add_parser("verify-relator", help="run the necessary-condition checks on a relator")
    add_io(p, words=False)
    p.add_argument("--relator", help="which relator to verify")

    p = sub.add_parser("esig-compare", help="compare e + sigma of two asserted fillings")
    add_io(p)
    p.add_argument("--word2", help="second factorization")
    p.add_argument("--pair", dest="pair1", metavar="E,SIGMA", help="first (euler, sigma) pair, given directly")
    p.add_argument("--pair2", metavar="E,SIGMA", help="second (euler, sigma) pair, given directly")

    p = sub.add_parser("family", help="sweep boundary-multitwist fillings over (genus, boundary)")
    p.add_argument("--g-max", type=int, default=3)
    p.add_argument("--b-max", type=int, default=12)
    p.add_argument("--json-out", metavar="FILE")

    p = sub.add_parser("gen", help="emit a ready-made document")
    add_io(p, words=False)

    return parser


class _StdoutUnwritable(UnsupportedInputError):
    """Stdout cannot be written (a full device, a closed pipe)."""


def _write_stdout(text: str) -> None:
    """Write and flush ``text`` on stdout.

    When that raises OSError, the unwritten bytes stay in stdout's buffer and
    the flush at interpreter exit would fail again (exit status 120), so
    stdout's file descriptor is first pointed at os.devnull, as the
    ``signal`` docs advise for SIGPIPE.
    """
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError:
        try:
            fd = sys.stdout.fileno()
        except (OSError, ValueError):  # not backed by a file descriptor
            fd = None
        if fd is not None:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        raise


def _emit(text: str, outfile: Optional[str]) -> None:
    if not outfile:
        try:
            _write_stdout(text)
        except OSError as exc:
            raise _StdoutUnwritable(f"cannot write the report to stdout: {exc.strerror or exc}") from exc
        return
    try:
        with open(outfile, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UnsupportedInputError(f"--json-out: cannot write '{outfile}': {exc.strerror}") from exc


def _fail(code: int, stdout_ok: bool = True, **error) -> int:
    line = json.dumps({"error": error}, sort_keys=True) + "\n"
    if stdout_ok:
        try:
            _write_stdout(line)
            return code
        except OSError:
            pass
    sys.stderr.write(line)  # stdout is gone, so the error goes to stderr
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "gen":
            _emit(serialize(_load_document(args)), args.json_out)
            return 0
        pair1, pair2 = _parse_pair(args.pair1), _parse_pair(args.pair2)
        doc = None
        if pair1 is not None and pair2 is not None:
            given = _given_sources(args) + [flag for flag, value in (
                ("--baseline", args.baseline or None), ("--word", args.word), ("--word2", args.word2))
                if value is not None]
            if given:
                raise UnsupportedInputError(f"--pair and --pair2 take no document; drop {', '.join(given)}")
        elif args.command != "family" and pair1 is None and pair2 is None:
            doc = _load_document(args)
        payload = run(
            args.command, doc,
            word=args.word, word2=args.word2, relator=args.relator,
            pair1=pair1, pair2=pair2, g_max=args.g_max, b_max=args.b_max,
        )
        report = {"tool": "steincalc", "version": __version__, "command": args.command, "result": payload}
        try:
            text = dump_json(report) + "\n"
        except ValueError as exc:  # an int too long for str(); only ints raise ValueError here
            raise UnsupportedInputError(
                f"the report holds an integer of more than {sys.get_int_max_str_digits()} digits, "
                "the interpreter's limit for int-to-str conversion (sys.get_int_max_str_digits)"
            ) from exc
        _emit(text, args.json_out)
    except _StdoutUnwritable as exc:
        return _fail(3, stdout_ok=False, kind="precondition", message=str(exc))
    except DocumentError as exc:
        return _fail(2, kind="document", location=exc.location, message=exc.message)
    except PRECONDITION_ERRORS as exc:
        return _fail(3, kind="precondition", message=str(exc))
    except ConsistencyAlarmError as exc:
        return _fail(4, kind="consistency-alarm", message=str(exc))

    if args.command == "esig-compare" and payload["certificate"]["verdict"] == ASSERTION_INCONSISTENT:
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
