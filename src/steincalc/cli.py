"""Command-line front end.

Commands: invariants, substitute, detect, verify-relator, esig-compare,
family, gen.  Input comes from --in FILE or one of the generator flags
(--tau-boundary G B, --lantern, --chain N, --r-ns).  Reports are JSON with
the tool version in a header field and a byte-stable payload.

Exit codes: 0 success, 2 document rejected, 3 precondition failure,
4 internal consistency alarm.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from . import __version__
from .document import (
    Document,
    chain_document,
    lantern_document,
    non_standard_document,
    parse,
    serialize,
    tau_boundary_document,
    word_payload,
)
from .errors import (
    BaselineUnavailableError,
    CommutationUndecidedError,
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
    arc_family,
    esig_check,
    filling_invariants,
    has_exact_form,
    planar_intersection_form,
)
from .planarity import (
    ASSERTION_INCONSISTENT,
    PlanarityCertificate,
    detect_bounding,
    detect_relator,
    esig_planarity_test,
)
from .words import substitute, verify_relator

PRECONDITION_ERRORS = (
    UnsupportedInputError,
    NotApplicableError,
    BaselineUnavailableError,
    IncomparableSigmaError,
    CommutationUndecidedError,
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
        "q_matrix": None if inv.q_matrix is None else [list(r) for r in inv.q_matrix],
        "q_invariant_factors": None if inv.q_invariant_factors is None else list(inv.q_invariant_factors),
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


def _certificate_payload(cert: PlanarityCertificate) -> dict:
    witness = None
    if cert.witness is not None:
        witness = {
            key: (list(value) if isinstance(value, tuple) else value)
            for key, value in vars(cert.witness).items()
        }
    return {
        "verdict": cert.verdict,
        "basis": cert.basis,
        "witness": witness,
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
    if len(doc.words) == 1:
        return next(iter(doc.words))
    if "tau_del" in doc.words:
        return "tau_del"
    raise UnsupportedInputError(f"several words declared; pick one with {flag}")


def _pick_relator(doc: Document, name: Optional[str]) -> str:
    if name is None:
        if len(doc.relator_entries) != 1:
            raise UnsupportedInputError("pick a relator with --relator")
        return next(iter(doc.relator_entries))
    if name not in doc.relator_entries:
        raise UnsupportedInputError(f"document has no relator named '{name}'")
    return name


def run(command: str, doc: Optional[Document] = None, **options) -> dict:
    """Execute one command against a document and return the report payload.

    The family sweep generates its own documents and ignores ``doc``.
    """
    if command == "family":
        g_max = options.get("g_max", 3)
        b_max = options.get("b_max", 12)
        rows = []
        for g in range(0, g_max + 1):
            for b in range(2, b_max + 1):
                doc_gb = tau_boundary_document(g, b)
                inv = filling_invariants(
                    doc_gb.words["tau_del"], ledger=_ledger_for(doc_gb, "tau_del")
                )
                rows.append(
                    {
                        "genus": g,
                        "boundary": b,
                        "euler": inv.euler,
                        "sigma": _sigma_payload(inv.sigma),
                        "q_invariant_factors": None
                        if inv.q_invariant_factors is None
                        else list(inv.q_invariant_factors),
                        "h1": inv.h1.report(),
                        "esig": inv.esig,
                        "esig_mod4": inv.esig_mod4,
                        "c1_is_zero": None if inv.c1 is None else inv.c1.is_zero,
                        "c1_order": None if inv.c1 is None else inv.c1.order,
                    }
                )
        return {"rows": rows}

    if doc is None and not (command == "esig-compare" and "pair1" in options and "pair2" in options):
        raise UnsupportedInputError(f"command '{command}' needs a document")

    if command == "invariants":
        word_name = _pick_word(doc, options.get("word"))
        word = doc.words[word_name]
        inv = filling_invariants(
            word,
            ledger=_ledger_for(doc, word_name),
            rotations=doc.rotations.get(word_name),
            mu_map=doc.mu_maps.get(word_name),
            arcs=arc_family(word.surface, doc.arcs),
        )
        return {"word": word_name, **_invariants_payload(inv)}

    if command == "substitute":
        word_name = _pick_word(doc, options.get("word"))
        relator_name = _pick_relator(doc, options.get("relator"))
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
        if has_exact_form(word) and has_exact_form(new_word):
            before = planar_intersection_form(word)
            after = planar_intersection_form(new_word)
            payload["sigma_before"] = before.sigma
            payload["sigma_after"] = after.sigma
            if record.sigma_delta is not None and after.sigma - before.sigma != record.sigma_delta:
                raise ConsistencyAlarmError(
                    f"planar signature change {after.sigma - before.sigma} contradicts the "
                    f"relator's stored delta {record.sigma_delta}"
                )
        return payload

    if command == "detect":
        word_name = _pick_word(doc, options.get("word"))
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
        relator_name = _pick_relator(doc, options.get("relator"))
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
        pair1 = options.get("pair1")
        pair2 = options.get("pair2")
        if pair1 is None or pair2 is None:
            if doc is None:
                raise UnsupportedInputError("esig-compare needs two --pair values or a document with words")
            word1 = _pick_word(doc, options.get("word"))
            word2 = _pick_word(doc, options.get("word2"), flag="--word2")
            invs = []
            for name in (word1, word2):
                inv = filling_invariants(doc.words[name], ledger=_ledger_for(doc, name))
                if inv.sigma.value is None:
                    raise BaselineUnavailableError(f"word '{name}' has no resolvable signature")
                invs.append(inv)
            check = esig_check(invs[0], invs[1])
            pair1 = (invs[0].euler, invs[0].sigma.value)
            pair2 = (invs[1].euler, invs[1].sigma.value)
        cert = esig_planarity_test(tuple(pair1), tuple(pair2))
        return {
            "pair1": list(pair1),
            "pair2": list(pair2),
            "esig": [pair1[0] + pair1[1], pair2[0] + pair2[1]],
            "certificate": _certificate_payload(cert),
        }

    raise UnsupportedInputError(f"unknown command '{command}'")


def _load_document(args: argparse.Namespace) -> Document:
    sources = [
        args.infile is not None,
        args.tau_boundary is not None,
        args.lantern,
        args.chain is not None,
        args.r_ns,
    ]
    if sum(bool(s) for s in sources) != 1:
        raise DocumentError("$", "give exactly one input: --in FILE or a generator flag")
    if args.infile is not None:
        if args.infile == "-":
            return parse(sys.stdin.read())
        with open(args.infile, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    if args.tau_boundary is not None:
        g, b = args.tau_boundary
        return tau_boundary_document(g, b)
    if args.lantern:
        return lantern_document()
    if args.chain is not None:
        return chain_document(args.chain)
    return non_standard_document()


def _parse_pair(text: str) -> tuple:
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steincalc",
        description="invariants and planarity obstructions of positive Dehn-twist factorizations",
    )
    parser.add_argument("--version", action="version", version=f"steincalc {__version__}")
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


def _emit(text: str, outfile: Optional[str]) -> None:
    if outfile:
        with open(outfile, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "family":
            payload = run("family", g_max=args.g_max, b_max=args.b_max)
        elif args.command == "gen":
            doc = _load_document(args)
            _emit(serialize(doc), args.json_out)
            return 0
        else:
            options = {}
            if getattr(args, "word", None) is not None:
                options["word"] = args.word
            if getattr(args, "word2", None) is not None:
                options["word2"] = args.word2
            if getattr(args, "relator", None) is not None:
                options["relator"] = args.relator
            if getattr(args, "pair1", None) is not None:
                options["pair1"] = _parse_pair(args.pair1)
            if getattr(args, "pair2", None) is not None:
                options["pair2"] = _parse_pair(args.pair2)
            if args.command == "esig-compare" and "pair1" in options and "pair2" in options:
                doc = None
            else:
                doc = _load_document(args)
                _apply_baseline_flags(doc, args.baseline)
            payload = run(args.command, doc, **options)
    except DocumentError as exc:
        _emit(json.dumps({"error": {"kind": "document", "location": exc.location, "message": exc.message}},
                         sort_keys=True) + "\n", None)
        return 2
    except PRECONDITION_ERRORS as exc:
        _emit(json.dumps({"error": {"kind": "precondition", "message": str(exc)}}, sort_keys=True) + "\n", None)
        return 3
    except ConsistencyAlarmError as exc:
        _emit(json.dumps({"error": {"kind": "consistency-alarm", "message": str(exc)}}, sort_keys=True) + "\n", None)
        return 4

    report = {"tool": "steincalc", "version": __version__, "command": args.command, "result": payload}
    _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", getattr(args, "json_out", None))
    if args.command == "esig-compare" and payload["certificate"]["verdict"] == ASSERTION_INCONSISTENT:
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
