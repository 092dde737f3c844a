"""The JSON input document: surfaces, curves, words, relators, declarations.

Parsing is total: anything malformed is rejected with a location-annotated
error rather than a partial document.  Words serialize as ordered lists of
{curve, sign} so certificate positions stay meaningful, and parse/serialize
round-trip exactly.

Generators at the bottom emit ready-made documents for the standard
configurations (boundary multitwist, lantern, chains, the non-standard
relator), so the stock examples are reproducible without hand-writing
vectors.  They build each document from library values (curves, relator
entries and their sides as words), which the model classes check as they
are made, so no generator goes through JSON or ``parse``.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .errors import DocumentError, Value
from .invariants import boundary_rotation
from .planarity import BoundingDeclaration
from .relators import (
    RelatorEntry,
    braid_relator,
    chain,
    ChainConfig,
    lantern,
    non_standard_relator,
    standard_chain_config,
)
from .surfaces import Curve, HomologyClass, NamePair, Surface, convex_curve
from .words import Relator, Twist, Word, word_of


# The largest page a document may name, by the rank 2g + b - 1 of its first
# homology.  Every homology class, curve and meridian vector has that length
# and the invariants build matrices with a row or column per class, so an
# unbounded page only ends in exhausted memory.  Every page in the tests and
# the stock documents has rank at most 17.
MAX_PAGE_RANK = 128


class Document(Value):
    """A validated input document."""

    __slots__ = (
        "surface",
        "curves",
        "words",
        "relator_entries",
        "relator_decls",
        "declarations",
        "baselines",
        "disjoint",
        "rotations",
        "mu_maps",
    )

    def __init__(
        self,
        surface: Surface,
        curves: Dict[str, Curve],
        words: Dict[str, Word],
        relator_entries: Dict[str, RelatorEntry],
        relator_decls: Tuple[dict, ...] = (),
        declarations: Tuple[BoundingDeclaration, ...] = (),
        baselines: Optional[Dict[str, int]] = None,
        disjoint: FrozenSet[NamePair] = frozenset(),
        rotations: Optional[Dict[str, Tuple[int, ...]]] = None,
        mu_maps: Optional[Dict[str, Tuple[Tuple[int, ...], ...]]] = None,
    ):
        object.__setattr__(self, "surface", surface)
        object.__setattr__(self, "curves", curves)
        object.__setattr__(self, "words", words)
        object.__setattr__(self, "relator_entries", relator_entries)
        object.__setattr__(self, "relator_decls", relator_decls)
        object.__setattr__(self, "declarations", declarations)
        object.__setattr__(self, "baselines", {} if baselines is None else baselines)
        object.__setattr__(self, "disjoint", disjoint)
        object.__setattr__(self, "rotations", {} if rotations is None else rotations)
        object.__setattr__(self, "mu_maps", {} if mu_maps is None else mu_maps)


def _is_int(value) -> bool:
    """A JSON integer: ``bool`` subclasses ``int`` in Python but is no integer here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _require(condition: bool, location: str, message: str) -> None:
    if not condition:
        raise DocumentError(location, message)


def check_page(surface: Surface, location: str) -> None:
    """Reject, at ``location``, a page whose rank exceeds ``MAX_PAGE_RANK``."""
    _require(
        surface.rank <= MAX_PAGE_RANK,
        location,
        f"page rank 2g + b - 1 = {surface.rank} (genus {surface.genus}, boundary {surface.boundary_count}) "
        f"is above the limit of {MAX_PAGE_RANK}",
    )


def _section(data: dict, key: str, kind: type):
    """The top-level section ``key``, empty when absent; it must be a JSON
    array (``list``) or object (``dict``)."""
    value = data.get(key, kind())
    _require(isinstance(value, kind), key, f"{key} must be a JSON {'array' if kind is list else 'object'}")
    return value


def _parse_curve(surface: Surface, spec: dict, location: str) -> Curve:
    # sub-locations are formatted only on the way to a raise
    _require(isinstance(spec, dict), location, "curve entries must be objects")
    name = spec.get("name")
    _require(isinstance(name, str) and bool(name), location, "curve needs a non-empty string name")
    rotation = spec.get("rotation")
    if not (rotation is None or _is_int(rotation)):
        raise DocumentError(f"{location}.rotation", "rotation must be an integer")
    parallel = spec.get("boundary_parallel_to")
    if not (parallel is None or _is_int(parallel)):
        raise DocumentError(f"{location}.boundary_parallel_to", "boundary index must be an integer")
    holes = spec.get("holes")
    homology = spec.get("homology")
    _require(
        (holes is None) != (homology is None),
        location,
        "declare exactly one of 'holes' (planar convex curve) or 'homology'",
    )
    try:
        if holes is not None:
            # the element types are checked in C; bool is its own type, not int
            if not (isinstance(holes, list) and set(map(type, holes)) <= {int}):
                raise DocumentError(f"{location}.holes", "holes must be a list of integers")
            if surface.genus != 0:
                raise DocumentError(f"{location}.holes", "hole sets only make sense on planar surfaces")
            if 1 in holes:
                raise DocumentError(
                    f"{location}.holes",
                    "boundary 1 is the outer boundary; declare the curve parallel to it with "
                    "boundary_parallel_to: 1 and holes [2..b]",
                )
            return convex_curve(surface, name, holes, rotation=rotation, boundary_parallel_to=parallel)
        if not (isinstance(homology, list) and set(map(type, homology)) <= {int}):
            raise DocumentError(f"{location}.homology", "homology must be a list of integers")
        if len(homology) != surface.rank:
            raise DocumentError(
                f"{location}.homology",
                f"vector length {len(homology)} does not match surface rank {surface.rank}",
            )
        return Curve(
            name=name,
            homology=HomologyClass(surface, tuple(homology)),
            rotation=rotation,
            boundary_parallel_to=parallel,
        )
    except DocumentError:
        raise
    except Exception as exc:  # surface-model validation errors, relocated
        raise DocumentError(location, str(exc)) from exc


def _parse_word(surface: Surface, curves: Dict[str, Curve], spec, location: str) -> Word:
    _require(isinstance(spec, list), location, "a word is a list of {curve, sign} objects")
    twists = []
    for i, t in enumerate(spec):
        # the location and message are built only for a twist that fails
        if isinstance(t, dict):
            cname = t.get("curve")
            sign = t.get("sign", 1)
            # type() is int rejects the bool True, which equals 1
            if isinstance(cname, str) and cname in curves and (sign == 1 or sign == -1) and type(sign) is int:
                twists.append(Twist(curves[cname], sign))
                continue
        raise _twist_error(curves, t, f"{location}[{i}]")
    return Word(surface, tuple(twists))


def _twist_error(curves: Dict[str, Curve], t, where: str) -> DocumentError:
    """The rejection of a twist spec ``_parse_word`` refused: its first failed check."""
    if not isinstance(t, dict):
        return DocumentError(where, "each twist is an object")
    cname = t.get("curve")
    if not isinstance(cname, str):
        return DocumentError(where, "twist needs a curve name")
    if cname not in curves:
        return DocumentError(where, f"word references undeclared curve '{cname}'")
    return DocumentError(f"{where}.sign", "sign must be 1 or -1")


def _resolve_curves(curves: Dict[str, Curve], names: Sequence[str], location: str) -> List[Curve]:
    out = []
    for n in names:
        if not (isinstance(n, str) and n in curves):
            raise DocumentError(location, f"unknown curve name '{n}'")
        out.append(curves[n])
    return out


def _parse_relator(
    surface: Surface, curves: Dict[str, Curve], spec: dict, location: str
) -> Tuple[str, RelatorEntry]:
    _require(isinstance(spec, dict), location, "relator entries must be objects")
    name = spec.get("name")
    _require(isinstance(name, str) and bool(name), location, "relator needs a name")
    kind = spec.get("kind", "user")
    try:
        if kind == "lantern":
            names = spec.get("curves")
            _require(isinstance(names, list) and len(names) == 7, location,
                     "a lantern takes seven curve names: a1 a2 a3 a4 a12 a23 a13")
            return name, lantern(*_resolve_curves(curves, names, location), name=name)
        if kind == "chain":
            chain_names = spec.get("curves")
            boundary_names = spec.get("boundary")
            _require(isinstance(chain_names, list) and chain_names, location, "a chain takes curve names")
            _require(isinstance(boundary_names, list) and boundary_names, location,
                     "a chain takes boundary curve names")
            config = ChainConfig(
                surface=surface,
                curves=tuple(_resolve_curves(curves, chain_names, location)),
                boundary=tuple(_resolve_curves(curves, boundary_names, location)),
            )
            return name, chain(len(chain_names), config, name=name)
        if kind == "braid":
            names = spec.get("curves")
            _require(isinstance(names, list) and len(names) == 3, location,
                     "a braid takes three curve names: alpha, beta, image")
            return name, braid_relator(*_resolve_curves(curves, names, location), name=name)
        if kind == "non-standard":
            entry = non_standard_relator(name=name)
            for c in entry.relator.curves():
                _require(
                    curves.get(c.name) == c,
                    location,
                    f"the non-standard relator needs curve '{c.name}' with its standard data",
                )
            return name, entry
        if kind == "user":
            left = _parse_word(surface, curves, spec.get("left"), f"{location}.left")
            right = _parse_word(surface, curves, spec.get("right"), f"{location}.right")
            sigma_delta = spec.get("sigma_delta")
            _require(sigma_delta is None or _is_int(sigma_delta),
                     f"{location}.sigma_delta", "sigma_delta must be an integer when present")
            relator = Relator(name=name, left=left, right=right, sigma_delta=sigma_delta)
            return name, RelatorEntry(relator=relator)
    except DocumentError:
        raise
    except Exception as exc:
        raise DocumentError(location, str(exc)) from exc
    raise DocumentError(location, f"unknown relator kind '{kind}'")


# the keys each relator kind reads besides its name and kind
_RELATOR_KEYS = {"lantern": ("curves",), "chain": ("curves", "boundary"), "braid": ("curves",),
                 "non-standard": (), "user": ("sigma_delta",)}


def _relator_decl(spec: dict, entry: RelatorEntry) -> dict:
    """The relator declaration as read: its name, its kind when given and
    the keys that kind reads, with a user relator's sides as words."""
    kind = spec.get("kind", "user")
    decl = {key: spec[key] for key in ("name", "kind") + _RELATOR_KEYS[kind] if key in spec}
    if kind == "user":
        decl["left"], decl["right"] = word_payload(entry.relator.left), word_payload(entry.relator.right)
    return decl


def parse(text: str) -> Document:
    """Parse and validate a document; reject with located errors."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"line {exc.lineno}, column {exc.colno}", exc.msg) from exc
    except RecursionError as exc:  # the decoder recurses once per nesting level
        raise DocumentError("$", "JSON nested too deeply") from exc
    except ValueError as exc:  # an integer literal longer than int() converts
        raise DocumentError("$", str(exc)) from exc
    _require(isinstance(data, dict), "$", "a document is a JSON object")

    sspec = data.get("surface")
    _require(isinstance(sspec, dict), "surface", "a document needs a surface {genus, boundary}")
    genus = sspec.get("genus")
    boundary = sspec.get("boundary")
    _require(_is_int(genus) and genus >= 0, "surface.genus", "genus must be a non-negative integer")
    _require(_is_int(boundary) and boundary >= 1, "surface.boundary", "boundary count must be a positive integer")
    surface = Surface(genus, boundary)
    check_page(surface, "surface")

    curves: Dict[str, Curve] = {}
    for i, cspec in enumerate(_section(data, "curves", list)):
        curve = _parse_curve(surface, cspec, f"curves[{i}]")
        if curve.name in curves:
            raise DocumentError(f"curves[{i}]", f"duplicate curve name '{curve.name}'")
        curves[curve.name] = curve

    words: Dict[str, Word] = {}
    for wname, twists in _section(data, "words", dict).items():
        words[wname] = _parse_word(surface, curves, twists, f"words.{wname}")

    relator_entries: Dict[str, RelatorEntry] = {}
    relator_decls: List[dict] = []
    for i, rspec in enumerate(_section(data, "relators", list)):
        rname, entry = _parse_relator(surface, curves, rspec, f"relators[{i}]")
        _require(rname not in relator_entries, f"relators[{i}]", f"duplicate relator name '{rname}'")
        relator_entries[rname] = entry
        relator_decls.append(_relator_decl(rspec, entry))

    declarations: List[BoundingDeclaration] = []
    for i, dspec in enumerate(_section(data, "declarations", list)):
        where = f"declarations[{i}]"
        _require(isinstance(dspec, dict), where, "declarations must be objects")
        g = dspec.get("genus")
        b = dspec.get("boundary")
        names = dspec.get("multicurve")
        _require(_is_int(g) and g >= 0, f"{where}.genus", "genus must be a non-negative integer")
        _require(_is_int(b) and b >= 1, f"{where}.boundary", "boundary count must be positive")
        _require(isinstance(names, list), f"{where}.multicurve", "multicurve must be a list of curve names")
        multicurve = tuple(_resolve_curves(curves, names, f"{where}.multicurve"))
        try:
            declarations.append(BoundingDeclaration(g, b, multicurve))
        except Exception as exc:
            raise DocumentError(where, str(exc)) from exc

    baselines: Dict[str, int] = {}
    for wname, value in _section(data, "baselines", dict).items():
        _require(wname in words, f"baselines.{wname}", f"baseline for undeclared word '{wname}'")
        _require(_is_int(value), f"baselines.{wname}", "asserted signature must be an integer")
        baselines[wname] = value

    disjoint = set()
    for i, pair in enumerate(_section(data, "disjoint", list)):
        where = f"disjoint[{i}]"
        _require(
            isinstance(pair, list) and len(pair) == 2 and all(isinstance(x, str) for x in pair),
            where,
            "each disjointness fact is a pair of curve names",
        )
        _resolve_curves(curves, pair, where)
        disjoint.add(frozenset(pair))

    rotations: Dict[str, Tuple[int, ...]] = {}
    for wname, rots in _section(data, "rotations", dict).items():
        where = f"rotations.{wname}"
        _require(wname in words, where, f"rotations for undeclared word '{wname}'")
        _require(
            isinstance(rots, list) and all(_is_int(r) for r in rots) and len(rots) == len(words[wname]),
            where,
            "rotations must list one integer per twist of the word",
        )
        rotations[wname] = tuple(rots)

    mu_maps: Dict[str, Tuple[Tuple[int, ...], ...]] = {}
    for wname, mus in _section(data, "mu_maps", dict).items():
        where = f"mu_maps.{wname}"
        _require(wname in words, where, f"meridian map for undeclared word '{wname}'")
        _require(
            isinstance(mus, list) and len(mus) == len(words[wname]),
            where,
            "the meridian map lists one homology vector per twist",
        )
        vectors = []
        for j, mu in enumerate(mus):
            _require(
                isinstance(mu, list) and all(_is_int(x) for x in mu) and len(mu) == surface.rank,
                f"{where}[{j}]",
                f"meridian classes are integer vectors of length {surface.rank}",
            )
            vectors.append(tuple(mu))
        mu_maps[wname] = tuple(vectors)

    return Document(
        surface=surface,
        curves=curves,
        words=words,
        relator_entries=relator_entries,
        relator_decls=tuple(relator_decls),
        declarations=tuple(declarations),
        baselines=baselines,
        disjoint=frozenset(disjoint),
        rotations=rotations,
        mu_maps=mu_maps,
    )


def word_payload(word: Word) -> List[dict]:
    return [{"curve": t.curve.name, "sign": t.sign} for t in word.twists]


def _curve_spec(c: Curve) -> dict:
    spec: dict = {"name": c.name}
    if c.hole_set is not None:
        spec["holes"] = sorted(c.hole_set)
    else:
        spec["homology"] = list(c.homology.coords)
    if c.rotation is not None:
        spec["rotation"] = c.rotation
    if c.boundary_parallel_to is not None:
        spec["boundary_parallel_to"] = c.boundary_parallel_to
    return spec


def document_payload(doc: Document) -> dict:
    """The JSON-ready form of a document; parse(serialize(doc)) == doc."""
    payload: dict = {
        "surface": {"genus": doc.surface.genus, "boundary": doc.surface.boundary_count},
        "curves": [_curve_spec(c) for c in doc.curves.values()],
        "words": {name: word_payload(w) for name, w in doc.words.items()},
    }
    if doc.relator_decls:
        payload["relators"] = [dict(d) for d in doc.relator_decls]
    if doc.declarations:
        payload["declarations"] = [
            {"genus": d.genus, "boundary": d.boundary_count, "multicurve": [c.name for c in d.multicurve]}
            for d in doc.declarations
        ]
    if doc.baselines:
        payload["baselines"] = dict(doc.baselines)
    if doc.disjoint:
        payload["disjoint"] = sorted(sorted(pair) for pair in doc.disjoint)
    if doc.rotations:
        payload["rotations"] = {name: list(r) for name, r in doc.rotations.items()}
    if doc.mu_maps:
        payload["mu_maps"] = {name: [list(v) for v in vs] for name, vs in doc.mu_maps.items()}
    return payload


def serialize(doc: Document) -> str:
    return dump_json(document_payload(doc)) + "\n"


# ---------------------------------------------------------------------------
# The JSON writer


class _IntText(dict):
    """Decimal texts of ints by value.  A key not held is formatted by
    ``int.__repr__`` and not stored, so the table never grows and an int
    past the interpreter's digit limit raises ValueError as it would
    without the table."""

    __slots__ = ()

    def __missing__(self, key: int) -> str:
        return int.__repr__(key)


# Nearly every entry of an intersection form lies within +-64; a lookup here
# costs less than half of an ``int.__repr__`` call.
_INT_TEXT = _IntText(zip(range(-1024, 1025), map(int.__repr__, range(-1024, 1025))))


def dump_json(value) -> str:
    """What ``json.dumps`` writes with sorted keys and an indent of 2,
    byte for byte, for the values reports and documents hold: dicts with
    str keys, lists, tuples, str, int, bool and None.  Any other type
    raises TypeError.

    An indent sends ``json.dumps`` to its pure-Python encoder, which makes
    one generator step per list item; here a flat list of ints is one
    ``join`` over texts read from a table of the ints in -1024..1024
    (others are formatted as they come), and strings are escaped by the C
    ``encode_basestring_ascii``.
    """
    out: List[str] = []
    _write_json(value, "\n", out)
    return "".join(out)


def _write_json(value, newline: str, out: List[str]) -> None:
    # newline is "\n" plus the indent of the line value starts on
    if isinstance(value, str):
        out.append(_quote(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(_INT_TEXT[value])
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        if set(map(type, value)) == {int}:  # bools are no ints here
            out.append("[" + inner + ("," + inner).join(map(_INT_TEXT.__getitem__, value)) + newline + "]")
            return
        separator = "[" + inner
        for item in value:
            out.append(separator)
            separator = "," + inner
            _write_json(item, inner, out)
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, item in sorted(value.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(separator + _quote(key) + ": ")
            separator = "," + inner
            _write_json(item, inner, out)
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# ---------------------------------------------------------------------------
# Ready-made documents


# The name of the boundary multitwist in ``tau_boundary_document``
TAU_BOUNDARY_WORD = "tau_del"


def tau_boundary_word(g: int, b: int) -> Tuple[Word, int]:
    """One positive twist about each boundary component of the genus-g,
    b-holed page, with the flat-page rotation numbers attached, and its
    asserted signature -1: the word and baseline of
    ``tau_boundary_document``, without the document around them."""
    surface = Surface(g, b)
    boundary = []
    for j in range(1, b + 1):
        rotation = boundary_rotation(g, b, j)
        if g == 0:
            holes = range(2, b + 1) if j == 1 else (j,)
            boundary.append(convex_curve(surface, f"d{j}", holes, rotation=rotation, boundary_parallel_to=j))
        else:
            homology = surface.outer_boundary_class() if j == 1 else surface.d_class(j)
            boundary.append(Curve(f"d{j}", homology, rotation=rotation, boundary_parallel_to=j))
    return word_of(surface, boundary), -1


def tau_boundary_document(g: int, b: int) -> Document:
    """The boundary multitwist of ``tau_boundary_word`` as a document.

    On the four-holed sphere the lantern configuration is included; at
    positive genus the matching bounded-subsurface declaration is.
    """
    word, baseline = tau_boundary_word(g, b)
    surface = word.surface
    boundary = [t.curve for t in word.twists]
    curves = {c.name: c for c in boundary}
    relator_entries: Dict[str, RelatorEntry] = {}
    relator_decls: Tuple[dict, ...] = ()
    if g == 0 and b == 4:
        d1, d2, d3, d4 = boundary
        interior = [convex_curve(surface, name, holes)
                    for name, holes in (("a12", (2, 3)), ("a23", (3, 4)), ("a13", (2, 4)))]
        curves.update((c.name, c) for c in interior)
        entry = lantern(d2, d3, d4, d1, *interior)
        relator_entries[entry.name] = entry
        relator_decls = (
            {"name": entry.name, "kind": "lantern", "curves": [c.name for c in (d2, d3, d4, d1, *interior)]},
        )
    return Document(
        surface=surface,
        curves=curves,
        words={TAU_BOUNDARY_WORD: word},
        relator_entries=relator_entries,
        relator_decls=relator_decls,
        declarations=(BoundingDeclaration(g, b, tuple(boundary)),) if g >= 1 else (),
        baselines={TAU_BOUNDARY_WORD: baseline},
    )


def lantern_document() -> Document:
    """The four-holed sphere document with both lantern sides as words."""
    doc = tau_boundary_document(0, 4)
    relator = doc.relator_entries["lantern"].relator
    doc.words["lantern_left"] = relator.left
    doc.words["lantern_right"] = relator.right
    return doc


def chain_document(n: int) -> Document:
    """The length-n chain on its minimal supporting surface, with the
    boundary twists and the chain power as words."""
    config = standard_chain_config(n)
    surface = config.surface
    entry = chain(n, config)
    return Document(
        surface=surface,
        curves={c.name: c for c in config.curves + config.boundary},
        words={"boundary": entry.relator.left, "chain_power": entry.relator.right},
        relator_entries={entry.name: entry},
        relator_decls=(
            {"name": entry.name, "kind": "chain",
             "curves": [c.name for c in config.curves],
             "boundary": [c.name for c in config.boundary]},
        ),
        declarations=(
            (BoundingDeclaration(surface.genus, surface.boundary_count, config.boundary),)
            if surface.genus >= 1 else ()
        ),
        baselines={"boundary": -1} if surface.boundary_count >= 2 else {},
    )


def non_standard_document() -> Document:
    """The genus-1, three-holed surface carrying the non-standard relator,
    with both sides as words."""
    entry = non_standard_relator()
    relator = entry.relator
    return Document(
        surface=relator.left.surface,
        curves={c.name: c for c in relator.curves()},
        words={"short_side": relator.left, "long_side": relator.right},
        relator_entries={entry.name: entry},
        relator_decls=({"name": entry.name, "kind": "non-standard"},),
    )
