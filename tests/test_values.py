"""Value semantics of the package's classes: equality, hashing, repr,
immutability and construction, for every class built on ``errors.Value``."""

import copy
import importlib
import inspect
import pickle
import pkgutil

import pytest

import steincalc
from steincalc.document import Document, chain_document, tau_boundary_document
from steincalc.errors import RankMismatchError, Value
from steincalc.intlinalg import AbelianQuotient, SmithForm, smith_normal_form
from steincalc.invariants import (
    ChernData,
    FillingInvariants,
    PlanarForm,
    SigmaLedger,
    SigmaValue,
    filling_invariants,
    planar_intersection_form,
    sigma,
)
from steincalc.planarity import (
    BoundingDeclaration,
    BoundingWitness,
    PlanarityCertificate,
    RelatorWitness,
    detect_bounding,
    detect_relator,
)
from steincalc.relators import (
    BoundingCase,
    ChainConfig,
    RelatorEntry,
    bounding_case,
    standard_chain_config,
    standard_lantern,
)
from steincalc.surfaces import Curve, HomologyClass, Surface, convex_curve
from steincalc.words import (
    Relator,
    RelatorCheck,
    RelatorReport,
    SubstitutionRecord,
    Twist,
    Word,
    substitute,
    verify_relator,
)


def _substitution_record():
    relator = standard_lantern().relator
    return substitute(relator.left, relator)[1]


def _relator_certificate():
    doc = chain_document(2)
    word = doc.words["boundary"]
    extra = doc.curves["c1"]
    extended = Word(word.surface, word.twists + (Twist(extra), Twist(extra)))
    return detect_relator(extended, list(doc.relator_entries.values()), doc.disjoint)[0]


def _bounding_certificate():
    doc = tau_boundary_document(1, 1)
    return detect_bounding(doc.words["tau_del"], doc.declarations[0], doc.disjoint)


def _filling():
    return filling_invariants(tau_boundary_document(0, 4).words["tau_del"])


# Each builder makes a fresh instance from scratch, so two calls give equal
# but distinct values, down to their nested fields.
BUILDERS = {
    Surface: lambda: Surface(0, 4),
    HomologyClass: lambda: Surface(0, 4).d_class(3),
    Curve: lambda: convex_curve(Surface(0, 4), "a12", {2, 3}),
    Twist: lambda: Twist(convex_curve(Surface(0, 4), "a12", {2, 3}), -1),
    Word: lambda: standard_lantern().relator.left,
    Relator: lambda: standard_lantern().relator,
    SubstitutionRecord: _substitution_record,
    RelatorCheck: lambda: verify_relator(standard_lantern().relator).checks[0],
    RelatorReport: lambda: verify_relator(standard_lantern().relator),
    RelatorEntry: standard_lantern,
    ChainConfig: lambda: standard_chain_config(2),
    BoundingCase: lambda: bounding_case(1, 1),
    PlanarForm: lambda: planar_intersection_form(standard_lantern().relator.right),
    SigmaLedger: lambda: SigmaLedger("tau_del", -1, (_substitution_record(),)),
    SigmaValue: lambda: sigma(standard_lantern().relator.right),
    ChernData: lambda: _filling().c1,
    FillingInvariants: _filling,
    SmithForm: lambda: smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, -4, -16]]),
    AbelianQuotient: lambda: AbelianQuotient(3, [[2, 0], [0, 3], [0, 0]]),
    RelatorWitness: lambda: _relator_certificate().witness,
    BoundingWitness: lambda: _bounding_certificate().witness,
    PlanarityCertificate: _bounding_certificate,
    BoundingDeclaration: lambda: tau_boundary_document(1, 2).declarations[0],
    Document: lambda: tau_boundary_document(0, 4),
}

# Unhashable through a field: SmithForm holds lists, and Document dicts.
UNHASHABLE = {SmithForm, Document}

REQUIRED = inspect.Parameter.empty

# Constructor parameters: each class's field names, order and defaults
# (Document's None stands for a fresh dict).
SIGNATURES = {
    Surface: [("genus", REQUIRED), ("boundary_count", REQUIRED)],
    HomologyClass: [("surface", REQUIRED), ("coords", REQUIRED)],
    Curve: [("name", REQUIRED), ("homology", REQUIRED), ("hole_set", None), ("rotation", None),
            ("boundary_parallel_to", None)],
    Twist: [("curve", REQUIRED), ("sign", 1)],
    Word: [("surface", REQUIRED), ("twists", REQUIRED)],
    Relator: [("name", REQUIRED), ("left", REQUIRED), ("right", REQUIRED), ("euler_delta", None),
              ("sigma_delta", None), ("allowable", None)],
    SubstitutionRecord: [("relator_name", REQUIRED), ("sigma_delta", REQUIRED), ("euler_delta", REQUIRED),
                         ("positions", REQUIRED), ("swaps", REQUIRED)],
    RelatorCheck: [("name", REQUIRED), ("passed", REQUIRED), ("detail", REQUIRED)],
    RelatorReport: [("relator_name", REQUIRED), ("checks", REQUIRED)],
    RelatorEntry: [("relator", REQUIRED), ("obstruction", None), ("obstruction_asserted", False),
                   ("disjoint", frozenset()), ("note", "")],
    ChainConfig: [("surface", REQUIRED), ("curves", REQUIRED), ("boundary", REQUIRED)],
    BoundingCase: [("verdict", REQUIRED), ("note", REQUIRED)],
    PlanarForm: [("matrix", REQUIRED), ("b2", REQUIRED), ("invariant_factors", REQUIRED)],
    SigmaLedger: [("baseline_name", REQUIRED), ("baseline_sigma", REQUIRED), ("records", ())],
    SigmaValue: [("mode", REQUIRED), ("value", REQUIRED), ("baseline_name", None), ("offset", None)],
    ChernData: [("vector", REQUIRED), ("reduced", REQUIRED), ("order", REQUIRED)],
    FillingInvariants: [("surface", REQUIRED), ("euler", REQUIRED), ("sigma", REQUIRED), ("b2", None),
                        ("q_matrix", None), ("q_invariant_factors", None), ("h1", None), ("c1", None)],
    SmithForm: [("diag", REQUIRED), ("rank", REQUIRED), ("row_ops", REQUIRED), ("columns", REQUIRED)],
    AbelianQuotient: [("n", REQUIRED), ("rows", REQUIRED)],
    RelatorWitness: [("relator_name", REQUIRED), ("obstruction", REQUIRED), ("obstruction_nonzero", REQUIRED),
                     ("positions", REQUIRED), ("swaps", REQUIRED), ("homology_allowable", REQUIRED),
                     ("obstruction_asserted", REQUIRED)],
    BoundingWitness: [("genus", REQUIRED), ("boundary_count", REQUIRED), ("multicurve", REQUIRED),
                      ("positions", REQUIRED), ("swaps", REQUIRED)],
    PlanarityCertificate: [("verdict", REQUIRED), ("basis", REQUIRED), ("witness", None), ("notes", ())],
    BoundingDeclaration: [("genus", REQUIRED), ("boundary_count", REQUIRED), ("multicurve", REQUIRED)],
    Document: [("surface", REQUIRED), ("curves", REQUIRED), ("words", REQUIRED), ("relator_entries", REQUIRED),
               ("relator_decls", ()), ("declarations", ()), ("baselines", None), ("disjoint", frozenset()),
               ("rotations", None), ("mu_maps", None)],
}


def _fields(value):
    return tuple(getattr(value, name) for name in value._fields)


def _package_classes():
    for info in pkgutil.iter_modules(steincalc.__path__):
        module = importlib.import_module(f"steincalc.{info.name}")
        for cls in vars(module).values():
            if inspect.isclass(cls) and cls.__module__ == module.__name__:
                yield cls


def test_every_value_class_is_covered():
    values = {cls for cls in _package_classes() if issubclass(cls, Value) and cls is not Value}
    assert values == set(BUILDERS) == set(SIGNATURES)


def test_only_the_containment_witness_is_a_dataclass():
    assert [cls.__name__ for cls in _package_classes() if hasattr(cls, "__dataclass_fields__")] == [
        "ContainmentWitness"
    ]


@pytest.mark.parametrize("cls", BUILDERS, ids=lambda cls: cls.__name__)
def test_equal_but_distinct_instances(cls):
    a, b = BUILDERS[cls](), BUILDERS[cls]()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(_fields(a))


def test_hash_is_the_field_tuple_hash():
    assert hash(Surface(0, 4)) == hash((0, 4))
    curve = BUILDERS[Curve]()
    assert hash(curve) == hash(curve) == hash(_fields(curve))


@pytest.mark.parametrize("cls", BUILDERS, ids=lambda cls: cls.__name__)
def test_other_classes_never_equal(cls):
    a = BUILDERS[cls]()
    twin = object.__new__(type(f"Twin{cls.__name__}", (Value,), {"__slots__": cls._fields}))
    for name in cls._fields:
        object.__setattr__(twin, name, getattr(a, name))
    assert _fields(twin) == _fields(a)
    assert a != twin and twin != a and not a == twin
    assert a != _fields(a)


@pytest.mark.parametrize("cls", BUILDERS, ids=lambda cls: cls.__name__)
def test_fields_order_and_defaults(cls):
    params = list(inspect.signature(cls).parameters.values())
    assert [(p.name, p.default) for p in params] == SIGNATURES[cls]
    assert cls._fields == tuple(p.name for p in params)
    a = BUILDERS[cls]()
    assert cls(*_fields(a)) == a
    assert cls(**{name: getattr(a, name) for name in cls._fields}) == a


@pytest.mark.parametrize("cls", BUILDERS, ids=lambda cls: cls.__name__)
def test_assignment_and_deletion_raise(cls):
    a = BUILDERS[cls]()
    before = _fields(a)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert _fields(a) == before


def test_document_is_unhashable_through_its_dicts():
    # a document is a value like the others; only its dict fields keep it
    # from hashing
    doc = BUILDERS[Document]()
    assert Document.__hash__ is Value.__hash__
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(doc)


def test_derived_fields_follow_their_sources():
    # is_zero, sigma, esig and esig_mod4 are read off the stored fields, so
    # no constructor call can make them disagree
    assert ChernData((2,), (0,), 1).is_zero and not ChernData((1,), (1,), 2).is_zero
    assert not ChernData((1,), (1,), None).is_zero
    assert PlanarForm(((-1,),), 1, (1,)).sigma == -1
    surface = Surface(0, 4)
    inv = FillingInvariants(surface, 5, SigmaValue("exact", -2))
    assert (inv.esig, inv.esig_mod4) == (3, 3)
    inv = FillingInvariants(surface, 1, SigmaValue("relative", -4, "tau_del", 0))
    assert (inv.esig, inv.esig_mod4) == (-3, 1)
    inv = FillingInvariants(surface, 5, SigmaValue("unknown", None))
    assert (inv.esig, inv.esig_mod4) == (None, None)


@pytest.mark.parametrize("cls", BUILDERS, ids=lambda cls: cls.__name__)
def test_copies_are_rebuilt_through_the_constructor(cls):
    a = BUILDERS[cls]()
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(twin) is cls and twin == a


def test_reprs_are_pinned():
    surface = Surface(0, 4)
    curve = convex_curve(surface, "a12", {2, 3})
    assert repr(surface) == "Surface(genus=0, boundary_count=4)"
    assert repr(surface.d_class(3)) == "HomologyClass(surface=Surface(genus=0, boundary_count=4), coords=(0, 1, 0))"
    assert repr(curve) == (
        "Curve(name='a12', homology=HomologyClass(surface=Surface(genus=0, boundary_count=4), coords=(1, 1, 0)), "
        "hole_set=frozenset({2, 3}), rotation=None, boundary_parallel_to=None)"
    )
    assert repr(Twist(curve, -1)) == (
        "Twist(curve=Curve(name='a12', homology=HomologyClass(surface=Surface(genus=0, boundary_count=4), "
        "coords=(1, 1, 0)), hole_set=frozenset({2, 3}), rotation=None, boundary_parallel_to=None), sign=-1)"
    )
    # the surface reprs reach two RankMismatchError messages
    with pytest.raises(RankMismatchError) as exc:
        surface.d_class(2) + Surface(0, 3).d_class(2)
    assert str(exc.value) == (
        "classes live on different surfaces: Surface(genus=0, boundary_count=4) vs Surface(genus=0, boundary_count=3)"
    )
    with pytest.raises(RankMismatchError) as exc:
        Word(Surface(0, 5), (Twist(curve),))
    assert str(exc.value) == (
        "twist about a12 lives on Surface(genus=0, boundary_count=4), not Surface(genus=0, boundary_count=5)"
    )


def test_a_value_class_needs_two_fields():
    with pytest.raises(TypeError):
        type("OneField", (Value,), {"__slots__": ("only",)})


# The classes whose constructors only store their arguments: Value builds
# those from __slots__ and _defaults.
STORING = {SmithForm, PlanarForm, SigmaLedger, SigmaValue, ChernData, FillingInvariants, RelatorWitness,
           BoundingWitness, PlanarityCertificate, BoundingCase, SubstitutionRecord, RelatorCheck, RelatorReport}


def test_storing_constructors_are_generated():
    assert {cls for cls in BUILDERS if cls.__init__.__code__.co_filename == "<string>"} == STORING
    for cls in STORING:
        assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
        assert cls.__init__.__module__ == cls.__module__


def test_generated_constructor_calls_as_a_written_one():
    fields = ("a", "b", "c", "_cache")
    cls = type("Triple", (Value,), {"__slots__": fields, "_defaults": {"c": 0}})
    assert repr(cls(1, 2)) == "Triple(a=1, b=2, c=0)"
    assert _fields(cls(1, c=3, b=2)) == (1, 2, 3)
    assert not hasattr(cls(1, 2), "_cache")
    with pytest.raises(TypeError, match=r"^Triple\.__init__\(\) missing 1 required positional argument: 'b'$"):
        cls(1)
    with pytest.raises(TypeError, match=r"^Triple\.__init__\(\) got an unexpected keyword argument 'd'$"):
        cls(1, 2, d=4)
    with pytest.raises(TypeError, match=r"^Triple\.__init__\(\) takes from 3 to 4 positional arguments but 5"):
        cls(1, 2, 3, 4)
    with pytest.raises(TypeError, match=r"got multiple values for argument 'a'"):
        cls(1, 2, a=1)


def test_defaults_must_name_fields():
    with pytest.raises(TypeError, match=r"^Stray: defaults for non-fields \['_cache', 'z'\]$"):
        type("Stray", (Value,), {"__slots__": ("a", "b", "_cache"), "_defaults": {"b": 1, "z": 2, "_cache": 3}})


def test_defaults_must_trail():
    with pytest.raises(TypeError, match=r"^Gap: a field without a default follows a field with one$"):
        type("Gap", (Value,), {"__slots__": ("a", "b", "c"), "_defaults": {"b": 1}})


@pytest.mark.parametrize("name", ["lambda", "self"])
def test_field_names_must_be_parameter_names(name):
    with pytest.raises(TypeError, match=rf"^Keyword: field '{name}' cannot name a parameter$"):
        type("Keyword", (Value,), {"__slots__": ("a", name)})
    # a class writing its own constructor may still use such a field
    assert type("Own", (Value,), {"__slots__": ("a", name), "__init__": lambda self: None})._fields == ("a", name)
