"""Exception types and the immutable value base shared across the package.

The engine distinguishes "certified no" from "could not certify": a search
that fails raises ``NotApplicableError`` (or answers "unknown") rather than
claiming a definite negative.
"""

from keyword import iskeyword
from operator import attrgetter


class Value:
    """Base of the package's immutable values.

    A subclass names its fields in ``__slots__``; a slot whose name starts
    with an underscore is a cache, not a field.  ``_fields`` names the
    fields in order, as on a named tuple.  A subclass that defines no
    ``__init__`` gets one built from its fields, as a named tuple's is:
    one parameter per field, in order, storing each argument, with the
    trailing fields that the optional class mapping ``_defaults`` names
    taking its values as defaults.  When the class has a
    ``__post_init__``, as a dataclass may (PEP 557), that constructor
    calls it once after the last store; there the class checks its
    fields and sets the derived ones with ``object.__setattr__``.  Two
    classes write their own constructor, and may not also define the
    hook: ``Word``, which builds its curve table there and shares it with
    ``_splice``, and ``Curve``, whose ``_settle`` lets ``convex_curve``
    skip recomputing the class from the hole set.  Two values are equal
    when they are of the same class with equal fields, a value hashes as
    the tuple of its fields, and its repr names each field.  Assigning or
    deleting an attribute raises ``AttributeError``.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        if len(fields) < 2:
            # attrgetter of one name returns the bare value, not a 1-tuple
            raise TypeError(f"{cls.__name__}: a value class needs at least two fields")
        cls._fields = fields
        cls._key = attrgetter(*fields)
        if "__init__" not in cls.__dict__:
            cls.__init__ = _storing_init(cls, fields, cls.__dict__.get("_defaults", {}))
        elif "__post_init__" in cls.__dict__:
            raise TypeError(f"{cls.__name__}: a class writing its own __init__ cannot define __post_init__")

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # rebuild through __init__, so checks and caches are redone
        return self.__class__, self._key(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _storing_init(cls, fields, defaults):
    """Compile, as ``namedtuple`` does, an ``__init__(self, *fields)`` that
    stores each argument, its trailing parameters defaulting to ``defaults``,
    and then calls the class's ``__post_init__``, if it has one."""
    for name in fields:  # type() has already refused slots that are not identifiers
        if iskeyword(name) or name == "self":
            raise TypeError(f"{cls.__name__}: field {name!r} cannot name a parameter")
    if not set(defaults) <= set(fields):
        raise TypeError(f"{cls.__name__}: defaults for non-fields {sorted(set(defaults) - set(fields))}")
    tail = fields[len(fields) - len(defaults):]
    if set(tail) != set(defaults):
        raise TypeError(f"{cls.__name__}: a field without a default follows a field with one")
    post = getattr(cls, "__post_init__", None)
    namespace = {"_setattr": object.__setattr__, "_post": post, "__name__": cls.__module__}
    body = "".join(f"\n    _setattr(self, {name!r}, {name})" for name in fields)
    body += "\n    _post(self)" if post is not None else ""
    exec(f"def __init__(self, {', '.join(fields)}):{body}", namespace)
    init = namespace["__init__"]
    init.__defaults__ = tuple(defaults[name] for name in tail)
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


class SteincalcError(Exception):
    """Base class for structured errors raised by this package."""


class RankMismatchError(SteincalcError):
    """Vectors or classes from surfaces of different homology rank were combined."""


class NotApplicableError(SteincalcError):
    """No certified embedding was found for a substitution.

    Weaker than "definitely absent": the search is sound but incomplete.
    """


class UnsupportedInputError(SteincalcError):
    """Input lacks data an exact computation needs (hole sets, rotations, ...)."""


class IncomparableSigmaError(SteincalcError):
    """Two signature values live in different modes or over different baselines."""


class DocumentError(SteincalcError):
    """An input document was rejected. Carries the offending location."""

    def __init__(self, location: str, message: str):
        self.location = location
        self.message = message
        super().__init__(f"{location}: {message}")


class ConsistencyAlarmError(SteincalcError):
    """An internal cross-check failed; results cannot be trusted."""
