"""Exception types and the immutable value base shared across the package.

The engine distinguishes "certified no" from "could not certify": a search
that fails raises ``NotApplicableError`` (or answers "unknown") rather than
claiming a definite negative.
"""

from operator import attrgetter


class Value:
    """Base of the package's immutable values.

    A subclass names its fields in ``__slots__`` and sets them in its
    ``__init__`` with ``object.__setattr__``; a slot whose name starts with
    an underscore is a cache, not a field.  ``_fields`` names the fields in
    order, as on a named tuple.  Two values are equal when they are of the
    same class with equal fields, a value hashes as the tuple of its
    fields, and its repr names each field.  Assigning or deleting an
    attribute raises ``AttributeError``.
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
