"""The immutable-value base shared by the package's small record classes.

A class that declares _fields gets the tuple of those attributes as
_values; a subclass without its own _fields inherits its parent's.  Each
class stores its fields in its own __init__, after its checks; a field
that follows from the others may be a property instead
(CharacteristicFunction.n is the length of its first vector).  The base
compares instances of exactly the same class by their _values, hashes
that tuple, prints it as Name(field=value, ...) and refuses assignment
and deletion.  OrderedValue (Face's base) also orders them: it writes
__lt__ over the same tuples, and functools.total_ordering derives <=, >
and >= from it and ==.  sorted() and list.sort() use only <.

Stored fields live in __slots__: Value and OrderedValue declare none, and
each subclass lists the fields it stores (CharacteristicFunction lists
only "vectors"; UnimodularMatrix adds none to IntMatrix's "rows").  An
instance then has no per-instance attribute store, which on CPython 3.11
saves one values array per instance, and enumerate builds thousands of
CharacteristicFunction instances per call.  Fields are stored with
object.__setattr__, or with the slot's own descriptor, since the class's
__setattr__ refuses.

No class keeps "__dict__".  Data derived from the fields sits in further
slots that _fields does not name, and the constructor fills them before
it returns (FaceComplex.faces and its _face_of dict, SkeletalMap's
lookup dict, Sublattice._annihilator, ProblemFile._complex, the pair's
_violation); it is never compared, and no slot changes after the
constructor returns.

Pickling, copy and deepcopy go through the constructor: __reduce__
returns (type(self), self._values), and each class's _fields are its
constructor's parameters in order.  So an unpickled value passes the same
checks as a new one, and derives its own data afresh.
"""

from __future__ import annotations

from functools import total_ordering
from operator import attrgetter


class Value:
    """Immutable record: equality, hash and repr over the _fields tuple."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        if "_fields" in vars(cls):
            get = attrgetter(*cls._fields)
            # attrgetter of one name returns the bare value; the key is always a tuple
            cls._values = property(get if len(cls._fields) > 1 else lambda self: (get(self),))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values))
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self) -> tuple[type, tuple[object, ...]]:
        return type(self), self._values

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


@total_ordering
class OrderedValue(Value):
    """A Value that also orders instances of one class by their field tuples."""

    __slots__ = ()

    def __lt__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values < other._values
        return NotImplemented
