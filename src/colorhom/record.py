"""Frozen value records: a class lists its fields in ``FIELDS``, its ``__slots__``;
a record sets them, then runs ``__post_init__`` (the class's validation).
Records compare by value (``is`` first), cache their hash, refuse writes and
deletes.  Every value a bundle holds is frozen this way, down to its maps,
vectors, bicharacter and stored reports; a dict-valued field is kept as a
read-only ``MappingProxyType`` view, which copy and pickle hand back to the
constructor as a plain dict, so a copy is validated again.  A constructor
writes its fields through ``slot_setters``.  A class may keep caches in extra
slots, set with ``object.__setattr__``; they are not fields.
A cache slot refuses reassignment, but a memo dict kept in one takes item
writes; only frozen values are put in it."""

from operator import attrgetter
from types import MappingProxyType

from .errors import FrozenError


class Record:
    __slots__ = ("_hash",)
    FIELDS = ()

    def __init_subclass__(cls):  # _values: record -> its field values
        cls._values = attrgetter(*cls.FIELDS) if cls.FIELDS else None
        cls._setters = slot_setters(cls, *cls.FIELDS)  # in FIELDS order

    def __init__(self, *args, **kwargs):
        fields = self.FIELDS
        if kwargs:  # keywords name the fields after the positional ones
            args += tuple(kwargs.pop(name) for name in fields[len(args):] if name in kwargs)
        if kwargs or len(args) != len(fields):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(fields)}")
        for set_slot, value in zip(self._setters, args):
            set_slot(self, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value=None):
        raise FrozenError(f"field {name!r} of a record is frozen")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        if not hasattr(self, "_hash"):  # fields are immutable, so the hash is too
            object.__setattr__(self, "_hash", hash(self._values(self)))
        return self._hash

    def __reduce__(self):
        return type(self), tuple(dict(v) if isinstance(v, MappingProxyType) else v
                                 for v in self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.FIELDS)
        return f"{type(self).__name__}({fields})"


def slot_setters(cls, *names):
    """The ``__set__`` of each named slot of cls, in order: set_slot(obj,
    value) writes the slot past the frozen ``__setattr__``, with none of
    the name lookup ``object.__setattr__`` makes on each call."""
    return tuple(getattr(cls, name).__set__ for name in names)


def replace(record, **changes):
    """A copy of record with some fields changed, validated again."""
    return type(record)(**{name: getattr(record, name) for name in record.FIELDS} | changes)
