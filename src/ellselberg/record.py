"""Immutable records whose methods are written out, not generated.

A record class lists its fields in ``__slots__``, in order (a slot whose
name starts with an underscore is held state, not a field), and writes its
own ``__init__``, which validates and stores each field with ``_set``.
:class:`Record` supplies the rest: assignment and deletion raise
AttributeError; equality holds only between records of one class and
compares the fields in order, and the hash is that of the same tuple; the
repr is ``Name(field=value, ...)``; :meth:`Record.replace` builds a copy
through ``__init__``, so a changed field is checked again; ``field_names``
is the tuple of field names.
"""

from __future__ import annotations

from operator import attrgetter

# How a record's __init__ stores a field past the frozen __setattr__.
_set = object.__setattr__


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        cls.field_names = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        cls._values = attrgetter(*cls.field_names)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        pairs = zip(self.field_names, self._values(self))
        values = ", ".join(f"{name}={value!r}" for name, value in pairs)
        return f"{type(self).__qualname__}({values})"

    def __reduce__(self):
        return type(self), self._values(self)

    def replace(self, **changes):
        """A copy with ``changes`` to its fields, built (and so validated) by
        ``__init__``; TypeError for a name that is not a field."""
        values = dict(zip(self.field_names, self._values(self)))
        values.update(changes)
        return type(self)(**values)
