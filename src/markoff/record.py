"""Immutable records: slotted classes that behave as frozen dataclasses.

`dataclasses` loads `inspect` and compiles each class's methods with `exec`,
which costs more than most commands.  A record's fields are its `__slots__`,
set by its own straight-line `__init__` through `_set`; the base compares,
hashes, prints and pickles by them and refuses assignment and deletion.  A
record equals itself at once, so checking a shared modulus is one `is` test.
"""

_set = object.__setattr__


class Record:
    __slots__ = ()

    def _values(self):
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()
