"""Immutable value classes with no code generated at import.

Every value class of the package is a Record.  A subclass lists its fields as annotations, in order, with optional
defaults, which every instance shares, so each must be immutable.  Once per
subclass, __init_subclass__ reads the fields and makes the __init__ (a
closure); equality, hash, repr and the guards are the plain methods below.
This module exists so that importing the package execs no source: the
standard library's decorator for such classes writes their methods as source
and execs it, about half a millisecond a class, and importing it pulls in
inspect.

A record keeps what the frozen classes of that decorator gave: __init__ by
position or keyword with the same defaults, equality with records of the same
class only, a hash of the field values, the repr Name(field=value, ...), and
no assignment or deletion of a field.  Fields live in the instance __dict__,
which copy and pickle restore without calling __setattr__.
"""

from __future__ import annotations

from operator import attrgetter


def _init(names: tuple[str, ...], defaults: dict):
    """The __init__ of a record with these fields and defaults: a closure, so
    the call reads them from cells.  A call by position alone fills every
    field when it gives at least the fields up to the last one without a
    default; any other call takes the checked path."""
    n = len(names)
    required = max((i + 1 for i, name in enumerate(names) if name not in defaults), default=0)

    def __init__(self, *args, **kwargs):
        state = self.__dict__
        state.update(defaults)
        for name, value in zip(names, args):
            state[name] = value
        if kwargs or not required <= len(args) <= n:
            if len(args) > n or not kwargs.keys().isdisjoint(names[:len(args)]):
                raise TypeError(f"{type(self).__name__}() takes at most {n} fields, each once")
            if kwargs.keys() - names:
                raise TypeError(f"{type(self).__name__}() got unknown fields {sorted(kwargs.keys() - names)}")
            state.update(kwargs)
            if len(state) != n:
                raise TypeError(f"{type(self).__name__}() missing fields {[f for f in names if f not in state]}")

    return __init__


class Record:
    """The base of a value class whose fields are its own annotations."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = names = tuple(cls.__dict__.get("__annotations__", ()))
        if "__init__" not in cls.__dict__:
            cls.__init__ = _init(names, {name: cls.__dict__[name] for name in names if name in cls.__dict__})
        get = attrgetter(*names)
        # the field values as a tuple: attrgetter gives a bare value for one name
        cls._values = staticmethod(get if len(names) > 1 else lambda obj: (get(obj),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
