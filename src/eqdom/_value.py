"""Frozen value classes without dataclasses, whose import and exec-built
methods were the largest part of the import that every CLI call pays."""

from __future__ import annotations

from operator import attrgetter

_setattr = object.__setattr__


class Value:
    """Base of a frozen value class.  Fields: the class's own annotations, in
    order; a class attribute of the same name is a default.  Set by position
    or keyword, checked by __post_init__, fixed after.  == and hash compare
    the fields not in the class keyword uncompared, for the same class only;
    repr shows those not in hidden; none sees a cached_property's value."""

    def __init_subclass__(cls, uncompared=(), hidden=()):
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}
        cls._key = attrgetter(*(f for f in cls._fields if f not in uncompared))
        cls._shown = tuple(f for f in cls._fields if f not in hidden)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        # every field given positionally: the common case, kept fast
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        # object.__setattr__ keeps the values inline: reading self.__dict__
        # would build a dict and slow every later attribute read
        for name, value in zip(fields, args):
            _setattr(self, name, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args, kwargs) -> list:
        """The field values, in order, of a call with keywords or defaults:
        args, then each later field from kwargs or else its default.
        TypeError unless that takes every keyword and misses no field."""
        fields = cls._fields
        values = list(args)
        if len(values) <= len(fields):
            defaults, taken = cls._defaults, 0
            for name in fields[len(values):]:
                if name in kwargs:
                    values.append(kwargs[name])
                    taken += 1
                elif name in defaults:
                    values.append(defaults[name])
                else:
                    break
            else:
                if taken == len(kwargs):
                    return values
        raise TypeError(f"{cls.__name__}() takes the fields ({', '.join(fields)}), got "
                        f"{len(args)} positional value(s) and keywords ({', '.join(kwargs)})")

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._key(self) == other._key(other) if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._shown)
        return f"{type(self).__qualname__}({shown})"

    def replace(self, **changes):
        """A copy with the given fields changed; __post_init__ runs again."""
        return type(self)(**{**{f: getattr(self, f) for f in self._fields}, **changes})
