"""Immutable value records without the `dataclasses` machinery.

A `Record` subclass names its fields in `__slots__` and sets them in its own
`__init__` through `object.__setattr__`. The base supplies what a frozen
dataclass would: equality of field tuples between instances of the same
class (`NotImplemented` otherwise), the hash of the field tuple, the repr
`Name(field=value, ...)`, and a `__setattr__`/`__delattr__` that raise.
A subclass without `__slots__` (it then has a `__dict__`) names its fields
in `_fields` instead, and one that defines `__eq__` or `__hash__` keeps its
own.
"""

from operator import attrgetter


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls.__dict__.get("__slots__", cls._fields)
        cls._fields = fields
        # closures over one C attrgetter cost what a dataclass's generated
        # methods do; attrgetter of one name returns the bare value
        get = attrgetter(*fields)
        if len(fields) == 1:
            def __hash__(self):
                return hash((get(self),))
        else:
            def __hash__(self):
                return hash(get(self))

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return get(self) == get(other)
            return NotImplemented

        for name, method in (("__eq__", __eq__), ("__hash__", __hash__)):
            if name not in cls.__dict__:
                setattr(cls, name, method)

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"
