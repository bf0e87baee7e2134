"""Frozen value types, cheap to define at import time.

``record`` is the metaclass of a value type, ``class Span(metaclass=record)``.
The class it makes is a ``tuple`` subclass with ``__slots__ = ()``, whose
items are the fields: its hash is ``tuple.__hash__`` and its field reads are
``collections._tuplegetter`` descriptors, as a ``namedtuple``'s are, so
hashing and reading run in C. Equality compares items only against a record
of the same class: a record never equals a plain tuple or a record of
another class. An instance has no ``__dict__``, and assignment and deletion
raise ``AttributeError``.

The fields are the class's own annotations, in order, and a class-level
value is a field's default. One ``exec`` compiles the class's ``__new__``
under the file name ``<record NAME>``, which a traceback shows; it takes
the fields by position or keyword, and then calls the class's
``__post_init__``, if it has one, which may only validate the built value.
``__getnewargs__`` hands the fields back to that ``__new__``, so a record
survives ``copy`` and ``pickle``. Any other method the class defines itself
is kept. ``record`` also sets ``_fields``, the field names.

``record`` is a function, not a subclass of ``type``, so the class it makes
is a plain ``type``, one class object, and ``isinstance`` against it takes
the interpreter's fast path.
"""

from __future__ import annotations

from collections import _tuplegetter


def _repr(self) -> str:
    cls = type(self)
    return f"{cls.__qualname__}({', '.join(f'{n}={v!r}' for n, v in zip(cls._fields, self))})"


_tuple_eq, _tuple_ne = tuple.__eq__, tuple.__ne__


def _eq(self, other) -> bool:
    return type(other) is type(self) and _tuple_eq(self, other)


def _ne(self, other) -> bool:
    return type(other) is not type(self) or _tuple_ne(self, other)


def _getnewargs(self) -> tuple:
    # A function, not ``tuple`` itself: a class stored on a class does not bind.
    return tuple(self)


def record(name: str, bases: tuple, body: dict) -> type:
    fields = tuple(body.get("__annotations__", ()))
    defaults = {f: body.pop(f) for f in fields if f in body}
    body.update((f, _tuplegetter(i, None)) for i, f in enumerate(fields))
    body["__slots__"] = ()
    for method, value in (("__eq__", _eq), ("__ne__", _ne), ("__repr__", _repr), ("__hash__", tuple.__hash__)):
        body.setdefault(method, value)
    body.setdefault("__getnewargs__", _getnewargs)
    params = ", ".join(f"{f}=_defaults[{f!r}]" if f in defaults else f for f in fields)
    built = f"_new(_cls, ({''.join(f'{f}, ' for f in fields)}))"
    source = f"def __new__(_cls, {params}):\n" + (
        f"    _self = {built}\n    _self.__post_init__()\n    return _self\n"
        if "__post_init__" in body
        else f"    return {built}\n"
    )
    namespace = {"_defaults": defaults, "_new": tuple.__new__}
    exec(compile(source, f"<record {name}>", "exec"), namespace)
    body["__new__"] = namespace["__new__"]
    cls = type(name, bases + (tuple,), body)
    cls._fields = fields
    return cls
