"""Frozen value types, cheap to define at import time.

``record`` is the metaclass of a value type, ``class Span(metaclass=record)``.
It gives the class a field-wise ``__init__``, ``__eq__``, ``__hash__`` and
``repr``, and refuses assignment and deletion; one ``exec`` compiles its
``__init__``, ``__eq__`` and ``__hash__`` under the file name ``<record
NAME>``, which a traceback shows. The fields are the class's own annotations,
in order, a class-level value is a field's default, and a method the class
defines itself is kept. ``record`` also sets ``_fields``, the field names,
and ``_values``, a getter of the field tuple: call it through the class, as
``type(x)._values(x)``, since an instance binds a one-field class's getter.

The fields become ``__slots__`` before the class is made, so an instance
has no ``__dict__``; a class adds slots that are not fields by naming them
in ``__slots__``. A default is taken out of the class body, where it would
clash with its field's slot. ``record`` is a function, not a subclass of
``type``, so the class it makes is a plain ``type``, one class object, and
``isinstance`` against it takes the interpreter's fast path.
"""

from __future__ import annotations

from operator import attrgetter


def _repr(self) -> str:
    cls = type(self)
    return f"{cls.__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in cls._fields)})"


def _frozen(self, name: str, *value) -> None:
    raise AttributeError(f"cannot assign to or delete field {name!r} of a frozen {type(self).__name__}")


def record(name: str, bases: tuple, body: dict) -> type:
    fields = tuple(body.get("__annotations__", ()))
    defaults = {f: body.pop(f) for f in fields if f in body}
    body["__slots__"] = fields + tuple(body.get("__slots__", ()))
    cls = type(name, bases, body)
    params = ", ".join(f"{f}=_defaults[{f!r}]" if f in defaults else f for f in fields)
    mine = "".join(f"self.{f}, " for f in fields)
    theirs = "".join(f"other.{f}, " for f in fields)
    # __init__ stores through object.__setattr__, round the class's own,
    # which refuses every assignment; each value goes into its field's slot.
    source = (
        f"def __init__(self, {params}):\n"
        + "".join(f"    _setattr(self, {f!r}, {f})\n" for f in fields)
        + ("    self.__post_init__()\n" if hasattr(cls, "__post_init__") else "")
        + "def __eq__(self, other):\n"
        "    if other.__class__ is self.__class__:\n"
        f"        return ({mine}) == ({theirs})\n"
        "    return NotImplemented\n"
        "def __hash__(self):\n"
        f"    return hash(({mine}))\n"
    )
    namespace = {"_defaults": defaults, "_setattr": object.__setattr__}
    exec(compile(source, f"<record {name}>", "exec"), namespace)
    namespace.update(__repr__=_repr, __setattr__=_frozen, __delattr__=_frozen)
    for method in ("__init__", "__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__"):
        if method not in cls.__dict__:
            setattr(cls, method, namespace[method])
    get = attrgetter(*fields)
    cls._fields = fields
    cls._values = get if len(fields) > 1 else lambda node: (get(node),)
    return cls
