import copy
import importlib
import os
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import godp
from godp.axioms import (
    Cardinality,
    DisjointClasses,
    EquivalentClasses,
    FunctionalProperty,
    InverseFunctionalProperty,
    Named,
    SubClassOf,
)
from godp.diagnostics import Diagnostic, Span
from godp.expansion import expand
from godp.names import StructuredName, name
from godp.parser import parse_library
from godp.resolver import resolve
from godp.syntax import Ref

from tests.conftest import fixture_text


def c(text):
    return Named(name(text))


class TestEquality:
    def test_same_fields_of_another_class_differ(self):
        a, b = c("A"), c("B")
        assert EquivalentClasses(a, b) != DisjointClasses(a, b)
        assert EquivalentClasses(a, b) == EquivalentClasses(c("A"), c("B"))

    def test_same_items_of_another_class_differ(self):
        # Both hash as the tuple (p,); only the class tells them apart.
        p = name("p")
        f, inv = FunctionalProperty(p), InverseFunctionalProperty(p)
        assert f != inv and not f == inv and hash(f) == hash(inv)
        assert len({f, inv}) == 2
        assert {f: 1, inv: 2}[FunctionalProperty(p)] == 1

    def test_never_equals_a_plain_tuple(self):
        # Both hash as the tuple (1, 2); only the class tells them apart.
        assert hash(Span(1, 2)) == hash((1, 2))
        assert Span(1, 2) != (1, 2) and (1, 2) != Span(1, 2)
        assert not Span(1, 2) == (1, 2) and not (1, 2) == Span(1, 2)
        assert (1, 2) not in {Span(1, 2)} and Span(1, 2) not in {(1, 2): 0}

    def test_default_fills_a_missing_field(self):
        assert Diagnostic("error", "X", "m") == Diagnostic("error", "X", "m", None, None, ())
        assert Diagnostic("error", "X", "m") != Diagnostic("error", "X", "m", None, "f", ())

    def test_equal_values_hash_equal(self):
        x = StructuredName("rel", ((name("A"), name("B")),))
        y = StructuredName("rel", ((name("A"), name("B")),))
        assert x is not y and x == y and hash(x) == hash(y)
        assert hash(Diagnostic("error", "X", "m")) == hash(Diagnostic("error", "X", "m", None, None, ()))
        assert len({EquivalentClasses(c("A"), c("B")), EquivalentClasses(c("A"), c("B"))}) == 1


class TestFrozen:
    def test_assignment_raises(self):
        span = Span(1, 2)
        with pytest.raises(AttributeError):
            span.line = 5
        with pytest.raises(AttributeError):
            span.other = 5
        assert span.line == 1 and not hasattr(span, "other")

    def test_del_raises(self):
        n = name("A")
        with pytest.raises(AttributeError):
            del n.base
        assert n.base == "A"

    def test_every_field_is_read_only(self):
        ax = SubClassOf(c("A"), c("B"))
        for field in ("sub", "sup"):
            with pytest.raises(AttributeError):
                setattr(ax, field, c("C"))
            with pytest.raises(AttributeError):
                delattr(ax, field)
        assert ax == SubClassOf(c("A"), c("B"))


class TestCopy:
    """``copy`` and ``pickle`` rebuild a record through its ``__new__``,
    which takes the fields back by position."""

    values = pytest.mark.parametrize(
        "value",
        [Span(1, 2), name("A"), parse_library(fixture_text("role.gdol"), "role.gdol")],
        ids=["span", "name", "library"],
    )

    @values
    def test_copy(self, value):
        assert copy.copy(value) == value and type(copy.copy(value)) is type(value)

    @values
    def test_deepcopy(self, value):
        assert copy.deepcopy(value) == value and type(copy.deepcopy(value)) is type(value)

    @values
    def test_pickle_round_trip(self, value):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            restored = pickle.loads(pickle.dumps(value, protocol))
            assert restored == value and type(restored) is type(value)


class TestConstruction:
    def test_repr(self):
        assert repr(Span(1, 2)) == "Span(line=1, col=2)"
        assert repr(Ref("O", (), Span(1, 2))) == "Ref(name='O', args=(), span=Span(line=1, col=2))"

    def test_repr_leaves_out_the_cached_hash(self):
        assert repr(name("A")) == "StructuredName(base='A', groups=())"

    def test_defaults_and_keywords(self):
        assert Span(1, 2) == Span(col=2, line=1)
        d = Diagnostic("error", "SyntaxError", "bad")
        assert (d.span, d.file, d.notes) == (None, None, ())
        keywords = Diagnostic(code="SyntaxError", severity="error", message="bad", file="f")
        assert keywords == Diagnostic("error", "SyntaxError", "bad", None, "f", ())

    def test_wrong_argument_count(self):
        with pytest.raises(TypeError):
            Span(1)
        with pytest.raises(TypeError):
            Span(1, 2, 3, 4, 5)
        with pytest.raises(TypeError):
            Ref("O", (), Span(1, 2), line=3)

    def test_post_init_validates(self):
        with pytest.raises(ValueError):
            StructuredName("1x")
        with pytest.raises(ValueError):
            Cardinality(name("p"), "most", 1, c("A"))
        with pytest.raises(ValueError):
            Cardinality(name("p"), "min", -1, c("A"))


class TestSchema:
    def test_fields_in_annotation_order(self):
        assert Span._fields == ("line", "col")
        assert Diagnostic._fields == ("severity", "code", "message", "span", "file", "notes")
        assert Cardinality._fields == ("prop", "bound", "n", "filler")

    def test_items_are_the_field_values(self):
        # A record is the tuple of its field values.
        assert tuple(FunctionalProperty(name("p"))) == (name("p"),)
        assert tuple(Span(1, 2)) == (1, 2)
        assert tuple(Diagnostic("error", "X", "m")) == ("error", "X", "m", None, None, ())


def record_types() -> set[type]:
    """Every record class of the package."""
    found = set()
    for info in pkgutil.iter_modules(godp.__path__):
        if info.name != "__main__":
            module = importlib.import_module(f"godp.{info.name}")
            found.update(
                value for value in vars(module).values()
                if isinstance(value, type) and "_fields" in value.__dict__ and value.__module__ == module.__name__
            )
    return found


def record_nodes(*roots) -> list:
    """The records reachable from ``roots`` through fields and tuples. A
    record is recognised by its ``_fields``; its items are its fields."""
    found, stack = [], list(roots)
    while stack:
        value = stack.pop()
        if hasattr(type(value), "_fields"):
            found.append(value)
        if isinstance(value, tuple):
            stack.extend(value)
    return found


class TestSlots:
    def test_every_record_type_is_slotted(self):
        types = record_types()
        assert len(types) == 38
        assert [cls.__name__ for cls in types if cls.__dictoffset__] == []
        assert [cls.__name__ for cls in types if not issubclass(cls, tuple)] == []

    def test_no_instance_has_a_dict(self):
        text = fixture_text("role.gdol")
        resolved = resolve(parse_library(text, "role.gdol"), "role.gdol")
        result = expand(resolved, "ProfRoleOntology")
        nodes = record_nodes(resolved.library, result.ontology.axioms, tuple(result.ontology.signature.items()))
        assert len({type(node) for node in nodes}) > 20
        assert [node for node in nodes if hasattr(node, "__dict__")] == []

    def test_default_is_not_a_class_attribute(self):
        # The default lives in the generated __new__; the class attribute
        # of that name reads the field's item.
        for cls, field in ((StructuredName, "groups"), (Diagnostic, "notes")):
            assert type(cls.__dict__[field]).__name__ == "_tuplegetter"
        assert StructuredName("A").groups == () and Diagnostic("error", "X", "m").notes == ()

    def test_each_record_is_one_plain_class(self):
        # The schema tables in godp.axioms are read from these subclass
        # lists at import, so no stale class may linger until a GC pass.
        assert {type(cls) for cls in record_types()} == {type}
        src = Path(godp.__file__).resolve().parents[1]
        code = (
            "import gc; gc.disable(); from godp.axioms import AtomicAxiom, ClassExpr;"
            " print(len(ClassExpr.__subclasses__()), len(AtomicAxiom.__subclasses__()))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.stdout == "7 12\n"
