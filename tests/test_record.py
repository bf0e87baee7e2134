import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import godp
from godp.axioms import Cardinality, DisjointClasses, EquivalentClasses, FunctionalProperty, Named
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

    def test_equal_values_hash_equal(self):
        x = StructuredName("rel", ((name("A"), name("B")),))
        y = StructuredName("rel", ((name("A"), name("B")),))
        assert x is not y and x == y and hash(x) == hash(y)
        assert hash(Span(3, 4)) == hash(Span(3, 4, 3, 4))
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


class TestConstruction:
    def test_repr(self):
        assert repr(Span(1, 2)) == "Span(line=1, col=2, end_line=1, end_col=2)"
        assert repr(Ref("O", (), Span(1, 2))) == (
            "Ref(name='O', args=(), span=Span(line=1, col=2, end_line=1, end_col=2))"
        )

    def test_repr_leaves_out_the_cached_hash(self):
        assert repr(name("A")) == "StructuredName(base='A', groups=())"

    def test_defaults_and_keywords(self):
        assert Span(1, 2, 3, 4) == Span(line=1, col=2, end_col=4, end_line=3)
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
        assert Span._fields == ("line", "col", "end_line", "end_col")
        assert Cardinality._fields == ("prop", "bound", "n", "filler")

    def test_values_through_the_class(self):
        ax = FunctionalProperty(name("p"))
        assert FunctionalProperty._values(ax) == (name("p"),)
        assert Span._values(Span(1, 2)) == (1, 2, 1, 2)


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
    """The records reachable from ``roots`` through fields and tuples."""
    found, stack = [], list(roots)
    while stack:
        value = stack.pop()
        if isinstance(value, tuple):
            stack.extend(value)
        elif hasattr(type(value), "_fields"):
            found.append(value)
            stack.extend(type(value)._values(value))
    return found


class TestSlots:
    def test_every_record_type_is_slotted(self):
        types = record_types()
        assert len(types) == 38
        assert [cls.__name__ for cls in types if cls.__dictoffset__] == []

    def test_no_instance_has_a_dict(self):
        text = fixture_text("role.gdol")
        resolved = resolve(parse_library(text, "role.gdol"), "role.gdol")
        result = expand(resolved, "ProfRoleOntology")
        nodes = record_nodes(resolved.library, result.ontology.axioms, tuple(result.ontology.signature.items()))
        assert len({type(node) for node in nodes}) > 20
        assert [node for node in nodes if hasattr(node, "__dict__")] == []

    def test_default_is_not_a_class_attribute(self):
        # The default lives in the generated __init__; the class attribute
        # of that name is the field's slot.
        assert type(Span.__dict__["end_line"]).__name__ == "member_descriptor"
        assert Span(1, 2).end_line == 1 and Diagnostic("error", "X", "m").notes == ()

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
