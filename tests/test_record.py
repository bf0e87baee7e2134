import pytest

from godp.axioms import Cardinality, DisjointClasses, EquivalentClasses, FunctionalProperty, Named
from godp.diagnostics import Diagnostic, Span
from godp.names import StructuredName, name
from godp.syntax import Ref


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
        assert repr(Ref("O", Span(1, 2))) == "Ref(name='O', span=Span(line=1, col=2, end_line=1, end_col=2))"

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
            Ref("O", Span(1, 2), line=3)

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
