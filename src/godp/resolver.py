"""Name binding, arity checking, definition-order checks, and cycle detection.

Names bind against the whole library table so that cycle detection can run
even in the presence of forward references; a forward reference is still an
error in its own right (definitions may only refer to earlier items or, for
patterns, to themselves — self-reference then surfaces as a cycle).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .axioms import Declaration, EntityKind, axiom_names, mentions
from .diagnostics import Diagnostic, GodpError, Span
from .frames import desugar_frames
from .names import THING_BASE, StructuredName
from .syntax import (
    AndExpr,
    Instantiate,
    Library,
    OmittedArg,
    OntologyArg,
    OntologyDef,
    OntologyExpr,
    OntologyParam,
    PatternDef,
    Ref,
    SymbolParam,
    Then,
)


@dataclass
class ResolvedLibrary:
    library: Library
    table: dict[str, object]  # item name -> OntologyDef | PatternDef
    order: dict[str, int]  # item name -> definition index
    references: dict[str, list[str]]  # item name -> referenced item names
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    def ontology_names(self) -> list[str]:
        return [i.name for i in self.library.items if isinstance(i, OntologyDef)]


def pattern_param_names(item: PatternDef) -> set[StructuredName]:
    """Names a pattern's parameter list introduces (ontology params contribute
    their declared symbols)."""
    names: set[StructuredName] = set()
    for param in item.params:
        if isinstance(param, SymbolParam):
            names.add(param.name)
        else:
            for ax in desugar_frames(param.frames):
                if isinstance(ax, Declaration):
                    names.add(ax.name)
    return names


def resolve(lib: Library, file: str | None = None) -> ResolvedLibrary:
    table: dict[str, object] = {}
    order: dict[str, int] = {}
    references: dict[str, list[str]] = {}
    diagnostics: list[Diagnostic] = []

    def report(code: str, message: str, span: Span | None) -> None:
        diagnostics.append(Diagnostic("error", code, message, span, file))

    for index, item in enumerate(lib.items):
        if item.name in table:
            report("DuplicateName", f"{item.name!r} is defined twice", item.span)
            continue
        table[item.name] = item
        order[item.name] = index

    for item in lib.items:
        if item.name not in table or table[item.name] is not item:
            continue  # duplicate definition, already reported
        refs: list[str] = []
        references[item.name] = refs

        def check_target(
            name: str, span: Span, *, want_pattern: bool, arg_count: int | None
        ) -> None:
            target = table.get(name)
            if target is None:
                report("UnresolvedReference", f"unknown reference {name!r}", span)
                return
            refs.append(name)
            if order[name] > order[item.name]:
                report(
                    "ForwardReference",
                    f"{name!r} is defined after {item.name!r};"
                    " references may only point backwards",
                    span,
                )
            if want_pattern and not isinstance(target, PatternDef):
                report("NotAPattern", f"{name!r} is an ontology, not a pattern", span)
                return
            if not want_pattern and isinstance(target, PatternDef):
                # A bare reference to a pattern is an instantiation with no
                # argument groups; report the arity gap.
                report(
                    "ArityMismatch",
                    f"pattern {name!r} expects {len(target.params)} argument(s), got 0",
                    span,
                )
                return
            if isinstance(target, PatternDef) and arg_count is not None:
                if arg_count != len(target.params):
                    report(
                        "ArityMismatch",
                        f"pattern {name!r} expects {len(target.params)} argument(s),"
                        f" got {arg_count}",
                        span,
                    )

        def check_ontology_arg(name: str, span: Span) -> None:
            target = table.get(name)
            if target is None:
                report("UnresolvedReference", f"unknown reference {name!r}", span)
                return
            refs.append(name)
            if order[name] > order[item.name]:
                report(
                    "ForwardReference",
                    f"{name!r} is defined after {item.name!r};"
                    " references may only point backwards",
                    span,
                )
            if isinstance(target, PatternDef):
                report(
                    "UnresolvedReference",
                    f"{name!r} is a pattern, but an ontology argument is required",
                    span,
                )

        def walk(expr: OntologyExpr) -> None:
            if isinstance(expr, (Then, AndExpr)):
                for part in expr.parts:
                    walk(part)
            elif isinstance(expr, Ref):
                check_target(expr.name, expr.span, want_pattern=False, arg_count=None)
            elif isinstance(expr, Instantiate):
                check_target(
                    expr.pattern, expr.span, want_pattern=True, arg_count=len(expr.args)
                )
                target = table.get(expr.pattern)
                params = target.params if isinstance(target, PatternDef) else ()
                for position, arg in enumerate(expr.args):
                    if isinstance(arg, OntologyArg):
                        check_ontology_arg(arg.name, arg.span)
                    elif (
                        position < len(params)
                        and isinstance(params[position], OntologyParam)
                        and not isinstance(arg, OmittedArg)
                        and arg.kind is None
                        and arg.name.is_plain
                    ):
                        # Bare name in an ontology-parameter position: an
                        # ontology reference, not a symbol.
                        check_ontology_arg(arg.name.base, arg.span)

        walk(item.body)

        if isinstance(item, PatternDef):
            _check_pattern(item, report)

    resolved = ResolvedLibrary(lib, table, order, references, diagnostics)
    for cycle in detect_cycles(resolved):
        report(
            "CyclicReference",
            "cyclic reference: " + " -> ".join(cycle + [cycle[0]]),
            getattr(resolved.table.get(cycle[0]), "span", None),
        )
    for item in lib.items:
        if isinstance(item, PatternDef) and table.get(item.name) is item:
            for n in sorted(pattern_free_symbols(resolved, item), key=str):
                diagnostics.append(
                    Diagnostic(
                        "warning",
                        "UnboundSymbol",
                        f"pattern {item.name!r} mentions {n}, which is neither a"
                        " parameter nor declared by the body or a referenced ontology",
                        item.span,
                        file,
                    )
                )
    return resolved


def _check_pattern(item: PatternDef, report) -> None:
    seen: set[StructuredName] = set()
    optional_names: set[StructuredName] = set()

    for param in item.params:
        if isinstance(param, SymbolParam):
            introduced: list[tuple[StructuredName, EntityKind]] = [(param.name, param.kind)]
            requirement = []
        else:
            try:
                axioms = desugar_frames(param.frames)
            except GodpError as exc:
                report(exc.code, exc.message, exc.span or param.span)
                continue
            introduced = [(ax.name, ax.kind) for ax in axioms if isinstance(ax, Declaration)]
            requirement = [ax for ax in axioms if not isinstance(ax, Declaration)]
            declared = {n for n, _ in introduced}
            for ax in requirement:
                for n in mentions(ax):
                    if n.base != THING_BASE and n not in declared and n.is_plain:
                        report(
                            "UnresolvedReference",
                            f"requirement axiom mentions {n},"
                            " which the parameter does not declare",
                            param.span,
                        )
            for ax in axioms:
                hit = mentions(ax) & optional_names
                if hit:
                    report(
                        "OptionalParameterInRequirement",
                        f"optional parameter {sorted(hit, key=str)[0]}"
                        " occurs in an ontology parameter",
                        param.span,
                    )

        for n, _kind in introduced:
            if n.is_plain and n.base == item.name:
                report("DuplicateName", f"parameter {n} shadows the pattern name", param.span)
            if n in seen:
                report("DuplicateName", f"parameter {n} is declared twice", param.span)
            seen.add(n)
        if param.optional:
            optional_names.update(n for n, _ in introduced)


def declared_symbols(resolved: ResolvedLibrary, item_name: str, _seen: set[str] | None = None) -> set[StructuredName]:
    """Syntactic declared-symbol set of an item: frame subjects of its body
    plus those of every reachable referenced item (pre-substitution)."""
    seen = _seen if _seen is not None else set()
    if item_name in seen or item_name not in resolved.table:
        return set()
    seen.add(item_name)
    out: set[StructuredName] = set()

    def walk(expr: OntologyExpr) -> None:
        if isinstance(expr, (Then, AndExpr)):
            for part in expr.parts:
                walk(part)
        elif isinstance(expr, Instantiate):
            out.update(declared_symbols(resolved, expr.pattern, seen))
        elif isinstance(expr, Ref):
            out.update(declared_symbols(resolved, expr.name, seen))
        elif hasattr(expr, "frames"):
            for frame in expr.frames:
                out.add(frame.subject)

    walk(resolved.table[item_name].body)
    return out


def _plain_parts(n: StructuredName) -> set[StructuredName]:
    """The plain names a symbol occurrence depends on: the name itself if
    plain, otherwise its constituents (bases of parameterized names are name
    templates rather than entities and stay exempt)."""
    if n.is_plain:
        return {n}
    out: set[StructuredName] = set()
    for constituent in n.constituents:
        out |= _plain_parts(constituent)
    return out


def pattern_free_symbols(resolved: ResolvedLibrary, item: PatternDef) -> set[StructuredName]:
    """Plain symbols the pattern body uses that nothing binds: not parameters,
    not declared in the body, not builtins, not declared by a referenced item."""
    covered: set[StructuredName] = set(pattern_param_names(item))
    for declared in declared_symbols(resolved, item.name):
        covered |= _plain_parts(declared)
        covered.add(declared)

    free: set[StructuredName] = set()

    def walk(expr: OntologyExpr) -> None:
        if isinstance(expr, (Then, AndExpr)):
            for part in expr.parts:
                walk(part)
        elif isinstance(expr, Instantiate):
            for arg in expr.args:
                if isinstance(arg, OntologyArg):
                    for _, target in arg.fit:
                        free.update(_plain_parts(target))
        elif hasattr(expr, "frames"):
            try:
                axioms = desugar_frames(expr.frames)
            except GodpError:
                return  # ill-formed frame; expansion reports it with location
            for ax in axioms:
                for n in axiom_names(ax):
                    free.update(_plain_parts(n))

    walk(item.body)
    return {n for n in free if n not in covered and n.base != THING_BASE}


def detect_cycles(resolved: ResolvedLibrary) -> list[list[str]]:
    """Cycles in the item-reference graph; an empty list means expansion
    terminates."""
    graph = {
        name: sorted(set(refs), key=lambda r: resolved.order[r])
        for name, refs in resolved.references.items()
    }
    cycles: list[list[str]] = []
    state: dict[str, int] = {}  # 0 unvisited, 1 on stack, 2 done
    stack: list[str] = []

    def visit(node: str) -> None:
        state[node] = 1
        stack.append(node)
        for succ in graph.get(node, ()):
            if state.get(succ, 0) == 0:
                visit(succ)
            elif state.get(succ) == 1:
                cycles.append(stack[stack.index(succ) :])
        stack.pop()
        state[node] = 2

    for name in resolved.order:
        if state.get(name, 0) == 0:
            visit(name)
    return cycles
