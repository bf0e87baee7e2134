"""Name binding, arity checking, definition-order checks, and cycle detection.

The only binder, so ``references`` is the whole item graph; a pattern's
parameters are in scope in its body, and never denote an ontology. Names
bind against the whole library table so that cycle detection can run even
in the presence of forward references; a forward reference is still an
error in its own right (definitions may only refer to earlier items or, for
patterns, to themselves — self-reference then surfaces as a cycle).
"""

from __future__ import annotations

from .axioms import Declaration, EntityKind, axiom_names, mentions
from .diagnostics import Diagnostic, GodpError, Span
from .frames import desugar_frames
from .names import THING_BASE, StructuredName
from .syntax import (
    Basic,
    Instantiate,
    Library,
    OmittedArg,
    OntologyArg,
    OntologyDef,
    OntologyParam,
    PatternDef,
    Ref,
    SymbolParam,
    leaves,
)


class ResolvedLibrary:
    def __init__(self, library: Library, table: dict, order: dict, references: dict, diagnostics: list[Diagnostic]):
        self.library = library
        self.table: dict[str, object] = table  # item name -> OntologyDef | PatternDef
        self.order: dict[str, int] = order  # item name -> definition index
        self.references: dict[str, list[str]] = references  # item name -> referenced item names
        self.diagnostics = diagnostics

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    def ontology_names(self) -> list[str]:
        return [i.name for i in self.library.items if isinstance(i, OntologyDef)]


def pattern_param_names(item: PatternDef) -> set[StructuredName]:
    """Names a pattern's parameter list introduces: each symbol parameter, and
    the symbols an ontology parameter declares, which are its frame subjects."""
    names: set[StructuredName] = set()
    for param in item.params:
        if isinstance(param, SymbolParam):
            names.add(param.name)
        else:
            names.update(n for n, _ in param.symbols)
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
        in_scope = pattern_param_names(item) if isinstance(item, PatternDef) else ()

        def bind(name: str, span: Span):
            """The item ``name`` refers to, recorded as a reference; None,
            reported, if there is no such item."""
            target = table.get(name)
            if target is None:
                report("UnresolvedReference", f"unknown reference {name!r}", span)
                return None
            refs.append(name)
            if order[name] > order[item.name]:
                report(
                    "ForwardReference",
                    f"{name!r} is defined after {item.name!r};"
                    " references may only point backwards",
                    span,
                )
            return target

        def check_ontology_arg(name: str, span: Span) -> None:
            if isinstance(bind(name, span), PatternDef):
                report(
                    "UnresolvedReference",
                    f"{name!r} is a pattern, but an ontology argument is required",
                    span,
                )

        for leaf in leaves(item.body):
            if isinstance(leaf, Ref):
                target = bind(leaf.name, leaf.span)
                if isinstance(target, PatternDef):
                    # A bare reference to a pattern is an instantiation with
                    # no argument groups; report the arity gap.
                    report("ArityMismatch", _arity_message(target, 0), leaf.span)
            elif isinstance(leaf, Instantiate):
                target = bind(leaf.pattern, leaf.span)
                params = ()
                if isinstance(target, PatternDef):
                    params = target.params
                    if len(leaf.args) != len(params):
                        report("ArityMismatch", _arity_message(target, len(leaf.args)), leaf.span)
                elif target is not None:
                    report("NotAPattern", f"{leaf.pattern!r} is an ontology, not a pattern", leaf.span)
                for position, arg in enumerate(leaf.args, start=1):
                    if isinstance(arg, OntologyArg):
                        check_ontology_arg(arg.name, arg.span)
                    elif (
                        position <= len(params)
                        and isinstance(params[position - 1], OntologyParam)
                        and not isinstance(arg, OmittedArg)
                        and arg.kind is None
                        and arg.name.is_plain
                    ):
                        # Bare name in an ontology-parameter position: an
                        # ontology reference, not a symbol, nor a parameter.
                        if arg.name in in_scope:
                            report(
                                "SymbolArgForOntologyParam",
                                f"argument {position} of {leaf.pattern} must name an ontology,"
                                f" not the parameter {arg.name} of {item.name}",
                                arg.span,
                            )
                        else:
                            check_ontology_arg(arg.name.base, arg.span)

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


def _arity_message(pattern: PatternDef, got: int) -> str:
    return f"pattern {pattern.name!r} expects {len(pattern.params)} argument(s), got {got}"


def _check_pattern(item: PatternDef, report) -> None:
    seen: set[StructuredName] = set()
    optional_names: set[StructuredName] = set()

    for param in item.params:
        if isinstance(param, SymbolParam):
            introduced: tuple[tuple[StructuredName, EntityKind], ...] = ((param.name, param.kind),)
        else:
            try:
                axioms = desugar_frames(param.frames)
            except GodpError as exc:
                report(exc.code, exc.message, exc.span or param.span)
                continue
            introduced = param.symbols
            declared = {n for n, _ in introduced}
            for ax in axioms:
                if isinstance(ax, Declaration):
                    continue
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
    for leaf in leaves(resolved.table[item_name].body):
        if isinstance(leaf, Instantiate):
            out.update(declared_symbols(resolved, leaf.pattern, seen))
        elif isinstance(leaf, Ref):
            out.update(declared_symbols(resolved, leaf.name, seen))
        elif isinstance(leaf, Basic):
            out.update(frame.subject for frame in leaf.frames)
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
    for leaf in leaves(item.body):
        if isinstance(leaf, Instantiate):
            for arg in leaf.args:
                if isinstance(arg, OntologyArg):
                    # A fit target must be declared by the argument ontology.
                    bound = declared_symbols(resolved, arg.name)
                    for _, target in arg.fit:
                        if target not in bound:
                            free.update(_plain_parts(target))
        elif isinstance(leaf, Basic):
            try:
                axioms = desugar_frames(leaf.frames)
            except GodpError:
                continue  # ill-formed frame; expansion reports it with location
            for ax in axioms:
                for n in axiom_names(ax):
                    free.update(_plain_parts(n))
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
    for name in resolved.order:
        if state.get(name, 0) == 0:
            _visit(name, graph, state, [], cycles)
    return cycles


def _visit(node: str, graph: dict, state: dict, stack: list, cycles: list) -> None:
    """Depth-first step of :func:`detect_cycles`: appends to ``cycles`` each
    back edge's cycle. A module-level function, not a closure that calls
    itself, which would be a reference cycle left for the garbage collector."""
    state[node] = 1
    stack.append(node)
    for succ in graph.get(node, ()):
        if state.get(succ, 0) == 0:
            _visit(succ, graph, state, stack, cycles)
        elif state.get(succ) == 1:
            cycles.append(stack[stack.index(succ) :])
    stack.pop()
    state[node] = 2
