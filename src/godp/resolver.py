"""Name binding, arity checking, definition-order checks, and cycle detection.

The only binder, so ``references`` is the whole item graph; a pattern's
parameters are in scope in its body, and never denote an ontology. Names
bind against the whole library table so that cycle detection can run even
in the presence of forward references; a forward reference is still an
error in its own right (definitions may only refer to earlier items or, for
patterns, to themselves — self-reference then surfaces as a cycle).
"""

from __future__ import annotations

from .axioms import Declaration, mentions, referenced_kinds
from .diagnostics import Diagnostic, Span
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

    # Per pattern, its parameters and what its body uses: the plain parts of
    # the names in its blocks, and its ontology arguments with a fit; the
    # UnboundSymbol pass after cycle detection reads these instead of
    # walking the body again. It searches what a pattern declares only for
    # a pattern whose free names meet ``subjects``, the plain parts of every
    # frame subject in the library: no search can bind any other name.
    uses: list[tuple[PatternDef, dict, set[StructuredName], list[OntologyArg]]] = []
    subjects: set[StructuredName] = set()
    for item in lib.items:
        if item.name not in table or table[item.name] is not item:
            continue  # duplicate definition, already reported
        refs: list[str] = []
        references[item.name] = refs
        is_pattern = isinstance(item, PatternDef)
        in_scope = {n: kind for param in item.params for n, kind in param.symbols} if is_pattern else {}
        used: set[StructuredName] = set()
        fitted: list[OntologyArg] = []

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
            if isinstance(leaf, Basic):
                for frame in leaf.frames:
                    subjects |= _plain_parts(frame.subject)
                if is_pattern:
                    misused: set[StructuredName] = set()
                    for ax in desugar_frames(leaf.frames):
                        for n, kind in referenced_kinds(ax):
                            used |= _plain_parts(n)
                            # A parameter used in the body keeps the kind its pattern declares.
                            param_kind = in_scope.get(n)
                            if param_kind is not None and param_kind is not kind and n not in misused:
                                misused.add(n)
                                report(
                                    "KindMismatch",
                                    f"{n} is a {param_kind} parameter of {item.name}, but is used as {kind}",
                                    leaf.span,
                                )
            elif isinstance(leaf, Ref):
                target = bind(leaf.name, leaf.span)
                if isinstance(target, PatternDef):
                    # A bare reference to a pattern is an instantiation with
                    # no argument groups; report the arity gap.
                    report("ArityMismatch", _arity_message(target, 0), leaf.span)
            else:
                target = bind(leaf.pattern, leaf.span)
                params = ()
                if isinstance(target, PatternDef):
                    params = target.params
                    if len(leaf.args) != len(params):
                        report("ArityMismatch", _arity_message(target, len(leaf.args)), leaf.span)
                elif target is not None:
                    report("NotAPattern", f"{leaf.pattern!r} is an ontology, not a pattern", leaf.span)
                for position, arg in enumerate(leaf.args, start=1):
                    param = params[position - 1] if position <= len(params) else None
                    if isinstance(arg, OntologyArg):
                        check_ontology_arg(arg.name, arg.span)
                        if arg.fit:
                            fitted.append(arg)
                    elif isinstance(arg, OmittedArg):
                        continue
                    elif isinstance(param, SymbolParam):
                        # A parameter passed on keeps the kind its pattern declares.
                        kind = in_scope.get(arg.name)
                        expected = arg.kind or param.kind
                        if kind is not None and kind is not expected:
                            report(
                                "KindMismatch",
                                f"argument {position} of {leaf.pattern}: expected {expected},"
                                f" but {arg.name} is a {kind} parameter of {item.name}",
                                arg.span,
                            )
                    elif isinstance(param, OntologyParam) and arg.kind is None and arg.name.is_plain:
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

        if is_pattern:
            _check_pattern(item, report)
            uses.append((item, in_scope, used, fitted))

    resolved = ResolvedLibrary(lib, table, order, references, diagnostics)
    for cycle in detect_cycles(resolved):
        report(
            "CyclicReference",
            "cyclic reference: " + " -> ".join(cycle + [cycle[0]]),
            getattr(resolved.table.get(cycle[0]), "span", None),
        )
    for item, params, free, fitted in uses:
        # A fit target must be declared by the argument ontology.
        for arg in fitted:
            bound = declared_symbols(resolved, arg.name)
            for _, target in arg.fit:
                if target not in bound:
                    free |= _plain_parts(target)
        free = {n for n in free if n not in params and n.base != THING_BASE}
        if not free.isdisjoint(subjects):
            for declared in declared_symbols(resolved, item.name):
                free -= _plain_parts(declared)
                free.discard(declared)
        for n in sorted(free, key=str):
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
        if isinstance(param, OntologyParam):
            axioms = desugar_frames(param.frames)
            declared = {n for n, _ in param.symbols}
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

        for n, _kind in param.symbols:
            if n.is_plain and n.base == item.name:
                report("DuplicateName", f"parameter {n} shadows the pattern name", param.span)
            if n in seen:
                report("DuplicateName", f"parameter {n} is declared twice", param.span)
            seen.add(n)
        if param.optional:
            optional_names.update(n for n, _ in param.symbols)


def declared_symbols(resolved: ResolvedLibrary, item_name: str) -> set[StructuredName]:
    """Syntactic declared-symbol set of an item: frame subjects of its body
    plus those of every reachable referenced item (pre-substitution)."""
    out: set[StructuredName] = set()
    seen: set[str] = set()
    stack = [item_name]
    while stack:
        name = stack.pop()
        if name in seen or name not in resolved.table:
            continue
        seen.add(name)
        for leaf in leaves(resolved.table[name].body):
            if isinstance(leaf, Instantiate):
                stack.append(leaf.pattern)
            elif isinstance(leaf, Ref):
                stack.append(leaf.name)
            elif isinstance(leaf, Basic):
                out.update(frame.subject for frame in leaf.frames)
    return out


def _plain_parts(n: StructuredName) -> set[StructuredName]:
    """The plain names a symbol occurrence depends on: the name itself if
    plain, otherwise its constituents (bases of parameterized names are name
    templates rather than entities and stay exempt)."""
    out: set[StructuredName] = set()
    stack = [n]
    while stack:
        n = stack.pop()
        if n.is_plain:
            out.add(n)
        else:
            stack.extend(n.constituents)
    return out


def detect_cycles(resolved: ResolvedLibrary) -> list[list[str]]:
    """Cycles in the item-reference graph, one per back edge of a depth-first
    search in definition order; an empty list means expansion terminates."""
    graph = {
        name: sorted(set(refs), key=lambda r: resolved.order[r])
        for name, refs in resolved.references.items()
    }
    cycles: list[list[str]] = []
    on_path: dict[str, bool] = {}  # visited name -> still on the search path
    for root in resolved.order:
        if root in on_path:
            continue
        on_path[root] = True
        path = [root]
        successors = [iter(graph.get(root, ()))]
        while path:
            for succ in successors[-1]:
                if succ not in on_path:
                    on_path[succ] = True
                    path.append(succ)
                    successors.append(iter(graph.get(succ, ())))
                    break
                if on_path[succ]:
                    cycles.append(path[path.index(succ) :])
            else:
                on_path[path.pop()] = False
                successors.pop()
    return cycles
