"""Name binding, argument checking, definition-order checks, and cycle detection.

The only binder, so ``references`` is the whole item graph; a pattern's
parameters are in scope in its body, and never denote an ontology. Each
argument is checked against its parameter once, where it is written, in a
pattern without a host too; only how an argument ontology conforms depends
on the site, and is left to the expander. Names bind against the whole
library table so that cycle detection can run even in the presence of
forward references; a forward reference is still an error in its own right
(definitions may only refer to earlier items or, for patterns, to
themselves — self-reference then surfaces as a cycle).
"""

from __future__ import annotations

from collections import Counter

from .axioms import Declaration, EntityKind, mentions, referenced_kinds
from .diagnostics import Diagnostic, Span
from .frames import desugar_frames
from .names import THING_BASE, StructuredName
from .syntax import (
    Basic,
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
        named_kinds: set[tuple[StructuredName, EntityKind]] = set()  # each (name, kind) its blocks use

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
                for ax in leaf.axioms:
                    if isinstance(ax, Declaration):
                        subjects |= _plain_parts(ax.name)
                if is_pattern:
                    pairs: list[tuple[StructuredName, EntityKind]] = []
                    for ax in leaf.axioms:
                        referenced_kinds(ax, pairs)
                    named_kinds.update(pairs)
                    misused: set[StructuredName] = set()
                    for n, kind in pairs:
                        # A parameter used in the body keeps the kind its pattern declares.
                        param_kind = in_scope.get(n)
                        if param_kind is not None and param_kind is not kind and n not in misused:
                            misused.add(n)
                            report(
                                "KindMismatch",
                                f"{n} is a {param_kind} parameter of {item.name}, but is used as {kind}",
                                leaf.span,
                            )
            else:
                # A pattern takes one argument group per parameter; a named
                # ontology takes none.
                target = bind(leaf.name, leaf.span)
                params = ()
                if isinstance(target, PatternDef):
                    params = target.params
                    if len(leaf.args) != len(params):
                        message = f"pattern {leaf.name!r} expects {len(params)} argument(s), got {len(leaf.args)}"
                        report("ArityMismatch", message, leaf.span)
                elif target is not None and leaf.args:
                    report("NotAPattern", f"{leaf.name!r} is an ontology, not a pattern", leaf.span)
                for position, arg in enumerate(leaf.args, start=1):
                    param = params[position - 1] if position <= len(params) else None
                    if isinstance(arg, OntologyArg) and not isinstance(param, SymbolParam):
                        # Bound only where an ontology may stand: at a symbol
                        # parameter it is one OntologyArgForSymbolParam below.
                        check_ontology_arg(arg.name, arg.span)
                        if arg.fit:
                            fitted.append(arg)
                    if param is None:
                        continue
                    # At most one rule per argument, the first it breaks. None
                    # depends on a site's substitution: that changes no kind or
                    # fit, omits nothing, and gives owl:Thing only to a Class
                    # parameter, which the last symbol rule keeps in kind.
                    at = f"argument {position} of {leaf.name}"
                    if isinstance(arg, OmittedArg):
                        if not param.optional:
                            named = f" ({param.name})" if isinstance(param, SymbolParam) else ""
                            report("MissingMandatoryArgument", f"{at}{named} is mandatory", arg.span)
                    elif isinstance(param, SymbolParam):
                        if isinstance(arg, OntologyArg):
                            report(
                                "OntologyArgForSymbolParam",
                                f"{at} must be a single {param.kind} symbol, not an ontology",
                                arg.span,
                            )
                        elif arg.kind is not None and arg.kind is not param.kind:
                            report("KindMismatch", f"{at}: expected {param.kind}, got {arg.kind}", arg.span)
                        elif arg.name.base == THING_BASE and param.kind is not EntityKind.CLASS:
                            report("KindMismatch", f"{at}: expected {param.kind}, got owl:Thing", arg.span)
                        elif in_scope.get(arg.name, param.kind) is not param.kind:
                            # A parameter passed on keeps the kind its pattern declares.
                            report(
                                "KindMismatch",
                                f"{at}: expected {param.kind},"
                                f" but {arg.name} is a {in_scope[arg.name]} parameter of {item.name}",
                                arg.span,
                            )
                    elif isinstance(arg, OntologyArg):
                        sources = [s for s, _ in arg.fit]
                        unknown = [s for s in sources if s not in dict(param.symbols)]
                        repeated = [s for i, s in enumerate(sources) if s in sources[:i]]
                        if unknown:
                            message = f"fit maps {unknown[0]}, which is not a symbol of the parameter ({at})"
                            report("UnknownFitSymbol", message, arg.span)
                        elif repeated:
                            report("DuplicateName", f"fit maps {repeated[0]} twice ({at})", arg.span)
                    elif arg.kind is not None or not arg.name.is_plain:
                        report("SymbolArgForOntologyParam", f"{at} must name an ontology", arg.span)
                    elif arg.name in in_scope:
                        # A bare name at an ontology parameter is an ontology
                        # reference, not a symbol, nor a parameter.
                        report(
                            "SymbolArgForOntologyParam",
                            f"{at} must name an ontology, not the parameter {arg.name} of {item.name}",
                            arg.span,
                        )
                    else:
                        check_ontology_arg(arg.name.base, arg.span)

        if is_pattern:
            names = {n for n, _ in named_kinds}
            for n in names:
                used |= _plain_parts(n)
            if len(names) < len(named_kinds):  # a name used with two kinds
                _check_literal_kinds(item, in_scope, named_kinds, report)
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


def _check_literal_kinds(item: PatternDef, in_scope: dict, named_kinds: set, report) -> None:
    """A literal name of ``item``'s blocks, one that holds no parameter and
    is not owl:Thing, keeps one kind: no site's substitution changes it.
    ``named_kinds`` holds each (name, kind) the blocks use. Counts only the
    axioms that every site keeps, those that mention no optional parameter;
    reports a second kind once per name, at the block of the clashing use."""
    uses = Counter(n for n, _ in named_kinds)
    names = {n for n, k in uses.items() if k > 1 and n.base != THING_BASE and n.closure().isdisjoint(in_scope)}
    optional = {n for param in item.params if param.optional for n, _ in param.symbols}
    first: dict[StructuredName, EntityKind] = {}
    for leaf in leaves(item.body):
        if not isinstance(leaf, Basic):
            continue
        for ax in leaf.axioms:
            pairs = [(n, kind) for n, kind in referenced_kinds(ax) if n in names]
            if not pairs or not mentions(ax).isdisjoint(optional):
                continue
            for n, kind in pairs:
                if first.setdefault(n, kind) is not kind and n in names:
                    names.discard(n)
                    report("ConflictingKind", f"{n} is used both as {first[n]} and as {kind}", leaf.span)


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
    """Syntactic declared-symbol set of an item: the names its blocks declare
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
            if isinstance(leaf, Ref):
                stack.append(leaf.name)
            elif isinstance(leaf, Basic):
                out.update(ax.name for ax in leaf.axioms if isinstance(ax, Declaration))
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
