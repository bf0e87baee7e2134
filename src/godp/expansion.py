"""Instantiation semantics: substitution, conformance of ontology arguments,
optional-argument pruning, combination, recursive flattening,
stratification, and proof obligations.

The resolver has checked each argument against its parameter, once, where it
is written. Expansion of an instantiation proceeds in this order: one call
of ``check_instantiation`` builds the site's substitution from its
arguments, flattening each ontology-valued argument and checking that it
conforms, which yields proof obligations; then the body is evaluated under
the substitution, left to right. Each block holds the axioms the parser
desugared it into; axioms mentioning an omitted optional parameter are
deleted whole and the rest are substituted; a nested instantiation whose
argument mentions an omitted name is deleted whole, and otherwise its
arguments are substituted and it is expanded recursively. Parameterized
names are stratified in a separate final pass.
"""

from __future__ import annotations

from itertools import repeat

from .axioms import AtomicAxiom, Declaration, mentions, substitute_axiom
from .diagnostics import Diagnostic, GodpError, Span
from .frames import desugar_frames
from .names import StructuredName, stratify_name, substitute_name
# ``combine`` is no longer called here, but stays importable from this module
# for the benchmark's tracer (bench/tracing.py), which wraps it here.
from .ontology import FlatOntology, combine, union  # noqa: F401
from .record import record
from .resolver import ResolvedLibrary
from .syntax import (
    Basic,
    Chain,
    OmittedArg,
    OntologyArg,
    OntologyDef,
    OntologyExpr,
    PatternDef,
    Ref,
    SymbolArg,
    SymbolParam,
)


class Substitution(metaclass=record):
    """Parameter-to-argument map plus the set of omitted parameter names."""

    mapping: tuple[tuple[StructuredName, StructuredName], ...]
    omitted: frozenset[StructuredName]

    def as_dict(self) -> dict[StructuredName, StructuredName]:
        return dict(self.mapping)


class Obligation(metaclass=record):
    pattern: str
    position: int  # 1-based argument position
    span: Span | None
    target: str
    fit: tuple[tuple[StructuredName, StructuredName], ...]
    axioms: tuple[AtomicAxiom, ...]


class ExpansionResult:
    def __init__(self, ontology: FlatOntology, obligations: list[Obligation], warnings: list[Diagnostic]):
        self.ontology = ontology
        self.obligations = obligations
        self.warnings = warnings


# ---------------------------------------------------------------------------
# Core operations
# ---------------------------------------------------------------------------


def prune_omitted(
    axioms: list[AtomicAxiom] | tuple[AtomicAxiom, ...], omitted: frozenset[StructuredName] | set[StructuredName]
) -> list[AtomicAxiom]:
    """Keep an axiom iff it mentions no omitted name; mentions() already
    closes over constituents, so rolePerformedBy[Provider] is caught by
    Provider. Deletion is whole-axiom."""
    if not omitted:
        return list(axioms)
    return [ax for ax in axioms if not (mentions(ax) & omitted)]


def apply_substitution(
    axioms: list[AtomicAxiom] | tuple[AtomicAxiom, ...], s: Substitution
) -> list[AtomicAxiom]:
    mapping = s.as_dict()
    return [substitute_axiom(ax, mapping) for ax in axioms]


def check_instantiation(pattern: PatternDef, args, *, flatten) -> tuple[Substitution, list[Obligation]]:
    """Build the substitution of one instantiation site and check how its
    argument ontologies conform.

    ``args`` are the site's arguments, under the enclosing site's
    substitution, of a resolved library: the resolver has checked each
    written argument against its parameter, which no substitution undoes,
    and each fit source is a parameter symbol. ``flatten`` maps an ontology
    name to its FlatOntology; it is called only for ontology-valued
    parameters. An argument ontology must declare, with the parameter's
    kind, the image of every parameter symbol under its fit (a symbol the
    fit leaves out maps to its own name); the parameter's requirement
    axioms, so translated, are one proof obligation, whose entailment is
    never checked here.
    """
    mapping: dict[StructuredName, StructuredName] = {}
    omitted: set[StructuredName] = set()
    obligations: list[Obligation] = []

    for position, (param, arg) in enumerate(zip(pattern.params, args), start=1):
        if isinstance(arg, OmittedArg):
            omitted.update(n for n, _ in param.symbols)
        elif isinstance(param, SymbolParam):
            mapping[param.name] = arg.name
        else:
            # A bare [N] is the ontology N with no explicit fit.
            name, explicit = (arg.name.base, {}) if isinstance(arg, SymbolArg) else (arg.name, dict(arg.fit))
            signature = flatten(name).signature
            where = f"in ontology {name!r} (argument {position} of {pattern.name})"
            fit: dict[StructuredName, StructuredName] = {}
            for n, kind in param.symbols:
                target = fit[n] = explicit.get(n, n)
                entry = signature.get(target)
                if entry is None or not entry.declared:
                    if n in explicit:
                        message = f"fit target {target} is not declared {where}"
                        raise GodpError("FitTargetUndeclared", message, arg.span)
                    message = f"parameter symbol {n} has no counterpart {where}"
                    raise GodpError("UnmappedParameterSymbol", message, arg.span)
                if entry.kind is not kind:
                    message = f"parameter symbol {n} is a {kind} but {target} is declared as {entry.kind} {where}"
                    raise GodpError("KindMismatch", message, arg.span)
            mapping.update(fit)
            requirement = [ax for ax in desugar_frames(param.frames) if not isinstance(ax, Declaration)]
            if requirement:
                translated = tuple(substitute_axiom(ax, fit) for ax in requirement)
                pairs = tuple(sorted(fit.items(), key=lambda p: p[0].render()))
                obligations.append(Obligation(pattern.name, position, arg.span, name, pairs, translated))

    return Substitution(tuple(mapping.items()), frozenset(omitted)), obligations


# ---------------------------------------------------------------------------
# Recursive expansion
# ---------------------------------------------------------------------------


class Expander:
    """Expands ontologies over one immutable resolved library without errors;
    named-ontology results are memoized and each Basic node is built into an
    ontology once per substitution, while every instantiation site still
    builds its substitution, checks how its argument ontologies conform, and
    has its nested sites walked."""

    def __init__(self, resolved: ResolvedLibrary):
        self.resolved = resolved
        self._memo: dict[str, tuple[FlatOntology, tuple[Obligation, ...]]] = {}
        # (id of a Basic node, site substitution or None) -> its ontology,
        # a pure function of the two. The nodes belong to the resolved
        # library, which this expander keeps alive, so no id is reused. A
        # block raises no obligation, and an error is not stored, so it is
        # raised again at the next site.
        self._blocks: dict[tuple[int, Substitution | None], FlatOntology] = {}

    def expand_item(self, name: str) -> tuple[FlatOntology, tuple[Obligation, ...]]:
        if name in self._memo:
            return self._memo[name]
        obligations: list[Obligation] = []
        onto = self._eval(self.resolved.table[name].body, obligations)
        self._memo[name] = (onto, tuple(obligations))
        return self._memo[name]

    def _eval(
        self, expr: OntologyExpr, obligations: list[Obligation], subst: Substitution | None = None
    ) -> FlatOntology:
        """Flatten ``expr``; in a pattern body, ``subst`` is the site's
        substitution, applied to each block and nested instantiation."""
        if isinstance(expr, Basic):
            key = (id(expr), subst)
            onto = self._blocks.get(key)
            if onto is None:
                axioms = expr.axioms
                if subst is not None:
                    try:
                        axioms = apply_substitution(prune_omitted(axioms, subst.omitted), subst)
                    except GodpError as exc:  # owl:Thing replacing a base; names carry no span
                        raise GodpError(exc.code, exc.message, expr.span) from None
                onto = self._blocks[key] = FlatOntology.from_axioms(axioms, expr.span)
            return onto
        if isinstance(expr, Ref):
            item = self.resolved.table[expr.name]
            if isinstance(item, OntologyDef):
                onto, obs = self.expand_item(expr.name)
                obligations.extend(obs)
                return onto
            # A pattern, instantiated in this frame, not a helper's: with
            # union's frame, each level of pattern nesting costs three frames
            # (_eval, union, _eval), which keeps the depth the default
            # recursion limit allows.
            args = expr.args if subst is None else _substitute_args(expr.args, subst)
            if args is None:
                return FlatOntology.from_axioms((), expr.span)
            try:
                site_subst, obs = check_instantiation(item, args, flatten=lambda name: self.expand_item(name)[0])
                obligations.extend(obs)
                return self._eval(item.body, obligations, site_subst)
            except GodpError as exc:
                note = Diagnostic("note", exc.code, f"while expanding instantiation of {expr.name!r}", expr.span)
                raise exc.with_note(note) from None
        if isinstance(expr, Chain):
            # Extension (`then`) and union (`and`) flatten to the same union;
            # they differ only in evaluation and diagnostic order. The parts
            # are evaluated through map, which adds no frame to the stack.
            parts = map(self._eval, expr.parts, repeat(obligations), repeat(subst))
            return union(parts, expr.ops, extension=expr.extension)
        raise TypeError(f"unknown expression {expr!r}")  # pragma: no cover


def _substitute_args(args: tuple, subst: Substitution) -> tuple | None:
    """The arguments of an instantiation inside a pattern body, under the
    site's substitution; None if one mentions an omitted name, which deletes
    the instantiation whole."""
    mapping = subst.as_dict()
    out = []
    for arg in args:
        try:
            if isinstance(arg, SymbolArg):
                if subst.omitted and arg.name.closure() & subst.omitted:
                    return None
                arg = SymbolArg(arg.kind, substitute_name(arg.name, mapping), arg.span)
            elif isinstance(arg, OntologyArg):
                if any(t.closure() & subst.omitted for _, t in arg.fit):
                    return None
                arg = OntologyArg(arg.name, tuple((s, substitute_name(t, mapping)) for s, t in arg.fit), arg.span)
        except GodpError as exc:  # owl:Thing replacing a base; names carry no span
            raise GodpError(exc.code, exc.message, arg.span) from None
        out.append(arg)
    return tuple(out)


# ---------------------------------------------------------------------------
# Top-level expansion and stratification
# ---------------------------------------------------------------------------


def expand(resolved: ResolvedLibrary, target: str) -> ExpansionResult:
    """Flatten ``target``; raises the first error of ``resolved`` if it has one."""
    if resolved.errors:
        first = resolved.errors[0]
        raise GodpError(first.code, first.message, first.span)
    item = resolved.table.get(target)
    if item is None:
        raise GodpError("UnknownTarget", f"no ontology named {target!r} in the library")
    if not isinstance(item, OntologyDef):
        raise GodpError("UnknownTarget", f"{target!r} is a pattern; flattening targets an ontology", item.span)
    onto, obligations = Expander(resolved).expand_item(target)
    # Referencing one named ontology from several places replays its memoized
    # obligations; keep each site's obligation once.
    obligations = tuple(dict.fromkeys(obligations))
    message = "{} is referenced but never declared (inferred kind {})"
    warnings = [
        Diagnostic("warning", "UndeclaredName", message.format(n, entry.kind), item.span)
        for n, entry in onto.signature.items()
        if not entry.declared
    ]
    return ExpansionResult(onto, list(obligations), warnings)


def stratify_ontology(o: FlatOntology, span: Span | None = None) -> FlatOntology:
    """Rewrite every parameterized name to its flat identifier, consistently
    across signature and axioms, re-deduplicating afterwards.

    Only bracketed names change, and only they can collide: two plain names
    with one identifier are one name. An ontology without them is returned
    as it is, since no ontology changes once built. ``o``'s signature must
    be the one its axioms imply, as it is for every ontology the expander
    builds. ``span``, the target ontology's, locates the errors."""
    stratified = {n: stratify_name(n) for n in o.signature if n.groups}
    if not stratified:
        return o
    idents = set(stratified.values())
    by_id: dict[str, list[tuple[StructuredName, object]]] = {}
    for n, entry in o.signature.items():
        ident = stratified.get(n, n.base)
        if ident in idents:
            by_id.setdefault(ident, []).append((n, entry))
    for ident, sources in sorted(by_id.items()):
        if len(sources) < 2:
            continue
        kinds = {e.kind for _, e in sources}
        declared = [n for n, e in sources if e.declared]
        if len(kinds) > 1 or len(declared) > 1:
            a, b = sources[0][0], sources[1][0]
            raise GodpError(
                "StratificationCollision",
                f"{a} and {b} both stratify to {ident!r}",
                span,
            )
    for n, ident in stratified.items():
        if ":" in ident:  # only owl:Thing has a colon, and it has no identifier
            raise GodpError(
                "UnstratifiedName",
                f"structured name {n} cannot be stratified: owl:Thing cannot be a constituent",
                span,
            )
    return o.rename({n: StructuredName(ident) for n, ident in stratified.items()})
