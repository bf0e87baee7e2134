"""Instantiation semantics: kind checking, substitution, optional-argument
pruning, combination, recursive flattening, stratification, and proof
obligations.

Expansion of an instantiation proceeds strictly in this order: the argument
list is checked against the parameter list (producing a substitution and,
for ontology-valued arguments, proof obligations); axioms mentioning an
omitted optional parameter are deleted whole — a nested instantiation whose
argument mentions an omitted name is deleted with them; the substitution is
applied; only then are nested instantiations expanded recursively.
Parameterized names are stratified in a separate final pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat

from .axioms import (
    AtomicAxiom,
    Declaration,
    EntityKind,
    map_axiom_names,
    mentions,
    substitute_axiom,
)
from .diagnostics import Diagnostic, GodpError, Span
from .frames import desugar_frames
from .names import THING_BASE, StructuredName, stratify_name, substitute_name
# ``combine`` is no longer called here, but stays importable from this module
# for the benchmark's tracer (bench/tracing.py), which wraps it here.
from .ontology import FlatOntology, combine, union  # noqa: F401
from .resolver import ResolvedLibrary
from .syntax import (
    AndExpr,
    Basic,
    Instantiate,
    OmittedArg,
    OntologyArg,
    OntologyDef,
    OntologyExpr,
    OntologyParam,
    PatternDef,
    Ref,
    SymbolArg,
    SymbolParam,
    Then,
)


@dataclass(frozen=True)
class Substitution:
    """Parameter-to-argument map plus the set of omitted parameter names."""

    mapping: tuple[tuple[StructuredName, StructuredName], ...]
    omitted: frozenset[StructuredName]

    def as_dict(self) -> dict[StructuredName, StructuredName]:
        return dict(self.mapping)


@dataclass(frozen=True)
class Obligation:
    pattern: str
    position: int  # 1-based argument position
    span: Span | None
    target: str
    fit: tuple[tuple[StructuredName, StructuredName], ...]
    axioms: tuple[AtomicAxiom, ...]


@dataclass
class ExpansionResult:
    ontology: FlatOntology
    obligations: list[Obligation] = field(default_factory=list)
    warnings: list[Diagnostic] = field(default_factory=list)


@dataclass(frozen=True)
class _AxiomBlock(OntologyExpr):
    """Internal node: a Basic block after pruning and substitution."""

    axioms: tuple[AtomicAxiom, ...]
    span: Span | None


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


def _param_signature(param: OntologyParam) -> tuple[list[tuple[StructuredName, EntityKind]], list[AtomicAxiom]]:
    axioms = desugar_frames(param.frames)
    sig = [(ax.name, ax.kind) for ax in axioms if isinstance(ax, Declaration)]
    requirement = [ax for ax in axioms if not isinstance(ax, Declaration)]
    return sig, requirement


def conformance_check(
    param: OntologyParam,
    arg: OntologyArg,
    arg_flat: FlatOntology,
    *,
    pattern: str,
    position: int,
    span: Span | None,
) -> tuple[dict[StructuredName, StructuredName], list[Obligation]]:
    """Map every parameter-signature symbol into the argument ontology and
    return the translated requirement axioms as one proof obligation
    (entailment is never checked here)."""
    sig, requirement = _param_signature(param)
    sig_names = {n for n, _ in sig}
    explicit = dict(arg.fit)
    for source in explicit:
        if source not in sig_names:
            raise GodpError(
                "UnknownFitSymbol",
                f"fit maps {source}, which is not a symbol of the parameter (argument {position} of {pattern})",
                span,
            )
    full_fit: dict[StructuredName, StructuredName] = {}
    for n, kind in sig:
        target = explicit.get(n, n)
        entry = arg_flat.signature.get(target)
        if entry is None or not entry.declared:
            if n in explicit:
                raise GodpError(
                    "FitTargetUndeclared",
                    f"fit target {target} is not declared in ontology {arg.name!r}"
                    f" (argument {position} of {pattern})",
                    span,
                )
            raise GodpError(
                "UnmappedParameterSymbol",
                f"parameter symbol {n} has no counterpart in ontology {arg.name!r}"
                f" (argument {position} of {pattern})",
                span,
            )
        if entry.kind is not kind:
            raise GodpError(
                "KindMismatch",
                f"parameter symbol {n} is a {kind} but {target} is declared as"
                f" {entry.kind} in ontology {arg.name!r} (argument {position} of {pattern})",
                span,
            )
        full_fit[n] = target

    obligations: list[Obligation] = []
    if requirement:
        translated = tuple(substitute_axiom(ax, full_fit) for ax in requirement)
        fit_pairs = tuple(sorted(full_fit.items(), key=lambda p: p[0].render()))
        obligations.append(Obligation(pattern, position, span, arg.name, fit_pairs, translated))
    return full_fit, obligations


def check_instantiation(
    pattern: PatternDef,
    args,
    *,
    flatten=None,
    span: Span | None = None,
) -> tuple[Substitution, list[Obligation]]:
    """Check each argument against its parameter and build the substitution.

    ``flatten`` resolves an ontology name to its FlatOntology; it is only
    needed when the pattern has ontology-valued parameters.
    """
    if len(args) != len(pattern.params):
        raise GodpError(
            "ArityMismatch",
            f"pattern {pattern.name!r} expects {len(pattern.params)} argument(s), got {len(args)}",
            span,
        )
    mapping: dict[StructuredName, StructuredName] = {}
    omitted: set[StructuredName] = set()
    obligations: list[Obligation] = []

    for position, (param, arg) in enumerate(zip(pattern.params, args), start=1):
        if isinstance(param, SymbolParam):
            if isinstance(arg, OmittedArg):
                if not param.optional:
                    raise GodpError(
                        "MissingMandatoryArgument",
                        f"argument {position} of {pattern.name} ({param.name}) is mandatory",
                        arg.span or span,
                    )
                omitted.add(param.name)
            elif isinstance(arg, OntologyArg):
                raise GodpError(
                    "OntologyArgForSymbolParam",
                    f"argument {position} of {pattern.name} must be a single"
                    f" {param.kind} symbol, not an ontology",
                    arg.span or span,
                )
            else:
                if arg.kind is not None and arg.kind is not param.kind:
                    raise GodpError(
                        "KindMismatch",
                        f"argument {position} of {pattern.name}: expected"
                        f" {param.kind}, got {arg.kind}",
                        arg.span or span,
                    )
                if arg.name.base == THING_BASE and param.kind is not EntityKind.CLASS:
                    raise GodpError(
                        "KindMismatch",
                        f"argument {position} of {pattern.name}: expected"
                        f" {param.kind}, got owl:Thing",
                        arg.span or span,
                    )
                mapping[param.name] = arg.name
        else:
            if isinstance(arg, OmittedArg):
                if not param.optional:
                    raise GodpError(
                        "MissingMandatoryArgument",
                        f"argument {position} of {pattern.name} is mandatory",
                        arg.span or span,
                    )
                sig, _ = _param_signature(param)
                omitted.update(n for n, _ in sig)
                continue
            if isinstance(arg, SymbolArg):
                if arg.kind is not None or not arg.name.is_plain:
                    raise GodpError(
                        "SymbolArgForOntologyParam",
                        f"argument {position} of {pattern.name} must name an ontology",
                        arg.span or span,
                    )
                arg = OntologyArg(arg.name.base, (), arg.span)
            if flatten is None:
                raise GodpError(
                    "UnresolvedReference",
                    f"cannot flatten ontology argument {arg.name!r} outside a library",
                    arg.span or span,
                )
            arg_flat = flatten(arg.name, arg.span or span)
            fit, obs = conformance_check(
                param, arg, arg_flat, pattern=pattern.name, position=position, span=arg.span or span
            )
            mapping.update(fit)
            obligations.extend(obs)

    pairs = tuple(mapping.items())
    return Substitution(pairs, frozenset(omitted)), obligations


# ---------------------------------------------------------------------------
# Recursive expansion
# ---------------------------------------------------------------------------


class Expander:
    """Expands ontologies over one immutable resolved library; named-ontology
    results are memoized, instantiations are re-expanded per site."""

    def __init__(self, resolved: ResolvedLibrary, file: str | None = None):
        self.resolved = resolved
        self.file = file
        self._memo: dict[str, tuple[FlatOntology, tuple[Obligation, ...]]] = {}
        self._in_progress: set[str] = set()

    def expand_item(self, name: str, span: Span | None = None) -> tuple[FlatOntology, tuple[Obligation, ...]]:
        if name in self._memo:
            return self._memo[name]
        item = self.resolved.table.get(name)
        if item is None:
            raise GodpError("UnresolvedReference", f"unknown reference {name!r}", span, self.file)
        if isinstance(item, PatternDef):
            raise GodpError(
                "UnresolvedReference",
                f"{name!r} is a pattern where an ontology is required",
                span,
                self.file,
            )
        if name in self._in_progress:
            raise GodpError("CyclicReference", f"cyclic reference through {name!r}", span, self.file)
        self._in_progress.add(name)
        try:
            obligations: list[Obligation] = []
            onto = self._eval(item.body, obligations)
        finally:
            self._in_progress.discard(name)
        self._memo[name] = (onto, tuple(obligations))
        return self._memo[name]

    def _eval(self, expr: OntologyExpr, obligations: list[Obligation]) -> FlatOntology:
        if isinstance(expr, Basic):
            return FlatOntology.from_axioms(desugar_frames(expr.frames), expr.span)
        if isinstance(expr, _AxiomBlock):
            return FlatOntology.from_axioms(expr.axioms, expr.span)
        if isinstance(expr, Ref):
            onto, obs = self.expand_item(expr.name, expr.span)
            obligations.extend(obs)
            return onto
        if isinstance(expr, (Then, AndExpr)):
            # Extension (`then`) and union (`and`) flatten to the same union;
            # they differ only in evaluation and diagnostic order. The parts
            # are evaluated through map, which adds no frame to the stack.
            parts = map(self._eval, expr.parts, repeat(obligations))
            return union(parts, expr.ops, extension=isinstance(expr, Then))
        if isinstance(expr, Instantiate):
            # Evaluated in this frame, not a helper's: with union's frame,
            # each level of pattern nesting costs three frames (_eval, union,
            # _eval), which keeps the depth the default recursion limit allows.
            pattern = self.resolved.table.get(expr.pattern)
            if not isinstance(pattern, PatternDef):
                raise GodpError(
                    "NotAPattern", f"{expr.pattern!r} is not a pattern", expr.span, self.file
                )
            try:
                subst, obs = check_instantiation(
                    pattern, expr.args, flatten=self._flatten_argument, span=expr.span
                )
                obligations.extend(obs)
                body = _transform_body(pattern.body, subst)
                return self._eval(body, obligations)
            except GodpError as exc:
                note = Diagnostic(
                    "note",
                    exc.code,
                    f"while expanding instantiation of {expr.pattern!r}",
                    expr.span,
                    self.file,
                )
                raise exc.with_note(note) from None
        raise TypeError(f"unknown expression {expr!r}")  # pragma: no cover

    def _flatten_argument(self, name: str, span: Span | None) -> FlatOntology:
        onto, _ = self.expand_item(name, span)
        return onto


def _transform_body(e: OntologyExpr, subst: Substitution) -> OntologyExpr:
    """Prune and substitute a pattern body before recursive expansion.

    A module-level function rather than a closure over ``subst``: a closure
    that calls itself is a reference cycle, left for the garbage collector
    at every instantiation."""
    if isinstance(e, Basic):
        axioms = prune_omitted(desugar_frames(e.frames), subst.omitted)
        return _AxiomBlock(tuple(apply_substitution(axioms, subst)), e.span)
    if isinstance(e, Ref):
        return e
    if isinstance(e, (Then, AndExpr)):
        return type(e)(tuple(map(_transform_body, e.parts, repeat(subst))), e.ops, e.span)
    if isinstance(e, Instantiate):
        mapping = subst.as_dict()
        new_args = []
        for arg in e.args:
            if isinstance(arg, SymbolArg):
                if arg.name.closure() & subst.omitted:
                    return _AxiomBlock((), e.span)
                new_args.append(SymbolArg(arg.kind, substitute_name(arg.name, mapping), arg.span))
            elif isinstance(arg, OntologyArg):
                if any(t.closure() & subst.omitted for _, t in arg.fit):
                    return _AxiomBlock((), e.span)
                new_fit = tuple((s, substitute_name(t, mapping)) for s, t in arg.fit)
                new_args.append(OntologyArg(arg.name, new_fit, arg.span))
            else:
                new_args.append(arg)
        return Instantiate(e.pattern, tuple(new_args), e.span)
    raise TypeError(f"unknown expression {e!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# Top-level expansion and stratification
# ---------------------------------------------------------------------------


def expand(resolved: ResolvedLibrary, target: str, file: str | None = None) -> ExpansionResult:
    item = resolved.table.get(target)
    if item is None:
        raise GodpError("UnknownTarget", f"no ontology named {target!r} in the library", file=file)
    if not isinstance(item, OntologyDef):
        raise GodpError(
            "UnknownTarget", f"{target!r} is a pattern; flattening targets an ontology", item.span, file
        )
    expander = Expander(resolved, file)
    onto, obligations = expander.expand_item(target)
    # Referencing one named ontology from several places replays its memoized
    # obligations; keep each site's obligation once.
    obligations = tuple(dict.fromkeys(obligations))
    warnings = [
        Diagnostic(
            "warning",
            "UndeclaredName",
            f"{n} is referenced but never declared (inferred kind {kind})",
            item.span,
            file,
        )
        for n, kind in onto.signature.undeclared()
    ]
    return ExpansionResult(onto, list(obligations), warnings)


def stratify_ontology(o: FlatOntology) -> FlatOntology:
    """Rewrite every parameterized name to its flat identifier, consistently
    across signature and axioms, re-deduplicating afterwards."""
    by_id: dict[str, list[tuple[StructuredName, object]]] = {}
    for n, entry in o.signature:
        by_id.setdefault(stratify_name(n), []).append((n, entry))
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
            )

    rewritten = [
        map_axiom_names(ax, lambda n: StructuredName(stratify_name(n))) for ax in o.axioms
    ]
    return FlatOntology.from_axioms(rewritten)
