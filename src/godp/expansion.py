"""Instantiation semantics: kind checking, substitution, optional-argument
pruning, combination, recursive flattening, stratification, and proof
obligations.

Expansion of an instantiation proceeds in this order: the argument list is
checked against the parameter list (producing a substitution and, for
ontology-valued arguments, proof obligations); then the body is evaluated
under the substitution, left to right. Each block is desugared when it is
first evaluated, which cannot fail: the parser has checked its frames. In
each block, axioms mentioning an omitted optional parameter are deleted
whole and the rest are substituted; a nested instantiation whose argument
mentions an omitted name is deleted whole, and otherwise its arguments are
substituted and it is expanded recursively. Parameterized names are
stratified in a separate final pass.
"""

from __future__ import annotations

from itertools import repeat

from .axioms import (
    AtomicAxiom,
    Declaration,
    EntityKind,
    mentions,
    substitute_axiom,
)
from .diagnostics import Diagnostic, GodpError, Span
from .frames import desugar_frames
from .names import THING_BASE, StructuredName, stratify_name, substitute_name
# ``combine`` is no longer called here, but stays importable from this module
# for the benchmark's tracer (bench/tracing.py), which wraps it here.
from .ontology import FlatOntology, combine, union  # noqa: F401
from .record import record
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
    sig_names = {n for n, _ in param.symbols}
    explicit = dict(arg.fit)
    for source in explicit:
        if source not in sig_names:
            raise GodpError(
                "UnknownFitSymbol",
                f"fit maps {source}, which is not a symbol of the parameter (argument {position} of {pattern})",
                span,
            )
    full_fit: dict[StructuredName, StructuredName] = {}
    for n, kind in param.symbols:
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
    requirement = [ax for ax in desugar_frames(param.frames) if not isinstance(ax, Declaration)]
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

    ``flatten`` maps an ontology name to its FlatOntology; it is only
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
        if isinstance(arg, OmittedArg):
            if not param.optional:
                named = f" ({param.name})" if isinstance(param, SymbolParam) else ""
                raise GodpError(
                    "MissingMandatoryArgument",
                    f"argument {position} of {pattern.name}{named} is mandatory",
                    arg.span or span,
                )
            omitted.update(n for n, _ in param.symbols)
        elif isinstance(param, SymbolParam):
            if isinstance(arg, OntologyArg):
                raise GodpError(
                    "OntologyArgForSymbolParam",
                    f"argument {position} of {pattern.name} must be a single"
                    f" {param.kind} symbol, not an ontology",
                    arg.span or span,
                )
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
            arg_flat = flatten(arg.name)
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
    """Expands ontologies over one immutable resolved library without errors;
    named-ontology results are memoized, each Basic node is desugared when
    first evaluated and built into an ontology once per substitution, while
    every instantiation site is still checked and its nested sites walked."""

    def __init__(self, resolved: ResolvedLibrary):
        self.resolved = resolved
        self._memo: dict[str, tuple[FlatOntology, tuple[Obligation, ...]]] = {}
        # id of a Basic node -> its axioms. The nodes belong to the resolved
        # library, which this expander keeps alive, so no id is reused.
        self._axioms: dict[int, tuple[AtomicAxiom, ...]] = {}
        # (id of a Basic node, site substitution or None) -> its ontology,
        # a pure function of the two. A block raises no obligation, and an
        # error is not stored, so it is raised again at the next site.
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
                axioms = self._axioms.get(id(expr))
                if axioms is None:
                    axioms = self._axioms[id(expr)] = tuple(desugar_frames(expr.frames))
                if subst is not None:
                    axioms = apply_substitution(prune_omitted(axioms, subst.omitted), subst)
                onto = self._blocks[key] = FlatOntology.from_axioms(axioms, expr.span)
            return onto
        if isinstance(expr, Ref):
            onto, obs = self.expand_item(expr.name)
            obligations.extend(obs)
            return onto
        if isinstance(expr, (Then, AndExpr)):
            # Extension (`then`) and union (`and`) flatten to the same union;
            # they differ only in evaluation and diagnostic order. The parts
            # are evaluated through map, which adds no frame to the stack.
            parts = map(self._eval, expr.parts, repeat(obligations), repeat(subst))
            return union(parts, expr.ops, extension=isinstance(expr, Then))
        if isinstance(expr, Instantiate):
            # Evaluated in this frame, not a helper's: with union's frame,
            # each level of pattern nesting costs three frames (_eval, union,
            # _eval), which keeps the depth the default recursion limit allows.
            args = expr.args if subst is None else _substitute_args(expr.args, subst)
            if args is None:
                return FlatOntology.from_axioms((), expr.span)
            pattern = self.resolved.table[expr.pattern]
            try:
                site_subst, obs = check_instantiation(
                    pattern, args, flatten=lambda name: self.expand_item(name)[0], span=expr.span
                )
                obligations.extend(obs)
                return self._eval(pattern.body, obligations, site_subst)
            except GodpError as exc:
                note = Diagnostic("note", exc.code, f"while expanding instantiation of {expr.pattern!r}", expr.span)
                raise exc.with_note(note) from None
        raise TypeError(f"unknown expression {expr!r}")  # pragma: no cover


def _substitute_args(args: tuple, subst: Substitution) -> tuple | None:
    """The arguments of an instantiation inside a pattern body, under the
    site's substitution; None if one mentions an omitted name, which deletes
    the instantiation whole."""
    mapping = subst.as_dict()
    out = []
    for arg in args:
        if isinstance(arg, SymbolArg):
            if subst.omitted and arg.name.closure() & subst.omitted:
                return None
            arg = SymbolArg(arg.kind, substitute_name(arg.name, mapping), arg.span)
        elif isinstance(arg, OntologyArg):
            if any(t.closure() & subst.omitted for _, t in arg.fit):
                return None
            arg = OntologyArg(arg.name, tuple((s, substitute_name(t, mapping)) for s, t in arg.fit), arg.span)
        out.append(arg)
    return tuple(out)


# ---------------------------------------------------------------------------
# Top-level expansion and stratification
# ---------------------------------------------------------------------------


def expand(resolved: ResolvedLibrary, target: str, file: str | None = None) -> ExpansionResult:
    """Flatten ``target``; raises the first error of ``resolved`` if it has one."""
    if resolved.errors:
        first = resolved.errors[0]
        raise GodpError(first.code, first.message, first.span, first.file)
    item = resolved.table.get(target)
    if item is None:
        raise GodpError("UnknownTarget", f"no ontology named {target!r} in the library", file=file)
    if not isinstance(item, OntologyDef):
        raise GodpError(
            "UnknownTarget", f"{target!r} is a pattern; flattening targets an ontology", item.span, file
        )
    try:
        onto, obligations = Expander(resolved).expand_item(target)
    except GodpError as exc:
        raise exc.with_file(file) from None
    # Referencing one named ontology from several places replays its memoized
    # obligations; keep each site's obligation once.
    obligations = tuple(dict.fromkeys(obligations))
    warnings = [
        Diagnostic(
            "warning",
            "UndeclaredName",
            f"{n} is referenced but never declared (inferred kind {entry.kind})",
            item.span,
            file,
        )
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
