"""Source locations, diagnostics, and the error taxonomy shared by all passes.

Every diagnostic carries a position inside the input text and a stable
machine-readable code. Codes are grouped into four classes that the CLI
maps onto exit codes: frontend errors (syntax / name binding), semantic
errors (kinds, arity, collisions), I/O failures, and internal errors.
"""

from __future__ import annotations

from operator import attrgetter

from .record import record


class Span(metaclass=record):
    """Where a diagnostic points; line and column are 1-based."""

    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


# Semantic: the library parses and resolves but is ill-typed or cannot be
# flattened/stratified. CLI exit code 2.
SEMANTIC_CODES = frozenset(
    {
        "KindMismatch",
        "ArityMismatch",
        "MissingMandatoryArgument",
        "OntologyArgForSymbolParam",
        "SymbolArgForOntologyParam",
        "UnmappedParameterSymbol",
        "FitTargetUndeclared",
        "UnknownFitSymbol",
        "ConflictingKind",
        "CyclicReference",
        "StratificationCollision",
        "UnstratifiedName",
        "OptionalParameterInRequirement",
        "UnknownTarget",
    }
)

IO_CODES = frozenset({"IoError"})

# Internal: an unexpected exception inside godp, caught by the CLI's
# last-resort handler. CLI exit code 4.
INTERNAL_CODES = frozenset({"InternalError"})

EXIT_OK = 0
EXIT_FRONTEND = 1
EXIT_SEMANTIC = 2
EXIT_IO = 3
EXIT_INTERNAL = 4


def exit_code_for(code: str) -> int:
    """The CLI exit code of a diagnostic code. A code listed in none of the
    sets above is a frontend error (syntax or name binding: SyntaxError,
    DuplicateName, UnresolvedReference, ...) and exits 1."""
    if code in SEMANTIC_CODES:
        return EXIT_SEMANTIC
    if code in IO_CODES:
        return EXIT_IO
    if code in INTERNAL_CODES:
        return EXIT_INTERNAL
    return EXIT_FRONTEND


class Diagnostic(metaclass=record):
    severity: str  # "error" | "warning" | "note"
    code: str
    message: str
    span: Span | None = None
    file: str | None = None
    notes: tuple[Diagnostic, ...] = ()

    def format(self) -> str:
        """Render as ``file:line:col: severity: message`` (plus note lines)."""
        where = self.file or "<input>"
        if self.span is not None:
            where = f"{where}:{self.span}"
        label = f"{self.code}: " if self.severity != "note" else ""
        head = f"{where}: {self.severity}: {label}{self.message}"
        if self.notes:
            return "\n".join([head] + [n.format() for n in self.notes])
        return head

    def to_json(self) -> str:
        import json  # only --json-diagnostics needs it: a plain run loads no json

        def where(d: Diagnostic) -> dict:
            return {"file": d.file, "line": d.span and d.span.line, "col": d.span and d.span.col}

        payload = {**where(self), "severity": self.severity, "code": self.code, "message": self.message}
        if self.notes:
            payload["notes"] = [{**where(n), "message": n.message} for n in self.notes]
        return json.dumps(payload, sort_keys=True)

    def with_file(self, file: str) -> Diagnostic:
        """This diagnostic with ``file`` named on it and on each note, wherever none is."""
        notes = tuple(n.with_file(file) for n in self.notes)
        return Diagnostic(self.severity, self.code, self.message, self.span, self.file or file, notes)


class GodpError(Exception):
    """Any failure with a source position: ``diagnostic``, the one it reports,
    whose fields but severity it reads. No pass names the input file: the CLI
    names it as it prints; ``file`` names only another file, the one written."""

    def __init__(
        self,
        code: str,
        message: str,
        span: Span | None = None,
        file: str | None = None,
        notes: tuple[Diagnostic, ...] = (),
    ):
        self.diagnostic = Diagnostic("error", code, message, span, file, notes)
        super().__init__(code, message, span, file, notes)  # pickle and copy call __init__(*args)

    code, message, span, file, notes = (property(attrgetter(f"diagnostic.{f}")) for f in Diagnostic._fields[1:])

    def with_note(self, note: Diagnostic) -> GodpError:
        return GodpError(self.code, self.message, self.span, self.file, self.notes + (note,))

    def __str__(self) -> str:
        return self.diagnostic.format()
