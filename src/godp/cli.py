"""Command-line front door: flatten, check, list, and obligations.

Exit codes: 0 success, 1 syntax/resolution errors, 2 semantic errors
(kinds, arity, collisions, cycles) and usage errors, 3 I/O failures,
4 internal errors: any other exception (for example a RecursionError on
input nested too deeply) is reported as one InternalError diagnostic, never
as a traceback. All diagnostics go to standard error; only requested output
goes to standard output.
"""

from __future__ import annotations

import argparse
import os
import sys

from .axioms import frame_subject
from .diagnostics import EXIT_IO, EXIT_OK, Diagnostic, GodpError, exit_code_for
from .emitter import emit_manchester
from .expansion import expand, stratify_ontology
from .parser import parse_library
from .report import render_report
from .resolver import ResolvedLibrary, resolve
from .syntax import Library, OntologyDef, PatternDef, SymbolParam


class _Session:
    def __init__(self, json_diagnostics: bool):
        self.json = json_diagnostics

    def emit(self, diag: Diagnostic) -> None:
        print(diag.to_json() if self.json else diag.format(), file=sys.stderr)

    def emit_all(self, diags) -> int:
        """Print diagnostics; return the worst exit code among the errors."""
        worst = EXIT_OK
        for diag in diags:
            self.emit(diag)
            if diag.severity == "error":
                worst = max(worst, exit_code_for(diag.code))
        return worst

    def fail(self, exc: GodpError) -> int:
        self.emit(exc.diagnostic)  # format/to_json carry the note trail
        return exit_code_for(exc.code)


def _parse(path: str, session: _Session) -> Library | int:
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read().removeprefix("\ufeff")  # a byte-order mark is no token
    except OSError as exc:
        session.emit(Diagnostic("error", "IoError", f"cannot read {path}: {exc.strerror}", file=path))
        return EXIT_IO
    except UnicodeDecodeError as exc:
        session.emit(
            Diagnostic("error", "IoError", f"cannot read {path}: not UTF-8 at byte {exc.start}", file=path)
        )
        return EXIT_IO
    try:
        return parse_library(text, path)
    except GodpError as exc:
        return session.fail(exc.with_file(path))


def _parse_and_resolve(path: str, session: _Session) -> ResolvedLibrary | int:
    library = _parse(path, session)
    if isinstance(library, int):
        return library
    resolved = resolve(library, path)
    code = session.emit_all(resolved.diagnostics)
    return resolved if code == EXIT_OK else code


def _write_output(text: str, output: str | None, session: _Session) -> int:
    if output is None:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(output, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
    except OSError as exc:
        session.emit(Diagnostic("error", "IoError", f"cannot write {output}: {exc.strerror}", file=output))
        return EXIT_IO
    return EXIT_OK


def cmd_flatten(args: argparse.Namespace, session: _Session) -> int:
    resolved = _parse_and_resolve(args.input, session)
    if isinstance(resolved, int):
        return resolved
    try:
        result = expand(resolved, args.target, args.input)
        ontology = result.ontology
        span = resolved.table[args.target].span
        if not args.keep_structured_names:
            ontology = stratify_ontology(ontology, span)
        text = emit_manchester(ontology, args.keep_structured_names, span)
    except GodpError as exc:
        return session.fail(exc.with_file(args.input))
    session.emit_all(result.warnings)
    if result.obligations:
        print(f"{args.input}: {len(result.obligations)} proof obligation(s)", file=sys.stderr)
    return _write_output(text, args.output, session)


def cmd_check(args: argparse.Namespace, session: _Session) -> int:
    resolved = _parse_and_resolve(args.input, session)
    if isinstance(resolved, int):
        return resolved
    worst = EXIT_OK
    printed: set[Diagnostic] = set()
    for name in resolved.ontology_names():
        span = resolved.table[name].span
        try:
            result = expand(resolved, name, args.input)
            for ax in stratify_ontology(result.ontology, span).axioms:
                frame_subject(ax, span)
        except GodpError as exc:
            exc = exc.with_file(args.input)
            if exc.diagnostic not in printed:  # a fault of an ontology that several targets reach
                printed.add(exc.diagnostic)
                worst = max(worst, session.fail(exc))
            continue
        session.emit_all(result.warnings)
    return worst


def cmd_list(args: argparse.Namespace, session: _Session) -> int:
    library = _parse(args.input, session)
    if isinstance(library, int):
        return library
    lines = [f"library {library.name}"]
    for item in library.items:
        if isinstance(item, OntologyDef):
            lines.append(f"ontology {item.name}")
        else:
            lines.append(f"pattern {item.name} {_signature_text(item)}".rstrip())
    print("\n".join(lines))
    return EXIT_OK


def _signature_text(item: PatternDef) -> str:
    groups = []
    for param in item.params:
        q = "?" if param.optional else ""
        if isinstance(param, SymbolParam):
            groups.append(f"[{param.kind} {param.name}{q}]")
        else:
            symbols = " ".join(str(n) for n, _ in param.symbols)
            groups.append(f"[ontology {symbols}{q}]".replace(" ?", "?"))
    return "".join(groups)


def cmd_obligations(args: argparse.Namespace, session: _Session) -> int:
    resolved = _parse_and_resolve(args.input, session)
    if isinstance(resolved, int):
        return resolved
    try:
        result = expand(resolved, args.target, args.input)
    except GodpError as exc:
        return session.fail(exc.with_file(args.input))
    session.emit_all(result.warnings)
    text = render_report(result.obligations, args.input)
    return _write_output(text, args.output, session)


# Each command declares only the options it reads.
_OPTIONS = {
    "--target": dict(required=True, help="ontology to process"),
    "--output": dict(help="output file (defaults to standard output)"),
    "--keep-structured-names":
        dict(action="store_true", help="skip stratification; render bracketed names literally"),
    "--json-diagnostics": dict(action="store_true", help="emit diagnostics as JSON objects, one per line"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="godp",
        description="Compile generic ontology design pattern libraries to plain"
        " OWL Manchester syntax.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text, options in (
        ("flatten", cmd_flatten, "expand an ontology and emit Manchester syntax",
         ("--target", "--output", "--keep-structured-names")),
        ("check", cmd_check, "type-check the whole library", ()),
        ("list", cmd_list, "list the library's items and signatures", ()),
        ("obligations", cmd_obligations, "report proof obligations for an ontology", ("--target", "--output")),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", help="path to a .gdol pattern library")
        for option in (*options, "--json-diagnostics"):
            p.add_argument(option, **_OPTIONS[option])
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)  # usage errors exit 2 through SystemExit
    session = _Session(args.json_diagnostics)
    try:
        return args.func(args, session)
    except Exception as exc:  # last resort: a diagnostic, not a traceback
        tb = exc.__traceback__
        while tb.tb_next is not None:  # the innermost frame: where it was raised
            tb = tb.tb_next
        where = f"{os.path.basename(tb.tb_frame.f_code.co_filename)}:{tb.tb_lineno}"
        message = f"{type(exc).__name__} in {where}: {exc}"
        diag = Diagnostic("error", "InternalError", message, file=args.input)
        session.emit(diag)
        return exit_code_for(diag.code)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
