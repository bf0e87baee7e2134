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
import sys
from pathlib import Path

from .diagnostics import EXIT_IO, EXIT_OK, Diagnostic, GodpError, exit_code_for
from .emitter import emit_manchester
from .expansion import expand, stratify_ontology
from .parser import parse_library
from .report import render_report
from .resolver import ResolvedLibrary, resolve
from .syntax import OntologyDef, PatternDef, SymbolParam


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


def _load(path: str, session: _Session) -> tuple[str, str] | int:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        session.emit(Diagnostic("error", "IoError", f"cannot read {path}: {exc.strerror}", file=path))
        return EXIT_IO
    except UnicodeDecodeError as exc:
        session.emit(
            Diagnostic("error", "IoError", f"cannot read {path}: not UTF-8 at byte {exc.start}", file=path)
        )
        return EXIT_IO
    return text, path


def _parse_and_resolve(path: str, session: _Session) -> ResolvedLibrary | int:
    loaded = _load(path, session)
    if isinstance(loaded, int):
        return loaded
    text, file = loaded
    try:
        library = parse_library(text, file)
    except GodpError as exc:
        return session.fail(exc.with_file(file))
    resolved = resolve(library, file)
    code = session.emit_all(resolved.diagnostics)
    if code != EXIT_OK:
        return code
    return resolved


def _write_output(text: str, output: str | None, session: _Session) -> int:
    if output is None:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        Path(output).write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        session.emit(Diagnostic("error", "IoError", f"cannot write {output}: {exc.strerror}", file=output))
        return EXIT_IO
    return EXIT_OK


def cmd_flatten(args: argparse.Namespace) -> int:
    session = _Session(args.json_diagnostics)
    resolved = _parse_and_resolve(args.input, session)
    if isinstance(resolved, int):
        return resolved
    try:
        result = expand(resolved, args.target, args.input)
        ontology = result.ontology
        if not args.keep_structured_names:
            ontology = stratify_ontology(ontology)
        text = emit_manchester(ontology, allow_structured=args.keep_structured_names)
    except GodpError as exc:
        return session.fail(exc.with_file(args.input))
    session.emit_all(result.warnings)
    if result.obligations:
        print(f"{args.input}: {len(result.obligations)} proof obligation(s)", file=sys.stderr)
    return _write_output(text, args.output, session)


def cmd_check(args: argparse.Namespace) -> int:
    session = _Session(args.json_diagnostics)
    resolved = _parse_and_resolve(args.input, session)
    if isinstance(resolved, int):
        return resolved
    worst = EXIT_OK
    for name in resolved.ontology_names():
        try:
            result = expand(resolved, name, args.input)
            stratify_ontology(result.ontology)
        except GodpError as exc:
            worst = max(worst, session.fail(exc.with_file(args.input)))
            continue
        session.emit_all(result.warnings)
    return worst


def cmd_list(args: argparse.Namespace) -> int:
    session = _Session(args.json_diagnostics)
    loaded = _load(args.input, session)
    if isinstance(loaded, int):
        return loaded
    text, file = loaded
    try:
        library = parse_library(text, file)
    except GodpError as exc:
        return session.fail(exc.with_file(file))
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
            symbols = " ".join(str(f.subject) for f in param.frames)
            groups.append(f"[ontology {symbols}{q}]".replace(" ?", "?"))
    return "".join(groups)


def cmd_obligations(args: argparse.Namespace) -> int:
    session = _Session(args.json_diagnostics)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="godp",
        description="Compile generic ontology design pattern libraries to plain"
        " OWL Manchester syntax.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, target_required: bool) -> None:
        p.add_argument("input", help="path to a .gdol pattern library")
        if target_required:
            p.add_argument("--target", required=True, help="ontology to process")
        p.add_argument("--output", help="output file (defaults to standard output)")
        p.add_argument(
            "--keep-structured-names",
            action="store_true",
            help="skip stratification; render bracketed names literally",
        )
        p.add_argument(
            "--json-diagnostics",
            action="store_true",
            help="emit diagnostics as JSON objects, one per line",
        )

    p = sub.add_parser("flatten", help="expand an ontology and emit Manchester syntax")
    common(p, target_required=True)
    p.set_defaults(func=cmd_flatten)

    p = sub.add_parser("check", help="type-check the whole library")
    common(p, target_required=False)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("list", help="list the library's items and signatures")
    common(p, target_required=False)
    p.set_defaults(func=cmd_list)

    p = sub.add_parser("obligations", help="report proof obligations for an ontology")
    common(p, target_required=True)
    p.set_defaults(func=cmd_obligations)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)  # usage errors exit 2 through SystemExit
    try:
        return args.func(args)
    except Exception as exc:  # last resort: a diagnostic, not a traceback
        tb = exc.__traceback__
        while tb.tb_next is not None:  # the innermost frame: where it was raised
            tb = tb.tb_next
        where = f"{Path(tb.tb_frame.f_code.co_filename).name}:{tb.tb_lineno}"
        message = f"{type(exc).__name__} in {where}: {exc}"
        diag = Diagnostic("error", "InternalError", message, file=args.input)
        _Session(args.json_diagnostics).emit(diag)
        return exit_code_for(diag.code)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
