"""Command-line front door: flatten, check, list, and obligations.

Commands raise, and ``main`` reports: a ``GodpError`` that a command raises
ends it as one diagnostic. Only this module knows the input's name, and
``_Session`` names it on every diagnostic it prints.
Exit codes: 0 success, 1 syntax/resolution errors, 2 semantic errors
(kinds, arity, collisions, cycles) and usage errors, 3 I/O failures,
4 internal errors: any other exception is one InternalError diagnostic
naming the file and function that raised it, never a traceback; a
RecursionError on input nested too deeply is one fixed line. All
diagnostics go to standard error; only requested output goes to standard
output.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys

from .axioms import frame_subject
from .diagnostics import EXIT_OK, Diagnostic, GodpError, exit_code_for
from .emitter import emit_manchester
from .expansion import expand, stratify_ontology
from .parser import parse_library
from .report import render_report
from .resolver import ResolvedLibrary, resolve
from .syntax import Library, OntologyDef, PatternDef, SymbolParam


class _Session:
    """Prints to standard error, naming ``path``, the input, wherever a
    diagnostic names no file."""

    def __init__(self, json_diagnostics: bool, path: str):
        self.json = json_diagnostics
        self.path = path

    def emit(self, diag: Diagnostic) -> None:
        diag = diag.with_file(self.path)
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

    def summary(self, message: str) -> None:
        """A line about the input that is no diagnostic: in JSON, the object
        ``{"file": …, "message": …}``."""
        line = f"{self.path}: {message}"
        if self.json:
            import json
            line = json.dumps({"file": self.path, "message": message}, sort_keys=True)
        print(line, file=sys.stderr)


class _Reported(Exception):
    """Ends a command whose errors are printed already; ``args[0]`` is the exit code."""


def _parse(path: str) -> Library:
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read().removeprefix("\ufeff")  # a byte-order mark is no token
    except OSError as exc:
        raise GodpError("IoError", f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise GodpError("IoError", f"cannot read {path}: not UTF-8 at byte {exc.start}") from None
    return parse_library(text)


def _parse_and_resolve(path: str, session: _Session) -> ResolvedLibrary:
    resolved = resolve(_parse(path))
    code = session.emit_all(resolved.diagnostics)
    if code != EXIT_OK:
        raise _Reported(code)
    return resolved


def _write_output(text: str, output: str | None) -> None:
    """Write ``text`` to the file ``output``, or to standard output if None."""
    try:
        if output is not None:
            with open(output, "w", encoding="utf-8", newline="\n") as f:
                f.write(text)
        elif sys.stdout is None:  # started with descriptor 1 closed
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        else:
            sys.stdout.write(text)
            sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
    except OSError as exc:
        if output is None and sys.stdout is not None:  # the exit flush then writes to os.devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        name = output or "standard output"
        raise GodpError("IoError", f"cannot write {name}: {exc.strerror}", file=output) from None


def cmd_flatten(args: argparse.Namespace, session: _Session) -> int:
    resolved = _parse_and_resolve(args.input, session)
    result = expand(resolved, args.target)
    ontology = result.ontology
    span = resolved.table[args.target].span
    if not args.keep_structured_names:
        ontology = stratify_ontology(ontology, span)
    text = emit_manchester(ontology, args.keep_structured_names, span)
    session.emit_all(result.warnings)
    if result.obligations:
        session.summary(f"{len(result.obligations)} proof obligation(s)")
    _write_output(text, args.output)
    return EXIT_OK


def cmd_check(args: argparse.Namespace, session: _Session) -> int:
    resolved = _parse_and_resolve(args.input, session)
    worst = EXIT_OK
    printed: set[Diagnostic] = set()
    for name in resolved.ontology_names():
        span = resolved.table[name].span
        try:
            result = expand(resolved, name)
            for ax in stratify_ontology(result.ontology, span).axioms:
                frame_subject(ax, span)
        except GodpError as exc:
            if exc.diagnostic not in printed:  # a fault of an ontology that several targets reach
                printed.add(exc.diagnostic)
                worst = max(worst, session.fail(exc))
            continue
        session.emit_all(result.warnings)
    return worst


def cmd_list(args: argparse.Namespace, session: _Session) -> int:
    library = _parse(args.input)
    lines = [f"library {library.name}"]
    for item in library.items:
        if isinstance(item, OntologyDef):
            lines.append(f"ontology {item.name}")
        else:
            lines.append(f"pattern {item.name} {_signature_text(item)}".rstrip())
    _write_output("\n".join(lines) + "\n", None)
    return EXIT_OK


def _signature_text(item: PatternDef) -> str:
    groups = []
    for param in item.params:
        q = "?" if param.optional else ""
        if isinstance(param, SymbolParam):
            groups.append(f"[{param.kind} {param.name}{q}]")
        else:
            words = " ".join(["ontology", *(str(n) for n, _ in param.symbols)])
            groups.append(f"[{words}{q}]")
    return "".join(groups)


def cmd_obligations(args: argparse.Namespace, session: _Session) -> int:
    result = expand(_parse_and_resolve(args.input, session), args.target)
    session.emit_all(result.warnings)
    _write_output(render_report(result.obligations, args.input), args.output)
    return EXIT_OK


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
    session = _Session(args.json_diagnostics, args.input)
    try:
        return args.func(args, session)
    except _Reported as exc:
        return exc.args[0]
    except GodpError as exc:
        return session.fail(exc)
    except RecursionError:  # where the stack ran out, and its text, vary from run to run
        return session.fail(GodpError("InternalError", "RecursionError: input nested too deeply"))
    except Exception as exc:  # last resort: a diagnostic, not a traceback
        tb = exc.__traceback__
        while tb.tb_next is not None:  # the innermost frame: where it was raised
            tb = tb.tb_next
        code = tb.tb_frame.f_code
        message = f"{type(exc).__name__} in {os.path.basename(code.co_filename)}:{code.co_name}: {exc}"
        return session.fail(GodpError("InternalError", message))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
