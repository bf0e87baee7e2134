"""Machine-readable proof-obligation report.

Structured key/value text: a count header, then one record per obligation
separated by blank lines. Axiom lines are one-line Manchester frame
fragments and round-trip through the frame parser.
"""

from __future__ import annotations

from .axioms import render_axiom
from .expansion import Obligation


def render_report(obligations: list[Obligation], file: str) -> str:
    lines = [f"obligation-count: {len(obligations)}"]
    for index, ob in enumerate(obligations, start=1):
        lines.append("")
        lines.append(f"obligation: {index}")
        lines.append(f"pattern: {ob.pattern}")
        lines.append(f"argument-position: {ob.position}")
        lines.append(f"site: {file}:{ob.span}")
        lines.append(f"target: {ob.target}")
        for source, target in ob.fit:
            lines.append(f"fit: {source} |-> {target}")
        for ax in ob.axioms:
            lines.append(f"axiom: {render_axiom(ax)}")
    return "\n".join(lines) + "\n"
