"""Generated input libraries for the benchmark, each with a reference that
does not come from godp.

The seed only chooses identifier spellings and their order; sizes and
structure are fixed per workload. ``build(workload, seed, scale,
fixtures_dir)`` returns a ``Case``: the library text, the CLI command and arguments, and the expected
standard output, written in closed form.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from pathlib import Path

# Workload sizes: chain sites, diamond depth, fixture copies. The half-size
# inputs behind growth_2x use scale 0.5 (for the diamond, depth - 1, which
# halves the instantiation sites); the capacity probe uses scale 2.
CHAIN_SITES = 500
DIAMOND_DEPTH = 13
LIBRARY_COPIES = 80

FIXTURES = ("role.gdol", "obligations.gdol", "driving.gdol")

# A 5-axiom relation pattern: a declared property with domain and range, and
# both classes declared, so no warnings are printed and the output is exactly
# these frames.
REL_PATTERN = """pattern Rel [ObjectProperty: p] [Class: D] [Class: R] =
  ObjectProperty: p
    Domain: D
    Range: R
  Class: D
  Class: R
end
"""


@dataclass
class Case:
    text: str
    args: list[str]  # CLI arguments after the command and the input path
    command: str  # "flatten" or "check"
    expected_stdout: str  # written without godp; "godp check" prints nothing
    # library_check: target name -> "prof" or "mother", the hand-written
    # reference set its stratified ontology must equal.
    role_targets: dict[str, str] = field(default_factory=dict)
    sites: int = 0  # instantiation sites (diamond) or chain sites


class Speller:
    """Distinct seeded identifiers of one fixed length, so the byte size of
    every input and output is the same for every seed."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def __call__(self, prefix: str) -> str:
        while True:
            word = prefix + "".join(self.rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(7))
            if word not in self.used:
                self.used.add(word)
                return word


def _chain(seed: int, sites: int, shape: str) -> Case:
    spell = Speller(random.Random(f"{shape}:{seed}"))
    triples = [(spell("p"), spell("C"), spell("C")) for _ in range(sites)]
    calls = [f"  Rel [ObjectProperty: {p}] [Class: {d}] [Class: {r}]" for p, d, r in triples]
    classes = [c for _, d, r in triples for c in (d, r)]
    if shape == "and":
        body = "\n  and\n".join(calls)
    else:
        head = spell("C")
        classes.append(head)
        body = f"  Class: {head}\n  then\n" + "\n  then\n".join(calls)
    top = spell("T")
    text = f"library {spell('L')}\n\n{REL_PATTERN}\nontology {top} =\n{body}\nend\n"
    blocks = [f"ObjectProperty: {p}\n  Domain: {d}\n  Range: {r}" for p, d, r in sorted(triples)]
    blocks += [f"Class: {c}" for c in sorted(classes)]
    return Case(text, ["--target", top], "flatten", "\n\n".join(blocks) + "\n", sites=sites)


def _diamond(seed: int, depth: int) -> Case:
    """P_0 [X] declares X below owl:Thing; P_i [X] = P_{i-1} [X] and
    P_{i-1} [X]. Flattening P_depth visits 2^(depth+1) - 1 instantiation
    sites with only depth + 1 distinct (pattern, substitution) pairs."""
    spell = Speller(random.Random(f"diamond:{seed}"))
    names = [spell("P") for _ in range(depth + 1)]
    leaf, top = spell("C"), spell("T")
    items = [f"pattern {names[0]} [Class: X] =\n  Class: X\n    SubClassOf: owl:Thing\nend\n"]
    for lower, upper in zip(names, names[1:]):
        items.append(f"pattern {upper} [Class: X] =\n  {lower} [X] and {lower} [X]\nend\n")
    items.append(f"ontology {top} =\n  {names[-1]} [Class: {leaf}]\nend\n")
    text = f"library {spell('L')}\n\n" + "\n".join(items)
    expected = f"Class: {leaf}\n  SubClassOf: owl:Thing\n"
    return Case(text, ["--target", top], "flatten", expected, sites=2 ** (depth + 1) - 1)


_ITEM = re.compile(r"^(?:ontology|pattern)\s+(\w+)", re.M)


def _library(seed: int, copies: int, fixtures_dir: Path) -> Case:
    """Renamed copies of the three fixture libraries in one file. Each copy
    renames every item (ontology and pattern) with its own suffix; entity
    names are untouched, so each copy's ProfRoleOntology and
    MotherRoleOntology flatten to the hand-written reference sets."""
    rng = random.Random(f"library:{seed}")
    spell = Speller(rng)
    sources = []
    for fixture in FIXTURES:
        text = (fixtures_dir / fixture).read_text(encoding="utf-8")
        text = re.sub(r"^library\s+\w+\s*$", "", text, count=1, flags=re.M)
        sources.append((text, _ITEM.findall(text)))
    parts = [f"library {spell('L')}\n"]
    role_targets: dict[str, str] = {}
    for _ in range(copies):
        suffix = spell("_")
        for text, items in rng.sample(sources, len(sources)):
            pattern = re.compile(r"\b(" + "|".join(items) + r")\b")
            parts.append(pattern.sub(lambda m: m.group(1) + suffix, text))
            for base, ref in (("ProfRoleOntology", "prof"), ("MotherRoleOntology", "mother")):
                if base in items:
                    role_targets[base + suffix] = ref
    return Case("\n".join(parts), [], "check", "", role_targets, sites=copies)


def build(workload: str, seed: int, scale: float, fixtures_dir: Path) -> Case:
    if workload == "and_chain":
        return _chain(seed, int(CHAIN_SITES * scale), "and")
    if workload == "then_chain":
        return _chain(seed, int(CHAIN_SITES * scale), "then")
    if workload == "diamond":
        return _diamond(seed, DIAMOND_DEPTH + {0.5: -1, 1: 0, 2: 1}[scale])
    if workload == "library_check":
        return _library(seed, int(LIBRARY_COPIES * scale), fixtures_dir)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("and_chain", "then_chain", "diamond", "library_check")
