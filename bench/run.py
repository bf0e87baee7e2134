"""Benchmark of the godp compiler on generated pattern libraries.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere; it compiles ``src/godp`` of the checkout that holds
it. The load is a closed loop: one client in this process, invocations one
after another, no threads. With ``--trace 0`` it measures the end-to-end
metrics: in-process ``godp.cli.main`` calls at full and half size, fresh
``python -m godp`` processes, bare interpreter-plus-import processes, and
one fresh process at twice the size (the capacity probe). With ``--trace 1``
it alternates untraced and traced in-process calls and reports per-layer
self times and counters (see tracing.py). Every output is checked against a
reference that does not come from godp (see workloads.py).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable summary. Generated inputs and the span file of the last
traced compile go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "fixtures"
OUT = ROOT / "bench" / "out"

MIN_ROUNDS = 3  # rounds of samples per run, whatever --seconds allows
ROUNDS_LIMIT = 110.0  # seconds after which no round starts, so a run ends within 180 s
SETUP_PER_ROUND = 2  # fresh interpreter-plus-import processes per round
KERNEL_REFERENCE_S = 0.1  # nominal seconds of calibration_kernel, the unit of reported times
PROCESS_TIMEOUT = 60.0  # seconds; a slower process counts as failed

# Child processes get the interpreter's default settings, as a user's shell
# would, whatever the caller sets: in particular they read and write the
# bytecode cache inside the checkout, as an installed package would have it.
ENV = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON") or k == "PYTHONHOME"}
ENV["PYTHONPATH"] = str(SRC)


@dataclass(frozen=True)
class _Item:
    name: str
    parts: tuple


def calibration_kernel() -> int:
    """Fixed pure-Python work of the kind the compiler does: build frozen
    dataclasses, deduplicate them through a set, sort them by a key.

    The host this benchmark was written on changes speed by up to 2x within
    an hour, and the kernel's time tracks the compiler's closely (over
    10-second windows in 110 s, and_chain compile time spread by 25% while
    its ratio to the kernel spread by 5%). So every end-to-end time is
    reported in reference seconds: measured time x KERNEL_REFERENCE_S /
    kernel time around the same round. The kernel is not godp code, so no
    change to the program can change it."""
    seen, kept = set(), []
    for i in range(40000):
        item = _Item(f"x{i % 5000}", (i % 7, str(i % 11)))
        if item not in seen:
            seen.add(item)
            kept.append(item)
    kept.sort(key=lambda item: (item.name, item.parts))
    return len(kept)


def time_kernel() -> float:
    gc.collect()
    start = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - start


@dataclass
class Outcome:
    """One CLI invocation: wall seconds, exit code, captured streams."""

    seconds: float
    code: int | None
    stdout: str
    stderr: str
    rss_mb: float | None = None
    crash: str | None = None  # exception type name, for an in-process traceback

    def problem(self, expected_stdout: str) -> str | None:
        """Why this outcome is wrong, or None if it is right."""
        if self.crash or "Traceback (most recent call last)" in self.stderr:
            return f"traceback ({self.crash or self.stderr.strip().splitlines()[-1]})"
        if self.code != 0:
            return f"exit code {self.code}"
        if any(": error: " in line for line in self.stderr.splitlines()):
            return "error diagnostic"
        if self.stdout != expected_stdout:
            return "output differs from the reference"
        return None


def count_diagnostics(stderr: str) -> int:
    return sum(1 for line in stderr.splitlines() if any(f": {s}: " in line for s in ("error", "warning", "note")))


def run_inprocess(main, argv) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    start = time.perf_counter()
    crash = None
    code = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except (Exception, SystemExit) as exc:  # the traceback a user would see
        crash = type(exc).__name__
    seconds = time.perf_counter() - start
    return Outcome(seconds, code, out.getvalue(), err.getvalue(), crash=crash)


class Launcher:
    """Runs fresh processes through launcher.py, started while this process
    is still small, so that each child's peak resident memory is its own."""

    def __init__(self, work: Path):
        self.work = work
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv, timeout: float = PROCESS_TIMEOUT) -> Outcome:
        out, err = self.work / "stdout", self.work / "stderr"
        request = {"argv": argv, "cwd": str(ROOT), "env": ENV, "stdout": str(out), "stderr": str(err),
                   "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return Outcome(
            reply["seconds"],
            reply["code"],
            out.read_bytes().decode("utf-8", "replace"),
            err.read_bytes().decode("utf-8", "replace"),
            rss_mb=reply["rss_kb"] / 1024,
        )

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=PROCESS_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Run:
    """Bookkeeping of one benchmark run: operations attempted and failed,
    and every check that did not hold."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, outcome: Outcome, expected_stdout: str, label: str) -> Outcome:
        self.attempted += 1
        problem = outcome.problem(expected_stdout)
        if problem:
            self.failed += 1
            self.problems.append(f"{label}: {problem}")
        return outcome

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def write_case(case, work: Path, label: str) -> list[str]:
    """Write the case's library; return the CLI arguments that compile it."""
    path = work / f"{label}.gdol"
    path.write_text(case.text, encoding="utf-8")
    return [case.command, str(path), *case.args]


def rounds_within(started: float, seconds: float):
    """Yield round numbers while the next round, if it lasts as long as the
    last one, ends within ``seconds`` of ``started``; always at least
    MIN_ROUNDS rounds, unless they would start after ROUNDS_LIMIT."""
    rounds, last = 0, 0.0
    while True:
        now = time.perf_counter()
        if now - started > (ROUNDS_LIMIT if rounds < MIN_ROUNDS else seconds - last):
            return
        yield rounds
        rounds, last = rounds + 1, time.perf_counter() - now


def measure_end_to_end(name, seed, seconds, work, run, launcher) -> dict:
    full, half, double = (workloads.build(name, seed, scale, FIXTURES) for scale in (1, 0.5, 2))
    argv_full, argv_half, argv_double = (
        write_case(case, work, f"{name}-{label}") for case, label in ((full, "full"), (half, "half"), (double, "double"))
    )
    started = time.perf_counter()
    setup_argv = [sys.executable, "-c", "import godp.cli"]
    cli_argv_full = [sys.executable, "-m", "godp", *argv_full]
    launcher.run(setup_argv)  # writes the bytecode cache of a fresh checkout

    from godp import cli

    run.record(run_inprocess(cli.main, argv_full), full.expected_stdout, "warm-up")
    run.record(run_inprocess(cli.main, argv_half), half.expected_stdout, "warm-up at half size")
    # Rounds interleave every kind of sample, so that each metric sees the
    # same mix of quiet and busy moments of a shared machine. The
    # calibration kernel is timed between rounds; every time of a round is
    # divided by the mean of the kernel times before and after it (see
    # calibration_kernel).
    kernel, compile_full, compile_half, setup, cli_runs = [time_kernel()], [], [], [], []
    for _ in rounds_within(started, seconds):
        compile_full.append(run.record(run_inprocess(cli.main, argv_full), full.expected_stdout, "compile").seconds)
        compile_half.append(
            run.record(run_inprocess(cli.main, argv_half), half.expected_stdout, "compile at half size").seconds
        )
        setup.append([run.record(launcher.run(setup_argv), "", "setup").seconds for _ in range(SETUP_PER_ROUND)])
        cli_runs.append(run.record(launcher.run(cli_argv_full), full.expected_stdout, "cli process"))
        kernel.append(time_kernel())
    round_kernel = [(before + after) / 2 for before, after in zip(kernel, kernel[1:])]

    # The capacity probe is not an operation of the workload, so it is not
    # counted as attempted or failed: at twice the size the chains exceed
    # the interpreter's recursion limit at the seed commit, which shows as
    # capacity_x = 1 instead of 2.
    probe = launcher.run([sys.executable, "-m", "godp", *argv_double],
                         timeout=max(1.0, min(PROCESS_TIMEOUT, started + 150.0 - time.perf_counter())))
    probe_problem = probe.problem(double.expected_stdout)

    def reference_s(times):
        """Median over rounds of time / kernel time, in reference seconds."""
        return KERNEL_REFERENCE_S * statistics.median(t / k for t, k in zip(times, round_kernel))

    cli_s = [o.seconds for o in cli_runs]
    setup_per_kernel = [KERNEL_REFERENCE_S * t / k for ts, k in zip(setup, round_kernel) for t in ts]
    ordered = sorted(compile_full)
    tail = f"{ordered[-11]:.6g} s" if len(ordered) >= 11 else "n/a (fewer than 11 samples)"
    print(f"workload {name}, seed {seed}, size {full.sites}: {len(compile_full)} rounds, each with one compile at"
          f" full and at half size, {SETUP_PER_ROUND} setup processes and one cli process")
    print(f"  wall-clock medians: compile {statistics.median(compile_full):.6g} s, cli {statistics.median(cli_s):.6g} s,"
          f" setup {statistics.median(t for ts in setup for t in ts):.6g} s,"
          f" calibration kernel {statistics.median(kernel):.6g} s (reference {KERNEL_REFERENCE_S} s)")
    print(f"  compile_tail_s (wall-clock sample with ten beyond it): {tail}")
    print(f"  capacity probe at size {double.sites}: {probe_problem or 'ok'}")
    print(f"  error_rate: {run.failed}/{run.attempted}")
    return {
        "compile_s": (reference_s(compile_full), "s"),
        "cli_s": (reference_s(cli_s), "s"),
        "setup_s": (statistics.median(setup_per_kernel), "s"),
        "peak_rss_mb": (statistics.median(o.rss_mb for o in cli_runs), "MB"),
        "growth_2x": (statistics.median(f / h for f, h in zip(compile_full, compile_half)), "ratio"),
        "capacity_x": (1.0 if probe_problem else 2.0, "x"),
    }


def role_references():
    """The hand-written stratified role ontologies of the expansion tests."""
    sys.path.insert(0, str(ROOT))
    from tests.test_expansion import mother_role_expected, norm_set, prof_role_expected

    return {"prof": norm_set(prof_role_expected()), "mother": norm_set(mother_role_expected())}


# Per-layer metrics of each traced layer, so that a layer whose entry point
# no longer exists is reported as missing rather than as zero.
LAYER_METRICS = {
    "lexer": ("lexer.s", "lexer.tokens"),
    "parser": ("parser.s", "parser.items"),
    "resolver": ("resolver.s", "resolver.diagnostics"),
    "expansion": ("expansion.s",),
    "expansion.check": ("expansion.check_s", "expansion.instantiations", "expansion.distinct_ratio"),
    "frames": ("frames.s", "frames.calls"),
    "ontology.combine": (
        "ontology.combine_s", "ontology.combine_calls", "ontology.axioms_scanned", "ontology.keep_ratio"
    ),
    "stratify": ("stratify.s", "stratify.names"),
    "emitter": ("emitter.bytes",),
}

# Counters that must repeat exactly across the compiles of one run.
EXACT_COUNTERS = ("lexer.tokens", "parser.items", "expansion.instantiations", "expansion.distinct",
                  "ontology.axioms_scanned", "emitter.bytes")


def measure_layers(name, seed, seconds, work, run) -> dict:
    case = workloads.build(name, seed, 1, FIXTURES)
    argv = write_case(case, work, name)
    references = role_references() if case.role_targets else {}

    from godp import cli

    tracer = Tracer(capture=case.role_targets)
    started = time.perf_counter()
    run.record(run_inprocess(cli.main, argv), case.expected_stdout, "warm-up")
    plain, traced, samples = [], [], []
    for _ in rounds_within(started, seconds):
        plain.append(run.record(run_inprocess(cli.main, argv), case.expected_stdout, "untraced compile").seconds)
        outcome = run_inprocess(lambda a: tracer.run(cli.main, a), argv)
        traced.append(run.record(outcome, case.expected_stdout, "traced compile").seconds)
        samples.append(tracer.sample(**{"cli.diagnostics": count_diagnostics(outcome.stderr)}))
        for target, onto in tracer.captured:
            run.check(onto.normalized_set() == references[case.role_targets[target]],
                      f"stratified {target} differs from the hand-written reference set")
        if case.role_targets:
            run.check(len(tracer.captured) == len(case.role_targets),
                      f"{len(tracer.captured)} of {len(case.role_targets)} role ontologies were stratified")
    tracer.write_spans(OUT / f"spans-{name}.jsonl")

    for key in EXACT_COUNTERS:
        values = {s.get(key, 0) for s in samples}
        run.check(len(values) == 1, f"{key} differs between the compiles of one run: {sorted(values)}")
    last = samples[-1]
    calls, distinct = last.get("expansion.instantiations", 0), last.get("expansion.distinct", 0)
    if name == "diamond":
        sites = 2 ** (workloads.DIAMOND_DEPTH + 1) - 1
        run.check(calls == sites, f"diamond: {calls} instantiations counted, expected {sites}")
        run.check(distinct == workloads.DIAMOND_DEPTH + 1,
                  f"diamond: {distinct} distinct instantiations, expected {workloads.DIAMOND_DEPTH + 1}")

    def self_s(layer):
        return statistics.median(s["self"].get(layer, 0.0) for s in samples)

    scanned = last.get("ontology.axioms_scanned", 0)
    metrics = {
        "lexer.s": (self_s("lexer"), "s"),
        "lexer.tokens": (last.get("lexer.tokens", 0), "count"),
        "parser.s": (self_s("parser"), "s"),
        "parser.items": (last.get("parser.items", 0), "count"),
        "resolver.s": (self_s("resolver"), "s"),
        "resolver.diagnostics": (last.get("resolver.diagnostics", 0), "count"),
        "expansion.s": (self_s("expansion"), "s"),
        "expansion.check_s": (self_s("expansion.check"), "s"),
        "expansion.instantiations": (calls, "count"),
        "expansion.distinct_ratio": (distinct / calls if calls else 0.0, "ratio"),
        "frames.s": (self_s("frames"), "s"),
        "frames.calls": (last.get("frames.calls", 0), "count"),
        "ontology.combine_s": (self_s("ontology.combine"), "s"),
        "ontology.combine_calls": (last.get("ontology.combine_calls", 0), "count"),
        "ontology.axioms_scanned": (scanned, "count"),
        "ontology.keep_ratio": (last.get("ontology.axioms_kept", 0) / scanned if scanned else 0.0, "ratio"),
        "stratify.s": (self_s("stratify"), "s"),
        "stratify.names": (last.get("stratify.names", 0), "count"),
        "emitter.bytes": (last.get("emitter.bytes", 0), "count"),
        "cli.s": (self_s("cli"), "s"),
        "cli.diagnostics": (last["cli.diagnostics"], "count"),
        "trace.overhead_ratio": (statistics.median(traced) / statistics.median(plain), "ratio"),
    }
    print(f"workload {name}, seed {seed}, size {case.sites}: {len(traced)} traced and {len(plain)} untraced compiles;"
          f" spans of the last traced compile in bench/out/spans-{name}.jsonl")
    for wrapped, layer in tracer.missing:
        print(f"  missing: {wrapped} no longer exists; {', '.join(LAYER_METRICS[layer])} not reported")
        for key in LAYER_METRICS[layer]:
            metrics.pop(key, None)
    expand_total = statistics.median(s["expand_total"] for s in samples)
    if expand_total and "ontology.combine_s" in metrics:
        print(f"  ontology.combine self time is {self_s('ontology.combine') / expand_total:.1%}"
              " of traced expand time")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (SRC / "godp" / "cli.py", FIXTURES):
        if not needed.exists():
            print(f"bench: {needed} not found; run from a checkout of the repository", file=sys.stderr)
            return 2
    sys.path.insert(0, str(SRC))

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    run = Run()
    try:
        if args.trace:
            metrics = measure_layers(args.workload, args.seed, args.seconds, work, run)
        else:
            # Started before godp is imported or any input compiled.
            with Launcher(work) as launcher:
                metrics = measure_end_to_end(args.workload, args.seed, args.seconds, work, run, launcher)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in run.problems[:20]:
        print(f"  FAILED {problem}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:26} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
