#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the swapdisc CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--save PATH]

Run from anywhere inside a checkout; the program under test is the
checkout's own `src/swapdisc`, run from source.  Workloads are defined in
perfbench/workloads.py, metric names and units in BENCHMARK.json.

--trace 0 runs the workload's commands as a closed loop: one client, one
`python -m swapdisc` invocation at a time, each started after the previous
one ended, for as many whole invocations as fit in S seconds (at least one).
It reports the end-to-end metrics, timings as medians over the invocations:

  wall_s       wall time of one invocation (all its steps)
  items_per_s  the workload's work items / wall_s
  cpu_s        user + sys CPU of the invocation's process tree
  peak_rss_mb  peak RSS of the largest process in the tree
  setup_s      `python -m swapdisc --version`: interpreter start, import
               and kernel selection; after one warm-up, a few are timed
               before each invocation and after the last (median of all)

--trace 1 calls the same commands in-process, alternating an untraced and a
traced invocation, and reports the per-layer metrics of perfbench/tracer.py
(medians over the traced invocations) plus trace.overhead_s, the traced
minus the untraced wall time.

Every invocation's outputs go through the workload's correctness gate; an
invocation with a wrong exit code or output counts as failed.  The last
stdout line is the JSON result {correct, attempted, failed, metrics}; the
line before it holds the run facts (core count, kernel backend, ...).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from tracer import Tracer, layer_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_BATCH = 3
STEP_TIMEOUT_S = 150.0


class BenchError(Exception):
    """The benchmark cannot produce a result at all."""


@dataclass(frozen=True)
class Step:
    code: int
    wall: float
    cpu: float
    rss_mb: float


class Cli:
    """Runs `python -m swapdisc ARGV` against the checkout's sources."""

    def __init__(self, src: Path, log: Path) -> None:
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.cwd = src.parent
        self.log = log
        log.write_text("")

    def run(self, argv: list[str]) -> Step:
        with open(self.log, "a", encoding="utf-8") as log:
            started = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "swapdisc", *argv],
                env=self.env, cwd=self.cwd, stdout=log, stderr=log,
            )
            watchdog = threading.Timer(STEP_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                # wait4 reports the whole tree: CPU of the waited-for
                # descendants and the largest RSS among them
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Step(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)

    def code(self, argv: list[str]) -> int:
        return self.run(argv).code


def load_swapdisc(src: Path):
    """Import swapdisc from `src`, refusing any other installed copy."""
    if not (src / "swapdisc" / "__init__.py").is_file():
        raise BenchError(f"no swapdisc sources under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    module = importlib.import_module("swapdisc")
    if Path(module.__file__).resolve().parent != (src / "swapdisc").resolve():
        raise BenchError(f"imported swapdisc from {module.__file__}, not from {src}")
    return module


def src_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.suffix in (".py", ".pyx") and path.is_file():
            h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return "sha256:" + h.hexdigest()


def git_commit(root: Path) -> str:
    """HEAD of the checkout, or "unknown" when it is not a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_facts(swapdisc, workload, seed: int) -> dict[str, Any]:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "backend": swapdisc.backend_name(),
        "swapdisc_pure": bool(os.environ.get("SWAPDISC_PURE")),
        "python": platform.python_version(),
        "git_commit": git_commit(ROOT),
        "src_digest": src_digest(SRC),
        "workload": workload.name,
        "seed": seed,
        "sizes": workload.sizes(seed),
    }


class Tally:
    """Attempted and failed invocations, with the first few problems."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"invocation {self.attempted}: " + "; ".join(problems))


def gate(workload, seed: int, work: Path, codes: list[int],
         reference: bytes | None) -> list[str]:
    """The workload's correctness gate; output of an unexpected shape fails it."""
    try:
        return workload.check(seed, work, codes, reference)
    except (AttributeError, KeyError, TypeError) as exc:
        return [f"output of unexpected shape: {exc!r}"]


def timed_run(workload, seed: int, seconds: float, work: Path, cli: Cli,
              reference: bytes | None) -> dict[str, Any]:
    cli.run(["--version"])  # fills the bytecode cache, which users keep between runs
    setups: list[float] = []

    def measure_setup() -> None:
        for _ in range(SETUP_BATCH):
            step = cli.run(["--version"])
            if step.code != 0:
                raise BenchError(f"`swapdisc --version` exited with {step.code}")
            setups.append(step.wall)

    tally = Tally()
    walls: list[float] = []
    cpus: list[float] = []
    rss: list[float] = []
    began = time.perf_counter()
    while True:
        # set-up samples are spread over the whole run, between invocations
        measure_setup()
        steps = [cli.run(argv) for argv in workload.steps(seed, work)]
        walls.append(sum(s.wall for s in steps))
        cpus.append(sum(s.cpu for s in steps))
        rss.append(max(s.rss_mb for s in steps))
        tally.add(gate(workload, seed, work, [s.code for s in steps], reference))
        if time.perf_counter() - began + statistics.median(walls) > seconds:
            break
    measure_setup()
    items = workload.items(seed)
    return {
        "tally": tally,
        "metrics": {
            "wall_s": statistics.median(walls),
            "items_per_s": statistics.median(items / w for w in walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": statistics.median(rss),
            "setup_s": statistics.median(setups),
        },
        "absent": [],
        "samples": {"wall_s": walls, "cpu_s": cpus, "peak_rss_mb": rss, "setup_s": setups},
    }


def call_main(argv: list[str]) -> int:
    """swapdisc.cli.main(argv) in-process, looked up at call time so that an
    installed tracer's wrapper is the one called."""
    try:
        return importlib.import_module("swapdisc.cli").main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed invocation, not a crashed benchmark
        traceback.print_exc()
        return -1


def traced_run(workload, seed: int, seconds: float, work: Path,
               reference: bytes | None) -> dict[str, Any]:
    def invoke() -> tuple[float, list[int]]:
        started = time.perf_counter()
        codes = [call_main(argv) for argv in workload.steps(seed, work)]
        return time.perf_counter() - started, codes

    tally = Tally()
    plain_walls: list[float] = []
    traced_walls: list[float] = []
    per_layer: dict[str, list[float]] = {}
    absent: set[str] = set()

    def plain() -> None:
        wall, codes = invoke()
        plain_walls.append(wall)
        tally.add(gate(workload, seed, work, codes, reference))

    def traced() -> None:
        tracer = Tracer(work / "spool")
        with tracer:
            wall, codes = invoke()
        tracer.collect()
        traced_walls.append(wall)
        # the traced outputs pass the same gate: the wrappers are transparent
        tally.add(gate(workload, seed, work, codes, reference))
        values, missing = layer_metrics(tracer.stats())
        absent.update(missing)
        for name, value in values.items():
            per_layer.setdefault(name, []).append(value)

    began = time.perf_counter()
    while True:
        # alternate which of the pair runs first, so neither always runs cold
        first, second = (plain, traced) if len(traced_walls) % 2 == 0 else (traced, plain)
        first()
        second()
        pair = statistics.median(plain_walls) + statistics.median(traced_walls)
        if time.perf_counter() - began + pair > seconds:
            break
    metrics = {name: statistics.median(vals) for name, vals in per_layer.items()}
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
    return {
        "tally": tally,
        "metrics": metrics,
        "absent": sorted(absent),
        "samples": {"untraced_wall_s": plain_walls, "traced_wall_s": traced_walls},
    }


def benchmark(workload, seed: int, seconds: float, trace: bool, work: Path) -> dict[str, Any]:
    """One run of `workload`; returns the full result document."""
    swapdisc = load_swapdisc(SRC)
    work.mkdir(parents=True, exist_ok=True)
    cli = Cli(SRC, work / "swapdisc.log")
    facts = run_facts(swapdisc, workload, seed)
    key = " ".join((facts["src_digest"], facts["python"], facts["backend"],
                    json.dumps(facts["sizes"], sort_keys=True)))
    reference = workload.reference(work, cli.code, key)
    if trace:
        out = traced_run(workload, seed, seconds, work, reference)
    else:
        out = timed_run(workload, seed, seconds, work, cli, reference)
    tally = out.pop("tally")
    return {
        "facts": facts,
        "trace": trace,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        **out,
    }


def contract_line(result: dict[str, Any], bench: dict[str, Any]) -> dict[str, Any]:
    """The final stdout line: the metrics BENCHMARK.json lists for this mode."""
    listed = bench["per_layer"] if result["trace"] else bench["end_to_end"]
    metrics = {
        m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
        for m in listed
        if m["name"] in result["metrics"]
    }
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def print_summary(result: dict[str, Any], line: dict[str, Any]) -> None:
    facts = result["facts"]
    samples = len(next(iter(result["samples"].values())))
    mode = "traced, in-process" if result["trace"] else "closed loop, 1 client"
    print(f"{facts['workload']} seed={facts['seed']} ({mode}): "
          f"{result['attempted']} invocations, medians over {samples}")
    for name, entry in line["metrics"].items():
        print(f"  {name:<34} {entry['value']:>16.6f} {entry['unit']}")
    for name in result["absent"]:
        print(f"  {name:<34} {'absent':>16}")
    ratio = result["failed"] / result["attempted"]
    print(f"  {'failed_ratio':<34} {ratio:>16.6f} ({result['failed']}/{result['attempted']})")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")
    print("facts: " + json.dumps(facts, sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help=", ".join(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--save", type=Path, help="also write the full result document here")
    args = parser.parse_args(argv)
    try:
        if args.workload not in WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
        bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        workload = WORKLOADS[args.workload]()
        result = benchmark(workload, args.seed, args.seconds, bool(args.trace),
                           WORK / workload.name)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    line = contract_line(result, bench)
    for name in result["absent"]:
        print(f"warning: metric {name} is absent", file=sys.stderr)
    if args.save:
        args.save.write_text(json.dumps({**result, "result": line}, indent=2) + "\n")
    print_summary(result, line)
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
