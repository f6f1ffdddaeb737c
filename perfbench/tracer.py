"""Span tracer for the swapdisc layers, installed from outside the package.

`Tracer` replaces the layer-boundary functions listed in TARGETS with
wrappers in every loaded swapdisc module namespace (so `from .x import f`
bindings are covered too) and restores the originals on exit.  Each call
records one span: name, start, end, parent span and one work count.  Spans
live in flat arrays until the invocation ends.

Process-pool workers forked while the tracer is installed inherit the
wrappers; they append their spans to a line-buffered file per process in the
spool directory, which `collect` reads back.  The parent of a worker span is
the span that was open in the main process when the worker was forked.

A target that no longer exists is recorded in `missing`; every metric that
needs it is reported absent, never as zero.

A wrapper costs on the order of a microsecond per call.  That cost falls
outside the callee's span, so a parent's self time includes the wrapper cost
of its children; trace.overhead_s reports the total.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from array import array
from pathlib import Path
from typing import Any, Callable

# (module under swapdisc, function); spans are named "<layer>.<function>"
TARGETS = (
    ("cli", "main"),
    ("cli", "cmd_construct"),
    ("cli", "cmd_eval"),
    ("cli", "cmd_search"),
    ("cli", "cmd_verify"),
    ("cli", "certificate"),
    ("core", "validate_defining_set"),
    ("core", "rank_table"),
    ("core", "apply_swaps"),
    ("core", "discrepancy"),
    ("adversary", "worst_case"),
    ("adversary", "worst_case_bounded"),
    ("adversary", "minimal_maximizer_property"),
    ("_kernels", "scan_chunk"),
    ("optsearch", "find_optimal"),
    ("optsearch", "enumerate_balanced"),
    ("optsearch", "random_balanced"),
    ("construct", "construct_for_z"),
    ("graphs", "build_swp"),
    ("graphs", "build_pot"),
    ("graphs", "verify_lemma2"),
    ("graphs", "verify_prop1"),
    ("graphs", "verify_prop2"),
)


# set in every child forked from this process, so that a wrapper running in
# a pool worker writes its spans to the spool instead of to memory it loses
_forked = [False]
_fork_hook_registered = False


def _mark_forked() -> None:
    _forked[0] = True


def _abandoned_or_nodes(args, kwargs, result) -> int:
    """worst_case_bounded: -1 when the scan was abandoned, else its node count."""
    res, exceeded = result
    return -1 if exceeded else res.enumerated


class Tracer:
    """Install with `with Tracer(spool):`, then `collect()` the worker spans
    and pass `stats()` to `layer_metrics`."""

    def __init__(self, spool: Path) -> None:
        self.spool = spool
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self.stack = [-1]
        self.missing: list[str] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self._sink = None
        self._last_instance: Any = None
        self.work_of: dict[str, Callable[..., int]] = {
            "kernel.scan_chunk": lambda a, k, r: r[4],
            "adversary.worst_case": lambda a, k, r: r.enumerated,
            "adversary.worst_case_bounded": _abandoned_or_nodes,
            "graphs.build_pot": self._new_instance,
        }

    # ------------------------------------------------------------ install

    def __enter__(self) -> "Tracer":
        global _fork_hook_registered
        if not _fork_hook_registered:
            os.register_at_fork(after_in_child=_mark_forked)
            _fork_hook_registered = True
        self.spool.mkdir(parents=True, exist_ok=True)
        for old in self.spool.glob("spans-*.txt"):
            old.unlink()
        importlib.import_module("swapdisc.cli")
        for module_name, func_name in TARGETS:
            module = importlib.import_module(f"swapdisc.{module_name}")
            original = getattr(module, func_name, None)
            layer = "kernel" if module_name == "_kernels" else module_name
            span = f"{layer}.{func_name}"
            if not callable(original):
                self.missing.append(span)
                print(f"warning: swapdisc.{module_name}.{func_name} not found; "
                      f"metrics that need it are absent", file=sys.stderr)
                continue
            wrapper = self._wrap(span, original)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("swapdisc"):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _new_instance(self, args, kwargs, result) -> int:
        """1 when the defining set differs from the previous call's, so the
        sum counts instances (runs of calls on one object)."""
        ds = args[0] if args else kwargs.get("ds")
        fresh = ds is not self._last_instance
        self._last_instance = ds
        return int(fresh)

    def _spill(self, sid: int) -> None:
        """Append span `sid` to this worker process's spool file.  The file is
        line-buffered because pool workers exit without closing it."""
        if self._sink is None or self._sink[0] != os.getpid():
            path = self.spool / f"spans-{os.getpid()}.txt"
            self._sink = (os.getpid(), open(path, "a", buffering=1, encoding="ascii"))
        self._sink[1].write(
            f"{self.name_of[sid]} {self.parent[sid]} {self.start[sid]!r} "
            f"{self.end[sid]!r} {self.work[sid]}\n"
        )

    def _wrap(self, span: str, fn: Callable) -> Callable:
        idx = len(self.names)
        self.names.append(span)
        name_of, parent, start, end, work, stack = (
            self.name_of, self.parent, self.start, self.end, self.work, self.stack
        )
        clock, forked, spill = time.perf_counter, _forked, self._spill
        work_fn = self.work_of.get(span)
        # bound methods in locals: this code runs once per traced call
        add_name, add_parent, add_start = name_of.append, parent.append, start.append
        add_end, add_work, push, pop = end.append, work.append, stack.append, stack.pop

        if inspect.isgeneratorfunction(fn):
            # one span per item drawn, so the span covers the time inside next()
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                items = fn(*args, **kwargs)
                while True:
                    sid = len(start)
                    add_name(idx)
                    add_parent(stack[-1])
                    add_work(0)
                    add_end(0.0)
                    push(sid)
                    add_start(clock())
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        end[sid] = clock()
                        pop()
                    work[sid] = 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(start)
            add_name(idx)
            add_parent(stack[-1])
            add_work(0)
            add_end(0.0)
            push(sid)
            add_start(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                pop()
            if work_fn is not None:
                work[sid] = work_fn(args, kwargs, result)
            if forked[0]:
                spill(sid)
            return result

        return wrapper

    # ------------------------------------------------------------ results

    def collect(self) -> None:
        """Merge the spans that forked workers wrote to the spool."""
        for path in sorted(self.spool.glob("spans-*.txt")):
            for line in path.read_text(encoding="ascii").splitlines():
                idx, par, s, e, w = line.split()
                self.name_of.append(int(idx))
                self.parent.append(int(par))
                self.start.append(float(s))
                self.end.append(float(e))
                self.work.append(int(w))
            path.unlink()

    def stats(self) -> "SpanStats":
        return SpanStats(self)


class SpanStats:
    """Per-name totals and per-layer self time of a finished trace."""

    def __init__(self, tracer: Tracer) -> None:
        names, name_of = tracer.names, tracer.name_of
        start, end, parent, work = tracer.start, tracer.end, tracer.parent, tracer.work
        n = len(start)
        self.calls = {name: 0 for name in names}
        self.total = {name: 0.0 for name in names}
        self.works: dict[str, list[int]] = {name: [] for name in names}
        covered = [0.0] * n
        reach = [float("-inf")] * n
        # A parent's covered time is the union of its children's intervals,
        # clipped to its own; worker children of one parent overlap.
        for i in sorted(range(n), key=start.__getitem__):
            name = names[name_of[i]]
            self.calls[name] += 1
            self.total[name] += end[i] - start[i]
            self.works[name].append(work[i])
            p = parent[i]
            if p < 0:
                continue
            lo = max(start[i], start[p], reach[p])
            hi = min(end[i], end[p])
            if hi > lo:
                covered[p] += hi - lo
            if hi > reach[p]:
                reach[p] = hi
        self.self_time: dict[str, float] = {}
        for i in range(n):
            layer = names[name_of[i]].split(".", 1)[0]
            self.self_time[layer] = (
                self.self_time.get(layer, 0.0) + end[i] - start[i] - covered[i]
            )
        self.present = set(names)

    def work(self, name: str) -> int:
        return sum(w for w in self.works[name] if w > 0)


def _ratio(num: float, den: float) -> float:
    """num / den, or 0.0 when the layer did no work of that kind."""
    return num / den if den else 0.0


# per-layer metric -> (spans it needs, how it is computed).  Times are summed
# over spans, so spans running in parallel pool workers add up to more than
# the wall time they cover.
PER_LAYER: dict[str, tuple[tuple[str, ...], Callable[[SpanStats], float]]] = {
    "kernel.scan_chunk.calls": (("kernel.scan_chunk",), lambda s: s.calls["kernel.scan_chunk"]),
    "kernel.scan_chunk_s": (("kernel.scan_chunk",), lambda s: s.total["kernel.scan_chunk"]),
    "kernel.nodes": (("kernel.scan_chunk",), lambda s: s.work("kernel.scan_chunk")),
    "kernel.nodes_per_s": (
        ("kernel.scan_chunk",),
        lambda s: _ratio(s.work("kernel.scan_chunk"), s.total["kernel.scan_chunk"]),
    ),
    "kernel.calls_per_scan": (
        ("kernel.scan_chunk", "adversary.worst_case", "adversary.worst_case_bounded"),
        lambda s: _ratio(
            s.calls["kernel.scan_chunk"],
            s.calls["adversary.worst_case"] + s.calls["adversary.worst_case_bounded"],
        ),
    ),
    "adversary.worst_case.calls": (
        ("adversary.worst_case",), lambda s: s.calls["adversary.worst_case"]
    ),
    "adversary.worst_case_bounded.calls": (
        ("adversary.worst_case_bounded",), lambda s: s.calls["adversary.worst_case_bounded"]
    ),
    "adversary.self_s": (("adversary.worst_case",), lambda s: s.self_time.get("adversary", 0.0)),
    "adversary.abandon_ratio": (
        ("adversary.worst_case_bounded",),
        lambda s: _ratio(
            sum(w < 0 for w in s.works["adversary.worst_case_bounded"]),
            s.calls["adversary.worst_case_bounded"],
        ),
    ),
    "adversary.enumerated": (
        ("adversary.worst_case", "adversary.worst_case_bounded"),
        lambda s: s.work("adversary.worst_case") + s.work("adversary.worst_case_bounded"),
    ),
    "core.validate.calls": (
        ("core.validate_defining_set",), lambda s: s.calls["core.validate_defining_set"]
    ),
    "core.validate_s": (
        ("core.validate_defining_set",), lambda s: s.total["core.validate_defining_set"]
    ),
    "core.rank_table.calls": (("core.rank_table",), lambda s: s.calls["core.rank_table"]),
    "optsearch.enumerate_s": (
        ("optsearch.enumerate_balanced",), lambda s: s.total["optsearch.enumerate_balanced"]
    ),
    "optsearch.candidates": (
        ("optsearch.enumerate_balanced",), lambda s: s.work("optsearch.enumerate_balanced")
    ),
    "optsearch.random_balanced_s": (
        ("optsearch.random_balanced",), lambda s: s.total["optsearch.random_balanced"]
    ),
    "graphs.build_pot.calls": (("graphs.build_pot",), lambda s: s.calls["graphs.build_pot"]),
    "graphs.build_pot_s": (("graphs.build_pot",), lambda s: s.total["graphs.build_pot"]),
    "graphs.build_swp_s": (("graphs.build_swp",), lambda s: s.total["graphs.build_swp"]),
    "graphs.verify_lemma2_s": (
        ("graphs.verify_lemma2",), lambda s: s.total["graphs.verify_lemma2"]
    ),
    "graphs.verify_prop1_s": (("graphs.verify_prop1",), lambda s: s.total["graphs.verify_prop1"]),
    "graphs.verify_prop2_s": (("graphs.verify_prop2",), lambda s: s.total["graphs.verify_prop2"]),
    "graphs.pot_builds_per_instance": (
        ("graphs.build_pot",),
        lambda s: _ratio(s.calls["graphs.build_pot"], s.work("graphs.build_pot")),
    ),
    "construct.construct_for_z_s": (
        ("construct.construct_for_z",), lambda s: s.total["construct.construct_for_z"]
    ),
    "cli.self_s": (("cli.main",), lambda s: s.self_time.get("cli", 0.0)),
    "cli.certificate_s": (("cli.certificate",), lambda s: s.total["cli.certificate"]),
}


def layer_metrics(stats: SpanStats) -> tuple[dict[str, float], list[str]]:
    """(values, absent): every PER_LAYER metric whose spans all exist."""
    values: dict[str, float] = {}
    absent: list[str] = []
    for metric, (needs, compute) in PER_LAYER.items():
        if all(span in stats.present for span in needs):
            values[metric] = float(compute(stats))
        else:
            absent.append(metric)
    return values, absent
