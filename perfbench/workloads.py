"""The benchmark's workloads: the swapdisc commands each one runs, how much
work one invocation does, and the pinned values its outputs must match.

An invocation is a workload's list of CLI steps, run in order; the benchmark
times and checks each invocation as one unit.  Pinned values are exact
results of the paper's constructions.  Engine counters (`enumerated`) and
clock readings (`wall_time`) are never pinned: they depend on the engine or
on the clock.

Each workload also names the per-layer metrics it is expected to move
(`moves`); BENCHMARK.json holds the one-line reason it was chosen.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, ClassVar

DEFAULT_CHECKS = ("balance", "eq8", "lemma2", "eq10", "prop1", "prop2", "bounds")

LEVEL3_PINS = {
    "worst_case": 14,
    "minimal_maximizer": [[1, 2], [3, 4], [10, 11], [14, 15], [20, 21], [24, 25], [29, 30]],
    "maximizer_count": 196_340,
    "input_digest": "sha256:b0d8517e634278659d2c0e1369a45ceb6085ae4c1acf43e4234b10f479463432",
    "lower": "25/2",
}

SEARCH_T5_PINS = {
    "d_star": 8,
    "candidates_examined": 74_323,
    "optima": [
        {
            "t": 5,
            "pairs": [
                {"odd": [1, 20], "even": [7, 14]},
                {"odd": [2, 17], "even": [9, 10]},
                {"odd": [3, 8], "even": [5, 6]},
                {"odd": [4, 19], "even": [11, 12]},
                {"odd": [13, 18], "even": [15, 16]},
            ],
        }
    ],
}

BASE_CASE_PINS = {
    "worst_case": 6,
    "input_digest": "sha256:33d9c6eabab457bdf6c710d320373118a78b01b97c29ba277636c8ae50029888",
}

# RunCli(argv) runs one `swapdisc` command and returns its exit code.
RunCli = Callable[[list[str]], int]


def fibonacci(k: int) -> int:
    """F(k) with F(1) = F(2) = 1."""
    a, b = 1, 1
    for _ in range(k - 2):
        a, b = b, a + b
    return b


def t_for_z(z: int) -> int:
    """Pair count of construction level z."""
    return 5 * 2 ** (z - 2) - 1


def _load(path: Path, problems: list[str]) -> Any:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        problems.append(f"cannot read {path.name}: {exc}")
        return None


def _expect(problems: list[str], what: str, got: Any, want: Any) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def _exit_codes(problems: list[str], codes: list[int]) -> None:
    if any(code != 0 for code in codes):
        problems.append(f"exit codes {codes}, expected all 0")


class Workload:
    """Interface of a workload; `name` and `moves` are class attributes."""

    name: ClassVar[str]
    moves: ClassVar[tuple[str, ...]]

    def sizes(self, seed: int) -> dict[str, int]:
        """The input sizes, recorded with every result."""
        raise NotImplementedError

    def items(self, seed: int) -> int:
        """Work items one invocation completes, for items_per_s."""
        raise NotImplementedError

    def steps(self, seed: int, work: Path) -> list[list[str]]:
        """The `swapdisc` argument lists of one invocation, run in order.
        Removes the previous invocation's output, so that a step which
        writes nothing cannot pass the gate on stale output."""
        raise NotImplementedError

    def reference(self, work: Path, run_cli: RunCli, key: str) -> bytes | None:
        """Output that every invocation must reproduce byte for byte, if any."""
        return None

    def check(self, seed: int, work: Path, codes: list[int], reference: bytes | None) -> list[str]:
        """The correctness gate: what is wrong with the invocation's outputs."""
        raise NotImplementedError


@dataclass
class Level3Eval(Workload):
    """`construct --z Z`, then `eval --worst-case --workers W` with the
    default strategy.  Its certificate must also be byte-identical to a
    `--workers 1` run made once at set-up."""

    z: int = 3
    workers: int = 2
    pins: dict[str, Any] = field(default_factory=lambda: dict(LEVEL3_PINS))

    name: ClassVar[str] = "level3-eval"
    moves: ClassVar[tuple[str, ...]] = (
        "kernel.scan_chunk.calls",
        "kernel.scan_chunk_s",
        "kernel.nodes",
        "kernel.nodes_per_s",
        "kernel.calls_per_scan",
        "adversary.enumerated",
        "construct.construct_for_z_s",
        "cli.self_s",
        "cli.certificate_s",
    )

    def sizes(self, seed: int) -> dict[str, int]:
        t = t_for_z(self.z)
        return {"z": self.z, "t": t, "workers": self.workers, "swap_sets": self.items(seed)}

    def items(self, seed: int) -> int:
        """Swap sets covered by one worst-case evaluation: F(4t + 1)."""
        return fibonacci(4 * t_for_z(self.z) + 1)

    def _eval_steps(self, work: Path, workers: int, out: str) -> list[list[str]]:
        sets = str(work / "sets.json")
        return [
            ["construct", "--z", str(self.z), "--out", sets],
            ["eval", "--sets", sets, "--worst-case", "--workers", str(workers),
             "--out", str(work / out)],
        ]

    def steps(self, seed: int, work: Path) -> list[list[str]]:
        (work / "certificate.json").unlink(missing_ok=True)
        return self._eval_steps(work, self.workers, "certificate.json")

    def reference(self, work: Path, run_cli: RunCli, key: str) -> bytes | None:
        """Certificate of a `--workers 1` run, computed once per source tree
        and interpreter (`key`) and kept in the work directory."""
        ref, key_file = work / "reference.json", work / "reference.key"
        if ref.exists() and key_file.exists() and key_file.read_text() == key:
            return ref.read_bytes()
        key_file.unlink(missing_ok=True)
        codes = [run_cli(argv) for argv in self._eval_steps(work, 1, "reference.json")]
        if any(codes) or not ref.exists():
            return None
        key_file.write_text(key)
        return ref.read_bytes()

    def check(self, seed: int, work: Path, codes: list[int], reference: bytes | None) -> list[str]:
        problems: list[str] = []
        _exit_codes(problems, codes)
        path = work / "certificate.json"
        cert = _load(path, problems)
        if not isinstance(cert, dict):
            return problems or ["certificate is not an object"]
        pins = self.pins
        upper = 2 ** (self.z + 1) - 2
        _expect(problems, "worst_case", cert.get("worst_case"), pins["worst_case"])
        _expect(problems, "worst_case vs upper bound 2^(z+1)-2", cert.get("worst_case"), upper)
        _expect(problems, "bounds.upper", (cert.get("bounds") or {}).get("upper"), upper)
        _expect(problems, "bounds.lower", (cert.get("bounds") or {}).get("lower"), pins["lower"])
        _expect(problems, "minimal_maximizer", cert.get("minimal_maximizer"), pins["minimal_maximizer"])
        _expect(problems, "maximizer_count", (cert.get("adversary") or {}).get("maximizer_count"),
                pins["maximizer_count"])
        _expect(problems, "input_digest", cert.get("input_digest"), pins["input_digest"])
        if reference is None:
            problems.append("no --workers 1 reference certificate")
        elif path.read_bytes() != reference:
            problems.append("certificate differs from the --workers 1 reference")
        return problems


@dataclass
class SearchT(Workload):
    """`search --t T --workers 1`: the full, certified search for D*(t)."""

    t: int = 5
    workers: int = 1
    pins: dict[str, Any] = field(default_factory=lambda: dict(SEARCH_T5_PINS))

    name: ClassVar[str] = "search-t5"
    moves: ClassVar[tuple[str, ...]] = (
        "kernel.scan_chunk.calls",
        "kernel.scan_chunk_s",
        "kernel.nodes",
        "kernel.nodes_per_s",
        "kernel.calls_per_scan",
        "adversary.worst_case_bounded.calls",
        "adversary.self_s",
        "adversary.abandon_ratio",
        "core.validate.calls",
        "core.validate_s",
        "core.rank_table.calls",
        "optsearch.enumerate_s",
        "optsearch.candidates",
        "cli.self_s",
    )

    def sizes(self, seed: int) -> dict[str, int]:
        return {"t": self.t, "workers": self.workers, "candidates": self.items(seed)}

    def items(self, seed: int) -> int:
        """Candidates certified by one search."""
        return self.pins["candidates_examined"]

    def steps(self, seed: int, work: Path) -> list[list[str]]:
        (work / "search.json").unlink(missing_ok=True)
        return [["search", "--t", str(self.t), "--workers", str(self.workers),
                 "--out", str(work / "search.json")]]

    def check(self, seed: int, work: Path, codes: list[int], reference: bytes | None) -> list[str]:
        problems: list[str] = []
        _exit_codes(problems, codes)
        doc = _load(work / "search.json", problems)
        if not isinstance(doc, dict):
            return problems or ["search document is not an object"]
        _expect(problems, "t", doc.get("t"), self.t)
        _expect(problems, "d_star", doc.get("d_star"), self.pins["d_star"])
        _expect(problems, "certified", doc.get("certified"), True)
        _expect(problems, "optima", doc.get("optima"), self.pins["optima"])
        _expect(problems, "candidates_examined", doc.get("candidates_examined"),
                self.pins["candidates_examined"])
        return problems


@dataclass
class VerifySample(Workload):
    """`verify --z Z --sample N --seed <benchmark seed>` with the default
    checks: the level-z certificate plus N seeded random instances."""

    z: int = 2
    sample: int = 2000
    pins: dict[str, Any] = field(default_factory=lambda: dict(BASE_CASE_PINS))

    name: ClassVar[str] = "verify-sample"
    moves: ClassVar[tuple[str, ...]] = (
        "kernel.scan_chunk.calls",
        "kernel.scan_chunk_s",
        "kernel.calls_per_scan",
        "adversary.worst_case.calls",
        "adversary.self_s",
        "core.validate.calls",
        "core.validate_s",
        "core.rank_table.calls",
        "optsearch.random_balanced_s",
        "graphs.build_pot.calls",
        "graphs.build_pot_s",
        "graphs.build_swp_s",
        "graphs.verify_lemma2_s",
        "graphs.verify_prop1_s",
        "graphs.verify_prop2_s",
        "graphs.pot_builds_per_instance",
        "cli.self_s",
        "cli.certificate_s",
    )

    def sizes(self, seed: int) -> dict[str, int]:
        return {"z": self.z, "t": t_for_z(self.z), "sample": self.sample, "sample_seed": seed}

    def items(self, seed: int) -> int:
        """Sampled instances verified."""
        return self.sample

    def steps(self, seed: int, work: Path) -> list[list[str]]:
        (work / "verify.json").unlink(missing_ok=True)
        return [["verify", "--z", str(self.z), "--sample", str(self.sample), "--seed", str(seed),
                 "--out", str(work / "verify.json")]]

    def check(self, seed: int, work: Path, codes: list[int], reference: bytes | None) -> list[str]:
        problems: list[str] = []
        _exit_codes(problems, codes)
        cert = _load(work / "verify.json", problems)
        if not isinstance(cert, dict):
            return problems or ["certificate is not an object"]
        checks = cert.get("checks") or {}
        _expect(problems, "checks run", sorted(checks),
                sorted(DEFAULT_CHECKS + ("sampled_population",)))
        failing = sorted(name for name, entry in checks.items() if entry.get("holds") is not True)
        _expect(problems, "checks that do not hold", failing, [])
        _expect(problems, "sampled_population.details",
                (checks.get("sampled_population") or {}).get("details"),
                {"sampled": self.sample, "seed": seed, "failures": 0})
        _expect(problems, "worst_case", cert.get("worst_case"), self.pins["worst_case"])
        _expect(problems, "input_digest", cert.get("input_digest"), self.pins["input_digest"])
        return problems


WORKLOADS = {w.name: w for w in (Level3Eval, SearchT, VerifySample)}
