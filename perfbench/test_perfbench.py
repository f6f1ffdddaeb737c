"""Tests of the benchmark itself, on tiny sizes of each workload.

Run with `PYTHONPATH=src python -m pytest perfbench -q` from the repo root.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import run as bench
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

T3_OPTIMA = json.loads(
    '[{"t":3,"pairs":[{"odd":[1,6],"even":[3,4]},{"odd":[2,11],"even":[5,8]},{"odd":[7,12],"even":[9,10]}]},'
    '{"t":3,"pairs":[{"odd":[1,8],"even":[3,6]},{"odd":[2,11],"even":[4,9]},{"odd":[5,12],"even":[7,10]}]},'
    '{"t":3,"pairs":[{"odd":[1,9],"even":[3,7]},{"odd":[2,11],"even":[5,8]},{"odd":[4,12],"even":[6,10]}]},'
    '{"t":3,"pairs":[{"odd":[1,12],"even":[3,10]},{"odd":[2,7],"even":[4,5]},{"odd":[6,11],"even":[8,9]}]},'
    '{"t":3,"pairs":[{"odd":[1,12],"even":[3,10]},{"odd":[2,9],"even":[5,6]},{"odd":[4,11],"even":[7,8]}]},'
    '{"t":3,"pairs":[{"odd":[1,12],"even":[3,10]},{"odd":[2,11],"even":[5,8]},{"odd":[4,9],"even":[6,7]}]},'
    '{"t":3,"pairs":[{"odd":[1,10],"even":[5,6]},{"odd":[2,11],"even":[4,9]},{"odd":[3,12],"even":[7,8]}]},'
    '{"t":3,"pairs":[{"odd":[1,12],"even":[6,7]},{"odd":[2,5],"even":[3,4]},{"odd":[8,11],"even":[9,10]}]},'
    '{"t":3,"pairs":[{"odd":[1,12],"even":[6,7]},{"odd":[2,10],"even":[4,8]},{"odd":[3,11],"even":[5,9]}]},'
    '{"t":3,"pairs":[{"odd":[1,12],"even":[6,7]},{"odd":[2,11],"even":[4,9]},{"odd":[3,10],"even":[5,8]}]}]'
)


def tiny(name: str):
    """The workload at a size that runs in well under a second."""
    if name == "level3-eval":
        return workloads.Level3Eval(z=2, pins={
            "worst_case": 6,
            "minimal_maximizer": [[1, 2], [5, 6], [10, 11]],
            "maximizer_count": 208,
            "input_digest": workloads.BASE_CASE_PINS["input_digest"],
            "lower": "5/1",
        })
    if name == "search-t5":
        return workloads.SearchT(t=3, pins={"d_star": 6, "candidates_examined": 86,
                                            "optima": T3_OPTIMA})
    return workloads.VerifySample(sample=4)


# a pinned value each workload's gate must reject
WRONG_PIN = {"level3-eval": ("maximizer_count", 209), "search-t5": ("d_star", 5),
             "verify-sample": ("worst_case", 8)}


@pytest.fixture(autouse=True)
def few_setups(monkeypatch):
    monkeypatch.setattr(bench, "SETUP_BATCH", 1)


def test_contract_file_shape():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert [w["name"] for w in CONTRACT["workloads"]] == list(workloads.WORKLOADS)
    for w in CONTRACT["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    metrics = CONTRACT["end_to_end"] + CONTRACT["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for m in CONTRACT["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    setup = next(m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])
    per_layer = {m["name"] for m in CONTRACT["per_layer"]}
    assert per_layer == set(tracer.PER_LAYER) | {"trace.overhead_s"}
    for workload in workloads.WORKLOADS.values():
        assert set(workload.moves) <= per_layer


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_timed_run_passes_gate_and_reports_every_metric(name, tmp_path):
    result = bench.benchmark(tiny(name), 3, 0.0, False, tmp_path)
    assert (result["attempted"], result["failed"]) == (1, 0), result["problems"]
    line = bench.contract_line(result, CONTRACT)
    assert set(line) == {"correct", "attempted", "failed", "metrics"} and line["correct"]
    assert set(line["metrics"]) == {m["name"] for m in CONTRACT["end_to_end"]}
    assert all(entry["value"] > 0 for entry in line["metrics"].values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_wrong_pin_raises_failed_ratio(name, tmp_path):
    workload = tiny(name)
    key, value = WRONG_PIN[name]
    workload.pins[key] = value
    result = bench.benchmark(workload, 3, 0.0, False, tmp_path)
    assert result["attempted"] >= 1 and result["failed"] == result["attempted"]
    assert key in result["problems"][0]
    assert bench.contract_line(result, CONTRACT)["correct"] is False


def test_output_of_unexpected_shape_fails_the_gate(tmp_path):
    (tmp_path / "verify.json").write_text('{"checks": {"balance": 5}, "worst_case": 6}')
    problems = bench.gate(tiny("verify-sample"), 3, tmp_path, [0], None)
    assert problems and "unexpected shape" in problems[0]


def test_certificate_must_match_workers_1_reference(tmp_path):
    workload = tiny("level3-eval")
    assert bench.benchmark(workload, 3, 0.0, False, tmp_path)["failed"] == 0
    ref = tmp_path / "reference.json"
    ref.write_text(ref.read_text().replace('"tool_version"', '"tool_version" '))
    result = bench.benchmark(workload, 3, 0.0, False, tmp_path)
    assert result["failed"] == 1
    assert "reference" in result["problems"][0]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_reports_every_layer_metric(name, tmp_path):
    result = bench.benchmark(tiny(name), 3, 0.0, True, tmp_path)
    assert result["failed"] == 0 and result["attempted"] == 2, result["problems"]
    assert result["absent"] == []
    line = bench.contract_line(result, CONTRACT)
    assert set(line["metrics"]) == {m["name"] for m in CONTRACT["per_layer"]}
    values = {k: v["value"] for k, v in line["metrics"].items()}
    assert values["kernel.nodes"] >= values["adversary.enumerated"] > 0
    assert values["cli.self_s"] > 0


def test_traced_counts_match_the_workload(tmp_path):
    values = bench.benchmark(tiny("verify-sample"), 3, 0.0, True, tmp_path)["metrics"]
    # base case plus four samples; three graph builds per sample, four for the base case
    assert values["adversary.worst_case.calls"] == 5
    assert values["graphs.build_pot.calls"] == 4 + 3 * 4
    assert values["graphs.pot_builds_per_instance"] == 16 / 5
    search = bench.benchmark(tiny("search-t5"), 3, 0.0, True, tmp_path)["metrics"]
    assert search["optsearch.candidates"] == 86
    assert search["adversary.worst_case_bounded.calls"] == 85
    assert 0 < search["adversary.abandon_ratio"] < 1


def test_missing_function_is_absent_not_zero(tmp_path, monkeypatch, capsys):
    targets = tuple(("graphs", "build_pot_renamed") if t == ("graphs", "build_pot") else t
                    for t in tracer.TARGETS)
    monkeypatch.setattr(tracer, "TARGETS", targets)
    result = bench.benchmark(tiny("verify-sample"), 3, 0.0, True, tmp_path)
    assert result["failed"] == 0
    gone = {"graphs.build_pot.calls", "graphs.build_pot_s", "graphs.pot_builds_per_instance"}
    assert set(result["absent"]) == gone
    assert not gone & set(result["metrics"])
    assert "build_pot_renamed not found" in capsys.readouterr().err


def test_compare_refuses_other_backend_or_core_count(tmp_path):
    def saved(path: Path, **facts) -> Path:
        doc = {"trace": False,
               "facts": {"workload": "verify-sample", "backend": "pure", "nproc": 2, **facts},
               "result": {"metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}}
        path.write_text(json.dumps(doc))
        return path

    base = saved(tmp_path / "a.json")
    same = saved(tmp_path / "b.json")
    assert compare.main(["--base", str(base), "--head", str(same)]) == 0
    for key, value in (("backend", "compiled"), ("nproc", 8)):
        other = saved(tmp_path / f"{key}.json", **{key: value})
        assert compare.main(["--base", str(base), "--head", str(other)]) == 2


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-sample", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
