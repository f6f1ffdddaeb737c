"""CLI: document schemas, command behaviour, exit codes, determinism."""

import json
import os
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path
from random import Random

import pytest

from swapdisc import _fork, adversary, cli, graphs, optsearch
from swapdisc.cli import (
    EXIT_CHECK_FAILED,
    EXIT_INVALID,
    EXIT_IO,
    EXIT_OK,
    EXIT_SIZE,
    defining_set_to_doc,
    doc_to_defining_set,
    doc_to_swaps,
    main,
    swaps_to_doc,
)
from swapdisc.core import SizeRefused, SwapSet
from swapdisc.graphs import import_graphs
from swapdisc.optsearch import random_balanced

OPT2_DOC = {
    "t": 2,
    "pairs": [
        {"odd": [1, 8], "even": [3, 6]},
        {"odd": [2, 7], "even": [4, 5]},
    ],
}


def write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def set_key(ds):
    return tuple(pair.partition_bits for pair in ds.pairs)


def sample_draws(seed, n, t=4):
    """How often `verify --sample n --seed seed` draws each set of size t."""
    rng = Random(seed)
    return Counter(set_key(random_balanced(t, rng)) for _ in range(n))


# ------------------------------------------------------------------ schemas

def test_document_round_trip(opt2):
    assert doc_to_defining_set(defining_set_to_doc(opt2)) == opt2
    swaps = SwapSet.from_positions((1, 5))
    assert doc_to_swaps(swaps_to_doc(swaps)) == swaps


def test_strict_import_rejects_unknown_fields():
    from swapdisc.core import InvalidInput

    bad = dict(OPT2_DOC)
    bad["comment"] = "hi"
    with pytest.raises(InvalidInput):
        doc_to_defining_set(bad)
    with pytest.raises(InvalidInput):
        doc_to_defining_set({"t": 2})
    with pytest.raises(InvalidInput):
        doc_to_swaps({"swaps": [[1, 2]], "extra": 1})
    with pytest.raises(InvalidInput):
        doc_to_swaps({"swaps": [[1, 2, 3]]})


# ---------------------------------------------------------------- construct

def test_construct_z2_writes_eq5(tmp_path, capsys):
    out = tmp_path / "eq5.json"
    assert main(["construct", "--z", "2", "--out", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    ds = doc_to_defining_set(doc)
    assert ds.t == 4
    assert ds.pairs[0].odd == frozenset({1, 16})


def test_out_rewrites_existing_file_in_place(tmp_path, capsys):
    assert main(["construct", "--z", "2"]) == EXIT_OK
    expected = capsys.readouterr().out.encode()
    out = tmp_path / "eq5.json"
    out.write_bytes(b"junk" * 2560)
    out.chmod(0o640)
    before = out.stat()
    link = tmp_path / "link.json"
    link.symlink_to(out)
    for path in (out, link):
        assert main(["construct", "--z", "2", "--out", str(path)]) == EXIT_OK
        assert out.read_bytes() == expected
        after = out.stat()
        assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)
    assert link.is_symlink()


@pytest.mark.parametrize("where", ["existing directory", "missing directory"])
def test_write_failure_exit3(tmp_path, capsys, where):
    out = str(tmp_path if where == "existing directory" else tmp_path / "no-dir" / "s.json")
    assert main(["construct", "--z", "2", "--out", out]) == EXIT_IO
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot write {out}: ")


def test_out_dev_null(tmp_path, capsys):
    sets = write(tmp_path / "s.json", OPT2_DOC)
    assert main(["construct", "--z", "2", "--out", "/dev/null"]) == EXIT_OK
    assert main(["eval", "--sets", sets, "--worst-case", "--out", "/dev/null"]) == EXIT_OK


def test_construct_z4_t19(capsys):
    assert main(["construct", "--z", "4"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    ds = doc_to_defining_set(doc)
    assert ds.t == 19 and ds.n_ranks == 76


def test_construct_z1_exit2(capsys):
    assert main(["construct", "--z", "1"]) == EXIT_INVALID
    assert "construction levels start at z = 2, got 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["construct", "verify"])
@pytest.mark.parametrize("z", ["15000", "1000000000000"])
def test_oversize_z_refused_before_any_work(capsys, command, z):
    # neither 4t (thousands of digits) nor 2 ** (z - 2) is ever computed
    assert main([command, "--z", z]) == EXIT_SIZE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: level {z} is above the cap of 1000000 ranks\n"


# --------------------------------------------------------------------- eval

def test_eval_with_swaps(tmp_path, capsys):
    sets = write(tmp_path / "s.json", OPT2_DOC)
    swaps = write(tmp_path / "w.json", {"swaps": [[1, 2], [5, 6]]})
    assert main(["eval", "--sets", sets, "--swaps", swaps]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "4"


def test_eval_with_swaps_writes_out(tmp_path, capsys):
    sets = write(tmp_path / "s.json", OPT2_DOC)
    swaps = write(tmp_path / "w.json", {"swaps": [[1, 2], [5, 6]]})
    out = tmp_path / "d.txt"
    assert main(["eval", "--sets", sets, "--swaps", swaps, "--out", str(out)]) == EXIT_OK
    assert out.read_text() == "4\n"
    assert capsys.readouterr().out == ""


def test_eval_empty_swaps_zero(tmp_path, capsys):
    sets = write(tmp_path / "s.json", OPT2_DOC)
    swaps = write(tmp_path / "w.json", {"swaps": []})
    assert main(["eval", "--sets", sets, "--swaps", swaps]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "0"


def test_eval_rejects_a_repeated_swap_entry(tmp_path, capsys):
    sets = write(tmp_path / "s.json", OPT2_DOC)
    swaps = write(tmp_path / "w.json", {"swaps": [[1, 2], [1, 2]]})
    assert main(["eval", "--sets", sets, "--swaps", swaps]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "swap entry [1, 2] appears more than once" in captured.err


def test_eval_worst_case_certificate(tmp_path, capsys):
    out = tmp_path / "eq5.json"
    main(["construct", "--z", "2", "--out", str(out)])
    assert main(["eval", "--sets", str(out), "--worst-case"]) == EXIT_OK
    cert = json.loads(capsys.readouterr().out)
    assert cert["worst_case"] == 6
    assert cert["worst_case"] == 2 * len(cert["minimal_maximizer"])
    assert cert["worst_case"] % 2 == 0
    assert cert["bounds"] == {"lower": "5/1", "upper": 6}
    assert cert["input_digest"].startswith("sha256:")
    assert cert["tool_version"]


def test_eval_needs_exactly_one_mode(tmp_path, capsys):
    sets = write(tmp_path / "s.json", OPT2_DOC)
    assert main(["eval", "--sets", sets]) == EXIT_INVALID
    swaps = write(tmp_path / "w.json", {"swaps": []})
    assert (
        main(["eval", "--sets", sets, "--swaps", swaps, "--worst-case"]) == EXIT_INVALID
    )


def test_eval_missing_file_exit3(capsys):
    assert main(["eval", "--sets", "no-such-file.json", "--worst-case"]) == EXIT_IO


DUPLICATE_KEY = {
    # the later value used to win silently: t = 2 here, [[3, 4]] there
    "sets": '{"t": 3, "t": 2, "pairs": [{"odd": [1, 8], "even": [3, 6]}, '
    '{"odd": [2, 7], "even": [4, 5]}]}',
    "swaps": '{"swaps": [[1, 2]], "swaps": [[3, 4]]}',
}


@pytest.mark.parametrize("fault", ["not utf-8", "nested too deep", "duplicate key"])
@pytest.mark.parametrize("command", ["eval --sets", "eval --swaps", "verify --sets"])
def test_malformed_json_file_exit2(tmp_path, capsys, command, fault):
    content = {
        "not utf-8": b"\xff\xfe\x7b",
        "nested too deep": b"[" * 100_000,
        "duplicate key": DUPLICATE_KEY[command.split("--")[1]].encode(),
    }[fault]
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    sets = write(tmp_path / "s.json", OPT2_DOC)
    argv = {
        "eval --sets": ["eval", "--sets", str(bad), "--worst-case"],
        "eval --swaps": ["eval", "--sets", sets, "--swaps", str(bad)],
        "verify --sets": ["verify", "--sets", str(bad)],
    }[command]
    assert main(argv) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {bad} is not valid JSON: ")
    assert captured.err.count("\n") == 1
    if fault == "duplicate key":
        assert "duplicate key" in captured.err


def test_eval_worst_case_deterministic_across_workers(tmp_path, capsys):
    sets = write(tmp_path / "s.json", OPT2_DOC)
    outputs = []
    for w in ("1", "2"):
        assert main(["eval", "--sets", sets, "--worst-case", "--workers", w]) == EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_eval_size_refusal_exit4(tmp_path, capsys):
    big = tmp_path / "big.json"
    main(["construct", "--z", "4", "--out", str(big)])
    code = main(["eval", "--sets", str(big), "--worst-case", "--strategy", "exhaustive"])
    assert code == EXIT_SIZE


def test_eval_branch_and_bound_refused_above_envelope_exit4(tmp_path, capsys):
    big = tmp_path / "big.json"
    main(["construct", "--z", "4", "--out", str(big)])
    capsys.readouterr()
    code = main(["eval", "--sets", str(big), "--worst-case", "--strategy", "branch_and_bound"])
    assert code == EXIT_SIZE
    assert "--force-exhaustive" in capsys.readouterr().err


def test_eval_worst_case_level4_default_engine(tmp_path, capsys):
    big = tmp_path / "big.json"
    main(["construct", "--z", "4", "--out", str(big)])
    assert main(["eval", "--sets", str(big), "--worst-case"]) == EXIT_OK
    cert = json.loads(capsys.readouterr().out)
    assert cert["worst_case"] == 30 == cert["bounds"]["upper"]
    assert len(cert["minimal_maximizer"]) == 15
    assert cert["adversary"]["engine"] == "frontier"


def test_certificate_names_the_engine(tmp_path, capsys):
    sets = write(tmp_path / "s.json", OPT2_DOC)
    engines = {}
    for strategy in ("frontier", "exhaustive", "branch_and_bound"):
        argv = ["eval", "--sets", sets, "--worst-case", "--strategy", strategy]
        assert main(argv) == EXIT_OK
        cert = json.loads(capsys.readouterr().out)
        engines[strategy] = cert.pop("adversary")
        assert cert["worst_case"] == 4
    assert {s: a["engine"] for s, a in engines.items()} == {s: s for s in engines}
    assert engines["exhaustive"]["enumerated"] == 34


def test_workers_below_one_exit2(tmp_path, capsys):
    sets = write(tmp_path / "s.json", OPT2_DOC)
    swaps = write(tmp_path / "w.json", {"swaps": []})
    assert main(["eval", "--sets", sets, "--worst-case", "--workers", "0"]) == EXIT_INVALID
    assert main(["eval", "--sets", sets, "--swaps", swaps, "--workers", "-2"]) == EXIT_INVALID
    assert main(["search", "--t", "1", "--workers", "0"]) == EXIT_INVALID
    assert main(["verify", "--z", "2", "--workers", "0"]) == EXIT_INVALID
    prefix = tmp_path / "g"
    argv = ["graphs", "--sets", sets, "--minimal-maximizer", "--format", "json",
            "--out", str(prefix), "--workers", "-1"]
    assert main(argv) == EXIT_INVALID
    err = capsys.readouterr()
    assert err.out == "" and err.err.count("--workers must be >= 1") == 5
    assert sorted(path.name for path in tmp_path.iterdir()) == ["s.json", "w.json"]


def test_eval_far_out_of_range_rank_costs_no_memory(tmp_path, capsys):
    # a balanced pair with a rank of 10^8 must be refused before a 10^8-bit
    # rank bitmask is built
    r = 10**8
    sets = write(tmp_path / "s.json", {"t": 1, "pairs": [{"odd": [1, r], "even": [2, r - 1]}]})
    swaps = write(tmp_path / "w.json", {"swaps": []})
    tracemalloc.start()
    try:
        assert main(["eval", "--sets", sets, "--swaps", swaps]) == EXIT_INVALID
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert f"rank {r} outside [1, 4]" in capsys.readouterr().err


# ------------------------------------------------------------------- search

def test_search_t2(capsys):
    assert main(["search", "--t", "2"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["d_star"] == 4
    assert doc["certified"] is True
    assert len(doc["optima"]) == 1
    assert doc["optima"][0]["pairs"][0] == {"odd": [1, 8], "even": [3, 6]}


def test_search_t1(capsys):
    assert main(["search", "--t", "1"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["d_star"] == 2 and len(doc["optima"]) == 1


def test_search_invalid_t(capsys):
    assert main(["search", "--t", "0"]) == EXIT_INVALID


def test_search_time_budget_uncertified(capsys):
    assert main(["search", "--t", "4", "--time-budget", "0"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["certified"] is False


def test_search_time_budget_nan_or_negative_exit2(capsys):
    # NaN compares false with every elapsed time: it used to switch the budget
    # off and still report a certified result
    for bad in ("nan", "-1", "-0.5"):
        assert main(["search", "--t", "1", "--time-budget", bad]) == EXIT_INVALID
        assert "--time-budget" in capsys.readouterr().err
    assert main(["search", "--t", "1", "--time-budget", "0"]) == EXIT_OK


@pytest.mark.parametrize("t", ["11", "1000000"])
def test_search_above_the_scan_limit_exit4_at_once(capsys, t):
    started = time.perf_counter()
    assert main(["search", "--t", t, "--time-budget", "1"]) == EXIT_SIZE
    assert time.perf_counter() - started < 1.0
    assert f"search refused for t = {t}" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--strategy", "frontier"], ["--force-exhaustive"]])
def test_search_rejects_the_engine_flags(capsys, flag):
    # search always scans with branch and bound; it takes only --workers
    with pytest.raises(SystemExit) as done:
        main(["search", "--t", "3", *flag])
    assert done.value.code == EXIT_INVALID
    assert "unrecognized arguments" in capsys.readouterr().err


def test_search_time_budget_help_states_the_proof_contract(capsys):
    # the budget is checked before each proof of a kept tie as well
    with pytest.raises(SystemExit) as done:
        main(["search", "--help"])
    assert done.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "before each proof of a kept tie" in text
    assert "left out of optima" in text


# ------------------------------------------------------------------- verify

def test_verify_construction_all_checks_pass(capsys):
    code = main(["verify", "--z", "2", "--checks", "bounds,eq8,lemma2,eq10"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    cert = json.loads(out)
    assert {k: v["holds"] for k, v in cert["checks"].items()} == {
        "bounds": True,
        "eq8": True,
        "lemma2": True,
        "eq10": True,
    }


def test_verify_unbalanced_document_fails_balance(tmp_path, capsys):
    bad = write(
        tmp_path / "bad.json",
        {"t": 1, "pairs": [{"odd": [1, 3], "even": [2, 4]}]},
    )
    code = main(["verify", "--sets", bad])
    assert code == EXIT_CHECK_FAILED
    cert = json.loads(capsys.readouterr().out)
    assert cert["checks"]["balance"]["holds"] is False


def test_verify_lemma1_z2(capsys):
    code = main(["verify", "--z", "2", "--checks", "lemma1", "--workers", "2"])
    assert code == EXIT_OK
    cert = json.loads(capsys.readouterr().out)
    details = cert["checks"]["lemma1"]["details"]
    assert (details["d_z"], details["d_z_plus_1"]) == (6, 14)
    assert details["d_z_plus_1"] <= details["bound"] == 14


def test_verify_sampled_population(tmp_path, capsys):
    sets = write(tmp_path / "s.json", OPT2_DOC)
    code = main(
        ["verify", "--sets", sets, "--checks", "eq8", "--sample", "5", "--seed", "7"]
    )
    assert code == EXIT_OK
    cert = json.loads(capsys.readouterr().out)
    assert cert["checks"]["sampled_population"]["holds"] is True
    assert cert["checks"]["sampled_population"]["details"]["sampled"] == 5


@pytest.mark.parametrize("strategy", [None, "frontier", "exhaustive", "branch_and_bound"])
def test_verify_sample_uses_the_requested_strategy(monkeypatch, capsys, strategy):
    real = cli.worst_case
    seen = []

    def counting(ds, strategy=None, **kwargs):
        seen.append(strategy)
        return real(ds, strategy=strategy, **kwargs)

    monkeypatch.setattr(cli, "worst_case", counting)
    # one process, so that every call lands in `seen`
    monkeypatch.setattr(_fork, "usable_cores", lambda: 1)
    argv = ["verify", "--z", "2", "--checks", "eq8", "--sample", "300", "--seed", "1"]
    assert main(argv + (["--strategy", strategy] if strategy else [])) == EXIT_OK
    capsys.readouterr()
    # the construction, then each distinct sample once (branch-and-bound by default)
    distinct = len(sample_draws(1, 300))
    assert distinct == 275
    assert seen == [strategy] + [strategy or "branch_and_bound"] * distinct


def _failing_first(report, field):
    """report with the first entry of its tuple `field` failing."""
    first, *rest = getattr(report, field)
    return report._replace(**{field: (first._replace(holds=False), *rest)})


# one check of the sampled population made to fail by patching its checker,
# named with the module that the CLI reads it from at call time
SAMPLE_FAULTS = {
    "eq8": (cli, "minimal_maximizer_property", lambda real: lambda ds, res: False),
    "lemma2": (
        graphs,
        "verify_lemma2",
        lambda real: lambda ds, i_star: _failing_first(real(ds, i_star), "components"),
    ),
    "eq10": (
        graphs,
        "verify_lemma2",
        lambda real: lambda ds, i_star: real(ds, i_star)._replace(eq10_holds=False),
    ),
    "prop1": (
        graphs,
        "verify_prop1",
        lambda real: lambda ds, i_star, subsets: (
            _failing_first(real(ds, i_star, subsets), "entries")
            if subsets == "singletons" else real(ds, i_star, subsets)
        ),
    ),
    # prop2 is not part of the sampled checks
    "prop2": (
        graphs,
        "verify_prop2",
        lambda real: lambda ds, i_star: _failing_first(real(ds, i_star), "entries"),
    ),
}


@pytest.mark.parametrize("check", list(SAMPLE_FAULTS))
def test_verify_sample_counts_every_failing_instance(monkeypatch, capsys, check):
    module, name, fault = SAMPLE_FAULTS[check]
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    code = main(["verify", "--z", "2", "--checks", "balance", "--sample", "3", "--seed", "5"])
    details = json.loads(capsys.readouterr().out)["checks"]["sampled_population"]["details"]
    if check == "prop2":
        assert (details["failures"], code) == (0, EXIT_OK)
    else:
        assert (details["failures"], code) == (3, EXIT_CHECK_FAILED)


def test_verify_sample_counts_a_repeated_failing_set_on_every_draw(monkeypatch, capsys):
    draws = sample_draws(1, 300)
    target, times = draws.most_common(1)[0]
    assert times == 3
    real = cli.minimal_maximizer_property
    checked = []

    def fail_target(ds, res):
        checked.append(set_key(ds))
        return set_key(ds) != target and real(ds, res)

    monkeypatch.setattr(cli, "minimal_maximizer_property", fail_target)
    monkeypatch.setattr(_fork, "usable_cores", lambda: 1)
    argv = ["verify", "--z", "2", "--checks", "balance", "--sample", "300", "--seed", "1"]
    assert main(argv) == EXIT_CHECK_FAILED
    details = json.loads(capsys.readouterr().out)["checks"]["sampled_population"]["details"]
    assert details == {"sampled": 300, "seed": 1, "failures": times}
    assert Counter(checked) == Counter(set(draws))  # each distinct set checked once


def test_verify_sample_certificate_unchanged_without_the_memo(monkeypatch, capsys):
    real = cli.worst_case
    calls = []

    def counting(ds, **kwargs):
        calls.append(ds)
        return real(ds, **kwargs)

    monkeypatch.setattr(cli, "worst_case", counting)
    monkeypatch.setattr(_fork, "usable_cores", lambda: 1)
    argv = ["verify", "--z", "2", "--sample", "300", "--seed", "1"]
    outputs = []
    for cap in (cli.SAMPLE_MEMO_MAX, 0):
        monkeypatch.setattr(cli, "SAMPLE_MEMO_MAX", cap)
        calls.clear()
        assert main(argv) == EXIT_OK
        outputs.append((capsys.readouterr().out, len(calls)))
    assert outputs[0][0] == outputs[1][0]
    # the construction, then every distinct sample (memo) or every draw (cap 0)
    assert [n for _, n in outputs] == [1 + len(sample_draws(1, 300)), 1 + 300]


def test_verify_negative_sample_exit2(capsys):
    code = main(["verify", "--z", "2", "--checks", "balance", "--sample", "-3"])
    assert code == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--sample" in captured.err


def test_verify_sample_refused_before_drawing(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise AssertionError("called before the size refusal")

    monkeypatch.setattr(optsearch, "random_balanced", fail)
    monkeypatch.setattr(cli, "worst_case", fail)
    assert main(["verify", "--z", "4", "--checks", "balance", "--sample", "1"]) == EXIT_SIZE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: branch_and_bound scan refused for 4t = 76")


def test_verify_sampled_certificate_identical_across_workers(capsys):
    outputs = []
    for w in ("1", "2"):
        argv = ["verify", "--z", "2", "--sample", "40", "--seed", "5",
                "--strategy", "branch_and_bound", "--workers", w]
        assert main(argv) == EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["adversary"]["engine"] == "branch_and_bound"
    assert len(sample_draws(5, 40)) == 38  # the sample has repeats


# ------------------------------------------------- forked --sample workers

def run_reaped(argv, capsys):
    """(exit code, stdout, stderr) of main(argv), after checking that it left
    no child process behind, reaped or not."""
    code = main(argv)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def on_cores(monkeypatch):
    """Sets the usable cores that --sample sees, with a forked worker for
    every share of at least one check."""
    monkeypatch.setattr(cli, "SAMPLE_MIN_SHARE", 1)

    def set_cores(n):
        monkeypatch.setattr(_fork, "usable_cores", lambda: n)

    return set_cores


def checked_one_by_one(seed, n, cap, t=4):
    """The sets the one-by-one --sample loop checks, with a memo of `cap` sets."""
    rng = Random(seed)
    kept, checked = set(), []
    for _ in range(n):
        key = set_key(random_balanced(t, rng))
        if key not in kept:
            checked.append(key)
            if len(kept) < cap:
                kept.add(key)
    return checked


# an optimal t = 3 set: its random sets repeat often (86 canonical sets)
OPT3_DOC = {
    "t": 3,
    "pairs": [
        {"odd": [1, 6], "even": [3, 4]},
        {"odd": [2, 11], "even": [5, 8]},
        {"odd": [7, 12], "even": [9, 10]},
    ],
}


@pytest.mark.parametrize(
    "t, cap, block",
    [(4, cli.SAMPLE_MEMO_MAX, cli.SAMPLE_BLOCK), (3, 40, 64), (4, 0, 64)],
    ids=["memo", "t3-memo-40-blocks-64", "no-memo-blocks-64"],
)
def test_forked_workers_check_the_same_sets(on_cores, monkeypatch, tmp_path, capsys,
                                            t, cap, block):
    monkeypatch.setattr(cli, "SAMPLE_MEMO_MAX", cap)
    monkeypatch.setattr(cli, "SAMPLE_BLOCK", block)
    real = cli.worst_case
    log = tmp_path / "checked.txt"

    def logging(ds, **kwargs):
        # one O_APPEND write per line, so lines of several processes never mix
        fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        try:
            os.write(fd, f"{os.getpid()} {set_key(ds)}\n".encode())
        finally:
            os.close(fd)
        return real(ds, **kwargs)

    monkeypatch.setattr(cli, "worst_case", logging)
    want = Counter(str(key) for key in checked_one_by_one(1, 300, cap, t))
    sets = ["--z", "2"] if t == 4 else ["--sets", write(tmp_path / "s.json", OPT3_DOC)]
    argv = ["verify", *sets, "--checks", "balance", "--sample", "300", "--seed", "1"]
    outputs = []
    for cores in (1, 2, 3):
        on_cores(cores)
        log.write_text("")
        outputs.append(run_reaped(argv, capsys))
        lines = [line.split(" ", 1) for line in log.read_text().splitlines()]
        assert Counter(key for _, key in lines) == want
        # the parent checks the first draw, and at most `cores` workers
        # each block after it
        pids = {int(pid) for pid, _ in lines}
        assert os.getpid() in pids
        assert (len(pids) == 1) == (cores == 1)
        assert len(pids) <= 1 + cores * -(-299 // block)
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0][0] == EXIT_OK


@pytest.mark.parametrize("check", list(SAMPLE_FAULTS))
def test_forked_workers_count_every_failing_instance(on_cores, monkeypatch, capsys, check):
    module, name, fault = SAMPLE_FAULTS[check]
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    outputs = []
    for cores in (1, 2):
        on_cores(cores)
        argv = ["verify", "--z", "2", "--checks", "balance", "--sample", "40", "--seed", "5"]
        outputs.append(run_reaped(argv, capsys))
    assert outputs[0] == outputs[1]
    details = json.loads(outputs[0][1])["checks"]["sampled_population"]["details"]
    assert details["failures"] == (0 if check == "prop2" else 40)


@pytest.mark.parametrize("targets", [(20, 30), (5, 30), (30, 20)])
def test_forked_workers_raise_the_earliest_checks_error(on_cores, monkeypatch, capsys,
                                                        targets):
    # 38 distinct sets: 0 alone, then 3 shares in workers, 1-12, 13-24 and
    # 25-37
    jobs = checked_one_by_one(5, 40, cli.SAMPLE_MEMO_MAX)
    assert len(jobs) == 38
    refused = [jobs[j] for j in targets]
    real = cli.worst_case

    def refusing(ds, **kwargs):
        if set_key(ds) in refused:
            raise SizeRefused(f"refused {set_key(ds)}")
        return real(ds, **kwargs)

    monkeypatch.setattr(cli, "worst_case", refusing)
    outputs = []
    for cores in (1, 3):
        on_cores(cores)
        argv = ["verify", "--z", "2", "--checks", "balance", "--sample", "40", "--seed", "5"]
        outputs.append(run_reaped(argv, capsys))
    assert outputs[0] == outputs[1] == (EXIT_SIZE, "", f"error: refused {jobs[min(targets)]}\n")


def test_forked_frontier_refusal_exits_4_with_the_same_error(on_cores, monkeypatch, capsys):
    # with this cap the frontier DP refuses 2 of the 38 distinct sets, the
    # first of them in the second worker's share on 2 cores (sets 19-37)
    monkeypatch.setattr(adversary, "FRONTIER_MAX_STATES", 180)
    real = cli.worst_case
    calls = []

    def counting(ds, **kwargs):
        calls.append(ds)
        return real(ds, **kwargs)

    monkeypatch.setattr(cli, "worst_case", counting)
    argv = ["verify", "--z", "2", "--checks", "balance", "--sample", "40", "--seed", "5",
            "--strategy", "frontier"]
    outputs = []
    for cores in (1, 2):
        on_cores(cores)
        outputs.append(run_reaped(argv, capsys))
        if cores == 1:
            # the construction, then the sampled sets up to the refused one
            assert len(calls) - 2 >= 19
    assert outputs[0] == outputs[1]
    code, out, err = outputs[0]
    assert (code, out) == (EXIT_SIZE, "")
    assert err.startswith("error: frontier DP refused: more than 180 live states")


def test_frontier_sample_refused_after_one_draw(monkeypatch, capsys):
    monkeypatch.setattr(adversary, "FRONTIER_MAX_STATES", 1000)
    real = optsearch.random_balanced
    draws = []

    def counting(t, rng):
        draws.append(t)
        return real(t, rng)

    monkeypatch.setattr(optsearch, "random_balanced", counting)
    argv = ["verify", "--z", "4", "--checks", "balance", "--sample", "5000",
            "--strategy", "frontier"]
    code, out, err = run_reaped(argv, capsys)
    assert (code, out, draws) == (EXIT_SIZE, "", [19])
    assert err.startswith("error: frontier DP refused: more than 1000 live states")


def test_dead_worker_is_an_error_without_certificate(on_cores, monkeypatch, tmp_path, capsys):
    on_cores(2)
    parent = os.getpid()
    real = cli.worst_case

    def dying(ds, **kwargs):
        if os.getpid() != parent:
            os._exit(3)
        return real(ds, **kwargs)

    monkeypatch.setattr(cli, "worst_case", dying)
    out = tmp_path / "cert.json"
    argv = ["verify", "--z", "2", "--sample", "300", "--seed", "1", "--out", str(out)]
    code, stdout, stderr = run_reaped(argv, capsys)
    assert code == EXIT_IO and stdout == "" and not out.exists()
    assert stderr.count("\n") == 1 and stderr.startswith("error: a --sample worker died: ")


@pytest.mark.parametrize("forks_before_failing", [0, 1])
def test_failed_fork_checks_every_set_here(on_cores, monkeypatch, capsys,
                                           forks_before_failing):
    real_fork = os.fork
    forks = []

    def failing_fork():
        forks.append(1)
        if len(forks) > forks_before_failing:
            raise BlockingIOError("no process to spare")
        return real_fork()

    # a worker started before the failed fork is stopped, and --workers
    # changes nothing
    monkeypatch.setattr(os, "fork", failing_fork)
    outputs = []
    for cores, workers in ((3, "1000000"), (1, "1")):
        on_cores(cores)
        argv = ["verify", "--z", "2", "--sample", "300", "--seed", "1", "--workers", workers]
        outputs.append(run_reaped(argv, capsys))
    assert len(forks) == forks_before_failing + 1
    assert outputs[0] == outputs[1] and outputs[0][0] == EXIT_OK


def test_verify_needs_sets_xor_z(capsys):
    assert main(["verify"]) == EXIT_INVALID
    assert main(["verify", "--z", "2", "--sets", "x.json"]) == EXIT_INVALID


def test_verify_unknown_check(capsys):
    assert main(["verify", "--z", "2", "--checks", "nonsense"]) == EXIT_INVALID


@pytest.mark.parametrize("checks", ["", ","])
def test_verify_empty_check_name_refused(capsys, checks):
    assert main(["verify", "--z", "2", "--checks", checks]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: unknown check ''")


def test_verify_lemma1_requires_z(tmp_path, capsys):
    sets = write(tmp_path / "s.json", OPT2_DOC)
    assert main(["verify", "--sets", sets, "--checks", "lemma1"]) == EXIT_INVALID


# ------------------------------------------------------------------- graphs

def test_graphs_minimal_maximizer_dot(tmp_path, capsys):
    sets = write(
        tmp_path / "t1.json", {"t": 1, "pairs": [{"odd": [1, 4], "even": [2, 3]}]}
    )
    out = tmp_path / "g"
    code = main(
        [
            "graphs",
            "--sets",
            sets,
            "--minimal-maximizer",
            "--format",
            "dot",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    pot_text = (tmp_path / "g.pot.dot").read_text()
    assert pot_text.count("v1 -> v0") == 2
    assert pot_text.startswith("digraph G_pot {") and pot_text.rstrip().endswith("}")
    swp_text = (tmp_path / "g.swp.dot").read_text()
    assert "v1 -- v1" in swp_text
    assert swp_text.startswith("graph G_swp {") and swp_text.rstrip().endswith("}")


def test_graphs_dot_deterministic(tmp_path, capsys):
    sets = write(tmp_path / "s.json", OPT2_DOC)
    swaps = write(tmp_path / "w.json", {"swaps": [[1, 2], [5, 6]]})
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        main(["graphs", "--sets", sets, "--swaps", swaps, "--format", "dot", "--out", str(out)])
        outs.append((tmp_path / f"{name}.swp.dot").read_text())
        assert outs[-1].count("v1 -- v2") == 2  # the double edge
    assert outs[0] == outs[1]


def test_graphs_json_round_trip(tmp_path, capsys):
    sets = write(tmp_path / "s.json", OPT2_DOC)
    swaps = write(tmp_path / "w.json", {"swaps": [[1, 2], [5, 6]]})
    out = tmp_path / "g"
    code = main(
        ["graphs", "--sets", sets, "--swaps", swaps, "--format", "json", "--out", str(out)]
    )
    assert code == EXIT_OK
    swp, pot = import_graphs((tmp_path / "g.graphs.json").read_text())
    assert swp.t == 2 and [(e.u, e.v) for e in swp.edges] == [(1, 2), (1, 2)]


def test_graphs_needs_swaps_xor_flag(tmp_path, capsys):
    sets = write(tmp_path / "s.json", OPT2_DOC)
    assert main(["graphs", "--sets", sets, "--format", "dot", "--out", "x"]) == EXIT_INVALID


def test_graphs_rejects_a_repeated_swap_entry(tmp_path, capsys):
    sets = write(tmp_path / "s.json", OPT2_DOC)
    swaps = write(tmp_path / "w.json", {"swaps": [[5, 6], [1, 2], [5, 6]]})
    out = tmp_path / "g"
    code = main(
        ["graphs", "--sets", sets, "--swaps", swaps, "--format", "json", "--out", str(out)]
    )
    assert code == EXIT_INVALID
    assert not (tmp_path / "g.graphs.json").exists()
    assert "swap entry [5, 6] appears more than once" in capsys.readouterr().err


# the package source, for the tests that start a fresh interpreter
SRC = Path(__file__).resolve().parent.parent / "src"


def test_module_entry_point(tmp_path):
    sets = write(tmp_path / "s.json", OPT2_DOC)
    swaps = write(tmp_path / "w.json", {"swaps": [[1, 2], [5, 6]]})
    proc = subprocess.run(
        [sys.executable, "-m", "swapdisc", "eval", "--sets", sets, "--swaps", swaps],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "4"


# runs one command in a fresh interpreter, then prints its exit code, the
# swapdisc modules it loaded, whether dataclasses was loaded before swapdisc
# was imported and whether it was loaded after the command
FRESH_RUN = """\
import json, sys
preloaded = "dataclasses" in sys.modules
from swapdisc.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("swapdisc.")),
                  preloaded, "dataclasses" in sys.modules]))
"""


def fresh_run(script, *args):
    """The JSON that `script` prints last, run in a fresh interpreter with
    these command-line arguments."""
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "argv, loads",
    [
        (["construct", "--z", "2"], {"graphs": False, "optsearch": False}),
        (["eval", "--sets", "{sets}", "--worst-case"], {"graphs": False, "optsearch": False}),
        (["eval", "--sets", "{sets}", "--swaps", "{swaps}"], {"graphs": False, "optsearch": False}),
        (["search", "--t", "2"], {"graphs": False, "optsearch": True}),
        (["verify", "--z", "2", "--sample", "1"], {"graphs": True, "optsearch": True}),
        (["graphs", "--sets", "{sets}", "--minimal-maximizer", "--format", "json"],
         {"graphs": True, "optsearch": False}),
    ],
    ids=["construct", "eval-worst-case", "eval-swaps", "search", "verify-sample", "graphs"],
)
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, loads):
    paths = {
        "sets": write(tmp_path / "s.json", OPT2_DOC),
        "swaps": write(tmp_path / "w.json", {"swaps": [[1, 2], [5, 6]]}),
    }
    args = [arg.format(**paths) for arg in argv] + ["--out", str(tmp_path / "out")]
    code, modules, preloaded, dataclasses = fresh_run(FRESH_RUN, *args)
    assert code == EXIT_OK
    assert {name: f"swapdisc.{name}" in modules for name in loads} == loads
    # no module of the package imports dataclasses (see README, Benchmark)
    assert preloaded or not dataclasses


# imports every module of the package in a fresh interpreter, then prints
# whether dataclasses was loaded before it and after it
FRESH_IMPORT = """\
import json, sys
preloaded = "dataclasses" in sys.modules
import swapdisc.cli, swapdisc.graphs, swapdisc.optsearch
print(json.dumps([preloaded, "dataclasses" in sys.modules]))
"""


def test_no_module_of_the_package_imports_dataclasses():
    preloaded, loaded = fresh_run(FRESH_IMPORT)
    if preloaded:
        pytest.skip("this interpreter loads dataclasses at start-up")
    assert not loaded
