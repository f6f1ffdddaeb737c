"""CLI: document schemas, command behaviour, exit codes, determinism."""

import argparse
import gc
import hashlib
import inspect
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

from swapdisc import _fork, adversary, cli, construct, graphs, optsearch
from swapdisc.adversary import STRATEGIES
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
from swapdisc.graphs import build_pot, build_swp
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
    swaps = SwapSet((1, 5))
    assert swaps_to_doc(swaps) == {"swaps": [[1, 2], [5, 6]]}
    assert doc_to_swaps(swaps_to_doc(swaps)) == swaps


def test_a_swap_document_reads_as_the_scan_maximizer(opt2):
    # a swap set read from JSON, in any entry order, is the value the
    # scan's positions give: equal, hashed alike, printed alike
    res = adversary.worst_case(opt2)
    read = doc_to_swaps({"swaps": [[5, 6], [1, 2]]})
    assert read == res.minimal_maximizer == SwapSet(res.minimal_maximizer.positions)
    assert hash(read) == hash(res.minimal_maximizer)
    assert repr(read) == repr(res.minimal_maximizer) == "SwapSet(positions=(1, 5))"
    assert {res.minimal_maximizer: "scan"}[read] == "scan"


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


# (defining-set document, swap document or None for --worst-case, the error)
BAD_DOCUMENTS = {
    "t-not-int": ({**OPT2_DOC, "t": "2"}, None, "'t' must be an integer"),
    "pairs-not-list": ({**OPT2_DOC, "pairs": {}}, None, "'pairs' must be a list"),
    "pair-fields": (
        {**OPT2_DOC, "pairs": [{"odd": [1, 8]}, OPT2_DOC["pairs"][1]]},
        None,
        "pair 1 must have exactly the fields 'odd' and 'even'",
    ),
    "pair-side": (
        {**OPT2_DOC, "pairs": [{"odd": [1], "even": [3, 6]}, OPT2_DOC["pairs"][1]]},
        None,
        "pair 1 field 'odd' must be a list of two integers",
    ),
    "pair-count": ({**OPT2_DOC, "t": 3}, None, "expected 3 pairs, got 2"),
    "swaps-not-list": (OPT2_DOC, {"swaps": {}}, "'swaps' must be a list"),
    "swap-not-adjacent": (
        OPT2_DOC, {"swaps": [[1, 3]]}, "swap entry [1, 3] is not an adjacent pair [i, i+1]"
    ),
    "swap-bool": (
        OPT2_DOC, {"swaps": [[True, 2]]}, "swap entry [True, 2] must be a list of two integers"
    ),
    "swap-overlap": (
        OPT2_DOC,
        {"swaps": [[2, 3], [1, 2]]},
        "swaps (1, 2) and (2, 3) overlap or are out of order",
    ),
    "swap-below-1": (OPT2_DOC, {"swaps": [[0, 1]]}, "swap position 0 is not an integer >= 1"),
    "swap-outside": (OPT2_DOC, {"swaps": [[1, 2], [8, 9]]}, "swap (8, 9) outside [1, 8]"),
}


@pytest.mark.parametrize("case", list(BAD_DOCUMENTS))
def test_eval_rejects_a_malformed_document(tmp_path, capsys, case):
    sets_doc, swaps_doc, message = BAD_DOCUMENTS[case]
    argv = ["eval", "--sets", write(tmp_path / "s.json", sets_doc)]
    if swaps_doc is None:
        argv.append("--worst-case")
    else:
        argv += ["--swaps", write(tmp_path / "w.json", swaps_doc)]
    assert main(argv) == EXIT_INVALID
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


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


def assert_mode_refused(argv, flags, capsys):
    """The parser refuses argv, which gives both or neither of a command's two
    mode flags: exit 2, nothing on stdout, and a message naming both flags."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert all(flag in captured.err for flag in flags)


def test_eval_needs_exactly_one_mode(tmp_path, capsys):
    sets = write(tmp_path / "s.json", OPT2_DOC)
    swaps = write(tmp_path / "w.json", {"swaps": []})
    for modes in ([], ["--swaps", swaps, "--worst-case"]):
        assert_mode_refused(["eval", "--sets", sets, *modes], ("--swaps", "--worst-case"), capsys)


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


def test_a_count_with_too_many_digits_is_refused_by_its_bit_length(tmp_path, capsys):
    # 340 copies of the base case side by side (4t = 5,440): a maximizer
    # count of 2,229 bits, 671 digits, past the least limit Python allows
    base = [{"odd": sorted(p.odd), "even": sorted(p.even)} for p in construct.base_case().pairs]
    pairs = [{side: [r + 16 * k for r in ranks] for side, ranks in pair.items()}
             for k in range(340) for pair in base]
    sets = write(tmp_path / "s.json", {"t": 4 * 340, "pairs": pairs})
    commands = (["eval", "--sets", sets, "--worst-case"],
                ["verify", "--sets", sets, "--checks", "eq8"])
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        for argv in commands:
            assert main(argv) == EXIT_SIZE
            out = capsys.readouterr()
            assert out.out == ""
            assert out.err == (
                "error: certificate refused: its maximizer count has 2,229 bits, more "
                "than the 640 decimal digits this Python writes out; "
                "PYTHONINTMAXSTRDIGITS=0 lifts the limit\n"
            )
        # with the limit lifted, the exact count is written
        sys.set_int_max_str_digits(0)
        res = adversary.worst_case(doc_to_defining_set(json.loads(Path(sets).read_text())))
        assert res.maximizer_count.bit_length() == 2229
        for argv in commands:
            assert main(argv) == EXIT_OK
            doc = json.loads(capsys.readouterr().out)
            assert doc["adversary"]["maximizer_count"] == res.maximizer_count
    finally:
        sys.set_int_max_str_digits(limit)


def test_eval_branch_and_bound_refused_above_envelope_exit4(tmp_path, capsys):
    big = tmp_path / "big.json"
    main(["construct", "--z", "4", "--out", str(big)])
    capsys.readouterr()
    code = main(["eval", "--sets", str(big), "--worst-case", "--strategy", "branch_and_bound"])
    assert code == EXIT_SIZE
    assert capsys.readouterr().err == (
        "error: branch_and_bound scan refused for 4t = 76 > 40 (F(77) matchings); "
        "use the frontier strategy\n"
    )


@pytest.mark.parametrize("command", [
    ["eval", "--sets", "s.json", "--worst-case"],
    ["verify", "--z", "2"],
    ["graphs", "--sets", "s.json", "--minimal-maximizer", "--format", "json", "--out", "g"],
])
def test_no_command_lifts_the_scan_refusal(capsys, command):
    # every scan strategy is refused above 4t = 40 whatever the flags say
    with pytest.raises(SystemExit) as done:
        main([*command, "--force-exhaustive"])
    assert done.value.code == EXIT_INVALID
    assert "unrecognized arguments: --force-exhaustive" in capsys.readouterr().err


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


def test_search_document_keys_in_order(capsys):
    assert main(["search", "--t", "2"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["t", "d_star", "optima", "candidates_examined", "wall_time",
                         "certified"]


def test_search_t1(capsys):
    assert main(["search", "--t", "1"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["d_star"] == 2 and len(doc["optima"]) == 1


def test_search_invalid_t(capsys):
    assert main(["search", "--t", "0"]) == EXIT_INVALID


def test_search_time_budget_uncertified(capsys):
    # t = 8 is searched only with a budget
    for t in ("4", "8"):
        assert main(["search", "--t", t, "--time-budget", "0"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["certified"] is False


def test_search_time_budget_nan_or_negative_exit2(capsys):
    # NaN compares false with every elapsed time: it used to switch the budget
    # off and still report a certified result
    for bad in ("nan", "-1", "-0.5"):
        assert main(["search", "--t", "1", "--time-budget", bad]) == EXIT_INVALID
        assert "--time-budget" in capsys.readouterr().err
    assert main(["search", "--t", "1", "--time-budget", "0"]) == EXIT_OK


@pytest.mark.parametrize("budget", ["inf", "1e999", "Infinity"])
def test_search_infinite_time_budget_exit2_at_once(capsys, budget):
    # an infinite budget used to get t = 8 past its refusal, into about 48
    # CPU-hours of scans with nothing printed
    started = time.perf_counter()
    assert main(["search", "--t", "8", "--time-budget", budget]) == EXIT_INVALID
    assert time.perf_counter() - started < 1.0
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (
        "error: time_budget (--time-budget) must be a finite number of seconds >= 0, "
        f"got {float(budget)!r}\n"
    )


@pytest.mark.parametrize("t", ["11", "1000000"])
def test_search_above_the_scan_limit_exit4_at_once(capsys, t):
    started = time.perf_counter()
    assert main(["search", "--t", t, "--time-budget", "1"]) == EXIT_SIZE
    assert time.perf_counter() - started < 1.0
    assert f"search refused for t = {t}" in capsys.readouterr().err


@pytest.mark.parametrize("t", ["8", "10"])
def test_search_from_t8_without_a_budget_exit4_at_once(capsys, t):
    started = time.perf_counter()
    assert main(["search", "--t", t]) == EXIT_SIZE
    assert time.perf_counter() - started < 1.0
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (
        f"error: search refused for t = {t} without a time budget (--time-budget): "
        "t = 8 alone has 35,368,663,013 canonical balanced sets, about 48 CPU-hours "
        "of scans\n"
    )


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


def test_every_option_of_every_command_has_help():
    parser = cli._build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert commands.choices
    missing = [
        f"{name} {'/'.join(action.option_strings)}"
        for name, sub in [("swapdisc", parser), *commands.choices.items()]
        for action in sub._actions
        if action.option_strings and not (action.help or "").strip()
    ]
    assert missing == []


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


# SHA-256 of the whole stdout of each run: a change that moves one byte of
# a certificate fails here (tool_version is part of the bytes, so a version
# bump re-pins them)
GOLDEN_CERTIFICATES = {
    "verify --z 2": "7dbb8bee3c63c9f84a87347e2269b52d79154b0b6aca5e6428176100331ff0e5",
    "verify --z 3 --checks balance,eq8,lemma1,lemma2,eq10,prop1,prop2,bounds":
        "e3741b2b6c902177639ffd1bd93a2c95e64f2ca8b7b7119e6e48eeb75154c308",
    "verify --z 2 --sample 300 --seed 4":
        "95672e1a442ec8d52f16b2d9f0bf63d82ae2e3ba389eca105b3c0dcf085f7f23",
}


@pytest.mark.parametrize("command", list(GOLDEN_CERTIFICATES))
def test_verify_certificate_bytes_are_pinned(capsys, command):
    assert main(command.split()) == EXIT_OK
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == GOLDEN_CERTIFICATES[command]


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


@pytest.mark.parametrize("strategy", [None, *STRATEGIES])
def test_verify_sample_uses_the_requested_strategy(monkeypatch, capsys, strategy):
    # --strategy picks the engine of the constructed set only: every sampled
    # set is scanned with branch and bound
    real = adversary.worst_case
    seen = []

    def counting(ds, strategy=None, **kwargs):
        seen.append(strategy)
        return real(ds, strategy=strategy, **kwargs)

    monkeypatch.setattr(adversary, "worst_case", counting)
    # one process, so that every call lands in `seen`
    monkeypatch.setattr(_fork, "usable_cores", lambda: 1)
    argv = ["verify", "--z", "2", "--checks", "eq8", "--sample", "300", "--seed", "1"]
    assert main(argv + (["--strategy", strategy] if strategy else [])) == EXIT_OK
    capsys.readouterr()
    # the construction, then each distinct sample once
    distinct = len(sample_draws(1, 300))
    assert distinct == 275
    assert seen == [strategy] + ["branch_and_bound"] * distinct


def _failing(entry, name=None):
    """entry, or its entry `name`, with the verdict turned to a failure."""
    if name is None:
        return {**entry, "holds": False}
    return {**entry, name: _failing(entry[name])}


# one check of the sampled population made to fail by patching its checker,
# named with the module that the CLI reads it from at call time
SAMPLE_FAULTS = {
    "eq8": (adversary, "minimal_maximizer_property", lambda real: lambda ds, res: False),
    "lemma2": (
        graphs,
        "verify_lemma2",
        lambda real: lambda ds, i_star: _failing(real(ds, i_star), "lemma2"),
    ),
    "eq10": (
        graphs,
        "verify_lemma2",
        lambda real: lambda ds, i_star: _failing(real(ds, i_star), "eq10"),
    ),
    "prop1": (
        graphs,
        "verify_prop1",
        lambda real: lambda ds, i_star, subsets: (
            _failing(real(ds, i_star, subsets))
            if subsets == "singletons" else real(ds, i_star, subsets)
        ),
    ),
    # prop2 is not part of the sampled checks
    "prop2": (
        graphs,
        "verify_prop2",
        lambda real: lambda ds, i_star: _failing(real(ds, i_star)),
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
    real = adversary.minimal_maximizer_property
    checked = []

    def fail_target(ds, res):
        checked.append(set_key(ds))
        return set_key(ds) != target and real(ds, res)

    monkeypatch.setattr(adversary, "minimal_maximizer_property", fail_target)
    monkeypatch.setattr(_fork, "usable_cores", lambda: 1)
    argv = ["verify", "--z", "2", "--checks", "balance", "--sample", "300", "--seed", "1"]
    assert main(argv) == EXIT_CHECK_FAILED
    details = json.loads(capsys.readouterr().out)["checks"]["sampled_population"]["details"]
    assert details == {"sampled": 300, "seed": 1, "failures": times}
    assert Counter(checked) == Counter(set(draws))  # each distinct set checked once


def test_verify_sample_certificate_unchanged_without_the_memo(monkeypatch, capsys):
    real = adversary.worst_case
    calls = []

    def counting(ds, **kwargs):
        calls.append(ds)
        return real(ds, **kwargs)

    monkeypatch.setattr(adversary, "worst_case", counting)
    monkeypatch.setattr(_fork, "usable_cores", lambda: 1)
    argv = ["verify", "--z", "2", "--sample", "300", "--seed", "1"]
    outputs = []
    for cap in (cli.SAMPLE_MEMO_MAX, 0):
        monkeypatch.setattr(cli, "SAMPLE_MEMO_MAX", cap)
        calls.clear()
        assert main(argv) == EXIT_OK
        outputs.append((capsys.readouterr().out, len(calls)))
    assert outputs[0][0] == outputs[1][0]
    # the construction, then every distinct sample (memo) or every set new
    # to its block (cap 0)
    want = [checked_in_blocks(1, 300, cap, cli.SAMPLE_BLOCK) for cap in (cli.SAMPLE_MEMO_MAX, 0)]
    assert [n for _, n in outputs] == [1 + len(checked) for checked in want]


def test_verify_negative_sample_exit2(capsys):
    code = main(["verify", "--z", "2", "--checks", "balance", "--sample", "-3"])
    assert code == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--sample" in captured.err


@pytest.mark.parametrize("strategy", [None, *STRATEGIES])
@pytest.mark.parametrize("z, n", [(4, 76), (6, 316)])
def test_verify_sample_refused_before_drawing(monkeypatch, capsys, z, n, strategy):
    # the sampled sets are scanned with branch and bound whatever --strategy
    # says, so its refusal comes before any draw or scan
    def fail(*args, **kwargs):
        raise AssertionError("called before the size refusal")

    monkeypatch.setattr(optsearch, "random_balanced", fail)
    monkeypatch.setattr(adversary, "worst_case", fail)
    argv = ["verify", "--z", str(z), "--checks", "balance", "--sample", "1"]
    assert main(argv + (["--strategy", strategy] if strategy else [])) == EXIT_SIZE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: branch_and_bound scan refused for 4t = {n} > 40: "
                            "--sample scans every set with branch_and_bound\n")


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

def checked_in_blocks(seed, n, cap, block, t=4):
    """The sets --sample checks, in order: drawn `block` at a time, each set
    without a kept verdict checked once per block, and the verdicts of the
    first `cap` distinct sets kept."""
    rng = Random(seed)
    kept, checked, drawn = set(), [], 0
    while drawn < n:
        size = min(block, n - drawn)
        drawn += size
        drawn_keys = dict.fromkeys(set_key(random_balanced(t, rng)) for _ in range(size))
        new = [key for key in drawn_keys if key not in kept]
        checked += new
        kept.update(new[:max(0, cap - len(kept))])
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
def test_forked_workers_check_the_same_sets(on_cores, monkeypatch, tmp_path, run_reaped,
                                            t, cap, block):
    monkeypatch.setattr(cli, "SAMPLE_MEMO_MAX", cap)
    monkeypatch.setattr(cli, "SAMPLE_BLOCK", block)
    real = adversary.worst_case
    log = tmp_path / "checked.txt"

    def logging(ds, **kwargs):
        # one O_APPEND write per line, so lines of several processes never mix
        fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        try:
            os.write(fd, f"{os.getpid()} {set_key(ds)}\n".encode())
        finally:
            os.close(fd)
        return real(ds, **kwargs)

    monkeypatch.setattr(adversary, "worst_case", logging)
    want = Counter(str(key) for key in checked_in_blocks(1, 300, cap, block, t))
    sets = ["--z", "2"] if t == 4 else ["--sets", write(tmp_path / "s.json", OPT3_DOC)]
    argv = ["verify", *sets, "--checks", "balance", "--sample", "300", "--seed", "1"]
    outputs = []
    for cores in (1, 2, 3):
        on_cores(cores)
        log.write_text("")
        outputs.append(run_reaped(argv))
        lines = [line.split(" ", 1) for line in log.read_text().splitlines()]
        assert Counter(key for _, key in lines) == want
        # the parent checks the first share of each block, and at most
        # `cores` - 1 workers the others
        pids = {int(pid) for pid, _ in lines}
        assert os.getpid() in pids
        assert (len(pids) == 1) == (cores == 1)
        assert len(pids) <= 1 + (cores - 1) * -(-300 // block)
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0][0] == EXIT_OK


@pytest.mark.parametrize("check", list(SAMPLE_FAULTS))
def test_forked_workers_count_every_failing_instance(on_cores, monkeypatch, run_reaped, check):
    module, name, fault = SAMPLE_FAULTS[check]
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    outputs = []
    for cores in (1, 2):
        on_cores(cores)
        argv = ["verify", "--z", "2", "--checks", "balance", "--sample", "40", "--seed", "5"]
        outputs.append(run_reaped(argv))
    assert outputs[0] == outputs[1]
    details = json.loads(outputs[0][1])["checks"]["sampled_population"]["details"]
    assert details["failures"] == (0 if check == "prop2" else 40)


@pytest.mark.parametrize("targets", [(20, 30), (5, 30), (30, 20)])
def test_forked_workers_raise_the_earliest_checks_error(on_cores, monkeypatch, run_reaped,
                                                        targets):
    # 38 distinct sets in one block, on 3 cores in 3 shares: 0-11 here, 12-24
    # and 25-37 in workers
    jobs = checked_in_blocks(5, 40, cli.SAMPLE_MEMO_MAX, cli.SAMPLE_BLOCK)
    assert len(jobs) == 38
    refused = [jobs[j] for j in targets]
    real = adversary.worst_case

    def refusing(ds, **kwargs):
        if set_key(ds) in refused:
            raise SizeRefused(f"refused {set_key(ds)}")
        return real(ds, **kwargs)

    monkeypatch.setattr(adversary, "worst_case", refusing)
    outputs = []
    for cores in (1, 3):
        on_cores(cores)
        argv = ["verify", "--z", "2", "--checks", "balance", "--sample", "40", "--seed", "5"]
        outputs.append(run_reaped(argv))
    assert outputs[0] == outputs[1] == (EXIT_SIZE, "", f"error: refused {jobs[min(targets)]}\n")


def test_dead_worker_is_an_error_without_certificate(on_cores, monkeypatch, tmp_path, run_reaped):
    on_cores(2)
    parent = os.getpid()
    real = adversary.worst_case

    def dying(ds, **kwargs):
        if os.getpid() != parent:
            os._exit(3)
        return real(ds, **kwargs)

    monkeypatch.setattr(adversary, "worst_case", dying)
    out = tmp_path / "cert.json"
    argv = ["verify", "--z", "2", "--sample", "300", "--seed", "1", "--out", str(out)]
    code, stdout, stderr = run_reaped(argv)
    assert code == EXIT_IO and stdout == "" and not out.exists()
    assert stderr.count("\n") == 1 and stderr.startswith("error: a --sample worker died: ")


@pytest.mark.parametrize("forks_before_failing", [0, 1])
def test_failed_fork_checks_every_set_here(on_cores, monkeypatch, run_reaped,
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
        outputs.append(run_reaped(argv))
    assert len(forks) == forks_before_failing + 1
    assert outputs[0] == outputs[1] and outputs[0][0] == EXIT_OK


def test_verify_needs_sets_xor_z(capsys):
    for modes in ([], ["--z", "2", "--sets", "x.json"]):
        assert_mode_refused(["verify", *modes], ("--sets", "--z"), capsys)


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


def test_verify_lemma1_refuses_an_oversize_next_level_before_building_level_z(
    monkeypatch, capsys
):
    real_step = construct.recursive_step

    def step(prev):
        assert prev.t != construct.t_for_z(16), "level 17 built before level 18 was refused"
        return real_step(prev)

    monkeypatch.setattr(construct, "recursive_step", step)
    start = time.perf_counter()
    assert main(["verify", "--z", "17", "--checks", "lemma1"]) == EXIT_SIZE
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: level 18 is above the cap of 1000000 ranks\n"


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
    # the document holds both graphs, every record with exactly its fields
    doc = json.loads((tmp_path / "g.graphs.json").read_text())
    ds, swaps = doc_to_defining_set(OPT2_DOC), SwapSet((1, 5))
    assert doc == {
        "t": 2,
        "swp": {"edges": [e._asdict() | {"swap": list(e.swap)} for e in build_swp(ds, swaps).edges]},
        "pot": {"arcs": [a._asdict() | {"swap": list(a.swap)} for a in build_pot(ds, swaps).arcs]},
    }
    assert [(e["u"], e["v"]) for e in doc["swp"]["edges"]] == [(1, 2), (1, 2)]


def test_graphs_needs_swaps_xor_flag(tmp_path, capsys):
    sets = write(tmp_path / "s.json", OPT2_DOC)
    swaps = write(tmp_path / "w.json", {"swaps": []})
    out = str(tmp_path / "g")
    for modes in ([], ["--swaps", swaps, "--minimal-maximizer"]):
        assert_mode_refused(["graphs", "--sets", sets, *modes, "--format", "dot", "--out", out],
                            ("--swaps", "--minimal-maximizer"), capsys)
    assert sorted(path.name for path in tmp_path.iterdir()) == ["s.json", "w.json"]


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


# runs swapdisc.__main__.run on these command-line arguments in a fresh
# interpreter, then prints its exit code (that of a SystemExit too) and
# whether it moved objects into the collector's permanent generation
FREEZE_RUN = """\
import gc, json, sys
from swapdisc.__main__ import run
before = gc.get_freeze_count()
try:
    code = run()
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, gc.get_freeze_count() > before]))
"""


@pytest.mark.parametrize(
    "argv, code, stdout",
    [
        (["--version"], EXIT_OK, "swapdisc 0.1.0\n"),
        (["construct"], EXIT_INVALID, ""),
        (["verify", "--z", "4", "--checks", "balance", "--sample", "1"], EXIT_SIZE, ""),
    ],
    ids=["version", "argparse-error", "size-refusal"],
)
def test_process_entry_passes_every_exit_code_through_its_freeze(argv, code, stdout):
    # `python -m swapdisc` and the console script both run __main__.run,
    # which freezes the collector in a finally: on a return, on argparse's
    # SystemExit for --version and for an argument error alike
    proc = subprocess.run(
        [sys.executable, "-m", "swapdisc", *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stdout) == (code, stdout)
    assert fresh_run(FREEZE_RUN, *argv) == [code, True]


def test_console_script_is_the_process_entry():
    # matched as text: Python 3.10 has no tomllib
    pyproject = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
    assert 'swapdisc = "swapdisc.__main__:run"' in pyproject


@pytest.mark.parametrize("argv", [["construct", "--z", "2"], ["construct", "--z", "1"]])
def test_main_in_process_leaves_the_collector_alone(capsys, argv):
    before = gc.get_freeze_count()
    main(argv)
    capsys.readouterr()
    assert gc.get_freeze_count() == before


# runs one command in a fresh interpreter, then prints its exit code (that
# of argparse's SystemExit for --version), the swapdisc modules it loaded,
# and for dataclasses, fractions and random whether each was loaded before
# swapdisc was imported and whether it was loaded after the command
FRESH_RUN = """\
import json, sys
unwanted = ("dataclasses", "fractions", "random")
preloaded = [name in sys.modules for name in unwanted]
from swapdisc.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("swapdisc.")),
                  preloaded, [name in sys.modules for name in unwanted]]))
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


def _loads(graphs=False, optsearch=False, engine=False):
    """The modules a command loads: the engine is adversary with _kernels."""
    return {"graphs": graphs, "optsearch": optsearch, "adversary": engine, "_kernels": engine}


@pytest.mark.parametrize(
    "argv, loads, samples",
    [
        (["construct", "--z", "2", "--out", "{out}"], _loads(), False),
        (["eval", "--sets", "{sets}", "--worst-case", "--out", "{out}"], _loads(engine=True),
         False),
        (["eval", "--sets", "{sets}", "--swaps", "{swaps}", "--out", "{out}"], _loads(), False),
        (["search", "--t", "2", "--out", "{out}"], _loads(optsearch=True, engine=True), False),
        (["verify", "--z", "2", "--sample", "1", "--out", "{out}"],
         _loads(graphs=True, optsearch=True, engine=True), True),
        (["graphs", "--sets", "{sets}", "--minimal-maximizer", "--format", "json",
          "--out", "{out}"], _loads(graphs=True, engine=True), False),
        (["--version"], _loads(), False),
    ],
    ids=["construct", "eval-worst-case", "eval-swaps", "search", "verify-sample", "graphs",
         "version"],
)
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, loads, samples):
    paths = {
        "sets": write(tmp_path / "s.json", OPT2_DOC),
        "swaps": write(tmp_path / "w.json", {"swaps": [[1, 2], [5, 6]]}),
        "out": str(tmp_path / "out"),
    }
    args = [arg.format(**paths) for arg in argv]
    code, modules, preloaded, loaded = fresh_run(FRESH_RUN, *args)
    assert code == EXIT_OK
    assert {name: f"swapdisc.{name}" in modules for name in loads} == loads
    # no module of the package imports dataclasses or fractions (see README,
    # Benchmark): construct.lower_bound is an integer
    assert preloaded[0] or not loaded[0]
    assert preloaded[1] or not loaded[1]
    # nor random, but where sets are drawn: only in verify --sample
    assert preloaded[2] or samples or not loaded[2]


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


# the functions and properties of the package that no command runs, each
# with the reason it stays
NO_COMMAND_RUNS = {
    "core.Frozen.__init_subclass__": "runs as each value type is defined, at import",
    "core.Frozen.__eq__": "equality of values, for library callers and the tests",
    "core.Frozen.__hash__": "hashing of values, for library callers and the tests",
    "core.Frozen.__repr__": "printing of values, for library callers and the tests",
    "core.Frozen.__setattr__": "refuses assigning a field of a value",
    "core.Frozen.__delattr__": "refuses deleting a field of a value",
    "core.apply_swaps": "perfbench/tracer.py traces it by name",
    "_kernels.backend_name": "perfbench/run.py names the kernel with it",
    "__init__.__getattr__": "resolves swapdisc.backend_name and the engine's names",
    "adversary.Witnesses.values": "the tests' view of a witness table's packed totals",
    "__main__.run": "the process entry: it freezes the collector, so "
                    "test_process_entry_passes_every_exit_code_through_its_freeze "
                    "runs it in a fresh interpreter",
}


def package_functions():
    """{(real path, first line): "module.qualified.name"} for every function,
    method and property getter defined in the package, nested ones too;
    lambdas, comprehensions and class bodies are left out."""
    found = {}

    def walk(code, name):
        for const in code.co_consts:
            if inspect.iscode(const) and not const.co_name.startswith("<"):
                inner = f"{name}.{const.co_name}"
                if const.co_flags & inspect.CO_NEWLOCALS:  # no class body
                    found[(os.path.realpath(const.co_filename), const.co_firstlineno)] = inner
                walk(const, inner)

    for path in Path(cli.__file__).parent.glob("*.py"):
        walk(compile(path.read_text(encoding="utf-8"), str(path), "exec"), path.stem)
    return found


def test_every_function_of_the_package_is_run_by_a_command(monkeypatch, tmp_path, capsys):
    # every command once, in this process, under a profiler that records the
    # code each call runs; two usable cores, so that search --t 5 forks
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    paths = {
        "z2": str(tmp_path / "z2.json"),
        "bad": write(tmp_path / "bad.json", {"t": 1, "pairs": [{"odd": [1, 3], "even": [2, 4]}]}),
        "swaps": write(tmp_path / "w.json", {"swaps": [[1, 2], [5, 6]]}),
        "out": str(tmp_path / "out"),
    }
    runs = [
        ("construct --z 3 --out {out}", EXIT_OK),
        ("construct --z 2 --out {z2}", EXIT_OK),
        ("eval --sets {z2} --swaps {swaps} --out {out}", EXIT_OK),
        *((f"eval --sets {{z2}} --worst-case --strategy {s} --out {{out}}", EXIT_OK)
          for s in STRATEGIES),
        ("eval --sets {bad} --worst-case", EXIT_INVALID),
        ("search --t 5 --out {out}", EXIT_OK),
        # a search without forked shares proves its ties in this process
        ("search --t 3 --out {out}", EXIT_OK),
        (f"verify --z 2 --sample 20 --checks {','.join(cli.ALL_CHECKS)} --out {{out}}", EXIT_OK),
        ("verify --sets {bad} --out {out}", EXIT_CHECK_FAILED),
        ("graphs --sets {z2} --minimal-maximizer --format dot --out {out}", EXIT_OK),
        ("graphs --sets {z2} --minimal-maximizer --format json --membership primed "
         "--out {out}", EXIT_OK),
    ]
    ran = set()

    def record(frame, event, arg):
        if event == "call":
            ran.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    codes = []
    sys.setprofile(record)
    try:
        for argv, _ in runs:
            codes.append(main(argv.format(**paths).split()))
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [code for _, code in runs]
    ran = {(os.path.realpath(path), line) for path, line in ran}
    defined = package_functions()
    assert set(NO_COMMAND_RUNS) <= set(defined.values())
    unreached = {name for key, name in defined.items() if key not in ran}
    assert unreached - set(NO_COMMAND_RUNS) == set()
