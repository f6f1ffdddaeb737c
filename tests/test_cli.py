"""CLI: document schemas, command behaviour, exit codes, determinism."""

import json

import pytest

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
from swapdisc.core import SwapSet
from swapdisc.graphs import import_graphs

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


def test_construct_z4_t19(capsys):
    assert main(["construct", "--z", "4"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    ds = doc_to_defining_set(doc)
    assert ds.t == 19 and ds.n_ranks == 76


def test_construct_z1_exit2(capsys):
    assert main(["construct", "--z", "1"]) == EXIT_INVALID
    assert "z >= 2" in capsys.readouterr().err or True


# --------------------------------------------------------------------- eval

def test_eval_with_swaps(tmp_path, capsys):
    sets = write(tmp_path / "s.json", OPT2_DOC)
    swaps = write(tmp_path / "w.json", {"swaps": [[1, 2], [5, 6]]})
    assert main(["eval", "--sets", sets, "--swaps", swaps]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "4"


def test_eval_empty_swaps_zero(tmp_path, capsys):
    sets = write(tmp_path / "s.json", OPT2_DOC)
    swaps = write(tmp_path / "w.json", {"swaps": []})
    assert main(["eval", "--sets", sets, "--swaps", swaps]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "0"


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
    assert "workers" in capsys.readouterr().err


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


def test_verify_needs_sets_xor_z(capsys):
    assert main(["verify"]) == EXIT_INVALID
    assert main(["verify", "--z", "2", "--sets", "x.json"]) == EXIT_INVALID


def test_verify_unknown_check(capsys):
    assert main(["verify", "--z", "2", "--checks", "nonsense"]) == EXIT_INVALID


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


def test_module_entry_point(tmp_path):
    import subprocess
    import sys

    sets = write(tmp_path / "s.json", OPT2_DOC)
    swaps = write(tmp_path / "w.json", {"swaps": [[1, 2], [5, 6]]})
    proc = subprocess.run(
        [sys.executable, "-m", "swapdisc", "eval", "--sets", sets, "--swaps", swaps],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "4"
