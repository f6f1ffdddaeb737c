"""Recursive construction, bounds, and the recursion inequality."""

import ast
import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

from swapdisc import adversary, cli, construct
from swapdisc.adversary import worst_case
from swapdisc.cli import EXIT_INVALID, EXIT_OK, EXIT_SIZE, main
from swapdisc.construct import (
    base_case,
    construct_for_z,
    lower_bound,
    lower_bound_str,
    recursive_step,
    t_for_z,
    upper_bound,
    z_for_t,
)
from swapdisc.core import (
    CompanionPair,
    InvalidInput,
    SizeRefused,
    validate_defining_set,
)

EQ5_PAIRS = (
    ({1, 16}, {8, 9}),
    ({2, 7}, {4, 5}),
    ({10, 15}, {12, 13}),
    ({3, 14}, {6, 11}),
)


def test_base_case_exact_sets():
    ds = base_case()
    assert ds.t == 4
    for pair, (odd, even) in zip(ds.pairs, EQ5_PAIRS):
        assert pair.odd == frozenset(odd)
        assert pair.even == frozenset(even)
    assert validate_defining_set(ds).ok


def test_base_case_worst_case_6():
    assert worst_case(base_case()).worst_case == 6


def test_family_parameters():
    assert [t_for_z(z) for z in (2, 3, 4, 5)] == [4, 9, 19, 39]
    assert z_for_t(19) == 4
    assert z_for_t(10) is None
    with pytest.raises(InvalidInput):
        t_for_z(1)


def test_recursive_step_t9_layout():
    ds = recursive_step(base_case(), 2)
    assert ds.t == 9
    closing = ds.pairs[-1]
    assert closing.odd == frozenset({1, 36})
    assert closing.even == frozenset({18, 19})
    # the two copies occupy disjoint symmetric intervals
    copy1 = set().union(*(p.elements for p in ds.pairs[:4]))
    copy2 = set().union(*(p.elements for p in ds.pairs[4:8]))
    assert copy1 == set(range(2, 18))
    assert copy2 == set(range(20, 36))
    assert validate_defining_set(ds).ok


def test_recursive_step_rejects_wrong_level():
    ds9 = recursive_step(base_case(), 2)
    with pytest.raises(InvalidInput):
        recursive_step(ds9, 2)


@pytest.mark.parametrize("z,t,top", [(2, 4, 16), (3, 9, 36), (4, 19, 76), (5, 39, 156)])
def test_construct_levels_valid(z, t, top):
    ds = construct_for_z(z)
    assert ds.t == t
    assert ds.n_ranks == top
    assert validate_defining_set(ds).ok


def test_construct_z2_is_base_case():
    assert construct_for_z(2) == base_case()


def test_construct_rejects_small_z_and_huge_z(monkeypatch):
    with pytest.raises(InvalidInput):
        construct_for_z(1)
    with pytest.raises(SizeRefused):
        construct_for_z(60)
    # a level just above the cap is refused too, not only one past its bit length
    monkeypatch.setattr(construct, "DEFAULT_MAX_RANKS", 100)
    construct_for_z(4)  # 4t = 76
    with pytest.raises(SizeRefused):
        construct_for_z(5)  # 4t = 156


def test_shifted_copies_reproduce_previous_level():
    for z in (2, 3, 4):
        prev = construct_for_z(z)
        nxt = construct_for_z(z + 1)
        t2 = prev.t
        shift2 = 5 * 2**z - 1
        assert nxt.pairs[:t2] == tuple(p.translate(1) for p in prev.pairs)
        assert nxt.pairs[t2 : 2 * t2] == tuple(p.translate(shift2) for p in prev.pairs)


def test_closing_pair_sums():
    # level z closes with both sums equal to 5*2^z - 3 (incl. the base case)
    for z in (2, 3, 4, 5, 6):
        ds = construct_for_z(z)
        last = ds.pairs[-1]
        assert last.sum_odd == last.sum_even == 5 * 2**z - 3


def test_lower_bound_values():
    assert lower_bound(1) == 1
    assert lower_bound(2) == 2
    assert lower_bound(9) == 13


def test_lower_bound_gives_the_exact_bound_verdict_on_integers():
    # every integer a check compares with the bound: a worst case or 2|E|
    for t in range(1, 41):
        for x in range(4 * t + 2):
            assert (x >= lower_bound(t)) == (2 * x >= 3 * t - 2), (t, x)


def test_lower_bound_str_writes_the_exact_bound_in_lowest_terms():
    for t in range(1, 41):
        exact = Fraction(3 * t - 2, 2)
        assert lower_bound_str(t) == f"{exact.numerator}/{exact.denominator}"


def test_upper_bound_values():
    assert upper_bound(2) == 6
    assert upper_bound(3) == 14
    assert upper_bound(4) == 30
    assert upper_bound(z_for_t(19)) == 30
    assert z_for_t(10) is None


def verify_lemma1(z, capsys):
    """(exit code, lemma1 entry or None, stderr) of `verify --z z --checks lemma1`."""
    code = main(["verify", "--z", str(z), "--checks", "lemma1"])
    out, err = capsys.readouterr()
    return code, json.loads(out)["checks"]["lemma1"] if out else None, err


@pytest.mark.parametrize("z", [3, 4])
def test_lemma1_beyond_the_scan_envelope(z, capsys):
    code, entry, _ = verify_lemma1(z, capsys)
    assert code == EXIT_OK
    details = entry["details"]
    assert details["d_z"] == 2 ** (z + 1) - 2
    assert details["d_z_plus_1"] == 2 ** (z + 2) - 2 == details["bound"]
    assert entry["holds"] is True


def test_worst_case_within_upper_bound_at_base_level():
    assert worst_case(construct_for_z(2)).worst_case <= upper_bound(2)


def test_closing_pair_balanced_generic():
    # the recursive step's closing pair balances for any level
    for z in (2, 3, 4, 5):
        odd = {1, 5 * 2 ** (z + 1) - 4}
        even = {5 * 2**z - 2, 5 * 2**z - 1}
        assert sum(odd) == sum(even) == 5 * 2 ** (z + 1) - 3
        CompanionPair(frozenset(odd), frozenset(even))


def test_lemma1_refuses_an_oversize_next_level_before_any_scan(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise AssertionError("scanned before the size refusal")

    monkeypatch.setattr(adversary, "worst_case", fail)
    start = time.perf_counter()
    # level 18 has 4t = 1,310,716 ranks, level 17 655,356
    assert verify_lemma1(17, capsys) == (
        EXIT_SIZE, None, "error: level 18 is above the cap of 1000000 ranks\n"
    )
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("z", [1, 0, -3])
def test_lemma1_refuses_a_level_below_2_naming_it(z, capsys):
    code, entry, err = verify_lemma1(z, capsys)
    assert (code, entry) == (EXIT_INVALID, None)
    assert err.endswith(f"got {z}\n")


def test_lemma1_builds_and_scans_each_level_once(monkeypatch, capsys):
    # eq8 already scans level 3: lemma1 reads its worst case, and level 4 is
    # one recursive step from the level-3 set, not a second walk from z = 2
    scanned, built = [], []
    real_pick, real_base = adversary._pick_strategy, construct.base_case

    def pick(ds, *args):
        scanned.append(ds.t)
        return real_pick(ds, *args)

    def base():
        built.append(2)
        return real_base()

    monkeypatch.setattr(adversary, "_pick_strategy", pick)
    monkeypatch.setattr(construct, "base_case", base)
    assert main(["verify", "--z", "3", "--checks", "eq8,lemma1"]) == EXIT_OK
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks["lemma1"] == {
        "holds": True, "details": {"d_z": 14, "d_z_plus_1": 30, "bound": 30}
    }
    assert scanned == [9, 19]
    assert built == [2]


@pytest.mark.parametrize("strategy", ["frontier", "exhaustive", "branch_and_bound"])
def test_lemma1_entry_is_the_same_whichever_engine_scanned_level_z(strategy, capsys):
    # beside eq8, lemma1 reads d_z from eq8's scan of level z, whatever its
    # engine; alone, it scans level z itself and the certificate's worst
    # case stays null
    assert main(["verify", "--z", "2", "--checks", "lemma1"]) == EXIT_OK
    alone = json.loads(capsys.readouterr().out)
    assert main(["verify", "--z", "2", "--checks", "eq8,lemma1", "--strategy", strategy]) == EXIT_OK
    beside = json.loads(capsys.readouterr().out)
    assert (alone["worst_case"], alone["adversary"]) == (None, None)
    assert (beside["worst_case"], beside["adversary"]["engine"]) == (6, strategy)
    assert beside["checks"]["lemma1"] == alone["checks"]["lemma1"] == {
        "holds": True, "details": {"d_z": 6, "d_z_plus_1": 14, "bound": 14}
    }


def test_construct_imports_nothing_of_the_package_but_core():
    # the construction and its bounds do not depend on the engines
    tree = ast.parse(Path(construct.__file__).read_text(encoding="utf-8"))
    modules = {
        (node.level, node.module) for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
    }
    assert {module for level, module in modules if level} == {"core"}
    assert not any(module.startswith("swapdisc") for level, module in modules if not level)


def test_only_the_cli_reads_json():
    # outside documents have one reader: no other module parses JSON, or
    # passes the strict object_pairs_hook that such a reader would need
    readers = set()
    for path in Path(cli.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and (
                ast.unparse(node.func) in ("json.load", "json.loads")
                or any(kw.arg == "object_pairs_hook" for kw in node.keywords)
            ):
                readers.add(path.name)
    assert readers == {"cli.py"}
