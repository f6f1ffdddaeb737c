"""The fork helper behind `search` and `verify --sample`: its contract, at
the helper and through the commands (tests/test_cli.py has the rest of
the `verify --sample` cases).

Every test checks afterwards that no child process is left, reaped or not.
"""

import functools
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from naive_oracles import naive_balanced_sets
from swapdisc import _fork, adversary, optsearch
from swapdisc.cli import EXIT_IO, EXIT_OK, EXIT_SIZE
from swapdisc.core import SizeRefused
from swapdisc.optsearch import find_optimal


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def fork_map(fn, shares):
    try:
        return _fork.fork_map(fn, shares, "test worker")
    finally:
        assert_no_child()


def failing_fork(monkeypatch, forks_before_failing):
    """Patch os.fork to fail after that many real forks; returns the list
    that counts the calls."""
    real_fork = os.fork
    forks = []

    def fork():
        forks.append(1)
        if len(forks) > forks_before_failing:
            raise BlockingIOError("no process to spare")
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


# ------------------------------------------------------------------- helper

def test_share_0_runs_here_and_each_other_share_in_a_child():
    out = fork_map(lambda share: (os.getpid(), share * share), [0, 1, 2, 3])
    assert [value for _, value in out] == [0, 1, 4, 9]
    pids = [pid for pid, _ in out]
    assert pids[0] == os.getpid() and len(set(pids)) == 4


def test_one_share_runs_here():
    assert fork_map(lambda share: os.getpid(), ["only"]) == [os.getpid()]


@pytest.mark.parametrize("raising, earliest", [((1, 2), 1), ((2,), 2), ((0, 2), 0)])
def test_the_earliest_shares_error_is_raised(raising, earliest):
    def fn(share):
        if share in raising:
            raise SizeRefused(f"share {share}")
        return share

    with pytest.raises(SizeRefused, match=f"^share {earliest}$"):
        fork_map(fn, [0, 1, 2])


def test_an_error_here_stops_the_children():
    def fn(share):
        if share == 0:
            raise SizeRefused("share 0")
        time.sleep(60)  # a child: stopped, not waited for

    started = time.perf_counter()
    with pytest.raises(SizeRefused):
        fork_map(fn, [0, 1, 2])
    assert time.perf_counter() - started < 30


@pytest.mark.parametrize("death, how", [
    (lambda: os._exit(3), "exited with status 3"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "was killed by signal 9"),
])
def test_a_child_that_dies_is_a_child_process_error(death, how):
    parent = os.getpid()

    def fn(share):
        if os.getpid() != parent:
            death()
        return share

    with pytest.raises(ChildProcessError, match=rf"^a test worker died: process \d+ {how}$"):
        fork_map(fn, [0, 1])


class Unpicklable(Exception):
    def __init__(self):
        super().__init__("holds a lambda")
        self.fn = lambda: None


def test_an_error_pickle_cannot_carry_is_named():
    def fn(share):
        if share:
            raise Unpicklable()
        return share

    with pytest.raises(RuntimeError, match="^Unpicklable: holds a lambda$"):
        fork_map(fn, [0, 1])


@pytest.mark.parametrize("forks_before_failing", [0, 1])
def test_a_failed_fork_runs_every_share_here(monkeypatch, forks_before_failing):
    # the child started before the failed fork is stopped
    forks = failing_fork(monkeypatch, forks_before_failing)
    out = fork_map(lambda share: (os.getpid(), share), [0, 1, 2])
    assert out == [(os.getpid(), 0), (os.getpid(), 1), (os.getpid(), 2)]
    assert len(forks) == forks_before_failing + 1


def test_a_process_with_threads_runs_every_share_here(monkeypatch):
    failing_fork(monkeypatch, 0)
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        assert fork_map(lambda share: os.getpid(), [0, 1, 2]) == [os.getpid()] * 3
    finally:
        done.set()
        thread.join()


def test_a_process_without_fork_runs_every_share_here(monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert fork_map(lambda share: os.getpid(), [0, 1, 2]) == [os.getpid()] * 3


@pytest.mark.parametrize("count,cores", [(3, 3), (None, 1)])
def test_usable_cores_without_affinity_is_the_cpu_count(monkeypatch, count, cores):
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    assert _fork.usable_cores() == cores


@pytest.mark.parametrize("make", [list, lambda r: r], ids=["list", "range"])
@pytest.mark.parametrize("length", [0, 1, 15, 16, 31, 32, 47, 48, 100])
@pytest.mark.parametrize("cores", [1, 2, 3])
def test_split_cuts_contiguous_shares_one_per_core(monkeypatch, make, length, cores):
    monkeypatch.setattr(_fork, "usable_cores", lambda: cores)
    items = make(range(10, 10 + length))
    shares = _fork.split(items, 16)
    assert len(shares) == max(1, min(cores, length // 16))
    assert all(type(share) is type(items) for share in shares)
    # in order and covering the input exactly (an empty input is one empty
    # share): their concatenation is it
    assert [x for share in shares for x in share] == list(items)
    if len(shares) > 1:
        assert min(len(share) for share in shares) >= 16


# ------------------------------------------------------- through the search

def counting_fork(monkeypatch):
    real_fork = os.fork
    forks = []

    def fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def without_wall_time(text):
    doc = json.loads(text)
    assert doc.pop("wall_time") > 0
    return doc


def without_wall_time_line(text):
    lines = text.splitlines(keepends=True)
    assert sum('"wall_time": ' in line for line in lines) == 1
    return "".join(line for line in lines if '"wall_time": ' not in line)


@pytest.mark.parametrize("t", [3, 4, 5])
def test_search_is_the_same_on_every_core_count(on_cores, monkeypatch, tmp_path, run_reaped, t):
    forks = counting_fork(monkeypatch)
    results, outputs = [], []
    for cores in (1, 2, 3):
        on_cores(cores)
        forks.clear()
        results.append(find_optimal(t)._replace(wall_time=0))
        assert_no_child()
        assert len(forks) == cores - 1
        out = tmp_path / "search.json"
        assert run_reaped(["search", "--t", str(t), "--out", str(out)])[0] == EXIT_OK
        outputs.append(without_wall_time_line(out.read_text()))
    assert results[0] == results[1] == results[2]
    assert outputs[0] == outputs[1] == outputs[2]


def test_search_runs_in_one_process_up_to_t4(monkeypatch):
    # t = 4 has 49 top-level branches: fewer than SEARCH_MIN_SHARE for each of
    # two shares, so the budget tests at t = 3 and 4 count clock readings in
    # one process; t = 5 (81 branches) is split
    monkeypatch.setattr(_fork, "usable_cores", lambda: 64)
    forks = failing_fork(monkeypatch, 0)
    for t in (1, 2, 3, 4):
        find_optimal(t)
    assert forks == []
    assert find_optimal(5).certified
    assert forks == [1]  # the failed fork: every share ran here


def recording_fork_map(monkeypatch):
    """Patch _fork.fork_map to record the shares of each call; returns the
    list of calls."""
    real = _fork.fork_map
    calls = []

    def recording(fn, shares, what):
        calls.append(list(shares))
        return real(fn, shares, what)

    monkeypatch.setattr(_fork, "fork_map", recording)
    return calls


@functools.cache
def balanced_count(t):
    """How many canonical balanced sets of t pairs the oracle lists: 74,323
    at t = 5, which it takes seconds to list, so once per t."""
    return len(naive_balanced_sets(t))


@pytest.mark.parametrize("cores", [1, 2, 3])
@pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
def test_search_walks_its_branches_in_one_fork_map_call(monkeypatch, t, cores):
    # one path on every core count: the warm-up branch here, then every
    # other branch through fork_map, in one share when the cores or the
    # branches allow only one
    monkeypatch.setattr(_fork, "usable_cores", lambda: cores)
    calls = recording_fork_map(monkeypatch)
    res = find_optimal(t)
    assert_no_child()
    branches = len(optsearch._table(4 * t).quadruples[1])
    assert len(calls) == 1
    (shares,) = calls
    assert len(shares) == max(1, min(cores, branches // optsearch.SEARCH_MIN_SHARE))
    assert [b for share in shares for b in share] == list(
        range(optsearch.SEARCH_WARM_UP, branches))
    assert res.certified and res.candidates_examined == balanced_count(t)


@pytest.mark.parametrize("t", [3, 4, 5])
def test_search_with_no_budget_ends_after_the_warm_up(monkeypatch, t):
    monkeypatch.setattr(_fork, "usable_cores", lambda: 3)
    calls = recording_fork_map(monkeypatch)
    res = find_optimal(t, time_budget=0)
    assert calls == []
    assert not res.certified and res.candidates_examined == 1
    assert res.optima == (next(optsearch.enumerate_balanced(t)),)


def refuse_candidates(monkeypatch, branches, t):
    """Patch the search's scan to refuse the first candidate of each of these
    top-level branches, naming it; returns the name of the earliest one."""
    first = [next(optsearch.enumerate_balanced(t, [b])).pairs for b in branches]
    real = adversary.worst_case_bounded

    def refusing(ds, *args, **kwargs):
        if ds.pairs in first:
            raise SizeRefused(f"refused {ds.pairs}")
        return real(ds, *args, **kwargs)

    monkeypatch.setattr(adversary, "worst_case_bounded", refusing)
    # the branches are walked in ascending order
    return str(first[branches.index(min(branches))])


@pytest.mark.parametrize("branches", [(20, 40), (40, 20), (5, 40)])
def test_search_raises_the_earliest_shares_error(on_cores, monkeypatch, run_reaped, branches):
    # on 3 cores the 49 branches of t = 4 are cut at 16 and 32
    earliest = refuse_candidates(monkeypatch, branches, 4)
    outputs = []
    for cores in (1, 3):
        on_cores(cores)
        outputs.append(run_reaped(["search", "--t", "4"]))
    assert outputs[0] == outputs[1] == (EXIT_SIZE, "", f"error: refused {earliest}\n")


def test_search_with_a_dead_worker_writes_nothing(on_cores, monkeypatch, tmp_path, run_reaped):
    on_cores(2)
    parent = os.getpid()
    real = adversary.worst_case_bounded

    def dying(ds, *args, **kwargs):
        if os.getpid() != parent:
            os._exit(3)
        return real(ds, *args, **kwargs)

    monkeypatch.setattr(adversary, "worst_case_bounded", dying)
    out = tmp_path / "search.json"
    code, stdout, stderr = run_reaped(["search", "--t", "4", "--out", str(out)])
    assert code == EXIT_IO and stdout == "" and not out.exists()
    assert stderr.count("\n") == 1 and stderr.startswith("error: a search worker died: ")


@pytest.mark.parametrize("forks_before_failing", [0, 1])
def test_search_after_a_failed_fork_finishes_here(on_cores, monkeypatch, run_reaped,
                                                  forks_before_failing):
    on_cores(1)
    want = without_wall_time(run_reaped(["search", "--t", "4"])[1])
    forks = failing_fork(monkeypatch, forks_before_failing)
    on_cores(3)
    code, out, _ = run_reaped(["search", "--t", "4"])
    assert (code, without_wall_time(out)) == (EXIT_OK, want)
    assert len(forks) == forks_before_failing + 1


@pytest.mark.parametrize("argv", [
    ["search", "--t", "4"],
    ["verify", "--z", "2", "--sample", "300", "--seed", "1"],
], ids=["search", "verify-sample"])
@pytest.mark.parametrize("how", ["thread", "no-fork"])
def test_a_command_runs_in_one_process_with_threads_or_without_fork(
        on_cores, monkeypatch, run_reaped, argv, how):
    on_cores(1)
    want = run_reaped(argv)
    on_cores(3)
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    if how == "thread":
        forks = failing_fork(monkeypatch, 0)
        thread.start()
    else:
        forks = []
        monkeypatch.delattr(os, "fork")
    try:
        got = run_reaped(argv)
    finally:
        done.set()
        if thread.is_alive():
            thread.join()
    assert forks == []
    assert want[0] == got[0] == EXIT_OK
    if argv[0] == "search":
        assert without_wall_time(got[1]) == without_wall_time(want[1])
    else:
        assert got == want


class SteppingClock:
    """Each perf_counter call advances one second, in each process."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        self.now += 1
        return self.now


def test_search_budget_blown_in_the_shares(on_cores, monkeypatch):
    # each forked share reads its own copy of the clock: the budget runs out
    # in every share, and only sets proven at D* are listed
    on_cores(2)
    monkeypatch.setattr(optsearch, "time", SteppingClock())
    res = find_optimal(4, time_budget=700)
    assert_no_child()
    assert not res.certified
    assert 700 < res.candidates_examined < 1990
    assert res.optima and all(
        adversary.worst_case(ds).worst_case == res.d_star for ds in res.optima
    )


# the package source, for the test that starts a fresh interpreter
SRC = Path(__file__).resolve().parent.parent / "src"

# runs commands that fork, then prints whether a process pool module was loaded
FRESH_RUN = """\
import json, sys
from swapdisc import _fork
from swapdisc.cli import main
_fork.usable_cores = lambda: 2
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, sorted(m for m in ("multiprocessing", "concurrent.futures")
                                if m in sys.modules)]))
"""


def test_no_command_imports_a_process_pool(tmp_path):
    out = str(tmp_path / "out.json")
    runs = [["verify", "--z", "2", "--sample", "300", "--seed", "1", "--out", out],
            ["search", "--t", "5", "--out", out]]
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_RUN, json.dumps(runs)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(proc.stdout.splitlines()[-1]) == [[EXIT_OK, EXIT_OK], []]
