import os
from random import Random

import pytest

from swapdisc import _fork, cli, optsearch
from swapdisc.adversary import worst_case
from swapdisc.core import defining_set
from swapdisc.optsearch import enumerate_balanced, random_balanced


@pytest.fixture
def opt2():
    """The optimal t=2 defining set (worst case 4)."""
    return defining_set(2, (({1, 8}, {3, 6}), ({2, 7}, {4, 5})))


@pytest.fixture
def sub2():
    """The suboptimal t=2 defining set (worst case 6)."""
    return defining_set(2, (({1, 4}, {2, 3}), ({5, 8}, {6, 7})))


@pytest.fixture
def t1():
    """The unique balanced t=1 defining set."""
    return defining_set(1, (({1, 4}, {2, 3}),))


@pytest.fixture(scope="session")
def population():
    """(ds, adversary result) of the acceptance population: every canonical
    balanced set at t <= 2 plus 1000 seeded random balanced sets at each of
    t = 3 and t = 4, each scanned with branch and bound."""
    instances = []
    for t in (1, 2):
        instances.extend(enumerate_balanced(t))
    rng3, rng4 = Random(20250810), Random(20250811)
    instances.extend(random_balanced(3, rng3) for _ in range(1000))
    instances.extend(random_balanced(4, rng4) for _ in range(1000))
    return [(ds, worst_case(ds, strategy="branch_and_bound")) for ds in instances]


@pytest.fixture
def run_reaped(capsys):
    """run_reaped(argv): (exit code, stdout, stderr) of cli.main(argv), after
    checking that it left no child process behind, reaped or not."""

    def run(argv):
        code = cli.main(argv)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        out = capsys.readouterr()
        return code, out.out, out.err

    return run


@pytest.fixture
def on_cores(monkeypatch):
    """on_cores(n) sets the usable cores that search and verify --sample
    see, with a forked share for every top-level branch or sampled check."""
    monkeypatch.setattr(optsearch, "SEARCH_MIN_SHARE", 1)
    monkeypatch.setattr(cli, "SAMPLE_MIN_SHARE", 1)

    def set_cores(n):
        monkeypatch.setattr(_fork, "usable_cores", lambda: n)

    return set_cores
