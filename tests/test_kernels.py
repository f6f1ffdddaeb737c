"""Behavioural parity between the compiled and pure scan kernels.

Every mode (plain scan, pruning, abandonment, swap prefixes) must return
bit-identical tuples from both implementations.
"""

import importlib.util
from pathlib import Path
from random import Random

import pytest

from swapdisc import _kernels
from swapdisc._kernels import pure
from swapdisc.adversary import _arrays, count_swap_sets
from swapdisc.construct import base_case
from swapdisc.optsearch import random_balanced

try:
    from swapdisc._kernels import _fast
except ImportError:
    _fast = None

needs_compiled = pytest.mark.skipif(_fast is None, reason="compiled kernel not built")


def test_backend_selected():
    assert _kernels.backend_name() in ("pure", "compiled")


@needs_compiled
@pytest.mark.parametrize("t,seed", [(1, 0), (2, 1), (2, 2), (3, 3), (3, 4), (4, 5)])
def test_full_scan_parity(t, seed):
    ds = random_balanced(t, Random(seed))
    n, pair_of, side_of, diff = _arrays(ds)
    for prune in (False, True):
        a = pure.scan_chunk(n, pair_of, side_of, diff, (), 1, prune, -1, -1)
        b = _fast.scan_chunk(n, pair_of, side_of, diff, (), 1, prune, -1, -1)
        assert a == b


@needs_compiled
@pytest.mark.parametrize("seed", [10, 11, 12])
def test_chunked_scan_parity(seed):
    ds = random_balanced(3, Random(seed))
    n, pair_of, side_of, diff = _arrays(ds)
    # the subtrees under every first swap position and every first two
    prefixes = [((j1,), j1 + 2) for j1 in range(1, n)]
    prefixes += [((j1, j2), j2 + 2) for j1 in range(1, n) for j2 in range(j1 + 2, n)]
    for prefix, start in prefixes:
        a = pure.scan_chunk(n, pair_of, side_of, diff, prefix, start, True, 2, -1)
        b = _fast.scan_chunk(n, pair_of, side_of, diff, prefix, start, True, 2, -1)
        assert a == b


@needs_compiled
@pytest.mark.parametrize("cutoff", [0, 2, 4, 6, 100])
def test_abandon_parity(cutoff):
    ds = random_balanced(3, Random(42))
    n, pair_of, side_of, diff = _arrays(ds)
    a = pure.scan_chunk(n, pair_of, side_of, diff, (), 1, True, -1, cutoff)
    b = _fast.scan_chunk(n, pair_of, side_of, diff, (), 1, True, -1, cutoff)
    assert a == b


@needs_compiled
def test_unbalanced_start_parity():
    # kernels must agree even when the initial configuration is unbalanced
    ds = random_balanced(2, Random(9))
    n, pair_of, side_of, _ = _arrays(ds)
    diff = [3, -2]
    a = pure.scan_chunk(n, pair_of, side_of, diff, (2,), 4, False, -1, -1)
    b = _fast.scan_chunk(n, pair_of, side_of, diff, (2,), 4, False, -1, -1)
    assert a == b


def test_bench_kernels_script_scans_the_base_case():
    # benchmarks/ is no package: load the script by path, as `python` would
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_kernels.py"
    spec = importlib.util.spec_from_file_location("bench_kernels", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    best_d, _m, _best, _count, nodes, abandoned = bench.full_scan(pure, base_case())
    assert (best_d, nodes, abandoned) == (6, count_swap_sets(4), False)
