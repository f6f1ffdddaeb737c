"""The scan kernel module.

The scan itself is checked through the engines that call it: against the
naive oracle and the frontier DP (tests/test_frontier.py, unbalanced
starts included) and in abandon mode by the worst_case_bounded tests
(tests/test_adversary.py).
"""

from swapdisc import _kernels


def test_backend_selected():
    assert _kernels.backend_name() == "pure"
