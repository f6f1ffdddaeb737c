"""The recursive defining-set family t = 5*2^(z-2) - 1 and its bounds.

Level z = 2 is the unique optimal t = 4 set; each recursive step embeds two
shifted copies of the previous level between a closing pair {1, 5*2^(z+1)-4}
and {5*2^z-2, 5*2^z-1}.  The worst case d_z of level z obeys
d_{z+1} <= 2*d_z + 2 (Lemma 1, which `verify --checks lemma1` computes),
giving d_z <= 2^(z+1) - 2 = (8t - 2) / 5.  The frontier engine finds the
bound attained at z = 2..6 (d_z = 6, 14, 30, 62, 126: the base case's 6 in
tests/test_adversary.py::test_worst_case_base_case_is_6, z = 3 in
tests/test_frontier.py::test_level3_pins, z = 4..6 in
tests/test_frontier.py::test_construction_levels_beyond_the_scan); that it
is attained at every z is not proven here.  The frontier takes seconds at
z = 7 (d_7 = 254, 3,607,802 states) and refuses z = 8 (exit 4) only after
about 40 s, so `verify --z 7 --checks lemma1` ends in that refusal too;
composing each level from its two copies (ROADMAP item 1) would reach
every level.  Maximizer counts grow fast with 4t (2,229 bits for 340
copies of the base case side by side): `eval --worst-case` and `verify`
refuse (exit 4) a certificate whose count has more decimal digits than
Python writes out (4,300 by default), and PYTHONINTMAXSTRDIGITS=0 lifts
that limit.
"""

from __future__ import annotations

from .core import (
    CompanionPair,
    DefiningSet,
    InvalidInput,
    SizeRefused,
    defining_set,
    is_int,
    require_int,
    require_valid,
)

DEFAULT_MAX_RANKS = 1_000_000


def t_for_z(z: int) -> int:
    """Pair count of construction level z, an integer >= 2: 5*2^(z-2) - 1."""
    if not is_int(z, 2):
        raise InvalidInput(f"construction levels start at z = 2, got {z!r}")
    return 5 * 2 ** (z - 2) - 1


def z_for_t(t: int) -> int | None:
    """Inverse of t_for_z, or None if t is not in the family."""
    require_int(t, "t", 1)
    z = 2
    while t_for_z(z) <= t:
        if t_for_z(z) == t:
            return z
        z += 1
    return None


def base_case() -> DefiningSet:
    """The unique optimal defining set for t = 4 (worst case 6)."""
    return defining_set(
        4,
        (
            ({1, 16}, {8, 9}),
            ({2, 7}, {4, 5}),
            ({10, 15}, {12, 13}),
            ({3, 14}, {6, 11}),
        ),
    )


def recursive_step(prev: DefiningSet, z: int) -> DefiningSet:
    """Build level z+1 from the level-z set.

    Copy 1 is prev shifted by +1, copy 2 by +(5*2^z - 1); the closing pair
    {1, 5*2^(z+1)-4} / {5*2^z-2, 5*2^z-1} has both sums 5*2^(z+1) - 3.
    """
    t2 = t_for_z(z)
    if prev.t != t2:
        raise InvalidInput(f"level-{z} input must have t = {t2}, got {prev.t}")
    require_valid(prev)
    shift2 = 5 * 2**z - 1
    closing = CompanionPair(
        frozenset({1, 5 * 2 ** (z + 1) - 4}),
        frozenset({5 * 2**z - 2, 5 * 2**z - 1}),
    )
    pairs = (
        tuple(p.translate(1) for p in prev.pairs)
        + tuple(p.translate(shift2) for p in prev.pairs)
        + (closing,)
    )
    return DefiningSet(2 * t2 + 1, pairs)


def require_level(z: int) -> None:
    """Refuse, without building anything, a z that is no level (InvalidInput,
    from t_for_z) and a level of more than DEFAULT_MAX_RANKS ranks
    (SizeRefused).  Once z - 2 passes the cap's bit length, 2 ** (z - 2)
    alone exceeds the cap: such a z is refused without computing it."""
    if is_int(z, DEFAULT_MAX_RANKS.bit_length() + 3) or 4 * t_for_z(z) > DEFAULT_MAX_RANKS:
        raise SizeRefused(f"level {z} is above the cap of {DEFAULT_MAX_RANKS} ranks")


def construct_for_z(z: int) -> DefiningSet:
    """Iterate the recursion from the base case up to level z (see require_level)."""
    require_level(z)
    ds = base_case()
    for level in range(2, z):
        ds = recursive_step(ds, level)
    return ds


def lower_bound(t: int) -> int:
    """The least integer meeting the bound (3t - 2) / 2 that holds for every
    balanced defining set: its ceiling, (3t - 1) // 2.  An integer is >= a
    number exactly when it is >= the number's ceiling, so comparing a worst
    case or an edge count with it gives the exact bound's verdict."""
    return (3 * require_int(t, "t", 1) - 1) // 2


def lower_bound_str(t: int) -> str:
    """lower_bound(t) as the certificates write it: "p/q" in lowest terms,
    also when q = 1."""
    twice = 3 * require_int(t, "t", 1) - 2
    return f"{twice // 2}/1" if twice % 2 == 0 else f"{twice}/2"


def upper_bound(z: int) -> int:
    """2^(z+1) - 2, the worst case guaranteed by the level-z construction:
    (8t - 2) / 5 for its t."""
    return (8 * t_for_z(z) - 2) // 5
