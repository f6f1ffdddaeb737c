"""The recursive defining-set family t = 5*2^(z-2) - 1 and its bounds.

Level z = 2 is the unique optimal t = 4 set; each recursive step embeds two
shifted copies of the previous level between a closing pair {1, 5*2^(z+1)-4}
and {5*2^z-2, 5*2^z-1}.  The worst case d_z of level z obeys
d_{z+1} <= 2*d_z + 2, giving d_z <= 2^(z+1) - 2 = (8t - 2) / 5.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .adversary import worst_case
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


def lower_bound(t: int) -> Fraction:
    """(3t - 2) / 2, valid for every balanced defining set."""
    return Fraction(3 * require_int(t, "t", 1) - 2, 2)


def upper_bound(z: int) -> int:
    """2^(z+1) - 2, the worst case guaranteed by the level-z construction:
    (8t - 2) / 5 for its t."""
    return (8 * t_for_z(z) - 2) // 5


def upper_bound_for_t(t: int) -> int:
    """upper_bound(z_for_t(t)), which is (8t - 2) / 5, for t in the family."""
    z = z_for_t(t)
    if z is None:
        raise InvalidInput(f"t = {t} is not of the form 5*2^(z-2) - 1")
    return upper_bound(z)


class Lemma1Report(NamedTuple):
    z: int
    d_z: int
    d_z_plus_1: int
    bound: int
    holds: bool


def check_lemma1(z: int) -> Lemma1Report:
    """Exact d_z and d_{z+1} with the default engine; holds iff
    d_{z+1} <= 2*d_z + 2.  An oversize level z + 1 is refused before level z
    is built or scanned."""
    require_level(z)  # before z + 1, so that an error names z
    require_level(z + 1)
    d_z = worst_case(construct_for_z(z)).worst_case
    d_z1 = worst_case(construct_for_z(z + 1)).worst_case
    return Lemma1Report(z=z, d_z=d_z, d_z_plus_1=d_z1, bound=2 * d_z + 2, holds=d_z1 <= 2 * d_z + 2)
