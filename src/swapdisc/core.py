"""Domain types and balance primitives for defining sets under adjacent swaps.

A defining set over parameter t partitions the popularity ranks [1, 4t] into
t companion pairs; each pair holds two 2-element sets meant to have equal
sums.  An adjacent swap (i, i+1) exchanges the set membership of ranks i and
i+1, and the total discrepancy of a configuration is the sum over pairs of
the absolute difference of the two set sums.

Everything here is exact integer arithmetic on immutable values.
"""

from __future__ import annotations

from functools import cached_property
from operator import attrgetter
from typing import Iterable, NamedTuple, NoReturn


class InvalidInput(ValueError):
    """A value violates a structural precondition (bad shape, range, balance)."""


class SizeRefused(RuntimeError):
    """An exact computation was refused because the instance is too large."""


ODD = 1
EVEN = -1

# the worst-case engines (see adversary) and their size limits, here so that
# the CLI's parser names them without loading an engine
STRATEGIES = ("frontier", "exhaustive", "branch_and_bound")
EXHAUSTIVE_MAX_RANKS = 40
# up to this many ranks (t <= 4, at most F(17) = 1,597 swap sets) the default
# engine stays the exhaustive scan: it costs about a millisecond there, and
# perfbench's per-layer test expects the z = 2 base case to be scanned
SCAN_DEFAULT_MAX_RANKS = 16


def is_int(value: object, low: int | None = None, high: int | None = None) -> bool:
    """Whether `value` is an int (a bool or a float such as 3.0 is not) in
    [low, high], an end None being open: the one test of an outside integer,
    behind require_int and the readers that word their own refusal."""
    return type(value) is int and (low is None or low <= value) and (high is None or value <= high)


def require_int(value: object, what: str, low: int, high: int | None = None) -> int:
    """`value` if is_int(value, low, high); else InvalidInput, worded
    "<what> must be an integer >= low (or in [low, high]), got <value>"."""
    if not is_int(value, low, high):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise InvalidInput(f"{what} must be an integer {bound}, got {value!r}")
    return value


class Frozen:
    """Base of the validated values: equal (to a value of the same type
    only) and hashed by their fields in order, printed as
    Name(field=value, ...), and read-only, so that assigning or deleting
    any attribute raises AttributeError.  A subclass names its fields in
    _fields; its __init__ validates them and stores them in the instance
    dict, where the lazily computed attributes are cached as well."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        # _values(value) is the tuple of value's fields
        fields = attrgetter(*cls._fields)
        if len(cls._fields) > 1:
            cls._values = staticmethod(fields)
        else:  # attrgetter returns a lone field untupled
            cls._values = staticmethod(lambda value: (fields(value),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(self._fields, self._values(self))
        )
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value) -> NoReturn:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name) -> NoReturn:
        raise AttributeError(f"cannot delete field {name!r}")


class CompanionPair(Frozen):
    """Two disjoint 2-element rank sets; balanced when their sums agree.

    Balance is a predicate, not a constructor constraint: applying swaps can
    and does produce unbalanced pairs.
    """

    _fields = ("odd", "even")
    odd: frozenset[int]
    even: frozenset[int]

    def __init__(self, odd: Iterable[int], even: Iterable[int]):
        odd, even = frozenset(odd), frozenset(even)
        # overlap between the sides is left to validate_defining_set so that
        # broken candidates (repeated ranks) stay representable
        for side in (odd, even):
            if len(side) != 2:
                raise InvalidInput(f"companion set needs exactly 2 ranks, got {sorted(side)}")
            for r in side:
                if not is_int(r, 1):
                    raise InvalidInput(f"ranks must be integers >= 1, got {r!r}")
        self.__dict__.update(odd=odd, even=even)

    @property
    def elements(self) -> frozenset[int]:
        return self.odd | self.even

    @property
    def sum_odd(self) -> int:
        return sum(self.odd)

    @property
    def sum_even(self) -> int:
        return sum(self.even)

    @cached_property
    def imbalance(self) -> int:
        """Signed difference sum(odd) - sum(even), computed once per pair."""
        return self.sum_odd - self.sum_even

    @property
    def balanced(self) -> bool:
        return self.imbalance == 0

    # partition_bits once built, -1 before: Witnesses reads it directly, so
    # that scoring a pair met before costs one attribute read, and refuses a
    # rank above 4t before the bitmask of a far rank is built
    _bits = -1

    @property
    def partition_bits(self) -> int:
        """Bit r for each rank r of a balanced pair; 0 for an unbalanced one
        (see all_ranks).  Built on first use."""
        if self._bits < 0:
            self.__dict__["_bits"] = 0 if self.imbalance else sum(1 << r for r in self.elements)
        return self._bits

    def sorted_elements(self) -> tuple[int, int, int, int]:
        return tuple(sorted(self.elements))

    def translate(self, offset: int) -> "CompanionPair":
        if not is_int(offset):  # a rank below 1 is refused by the new pair
            raise InvalidInput(f"offset must be an integer, got {offset!r}")
        return CompanionPair(
            frozenset(x + offset for x in self.odd),
            frozenset(x + offset for x in self.even),
        )


class DefiningSet(Frozen):
    """An ordered list of t companion pairs over the ranks [1, 4t].

    Only the shape is enforced here; partition and balance are checked by
    validate_defining_set so that broken candidates stay representable.
    """

    _fields = ("t", "pairs")
    t: int
    pairs: tuple[CompanionPair, ...]

    def __init__(self, t: int, pairs: Iterable[CompanionPair]):
        pairs = tuple(pairs)
        require_int(t, "t", 1)
        if len(pairs) != t:
            raise InvalidInput(f"expected {t} pairs, got {len(pairs)}")
        self.__dict__.update(t=t, pairs=pairs)

    @property
    def n_ranks(self) -> int:
        return 4 * self.t

    @cached_property
    def _rank_table(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """rank_table's unswapped (pair_of, side_of, imbalance), built once
        per set; a partition error raises reject_invalid's InvalidInput on
        every access, since nothing is cached on failure."""
        n = self.n_ranks
        pair_of = [-1] * (n + 1)
        side_of = [0] * (n + 1)
        for p, pair in enumerate(self.pairs):
            for ranks, side in ((pair.odd, ODD), (pair.even, EVEN)):
                for r in ranks:
                    if r > n or pair_of[r] != -1:
                        reject_invalid(self)
                    pair_of[r] = p
                    side_of[r] = side
        if -1 in pair_of[1:]:
            reject_invalid(self)
        return tuple(pair_of), tuple(side_of), tuple(pair.imbalance for pair in self.pairs)

    @cached_property
    def _valid(self) -> bool:
        """require_valid's check, on _rank_table's walk; cached only on success."""
        if any(self._rank_table[2]):
            reject_invalid(self)
        return True


def _unchecked_set(t: int, pairs: tuple[CompanionPair, ...]) -> DefiningSet:
    """DefiningSet(t, pairs) without DefiningSet.__init__'s checks, for sets
    built as a t-tuple of pairs by construction (optsearch's enumeration and
    draws): the search builds one per candidate, and the checks are a third
    of that cost."""
    ds = object.__new__(DefiningSet)
    ds.__dict__.update(t=t, pairs=pairs)
    return ds


def defining_set(t: int, pairs: Iterable[tuple[Iterable[int], Iterable[int]]]) -> DefiningSet:
    """Convenience constructor from ((odd, even), ...) iterables."""
    return DefiningSet(t, tuple(CompanionPair(frozenset(o), frozenset(e)) for o, e in pairs))


class SwapSet(Frozen):
    """A set of adjacent swaps (i, i+1) with pairwise distinct endpoints (a
    matching of the path graph on the ranks), held as `positions`: the left
    endpoints i, sorted once here and checked by require_matching.  The
    bound i < 4t depends on t and is checked by the operations
    (require_inside), not here."""

    _fields = ("positions",)
    positions: tuple[int, ...]

    def __init__(self, positions: Iterable[int]):
        positions = tuple(positions)
        try:
            positions = tuple(sorted(positions))
        except TypeError:
            pass  # a position that is no number: require_matching refuses it
        require_matching(positions)
        self.__dict__["positions"] = positions

    def __len__(self) -> int:
        return len(self.positions)


def require_matching(positions: tuple[int, ...]) -> None:
    """Raise InvalidInput unless `positions`, in the order given, are the
    left endpoints of a matching of the path on the ranks: integers >= 1
    (bools are not), each at least 2 above the one before."""
    prev = -1
    for i in positions:
        if not is_int(i, 1):
            raise InvalidInput(f"swap position {i!r} is not an integer >= 1")
        if i < prev + 2:
            raise InvalidInput(
                f"swaps ({prev}, {prev + 1}) and ({i}, {i + 1}) overlap or are out of order"
            )
        prev = i


def require_inside(positions: tuple[int, ...], n: int) -> None:
    """Raise InvalidInput, naming the first swap outside, unless every swap
    at the ascending `positions` lies in [1, n]: the last is below n."""
    if positions and positions[-1] >= n:
        i = next(i for i in positions if i >= n)
        raise InvalidInput(f"swap ({i}, {i + 1}) outside [1, {n}]")


EMPTY_SWAPS = SwapSet(())


class ValidationReport(NamedTuple):
    ok: bool
    violations: tuple[str, ...]


def validate_defining_set(ds: DefiningSet) -> ValidationReport:
    """Check that ds partitions [1, 4t] and that every pair is balanced.

    Violations are data, not exceptions; each message names the offending
    pair index (1-based) or rank.
    """
    problems: list[str] = []
    n = ds.n_ranks
    counts: dict[int, int] = {}
    for idx, pair in enumerate(ds.pairs, start=1):
        for r in sorted(pair.odd) + sorted(pair.even):
            counts[r] = counts.get(r, 0) + 1
            if r > n:
                problems.append(f"pair {idx}: rank {r} outside [1, {n}]")
        if not pair.balanced:
            problems.append(
                f"pair {idx}: unbalanced (odd sum {pair.sum_odd} != even sum {pair.sum_even})"
            )
    for r, c in sorted(counts.items()):
        if c > 1:
            problems.append(f"rank {r}: appears {c} times")
    for r in range(1, n + 1):
        if r not in counts:
            problems.append(f"rank {r}: missing")
    return ValidationReport(ok=not problems, violations=tuple(problems))


def all_ranks(n: int) -> int:
    """Bits 1..n.  A defining set over [1, n] partitions it into balanced
    pairs exactly when the OR of its pairs' partition_bits is all_ranks(n):
    its n/4 pairs hold at most four ranks each, so covering all n ranks
    leaves no rank repeated, none outside [1, n] and no unbalanced pair.
    Only Witnesses._scores checks validity this way, fused with its scoring
    pass, because the search's speed depends on it; require_valid reads the
    rank table instead."""
    return (2 << n) - 2


def reject_invalid(ds: DefiningSet) -> NoReturn:
    """Raise InvalidInput with validate_defining_set's wording of ds's faults."""
    report = validate_defining_set(ds)
    raise InvalidInput("invalid defining set: " + "; ".join(report.violations))


def require_valid(ds: DefiningSet) -> None:
    """Raise InvalidInput, worded by validate_defining_set, unless ds
    partitions [1, 4t] into balanced pairs: the walk that builds ds's cached
    rank table succeeds and leaves every imbalance at 0, so a valid set's
    pairs are walked once for its validation and its tables.  Cached on
    success (DefiningSet._valid), so an invalid set raises on every call.
    A rank above 4t is refused before anything is indexed by it."""
    ds._valid  # raises unless ds is valid


def rank_table(
    ds: DefiningSet, swaps: SwapSet = EMPTY_SWAPS
) -> tuple[list[int], list[int], list[int]]:
    """The rank tables of ds after `swaps`: (pair_of, side_of, imbalance).

    pair_of[r] and side_of[r] name the pair (0..t-1) and the side (ODD or
    EVEN) holding rank r, for r in 1..4t (index 0 is unused); imbalance[p]
    is pair p's signed sum(odd) - sum(even).  A swap (i, i+1) moves
    imbalance[pair_of[i]] by side_of[i] and imbalance[pair_of[i+1]] by
    -side_of[i+1], then exchanges the two ranks' table entries.

    Requires ds to partition [1, 4t], balanced or not, and every swap to lie
    in [1, 4t]; raises InvalidInput otherwise, a partition fault worded as
    require_valid words it.  The unswapped tables are
    built once per set and cached; each call returns fresh lists.
    """
    require_inside(swaps.positions, ds.n_ranks)
    pair_of, side_of, imbalance = map(list, ds._rank_table)
    for i in swaps.positions:
        j = i + 1
        imbalance[pair_of[i]] += side_of[i]
        imbalance[pair_of[j]] -= side_of[j]
        pair_of[i], pair_of[j] = pair_of[j], pair_of[i]
        side_of[i], side_of[j] = side_of[j], side_of[i]
    return pair_of, side_of, imbalance


def apply_swaps(ds: DefiningSet, swaps: SwapSet) -> DefiningSet:
    """Exchange set membership of ranks i and i+1 for every swap (i, i+1).

    An involution: applying the same swap set twice restores the input.
    """
    pair_of, side_of, _ = rank_table(ds, swaps)
    odd_sets: list[set[int]] = [set() for _ in range(ds.t)]
    even_sets: list[set[int]] = [set() for _ in range(ds.t)]
    for r in range(1, ds.n_ranks + 1):
        (odd_sets if side_of[r] == ODD else even_sets)[pair_of[r]].add(r)
    return DefiningSet(
        ds.t,
        tuple(
            CompanionPair(frozenset(o), frozenset(e)) for o, e in zip(odd_sets, even_sets)
        ),
    )


def discrepancy(ds: DefiningSet, swaps: SwapSet) -> int:
    """Total discrepancy sum_i |sum(odd_i') - sum(even_i')| after the swaps."""
    return sum(map(abs, rank_table(ds, swaps)[2]))


class PairType(NamedTuple):
    """Structural form of a balanced pair's four sorted elements.

    kind 1: {a, a+b, a+b+1, a+2b+1}, b >= 2 under this classifier
    kind 2: {a, a+b, a+b+c, a+2b+c}, b, c > 1
    kind 3: {a, a+1, a+1+b, a+2+b}, b >= 1
    """

    kind: int
    a: int
    b: int
    c: int | None = None


def classify_pair(cp: CompanionPair) -> PairType:
    """Classify a balanced pair; exactly one of the three kinds applies.

    The consecutive-run set {a, a+1, a+2, a+3} matches the kind-3 branch
    first, so kind 1 effectively has b >= 2.
    """
    if not cp.balanced:
        raise InvalidInput(f"cannot classify unbalanced pair {sorted(cp.elements)}")
    l1, l2, l3, l4 = cp.sorted_elements()
    if l2 - l1 == 1:
        return PairType(kind=3, a=l1, b=l3 - l2)
    if l3 - l2 == 1:
        return PairType(kind=1, a=l1, b=l2 - l1)
    return PairType(kind=2, a=l1, b=l2 - l1, c=l3 - l2)
