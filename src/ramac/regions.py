"""Operation regions, feasibility screening and decoder partitions.

An operation region is the set of (rate vector, channel-or-class id) pairs the
receiver commits to decode; everything else in the product universe is treated
as a collision to be flagged. Feasibility requires every member to satisfy the
sum-rate conditions against the conditional mutual informations of its channel
for every proper conditioning subset.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from ._record import record
from .channels import CompoundSet, InputLaws, RateTable, RateVectorIndex
from .errors import (
    C1Violation,
    SearchSpaceTooLarge,
    ValidationError,
)
from .infometrics import MiQuery, conditional_mi

PARTITION_GUARD = 10 ** 6


@record
class OperationRegion:
    """Ordered set of (RateVectorIndex, id) members, finite or class mode."""

    members: tuple
    mode: str = "finite"

    def __post_init__(self):
        if self.mode not in ("finite", "class"):
            raise ValidationError(f"mode must be 'finite' or 'class', got {self.mode!r}")
        seen = set()
        norm = []
        for rvi, cid in self.members:
            if not isinstance(rvi, RateVectorIndex):
                raise ValidationError("region members must pair a RateVectorIndex with an id")
            key = (rvi.indices, str(cid))
            if key in seen:
                raise ValidationError(f"duplicate region member {key}")
            seen.add(key)
            norm.append((rvi, str(cid)))
        object.__setattr__(self, "members", tuple(norm))
        object.__setattr__(self, "_keys", frozenset(seen))

    def __contains__(self, pair) -> bool:
        rvi, cid = pair
        return (rvi.indices, str(cid)) in self._keys

    def __len__(self) -> int:
        return len(self.members)

    def complement(self, universe: Iterable) -> tuple:
        inside = {(m.indices, c) for m, c in self.members}
        return tuple((rvi, cid) for rvi, cid in universe
                     if (rvi.indices, cid) not in inside)


def pair_universe(table: RateTable, ids: Sequence[str]) -> tuple:
    """Every (rate vector, id) combination, rate vectors in lexicographic order."""
    m = table.num_classes
    k = table.num_users
    out = []
    for combo in itertools.product(range(1, m + 1), repeat=k):
        rvi = RateVectorIndex(combo)
        for cid in ids:
            out.append((rvi, str(cid)))
    return tuple(out)


@record
class FeasibilityReport:
    passed: bool
    # (rate vector, channel id, subset, sum_rate, mi, margin); margin = mi - sum
    violations: tuple
    margins: tuple

    def worst_margin(self) -> float:
        vals = [m[-1] for m in self.margins]
        return min(vals) if vals else float("inf")


def proper_subsets(k: int) -> Iterator[frozenset]:
    users = list(range(1, k + 1))
    for size in range(k):
        for combo in itertools.combinations(users, size):
            yield frozenset(combo)


def feasibility_check(region: OperationRegion, compound: CompoundSet,
                      laws: InputLaws, table: RateTable) -> FeasibilityReport:
    """Sum-rate feasibility of every region member against every proper subset.

    A member (r, P) passes when, for each proper subset S of the users,
    the complement's rate sum is at most I(X_Sc; Y | X_S) under the member's
    laws. Violations carry the full triple plus the margin.
    """
    if region.mode != "finite":
        raise ValidationError("feasibility_check expects a channel-level region")
    k = compound.num_users
    margins = []
    violations = []
    for rvi, cid in region.members:
        rvi.check_against(table)
        channel = compound.by_id(cid)
        for subset in proper_subsets(k):
            mi = conditional_mi(MiQuery(channel, laws, rvi, subset))
            sum_rate = sum(table.rate(u, rvi.index(u))
                           for u in range(1, k + 1) if u not in subset)
            margin = mi - sum_rate
            entry = (rvi, cid, subset, sum_rate, mi, margin)
            margins.append(entry)
            if sum_rate > mi:
                violations.append(entry)
    return FeasibilityReport(not violations, tuple(violations), tuple(margins))


@record
class C1Report:
    passed: bool
    # (rate vector, class id, present member ids, missing member ids)
    violations: tuple
    converted: Optional[OperationRegion]


def c1_check(region: OperationRegion, class_map: Mapping[str, Sequence[str]]) -> C1Report:
    """Whole-class consistency of a channel-level region.

    Every class must be wholly inside or wholly outside the region at each
    rate vector. On success the converted class-level region is returned;
    channel ids not covered by the map raise. Class-level input passes
    through unchanged, so conversion is idempotent.
    """
    if region.mode == "class":
        for _, cid in region.members:
            if cid not in class_map:
                raise ValidationError(f"class id {cid!r} not in the class map")
        return C1Report(True, (), region)
    owner = {}
    for class_id, members in class_map.items():
        for cid in members:
            cid = str(cid)
            if cid in owner:
                raise ValidationError(f"channel id {cid!r} appears in two classes")
            owner[cid] = str(class_id)
    inside = {}
    for rvi, cid in region.members:
        if cid not in owner:
            raise ValidationError(f"channel id {cid!r} not covered by the class map")
        inside.setdefault((rvi.indices, owner[cid]), set()).add(cid)
    violations = []
    converted = []
    for (indices, class_id), present in sorted(inside.items()):
        members = set(str(c) for c in class_map[class_id])
        missing = members - present
        if missing:
            violations.append((RateVectorIndex(indices), class_id,
                               tuple(sorted(present)), tuple(sorted(missing))))
        else:
            converted.append((RateVectorIndex(indices), class_id))
    if violations:
        return C1Report(False, tuple(violations), None)
    return C1Report(True, (), OperationRegion(tuple(converted), mode="class"))


def require_c1(region: OperationRegion, class_map: Mapping[str, Sequence[str]]) -> OperationRegion:
    report = c1_check(region, class_map)
    if not report.passed:
        raise C1Violation(
            f"{len(report.violations)} rate/class pairs are split by the region; "
            f"first: {report.violations[0]!r}"
        )
    return report.converted


def maximal_feasible_region(compound: CompoundSet, laws: InputLaws,
                            table: RateTable) -> OperationRegion:
    """All (rate vector, channel) pairs passing feasibility, in universe order."""
    members = []
    for rvi, cid in pair_universe(table, compound.ids):
        single = OperationRegion(((rvi, cid),))
        if feasibility_check(single, compound, laws, table).passed:
            members.append((rvi, cid))
    return OperationRegion(tuple(members))


@record
class Partition:
    """Assignment of region members to decoded sets containing a fixed user.

    assignment[i] is the decoded set D for the i-th region member (a frozenset
    containing `user`), or None when the member is dropped (always reported as
    a collision; only produced when enumeration allows dropping).
    """

    region: OperationRegion
    user: int
    assignment: tuple

    def __post_init__(self):
        if len(self.assignment) != len(self.region.members):
            raise ValidationError("assignment length differs from region size")
        for d in self.assignment:
            if d is None:
                continue
            if self.user not in d:
                raise ValidationError("every decoded set must contain the target user")
        object.__setattr__(
            self, "assignment",
            tuple(None if d is None else frozenset(int(u) for u in d)
                  for d in self.assignment))

    def blocks(self) -> dict:
        """decoded set -> tuple of member pairs mapped to it (region order)."""
        out = {}
        for (rvi, cid), d in zip(self.region.members, self.assignment):
            if d is None:
                continue
            out.setdefault(d, []).append((rvi, cid))
        return {d: tuple(v) for d, v in out.items()}


def subsets_containing(user: int, num_users: int) -> tuple:
    """All subsets of {1..K} containing `user`, ordered by (size, lexicographic)."""
    others = [u for u in range(1, num_users + 1) if u != user]
    found = []
    for size in range(len(others) + 1):
        for combo in itertools.combinations(others, size):
            found.append(frozenset((user,) + combo))
    return tuple(found)


def enumerate_partitions(region: OperationRegion, user: int, num_users: int,
                         max_blocks: Optional[int] = None,
                         allow_drop: bool = False,
                         guard: int = PARTITION_GUARD) -> Iterator[Partition]:
    """All assignments of members to decoded sets containing `user`.

    The count is (number of admissible sets) ** len(region); anything past
    `guard` raises SearchSpaceTooLarge before any work. allow_drop adds the
    explicit drop choice. max_blocks keeps only assignments using at most that
    many distinct decoded sets.
    """
    if not 1 <= user <= num_users:
        raise ValidationError(f"user {user} outside 1..{num_users}")
    choices = list(subsets_containing(user, num_users))
    if allow_drop:
        choices = [None] + choices
    total = len(choices) ** len(region.members) if region.members else 1
    if total > guard:
        raise SearchSpaceTooLarge(
            f"{total} assignments exceed the enumeration guard {guard}"
        )

    def walk():
        for combo in itertools.product(choices, repeat=len(region.members)):
            part = Partition(region, user, combo)
            if max_blocks is not None and len(part.blocks()) > max_blocks:
                continue
            yield part

    return walk()
