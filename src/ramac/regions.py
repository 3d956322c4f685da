"""Operation regions, feasibility screening and decoder partitions.

An operation region is the set of (rate vector, channel-or-class id) pairs the
receiver commits to decode; everything else in the product universe is treated
as a collision to be flagged. Feasibility requires every member to satisfy the
sum-rate conditions against the conditional mutual informations of its channel
for every proper conditioning subset. Classes are the class envelopes'
member_ids, and c1_check converts a region that holds each class whole.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Optional, Sequence

from ._record import record
from .channels import CompoundSet, InputLaws, RateTable, RateVectorIndex
from .errors import GuardExceeded, ValidationError
from .infometrics import conditional_mi

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
        return tuple((rvi, cid) for rvi, cid in universe
                     if (rvi.indices, cid) not in self._keys)


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


def proper_subsets(users: Sequence[int]) -> tuple:
    """Every proper subset of users, the conditioning subsets of a decoder
    resolving them, by size and then in combinations order."""
    return tuple(frozenset(combo) for size in range(len(users))
                 for combo in itertools.combinations(users, size))


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
    subsets = proper_subsets(range(1, k + 1))
    margins = []
    violations = []
    for rvi, cid in region.members:
        rvi.check_against(table)
        channel = compound.by_id(cid)
        for subset in subsets:
            mi = conditional_mi(channel, laws, rvi, subset)
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


def class_owner(envelopes: Sequence) -> dict:
    """channel id -> the class id of the envelope whose member_ids list it;
    a channel listed by two envelopes raises."""
    owner = {}
    for env in envelopes:
        for cid in env.member_ids:
            if cid in owner:
                raise ValidationError(f"channel id {cid!r} appears in two classes")
            owner[cid] = env.class_id
    return owner


def c1_check(region: OperationRegion, envelopes: Sequence) -> C1Report:
    """Whole-class consistency of a channel-level region.

    Every class, the member_ids of one envelope, must be wholly inside or
    wholly outside the region at each rate vector. On success the converted
    class-level region is returned; a channel id that no envelope lists
    raises. Class-level input passes through unchanged, so conversion is
    idempotent.
    """
    owner = class_owner(envelopes)
    members = {env.class_id: set(env.member_ids) for env in envelopes}
    if region.mode == "class":
        for _, cid in region.members:
            if cid not in members:
                raise ValidationError(f"class id {cid!r} has no envelope")
        return C1Report(True, (), region)
    inside = {}
    for rvi, cid in region.members:
        if cid not in owner:
            raise ValidationError(f"channel id {cid!r} is in no class")
        inside.setdefault((rvi.indices, owner[cid]), set()).add(cid)
    violations = []
    converted = []
    for (indices, class_id), present in sorted(inside.items()):
        missing = members[class_id] - present
        if missing:
            violations.append((RateVectorIndex(indices), class_id,
                               tuple(sorted(present)), tuple(sorted(missing))))
        else:
            converted.append((RateVectorIndex(indices), class_id))
    if violations:
        return C1Report(False, tuple(violations), None)
    return C1Report(True, (), OperationRegion(tuple(converted), mode="class"))


def require_c1(region: OperationRegion, envelopes: Sequence) -> OperationRegion:
    report = c1_check(region, envelopes)
    if not report.passed:
        raise ValidationError(
            f"{len(report.violations)} rate/class pairs are split by the region; "
            f"first: {report.violations[0]!r}"
        )
    return report.converted


def maximal_feasible_region(compound: CompoundSet, laws: InputLaws,
                            table: RateTable) -> OperationRegion:
    """All (rate vector, channel) pairs passing feasibility, in universe order."""
    universe = pair_universe(table, compound.ids)
    report = feasibility_check(OperationRegion(universe), compound, laws, table)
    failed = {(rvi.indices, cid) for rvi, cid, *_ in report.violations}
    return OperationRegion(tuple((rvi, cid) for rvi, cid in universe
                                 if (rvi.indices, cid) not in failed))


@record
class Partition:
    """Assignment of region members to decoded sets containing a fixed user.

    assignment[i] is the decoded set D for the i-th region member: a set
    containing `user`, stored as a frozenset.
    """

    region: OperationRegion
    user: int
    assignment: tuple

    def __post_init__(self):
        if len(self.assignment) != len(self.region.members):
            raise ValidationError("assignment length differs from region size")
        k = len(self.region.members[0][0].indices) if self.region.members else 0
        users = frozenset(range(1, k + 1))
        for d in self.assignment:
            if not isinstance(d, (set, frozenset)):
                raise ValidationError(f"decoded set {d!r} is not a set")
            if self.user not in d:
                raise ValidationError("every decoded set must contain the target user")
            if not d <= users:
                raise ValidationError(
                    f"decoded set {d!r} names a user outside 1..{k}")
        object.__setattr__(self, "assignment", tuple(
            frozenset(int(u) for u in d) for d in self.assignment))

    def blocks(self) -> dict:
        """decoded set -> tuple of member pairs mapped to it (region order)."""
        out = {}
        for (rvi, cid), d in zip(self.region.members, self.assignment):
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


def enumerate_partitions(region: OperationRegion, user: int,
                         num_users: int) -> Iterator[Partition]:
    """All assignments of members to decoded sets containing `user`.

    The count is (number of admissible sets) ** len(region); anything past
    PARTITION_GUARD raises GuardExceeded before any work. An empty region has
    one assignment, the empty one.
    """
    if not 1 <= user <= num_users:
        raise ValidationError(f"user {user} outside 1..{num_users}")
    choices = subsets_containing(user, num_users)
    total = len(choices) ** len(region.members) if region.members else 1
    if total > PARTITION_GUARD:
        raise GuardExceeded(
            f"{total} assignments exceed the enumeration guard {PARTITION_GUARD}"
        )

    return (Partition(region, user, combo)
            for combo in itertools.product(choices, repeat=len(region.members)))
