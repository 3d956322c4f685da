"""Channel, class-envelope, rate-table and input-law primitives.

Conventions used across the package:

* Users are numbered 1..K. Inside arrays, axis k-1 of a channel tensor indexes
  user k's input symbol and the last axis indexes the output symbol.
* Rates are always carried by (user, index) into a RateTable; indices are
  1-based, 1..M, and every user has the same number M of rate classes.
* Probability vectors must sum to one within SIMPLEX_TOL; channel rows within
  that tolerance are renormalized exactly once at validation.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from ._record import record
from .errors import (
    DegenerateEnvelope,
    DimensionMismatch,
    EmptyClass,
    MissingLaw,
    NegativeEntry,
    RowSumOutOfTolerance,
    ValidationError,
)

SIMPLEX_TOL = 1e-12


def _frozen_array(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.flags.writeable = False
    return out


@record(eq=False)
class Dmc:
    """A discrete memoryless channel with num_users input terminals.

    probs has shape (input_size,) * num_users + (output_size,); every row
    (fixed input tuple) is a probability vector over outputs.
    """

    num_users: int
    input_size: int
    output_size: int
    probs: np.ndarray

    def __post_init__(self):
        if self.num_users < 1 or self.input_size < 1 or self.output_size < 1:
            raise DimensionMismatch("num_users, input_size, output_size must be >= 1")
        expected = (self.input_size,) * self.num_users + (self.output_size,)
        if self.probs.shape != expected:
            raise DimensionMismatch(
                f"probs shape {self.probs.shape} != expected {expected}"
            )
        if np.any(self.probs < 0):
            raise NegativeEntry("channel tensor has a negative entry")
        rows = self.probs.reshape(-1, self.output_size).sum(axis=1)
        if np.max(np.abs(rows - 1.0)) > SIMPLEX_TOL:
            raise RowSumOutOfTolerance(
                "a channel row is off the simplex; run validate_dmc on raw tensors"
            )
        object.__setattr__(self, "probs", _frozen_array(self.probs))


def validate_dmc(raw, num_users: int, input_size: int, output_size: int) -> Dmc:
    """Build a Dmc from a raw tensor, renormalizing rows within tolerance.

    Rows whose sums deviate from 1 by at most SIMPLEX_TOL are rescaled to sum
    exactly; larger deviations raise RowSumOutOfTolerance. Idempotent: running
    the result through again changes nothing.
    """
    arr = np.array(raw, dtype=float)
    expected = (input_size,) * num_users + (output_size,)
    if arr.shape != expected:
        raise DimensionMismatch(f"raw tensor shape {arr.shape} != expected {expected}")
    if np.any(arr < 0):
        raise NegativeEntry("raw channel tensor has a negative entry")
    flat = arr.reshape(-1, output_size)
    sums = flat.sum(axis=1)
    if np.max(np.abs(sums - 1.0)) > SIMPLEX_TOL:
        worst = int(np.argmax(np.abs(sums - 1.0)))
        raise RowSumOutOfTolerance(
            f"row {worst} sums to {sums[worst]!r}, outside tolerance {SIMPLEX_TOL}"
        )
    flat = flat / sums[:, None]
    return Dmc(num_users, input_size, output_size, flat.reshape(expected))


@record(eq=False)
class CompoundSet:
    """A finite family of channels with shared dimensions and unique string ids."""

    channels: tuple
    ids: tuple

    def __post_init__(self):
        if len(self.channels) == 0:
            raise EmptyClass("a compound set needs at least one channel")
        if len(self.channels) != len(self.ids):
            raise DimensionMismatch("channels and ids differ in length")
        if len(set(self.ids)) != len(self.ids):
            raise ValidationError("channel ids must be unique")
        first = self.channels[0]
        for ch in self.channels[1:]:
            if (ch.num_users, ch.input_size, ch.output_size) != (
                first.num_users,
                first.input_size,
                first.output_size,
            ):
                raise DimensionMismatch("all channels in a compound set share dimensions")
        object.__setattr__(self, "channels", tuple(self.channels))
        object.__setattr__(self, "ids", tuple(str(i) for i in self.ids))

    @property
    def num_users(self) -> int:
        return self.channels[0].num_users

    @property
    def input_size(self) -> int:
        return self.channels[0].input_size

    @property
    def output_size(self) -> int:
        return self.channels[0].output_size

    def by_id(self, channel_id: str) -> Dmc:
        try:
            return self.channels[self.ids.index(channel_id)]
        except ValueError:
            raise ValidationError(f"unknown channel id {channel_id!r}") from None


@record(eq=False)
class ChannelClassEnvelope:
    """Elementwise upper/lower envelopes of a class of channels.

    pmin must be positive wherever pmax is: decoding statistics divide by the
    lower envelope, so a class mixing a zero with positives at one transition
    is rejected rather than silently clamped.
    """

    num_users: int
    input_size: int
    output_size: int
    pmax: np.ndarray
    pmin: np.ndarray
    class_id: str
    member_ids: tuple

    def __post_init__(self):
        expected = (self.input_size,) * self.num_users + (self.output_size,)
        if self.pmax.shape != expected or self.pmin.shape != expected:
            raise DimensionMismatch("envelope shape differs from channel shape")
        if np.any(self.pmax < 0) or np.any(self.pmin < 0):
            raise NegativeEntry("envelope has a negative entry")
        if np.any(self.pmin > self.pmax + SIMPLEX_TOL):
            raise ValidationError("pmin exceeds pmax somewhere")
        if np.any((self.pmax > 0) & (self.pmin <= 0)):
            raise DegenerateEnvelope(
                f"class {self.class_id!r}: lower envelope vanishes where the upper does not"
            )
        object.__setattr__(self, "pmax", _frozen_array(self.pmax))
        object.__setattr__(self, "pmin", _frozen_array(self.pmin))
        object.__setattr__(self, "member_ids", tuple(self.member_ids))


def build_envelope(channels: Sequence[Dmc], class_id: str = "class",
                   member_ids: Sequence[str] | None = None) -> ChannelClassEnvelope:
    """Elementwise max/min envelopes over a nonempty family of same-shaped channels."""
    if len(channels) == 0:
        raise EmptyClass(f"class {class_id!r} has no member channels")
    first = channels[0]
    for ch in channels[1:]:
        if ch.probs.shape != first.probs.shape:
            raise DimensionMismatch("class members have different shapes")
    stack = np.stack([ch.probs for ch in channels])
    if member_ids is None:
        member_ids = tuple(str(i) for i in range(len(channels)))
    return ChannelClassEnvelope(
        num_users=first.num_users,
        input_size=first.input_size,
        output_size=first.output_size,
        pmax=stack.max(axis=0),
        pmin=stack.min(axis=0),
        class_id=str(class_id),
        member_ids=tuple(member_ids),
    )


@record
class RateTable:
    """Per-user ordered rate menus (nats per channel use).

    rates[k-1] lists user k's rates, strictly increasing, all >= 0; every user
    has the same count M. Rates are addressed by 1-based (user, index).
    """

    rates: tuple

    def __post_init__(self):
        if len(self.rates) == 0:
            raise ValidationError("rate table needs at least one user")
        counts = {len(r) for r in self.rates}
        if len(counts) != 1:
            raise DimensionMismatch("all users must have the same number of rate classes")
        if 0 in counts:
            raise ValidationError("each user needs at least one rate")
        for k, menu in enumerate(self.rates, start=1):
            for r in menu:
                if not math.isfinite(r) or r < 0:
                    raise ValidationError(f"user {k}: rate {r!r} must be finite and >= 0")
            for a, b in zip(menu, menu[1:]):
                if not b > a:
                    raise ValidationError(f"user {k}: rates must be strictly increasing")
        object.__setattr__(self, "rates", tuple(tuple(float(r) for r in m) for m in self.rates))

    @property
    def num_users(self) -> int:
        return len(self.rates)

    @property
    def num_classes(self) -> int:
        return len(self.rates[0])

    def rate(self, user: int, index: int) -> float:
        self._check_user(user)
        if not 1 <= index <= self.num_classes:
            raise ValidationError(f"rate index {index} outside 1..{self.num_classes}")
        return self.rates[user - 1][index - 1]

    def restrict(self, users: Sequence[int]) -> "RateTable":
        """Rate table of the subsystem formed by the given users, in sorted order."""
        for u in users:
            self._check_user(u)
        return RateTable(tuple(self.rates[u - 1] for u in sorted(users)))

    def _check_user(self, user: int):
        if not 1 <= user <= self.num_users:
            raise ValidationError(f"user {user} outside 1..{self.num_users}")


@record
class RateVectorIndex:
    """One rate class index per user, 1-based."""

    indices: tuple

    def __post_init__(self):
        if len(self.indices) == 0:
            raise ValidationError("empty rate vector")
        for i in self.indices:
            if not (isinstance(i, (int, np.integer)) and i >= 1):
                raise ValidationError(f"rate index {i!r} must be an integer >= 1")
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))

    def check_against(self, table: RateTable):
        if len(self.indices) != table.num_users:
            raise DimensionMismatch("rate vector length differs from user count")
        for i in self.indices:
            if i > table.num_classes:
                raise ValidationError(f"rate index {i} outside 1..{table.num_classes}")

    def index(self, user: int) -> int:
        return self.indices[user - 1]

    def restrict(self, users: Sequence[int]) -> "RateVectorIndex":
        return RateVectorIndex(tuple(self.indices[u - 1] for u in sorted(users)))

    def agrees_on(self, other: "RateVectorIndex", users) -> bool:
        return all(self.indices[u - 1] == other.indices[u - 1] for u in users)


class InputLaws:
    """Input distribution per (user, rate index), each a simplex vector."""

    def __init__(self, entries: Mapping[tuple, Sequence[float]]):
        laws = {}
        for (user, idx), vec in entries.items():
            arr = np.array(vec, dtype=float)
            if arr.ndim != 1:
                raise DimensionMismatch(f"law for user {user}, rate {idx} is not a vector")
            if np.any(arr < 0):
                raise NegativeEntry(f"law for user {user}, rate {idx} has a negative entry")
            s = arr.sum()
            if abs(s - 1.0) > SIMPLEX_TOL:
                raise RowSumOutOfTolerance(
                    f"law for user {user}, rate {idx} sums to {s!r}"
                )
            laws[(int(user), int(idx))] = _frozen_array(arr / s)
        self._laws = laws

    def law(self, user: int, index: int) -> np.ndarray:
        try:
            return self._laws[(user, index)]
        except KeyError:
            raise MissingLaw(f"no input law for user {user}, rate index {index}") from None

    def restrict(self, users: Sequence[int]) -> "InputLaws":
        """Laws of the subsystem formed by the given users, renumbered 1..len(users)."""
        sel = sorted(users)
        out = {}
        for (user, idx), vec in self._laws.items():
            if user in sel:
                out[(sel.index(user) + 1, idx)] = vec
        return InputLaws(out)


def uniform_laws(table: RateTable, input_size: int) -> InputLaws:
    vec = np.full(input_size, 1.0 / input_size)
    return InputLaws({
        (u, i): vec
        for u in range(1, table.num_users + 1)
        for i in range(1, table.num_classes + 1)
    })


def effective_channel(channel: Dmc, users: Sequence[int],
                      comp_rates: Mapping[int, int], laws: InputLaws) -> Dmc:
    """Channel seen by the users in `users` after averaging the rest out.

    The complementary users transmit at the rate classes given by comp_rates
    (1-based indices); their symbols are averaged under the matching input
    laws. users = all -> the channel itself (axes reordered to sorted order,
    which is a no-op since axes are already 1..K sorted).
    """
    sel = sorted(set(int(u) for u in users))
    if not sel:
        raise ValidationError("effective_channel needs a nonempty user set")
    for u in sel:
        if not 1 <= u <= channel.num_users:
            raise ValidationError(f"user {u} outside 1..{channel.num_users}")
    comp = [u for u in range(1, channel.num_users + 1) if u not in sel]
    weighted = channel.probs
    # Multiply in each complementary user's law along its axis, then sum the axis
    # out, highest axis first so earlier axis numbers stay valid.
    for u in sorted(comp, reverse=True):
        if u not in comp_rates:
            raise MissingLaw(f"no complement rate given for user {u}")
        vec = laws.law(u, comp_rates[u])
        if vec.shape != (channel.input_size,):
            raise DimensionMismatch(
                f"law for user {u} has length {vec.shape[0]}, expected {channel.input_size}"
            )
        shape = [1] * weighted.ndim
        shape[u - 1] = channel.input_size
        weighted = (weighted * vec.reshape(shape)).sum(axis=u - 1)
    return Dmc(len(sel), channel.input_size, channel.output_size, weighted)
