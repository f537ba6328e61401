"""The strided-shard protocol every partitioned result shares.

A population of ``n`` members — the wearers of a fleet, the cases of a
chaos campaign, the wearers an oracle-replay dataset records — splits
into ``count`` strided shards: shard ``index`` owns every member ``k``
with ``k % count == index``.  Striding keeps the shards balanced for
any population size, and because each member draws its randomness
only from ``seed + k``, a shard materializes its own members without
generating the rest.

A shard result carries raw per-member records, never a premature
reduction (percentiles do not compose).  A merge accepts exactly one
complete partition — one spec, one count, each shard ``0..count-1``
exactly once — and then runs the same single reduction the unsharded
path runs, so the merged payload is bitwise-identical to an unsharded
run.  :class:`~repro.fleet.result.PartialFleetResult`,
:class:`~repro.chaos.campaign.PartialCampaignResult` and
:class:`~repro.learn.dataset.Dataset` are built on these checks, which
also guard the ``"shard": [index, count]`` pair of their files.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, Sequence

from repro.errors import SpecError

__all__ = ["check_shard", "members", "check_members", "check_partition"]


def check_shard(shard: Any) -> tuple[int, int]:
    """A validated ``(index, count)`` shard position.

    Accepts the tuple a caller passes or the ``[index, count]`` list a
    shard file stores: two integers (not booleans) with ``count >= 1``
    and ``0 <= index < count``.

    >>> check_shard([1, 3])
    (1, 3)
    """
    if not isinstance(shard, (list, tuple)) or len(shard) != 2:
        raise SpecError(
            f"shard must be an (index, count) pair, got {shard!r}")
    index, count = shard
    for label, value in (("shard index", index), ("shard count", count)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise SpecError(f"{label} must be an integer, got {value!r}")
    if count < 1:
        raise SpecError(f"shard count must be at least 1, got {count}")
    if not 0 <= index < count:
        raise SpecError(f"shard index {index} outside partition of {count}")
    return index, count


def members(n: int, shard: Any) -> range:
    """The members of a population of ``n`` that ``shard`` owns.

    Shards past the population's end are legitimately empty (a cluster
    can over-partition a small fleet).

    >>> list(members(7, (1, 3)))
    [1, 4]
    """
    index, count = check_shard(shard)
    return range(index, n, count)


def check_members(keys: Iterable[tuple[Hashable, ...]], shard: Any,
                  n: int | None, noun: str) -> None:
    """Check the record keys one shard carries.

    Each key is a tuple whose first item is the member index that
    decides ownership (a wearer, a case); further items tell apart
    several records of one member (a case runs once per policy, a
    wearer yields many dataset samples).  Every member must be a
    non-negative integer owned by ``shard`` and below ``n`` (when the
    population size is known), and no key may repeat.  Errors name the
    offending ``noun`` (``"wearer"``, ``"case"``).
    """
    index, count = check_shard(shard)
    seen = set()
    for key in keys:
        member = key[0]
        if (isinstance(member, bool) or not isinstance(member, int)
                or member < 0):
            raise SpecError(
                f"{noun} index must be a non-negative integer, "
                f"got {member!r}")
        if n is not None and member >= n:
            raise SpecError(
                f"{noun} {member} outside the population of {n}")
        if member % count != index:
            raise SpecError(
                f"{noun} {member} does not belong to shard {index}/{count}")
        if key in seen:
            raise SpecError(
                f"duplicate {noun} {member} record in shard "
                f"{index}/{count}")
        seen.add(key)


def check_partition(parts: Sequence[Any], kind: str) -> list[Any]:
    """``parts`` as a list, once they form one complete partition.

    Every part carries ``spec``, ``shard_index`` and ``shard_count``.
    The parts must be non-empty, share one spec and one count, and hold
    each shard ``0..count-1`` exactly once; the error names the missing
    and duplicated shard indices.  ``kind`` (``"fleet"``,
    ``"campaign"``, ``"dataset"``) labels the messages.
    """
    parts = list(parts)
    if not parts:
        raise SpecError(f"cannot merge zero {kind} shards")
    first = parts[0]
    for part in parts:
        if part.spec != first.spec:
            raise SpecError(
                f"{kind} shards describe different {kind}s: shard "
                f"{part.shard_index}/{part.shard_count} does not carry "
                f"the spec of shard {first.shard_index}/"
                f"{first.shard_count} (every shard must carry the "
                "identical spec)")
    counts = sorted({part.shard_count for part in parts})
    if len(counts) != 1:
        raise SpecError(
            f"{kind} shards disagree on the partition size: {counts}")
    count = counts[0]
    seen = [part.shard_index for part in parts]
    missing = sorted(set(range(count)) - set(seen))
    duplicated = sorted({index for index in seen if seen.count(index) > 1})
    if missing or duplicated:
        problems = [f"{label} {indices}" for label, indices
                    in (("missing", missing), ("duplicated", duplicated))
                    if indices]
        raise SpecError(
            f"{kind} merge needs each shard 0..{count - 1} exactly once: "
            + ", ".join(problems))
    return parts
