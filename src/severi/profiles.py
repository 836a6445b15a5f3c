"""Tangency profiles: finite multisets of positive contact orders.

A profile records how a curve meets a distinguished fiber, one entry per
contact point, the entry being the order of tangency there.  Profiles add
by multiset union, the integer k is identified with the profile 1^k of k
transverse contacts, and two profiles are equal exactly when they agree as
multisets.  The canonical stored form is non-increasing.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass


@dataclass(frozen=True, order=True, slots=True)
class Profile:
    """A multiset of tangency orders, kept in non-increasing order.

    A sum with an empty side returns the other operand itself; profiles
    are frozen, so sharing it is safe.

    >>> Profile((1, 2)) == Profile((2, 1))
    True
    >>> Profile((2, 1)) + Profile((3,))
    Profile(entries=(3, 2, 1))
    """

    entries: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.entries, reverse=True))
        if ordered and ordered[-1] < 1:
            raise ValueError(f"tangency orders must be positive: {self.entries!r}")
        object.__setattr__(self, "entries", ordered)

    @staticmethod
    def of(*entries: int) -> "Profile":
        return Profile(tuple(entries))

    @staticmethod
    def ones(k: int) -> "Profile":
        """The profile 1^k standing for the integer k."""
        if k < 0:
            raise ValueError("1^k needs k >= 0")
        return Profile((1,) * k)

    def __add__(self, other: "Profile") -> "Profile":
        if not other.entries:
            return self
        if not self.entries:
            return other
        return Profile(self.entries + other.entries)

    def __iter__(self):
        return iter(self.entries)

    @property
    def size(self) -> int:
        """Number of contact points, |alpha|."""
        return len(self.entries)

    @property
    def multiplicity(self) -> int:
        """Total contact order m(alpha), the sum of the entries.

        >>> Profile.of(2, 1, 1).multiplicity
        4
        """
        return sum(self.entries)

    def without(self, n: int) -> "Profile":
        """This profile with one entry ``n`` removed."""
        rest = list(self.entries)
        rest.remove(n)
        return Profile(tuple(rest))

    def counter(self) -> Counter:
        return Counter(self.entries)

    def to_json(self) -> list[int]:
        return list(self.entries)


def subprofiles(p: Profile) -> tuple[Profile, ...]:
    """All sub-multisets of ``p``, the empty and the full profile included.

    >>> [s.entries for s in subprofiles(Profile.of(1, 1))]
    [(), (1,), (1, 1)]
    """
    items = sorted(p.counter().items())
    out = set()
    for take in itertools.product(*(range(c + 1) for _, c in items)):
        entries = tuple(
            itertools.chain.from_iterable((v,) * k for (v, _), k in zip(items, take))
        )
        out.add(Profile(entries))
    return tuple(sorted(out))


def complement(p: Profile, sub: Profile) -> Profile:
    """Multiset difference p - sub; raises if ``sub`` is not contained in ``p``."""
    rest = p.counter()
    rest.subtract(sub.counter())
    if any(c < 0 for c in rest.values()):
        raise ValueError(f"{sub.entries} is not a subprofile of {p.entries}")
    return Profile(tuple(rest.elements()))


def remove_one_entry(p: Profile) -> tuple[Profile, ...]:
    """Profiles obtained by deleting one entry, one result per distinct value.

    >>> [s.entries for s in remove_one_entry(Profile.of(2, 1, 1))]
    [(1, 1), (2, 1)]
    """
    if p.size == 0:
        raise ValueError("cannot remove an entry from the empty profile")
    return tuple(sorted({p.without(value) for value in set(p.entries)}))


@functools.lru_cache(maxsize=None)
def partitions(m: int) -> tuple[Profile, ...]:
    """All integer partitions of ``m``, as profiles; cached, since profiles
    are frozen and every caller may share the tuple.

    >>> len(partitions(4))
    5
    """
    if m < 0:
        raise ValueError("partitions need m >= 0")
    out: list[Profile] = []

    def rec(rest: int, cap: int, acc: list[int]) -> None:
        if rest == 0:
            out.append(Profile(tuple(acc)))
            return
        for part in range(min(rest, cap), 0, -1):
            acc.append(part)
            rec(rest - part, part, acc)
            acc.pop()

    rec(m, m, [])
    return tuple(out)


@functools.lru_cache(maxsize=None)
def partition_count(m: int, cap: int) -> int:
    """The number p(m) of partitions of ``m``, or ``cap + 1`` if p(m) > cap.

    Euler's pentagonal recurrence builds p(0), p(1), ... and stops at the
    first value past ``cap``: p never decreases, so a huge ``m`` costs no more.

    >>> partition_count(4, 10), partition_count(10**9, 10)
    (5, 11)
    """
    if m < 0:
        raise ValueError("partitions need m >= 0")
    p = [1]
    while len(p) <= m and p[-1] <= cap:
        n, total, k = len(p), 0, 1
        while k * (3 * k - 1) // 2 <= n:
            for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
                if g <= n:
                    total += p[n - g] if k % 2 else -p[n - g]
            k += 1
        p.append(total)
    return min(p[-1], cap + 1)
