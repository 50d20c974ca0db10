"""Partitions of fixed length, dominance order, staircase shift, enumeration.

A partition here always has an explicit length ``n``: trailing zeros are
significant, since the lifting operators change the number of variables.
"""

from __future__ import annotations

from typing import Iterator

from .poly import PolyError


class Partition:
    """Weakly decreasing tuple of nonnegative integers, fixed length; immutable, equal only to a Partition."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...]):
        if not parts:
            raise PolyError("partition must have length >= 1")
        if any(type(p) is not int or p < 0 for p in parts):
            raise PolyError(f"parts must be nonnegative integers: {parts}")
        if any(a < b for a, b in zip(parts, parts[1:])):
            raise PolyError(f"parts must be weakly decreasing: {parts}")
        object.__setattr__(self, "parts", parts)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Partition, (self.parts,)

    def __eq__(self, other):
        return self.parts == other.parts if other.__class__ is Partition else NotImplemented

    def __hash__(self):
        return hash((self.parts,))

    def __lt__(self, other):
        return self.parts < other.parts if other.__class__ is Partition else NotImplemented

    def __le__(self, other):
        return self.parts <= other.parts if other.__class__ is Partition else NotImplemented

    def __gt__(self, other):
        return self.parts > other.parts if other.__class__ is Partition else NotImplemented

    def __ge__(self, other):
        return self.parts >= other.parts if other.__class__ is Partition else NotImplemented

    def __repr__(self):
        return f"Partition{self.parts}"

    @property
    def n(self) -> int:
        return len(self.parts)

    def weight(self) -> int:
        return sum(self.parts)

    def steps(self) -> tuple[int, ...]:
        """(lam_1 - lam_2, ..., lam_(n-1) - lam_n, lam_n): the exponent of each e_j in E_lam."""
        return tuple(a - b for a, b in zip(self.parts, self.parts[1:] + (0,)))

    def shifted(self) -> tuple[int, ...]:
        """mu = lambda + staircase (n-1, n-2, ..., 0), strictly decreasing."""
        n = self.n
        return tuple(p + n - 1 - i for i, p in enumerate(self.parts))

    def with_trailing_zero(self) -> "Partition":
        return Partition(self.parts + (0,))


def dominance_leq(mu: Partition, lam: Partition) -> bool:
    """True iff the weights agree and every prefix sum of mu is <= lam's."""
    if mu.n != lam.n:
        raise PolyError("dominance comparison needs equal lengths")
    if mu.weight() != lam.weight():
        return False
    acc_m = acc_l = 0
    for a, b in zip(mu.parts, lam.parts):
        acc_m += a
        acc_l += b
        if acc_m > acc_l:
            return False
    return True


def partitions_of_weight(w: int, n: int) -> Iterator[Partition]:
    """Partitions of weight exactly w and length n, descending lex order."""

    def rec(remaining: int, slots: int, cap: int) -> Iterator[tuple[int, ...]]:
        if slots == 1:
            if remaining <= cap:
                yield (remaining,)
            return
        lo = -(-remaining // slots)  # ceil: keep weak decrease feasible
        for p in range(min(cap, remaining), lo - 1, -1):
            for rest in rec(remaining - p, slots - 1, p):
                yield (p,) + rest

    for parts in rec(w, n, w):
        yield Partition(parts)


def enumerate_partitions(max_weight: int, n: int) -> list[Partition]:
    """All partitions of length n with weight <= max_weight.

    Deterministic order: by weight, then descending lex within a weight.
    """
    if max_weight < 0 or n < 1:
        raise PolyError("need max_weight >= 0 and n >= 1")
    out: list[Partition] = []
    for w in range(max_weight + 1):
        out.extend(partitions_of_weight(w, n))
    return out
