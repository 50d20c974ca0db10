"""Partitions: weight, dominance, staircase shift, enumeration."""

import itertools
import pickle

import pytest

from symfact import bases
from symfact.partitions import (
    Partition,
    dominance_leq,
    enumerate_partitions,
    partitions_of_weight,
)
from symfact.poly import PolyError


def brute_force_partitions(max_weight, n):
    """Independent oracle: filter all weakly decreasing tuples."""
    found = []
    for parts in itertools.product(range(max_weight + 1), repeat=n):
        if sum(parts) <= max_weight and all(a >= b for a, b in zip(parts, parts[1:])):
            found.append(parts)
    return set(found)


def test_weight():
    assert Partition((2, 1, 0)).weight() == 3
    assert Partition((0, 0)).weight() == 0
    assert Partition((3, 3, 1)).weight() == 7


def test_validation():
    with pytest.raises(PolyError):
        Partition((1, 2))
    with pytest.raises(PolyError):
        Partition((1, -1))
    with pytest.raises(PolyError):
        Partition((True, False))


def test_steps_end_with_the_last_part():
    assert Partition((3, 1, 0)).steps() == (2, 1, 0)
    assert Partition((3, 1)).steps() == (2, 1)
    assert Partition((4,)).steps() == (4,)
    assert Partition((2, 2, 1)).steps() == (0, 1, 1)


def test_dominance():
    assert dominance_leq(Partition((1, 1, 1)), Partition((3, 0, 0)))
    assert dominance_leq(Partition((2, 1)), Partition((2, 1)))
    assert dominance_leq(Partition((2, 2, 0)), Partition((3, 1, 0)))
    assert not dominance_leq(Partition((3, 1, 0)), Partition((2, 2, 0)))
    assert not dominance_leq(Partition((1, 0)), Partition((2, 0)))  # weights differ
    with pytest.raises(PolyError):
        dominance_leq(Partition((1,)), Partition((1, 0)))


def test_dominance_is_partial_order_on_sweep():
    sweep = enumerate_partitions(5, 3)
    for a in sweep:
        assert dominance_leq(a, a)
    for a, b in itertools.permutations(sweep, 2):
        if dominance_leq(a, b) and dominance_leq(b, a):
            assert a == b
    for a, b, c in itertools.permutations(sweep, 3):
        if dominance_leq(a, b) and dominance_leq(b, c):
            assert dominance_leq(a, c)


def test_staircase_shift():
    assert Partition((1, 0)).shifted() == (2, 0)
    assert Partition((0, 0, 0)).shifted() == (2, 1, 0)
    assert Partition((2, 1, 0)).shifted() == (4, 2, 0)


def test_shift_is_strictly_decreasing_with_weight_offset():
    for lam in enumerate_partitions(6, 4):
        mu = lam.shifted()
        assert type(mu) is tuple
        assert all(a > b for a, b in zip(mu, mu[1:]))
        assert sum(mu) == lam.weight() + 4 * 3 // 2


def test_enumeration_small():
    assert [p.parts for p in enumerate_partitions(1, 2)] == [(0, 0), (1, 0)]
    assert [p.parts for p in enumerate_partitions(2, 2)] == [(0, 0), (1, 0), (2, 0), (1, 1)]


def test_enumeration_matches_brute_force():
    for max_weight, n in [(4, 3), (6, 2), (5, 4)]:
        got = enumerate_partitions(max_weight, n)
        assert len(got) == len(set(got)), "no duplicates"
        assert {p.parts for p in got} == brute_force_partitions(max_weight, n)
    assert len(enumerate_partitions(4, 3)) == 11


def test_enumeration_order_is_by_weight_then_desc_lex():
    sweep = enumerate_partitions(3, 3)
    weights = [p.weight() for p in sweep]
    assert weights == sorted(weights)
    for w in set(weights):
        block = [p.parts for p in sweep if p.weight() == w]
        assert block == sorted(block, reverse=True)


def test_partitions_of_weight_exact():
    assert [p.parts for p in partitions_of_weight(3, 2)] == [(3, 0), (2, 1)]


class TestValueSemantics:
    """Partitions are immutable values: cache keys, sort keys, readable reprs."""

    def test_equal_only_within_a_class(self):
        assert Partition((2, 1)) == Partition((2, 1))
        assert Partition((2, 1)) != (2, 1)
        assert (2, 1) != Partition((2, 1))
        assert Partition((2, 1)).shifted() == (3, 1)

    def test_equal_parts_hash_equal_and_order_is_by_parts(self):
        sweep = enumerate_partitions(6, 4)
        rebuilt = [Partition(tuple(lam.parts)) for lam in sweep]
        assert [hash(a) for a in sweep] == [hash(b) for b in rebuilt]
        assert [lam.parts for lam in sorted(sweep)] == sorted(lam.parts for lam in sweep)
        assert len(set(sweep + rebuilt)) == len(sweep)

    def test_repr(self):
        assert repr(Partition((2, 1, 0))) == "Partition(2, 1, 0)"

    def test_parts_cannot_be_assigned(self):
        value = Partition((2, 1))
        with pytest.raises(AttributeError):
            value.parts = (3, 0)
        with pytest.raises(AttributeError):
            del value.parts
        with pytest.raises(AttributeError):
            value.other = 1
        assert value.parts == (2, 1)
        assert pickle.loads(pickle.dumps(value)) == value

    def test_basis_caches_hit_on_a_rebuilt_partition(self):
        first = bases.basis_poly("s", Partition((2, 1, 0)))
        hits = bases.basis_poly.cache_info().hits
        again = bases.basis_poly("s", Partition(tuple([2, 1, 0])))
        assert again is first
        assert bases.basis_poly.cache_info().hits == hits + 1
