"""The E and s row rules past five variables, against row oracles that build no whole polynomial.

Each basis element is defined by its m-coordinate rows (``bases.m_coordinates``),
and ``test_bases.TestRows`` checks them against whole polynomials up to
n = 5; past that the bialternant takes seconds per element.  These oracles
count each row directly and read none of ``bases``:

- s: [x^kappa] s_lam is the Kostka number K_(lam, kappa), the number of
  chains of partitions from lam down to 0 that remove a horizontal strip of
  kappa_n boxes, then of kappa_(n-1), and so on (Macdonald, Symmetric
  Functions and Hall Polynomials, I §5-§6).
- E: E_lam = prod_i e_(lam'_i), lam' the conjugate partition, so
  [x^kappa] E_lam counts the 0/1 matrices whose row sums are the parts of
  lam' and whose column sums are kappa.
"""

import itertools
from functools import lru_cache

import pytest

from conftest import doubled_below_the_lead, whole_basis_element
from symfact import bases
from symfact.bases import m_coordinates
from symfact.partitions import Partition, enumerate_partitions, partitions_of_weight


@lru_cache(maxsize=None)
def kostka(lam: tuple[int, ...], kappa: tuple[int, ...]) -> int:
    """K_(lam, kappa): strips of kappa[-1], kappa[-2], ... boxes removed from lam, one after another, down to 0."""
    if not kappa:
        return int(not any(lam))
    # a horizontal strip has no two boxes in one column, so it takes at most
    # lam_i - lam_(i+1) boxes from the end of row i
    room = [a - b for a, b in zip(lam, lam[1:] + (0,))]
    return sum(
        kostka(tuple(a - t for a, t in zip(lam, take)), kappa[:-1])
        for take in itertools.product(*(range(r + 1) for r in room))
        if sum(take) == kappa[-1]
    )


@lru_cache(maxsize=None)
def zero_one_matrices(rows: tuple[int, ...], cols: tuple[int, ...]) -> int:
    """The number of 0/1 matrices with these row sums and column sums, filled one row at a time."""
    if not rows:
        return int(not any(cols))
    total = 0
    for ones in itertools.combinations(range(len(cols)), rows[0]):
        if all(cols[c] for c in ones):
            total += zero_one_matrices(rows[1:], tuple(c - (i in ones) for i, c in enumerate(cols)))
    return total


def conjugate(parts: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(a >= i for a in parts) for i in range(1, max(parts, default=0) + 1))


def oracle_rows(basis: str, lam: Partition) -> dict[tuple[int, ...], int]:
    """The nonzero rows of b_lam at the partitions kappa of |lam| with n parts, counted by the oracle."""
    rows = {}
    for kappa in partitions_of_weight(lam.weight(), lam.n):
        if basis == "s":
            count = kostka(lam.parts, kappa.parts)
        else:
            count = zero_one_matrices(conjugate(lam.parts), kappa.parts)
        if count:
            rows[kappa.parts] = count
    return rows


def mismatches(basis: str, n: int, max_weight: int = 6) -> list[Partition]:
    """The lam of weight <= max_weight whose m_coordinates differ from the oracle's rows."""
    return [lam for lam in enumerate_partitions(max_weight, n) if m_coordinates(basis, lam) != oracle_rows(basis, lam)]


@pytest.mark.parametrize("basis", ["E", "s"])
@pytest.mark.parametrize("n", [6, 7])
def test_rows_match_the_counting_oracle(basis, n):
    assert mismatches(basis, n) == []


@pytest.mark.parametrize("basis", ["E", "s"])
@pytest.mark.parametrize("n", range(1, 5))
def test_the_oracle_matches_the_whole_elements(basis, n):
    # the bialternant for s and the product of whole e_j's for E, at their partition exponents
    for lam in enumerate_partitions(6, n):
        whole = whole_basis_element(basis, lam)
        assert whole.den == 1
        assert oracle_rows(basis, lam) == {e: c for e, c in whole.num.items() if list(e) == sorted(e, reverse=True)}, lam


def test_known_counts():
    # K_((2,1),(1,1,1)) = 2 standard tableaux; E_(2,1) = e_2 e_1 has 3 at x^(1,1,1)
    assert kostka((2, 1, 0), (1, 1, 1)) == 2
    assert kostka((3, 0, 0), (1, 1, 1)) == 1
    assert kostka((1, 1, 1), (3, 0, 0)) == 0
    assert zero_one_matrices(conjugate((2, 1, 0)), (1, 1, 1)) == 3
    assert conjugate((3, 1, 0)) == (2, 1, 1)


@pytest.mark.parametrize("rule, basis", [("_schur_rows", "s"), ("_times_elementary", "E")])
def test_a_doubled_non_leading_row_is_caught_at_six_variables(monkeypatch, rule, basis):
    real = getattr(bases, rule)
    m_coordinates.cache_clear()
    monkeypatch.setattr(bases, rule, doubled_below_the_lead(real))
    try:
        caught = mismatches(basis, 6)
    finally:
        # the s rule recurses through the planted one, so its own cache holds doubled rows too
        monkeypatch.undo()
        m_coordinates.cache_clear()
        bases._schur_rows.cache_clear()
    assert caught
