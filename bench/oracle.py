"""Reference arithmetic for the benchmark's correctness gate.

Nothing here imports symfact: a polynomial is a dict from exponent tuples
to Fractions, and every identity the benchmark checks against is computed
from the paper's closed forms, so a defect in the library cannot also hide
in its own oracle.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def partitions(max_weight: int, n: int) -> list[tuple[int, ...]]:
    """Weakly decreasing n-tuples of weight <= max_weight, by weight then descending."""

    def rec(remaining: int, slots: int, cap: int):
        if slots == 1:
            if remaining <= cap:
                yield (remaining,)
            return
        for p in range(min(cap, remaining), -1, -1):
            if p * slots < remaining:
                break
            for rest in rec(remaining - p, slots - 1, p):
                yield (p,) + rest

    return [lam for w in range(max_weight + 1) for lam in rec(w, n, w)]


def shifted(lam: tuple[int, ...]) -> tuple[int, ...]:
    """lam + (n-1, ..., 1, 0)."""
    n = len(lam)
    return tuple(p + n - 1 - i for i, p in enumerate(lam))


def elementary(values, j: int) -> Fraction:
    """e_j of a list of numbers."""
    return Fraction(sum(math.prod(s) for s in itertools.combinations(values, j)))


def monomial_sum(lam: tuple[int, ...]) -> dict:
    """m_lam: every distinct permutation of lam with coefficient 1."""
    return {exp: Fraction(1) for exp in set(itertools.permutations(lam))}


def schur_q(lam: tuple[int, ...]) -> list[Fraction]:
    """Coefficients of the Schur eigenvalue polynomial q_lam(z), by degree.

    q = (n-1)! phi(z) / (z-1)^(n-1), phi = sum_j z^(mu_j) / prod_{k!=j} (mu_j - mu_k),
    mu = lam + staircase; q(1) = 1 and q(z) = s_lam(z, 1, ..., 1) / s_lam(1, ..., 1).
    """
    n = len(lam)
    mu = shifted(lam)
    coeffs = [Fraction(0)] * (mu[0] + 1)
    for j in range(n):
        coeffs[mu[j]] += Fraction(math.factorial(n - 1), math.prod(mu[j] - mu[k] for k in range(n) if k != j))
    for _ in range(n - 1):  # synthetic division by (z - 1)
        quot = [Fraction(0)] * (len(coeffs) - 1)
        carry = Fraction(0)
        for d in range(len(coeffs) - 1, 0, -1):
            carry += coeffs[d]
            quot[d - 1] = carry
        if carry + coeffs[0]:
            raise ArithmeticError(f"phi of {lam} is not divisible by (z-1)^(n-1)")
        coeffs = quot
    while len(coeffs) > 1 and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def product_of_q(q: list[Fraction], n: int) -> dict:
    """prod_j q(z_j) in n slots."""
    out = {}
    for exp in itertools.product(range(len(q)), repeat=n):
        c = math.prod((q[d] for d in exp), start=Fraction(1))
        if c:
            out[exp] = c
    return out


def add_scaled(acc: dict, terms: dict, c: Fraction) -> dict:
    """acc + c * terms, in place, dropping zero coefficients."""
    for exp, v in terms.items():
        s = acc.get(exp, 0) + c * v
        if s:
            acc[exp] = s
        else:
            acc.pop(exp, None)
    return acc


def restrict_to_first(terms: dict) -> list[Fraction]:
    """f(z, 1, ..., 1) as coefficients by degree."""
    out = [Fraction(0)] * (max((e[0] for e in terms), default=0) + 1)
    for exp, c in terms.items():
        out[exp[0]] += c
    while len(out) > 1 and not out[-1]:
        out.pop()
    return out


def drop_last_at_one(terms: dict) -> dict:
    """f(x_1, ..., x_n, 1): set the last slot to 1 and drop it."""
    return _collect((e[:-1], c) for e, c in terms.items())


def _collect(items) -> dict:
    out = {}
    for exp, c in items:
        out[exp] = out.get(exp, 0) + c
    return {e: c for e, c in out.items() if c}


def is_symmetric(terms: dict, k: int | None = None) -> bool:
    """Invariance under permutations of the first k slots (default all)."""
    for exp, c in terms.items():
        k_ = len(exp) if k is None else k
        for i in range(k_ - 1):
            swapped = exp[:i] + (exp[i + 1], exp[i]) + exp[i + 2:]
            if terms.get(swapped) != c:
                return False
    return True


def monomial_q(terms: dict, n: int) -> dict:
    """Q_z of the monomial basis: (1/n) sum_j f(..., z x_j, ...), z appended last."""
    return _collect((exp + (exp[j],), c / n) for exp, c in terms.items() for j in range(n))


def poly_to_json(terms: dict, prefix: str, n: int) -> dict:
    """The symfact polynomial JSON schema (term order is free on input)."""
    return {
        "vars": [f"{prefix}{i + 1}" for i in range(n)],
        "terms": [{"e": list(e), "c": str(c)} for e, c in sorted(terms.items())],
    }


def poly_from_json(data: dict) -> dict:
    return {tuple(t["e"]): Fraction(t["c"]) for t in data["terms"]}
