"""The spectral structure the three bases share, stated once.

Each basis (m, E, s) has a Q-operator that is diagonal with a univariate
eigenvalue polynomial q_lam(z), a separating map sending the normalized
basis element to prod_j q_lam(z_j), and a lift that appends a zero part.
Q, the separating map and the lift take the basis tag (and, where needed,
the basis's ``q_poly``) and work through :func:`symfact.bases.expand_with_tail`.
The two separation routes are driven here too: the rho-Q composition
(:func:`separate_via_q`) and the A-chain (:func:`separate_via_chain`), each
given one basis's operators.

The rho-Q route S_n = rho_0 Q_{z_1}...Q_{z_n} runs n-1 Q's and then one
fused step rho_0 Q_{z_1}, which never builds the last Q's output in the x's
only to set them to 1: on a diagonal basis it is
sum_lam b_lam(1..1) * tail_lam * q_lam(z_1) (:func:`rho0_diagonal_q`).
"""

from __future__ import annotations

from typing import Callable, Iterable

from .bases import basis_poly, combine, expand_in_basis, expand_with_tail
from .partitions import Partition
from .poly import MultiPoly, Pair, UniPoly, default_names, tensor_sum

QPoly = Callable[[Partition], UniPoly]


def eigen_product(q: UniPoly, n: int) -> MultiPoly:
    """prod_j q(z_j) over n z-slots."""
    names = default_names("z", n)
    acc = MultiPoly.one(n, names)
    for j in range(n):
        acc = acc * q.as_multipoly(n, j, names)
    return acc


def _tensor_sum(
    f: MultiPoly, basis: str, q_poly: QPoly, n: int, head: Callable[[MultiPoly], Pair]
) -> Pair:
    """The pair of sum_lam head(b_lam) * tail_lam * q_lam(z), f expanded in its first n slots."""
    return tensor_sum(
        (head(basis_poly(basis, lam).raw), *((p.num, p.den) for p in (tail, q_poly(lam).poly)))
        for lam, tail in expand_with_tail(f, basis, n).items()
    )


def diagonal_q(
    f: MultiPoly, basis: str, q_poly: QPoly, n_x: int | None = None, z_name: str = "z"
) -> MultiPoly:
    """Expand over the basis, scale each component by q_lam(z), reassemble.

    The first ``n_x`` slots (default all) are expanded; trailing slots hold
    earlier z's and ride along.  The new z slot is appended last: the result
    is sum_lam b_lam(x) * tail_lam * q_lam(z).
    """
    n = f.arity if n_x is None else n_x
    num, den = _tensor_sum(f, basis, q_poly, n, lambda b: (b.num, b.den))
    return MultiPoly._wrap(f.arity + 1, num, den, f.names + (z_name,))


def rho0_diagonal_q(
    f: MultiPoly, basis: str, q_poly: QPoly, n_x: int | None = None, z_name: str = "z"
) -> MultiPoly:
    """rho_0 after :func:`diagonal_q`, as one step: the first ``n_x`` slots set to 1.

    The result is sum_lam b_lam(1..1) * tail_lam * q_lam(z) in the trailing
    slots and the new z slot; b_lam(1..1) is read off b_lam's own numerators.
    """
    n = f.arity if n_x is None else n_x
    num, den = _tensor_sum(f, basis, q_poly, n, lambda b: ({(): sum(b.num.values())}, b.den))
    return MultiPoly._wrap(f.arity - n + 1, num, den, f.names[n:] + (z_name,))


def separate(f: MultiPoly, basis: str, q_poly: QPoly) -> MultiPoly:
    """Separating map: each component c b_lam goes to c b_lam(1..1) prod_j q_lam(z_j)."""
    n = f.arity
    acc = MultiPoly.zero(n, default_names("z", n))
    for lam, c in expand_in_basis(f, basis).items():
        acc = acc + eigen_product(q_poly(lam), n) * (c * basis_poly(basis, lam).value_at_one)
    return acc


def lift(f: MultiPoly, basis: str) -> MultiPoly:
    """Variable-adding operator: normalized b_lam goes to normalized b_(lam, 0)."""
    coeffs = {}
    for lam, c in expand_in_basis(f, basis).items():
        long = lam.with_trailing_zero()
        coeffs[long] = c * basis_poly(basis, lam).value_at_one / basis_poly(basis, long).value_at_one
    return combine(basis, f.arity + 1, coeffs)


def separate_via_q(
    f: MultiPoly, apply_q: Callable[..., MultiPoly], apply_rho0_q: Callable[..., MultiPoly]
) -> MultiPoly:
    """rho_0 composed with n Q's of one basis, output in z_1..z_n.

    ``apply_q`` runs Q_{z_n}..Q_{z_2}; the last Q and rho_0 are the one fused
    step ``apply_rho0_q``, both called as (h, n_x=n, z_name=...).
    """
    n = f.arity
    h = f
    for i in range(n, 1, -1):
        h = apply_q(h, n_x=n, z_name=f"z{i}")
    h = apply_rho0_q(h, n_x=n, z_name="z1")
    return h.permute(list(range(n - 1, -1, -1)))


def separate_via_chain(f: MultiPoly, apply_a: Callable[[MultiPoly, int, int], MultiPoly]) -> MultiPoly:
    """The A-chain of one basis, output in z_1..z_n.

    ``apply_a(g, k, n)`` is the k-th chain link; the links run k = n down to
    1, and each leaves z_k in slot k.
    """
    n = f.arity
    g = f
    for k in range(n, 0, -1):
        g = apply_a(g, k, n)
    return g.rename(default_names("z", n))


def euler_residual(p: UniPoly, exponents: Iterable[int]) -> UniPoly:
    """prod_j (z d/dz - a_j) applied to p: zero iff p is a combination of the z^(a_j)."""
    for a in exponents:
        p = p.euler() - p * a
    return p
