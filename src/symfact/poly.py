"""Exact polynomial arithmetic: sparse multivariate and dense univariate.

Coefficients are `fractions.Fraction` everywhere; nothing in this module
touches floating point.  A :class:`MultiPoly` maps exponent tuples to nonzero
coefficients and carries display names for its variable slots.  The canonical
term order for serialization and for exact division is graded reverse
lexicographic (grevlex).
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

Exponent = tuple[int, ...]
Scalar = int | Fraction

_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


class PolyError(ValueError):
    """Structural misuse: arity mismatch, bad slot index, malformed input."""


class NotDivisible(PolyError):
    """Exact division was requested but a nonzero remainder appeared."""


class NotSymmetric(PolyError):
    """An operation requiring a symmetric polynomial got an asymmetric one."""


class InvariantViolation(RuntimeError):
    """A cross-check that must hold mathematically has failed."""


def grevlex_key(exp: Exponent) -> tuple:
    """Sort key that orders exponents ascending under grevlex."""
    return (sum(exp), tuple(-e for e in reversed(exp)))


def default_names(prefix: str, arity: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i + 1}" for i in range(arity))


class MultiPoly:
    """Immutable sparse polynomial in ``arity`` named slots.

    ``terms`` maps exponent tuples (length = arity, entries >= 0) to nonzero
    Fraction coefficients.  Variable names are display metadata: equality
    compares arity and terms only, so a polynomial in ``(x1, x2)`` equals the
    same polynomial relabelled ``(z1, z2)``.
    """

    __slots__ = ("arity", "terms", "names")

    def __init__(
        self,
        arity: int,
        terms: Mapping[Exponent, Scalar] | Iterable[tuple[Exponent, Scalar]] = (),
        names: Sequence[str] | None = None,
    ):
        if arity < 0:
            raise PolyError("arity must be nonnegative")
        if names is None:
            names = default_names("x", arity)
        names = tuple(names)
        if len(names) != arity:
            raise PolyError(f"{len(names)} names for arity {arity}")
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[Exponent, Fraction] = {}
        for exp, coeff in items:
            exp = tuple(exp)
            if len(exp) != arity:
                raise PolyError(f"exponent {exp} has length != arity {arity}")
            if any(e < 0 for e in exp):
                raise PolyError(f"negative exponent in {exp}")
            c = clean.get(exp, Fraction(0)) + Fraction(coeff)
            if c:
                clean[exp] = c
            else:
                clean.pop(exp, None)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "names", names)

    def __setattr__(self, *_):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, arity: int, names: Sequence[str] | None = None) -> "MultiPoly":
        return cls(arity, (), names)

    @classmethod
    def const(cls, arity: int, value: Scalar, names: Sequence[str] | None = None) -> "MultiPoly":
        return cls(arity, {(0,) * arity: Fraction(value)}, names)

    @classmethod
    def one(cls, arity: int, names: Sequence[str] | None = None) -> "MultiPoly":
        return cls.const(arity, 1, names)

    @classmethod
    def variable(cls, slot: int, arity: int, names: Sequence[str] | None = None) -> "MultiPoly":
        if not 0 <= slot < arity:
            raise PolyError(f"slot {slot} out of range for arity {arity}")
        exp = tuple(1 if i == slot else 0 for i in range(arity))
        return cls(arity, {exp: Fraction(1)}, names)

    # -- basic queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def leading_exp(self, order: str = "grevlex") -> Exponent:
        if self.is_zero:
            raise PolyError("zero polynomial has no leading term")
        if order == "grevlex":
            return max(self.terms, key=grevlex_key)
        if order == "lex":
            return max(self.terms)
        raise PolyError(f"unknown order {order!r}")

    def sorted_terms(self) -> list[tuple[Exponent, Fraction]]:
        """Terms in descending grevlex order (the serialization order)."""
        return sorted(self.terms.items(), key=lambda t: grevlex_key(t[0]), reverse=True)

    def constant(self) -> Fraction:
        """The value of a constant polynomial (raises if nonconstant)."""
        if self.is_zero:
            return Fraction(0)
        if len(self.terms) == 1 and (0,) * self.arity in self.terms:
            return self.terms[(0,) * self.arity]
        raise PolyError("polynomial is not constant")

    def __eq__(self, other) -> bool:
        if isinstance(other, MultiPoly):
            return self.arity == other.arity and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == MultiPoly.const(self.arity, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.arity, frozenset(self.terms.items())))

    # -- ring operations ---------------------------------------------------

    def _check_arity(self, other: "MultiPoly"):
        if self.arity != other.arity:
            raise PolyError(f"arity mismatch: {self.arity} vs {other.arity}")

    def __add__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.arity, other, self.names)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_arity(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            s = out.get(exp, Fraction(0)) + c
            if s:
                out[exp] = s
            else:
                out.pop(exp, None)
        return MultiPoly(self.arity, out, self.names)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.arity, {e: -c for e, c in self.terms.items()}, self.names)

    def __sub__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.arity, other, self.names)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "MultiPoly":
        return (-self) + other

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return MultiPoly.zero(self.arity, self.names)
            return MultiPoly(self.arity, {e: k * c for e, k in self.terms.items()}, self.names)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_arity(other)
        out: dict[Exponent, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(exp, Fraction(0)) + c1 * c2
                if s:
                    out[exp] = s
                else:
                    out.pop(exp, None)
        return MultiPoly(self.arity, out, self.names)

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "MultiPoly":
        if not isinstance(power, int) or power < 0:
            raise PolyError("power must be a nonnegative integer")
        result = MultiPoly.one(self.arity, self.names)
        base = self
        while power:
            if power & 1:
                result = result * base
            base = base * base if power > 1 else base
            power >>= 1
        return result

    def divide_exact(self, den: "MultiPoly") -> "MultiPoly":
        """Exact quotient ``q`` with ``q * den == self``.

        Multivariate division by leading-term reduction under grevlex; a
        reduction step that cannot proceed, or a leftover remainder, raises
        :class:`NotDivisible`.
        """
        if not isinstance(den, MultiPoly):
            den = MultiPoly.const(self.arity, den, self.names)
        self._check_arity(den)
        if den.is_zero:
            raise PolyError("division by zero polynomial")
        rem = dict(self.terms)
        d_exp = den.leading_exp()
        d_coeff = den.terms[d_exp]
        quot: dict[Exponent, Fraction] = {}
        while rem:
            lead = max(rem, key=grevlex_key)
            shift = tuple(a - b for a, b in zip(lead, d_exp))
            if any(s < 0 for s in shift):
                raise NotDivisible(f"leading term {lead} not reducible by {d_exp}")
            c = rem[lead] / d_coeff
            quot[shift] = c
            for e2, c2 in den.terms.items():
                exp = tuple(a + b for a, b in zip(shift, e2))
                s = rem.get(exp, Fraction(0)) - c * c2
                if s:
                    rem[exp] = s
                else:
                    rem.pop(exp, None)
        return MultiPoly(self.arity, quot, self.names)

    # -- evaluation and substitution ----------------------------------------

    def eval(self, point: Sequence[Scalar]) -> Fraction:
        if len(point) != self.arity:
            raise PolyError("point length != arity")
        pt = [Fraction(v) for v in point]
        total = Fraction(0)
        for exp, c in self.terms.items():
            v = c
            for x, e in zip(pt, exp):
                if e:
                    v *= x**e
            total += v
        return total

    def partial_eval(self, assignments: Mapping[int, Scalar]) -> "MultiPoly":
        """Evaluate some slots at fixed values and drop them from the arity."""
        for slot in assignments:
            if not 0 <= slot < self.arity:
                raise PolyError(f"slot {slot} out of range")
        vals = {s: Fraction(v) for s, v in assignments.items()}
        keep = [i for i in range(self.arity) if i not in vals]
        out: dict[Exponent, Fraction] = {}
        for exp, c in self.terms.items():
            factor = c
            for s, v in vals.items():
                if exp[s]:
                    factor *= v ** exp[s]
            if not factor:
                continue
            new_exp = tuple(exp[i] for i in keep)
            s2 = out.get(new_exp, Fraction(0)) + factor
            if s2:
                out[new_exp] = s2
            else:
                out.pop(new_exp, None)
        return MultiPoly(len(keep), out, tuple(self.names[i] for i in keep))

    def substitute(self, images: Sequence["MultiPoly"]) -> "MultiPoly":
        """Exact composition: replace slot i by ``images[i]``.

        All images must share one arity; the result lives in that arity.
        """
        if len(images) != self.arity:
            raise PolyError("need one image per slot")
        if not images:
            return MultiPoly(0, {(): self.constant()} if self.terms else ())
        target = images[0].arity
        names = images[0].names
        for g in images:
            if g.arity != target:
                raise PolyError("images must share one arity")
        powers: list[dict[int, MultiPoly]] = [{} for _ in images]
        result = MultiPoly.zero(target, names)
        for exp, c in self.terms.items():
            term = MultiPoly.const(target, c, names)
            for i, e in enumerate(exp):
                if not e:
                    continue
                cache = powers[i]
                if e not in cache:
                    cache[e] = images[i] ** e
                term = term * cache[e]
            result = result + term
        return result

    # -- differential operators ----------------------------------------------

    def diff(self, slot: int) -> "MultiPoly":
        """Formal partial derivative in one slot."""
        if not 0 <= slot < self.arity:
            raise PolyError(f"slot {slot} out of range")
        out: dict[Exponent, Fraction] = {}
        for exp, c in self.terms.items():
            e = exp[slot]
            if not e:
                continue
            new = list(exp)
            new[slot] = e - 1
            out[tuple(new)] = c * e
        return MultiPoly(self.arity, out, self.names)

    def euler(self, slot: int) -> "MultiPoly":
        """Degree-grading derivation x d/dx on one slot."""
        if not 0 <= slot < self.arity:
            raise PolyError(f"slot {slot} out of range")
        return MultiPoly(
            self.arity,
            {e: c * e[slot] for e, c in self.terms.items() if e[slot]},
            self.names,
        )

    def scale_terms(self, weight: Callable[[Exponent], Scalar]) -> "MultiPoly":
        """Multiply each term's coefficient by a function of its exponent."""
        return MultiPoly(
            self.arity,
            {e: c * Fraction(weight(e)) for e, c in self.terms.items()},
            self.names,
        )

    # -- slot surgery --------------------------------------------------------

    def extend(self, extra: int, new_names: Sequence[str] | None = None) -> "MultiPoly":
        """Append ``extra`` fresh slots (all exponents zero)."""
        if extra < 0:
            raise PolyError("extra must be nonnegative")
        if new_names is None:
            new_names = default_names("z", extra)
        if len(new_names) != extra:
            raise PolyError("need one name per new slot")
        pad = (0,) * extra
        return MultiPoly(
            self.arity + extra,
            {e + pad: c for e, c in self.terms.items()},
            self.names + tuple(new_names),
        )

    def insert_slot(self, pos: int, name: str) -> "MultiPoly":
        """Insert a fresh slot before position ``pos``."""
        if not 0 <= pos <= self.arity:
            raise PolyError(f"position {pos} out of range")
        return MultiPoly(
            self.arity + 1,
            {e[:pos] + (0,) + e[pos:]: c for e, c in self.terms.items()},
            self.names[:pos] + (name,) + self.names[pos:],
        )

    def permute(self, perm: Sequence[int]) -> "MultiPoly":
        """Send slot i to slot perm[i]."""
        if sorted(perm) != list(range(self.arity)):
            raise PolyError("perm must be a permutation of the slots")
        names = [""] * self.arity
        for i, p in enumerate(perm):
            names[p] = self.names[i]
        out = {}
        for exp, c in self.terms.items():
            new = [0] * self.arity
            for i, p in enumerate(perm):
                new[p] = exp[i]
            out[tuple(new)] = c
        return MultiPoly(self.arity, out, names)

    def swap_slots(self, i: int, j: int) -> "MultiPoly":
        perm = list(range(self.arity))
        perm[i], perm[j] = perm[j], perm[i]
        return self.permute(perm)

    def rename(self, names: Sequence[str]) -> "MultiPoly":
        return MultiPoly(self.arity, self.terms, names)

    def is_symmetric(self, k: int | None = None) -> bool:
        """Symmetry under permutations of the first ``k`` slots (default all)."""
        k = self.arity if k is None else k
        for i in range(k - 1):
            if self.swap_slots(i, i + 1) != self:
                return False
        return True

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "vars": list(self.names),
            "terms": [
                {"e": list(exp), "c": str(c)} for exp, c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "MultiPoly":
        """Parse the JSON form strictly; any schema violation is a PolyError.

        ``vars`` is a list of strings; each term's ``e`` is a list of one
        non-negative int per variable and its ``c`` an int or a string
        "p" or "p/q".  Floats, bools and repeated exponents are rejected.
        """
        if not isinstance(data, Mapping) or not all(
            isinstance(data.get(key), list) for key in ("vars", "terms")
        ):
            raise PolyError('polynomial JSON must be an object with "vars" and "terms" lists')
        names = tuple(data["vars"])
        if not all(isinstance(v, str) for v in names):
            raise PolyError("variable names must be strings")
        terms: dict[Exponent, Fraction] = {}
        for t in data["terms"]:
            if not isinstance(t, Mapping) or "e" not in t or "c" not in t:
                raise PolyError(f'each term must be an object with "e" and "c": {t!r}')
            e, c = t["e"], t["c"]
            if not (
                isinstance(e, list)
                and len(e) == len(names)
                and all(type(a) is int and a >= 0 for a in e)
            ):
                raise PolyError(f"exponent {e!r} must be {len(names)} non-negative integers")
            if tuple(e) in terms:
                raise PolyError(f"exponent {e!r} appears twice")
            terms[tuple(e)] = _parse_coeff(c)
        return cls(len(names), terms, names)

    def pretty(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for exp, c in self.sorted_terms():
            factors = [
                self.names[i] if e == 1 else f"{self.names[i]}^{e}"
                for i, e in enumerate(exp)
                if e
            ]
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            elif c == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(f"{c}*" + "*".join(factors))
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self):
        return f"MultiPoly({self.pretty()})"


def _parse_coeff(c) -> Fraction:
    """A JSON coefficient: an int, or a string "p" or "p/q" with q nonzero."""
    if type(c) is int:
        return Fraction(c)
    if isinstance(c, str) and _RATIONAL.fullmatch(c):
        try:
            return Fraction(c)
        except ZeroDivisionError:
            raise PolyError(f"coefficient {c!r} has a zero denominator") from None
    raise PolyError(f'coefficient {c!r} must be an int or a string "p" or "p/q"')


def det(matrix: Sequence[Sequence[MultiPoly]]) -> MultiPoly:
    """Exact determinant of a square matrix of polynomials.

    Cofactor expansion up to order 5, fraction-free (Bareiss) elimination
    with exact division above that.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise PolyError("matrix is not square")
    if n == 0:
        raise PolyError("empty matrix")
    arity = matrix[0][0].arity
    names = matrix[0][0].names
    for row in matrix:
        for entry in row:
            if entry.arity != arity:
                raise PolyError("matrix entries must share one arity")
    if n <= 5:
        return _det_cofactor([list(row) for row in matrix])
    return _det_bareiss([list(row) for row in matrix], arity, names)


def _det_cofactor(m: list[list[MultiPoly]]) -> MultiPoly:
    n = len(m)
    if n == 1:
        return m[0][0]
    acc = MultiPoly.zero(m[0][0].arity, m[0][0].names)
    for j in range(n):
        if m[0][j].is_zero:
            continue
        minor = [[m[i][c] for c in range(n) if c != j] for i in range(1, n)]
        term = m[0][j] * _det_cofactor(minor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def _det_bareiss(m: list[list[MultiPoly]], arity: int, names) -> MultiPoly:
    n = len(m)
    sign = 1
    prev = MultiPoly.one(arity, names)
    for k in range(n - 1):
        if m[k][k].is_zero:
            pivot = next((r for r in range(k + 1, n) if not m[r][k].is_zero), None)
            if pivot is None:
                return MultiPoly.zero(arity, names)
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]).divide_exact(prev)
        prev = m[k][k]
    result = m[n - 1][n - 1]
    return result if sign == 1 else -result


class UniPoly:
    """Dense exact polynomial in one variable, coefficients by degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *_):
        raise AttributeError("UniPoly is immutable")

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls(())

    @classmethod
    def const(cls, value: Scalar) -> "UniPoly":
        return cls((value,))

    @classmethod
    def monomial(cls, degree: int, coeff: Scalar = 1) -> "UniPoly":
        return cls((0,) * degree + (coeff,))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, d: int) -> Fraction:
        return self.coeffs[d] if 0 <= d < len(self.coeffs) else Fraction(0)

    def __eq__(self, other) -> bool:
        if isinstance(other, UniPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == UniPoly.const(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other) -> "UniPoly":
        if isinstance(other, (int, Fraction)):
            other = UniPoly.const(other)
        if not isinstance(other, UniPoly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(self[d] + other[d] for d in range(n))

    __radd__ = __add__

    def __neg__(self) -> "UniPoly":
        return UniPoly(-c for c in self.coeffs)

    def __sub__(self, other) -> "UniPoly":
        if isinstance(other, (int, Fraction)):
            other = UniPoly.const(other)
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "UniPoly":
        return (-self) + other

    def __mul__(self, other) -> "UniPoly":
        if isinstance(other, (int, Fraction)):
            return UniPoly(c * Fraction(other) for c in self.coeffs)
        if not isinstance(other, UniPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return UniPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "UniPoly":
        if not isinstance(power, int) or power < 0:
            raise PolyError("power must be a nonnegative integer")
        result = UniPoly.const(1)
        for _ in range(power):
            result = result * self
        return result

    def eval(self, x: Scalar) -> Fraction:
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "UniPoly":
        return UniPoly(self.coeffs[d] * d for d in range(1, len(self.coeffs)))

    def euler(self) -> "UniPoly":
        """z d/dz: scale the degree-d coefficient by d."""
        return UniPoly(c * d for d, c in enumerate(self.coeffs))

    def divide_exact(self, den: "UniPoly") -> "UniPoly":
        if den.is_zero:
            raise PolyError("division by zero polynomial")
        rem = list(self.coeffs)
        dd = den.degree
        lead = den.coeffs[-1]
        if len(rem) - 1 < dd:
            if any(rem):
                raise NotDivisible("degree of numerator below denominator")
            return UniPoly.zero()
        quot = [Fraction(0)] * (len(rem) - dd)
        for d in range(len(rem) - 1, dd - 1, -1):
            c = rem[d] / lead
            quot[d - dd] = c
            if c:
                for j in range(dd + 1):
                    rem[d - dd + j] -= c * den.coeffs[j]
        if any(rem):
            raise NotDivisible("nonzero remainder in univariate division")
        return UniPoly(quot)

    def as_multipoly(self, arity: int, slot: int, names: Sequence[str] | None = None) -> MultiPoly:
        """Embed into a multivariate ring, powers going to one slot."""
        terms = {}
        for d, c in enumerate(self.coeffs):
            if not c:
                continue
            exp = [0] * arity
            exp[slot] = d
            terms[tuple(exp)] = c
        return MultiPoly(arity, terms, names)

    def to_json(self) -> list[str]:
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, data: Iterable[str]) -> "UniPoly":
        return cls(Fraction(c) for c in data)

    def pretty(self, var: str = "z") -> str:
        if self.is_zero:
            return "0"
        parts = []
        for d in range(self.degree, -1, -1):
            c = self[d]
            if not c:
                continue
            if d == 0:
                parts.append(str(c))
            else:
                v = var if d == 1 else f"{var}^{d}"
                parts.append(v if c == 1 else f"-{v}" if c == -1 else f"{c}*{v}")
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self):
        return f"UniPoly({self.pretty()})"
