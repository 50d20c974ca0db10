"""Exact polynomial arithmetic: one sparse multivariate kernel and its univariate view.

Nothing in this module touches floating point.  A :class:`MultiPoly` stores
its coefficients as integer numerators over one positive denominator, in
reduced form (the denominator is coprime to the numerators' content), and
carries display names for its variable slots.  ``terms``, the Fraction per
exponent, is a view built on first use; serialization and printing read it.
The canonical term order for serialization and for exact division is graded
reverse lexicographic (grevlex).

The public constructor validates its input: exponents are tuples of
non-negative ints, coefficients (like evaluation points) are ints or
Fractions, never floats or bools.  Results the kernel builds itself go
through the trusted constructors: :meth:`MultiPoly._make` reduces a fresh
(numerators, denominator) pair and :meth:`MultiPoly._wrap` takes one already
reduced, as slot surgery and negation leave it.  The hot loops -- products,
partial evaluation (on one integer power table per slot set to a value
other than 1) and :func:`tensor_sum`, which the spectral operators use --
multiply and add Python ints only.  Evaluation at a point is partial
evaluation of every slot.  :func:`accumulate` is the one sparse
add-and-drop-zeros loop.  :func:`_contract` sums numerators against one
power table per slot; the two checks that evaluate one polynomial at many
points (box integrals, the explicit first-order H) build their own tables.

:class:`UniPoly` is a dense view of a one-slot MultiPoly: its arithmetic,
evaluation and checks are the kernel's, and it adds only the coefficient
tuple by degree and the JSON list.  :func:`det`, the cofactor expansion of a
matrix of polynomials, has no caller in the package: the restricted Schur
function is a Laplace sum (:func:`symfact.bases.restricted_schur`), and
``det`` stays as a test oracle and a named target of the bench tracer.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import add, getitem, neg
from typing import Hashable, Iterable, Mapping, Sequence

Exponent = tuple[int, ...]
Scalar = int | Fraction
Pair = tuple[dict[Exponent, int], int]

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
    return (sum(exp), tuple(map(neg, reversed(exp))))


def default_names(prefix: str, arity: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i + 1}" for i in range(arity))


def _names(arity: int, names: Sequence[str] | None) -> tuple[str, ...]:
    """Checked slot names: ``arity`` strings, x1..x_arity by default."""
    if arity < 0:
        raise PolyError("arity must be nonnegative")
    names = default_names("x", arity) if names is None else tuple(names)
    if len(names) != arity:
        raise PolyError(f"{len(names)} names for arity {arity}")
    return names


def _scalar(value) -> Fraction:
    """An exact scalar: an int or a Fraction, never a float or a bool."""
    if type(value) is Fraction:
        return value
    if isinstance(value, Fraction) or (isinstance(value, int) and not isinstance(value, bool)):
        return Fraction(value)
    raise PolyError(f"{value!r} is not an int or a Fraction")


def accumulate(out: dict, pairs: Iterable[tuple[Hashable, object]]) -> dict:
    """Add each (key, value) into ``out`` in place, dropping keys whose sum is zero."""
    get = out.get
    for key, c in pairs:
        s = get(key, 0) + c
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


def _reduce(num: dict[Exponent, int], den: int) -> Pair:
    """The pair over ``den > 0`` with the common factor of den and the numerators divided out."""
    if den != 1:
        g = math.gcd(den, *num.values())
        if g != 1:
            return {e: c // g for e, c in num.items()}, den // g
    return num, den


def _contract(num: Mapping[Exponent, int], tables: Sequence[Sequence[int]]) -> int:
    """sum_e num[e] * prod_s tables[s][e_s]: numerators contracted with one integer table per slot."""
    return sum(c * math.prod(map(getitem, tables, e)) for e, c in num.items())


def tensor_sum(groups: Iterable[Sequence[Pair]], block: int = 0) -> Pair:
    """The reduced (numerators, denominator) pair of sum_g prod_i f_gi.

    Each group is a sequence of (numerators, denominator) pairs whose
    factors sit in disjoint slots: a product term's exponent is the
    concatenation of its factors' exponents, in order.  The sum runs over
    one running common denominator.  The last ``block`` slots of the
    product are kept in sorted rows: each factor's share of them is weakly
    decreasing, and a product is built only where each join of two factors
    inside them is too.
    """
    out: dict[Exponent, int] = {}
    den = 1
    for factors in groups:
        d = math.prod(fd for _, fd in factors)
        common = math.lcm(den, d)
        if common != den:
            scale = common // den
            out = {e: c * scale for e, c in out.items()}
            den = common
        # the factors after the first, folded from the right; the empty
        # product starts at the group's scale to the common denominator
        rest: dict[Exponent, int] = {(): den // d}
        for num, _ in reversed(factors[1:]):
            rest = dict(_joined(num, rest, block))
        accumulate(out, _joined(factors[0][0], rest, block))
    return _reduce(out, den)


def _joined(left: dict[Exponent, int], right: dict[Exponent, int], block: int) -> Iterable[tuple[Exponent, int]]:
    """Every product (e1 + e2, c1 * c2) of a left and a right term, in :func:`tensor_sum`.

    When e1's last slot and e2's first both lie in the last ``block`` slots,
    only the products with e1[-1] >= e2[0] are made.
    """
    width = len(next(iter(right), ()))
    if 0 < width < block and len(next(iter(left), ())):
        return (
            (e1 + e2, c1 * c2) for e1, c1 in left.items() for e2, c2 in right.items() if e1[-1] >= e2[0]
        )
    return ((e1 + e2, c1 * c2) for e1, c1 in left.items() for e2, c2 in right.items())


class MultiPoly:
    """Immutable sparse polynomial in ``arity`` named slots.

    ``num`` maps exponent tuples (length = arity, entries >= 0) to nonzero
    int numerators over the positive int ``den``; the pair is reduced, so
    ``gcd(den, *num.values()) == 1`` and zero is ``({}, 1)``.  ``terms`` is
    the same polynomial as nonzero Fraction coefficients, built on first use
    and cached.  Variable names are display metadata: equality compares
    arity and the pair only, so a polynomial in ``(x1, x2)`` equals the same
    polynomial relabelled ``(z1, z2)``.
    """

    __slots__ = ("arity", "num", "den", "names", "_terms")

    def __init__(
        self,
        arity: int,
        terms: Mapping[Exponent, Scalar] | Iterable[tuple[Exponent, Scalar]] = (),
        names: Sequence[str] | None = None,
    ):
        names = _names(arity, names)
        items = terms.items() if isinstance(terms, Mapping) else terms

        def checked(exp, coeff) -> tuple[Exponent, Fraction]:
            exp = tuple(exp)
            if len(exp) != arity:
                raise PolyError(f"exponent {exp} has length != arity {arity}")
            if any(type(e) is not int or e < 0 for e in exp):
                raise PolyError(f"exponent {exp} must hold non-negative ints")
            return exp, _scalar(coeff)

        clean = accumulate({}, (checked(exp, coeff) for exp, coeff in items))
        # over the LCM of the denominators the pair is already reduced: a
        # prime's top power in the LCM divides some term's denominator in
        # full, and that term's numerator is coprime to it
        den = math.lcm(*(c.denominator for c in clean.values()))
        num = {e: c.numerator * (den // c.denominator) for e, c in clean.items()}
        self._init(arity, num, den, names, clean)

    def _init(self, arity, num, den, names, terms):
        setattr_ = object.__setattr__
        setattr_(self, "arity", arity)
        setattr_(self, "num", num)
        setattr_(self, "den", den)
        setattr_(self, "names", names)
        setattr_(self, "_terms", terms)

    @classmethod
    def _wrap(
        cls, arity: int, num: dict[Exponent, int], den: int, names: tuple[str, ...]
    ) -> "MultiPoly":
        """Trusted constructor for a reduced pair the kernel built itself.

        ``num`` must be a dict no one else mutates, with valid exponents and
        only nonzero int values, reduced against the positive int ``den``;
        ``names`` a tuple of ``arity`` strings.  Nothing is validated or
        copied.
        """
        self = object.__new__(cls)
        self._init(arity, num, den, names, None)
        return self

    @classmethod
    def _make(
        cls, arity: int, num: dict[Exponent, int], den: int, names: tuple[str, ...]
    ) -> "MultiPoly":
        """Trusted constructor as :meth:`_wrap`, for a pair that may still share a factor."""
        return cls._wrap(arity, *_reduce(num, den), names)

    def __setattr__(self, *_):
        raise AttributeError("MultiPoly is immutable")

    @property
    def terms(self) -> dict[Exponent, Fraction]:
        """Nonzero Fraction coefficients by exponent (built once, then cached)."""
        terms = self._terms
        if terms is None:
            den = self.den
            terms = {e: Fraction(c, den) for e, c in self.num.items()}
            object.__setattr__(self, "_terms", terms)
        return terms

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, arity: int, names: Sequence[str] | None = None) -> "MultiPoly":
        return cls._wrap(arity, {}, 1, _names(arity, names))

    @classmethod
    def const(cls, arity: int, value: Scalar, names: Sequence[str] | None = None) -> "MultiPoly":
        return cls(arity, {(0,) * arity: value}, names)

    @classmethod
    def one(cls, arity: int, names: Sequence[str] | None = None) -> "MultiPoly":
        return cls._wrap(arity, {(0,) * arity: 1}, 1, _names(arity, names))

    @classmethod
    def variable(cls, slot: int, arity: int, names: Sequence[str] | None = None) -> "MultiPoly":
        if not 0 <= slot < arity:
            raise PolyError(f"slot {slot} out of range for arity {arity}")
        exp = tuple(1 if i == slot else 0 for i in range(arity))
        return cls._wrap(arity, {exp: 1}, 1, _names(arity, names))

    # -- basic queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.num

    def sorted_terms(self) -> list[tuple[Exponent, Fraction]]:
        """Terms in descending grevlex order (the serialization order)."""
        return sorted(self.terms.items(), key=lambda t: grevlex_key(t[0]), reverse=True)

    def __eq__(self, other) -> bool:
        if isinstance(other, MultiPoly):
            return self.arity == other.arity and self.den == other.den and self.num == other.num
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self == MultiPoly.const(self.arity, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.arity, self.den, frozenset(self.num.items())))

    # -- ring operations ---------------------------------------------------

    def _check_arity(self, other: "MultiPoly"):
        if self.arity != other.arity:
            raise PolyError(f"arity mismatch: {self.arity} vs {other.arity}")

    def _add(self, other, sign: int) -> "MultiPoly":
        """self + sign * other over the LCM of the two denominators."""
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.arity, other, self.names)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_arity(other)
        den = math.lcm(self.den, other.den)
        s1, s2 = den // self.den, sign * (den // other.den)
        out = dict(self.num) if s1 == 1 else {e: c * s1 for e, c in self.num.items()}
        accumulate(out, other.num.items() if s2 == 1 else ((e, c * s2) for e, c in other.num.items()))
        return MultiPoly._make(self.arity, out, den, self.names)

    def __add__(self, other) -> "MultiPoly":
        return self._add(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._wrap(self.arity, {e: -c for e, c in self.num.items()}, self.den, self.names)

    def __sub__(self, other) -> "MultiPoly":
        return self._add(other, -1)

    def __rsub__(self, other) -> "MultiPoly":
        return (-self) + other

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            c = _scalar(other)
            if not c:
                return MultiPoly.zero(self.arity, self.names)
            p = c.numerator
            out = {e: k * p for e, k in self.num.items()}
            return MultiPoly._make(self.arity, out, self.den * c.denominator, self.names)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_arity(other)
        if not (self.num and other.num):
            return MultiPoly.zero(self.arity, self.names)
        out = accumulate(
            {},
            (
                (tuple(map(add, e1, e2)), c1 * c2)
                for e1, c1 in self.num.items()
                for e2, c2 in other.num.items()
            ),
        )
        return MultiPoly._make(self.arity, out, self.den * other.den, self.names)

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
        :class:`NotDivisible`.  Both sides are integer numerators; when the
        divisor's leading numerator does not divide a remainder's, remainder
        and quotient are scaled up by the missing factor, so the reduction
        stays in ints (never, for a divisor with leading coefficient +-1).
        """
        if not isinstance(den, MultiPoly):
            den = MultiPoly.const(self.arity, den, self.names)
        self._check_arity(den)
        if den.is_zero:
            raise PolyError("division by zero polynomial")
        rem = dict(self.num)
        d_terms = den.num
        d_exp = max(d_terms, key=grevlex_key)
        d_lead = d_terms[d_exp]
        quot: dict[Exponent, int] = {}
        scale = 1
        while rem:
            lead = max(rem, key=grevlex_key)
            shift = tuple(a - b for a, b in zip(lead, d_exp))
            if any(s < 0 for s in shift):
                raise NotDivisible(f"leading term {lead} not reducible by {d_exp}")
            r = rem[lead]
            if r % d_lead:
                g = abs(d_lead) // math.gcd(r, d_lead)
                rem = {e: c * g for e, c in rem.items()}
                quot = {e: c * g for e, c in quot.items()}
                scale *= g
                r *= g
            c = r // d_lead
            quot[shift] = c
            accumulate(
                rem, ((tuple(map(add, shift, e2)), -c * c2) for e2, c2 in d_terms.items())
            )
        # scale * self.num = quot * den.num, so self / den = quot * den.den / (scale * self.den)
        d_den = den.den
        return MultiPoly._make(
            self.arity, {e: c * d_den for e, c in quot.items()}, scale * self.den, self.names
        )

    # -- evaluation ----------------------------------------------------------

    def eval(self, point: Sequence[Scalar]) -> Fraction:
        """The value at one point: :meth:`partial_eval` of every slot."""
        if len(point) != self.arity:
            raise PolyError("point length != arity")
        value = self.partial_eval(dict(enumerate(point)))
        return Fraction(value.num.get((), 0), value.den)

    def partial_eval(self, assignments: Mapping[int, Scalar]) -> "MultiPoly":
        """Evaluate some slots at fixed values and drop them from the arity.

        A slot set to 1 is only dropped.  Every other value p/q is cleared of
        its denominator on an integer power table: with E the slot's top
        exponent, x^e becomes p^e q^(E-e) over a common denominator carrying
        q^E.
        """
        for slot in assignments:
            if not 0 <= slot < self.arity:
                raise PolyError(f"slot {slot} out of range")
        vals = {s: _scalar(v) for s, v in assignments.items()}
        keep = [i for i in range(self.arity) if i not in vals]
        names = tuple(self.names[i] for i in keep)
        if not self.num:
            return MultiPoly._wrap(len(keep), {}, 1, names)
        num, den = self.num, self.den
        tables = []
        for s, v in vals.items():
            if v != 1:
                top = max(exp[s] for exp in num)
                p, q = v.numerator, v.denominator
                tables.append((s, [p**e * q ** (top - e) for e in range(top + 1)]))
                den *= q**top
        pairs = []
        for exp, c in num.items():
            for s, table in tables:
                c *= table[exp[s]]
            pairs.append((tuple(map(exp.__getitem__, keep)), c))
        return MultiPoly._make(len(keep), accumulate({}, pairs), den, names)

    # -- differential operators ----------------------------------------------

    def diff(self, slot: int) -> "MultiPoly":
        """Formal partial derivative in one slot."""
        if not 0 <= slot < self.arity:
            raise PolyError(f"slot {slot} out of range")
        out: dict[Exponent, int] = {}
        for exp, c in self.num.items():
            e = exp[slot]
            if not e:
                continue
            new = list(exp)
            new[slot] = e - 1
            out[tuple(new)] = c * e
        return MultiPoly._make(self.arity, out, self.den, self.names)

    def euler(self, slot: int) -> "MultiPoly":
        """Degree-grading derivation x d/dx on one slot."""
        if not 0 <= slot < self.arity:
            raise PolyError(f"slot {slot} out of range")
        out = {e: c * e[slot] for e, c in self.num.items() if e[slot]}
        return MultiPoly._make(self.arity, out, self.den, self.names)

    # -- slot surgery --------------------------------------------------------

    def insert_slot(self, pos: int, name: str) -> "MultiPoly":
        """Insert a fresh slot before position ``pos``."""
        if not 0 <= pos <= self.arity:
            raise PolyError(f"position {pos} out of range")
        return MultiPoly._wrap(
            self.arity + 1,
            {e[:pos] + (0,) + e[pos:]: c for e, c in self.num.items()},
            self.den,
            self.names[:pos] + (name,) + self.names[pos:],
        )

    def permute(self, perm: Sequence[int]) -> "MultiPoly":
        """Send slot i to slot perm[i]."""
        if sorted(perm) != list(range(self.arity)):
            raise PolyError("perm must be a permutation of the slots")
        names = [""] * self.arity
        for i, p in enumerate(perm):
            names[p] = self.names[i]
        source = [0] * self.arity  # slot p of the image reads slot source[p]
        for i, p in enumerate(perm):
            source[p] = i
        out = {tuple(map(exp.__getitem__, source)): c for exp, c in self.num.items()}
        return MultiPoly._wrap(self.arity, out, self.den, tuple(names))

    def rename(self, names: Sequence[str]) -> "MultiPoly":
        names = tuple(names)
        if len(names) != self.arity:
            raise PolyError(f"{len(names)} names for arity {self.arity}")
        return MultiPoly._wrap(self.arity, self.num, self.den, names)

    def is_symmetric(self, k: int | None = None) -> bool:
        """Symmetry under permutations of the first ``k`` slots (default all).

        Checks each adjacent swap in place: every term whose exponents differ
        in the two slots must find its swapped exponent with the same
        coefficient.
        """
        return self.asymmetric_exponent(k) is None

    def asymmetric_exponent(self, k: int | None = None) -> Exponent | None:
        """An exponent whose swap of two adjacent slots among the first ``k``
        has another coefficient, or None when the polynomial is symmetric there."""
        k = self.arity if k is None else k
        if isinstance(k, bool) or not isinstance(k, int) or not 0 <= k <= self.arity:
            raise PolyError(f"need 0 <= k <= arity {self.arity}, got k={k!r}")
        num = self.num
        for i in range(k - 1):
            for exp, c in num.items():
                a, b = exp[i], exp[i + 1]
                if a != b and num.get(exp[:i] + (b, a) + exp[i + 2 :]) != c:
                    return exp
        return None

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

        ``vars`` is a list of pairwise distinct ASCII identifiers; each
        term's ``e`` is a list of one non-negative int per variable and its
        ``c`` an int or a string "p" or "p/q".  Floats, bools and repeated
        exponents are rejected.
        """
        if not isinstance(data, Mapping) or not all(
            isinstance(data.get(key), list) for key in ("vars", "terms")
        ):
            raise PolyError('polynomial JSON must be an object with "vars" and "terms" lists')
        names = tuple(data["vars"])
        if not all(isinstance(v, str) for v in names):
            raise PolyError("variable names must be strings")
        seen = set()
        for v in names:
            if not (v.isascii() and v.isidentifier()):
                raise PolyError(f"variable name {v!r} is not an ASCII identifier")
            if v in seen:
                raise PolyError(f"variable name {v!r} appears twice")
            seen.add(v)
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
        except ValueError:  # more digits than the interpreter converts to an int
            raise PolyError(f"coefficient of {len(c)} characters has too many digits to read") from None
    raise PolyError(f'coefficient {c!r} must be an int or a string "p" or "p/q"')


def det(matrix: Sequence[Sequence[MultiPoly]]) -> MultiPoly:
    """Exact determinant of a square matrix of polynomials, by cofactor expansion."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise PolyError("matrix is not square")
    if n == 0:
        raise PolyError("empty matrix")
    arity = matrix[0][0].arity
    for row in matrix:
        for entry in row:
            if entry.arity != arity:
                raise PolyError("matrix entries must share one arity")
    return _det_cofactor(matrix)


def _det_cofactor(m: Sequence[Sequence[MultiPoly]]) -> MultiPoly:
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


_Z = ("z",)


def _kernel(value):
    """The MultiPoly behind a UniPoly operand; scalars pass through to the kernel."""
    return value.poly if isinstance(value, UniPoly) else value


class UniPoly:
    """Dense view of a one-slot :class:`MultiPoly` in z, coefficients by degree.

    All arithmetic is the kernel's; the view adds the dense coefficient
    tuple, the degree, indexing by degree and the JSON list form.
    """

    __slots__ = ("poly",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        poly = MultiPoly(1, (((d,), c) for d, c in enumerate(coeffs)), _Z)
        object.__setattr__(self, "poly", poly)

    @classmethod
    def of(cls, poly: MultiPoly) -> "UniPoly":
        """View a one-slot polynomial as a UniPoly (no copy)."""
        if poly.arity != 1:
            raise PolyError(f"need a univariate polynomial, got arity {poly.arity}")
        self = object.__new__(cls)
        object.__setattr__(self, "poly", poly)
        return self

    @classmethod
    def over(cls, nums: Iterable[int], den: int) -> "UniPoly":
        """Trusted constructor: sum_d nums[d] z^d / den, from int numerators by degree over a positive int den."""
        return cls.of(MultiPoly._make(1, {(d,): c for d, c in enumerate(nums) if c}, den, _Z))

    def __setattr__(self, *_):
        raise AttributeError("UniPoly is immutable")

    @property
    def is_zero(self) -> bool:
        return self.poly.is_zero

    @property
    def degree(self) -> int:
        return max((d for (d,) in self.poly.num), default=-1)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(self[d] for d in range(self.degree + 1))

    def __getitem__(self, d: int) -> Fraction:
        return self.poly.terms.get((d,), Fraction(0))

    def __eq__(self, other) -> bool:
        return self.poly == _kernel(other)

    def __hash__(self):
        return hash(self.poly)

    def __add__(self, other) -> "UniPoly":
        return UniPoly.of(self.poly + _kernel(other))

    __radd__ = __add__

    def __neg__(self) -> "UniPoly":
        return UniPoly.of(-self.poly)

    def __sub__(self, other) -> "UniPoly":
        return UniPoly.of(self.poly - _kernel(other))

    def __rsub__(self, other) -> "UniPoly":
        return UniPoly.of(_kernel(other) - self.poly)

    def __mul__(self, other) -> "UniPoly":
        return UniPoly.of(self.poly * _kernel(other))

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "UniPoly":
        return UniPoly.of(self.poly**power)

    def eval(self, x: Scalar) -> Fraction:
        return self.poly.eval((x,))

    def derivative(self) -> "UniPoly":
        return UniPoly.of(self.poly.diff(0))

    def euler(self) -> "UniPoly":
        """z d/dz: scale the degree-d coefficient by d."""
        return UniPoly.of(self.poly.euler(0))

    def divide_exact(self, den: "UniPoly") -> "UniPoly":
        return UniPoly.of(self.poly.divide_exact(_kernel(den)))

    def as_multipoly(self, arity: int, slot: int, names: Sequence[str] | None = None) -> MultiPoly:
        """Embed into a multivariate ring, powers going to one slot."""
        if not 0 <= slot < arity:
            raise PolyError(f"slot {slot} out of range for arity {arity}")
        pad = (0,) * slot, (0,) * (arity - slot - 1)
        num = {pad[0] + e + pad[1]: c for e, c in self.poly.num.items()}
        return MultiPoly._wrap(arity, num, self.poly.den, _names(arity, names))

    def to_json(self) -> list[str]:
        return [str(c) for c in self.coeffs]

    def pretty(self) -> str:
        """The polynomial in z, whatever its slot is named (a :meth:`of` view may carry x1)."""
        return self.poly.rename(_Z).pretty()

    def __repr__(self):
        return f"UniPoly({self.pretty()})"

