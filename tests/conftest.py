import itertools

from hypothesis import HealthCheck, settings, strategies as st

from symfact.bases import BASIS_TAGS, OrbitForm, alternant, basis_poly, expand_orbits, vandermonde
from symfact.partitions import Partition, enumerate_partitions
from symfact.poly import MultiPoly, PolyError, default_names

settings.register_profile(
    "ci",
    deadline=None,
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


fractions_small = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def multipolys(draw, arity=None, max_terms=4, max_exp=3):
    a = arity if arity is not None else draw(st.integers(min_value=1, max_value=3))
    n_terms = draw(st.integers(min_value=0, max_value=max_terms))
    items = []
    for _ in range(n_terms):
        exp = tuple(draw(st.integers(min_value=0, max_value=max_exp)) for _ in range(a))
        items.append((exp, draw(fractions_small)))
    return MultiPoly(a, items)


@st.composite
def multipoly_pairs(draw, max_terms=4, max_exp=3):
    a = draw(st.integers(min_value=1, max_value=3))
    return (
        draw(multipolys(arity=a, max_terms=max_terms, max_exp=max_exp)),
        draw(multipolys(arity=a, max_terms=max_terms, max_exp=max_exp)),
    )


@st.composite
def multipoly_triples(draw, max_terms=3, max_exp=2):
    a = draw(st.integers(min_value=1, max_value=3))
    return tuple(
        draw(multipolys(arity=a, max_terms=max_terms, max_exp=max_exp)) for _ in range(3)
    )


@st.composite
def points_for(draw, arity):
    return [draw(fractions_small) for _ in range(arity)]


def elementary_generating(n):
    """w_n(t) = prod_i (1 + t x_i), in slots (x_1..x_n, t): the generating function of the e_r."""
    names = default_names("x", n) + ("t",)
    one = MultiPoly.one(n + 1, names)
    t = MultiPoly.variable(n, n + 1, names)
    acc = one
    for i in range(n):
        acc = acc * (one + t * MultiPoly.variable(i, n + 1, names))
    return acc


def elementary_sym(r, n):
    """e_r(x_1..x_n), the sum of all products of r distinct variables out of n."""
    if not 0 <= r <= n:
        raise PolyError(f"need 0 <= r <= n, got r={r}, n={n}")
    return MultiPoly(n, {tuple(1 if i in subset else 0 for i in range(n)): 1 for subset in itertools.combinations(range(n), r)})


def whole_basis_element(basis, lam):
    """b_lam as a whole polynomial, by a route that reads no m-coordinate rows.

    m: the orbit of lam, every distinct permutation once.  E: the product of
    whole e_j's.  s: the bialternant a_(lam + delta) divided exactly by the
    Vandermonde.
    """
    n = lam.n
    if basis == "m":
        return MultiPoly(n, {perm: 1 for perm in set(itertools.permutations(lam.parts))})
    if basis == "E":
        out = MultiPoly.one(n)
        for j, mult in enumerate(lam.steps(), start=1):
            out = out * elementary_sym(j, n) ** mult
        return out
    return alternant(lam.shifted(), n).divide_exact(vandermonde(n))


def outer(head, tail):
    """head(x) tail(t) in the slots (x..., t...)."""
    return MultiPoly(
        head.arity + tail.arity,
        {h + t: hc * tc for h, hc in head.terms.items() for t, tc in tail.terms.items()},
    )


@st.composite
def head_symmetric(draw):
    """(basis, head slots k, f): f symmetric in its first k slots, 0-2 tail slots."""
    basis = draw(st.sampled_from(BASIS_TAGS))
    k = draw(st.integers(min_value=1, max_value=3))
    tail_slots = draw(st.integers(min_value=0, max_value=2))
    lams = enumerate_partitions(3, k)
    f = MultiPoly.zero(k + tail_slots)
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        head = basis_poly(draw(st.sampled_from(BASIS_TAGS)), draw(st.sampled_from(lams))).raw
        texp = tuple(draw(st.integers(min_value=0, max_value=2)) for _ in range(tail_slots))
        f = f + outer(head, MultiPoly(tail_slots, {texp: draw(fractions_small)}))
    return basis, k, f


@st.composite
def symmetric_polys(draw, min_n=1, max_n=4):
    """A random symmetric f in min_n..max_n variables: a rational mix of basis elements."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    lams = enumerate_partitions(3, n)
    f = MultiPoly.zero(n)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        lam = draw(st.sampled_from(lams))
        f = f + basis_poly(draw(st.sampled_from(BASIS_TAGS)), lam).raw * draw(fractions_small)
    return f


def full_expand_with_tail(f, basis, k):
    """Expansion over one basis in the first k slots by lex reduction on every monomial.

    The oracle for the orbit-form expansion: it strips the lex-greatest head
    exponent with the whole basis element, as the full-monomial code did,
    and shares nothing with ``symfact.bases.expand_orbits``.
    """
    assert f.is_symmetric(k)
    work = {}
    for exp, c in f.terms.items():
        work.setdefault(exp[:k], {})[exp[k:]] = c
    tail_names = f.names[k:]
    out = {}
    while work:
        lead = max(work)
        assert list(lead) == sorted(lead, reverse=True)
        tail = work.pop(lead)
        lam = Partition(lead)
        out[lam] = MultiPoly(f.arity - k, tail, tail_names)
        for hexp, hc in basis_poly(basis, lam).raw.terms.items():
            if hexp == lead:
                continue
            row = work.setdefault(hexp, {})
            for t, tc in tail.items():
                row[t] = row.get(t, 0) - hc * tc
                if not row[t]:
                    del row[t]
            if not row:
                del work[hexp]
    return out


def expand_with_tail(f, basis, k=None):
    """Expansion over one basis in the first k (head) slots, each tail as a polynomial.

    The tails of ``symfact.bases.expand_orbits`` (numerators over the orbit
    form's denominator) made into polynomials in the tail slots.
    """
    o = OrbitForm.of(f, k)
    return {
        lam: MultiPoly._make(f.arity - o.k, tail, o.den, f.names[o.k :])
        for lam, tail in expand_orbits(o, basis).items()
    }


def doubled_below_the_lead(rule):
    """A planted defect in a row rule: every coefficient but the lex-leading row's doubled."""

    def planted(*args):
        rows = rule(*args)
        lead = max(rows)
        return {e: c if e == lead else 2 * c for e, c in rows.items()}

    return planted


def strictly_decreasing(exp):
    return all(a > b for a, b in zip(exp, exp[1:]))


def strict_part(f):
    """The terms of f at strictly decreasing exponents, in f's slots: those that fix an antisymmetric f."""
    return MultiPoly(f.arity, {e: c for e, c in f.terms.items() if strictly_decreasing(e)}, f.names)


def alternant_sum(strict):
    """The antisymmetric polynomial sum_mu c_mu a_mu that the strictly decreasing coefficients c_mu fix."""
    out = MultiPoly.zero(strict.arity)
    for mu, c in strict.terms.items():
        out = out + alternant(mu, strict.arity) * c
    return out
