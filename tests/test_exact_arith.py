import random
import re
from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erasurechain.exact_arith import Poly, Substitution, bernstein_coefficients, coerce


def eps_poly(*coeffs):
    """Univariate helper: eps_poly(c0, c1, ...) = sum c_k eps^k."""
    return Poly({(k, 0): F(c) for k, c in enumerate(coeffs)})


class TestAdd:
    def test_additive_inverse(self):
        p = Poly.monomial(2, 0, 3)
        assert p + Poly.monomial(2, 0, -3) == Poly.zero()
        assert (p + -p).is_zero()

    def test_doubling(self):
        assert Poly.eps() + Poly.eps() == Poly.monomial(1, 0, 2)

    def test_fractional_merge(self):
        a = Poly({(1, 0): F(1, 2), (2, 0): F(1, 4)})
        b = Poly({(1, 0): F(1, 2)})
        assert a + b == Poly({(1, 0): F(1), (2, 0): F(1, 4)})


class TestMul:
    def test_monomials(self):
        assert Poly.eps() * Poly.monomial(2, 0) == Poly.monomial(3, 0)

    def test_difference_of_squares(self):
        one = Poly.one()
        assert (one - Poly.eps()) * (one + Poly.eps()) == one - Poly.monomial(2, 0)

    def test_fraction_product(self):
        half_eps = Poly.monomial(1, 0, F(1, 2))
        assert half_eps * half_eps == Poly.monomial(2, 0, F(1, 4))


class TestEval:
    def test_reference_lossy_series_at_rational_point(self):
        # Independent oracle: plain Fraction arithmetic.
        x = F(89, 5000)
        expected = (
            F(1050) * x**3 + F(33173) * x**4 - F(46242) * x**5 - F(6861701) * x**6
        )
        p = eps_poly(0, 0, 0, 1050, 33173, -46242, -6861701)
        assert p.evaluate(x) == expected
        assert abs(float(expected) - 0.0089510) < 2e-6
        # The evaluation sits near the halved rate, consistent with the
        # quoted lossy break-even point.
        assert abs(float(expected) - float(x) / 2) < 1e-4

    def test_constant_term_at_zero(self):
        p = Poly({(0, 0): F(7, 3), (2, 1): F(5)})
        assert p.evaluate(0, 0) == F(7, 3)

    def test_binomial_tail_all_fail(self):
        # sum_{i=3}^{7} C(7,i) d^i (1-d)^(7-i) at d=1 leaves only i=7.
        from math import comb

        terms = {}
        for i in range(3, 8):
            body = Poly.monomial(0, i, comb(7, i))
            surv = Poly.one() - Poly.delta()
            for _ in range(7 - i):
                body = body * surv
            for exp, c in body.terms.items():
                terms[exp] = terms.get(exp, F(0)) + c
        p = Poly(terms)
        assert p.evaluate(0, 1) == 1


def random_poly(rng, max_terms=5, max_deg=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exp = (rng.randint(0, max_deg), rng.randint(0, max_deg))
        terms[exp] = F(rng.randint(-9, 9), rng.randint(1, 9))
    return Poly(terms)


def test_ring_axioms_on_random_triples():
    rng = random.Random(1234)
    for _ in range(200):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        assert a + Poly.zero() == a
        assert a * Poly.one() == a


def test_evaluation_is_ring_homomorphism():
    rng = random.Random(99)
    for _ in range(100):
        a, b = random_poly(rng), random_poly(rng)
        e, d = F(rng.randint(0, 4), 7), F(rng.randint(0, 4), 9)
        assert (a + b).evaluate(e, d) == a.evaluate(e, d) + b.evaluate(e, d)
        assert (a * b).evaluate(e, d) == a.evaluate(e, d) * b.evaluate(e, d)


def test_json_roundtrip_with_big_integers():
    p = Poly({(3, 0): F(-6861701), (6, 2): F(10**30 + 7, 3)})
    data = p.to_json()
    assert all(isinstance(t["num"], str) for t in data)
    assert Poly.from_json(data) == p


def test_total_degree():
    p = eps_poly(0, 0, 0, 49, 441)
    assert p.total_degree() == 4
    assert Poly.zero().total_degree() == -1


# Ring operations against a plain dict-of-Fraction oracle.  Coefficients
# come from a small set of units and halves so that sums and products often
# cancel exactly.
_COEFFS = st.sampled_from([F(-2), F(-1), F(-1, 2), F(1, 2), F(1), F(2)])
_TERMS = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 2)), _COEFFS, max_size=5
)


def _oracle(terms):
    return {exp: c for exp, c in terms.items() if c != 0}


def _oracle_add(a, b):
    out = dict(a)
    for exp, c in b.items():
        out[exp] = out.get(exp, F(0)) + c
    return _oracle(out)


def _oracle_mul(a, b):
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            exp = (i1 + i2, j1 + j2)
            out[exp] = out.get(exp, F(0)) + c1 * c2
    return _oracle(out)


def _assert_is(got, want):
    assert got.terms == want
    assert all(c != 0 for c in got.terms.values())
    assert got.key() == Poly(want).key()
    assert hash(got) == hash(Poly(want))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(a=_TERMS, extra=_TERMS, k=st.integers(-2, 2), data=st.data())
def test_ring_operations_match_dict_oracle(a, extra, k, data):
    # b repeats some of a's terms with the opposite sign, so a + b cancels them.
    shared = data.draw(st.sets(st.sampled_from(sorted(a)))) if a else set()
    b = {**extra, **{exp: -a[exp] for exp in shared}}
    pa, pb = Poly(a), Poly(b)
    neg_b = {exp: -c for exp, c in b.items()}
    _assert_is(pa + pb, _oracle_add(a, b))
    _assert_is(pa - pb, _oracle_add(a, neg_b))
    _assert_is(pa * pb, _oracle_mul(a, b))
    _assert_is(pa * pb - pb * pa, {})
    _assert_is(pa + k, _oracle_add(a, {(0, 0): F(k)}))
    _assert_is(k - pa, _oracle_add({(0, 0): F(k)}, {exp: -c for exp, c in a.items()}))
    _assert_is(k * pa, _oracle_mul({(0, 0): F(k)}, a))
    assert pa.coefficient(9, 9) == 0


def test_exact_cancellation_stores_nothing():
    one, eps = Poly.one(), Poly.eps()
    zero = (one - eps) * (one + eps) + eps * eps - 1
    assert zero.terms == {}
    assert zero == Poly.zero() and hash(zero) == hash(Poly.zero())
    assert zero.key() == ()
    # A cancelled term that comes back is stored afresh.
    assert (eps - eps + eps).terms == {(1, 0): F(1)}


_POINTS = st.sampled_from([F(0), F(1), F(-1), F(1, 3), F(-5, 7), F(9, 4)])


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(ps=st.lists(_TERMS, min_size=1, max_size=3), x=_TERMS, y=_TERMS, data=st.data())
def test_substitution_is_evaluation_at_the_substituted_values(ps, x, y, data):
    # One map serves every polynomial; constants for x and y (a single
    # (0, 0) term, or none) make cancellation to zero common.
    px, py = Poly(x), Poly(y)
    at = Substitution(px, py)
    a, b = data.draw(_POINTS), data.draw(_POINTS)
    for terms in ps:
        p = Poly(terms)
        got = at(p)
        assert all(c != 0 for c in got.terms.values())
        assert got.evaluate(a, b) == p.evaluate(px.evaluate(a, b), py.evaluate(a, b))


def test_substitution_at_rationals_and_on_the_diagonal():
    p = Poly({(0, 0): F(1), (1, 0): F(-2), (1, 2): F(3)})
    assert Substitution(F(1, 2), F(1, 3))(p).terms == {(0, 0): F(1, 6)}
    assert Substitution(F(1, 2), 0)(p) == Poly.zero()
    assert Substitution(Poly.eps(), Poly.eps())(p) == Poly(
        {(0, 0): F(1), (1, 0): F(-2), (3, 0): F(3)}
    )
    assert Substitution(Poly.eps(), Poly.delta())(p) == p


class TestCoefficientType:
    """Only ints and Fractions are coefficients; a float, bool or string is
    a TypeError naming it, whichever entry point it comes through."""

    @pytest.mark.parametrize("value", [0.1, True, "1/3"], ids=["float", "bool", "str"])
    def test_constructor_rejects(self, value):
        with pytest.raises(TypeError, match=re.escape(repr(value))):
            Poly({(0, 0): value})

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Poly.constant(True),
            lambda: Poly.constant(0.1),
            lambda: Poly.monomial(1, 0, 0.5),
            lambda: coerce("1/3"),
            lambda: Poly.eps() * 0.5,
            lambda: 0.5 * Poly.eps(),
            lambda: Poly.eps() + 0.5,
        ],
        ids=["constant-bool", "constant-float", "monomial", "coerce", "mul", "rmul", "add"],
    )
    def test_entry_points_reject(self, build):
        with pytest.raises(TypeError, match="ints or Fractions"):
            build()

    def test_zero_float_is_rejected_too(self):
        with pytest.raises(TypeError, match=re.escape("0.0")):
            Poly({(1, 0): 0.0})

    def test_comparison_with_a_bool_is_false_not_an_error(self):
        assert Poly.one() != True  # noqa: E712
        assert Poly.zero() != False  # noqa: E712
        assert Poly.one() == 1 and Poly.zero() == 0


# Canonical coefficient form: an int when integral, else a Fraction with
# denominator > 1.  Coefficients are drawn as ints and as Fractions,
# integral ones such as 4/2 among them, and halves whose sums and products
# cancel to integers.
_MIXED = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([F(4, 2), F(-2, 2), F(0, 5), F(1, 2), F(-1, 2), F(3, 2), F(-1, 3)]),
)
_MIXED_TERMS = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), _MIXED, max_size=4
)


def _assert_canonical(p):
    for c in p.terms.values():
        assert c != 0
        assert type(c) is int or (type(c) is F and c.denominator > 1), repr(c)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(a=_MIXED_TERMS, b=_MIXED_TERMS, x=_MIXED_TERMS)
def test_every_operation_keeps_the_canonical_form(a, b, x):
    pa, pb = Poly(a), Poly(b)
    half = Poly.constant(F(1, 2))
    for p in (
        pa,
        pa + pb,
        pa - pb,
        pa * pb,
        -pa,
        pa * F(1, 2) + pa * F(1, 2),
        half * pa * 2,
        (pa + half) + half,
        Substitution(Poly(x), half)(pa),
        Substitution(F(1, 2), F(3, 2))(pa),
        Poly.from_json(pa.to_json()),
    ):
        _assert_canonical(p)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(a=_MIXED_TERMS, b=_MIXED_TERMS)
def test_polys_built_from_ints_and_fractions_agree(a, b):
    # The same values given as Fractions, and integral ones as ints.
    as_fractions = {e: F(c) for e, c in a.items()}
    as_ints = {e: int(c) if F(c).denominator == 1 else c for e, c in a.items()}
    pairs = [
        (Poly(as_fractions), Poly(as_ints)),
        (Poly(as_fractions) * Poly(b), Poly(as_ints) * Poly(b)),
        (Poly(as_fractions) + F(1, 2) + F(1, 2), Poly(as_ints) + 1),
        (Poly.constant(F(1, 2)) * 2 * Poly(as_fractions), Poly(as_ints)),
    ]
    for p, q in pairs:
        assert p == q
        assert p.terms == q.terms
        assert {e: type(c) for e, c in p.terms.items()} == {e: type(c) for e, c in q.terms.items()}
        assert hash(p) == hash(q)
        assert p.key() == q.key()
        assert p.to_json() == q.to_json()
        assert str(p) == str(q)


def _assert_same_terms(got, want):
    # Term for term, with the coefficient's type: an int where integral.
    assert got.terms == want.terms
    assert {e: type(c) for e, c in got.terms.items()} == {e: type(c) for e, c in want.terms.items()}
    _assert_canonical(got)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(polys=st.lists(_MIXED_TERMS, max_size=6), data=st.data())
def test_n_ary_sum_equals_the_chained_sum(polys, data):
    polys = [Poly(terms) for terms in polys]
    # Append some polys' negations so whole terms, or the sum, cancel.
    negated = data.draw(st.lists(st.sampled_from(polys), max_size=3)) if polys else []
    polys += [-p for p in negated]
    _assert_same_terms(Poly.sum(polys), sum(polys, Poly.zero()))
    _assert_same_terms(Poly.sum(iter(polys)), sum(polys, Poly.zero()))


def test_n_ary_sum_of_nothing_and_of_a_cancelling_pair_is_zero():
    assert Poly.sum([]).terms == {}
    p = Poly({(1, 0): F(1, 3), (0, 2): 5})
    assert Poly.sum([p, -p]).terms == {}
    halves = Poly.sum([Poly.monomial(1, 0, F(1, 2))] * 2)
    assert halves.terms == {(1, 0): 1} and type(halves.terms[(1, 0)]) is int


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(a=_MIXED_TERMS, k=st.integers(-12, 12).filter(bool))
def test_division_by_an_int_is_the_product_with_its_inverse(a, k):
    p = Poly(a)
    _assert_same_terms(p / k, p * F(1, k))
    _assert_same_terms(p / k * k, p)


@pytest.mark.parametrize(
    "divisor", [F(1, 2), 0.5, True, Poly.one()], ids=["Fraction", "float", "bool", "Poly"]
)
def test_division_takes_only_an_int(divisor):
    with pytest.raises(TypeError, match="only by an int"):
        Poly.eps() / divisor


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Poly.eps() / 0


def test_integral_results_are_ints():
    half = Poly.monomial(1, 0, F(1, 2))
    assert (half + half).terms == {(1, 0): 1}
    assert type((half + half).terms[(1, 0)]) is int
    assert type((half * 2).terms[(1, 0)]) is int
    assert type(Poly({(0, 0): F(4, 2)}).terms[(0, 0)]) is int
    assert type(Substitution(F(1, 2), 0)(Poly.monomial(1, 0, 4)).terms[(0, 0)]) is int
    assert type(Poly.eps().coefficient(3)) is int
    assert str(half + half) == "eps" and str(Poly.constant(F(6, 3))) == "2"


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(coeffs=st.lists(st.integers(-(10**12), 10**12), max_size=14))
def test_bernstein_coefficients_are_the_scaled_binomial_sums(coeffs):
    # b_k = sum_{i <= k} C(k, i) / C(n, i) a_i.
    n = len(coeffs) - 1
    b = [sum(F(comb(k, i), comb(n, i)) * coeffs[i] for i in range(k + 1)) for k in range(n + 1)]
    assert bernstein_coefficients(coeffs) == [comb(n, k) * b[k] for k in range(n + 1)]


def test_bernstein_coefficients_bound_on_the_unit_interval():
    assert bernstein_coefficients([0, 1]) == [0, 1]  # x
    assert bernstein_coefficients([1, -1]) == [1, 0]  # 1 - x
    # (2x - 1)^2 + 1/10 is positive on [0, 1], yet its middle coefficient
    # is negative: a sign change proves no root, it only fails to exclude one.
    assert bernstein_coefficients([11, -40, 40]) == [11, -18, 11]
    assert bernstein_coefficients([]) == []
