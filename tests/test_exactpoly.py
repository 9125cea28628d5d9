import math
import random
import time
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgcorona import (
    IntPolynomial,
    Marking,
    SignedGraph,
    add_vertex_corona,
    canonical_marking,
    char_poly,
    complete_graph,
    coronal,
    coronal_pair,
    cycle_graph,
    empty_graph,
    exactpoly,
    graph_coronal,
    is_balanced,
    mu_signed_graph,
    path_graph,
    poly_gcd,
    product_char_poly_A,
    product_char_poly_L,
    product_char_poly_Q,
    real_roots,
    squarefree_decomposition,
    star_graph,
    switch,
)
from sgcorona.exactpoly import (
    _MAX_POWER_DEGREE,
    _cleared_identity,
    _isolate_squarefree,
    _matmul,
    _mu_square_charpoly,
    _refine_root,
    _remainder_sequence,
    _root_bound,
    _seeded_brackets,
    _seeds,
    _variations,
)
from helpers import (
    all_signings,
    bareiss_det,
    disjoint_union,
    fraction_refine_root,
    random_balanced_graph,
    random_marking,
    random_signed_graph,
)

X = IntPolynomial.x()


def poly(*ascending):
    return IntPolynomial(ascending)


# -- IntPolynomial basics -----------------------------------------------------


def test_polynomial_normalization():
    assert poly(1, 2, 0, 0) == poly(1, 2)
    assert poly().is_zero
    assert poly(0).is_zero
    assert poly().degree == -1
    assert poly(5).degree == 0
    assert poly(0, 0, 3).leading == 3
    assert IntPolynomial().leading == 0
    assert repr(poly(1, 0, -2)) == "IntPolynomial((1, 0, -2))"


def test_polynomial_rejects_non_integer_coefficients():
    # int() used to truncate: IntPolynomial((0.5, 1.9)) was x
    for bad in ((0.5, 1.9), (1, 2.0), ("1",), (Fraction(1, 2),), 5):
        with pytest.raises(ValueError, match="integer"):
            IntPolynomial(bad)
    assert IntPolynomial(np.array([1, -2, 0], dtype=np.int64)) == poly(1, -2)
    assert IntPolynomial((np.int32(3), True)) == poly(3, 1)


def test_polynomial_arithmetic():
    f = poly(1, 2, 1)  # (x+1)^2
    g = poly(-1, 1)    # x - 1
    assert f * g == poly(-1, -1, 1, 1)
    assert f + g == poly(0, 3, 1)
    assert f - f == poly()
    assert -g == poly(1, -1)
    assert g ** 3 == poly(-1, 3, -3, 1)
    assert 2 * g == poly(-2, 2)
    assert (X + 1) * (X - 1) == X * X - 1
    assert 3 - g == poly(4, -1)
    assert poly(3) == 3 and g != 3
    for op in (g.__add__, g.__sub__, g.__mul__, g.__eq__):
        assert op("x") is NotImplemented
    with pytest.raises(TypeError):
        g + "x"
    assert g != "x"
    with pytest.raises(ValueError, match="negative power"):
        g ** -1


def test_polynomial_power(monkeypatch):
    rng = random.Random(36)
    for _ in range(10):
        p = IntPolynomial([rng.randint(-9, 9) for _ in range(rng.randint(0, 6))])
        expected = IntPolynomial.one()
        for k in range(9):
            assert p ** k == expected
            expected = expected * p
    assert poly(3) ** 100 == poly(3 ** 100)
    assert X ** _MAX_POWER_DEGREE == IntPolynomial((0,) * _MAX_POWER_DEGREE + (1,))
    start = time.perf_counter()
    for k in (_MAX_POWER_DEGREE + 1, 10 ** 9):
        with pytest.raises(ValueError, match="degree"):
            X ** k
    assert time.perf_counter() - start < 1.0
    # square-and-multiply stops at the exponent's last bit: p ** 2 used to
    # compute p^4 as well and discard it
    calls = []
    mul = IntPolynomial.__mul__
    monkeypatch.setattr(IntPolynomial, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    for k in range(1, 17):
        calls.clear()
        X ** k
        assert len(calls) == k.bit_length() + bin(k).count("1") - 1


def test_power_of_a_constant_is_bounded_too():
    # the degree bound alone let a constant base through: 2 ** 10**6 built a
    # million-bit coefficient, and 2 ** 10**12 would need about 125 GB
    assert poly(-2) ** _MAX_POWER_DEGREE == poly((-2) ** _MAX_POWER_DEGREE)
    assert IntPolynomial() ** 0 == IntPolynomial.one()
    start = time.perf_counter()
    for base in (poly(2), poly(1), IntPolynomial()):
        for k in (_MAX_POWER_DEGREE + 1, 10 ** 6, 10 ** 12):
            with pytest.raises(ValueError, match="exceeds"):
                base ** k
    assert time.perf_counter() - start < 1.0


def test_polynomial_eval_and_shift():
    f = poly(-2, -3, 0, 1)
    assert f(2) == 0 and f(-1) == 0 and f(0) == -2
    assert f(Fraction(1, 2)) == Fraction(-2, 1) - Fraction(3, 2) + Fraction(1, 8)


def test_polynomial_serialization():
    f = poly(-2, -3, 0, 1)
    assert f.to_line() == "-2 -3 0 1"
    assert poly().to_line() == "0"


def test_exact_div():
    f = poly(-1, 0, 1)  # x^2-1
    assert f.exact_div(poly(-1, 1)) == poly(1, 1)
    for divisor in (poly(1, 1, 1), poly(0, 0, 0, 1), poly(1, 2)):
        # a nonzero remainder, a divisor of higher degree, and a leading
        # coefficient 2 that does not divide the dividend's leading 1
        with pytest.raises(ValueError, match="inexact"):
            f.exact_div(divisor)
    with pytest.raises(ZeroDivisionError):
        f.exact_div(poly())


def fraction_remainder(f, g):
    """Remainder of f by g over the rationals, by long division on Fractions."""
    r = [Fraction(c) for c in f.coefficients]
    lead = g.leading
    while len(r) > g.degree:
        t = r.pop() / lead
        for j, v in enumerate(g.coefficients[:-1], len(r) - g.degree):
            r[j] -= t * v
    while r and r[-1] == 0:
        r.pop()
    return r


# x^4 + 5x - 3 has two real roots and x^4 + 4x + 5 none; each Sturm chain
# holds a term with a negative leading coefficient
STURM_CASES = ((poly(-3, 5, 0, 0, 1), 2), (poly(5, 4, 0, 0, 1), 0))


def sturm_chain(q):
    return list(_remainder_sequence(q, q.derivative()))


def test_remainder_sequence_terms_are_positive_multiples():
    # every term after the second is -(remainder of the two before it)
    # times one positive rational: Sturm counts depend on that sign
    rng = random.Random(31)
    chains = [sturm_chain(q) for q, _ in STURM_CASES]
    while len(chains) < 202:
        f = IntPolynomial([rng.randint(-9, 9) for _ in range(rng.randint(1, 9))])
        g = IntPolynomial([rng.randint(-9, 9) for _ in range(rng.randint(1, 7))])
        if not g.is_zero and f.degree >= g.degree:
            chains.append(list(_remainder_sequence(f, g)))
    for chain in chains:
        for f, g, term in zip(chain, chain[1:], chain[2:]):
            want = [-c for c in fraction_remainder(f, g)]
            assert len(want) == len(term.coefficients)
            ratio = Fraction(term.leading) / want[-1]
            assert ratio > 0
            assert [ratio * c for c in want] == list(term.coefficients)
        # the sequence stops at its last nonzero term
        assert not chain[-1].is_zero
        assert not fraction_remainder(chain[-2], chain[-1])


def test_sturm_counts_through_negative_leading_terms():
    # the counts come before real_roots: with a wrong sign, bisection on a
    # miscounted interval need not terminate
    for q, count in STURM_CASES:
        chain = sturm_chain(q)
        assert min(p.leading for p in chain) < 0
        assert _variations(chain, -100, 0) - _variations(chain, 100, 0) == count
    for q, count in STURM_CASES:
        assert len(real_roots(q)) == count


def test_poly_gcd():
    a = poly(-1, 1) * poly(2, 1)
    b = poly(-1, 1) * poly(-3, 1)
    assert poly_gcd(a, b) == poly(-1, 1)
    # content is stripped and the result is primitive
    assert poly_gcd(poly(2, 2), poly(-1, 0, 1)) == poly(1, 1)
    assert poly_gcd(poly(4), poly(6)) == poly(1)
    assert poly_gcd(poly(), poly(-2, 2)) == poly(-1, 1)
    # gcd of coprime polynomials collapses to 1
    assert poly_gcd(poly(1, 1), poly(2, 1)) == poly(1)


# -- characteristic polynomials -----------------------------------------------


def test_char_poly_examples():
    assert char_poly(cycle_graph(3).adjacency()) == poly(-2, -3, 0, 1)
    assert char_poly([[0, 0], [0, 0]]) == poly(0, 0, 1)
    assert char_poly(path_graph(2, [-1]).adjacency()) == poly(-1, 0, 1)
    assert char_poly([]) == poly(1)
    with pytest.raises(ValueError, match="square"):
        char_poly([[0, 1]])


def test_char_poly_is_monic():
    rng = random.Random(32)
    for _ in range(20):
        g = random_signed_graph(rng, rng.randint(1, 7))
        assert char_poly(g.adjacency()).is_monic


def test_char_poly_against_determinant_oracle():
    # det(tI - M) evaluated at integers must match the polynomial
    rng = random.Random(33)
    for _ in range(12):
        n = rng.randint(1, 6)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                v = rng.randint(-4, 4)
                m[i][j] = v
                m[j][i] = v
        f = char_poly(m)
        for t in (-3, -1, 0, 2, 5):
            shifted = [[t * (1 if i == j else 0) - m[i][j] for j in range(n)] for i in range(n)]
            assert f(t) == bareiss_det(shifted)


@st.composite
def symmetric_int_matrices(draw, min_n=1, max_n=6, max_entry=4):
    n = draw(st.integers(min_n, max_n))
    upper = draw(st.lists(st.integers(-max_entry, max_entry),
                          min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2))
    m = [[0] * n for _ in range(n)]
    cells = iter(upper)
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = next(cells)
    return m


@settings(max_examples=60, deadline=None)
@given(symmetric_int_matrices(), st.integers(-6, 6))
def test_property_char_poly_matches_bareiss(m, k):
    n = len(m)
    shifted = [[k * (i == j) - m[i][j] for j in range(n)] for i in range(n)]
    assert char_poly(m)(k) == bareiss_det(shifted)


def test_char_poly_rejects_non_integer_entries():
    # a truncating read would take 1.7 as 1 and 0.5 as 0
    for bad in ([[1.7]], [["1"]], [[0, 0.5], [0.5, 0]]):
        with pytest.raises(ValueError, match="integers"):
            char_poly(bad)
    with pytest.raises(ValueError, match="integers"):
        coronal_pair([[0.5, 0], [0, 0]], (1, 1))
    with pytest.raises(ValueError, match="integers"):
        coronal_pair([[0, 1], [1, 0]], (1, 0.5))
    # integer types other than int still work, numpy's included
    assert char_poly(np.array([[0, 2], [2, 0]], dtype=np.int32)) == poly(-4, 0, 1)
    assert char_poly([[np.int64(3)]]) == poly(-3, 1)


def test_char_poly_switching_invariant():
    rng = random.Random(34)
    for _ in range(20):
        g = random_signed_graph(rng, rng.randint(1, 6))
        theta = random_marking(rng, g.n)
        assert char_poly(switch(g, theta).adjacency()) == char_poly(g.adjacency())


# -- coronals -----------------------------------------------------------------


def test_coronal_k1():
    c = graph_coronal(empty_graph(1))
    assert c.as_pair() == (poly(1), poly(0, 1))


def test_coronal_positive_path():
    c = graph_coronal(path_graph(2))
    assert c.numerator == poly(2)
    assert c.denominator == poly(-1, 1)
    # the unreduced pair (2x+2)/(x^2-1) loses the monic gcd x+1
    assert coronal_pair(path_graph(2).adjacency(), (1, 1)) == (poly(2, 2), poly(-1, 0, 1))


def test_coronal_star():
    c = graph_coronal(star_graph(2))
    assert c.as_pair() == (poly(4, 3), poly(-2, 0, 1))
    # mixed-sign star: center marked negative
    c = graph_coronal(star_graph(2, [1, -1]))
    assert c.as_pair() == (poly(-4, 3), poly(-2, 0, 1))


def test_coronal_reconstruction():
    rng = random.Random(35)
    for _ in range(30):
        g = random_signed_graph(rng, rng.randint(1, 6))
        mu = canonical_marking(g)
        p, f = coronal_pair(g.adjacency(), mu)
        c = coronal(g.adjacency(), mu)
        removed = f.exact_div(c.denominator)
        assert c.numerator * removed == p
        assert removed.is_monic and poly_gcd(p, f) == removed
        assert c.numerator.degree < c.denominator.degree
        assert c.denominator.is_monic
        assert poly_gcd(c.numerator, c.denominator) == poly(1)


@settings(max_examples=60, deadline=None)
@given(symmetric_int_matrices(min_n=0), st.integers(-6, 6), st.data())
def test_property_coronal_numerator_by_cramer(m, k, data):
    # mu^T adj(kI - M) mu = sum_i mu_i det(kI - M with column i replaced by
    # mu), by Cramer's rule; independent of the determinant lemma.
    n = len(m)
    mu = data.draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    shifted = [[k * (i == j) - m[i][j] for j in range(n)] for i in range(n)]
    want = sum(
        mu[i] * bareiss_det([row[:i] + [mu[r]] + row[i + 1:] for r, row in enumerate(shifted)])
        for i in range(n)
    )
    assert coronal_pair(m, mu)[0](k) == want


def test_coronal_pair_of_empty_matrix():
    assert coronal_pair([], ()) == (poly(), poly(1))


def test_coronal_dimension_mismatch():
    with pytest.raises(ValueError):
        coronal(path_graph(2).adjacency(), (1,))


def test_coronal_is_not_switching_invariant():
    # unlike the characteristic polynomial: P2 switched at one endpoint
    plain = graph_coronal(path_graph(2))
    switched = graph_coronal(switch(path_graph(2), Marking((-1, 1))))
    assert plain.as_pair() == (poly(2), poly(-1, 1))
    assert switched.as_pair() == (poly(2), poly(1, 1))


# -- product characteristic polynomials ----------------------------------------


def test_product_A_closed_forms():
    k1 = empty_graph(1)
    assert product_char_poly_A(k1, k1) == poly(0, -1, 0, 1)
    # two disjoint paths on three vertices: x^2 (x^2-2)^2
    assert product_char_poly_A(path_graph(2), k1) == (X ** 2) * (X ** 2 - 2) ** 2
    # K4 plus an isolated vertex: x (x-3) (x+1)^3
    assert product_char_poly_A(k1, cycle_graph(3)) == X * (X - 3) * (X + 1) ** 3


def test_product_A_matches_direct_randomly():
    rng = random.Random(36)
    for _ in range(25):
        g1 = random_signed_graph(rng, rng.randint(1, 4))
        g2 = random_signed_graph(rng, rng.randint(0, 4))
        prod, _ = add_vertex_corona(g1, g2)
        assert product_char_poly_A(g1, g2) == char_poly(prod.adjacency())


def test_product_L_closed_forms():
    k1 = empty_graph(1)
    assert product_char_poly_L(k1, k1) == (X ** 2) * (X - 2)
    assert product_char_poly_L(path_graph(2), k1) == (X ** 2) * (X - 1) ** 2 * (X - 3) ** 2


def test_product_Q_closed_forms():
    k1 = empty_graph(1)
    assert product_char_poly_Q(k1, k1) == (X ** 2) * (X - 2)
    prod, _ = add_vertex_corona(path_graph(2), k1)
    assert product_char_poly_Q(path_graph(2), k1) == char_poly(prod.signless_laplacian())


def test_product_LQ_match_direct_randomly():
    rng = random.Random(37)
    regular_bases = [
        empty_graph(1),
        path_graph(2),
        cycle_graph(3),
        cycle_graph(4),
        disjoint_union(path_graph(2), path_graph(2)),
        complete_graph(4),
    ]
    for _ in range(20):
        base = rng.choice(regular_bases)
        g1 = SignedGraph(base.n, [(u, v, rng.choice((1, -1))) for u, v, _ in base.edges()])
        g2 = random_signed_graph(rng, rng.randint(0, 3))
        prod, _ = add_vertex_corona(g1, g2)
        assert product_char_poly_L(g1, g2) == char_poly(prod.laplacian())
        assert product_char_poly_Q(g1, g2) == char_poly(prod.signless_laplacian())


def test_product_L_requires_regular_first_factor():
    with pytest.raises(ValueError):
        product_char_poly_L(path_graph(3), empty_graph(1))
    with pytest.raises(ValueError):
        product_char_poly_Q(star_graph(2), empty_graph(1))


def test_product_L_constant_term_zero_when_balanced():
    # balanced signed graphs carry 0 in the Laplacian spectrum
    rng = random.Random(38)
    hits = 0
    for base in (path_graph(2), cycle_graph(3), cycle_graph(4)):
        for _ in range(6):
            g2 = random_balanced_graph(rng, 3)
            prod, _ = add_vertex_corona(base, g2)
            if is_balanced(prod):
                hits += 1
                assert product_char_poly_L(base, g2).coeff(0) == 0
    assert hits > 0


def test_balanced_first_factor_cospectral_substitution():
    # for balanced g1 the squared re-signed adjacency is cospectral with
    # the squared original, so either feeds the product identity
    rng = random.Random(39)
    for _ in range(15):
        g1 = random_balanced_graph(rng, rng.randint(1, 4))
        g2 = random_signed_graph(rng, rng.randint(1, 3))
        a = g1.adjacency()
        a_mu = mu_signed_graph(g1, canonical_marking(g1)).adjacency()
        g_from_plain = char_poly(_matmul(a, a))
        g_from_mu = char_poly(_matmul(a_mu, a_mu))
        assert g_from_plain == g_from_mu
        mu2 = canonical_marking(g2)
        p2, f2 = coronal_pair(g2.adjacency(), mu2)
        rebuilt = _cleared_identity(g_from_plain, p2, f2, g1.n)
        assert rebuilt == product_char_poly_A(g1, g2)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 6).flatmap(
        lambda n1: st.tuples(st.just(n1), st.lists(st.integers(-9, 9), max_size=n1 + 1))
    ),
    st.lists(st.integers(-5, 5), max_size=5),
    st.lists(st.integers(-5, 5), max_size=5),
    st.integers(-4, 4),
    st.integers(0, 5),
)
def test_property_cleared_product_matches_naive_sum(n1_g, p, f, r, d):
    # Horner assembly against sum_k g_k u^k f^(n1-k), term by term, with
    # u = (x - r)((x - r - d) f - p)
    n1, g = n1_g
    g, p, f = IntPolynomial(g), IntPolynomial(p), IntPolynomial(f)
    u = (X - r) * ((X - r - d) * f - p)
    naive = sum((g.coeff(k) * u ** k * f ** (n1 - k) for k in range(n1 + 1)), IntPolynomial())
    assert _cleared_identity(g, p, f, n1, r, d) == naive


def test_mu_square_charpoly_from_underlying_graph():
    # (-1)^n h(x) h(-x) with h = charpoly(|A(g)|) against the squared
    # re-signed adjacency it replaces, at odd and even orders
    assert _mu_square_charpoly(empty_graph(0)) == poly(1)
    rng = random.Random(40)
    for n in range(8):
        for _ in range(6):
            g = random_signed_graph(rng, n, rng.random())
            a_mu = mu_signed_graph(g, canonical_marking(g)).adjacency()
            assert _mu_square_charpoly(g) == char_poly(_matmul(a_mu, a_mu))


def test_product_A_monic_of_right_degree():
    for g1 in all_signings(cycle_graph(3)):
        f = product_char_poly_A(g1, star_graph(2))
        assert f.is_monic and f.degree == 3 * (2 + 3)


# -- factorization and roots ----------------------------------------------------


def test_squarefree_decomposition():
    f = poly(-1, 1) * (poly(-2, 1) ** 2) * (poly(3, 1) ** 3)
    got = squarefree_decomposition(f)
    assert got == [(poly(-1, 1), 1), (poly(-2, 1), 2), (poly(3, 1), 3)]
    assert squarefree_decomposition(poly(0, -2, 0, 1)) == [(poly(0, -2, 0, 1), 1)]
    assert squarefree_decomposition(poly(-6)) == []
    with pytest.raises(ValueError, match="zero polynomial"):
        squarefree_decomposition(poly())


def variations_at_infinity(chain, sign):
    """Sign variations of the chain at sign * infinity, from leading terms."""
    signs = [p.leading * sign ** p.degree > 0 for p in chain]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def assert_window_holds(p):
    # B is a power of two above every complex root (np.roots is floating
    # point, hence the relative slack), and on each squarefree factor the
    # Sturm count over (-B, B] is the count over the whole real line
    bound = _root_bound(p)
    assert bound >= 2 and bound & (bound - 1) == 0
    roots = np.roots([float(c) for c in reversed(p.coefficients)])
    assert np.all(np.abs(roots) < bound * (1 + 1e-9))
    for q, _ in squarefree_decomposition(p):
        bound = _root_bound(q)
        assert bound & (bound - 1) == 0
        chain = sturm_chain(q)
        assert (_variations(chain, -bound, 0) - _variations(chain, bound, 0)
                == variations_at_infinity(chain, -1) - variations_at_infinity(chain, 1))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-2 ** 40, 2 ** 40), min_size=2, max_size=11)
       .filter(lambda c: c[-1] != 0))
def test_property_root_bound_holds(coefficients):
    assert_window_holds(IntPolynomial(coefficients))


def test_root_bound_pinned_cases():
    for k in range(31):
        # x^d - 2^(kd): roots of modulus 2^k, Fujiwara's bound is below
        # 2^(k+1), so B is exactly that
        for d in (1, 2, 3, 5):
            p = X ** d - 2 ** (k * d)
            assert _root_bound(p) == 2 << k
            assert_window_holds(p)
        # x - (2^k - 1): the bit-length bound is strict, with room 1
        p = X - (2 ** k - 1)
        assert _root_bound(p) == max(2 ** k, 2)
        assert real_roots(p) == [2 ** k - 1]
    for k in (3, 17, 30):
        assert real_roots(X ** 4 - 2 ** (4 * k)) == [-2.0 ** k, 2.0 ** k]
    for d in (1, 2, 7):
        # every root 0, or of modulus below 1: B is 2
        for c in (1, -3, 2 ** 40):
            assert _root_bound(c * X ** d) == 2
        assert _root_bound(10 ** 9 * X ** d + 1) == 2
        assert_window_holds(10 ** 9 * X ** d + 1)
    for d, a in ((5, 10), (8, 100), (12, 1000)):
        # Mignotte: two real roots within about 2 a^(-(d+2)/2) of 1/a
        p = X ** d - 2 * (a * X - 1) ** 2
        assert_window_holds(p)
        assert sum(abs(r - 1 / a) < 1e-3 for r in real_roots(p)) == 2


def test_isolation_rejects_a_repeated_root():
    with pytest.raises(ValueError, match="not squarefree"):
        _isolate_squarefree(X ** 2 * (X - 1), 4)


def criterion_10_matrix(n, seed):
    """Symmetric n x n matrix with entries in [-4, 4], as criterion 10 draws them."""
    rng = random.Random(seed)
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.randint(-4, 4)
    return m


def test_isolation_evaluates_each_point_once(monkeypatch):
    # the chain is evaluated at both ends of the window, then once per
    # midpoint: each later point halves two adjacent points already seen
    mignotte = X ** 5 - 2 * (10 * X - 1) ** 2
    for q in (STURM_CASES[0][0], mignotte, char_poly(criterion_10_matrix(12, 1010))):
        points = []

        def recording(chain, m, k):
            points.append(Fraction(m, 2 ** k))
            return _variations(chain, m, k)

        bound = _root_bound(q)
        with monkeypatch.context() as patch:
            patch.setattr(exactpoly, "_variations", recording)
            intervals = _isolate_squarefree(q, bound)
        assert len(set(points)) == len(points)
        assert points[:2] == [-bound, bound]
        for i, x in enumerate(points[2:], 2):
            below = max(p for p in points[:i] if p < x)
            above = min(p for p in points[:i] if p > x)
            assert x == (below + above) / 2
        # evaluations = 2 + midpoints, and the leaves of the bisection are
        # the gaps between adjacent points, the isolating intervals among them
        ends = sorted(points)
        assert set(map(dyadic_interval, intervals)) <= set(zip(ends, ends[1:]))
        assert len(intervals) == len(real_roots(q)) >= 1


def dyadic_interval(bracket):
    """The bracket (a, b, k) of `_isolate_squarefree` as Fractions (a/2^k, b/2^k)."""
    a, b, k = bracket
    return Fraction(a, 2 ** k), Fraction(b, 2 ** k)


def isolation_holds(q):
    """Disjoint (a, b] intervals, Sturm count 1 each, as many as q's real roots."""
    chain = sturm_chain(q)
    brackets = _isolate_squarefree(q, _root_bound(q))
    intervals = sorted(map(dyadic_interval, brackets))
    for (_, b), (a, _) in zip(intervals, intervals[1:]):
        assert b <= a
    for a, b, k in brackets:
        assert a < b and _variations(chain, a, k) - _variations(chain, b, k) == 1
    assert len(intervals) == variations_at_infinity(chain, -1) - variations_at_infinity(chain, 1)
    return intervals


@settings(max_examples=80, deadline=None)
@given(symmetric_int_matrices(max_n=7))
def test_property_isolation_of_squarefree_char_polys(m):
    f = char_poly(m)
    isolation_holds(f.exact_div(poly_gcd(f, f.derivative())))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 8), st.integers(-40, 40)), min_size=1, max_size=8,
                unique_by=lambda t: Fraction(t[1], t[0])))
def test_property_isolation_of_distinct_linear_factors(factors):
    # q = prod (a x - b): every root b/a lies in exactly one interval
    q = math.prod((poly(-b, a) for a, b in factors), start=poly(1))
    intervals = isolation_holds(q)
    for a, b in factors:
        assert sum(lo < Fraction(b, a) <= hi for lo, hi in intervals) == 1


def test_real_roots_examples():
    roots = real_roots(poly(-2, -3, 0, 1))  # (x-2)(x+1)^2
    assert len(roots) == 3
    assert abs(roots[0] + 1) < 1e-9 and abs(roots[1] + 1) < 1e-9
    assert abs(roots[2] - 2) < 1e-9
    roots = real_roots(poly(0, 0, 1))
    assert roots == [0.0, 0.0]
    roots = real_roots(poly(0, -2, 0, 1))  # x(x^2-2)
    assert abs(roots[0] + 2 ** 0.5) < 1e-9
    assert roots[1] == 0.0
    assert abs(roots[2] - 2 ** 0.5) < 1e-9
    assert real_roots(poly(-7)) == []
    with pytest.raises(ValueError, match="zero polynomial"):
        real_roots(poly())


def test_real_roots_ignore_complex_pairs():
    # x (x^2 + 1): only the real root is reported
    assert real_roots(poly(0, 1, 0, 1)) == [0.0]


def test_real_roots_on_bisection_points(monkeypatch):
    # x (2x - 1) (4x + 1) (x^2 - 2): 0, 1/2 and -1/4 come back exactly.
    # Seeded, each is the centre of its bracket, so the first midpoint;
    # by Sturm, with bound 3 the search window is (-4, 4], so each is a
    # bisection midpoint, the first of them at the top level
    p = X * poly(-1, 2) * poly(1, 4) * poly(-2, 0, 1)
    expected = [-math.sqrt(2), -0.25, 0.0, 0.5, math.sqrt(2)]
    for seeded in (True, False):
        with monkeypatch.context() as patch:
            if not seeded:
                patch.setattr(exactpoly, "_seeded_brackets", lambda q, seeds: None)
            roots = real_roots(p, bound=3)
            assert roots[1:4] == [-0.25, 0.0, 0.5]
            assert roots == pytest.approx(expected, abs=1e-11)
            assert real_roots(p) == pytest.approx(expected, abs=1e-11)
            # a squared factor is isolated on its own and repeats its root
            roots = real_roots(p * poly(-1, 2), bound=3)
            assert roots == pytest.approx(expected[:4] + [0.5] + expected[4:], abs=1e-11)


def fraction_count(chain, lo, hi):
    """Roots of the chain's first term in (lo, hi], by Fraction evaluation."""
    def v(x):
        signs = [s > 0 for s in (p(x) for p in chain) if s]
        return sum(a != b for a, b in zip(signs, signs[1:]))
    return v(lo) - v(hi)


def assert_roots_of_squarefree(q, roots):
    """roots are all of q's real roots, each within 1e-11 before rounding
    to float: each run of roots closer than 2e-11 holds as many roots of q
    within 1e-11 and an ulp of it, and no more are left."""
    chain = sturm_chain(q)
    assert chain[-1].degree == 0
    assert len(roots) == variations_at_infinity(chain, -1) - variations_at_infinity(chain, 1)
    runs = []
    for r in roots:
        if runs and r - runs[-1][-1] <= 2e-11:
            runs[-1].append(r)
        else:
            runs.append([r])
    for run in runs:
        lo, hi = (Fraction(r) + sign * (Fraction(1, 10 ** 11) + Fraction(math.ulp(r)))
                  for r, sign in ((run[0], -1), (run[-1], 1)))
        assert fraction_count(chain, lo, hi) == len(run)


def fallback_recorder(monkeypatch):
    """Names of the fallback steps `real_roots` takes, as they run."""
    steps = []
    for name in ("squarefree_decomposition", "_isolate_squarefree"):
        real = getattr(exactpoly, name)
        monkeypatch.setattr(exactpoly, name,
                            lambda *args, name=name, real=real: steps.append(name) or real(*args))
    return steps


def test_mignotte_forces_the_fallback_and_keeps_exact_roots(monkeypatch):
    # x^d - 2(ax - 1)^2 has two real roots near 1/a, for large a about
    # 2 a^(-(d+2)/2) apart; for d >= 5 it also has complex ones, so no
    # certificate of deg p brackets exists and Yun, then Sturm, must run
    steps = fallback_recorder(monkeypatch)
    for d in range(3, 13):
        for a in (2, 3, 10, 100, 1000):
            p = X ** d - 2 * (a * X - 1) ** 2
            steps.clear()
            roots = real_roots(p)
            assert_roots_of_squarefree(p, roots)
            if a >= 100:
                assert sum(abs(r - 1 / a) < 1e-3 for r in roots) == 2
            if d >= 5:
                assert steps == ["squarefree_decomposition", "_isolate_squarefree"]


def test_repeated_roots_come_back_through_yun(monkeypatch):
    steps = fallback_recorder(monkeypatch)
    f, g, h = (char_poly(criterion_10_matrix(n, 70 + n)) for n in (2, 3, 4))
    for u, v in ((f, g), (f, h), (g, h)):
        assert poly_gcd(u, v) == 1
    for q in (f, g, h):
        steps.clear()
        assert_roots_of_squarefree(q, real_roots(q))
        assert not steps
    steps.clear()
    want = sorted(real_roots(f) + 2 * real_roots(g) + 3 * real_roots(h))
    assert real_roots(f * g ** 2 * h ** 3) == want
    assert steps[0] == "squarefree_decomposition"
    for n in range(1, 9):
        m = criterion_10_matrix(n, 90 + n)
        mm = [row + [0] * n for row in m] + [[0] * n + row for row in m]
        assert real_roots(char_poly(mm)) == sorted(2 * real_roots(char_poly(m)))


def test_seeded_path_certifies_criterion_10_char_polys(monkeypatch):
    def fail(*args):
        raise AssertionError("fallback ran")

    monkeypatch.setattr(exactpoly, "squarefree_decomposition", fail)
    monkeypatch.setattr(exactpoly, "_isolate_squarefree", fail)
    for n in range(1, 21):
        for seed in (1010 * n, 1010 * n + 1):
            m = criterion_10_matrix(n, seed)
            want = np.linalg.eigvalsh(np.array(m, dtype=float))
            for bound in (None, max(sum(map(abs, row)) for row in m)):
                roots = real_roots(char_poly(m), bound=bound)
                assert len(roots) == n
                assert np.max(np.abs(np.array(roots) - want)) < 1e-9


def test_seeded_brackets_widen_then_give_up():
    q = char_poly(criterion_10_matrix(12, 1212))
    seeds = _seeds(q)
    chain = sturm_chain(q)
    for shift, half_width in ((0, 2 ** 8), (1e-9, 2 ** 16), (1e-6, 2 ** 24)):
        brackets = _seeded_brackets(q, [s + shift for s in seeds])
        assert len(brackets) == q.degree
        assert all(k == 40 and 0 < b - a <= 2 * half_width for a, b, k in brackets)
        assert all(b <= c for (_, b, _), (c, _, _) in zip(brackets, brackets[1:]))
        assert max(b - a for a, b, _ in brackets) > half_width
        for a, b, k in brackets:
            assert fraction_count(chain, Fraction(a, 2 ** k), Fraction(b, 2 ** k)) == 1
    assert _seeded_brackets(q, [s + 1e-3 for s in seeds]) is None
    assert _seeded_brackets(q, seeds[1:]) is None
    assert _seeded_brackets(q, [math.nan] + seeds[1:]) is None
    # a complex pair has one real part: x^2 + 1, and (x - 1)(x^2 + 1)
    for p in (poly(1, 0, 1), poly(-1, 1, -1, 1)):
        assert _seeded_brackets(p, _seeds(p)) is None


def root_runs(roots):
    """(value, multiplicity) for each run of equal roots."""
    runs = []
    for r in roots:
        if runs and runs[-1][0] == r:
            runs[-1][1] += 1
        else:
            runs.append([r, 1])
    return runs


@st.composite
def polynomials_with_repeats(draw):
    """Products of linear factors and small char polys, with multiplicities."""
    p = poly(draw(st.integers(1, 3)))
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            factor = poly(draw(st.integers(-40, 40)), draw(st.integers(1, 8)))
        else:
            factor = char_poly(draw(symmetric_int_matrices(max_n=4)))
        p = p * factor ** draw(st.integers(1, 3))
    return p


@settings(max_examples=80, deadline=None)
@given(polynomials_with_repeats(), st.sampled_from([None, 0, 1, 2, 3, 7]))
def test_property_seeded_roots_match_sturm_roots(p, bound):
    seeded = root_runs(real_roots(p, bound=bound))
    with mock.patch.object(exactpoly, "_seeded_brackets", lambda q, seeds: None):
        sturm = root_runs(real_roots(p, bound=bound))
    assert [m for _, m in seeded] == [m for _, m in sturm]
    assert all(abs(a - b) <= 2e-11 for (a, _), (b, _) in zip(seeded, sturm))


def test_root_finders_reject_negative_or_infinite_bound():
    # bound=-5 used to bisect forever, bound=-1 to find no roots at all,
    # and an infinite bound to raise OverflowError
    start = time.perf_counter()
    for bad in (-1, -5, -0.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="bound"):
            real_roots(poly(-2, 0, 1), bound=bad)
    assert time.perf_counter() - start < 1.0
    assert real_roots(poly(0, 0, 1), bound=0) == [0.0, 0.0]


# 2^-20 is dyadic, so a bracket width can equal it exactly
WIDTHS = [Fraction(t).limit_denominator(10 ** 15) for t in (1e-3, 1e-11, 1e-15, 2 ** -20)]


def refine(q, a, b, width):
    """`_refine_root` on (a, b], a and b dyadic Fractions, to a unit-fraction
    width, returning the root as a Fraction."""
    assert width.numerator == 1
    k = max(a.denominator, b.denominator).bit_length() - 1
    m, j = _refine_root(q, int(a * 2 ** k), int(b * 2 ** k), k, width.denominator)
    return Fraction(m, 2 ** j)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-20, 20), min_size=2, max_size=9).filter(lambda c: c[-1] != 0))
def test_property_refine_root_matches_fraction_bisection(coefficients):
    # integer dyadic bisection returns exactly the Fraction the
    # Fraction-arithmetic bisection returns, on every isolated interval
    for q, _ in squarefree_decomposition(IntPolynomial(coefficients)):
        for bracket in _isolate_squarefree(q, _root_bound(q)):
            a, b = dyadic_interval(bracket)
            for width in WIDTHS:
                assert refine(q, a, b, width) == fraction_refine_root(q, a, b, width)


def test_refine_root_pinned_cases():
    width = WIDTHS[1]
    q = poly(-1, 1)  # root 1 at b: returned as b itself
    assert refine(q, Fraction(0), Fraction(1), width) == 1
    q = poly(-3, 8)  # root 3/8 at the third midpoint of (0, 1]
    assert refine(q, Fraction(0), Fraction(1), width) == Fraction(3, 8)
    # endpoints over different denominators: -bound and a dyadic; and
    # (0, 1], whose bracket widths meet the dyadic width exactly
    for q, a, b in ((poly(-1, 3), Fraction(0), Fraction(1)),
                    (poly(3, 2), Fraction(-4), Fraction(-5, 4)),
                    (poly(-2, 0, 1), Fraction(-3), Fraction(-7, 8)),
                    (poly(-2, 0, 1), Fraction(5, 4), Fraction(3))):
        for w in WIDTHS:
            r = refine(q, a, b, w)
            assert r == fraction_refine_root(q, a, b, w)
            assert a < r <= b and r.denominator & (r.denominator - 1) == 0
    assert abs(refine(poly(3, 2), Fraction(-4), Fraction(-5, 4), width) + 1.5) <= width
    assert abs(refine(poly(-2, 0, 1), Fraction(-3), Fraction(-7, 8), width)
               + math.sqrt(2)) < 1e-11


def test_coronal_catalog_co_regular():
    # co-regular graphs have coronal n/(x - k)
    cases = []
    for base in (cycle_graph(3), cycle_graph(4), cycle_graph(5), complete_graph(4)):
        cases.extend(all_signings(base))
    from sgcorona import regularity

    checked = 0
    for g in cases:
        rep = regularity(g)
        if rep.co_regular_pair is None:
            continue
        checked += 1
        _, k = rep.co_regular_pair
        c = graph_coronal(g)
        assert c.as_pair() == (poly(g.n), poly(-k, 1))
    assert checked >= 8


def test_coronal_catalog_stars():
    # signed stars: ((n+1) x + 2 n mark(center)) / (x^2 - n), cross-multiplied
    # so the n=1 case (where the pair reduces further) is covered too
    for leaves in (1, 2, 3, 4):
        for g in all_signings(star_graph(leaves)):
            mu = canonical_marking(g)
            c = graph_coronal(g)
            target_num = poly(2 * leaves * mu[0], leaves + 1)
            target_den = poly(-leaves, 0, 1)
            assert c.numerator * target_den == c.denominator * target_num
            if leaves >= 2:
                assert c.as_pair() == (target_num, target_den)
