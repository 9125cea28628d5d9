"""Acceptance suite: one test per criterion, printing a pass line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else: exact checks use
integer equality (zero tolerance), spectral assembly matches at 1e-8,
equienergetic products at 1e-6, eigensolver identities at 1e-9.
"""

import random

import pytest

from sgcorona import (
    SignedGraph,
    add_vertex_corona,
    canonical_marking,
    char_poly,
    complete_graph,
    corollary_coregular_spectrum,
    corollary_star_spectrum,
    count_signs,
    cycle_graph,
    duplication,
    edge_stats_formula,
    empty_graph,
    energy,
    enumerate_triads,
    equienergetic_product_pair,
    equienergetic_search,
    graph_coronal,
    integrality,
    is_balanced,
    jacobi_eigh,
    mu_signed_graph,
    path_graph,
    real_roots,
    regularity,
    spectrum,
    star_graph,
    switch,
    switching_iso_witness,
    triad_stats_formula,
    unbalance_criteria,
    vertex_corona,
    IntPolynomial,
    PreconditionError,
)
from helpers import (
    all_signings,
    connected_components,
    disjoint_union,
    induced_subgraph,
    max_spectral_diff,
    random_balanced_graph,
    random_signed_graph,
)

SWEEP_G1 = [empty_graph(1), path_graph(2), path_graph(3), cycle_graph(3), cycle_graph(4)]
SWEEP_G1_REGULAR = [
    empty_graph(1),
    path_graph(2),
    cycle_graph(3),
    cycle_graph(4),
    disjoint_union(path_graph(2), path_graph(2)),
]
SWEEP_G2 = [empty_graph(1), path_graph(2), cycle_graph(3), star_graph(2)]


def sweep_pairs(bases1, bases2):
    for b1 in bases1:
        for g1 in all_signings(b1):
            for b2 in bases2:
                for g2 in all_signings(b2):
                    yield g1, g2


@pytest.fixture(scope="module")
def search_pairs():
    return equienergetic_search(max_n=6)


def test_criterion_1_adjacency_theorem_exact():
    from sgcorona import product_char_poly_A

    count = 0
    for g1, g2 in sweep_pairs(SWEEP_G1, SWEEP_G2):
        prod, _ = add_vertex_corona(g1, g2)
        assert product_char_poly_A(g1, g2) == char_poly(prod.adjacency())
        count += 1
    assert count == 465
    print(f"\ncriterion 1: PASS (adjacency identity exact on {count} pairs)")


def test_criterion_2_laplacian_theorems_exact():
    from sgcorona import product_char_poly_L, product_char_poly_Q

    count = 0
    for g1, g2 in sweep_pairs(SWEEP_G1_REGULAR, SWEEP_G2):
        prod, _ = add_vertex_corona(g1, g2)
        assert product_char_poly_L(g1, g2) == char_poly(prod.laplacian())
        assert product_char_poly_Q(g1, g2) == char_poly(prod.signless_laplacian())
        count += 1
    assert count == 465
    print(f"\ncriterion 2: PASS (L and Q identities exact on {count} pairs)")


def test_criterion_3_switching_isomorphism():
    rng = random.Random(1003)
    for _ in range(200):
        g1 = random_signed_graph(rng, rng.randint(1, 4))
        g2 = random_signed_graph(rng, rng.randint(1, 4))
        switching_iso_witness(g1, g2)  # verifies relabel+switch bit-exactly
        star, _ = add_vertex_corona(g1, g2)
        ring, _ = vertex_corona(g1, g2)
        for which in ("A", "L", "Q"):
            assert char_poly(star.matrix(which)) == char_poly(ring.matrix(which))
    print("\ncriterion 3: PASS (200 random pairs relabel+switch and cospectral)")


def test_criterion_4_balance_lemmas():
    rng = random.Random(1004)
    for _ in range(500):
        g = random_signed_graph(rng, rng.randint(1, 8), p=0.45)
        assert is_balanced(mu_signed_graph(g, canonical_marking(g)))
        d = duplication(g)
        assert is_balanced(d)
        for comp in connected_components(d):
            sub = induced_subgraph(d, comp)
            assert abs(min(spectrum(sub, "L").values)) <= 1e-8
    print("\ncriterion 4: PASS (500 random graphs, both lemmas + zero L eigenvalue)")


def test_criterion_5_tables_formula_vs_enumeration():
    for g1, g2 in sweep_pairs(SWEEP_G1, SWEEP_G2):
        prod, _ = add_vertex_corona(g1, g2)
        es = edge_stats_formula(g1, g2)
        pos, neg = count_signs(prod)
        assert (es.total, es.positive, es.negative) == (prod.m, pos, neg)
        assert triad_stats_formula(g1, g2).counts == enumerate_triads(prod).counts
    es = edge_stats_formula(path_graph(2), cycle_graph(3))
    assert es.total == 14
    assert triad_stats_formula(path_graph(2), cycle_graph(3)).total == 8
    # one-negative path as second factor: unbalanced product, type-3 edge
    p2_neg = path_graph(2, [-1])
    prod, _ = add_vertex_corona(path_graph(3), p2_neg)
    assert not is_balanced(prod)
    assert unbalance_criteria(p2_neg) == [3]
    print("\ncriterion 5: PASS (tables match enumeration; 14 edges / 8 triads; "
          "type-3 instance unbalanced)")


def _coregular_pool():
    pool = []
    bases = [cycle_graph(3), cycle_graph(4), cycle_graph(5),
             complete_graph(4), SignedGraph(4, [(0, 2, 1), (0, 3, 1), (1, 2, 1), (1, 3, 1)])]
    for base in bases:
        for g in all_signings(base):
            if regularity(g).co_regular_pair is not None:
                pool.append(g)
    return pool


def test_criterion_6_corollary_spectra():
    got = corollary_coregular_spectrum(empty_graph(1), cycle_graph(3))
    assert max_spectral_diff(got.values, (3.0, 0.0, -1.0, -1.0, -1.0)) < 1e-8
    got = corollary_star_spectrum(empty_graph(1), 1, 1)
    assert max_spectral_diff(got.values, (2.0, 0.0, -1.0, -1.0)) < 1e-8

    rng = random.Random(1006)
    pool = _coregular_pool()
    for _ in range(50):
        g1 = random_signed_graph(rng, rng.randint(1, 3))
        g2 = rng.choice(pool)
        assembled = corollary_coregular_spectrum(g1, g2)
        prod, _ = add_vertex_corona(g1, g2)
        assert max_spectral_diff(assembled.values, spectrum(prod).values) < 1e-8
    for _ in range(50):
        g1 = random_balanced_graph(rng, rng.randint(1, 3))
        n2 = rng.randint(1, 4)
        signs = [rng.choice((1, -1)) for _ in range(n2)]
        star = star_graph(n2, signs)
        center = canonical_marking(star)[0]
        assembled = corollary_star_spectrum(g1, n2, center)
        prod, _ = add_vertex_corona(g1, star)
        assert max_spectral_diff(assembled.values, spectrum(prod).values) < 1e-8
    print("\ncriterion 6: PASS (both corollaries match direct spectra on "
          "50 + 50 instances at 1e-8)")


def test_criterion_7_coronal_catalog():
    checked = 0
    for g in _coregular_pool():
        _, k = regularity(g).co_regular_pair
        assert graph_coronal(g).as_pair() == (
            IntPolynomial((g.n,)),
            IntPolynomial((-k, 1)),
        )
        checked += 1
    assert checked >= 10
    stars = 0
    for leaves in (1, 2, 3, 4):
        for g in all_signings(star_graph(leaves)):
            mu = canonical_marking(g)
            c = graph_coronal(g)
            num = IntPolynomial((2 * leaves * mu[0], leaves + 1))
            den = IntPolynomial((-leaves, 0, 1))
            assert c.numerator * den == c.denominator * num
            if leaves >= 2:
                assert c.as_pair() == (num, den)
            stars += 1
    print(f"\ncriterion 7: PASS (coronals exact: {checked} co-regular graphs, "
          f"{stars} signed stars)")


def test_criterion_8_integrality():
    assert integrality(cycle_graph(3)).integral
    assert not integrality(star_graph(2)).integral
    rng = random.Random(1008)
    pool = [random_signed_graph(rng, rng.randint(1, 6)) for _ in range(60)]
    pool += [cycle_graph(4), complete_graph(4), star_graph(4), empty_graph(1)]
    for g in pool:
        exact = integrality(g)
        numeric = all(abs(v - round(v)) < 1e-7 for v in spectrum(g).values)
        assert exact.integral == numeric
    print(f"\ncriterion 8: PASS (exact decision agrees with numeric check on "
          f"{len(pool)} graphs)")


def test_criterion_9_equienergetic_construction(search_pairs):
    assert search_pairs, "search oracle found no admissible pair at order <= 6"
    for h1, h2 in search_pairs:
        for g in (empty_graph(1), path_graph(2), cycle_graph(3)):
            p1, p2, report = equienergetic_product_pair(g, h1, h2)
            assert report.energy_gap <= 1e-6
            assert not report.products_cospectral
            assert char_poly(p1.adjacency()) != char_poly(p2.adjacency())
    with pytest.raises(PreconditionError) as info:
        equienergetic_product_pair(path_graph(2), cycle_graph(3), cycle_graph(3, -1))
    assert any("coronal" in v for v in info.value.violations)
    orders = sorted({h1.n for h1, _ in search_pairs})
    print(f"\ncriterion 9: PASS ({len(search_pairs)} admissible pair(s) at order(s) "
          f"{orders}; products equienergetic within 1e-6 and non-cospectral; "
          "guard case rejected)")


def test_criterion_10_eigensolver_quality():
    rng = random.Random(1010)
    for _ in range(100):
        n = rng.randint(2, 20)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                v = rng.randint(-4, 4)
                m[i][j] = v
                m[j][i] = v
        w, _ = jacobi_eigh(m)
        bound = max(sum(abs(x) for x in row) for row in m)
        exact = sorted(real_roots(char_poly(m), bound=bound), reverse=True)
        assert len(exact) == n
        assert max_spectral_diff(w, exact) < 1e-8
        trace = sum(m[i][i] for i in range(n))
        fro2 = sum(x * x for row in m for x in row)
        assert abs(sum(w) - trace) <= 1e-9 * max(1.0, abs(trace))
        assert abs(sum(x * x for x in w) - fro2) <= 1e-9 * max(1.0, fro2)
    print("\ncriterion 10: PASS (100 matrices: LAPACK eigh matches exact sign-change "
          "roots at 1e-8; trace/Frobenius at 1e-9)")
