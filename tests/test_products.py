import random
import tracemalloc

import pytest

from sgcorona import (
    MAX_VERTICES,
    ProductLayout,
    add_vertex_corona,
    char_poly,
    complete_graph,
    cycle_graph,
    duplication,
    empty_graph,
    is_balanced,
    path_graph,
    products,
    spectrum,
    star_graph,
    switching_iso_witness,
    vertex_corona,
)
from helpers import all_signings, max_spectral_diff, random_signed_graph


def test_duplication_of_positive_path():
    d = duplication(path_graph(2))
    # a_1-u_2 and a_2-u_1, both positive; u-block first, a-block second
    assert d.n == 4
    assert d.edges() == [(0, 3, 1), (1, 2, 1)]


def test_duplication_sign_rule_negative_path():
    # both endpoints are marked -1, so the clone edges come out positive
    d = duplication(path_graph(2, [-1]))
    assert d.edges() == [(0, 3, 1), (1, 2, 1)]


def test_duplication_always_balanced_and_bipartite():
    rng = random.Random(11)
    for _ in range(40):
        g = random_signed_graph(rng, rng.randint(1, 7))
        d = duplication(g)
        assert d.n == 2 * g.n
        assert d.m == 2 * g.m
        assert is_balanced(d)
        for u, v, _ in d.edges():
            assert (u < g.n) != (v < g.n)  # only u-block to a-block edges


def test_layout_indexing():
    lay = ProductLayout(2, 3)
    assert lay.total == 10
    assert [lay.u(i) for i in range(2)] == [0, 1]
    assert [lay.a(i) for i in range(2)] == [2, 3]
    # copy blocks are grouped by position j, not by copy i
    assert [lay.copy_vertex(i, 0) for i in range(2)] == [4, 5]
    assert [lay.copy_vertex(0, j) for j in range(3)] == [4, 6, 8]


def test_add_vertex_corona_smallest():
    prod, lay = add_vertex_corona(empty_graph(1), empty_graph(1))
    assert prod.n == 3
    assert prod.edges() == [(1, 2, 1)]
    assert lay.total == 3


def test_add_vertex_corona_p2_c3():
    g1, g2 = path_graph(2), cycle_graph(3)
    prod, lay = add_vertex_corona(g1, g2)
    assert prod.n == 10 and prod.m == 14
    degs = prod.degrees()
    assert [degs[lay.u(i)] for i in range(2)] == [1, 1]
    assert [degs[lay.a(i)] for i in range(2)] == [4, 4]
    assert all(degs[lay.copy_vertex(i, j)] == 3 for i in range(2) for j in range(3))


def test_add_vertex_corona_k1_c3_is_k4_plus_isolated():
    prod, _ = add_vertex_corona(empty_graph(1), cycle_graph(3))
    assert prod.degree(0) == 0
    got = spectrum(prod).values
    expected = (3.0, 0.0, -1.0, -1.0, -1.0)
    assert max_spectral_diff(got, expected) < 1e-8


def test_vertex_corona_smallest():
    prod, _ = vertex_corona(empty_graph(1), empty_graph(1))
    assert prod.edges() == [(0, 2, 1)]
    assert prod.degree(1) == 0  # the a-vertex is isolated here


def test_vertex_corona_counts_match_add_vertex():
    star, _ = add_vertex_corona(path_graph(2), cycle_graph(3))
    ring, _ = vertex_corona(path_graph(2), cycle_graph(3))
    assert (ring.n, ring.m) == (star.n, star.m) == (10, 14)


def test_products_are_cospectral():
    rng = random.Random(12)
    for _ in range(15):
        g1 = random_signed_graph(rng, rng.randint(1, 4))
        g2 = random_signed_graph(rng, rng.randint(1, 4))
        star, _ = add_vertex_corona(g1, g2)
        ring, _ = vertex_corona(g1, g2)
        assert char_poly(star.adjacency()) == char_poly(ring.adjacency())


def test_order_formula():
    rng = random.Random(13)
    for _ in range(20):
        g1 = random_signed_graph(rng, rng.randint(1, 5))
        g2 = random_signed_graph(rng, rng.randint(0, 5))
        prod, _ = add_vertex_corona(g1, g2)
        assert prod.n == g1.n * (2 + g2.n)


def test_oversized_product_is_refused_before_allocation():
    # 64 * (128 + 2) = 8320 > MAX_VERTICES: the coronas used to build every
    # edge tuple of the product before SignedGraph refused its order
    g1, g2 = empty_graph(64), complete_graph(128)
    tracemalloc.start()
    try:
        for build in (add_vertex_corona, vertex_corona):
            with pytest.raises(ValueError, match="product order"):
                build(g1, g2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    prod, _ = add_vertex_corona(empty_graph(64), empty_graph(62))
    assert prod.n == MAX_VERTICES


def test_switching_iso_witness_smallest():
    w = switching_iso_witness(empty_graph(1), empty_graph(1))
    assert w.mapping == (1, 0, 2)
    assert w.switching.values == (1, 1, 1)


def test_switching_iso_witness_verifies():
    switching_iso_witness(path_graph(2), cycle_graph(3))
    rng = random.Random(14)
    for _ in range(25):
        g1 = random_signed_graph(rng, rng.randint(1, 4))
        g2 = random_signed_graph(rng, rng.randint(1, 4))
        w = switching_iso_witness(g1, g2)
        assert all(s == 1 for s in w.switching)


def test_switching_iso_witness_failure_is_an_error(monkeypatch):
    monkeypatch.setattr(products, "relabel", lambda g, mapping: g)
    with pytest.raises(RuntimeError, match="failed verification"):
        switching_iso_witness(path_graph(2), cycle_graph(3))


def test_unbalanced_second_factor_forces_unbalanced_product():
    rng = random.Random(15)
    seen = 0
    while seen < 15:
        g2 = random_signed_graph(rng, rng.randint(3, 5))
        if is_balanced(g2):
            continue
        seen += 1
        g1 = random_signed_graph(rng, rng.randint(1, 4))
        prod, _ = add_vertex_corona(g1, g2)
        assert not is_balanced(prod)


def test_exhaustive_small_signings_stay_consistent():
    for g1 in all_signings(path_graph(2)):
        for g2 in all_signings(star_graph(2)):
            star, lay = add_vertex_corona(g1, g2)
            assert star.n == lay.total
            switching_iso_witness(g1, g2)
