import gc
import random
import sys
import threading
import time
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from sgcorona import (
    MAX_EDGES,
    MAX_VERTICES,
    Marking,
    SignedGraph,
    add_vertex_corona,
    balance,
    canonical_marking,
    char_poly,
    complete_graph,
    corollary_star_spectrum,
    cycle_graph,
    eig_sym,
    empty_graph,
    is_balanced,
    mu_signed_graph,
    path_graph,
    regularity,
    relabel,
    star_graph,
    switch,
)
from sgcorona import core
from helpers import (
    connected_components,
    disjoint_union,
    induced_subgraph,
    random_marking,
    random_signed_graph,
)


def test_construction_rejects_bad_edges():
    with pytest.raises(ValueError):
        SignedGraph(2, [(0, 0, 1)])  # loop
    with pytest.raises(ValueError):
        SignedGraph(2, [(0, 1, 1), (1, 0, -1)])  # parallel
    with pytest.raises(ValueError):
        SignedGraph(2, [(0, 2, 1)])  # out of range
    with pytest.raises(ValueError):
        SignedGraph(2, [(0, 1, 2)])  # bad sign
    with pytest.raises(ValueError):
        SignedGraph(-1)


def test_non_integer_marks_and_endpoints_are_rejected():
    # each value is checked before any int() conversion could truncate it
    for bad in ((1.5, -1), ("1", -1)):
        with pytest.raises(ValueError):
            Marking(bad)
    with pytest.raises(ValueError):
        mu_signed_graph(path_graph(2), [-1.7, 1])
    with pytest.raises(ValueError):
        switch(path_graph(2), (1.5, 1))
    with pytest.raises(ValueError):
        SignedGraph(2, [(0.7, 1, 1)])
    with pytest.raises(ValueError):
        SignedGraph(2.5)
    # integer values of other types are still accepted
    assert Marking((np.int64(1), -1.0)).values == (1, -1)
    assert SignedGraph(np.int64(2), [(np.int64(0), np.int64(1), 1)]) == path_graph(2)


def test_neighbor_queries_on_equal_graphs():
    # graphs built from the same edges in another order are equal, hash
    # alike and answer every neighbour and degree query alike, and as a
    # brute-force scan of edges() does: neighbours sorted, isolated
    # vertices and the end vertices 0 and n-1 included
    rng = random.Random(3)
    graphs = [SignedGraph(0), SignedGraph(1), SignedGraph(5, [(3, 1, -1)]), complete_graph(5, -1)]
    graphs += [random_signed_graph(rng, rng.randint(0, 8)) for _ in range(20)]
    for g in graphs:
        n, edges = g.n, g.edges()
        a, b = SignedGraph(n, edges), SignedGraph(n, reversed(edges))
        assert a == b and hash(a) == hash(b)
        oracle = [tuple(sorted((v if u == w else u, s) for u, v, s in edges if w in (u, v)))
                  for w in range(n)]
        assert [a.neighbors(v) for v in range(n)] == [b.neighbors(v) for v in range(n)] == oracle
        assert a.degrees() == [a.degree(v) for v in range(n)] == [len(x) for x in oracle]
        for bad in (-1, n, 1.5):
            with pytest.raises(ValueError):
                a.neighbors(bad)


def test_degree_queries_are_point_queries():
    # neighbors(v) reads v's own run of the edge arrays and scans the
    # edges stored before it; rebuilding every vertex's list per call made
    # these 256 calls take about 2.8 s
    g = complete_graph(256)
    start = time.perf_counter()
    degs = [g.degree(v) for v in range(256)]
    assert time.perf_counter() - start < 0.5
    assert degs == [255] * 256


def test_neighbor_queries_concurrent():
    # four threads read the neighbours of one graph at once; each must
    # see the same neighbours as a single thread
    rng = random.Random(4)
    edges = random_signed_graph(rng, 60, p=0.3).edges()
    want = [SignedGraph(60, edges).neighbors(v) for v in range(60)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            g = SignedGraph(60, edges)
            barrier = threading.Barrier(4, timeout=10)
            seen = [None] * 4

            def read(k):
                barrier.wait()
                seen[k] = [g.neighbors(v) for v in range(60)]

            threads = [threading.Thread(target=read, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
                assert not t.is_alive()
            assert seen == [want] * 4
    finally:
        sys.setswitchinterval(old)


@pytest.mark.parametrize(
    "build, size",
    [
        (empty_graph, -1),
        (path_graph, -1),
        (path_graph, 2.5),
        (cycle_graph, 3.0),
        (cycle_graph, "3"),
        (complete_graph, -2),
        (complete_graph, 3.0),
        (star_graph, -1),
        (star_graph, -2),
        (star_graph, 2.0),
        (lambda n: corollary_star_spectrum(path_graph(2), n, 1), 2.0),
        (lambda n: corollary_star_spectrum(path_graph(2), n, 1), -1),
    ],
    ids=lambda v: getattr(v, "__name__", repr(v)),
)
def test_bad_sizes_raise_value_error(build, size):
    # a negative or non-integer size is refused, never taken as 0 or
    # left to list repetition or range to raise TypeError
    with pytest.raises(ValueError):
        build(size)


def test_vertex_limit():
    # refused before anything that grows with the count is built
    start = time.perf_counter()
    assert empty_graph(MAX_VERTICES).n == MAX_VERTICES
    for build in (SignedGraph, empty_graph, path_graph, cycle_graph, complete_graph):
        with pytest.raises(ValueError, match=str(MAX_VERTICES)):
            build(MAX_VERTICES + 1)
    with pytest.raises(ValueError, match=str(MAX_VERTICES)):
        star_graph(MAX_VERTICES)  # MAX_VERTICES + 1 vertices
    with pytest.raises(ValueError):
        SignedGraph(3_000_000_000)
    assert time.perf_counter() - start < 1.0


def test_edge_limit(monkeypatch):
    # K_4096 and K_1449 are refused before any edge is built; K_1448 fits
    start = time.perf_counter()
    assert MAX_EDGES == 1 << 20 >= 1448 * 1447 // 2
    for n in (MAX_VERTICES, 1449):
        with pytest.raises(ValueError, match=str(MAX_EDGES)):
            complete_graph(n)
    assert time.perf_counter() - start < 1.0
    # construction stops at the first edge past the limit
    monkeypatch.setattr(core, "MAX_EDGES", 3)
    assert complete_graph(3).m == 3
    for build in (lambda: complete_graph(4), lambda: star_graph(4),
                  lambda: SignedGraph(MAX_VERTICES, ((0, v, 1) for v in range(1, MAX_VERTICES)))):
        with pytest.raises(ValueError, match="at most 3"):
            build()


def test_edge_store_matches_dict_oracle():
    # the sorted typed-array store answers every query as a dict keyed by
    # (min, max) would, whatever the order of the edges and their endpoints
    rng = random.Random(5)
    for _ in range(150):
        n = rng.randint(0, 12)
        oracle = {(u, v): rng.choice((1, -1))
                  for u, v in combinations(range(n), 2) if rng.random() < 0.4}

        def given():
            edges = [(v, u, s) if rng.random() < 0.5 else (u, v, s)
                     for (u, v), s in oracle.items()]
            rng.shuffle(edges)
            return edges

        g, h = SignedGraph(n, given()), SignedGraph(n, given())
        assert g.edges() == sorted((u, v, s) for (u, v), s in oracle.items())
        assert g == h and hash(g) == hash(h) and g.m == len(oracle)
        adj, degs = [[0] * n for _ in range(n)], [0] * n
        for (u, v), s in oracle.items():
            adj[u][v] = adj[v][u] = s
            degs[u] += 1
            degs[v] += 1
        assert g.adjacency() == adj and g.degrees() == degs
        for u in range(n):
            for v in range(n):
                key = (min(u, v), max(u, v))
                assert g.has_edge(u, v) == (key in oracle)
                if key in oracle:
                    assert g.sign(u, v) == oracle[key]
                else:
                    with pytest.raises(ValueError, match="no edge"):
                        g.sign(u, v)
        if oracle:
            (u, v), s = rng.choice(list(oracle.items()))
            assert g != SignedGraph(n, [(a, b, -t if (a, b) == (u, v) else t)
                                        for a, b, t in g.edges()])
            with pytest.raises(ValueError, match=f"duplicate edge \\({u}, {v}\\)"):
                SignedGraph(n, [(u, v, s), (v, u, s)])
            with pytest.raises(ValueError, match="duplicate edge"):
                SignedGraph(n, given() + [(v, u, -s)])
    # endpoints at the top of the vertex range fit the 16-bit arrays
    top = SignedGraph(MAX_VERTICES, [(0, 4095, 1), (4095, 4094, -1)])
    assert top.edges() == [(0, 4095, 1), (4094, 4095, -1)]
    assert SignedGraph(MAX_VERTICES, top.edges()) == top
    assert top.sign(4095, 0) == 1 and top.sign(4094, 4095) == -1
    assert not top.has_edge(0, 4094)


def test_edge_store_memory():
    # the store takes 5 bytes per edge in three typed arrays; a dict keyed
    # by endpoint tuples took about 90, 6.4 KB for a 72-edge product.  A
    # full collection also empties the free lists, so only live objects count
    start = time.perf_counter()
    g1 = complete_graph(4)
    g2 = SignedGraph(6, [(0, 1, 1), (0, 2, -1), (1, 2, 1), (2, 3, -1), (3, 4, 1),
                         (4, 5, -1), (0, 5, 1), (1, 4, -1), (2, 5, 1)])
    add_vertex_corona(g1, g2)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        products = [add_vertex_corona(g1, g2)[0] for _ in range(100)]
        gc.collect()
        per_product = (tracemalloc.get_traced_memory()[0] - before) / len(products)
        before = tracemalloc.get_traced_memory()[0]
        k = complete_graph(256)
        gc.collect()
        k_bytes = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert products[0].m == 72 and per_product < 1024
    assert k.m == 32640 and k_bytes < 512 * 1024
    assert time.perf_counter() - start < 2.0


def test_matrix_definitions():
    g = path_graph(3, [1, -1])
    a = g.adjacency()
    assert a == [[0, 1, 0], [1, 0, -1], [0, -1, 0]]
    lap = g.laplacian()
    q = g.signless_laplacian()
    for i in range(3):
        for j in range(3):
            d = g.degree(i) if i == j else 0
            assert lap[i][j] == d - a[i][j]
            assert q[i][j] == d + a[i][j]
    assert g.matrix("A") == a and g.matrix("L") == lap and g.matrix("Q") == q
    with pytest.raises(ValueError, match="selector"):
        g.matrix("X")


def test_canonical_marking_examples():
    assert canonical_marking(cycle_graph(3)).values == (1, 1, 1)
    assert canonical_marking(path_graph(2, [-1])).values == (-1, -1)
    # triangle with only the edge v3-v1 negative
    g = cycle_graph(3, [1, 1, -1])
    assert canonical_marking(g).values == (-1, 1, -1)
    # isolated vertices get the empty product
    assert canonical_marking(empty_graph(3)).values == (1, 1, 1)


def test_mu_signed_graph_examples():
    c3 = cycle_graph(3)
    assert mu_signed_graph(c3, canonical_marking(c3)) == c3
    g = cycle_graph(3, [1, 1, -1])
    mu = canonical_marking(g)
    resigned = mu_signed_graph(g, mu)
    assert resigned.sign(0, 1) == -1
    assert resigned.sign(1, 2) == -1
    assert resigned.sign(2, 0) == 1


def test_mu_signed_graph_always_balanced():
    rng = random.Random(3)
    for _ in range(50):
        g = random_signed_graph(rng, rng.randint(1, 8))
        for m in (canonical_marking(g), random_marking(rng, g.n)):
            assert is_balanced(mu_signed_graph(g, m))


def test_mu_signed_graph_length_mismatch():
    with pytest.raises(ValueError):
        mu_signed_graph(cycle_graph(3), Marking((1, 1)))


def test_balance_examples():
    assert is_balanced(cycle_graph(3))
    assert not is_balanced(cycle_graph(3, -1))
    assert is_balanced(cycle_graph(3, [-1, -1, 1]))
    # a BalanceResult is truthy iff the graph is balanced
    assert bool(balance(cycle_graph(3))) is True
    assert bool(balance(cycle_graph(3, -1))) is False


def test_balance_witness_consistency():
    rng = random.Random(4)
    for _ in range(60):
        g = random_signed_graph(rng, rng.randint(1, 9))
        result = balance(g)
        if result.balanced:
            m = result.marking
            assert all(s == m[u] * m[v] for u, v, s in g.edges())
        else:
            u, v, s = result.violating_edge
            assert g.sign(u, v) == s


def test_switch_examples():
    g = cycle_graph(3, [1, 1, -1])
    assert switch(g, Marking.all_positive(3)) == g
    flipped = switch(g, Marking((-1, 1, 1)))
    assert sum(1 for _, _, s in flipped.edges() if s < 0) == 1


def test_switch_involution_and_invariants():
    rng = random.Random(5)
    for _ in range(40):
        g = random_signed_graph(rng, rng.randint(1, 8))
        theta = random_marking(rng, g.n)
        assert switch(switch(g, theta), theta) == g
        assert is_balanced(switch(g, theta)) == is_balanced(g)
        # switching is a signature similarity, so the spectrum is unchanged
        assert char_poly(switch(g, theta).adjacency()) == char_poly(g.adjacency())


def test_regularity_examples():
    rep = regularity(cycle_graph(3))
    assert rep == type(rep)(2, 2, (2, 2))
    rep = regularity(cycle_graph(3, -1))
    assert rep.degree_regular == 2 and rep.net_regular == -2
    assert rep.co_regular_pair == (2, -2)
    rep = regularity(path_graph(3))
    assert rep.degree_regular is None
    assert rep.co_regular_pair is None
    assert regularity(empty_graph(0)) == type(rep)(None, None, None)


def test_balance_iff_zero_laplacian_eigenvalue_per_component():
    rng = random.Random(6)
    for _ in range(40):
        g = random_signed_graph(rng, rng.randint(1, 7), p=0.4)
        expected = is_balanced(g)
        all_zero = True
        for comp in connected_components(g):
            sub = induced_subgraph(g, comp)
            smallest = min(eig_sym(sub.laplacian()).values)
            all_zero = all_zero and abs(smallest) <= 1e-8
        assert all_zero == expected


def test_relabel_and_subgraph():
    g = path_graph(3, [1, -1])
    r = relabel(g, [2, 1, 0])
    assert r.sign(2, 1) == 1 and r.sign(1, 0) == -1
    sub = induced_subgraph(g, [1, 2])
    assert sub.edges() == [(0, 1, -1)]
    with pytest.raises(ValueError):
        relabel(g, [0, 0, 1])


def test_constructors():
    assert star_graph(3).degrees() == [3, 1, 1, 1]
    assert complete_graph(4).m == 6
    both = disjoint_union(path_graph(2), cycle_graph(3))
    assert both.n == 5 and both.m == 4
    assert connected_components(both) == [[0, 1], [2, 3, 4]]
    with pytest.raises(ValueError):
        cycle_graph(2)
    with pytest.raises(ValueError):
        path_graph(3, [1])
    # any integer scalar is a uniform sign, numpy's too
    for sign in (-1, np.int64(-1), np.int8(-1)):
        assert path_graph(3, sign).edges() == [(0, 1, -1), (1, 2, -1)]
        assert cycle_graph(3, sign) == complete_graph(3, sign) == cycle_graph(3, -1)
        assert star_graph(2, sign).edges() == [(0, 1, -1), (0, 2, -1)]
    with pytest.raises(ValueError):
        star_graph(2, np.int64(2))
