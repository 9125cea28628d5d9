import random

import pytest

from sgcorona import (
    add_vertex_corona,
    canonical_marking,
    complete_graph,
    count_signs,
    cycle_graph,
    edge_stats_formula,
    empty_graph,
    enumerate_triads,
    is_balanced,
    path_graph,
    triad_stats_formula,
    unbalance_criteria,
)
from helpers import random_balanced_graph, random_signed_graph


def test_enumerate_triads_examples():
    assert enumerate_triads(cycle_graph(3)).counts == (1, 0, 0, 0)
    assert enumerate_triads(cycle_graph(3, -1)).counts == (0, 0, 0, 1)
    # K4 with one negative edge: the two triangles through it are T1
    k4 = complete_graph(4, [-1, 1, 1, 1, 1, 1])
    assert enumerate_triads(k4).counts == (2, 2, 0, 0)


def test_edge_stats_p2_c3():
    es = edge_stats_formula(path_graph(2), cycle_graph(3))
    assert (es.total, es.positive, es.negative) == (14, 14, 0)


def test_edge_stats_smallest():
    es = edge_stats_formula(empty_graph(1), empty_graph(1))
    assert (es.total, es.positive, es.negative) == (1, 1, 0)


def test_edge_stats_negative_first_factor():
    # all join endpoints marked negative: every join edge to C3+ is negative
    g1 = path_graph(2, [-1])
    es = edge_stats_formula(g1, cycle_graph(3))
    prod, _ = add_vertex_corona(g1, cycle_graph(3))
    pos, neg = count_signs(prod)
    assert (es.total, es.positive, es.negative) == (prod.m, pos, neg)
    assert neg == 6


def test_edge_stats_match_enumeration_randomly():
    rng = random.Random(21)
    for _ in range(60):
        g1 = random_signed_graph(rng, rng.randint(1, 4))
        g2 = random_signed_graph(rng, rng.randint(0, 4))
        es = edge_stats_formula(g1, g2)
        prod, _ = add_vertex_corona(g1, g2)
        pos, neg = count_signs(prod)
        assert (es.total, es.positive, es.negative) == (prod.m, pos, neg)


def test_triad_stats_p2_c3():
    ts = triad_stats_formula(path_graph(2), cycle_graph(3))
    assert ts.counts == (8, 0, 0, 0)
    assert ts.total == 8
    prod, _ = add_vertex_corona(path_graph(2), cycle_graph(3))
    assert enumerate_triads(prod).counts == ts.counts


def test_triad_total_formula():
    rng = random.Random(22)
    for _ in range(40):
        g1 = random_signed_graph(rng, rng.randint(1, 4))
        g2 = random_signed_graph(rng, rng.randint(0, 4))
        ts = triad_stats_formula(g1, g2)
        t2 = enumerate_triads(g2)
        assert ts.total == g1.n * (t2.total + g2.m)


def test_triads_zero_when_second_factor_edgeless():
    rng = random.Random(23)
    for _ in range(10):
        g1 = random_signed_graph(rng, rng.randint(1, 5))
        ts = triad_stats_formula(g1, empty_graph(rng.randint(0, 4)))
        assert ts.counts == (0, 0, 0, 0)


def test_triad_stats_k1_p2_negative():
    g1 = empty_graph(1)
    g2 = path_graph(2, [-1])
    ts = triad_stats_formula(g1, g2)
    prod, _ = add_vertex_corona(g1, g2)
    assert ts.counts == enumerate_triads(prod).counts


def test_triad_stats_match_enumeration_randomly():
    rng = random.Random(24)
    for _ in range(60):
        g1 = random_signed_graph(rng, rng.randint(1, 4))
        g2 = random_signed_graph(rng, rng.randint(0, 4))
        ts = triad_stats_formula(g1, g2)
        prod, _ = add_vertex_corona(g1, g2)
        assert ts.counts == enumerate_triads(prod).counts


def test_unbalance_criteria_examples():
    assert unbalance_criteria(path_graph(2)) == []
    assert unbalance_criteria(path_graph(2, [-1])) == [3]
    # P3 signed (+,-): marks (+,-,-); the positive edge joins opposite marks
    found = unbalance_criteria(path_graph(3, [1, -1]))
    assert 1 in found
    assert found == [1, 3]
    assert canonical_marking(path_graph(3, [1, -1])).values == (1, -1, -1)


def test_unbalance_criteria_type2():
    # negative edge between two positively marked vertices
    g = cycle_graph(4, [-1, -1, -1, -1])
    assert canonical_marking(g).values == (1, 1, 1, 1)
    assert unbalance_criteria(g) == [2]


def test_figure_instance_p3_p2_negative():
    g2 = path_graph(2, [-1])
    assert unbalance_criteria(g2) == [3]
    prod, _ = add_vertex_corona(path_graph(3), g2)
    assert not is_balanced(prod)


def test_unbalance_criteria_warns_on_unbalanced_input():
    with pytest.warns(UserWarning):
        unbalance_criteria(cycle_graph(3, -1))


def test_criteria_predict_product_balance():
    rng = random.Random(25)
    for _ in range(60):
        g1 = random_balanced_graph(rng, rng.randint(1, 4))
        g2 = random_balanced_graph(rng, rng.randint(1, 4))
        prod, _ = add_vertex_corona(g1, g2)
        assert is_balanced(prod) == (unbalance_criteria(g2) == [])
