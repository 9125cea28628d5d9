import copy
import json
import math
import os
import pickle
import random
import subprocess
import sys
import time
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sgcorona import (
    MAX_VERTICES,
    IntPolynomial,
    Marking,
    PreconditionError,
    SignedGraph,
    Spectrum,
    add_vertex_corona,
    canonical_marking,
    char_poly,
    complete_graph,
    coronal_pair,
    corollary_coregular_spectrum,
    corollary_star_spectrum,
    cospectral,
    cycle_graph,
    duplication,
    eig_sym,
    empty_graph,
    energy,
    equienergetic_product_pair,
    equienergetic_search,
    graph_coronal,
    integrality,
    is_balanced,
    jacobi_eigh,
    mu_signed_graph,
    path_graph,
    poly_gcd,
    product_char_poly_A,
    product_char_poly_L,
    product_char_poly_Q,
    product_spectrum,
    real_roots,
    regularity,
    spectra,
    spectrum,
    star_graph,
    switch,
    switching_iso_witness,
    vertex_corona,
)
from sgcorona._atlas import connected_graphs
from sgcorona.spectra import _ATLAS_MAX_N, _spectral_keys
from helpers import (
    all_signings,
    connected_components,
    induced_subgraph,
    integer_spectrum_by_nullity,
    known_admissible_pair,
    max_spectral_diff,
    random_balanced_graph,
    random_marking,
    random_signed_graph,
)


# -- eigensolver ---------------------------------------------------------------


def test_eig_examples():
    got = spectrum(cycle_graph(3)).values
    assert max_spectral_diff(got, (2.0, -1.0, -1.0)) < 1e-8
    got = spectrum(star_graph(2)).values
    assert max_spectral_diff(got, (math.sqrt(2), 0.0, -math.sqrt(2))) < 1e-8
    assert eig_sym([[0.0] * 3 for _ in range(3)]).values == (0.0, 0.0, 0.0)


def test_eig_rejects_asymmetric():
    with pytest.raises(ValueError):
        eig_sym([[0, 1], [0.5, 0]])


def test_eig_rejects_non_square_and_non_finite():
    with pytest.raises(ValueError, match="square"):
        jacobi_eigh([[0, 1, 2], [1, 0, 3]])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            jacobi_eigh([[0.0, bad], [bad, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            eig_sym([[bad, 0.0], [0.0, 1.0]])


def test_eig_non_convergence_is_runtime_error(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(RuntimeError, match="converge"):
        jacobi_eigh([[1.0]])
    with pytest.raises(RuntimeError, match="converge"):
        spectrum(cycle_graph(3))


def test_eig_ordering_and_trace():
    rng = random.Random(41)
    for _ in range(20):
        n = rng.randint(1, 12)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                v = rng.randint(-3, 3)
                m[i][j] = v
                m[j][i] = v
        w, vecs = jacobi_eigh(m)
        assert all(w[i] >= w[i + 1] - 1e-12 for i in range(n - 1))
        assert abs(sum(w) - sum(m[i][i] for i in range(n))) < 1e-9
        fro2 = sum(x * x for row in m for x in row)
        assert abs(sum(x * x for x in w) - fro2) < 1e-9 * max(1.0, fro2)


def test_eig_residuals():
    rng = random.Random(42)
    for _ in range(10):
        n = rng.randint(2, 10)
        a = np.array([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)], float)
        a = a + a.T
        w, v = jacobi_eigh(a)
        norm = max(1.0, float(np.linalg.norm(a)))
        for k in range(n):
            residual = float(np.linalg.norm(a @ v[:, k] - w[k] * v[:, k]))
            assert residual <= 1e-8 * norm


def test_spectrum_laplacian_examples():
    assert max_spectral_diff(spectrum(path_graph(2), "L").values, (2.0, 0.0)) < 1e-8
    assert max_spectral_diff(spectrum(path_graph(2, [-1]), "L").values, (2.0, 0.0)) < 1e-8
    vals = spectrum(cycle_graph(3, -1), "L").values
    assert min(vals) > 1e-6  # unbalanced: no zero eigenvalue
    assert max_spectral_diff(vals, (4.0, 1.0, 1.0)) < 1e-8


def test_laplacian_nonnegative_and_balance_link():
    rng = random.Random(43)
    for _ in range(30):
        g = random_signed_graph(rng, rng.randint(1, 7), p=0.5)
        vals = spectrum(g, "L").values
        assert min(vals) >= -1e-10
        smallest_ok = True
        for comp in connected_components(g):
            sub = induced_subgraph(g, comp)
            smallest = min(spectrum(sub, "L").values)
            smallest_ok = smallest_ok and abs(smallest) <= 1e-8
        assert smallest_ok == is_balanced(g)


def test_spectrum_serialization():
    lines = spectrum(star_graph(2)).to_lines()
    assert len(lines) == 3
    # one value per line, parseable, descending, 12 significant digits
    values = [float(ln) for ln in lines]
    assert values == sorted(values, reverse=True)
    assert abs(values[0] - math.sqrt(2)) < 1e-11
    assert lines[0] == f"{math.sqrt(2):.12g}"


def test_spectrum_values_round_trip_exactly():
    values = (2.5, 1 / 3, 1e-300, 0.0, -0.0, -7.25, -1e300)
    for spec in (Spectrum(values), Spectrum(values=values), Spectrum(np.array(values))):
        assert [v.hex() for v in spec.values] == [v.hex() for v in values]
        assert type(spec.values) is tuple and all(type(v) is float for v in spec.values)
        assert len(spec) == len(values) and [v.hex() for v in spec] == [v.hex() for v in values]
        assert spec.to_lines() == [f"{v:.12g}" for v in values]
    assert Spectrum(()).values == () and len(Spectrum([])) == 0
    for values in ([[1, 2], [3, 4]], 1.0, np.zeros((0, 0))):
        with pytest.raises(ValueError, match="one-dimensional"):
            Spectrum(values)


def test_spectrum_equality_and_hash():
    a, b = Spectrum((1.0, 0.0, -1.0)), Spectrum(np.array([1.0, -0.0, -1.0]))
    assert a == b and hash(a) == hash(b)
    assert a != Spectrum((1.0, 0.0)) and a != Spectrum((1.0, 0.0, -1.5))
    assert a != (1.0, 0.0, -1.0)
    assert len({a, b, Spectrum([1, 0, -1])}) == 1


def test_spectrum_is_immutable_and_shows_its_values():
    spec = eig_sym([[0, 1], [1, 0]])
    for name in ("values", "_packed", "other"):
        with pytest.raises(AttributeError):
            setattr(spec, name, (2.0,))
    with pytest.raises(AttributeError):
        del spec._packed
    assert spec.values == (1.0, -1.0)
    assert repr(spec) == "Spectrum(values=(1.0, -1.0))"
    assert pickle.loads(pickle.dumps(spec)) == spec and copy.copy(spec) == spec


def test_spectrum_stores_eight_bytes_a_value():
    spec = Spectrum(np.linspace(-4.0, 4.0, 4096))
    stored = sys.getsizeof(spec) + sum(sys.getsizeof(getattr(spec, s)) for s in Spectrum.__slots__)
    assert stored <= 8 * 4096 + 128


def test_energy_examples():
    assert abs(energy(cycle_graph(3)).energy - 4.0) < 1e-8
    assert abs(energy(cycle_graph(3, -1)).energy - 4.0) < 1e-8
    assert energy(empty_graph(4)).energy == 0.0


def test_energy_switching_invariant():
    rng = random.Random(44)
    for _ in range(25):
        g = random_signed_graph(rng, rng.randint(1, 7))
        theta = random_marking(rng, g.n)
        assert abs(energy(g).energy - energy(switch(g, theta)).energy) < 1e-10


# -- integrality ----------------------------------------------------------------


def test_integrality_examples():
    r = integrality(cycle_graph(3))
    assert r.integral and r.eigenvalues == (2, -1, -1)
    assert not integrality(star_graph(2)).integral
    r = integrality(empty_graph(1))
    assert r.integral and r.eigenvalues == (0,)
    # an IntegralityResult is truthy iff the spectrum is integral
    assert bool(integrality(cycle_graph(3))) is True
    assert bool(integrality(path_graph(3))) is False


def test_integrality_matches_the_nullity_oracle():
    # every signed graph on at most 4 labelled vertices (1 + 1 + 3 + 27 + 729),
    # then random ones of order 5-7; the oracle shares no code with integrality
    graphs = []
    for n in range(5):
        pairs = list(combinations(range(n), 2))
        for signs in product((0, 1, -1), repeat=len(pairs)):
            graphs.append(SignedGraph(n, [(u, v, s) for (u, v), s in zip(pairs, signs) if s]))
    assert len(graphs) == 761
    rng = random.Random(46)
    graphs += [random_signed_graph(rng, rng.randint(5, 7)) for _ in range(200)]
    for g in graphs:
        want = integer_spectrum_by_nullity(g.adjacency())
        got = integrality(g)
        assert (got.integral, got.eigenvalues) == (want is not None, want), g.edges()
    # P3 rounds to (1, 0, -1), but its spectrum is sqrt(2), 0, -sqrt(2)
    assert integer_spectrum_by_nullity(path_graph(3).adjacency()) is None


def test_integrality_at_order_30():
    # the char-poly identity certifies the rounded spectrum at order 30 well within a second
    rng = random.Random(30)
    graphs = [random_signed_graph(rng, 30), complete_graph(30),
              complete_graph(30, [rng.choice((1, -1)) for _ in range(435)])]
    for g in graphs:
        start = time.perf_counter()
        result = integrality(g)
        assert time.perf_counter() - start < 1.0
        numeric = all(abs(v - round(v)) < 1e-7 for v in spectrum(g).values)
        assert result.integral == numeric
    assert integrality(complete_graph(30)).eigenvalues == (29,) + (-1,) * 29


def test_integrality_agrees_with_numeric_check():
    rng = random.Random(45)
    pool = [random_signed_graph(rng, rng.randint(1, 6)) for _ in range(40)]
    pool += [cycle_graph(4), complete_graph(4), star_graph(4), star_graph(3)]
    for g in pool:
        exact = integrality(g)
        vals = spectrum(g).values
        numeric = all(abs(v - round(v)) < 1e-7 for v in vals)
        assert exact.integral == numeric
        if exact.integral:
            assert max_spectral_diff(exact.eigenvalues, vals) < 1e-7


# -- corollary solvers ------------------------------------------------------------


def test_coregular_closed_instance():
    got = corollary_coregular_spectrum(empty_graph(1), cycle_graph(3))
    assert max_spectral_diff(got.values, (3.0, 0.0, -1.0, -1.0, -1.0)) < 1e-8


def test_coregular_matches_direct():
    cases = [
        (path_graph(2), cycle_graph(3)),
        (path_graph(2), cycle_graph(3, -1)),
        (cycle_graph(3), cycle_graph(4)),
        (empty_graph(2), complete_graph(4)),
        (path_graph(3), cycle_graph(4, [-1, 1, -1, 1])),
    ]
    for g1, g2 in cases:
        assert regularity(g2).co_regular_pair is not None
        got = corollary_coregular_spectrum(g1, g2)
        prod, _ = add_vertex_corona(g1, g2)
        direct = spectrum(prod)
        assert max_spectral_diff(got.values, direct.values) < 1e-8


def test_coregular_rejects_irregular():
    with pytest.raises(ValueError):
        corollary_coregular_spectrum(empty_graph(1), path_graph(3))
    with pytest.raises(ValueError):
        corollary_coregular_spectrum(empty_graph(1), cycle_graph(4, [1, 1, 1, -1]))


def test_star_closed_instance():
    # n1 = n2 = 1, t = 0: the quartic is x^4 - 3x^2 - 2c x, which has the
    # double root -1 for centre mark c = 1 and the double root 1 for c = -1
    got = corollary_star_spectrum(empty_graph(1), 1, 1)
    assert max_spectral_diff(got.values, (2.0, 0.0, -1.0, -1.0)) < 1e-9
    got = corollary_star_spectrum(empty_graph(1), 1, -1)
    assert max_spectral_diff(got.values, (1.0, 1.0, 0.0, -2.0)) < 1e-9


def test_star_matches_direct():
    rng = random.Random(46)
    for _ in range(12):
        g1 = random_balanced_graph(rng, rng.randint(1, 3))
        n2 = rng.randint(1, 4)
        negatives = rng.randint(0, n2)
        signs = [-1] * negatives + [1] * (n2 - negatives)
        rng.shuffle(signs)
        star = star_graph(n2, signs)
        center = canonical_marking(star)[0]
        got = corollary_star_spectrum(g1, n2, center)
        prod, _ = add_vertex_corona(g1, star)
        assert max_spectral_diff(got.values, spectrum(prod).values) < 1e-8


def _squared_charpoly(g):
    a = np.array(g.adjacency(), dtype=np.int64).reshape(g.n, g.n)
    return char_poly((a @ a).tolist())


def _factor_product(g_sq, a, b, n1):
    """sum_j g_j a^j b^(n1-j), which is the product of a - s b over the
    eigenvalues s of the squared adjacency whose char poly is g_sq."""
    return sum((g_sq.coeff(j) * a ** j * b ** (n1 - j) for j in range(n1 + 1)), IntPolynomial())


def test_coregular_char_poly_closed_form():
    # the paper's cubic, exactly: (f2 / (x - k))^n1 * prod_t (cubic at t)
    rng = random.Random(52)
    x = IntPolynomial.x()
    for _ in range(30):
        g1 = random_signed_graph(rng, rng.randint(0, 3))
        g2 = rng.choice(CO_REGULAR_POOL)
        _, k = regularity(g2).co_regular_pair
        n1, n2 = g1.n, g2.n
        g_sq = _squared_charpoly(mu_signed_graph(g1, canonical_marking(g1)))
        cubics = _factor_product(g_sq, x ** 3 - k * x * x - n2 * x, x - k, n1)
        prod, _ = add_vertex_corona(g1, g2)
        f2 = char_poly(g2.adjacency())
        assert char_poly(prod.adjacency()) == f2.exact_div(x - k) ** n1 * cubics


def test_star_char_poly_closed_form():
    # the paper's quartic, exactly: x^(n1 (n2 - 1)) * prod_t (quartic at t)
    rng = random.Random(53)
    x = IntPolynomial.x()
    for _ in range(30):
        g1 = random_balanced_graph(rng, rng.randint(0, 3))
        n1, n2 = g1.n, rng.randint(1, 5)
        star = star_graph(n2, [rng.choice((1, -1)) for _ in range(n2)])
        c = canonical_marking(star)[0]
        quartic_part = x ** 4 - (2 * n2 + 1) * x * x - 2 * n2 * c * x
        quartics = _factor_product(_squared_charpoly(g1), quartic_part, x * x - n2, n1)
        prod, _ = add_vertex_corona(g1, star)
        assert char_poly(prod.adjacency()) == x ** (n1 * (n2 - 1)) * quartics


def test_product_order_is_checked_before_allocation():
    # 64 * (64 + 2) = 4224 > MAX_VERTICES; product_spectrum used to return
    # 4224 values, after allocating n1 * (n2 + 2)^2 floats unchecked
    g = empty_graph(64)
    for f in (product_spectrum, corollary_coregular_spectrum, product_char_poly_A,
              product_char_poly_L, product_char_poly_Q):
        with pytest.raises(ValueError, match="product order"):
            f(g, g)
    assert len(product_spectrum(g, empty_graph(62))) == MAX_VERTICES


def test_star_rejects_unbalanced_first_factor():
    with pytest.raises(ValueError):
        corollary_star_spectrum(cycle_graph(3, -1), 2, 1)
    with pytest.raises(ValueError):
        corollary_star_spectrum(empty_graph(1), 2, 0)
    with pytest.raises(ValueError, match="at least one leaf"):
        corollary_star_spectrum(path_graph(2), 0, 1)
    # the leaf signs were listed before any size check: 10**18 raised MemoryError
    for n2 in (10 ** 18, MAX_VERTICES + 1):
        with pytest.raises(ValueError, match="leaf count"):
            corollary_star_spectrum(path_graph(2), n2, 1)


# -- cospectrality -----------------------------------------------------------------


def test_cospectral_examples():
    g = cycle_graph(3, [1, 1, -1])
    assert cospectral(g, switch(g, Marking((-1, 1, 1))))
    assert not cospectral(cycle_graph(3), cycle_graph(3, -1))


def test_products_cospectral_all_matrices():
    rng = random.Random(47)
    for _ in range(10):
        g1 = random_signed_graph(rng, rng.randint(1, 3))
        g2 = random_signed_graph(rng, rng.randint(1, 3))
        star, _ = add_vertex_corona(g1, g2)
        ring, _ = vertex_corona(g1, g2)
        for which in ("A", "L", "Q"):
            assert cospectral(star, ring, which)


# -- equienergetic construction ------------------------------------------------------


def test_equienergetic_rejects_identical():
    with pytest.raises(PreconditionError) as info:
        equienergetic_product_pair(path_graph(2), cycle_graph(3), cycle_graph(3))
    assert any("cospectral" in v for v in info.value.violations)


def test_equienergetic_rejects_coronal_mismatch():
    with pytest.raises(PreconditionError) as info:
        equienergetic_product_pair(path_graph(2), cycle_graph(3), cycle_graph(3, -1))
    assert any("coronal" in v for v in info.value.violations)


def test_equienergetic_rejects_energy_mismatch():
    # P3 has energy 2 sqrt(2) and K3 energy 4; their coronals differ too
    with pytest.raises(PreconditionError) as info:
        equienergetic_product_pair(path_graph(2), path_graph(3), complete_graph(3))
    assert info.value.violations == ["coronal mismatch", "energy mismatch"]


def test_equienergetic_rejects_order_mismatch():
    with pytest.raises(PreconditionError) as info:
        equienergetic_product_pair(path_graph(2), cycle_graph(3), cycle_graph(4))
    assert any("order" in v for v in info.value.violations)


def test_equienergetic_search_small_orders_empty():
    assert equienergetic_search(max_n=4) == []


# the first admissible pair at order 6, pinned from the scan that certified
# every candidate with the exact coronal kernel
FIRST_PAIR_EDGES = (
    [(0, 1, 1), (0, 2, 1), (0, 4, 1), (0, 5, -1), (1, 2, -1), (2, 3, 1), (2, 5, 1), (3, 4, 1)],
    [(0, 1, 1), (0, 2, -1), (0, 4, -1), (0, 5, -1), (1, 2, -1), (2, 3, -1), (2, 5, 1),
     (3, 4, -1)],
)


@pytest.fixture(scope="module")
def first_pair():
    pairs = equienergetic_search(max_n=6)
    assert len(pairs) == 1
    return pairs[0]


def test_equienergetic_search_first_pair_pinned(first_pair):
    h1, h2 = first_pair
    assert (h1.n, h2.n) == (6, 6)
    assert (h1.edges(), h2.edges()) == FIRST_PAIR_EDGES


def test_search_keys_disagreeing_with_the_exact_check_is_an_error(monkeypatch):
    monkeypatch.setattr(spectra, "_coronal_check", lambda h1, h2: (True, False))
    with pytest.raises(RuntimeError, match="search keys disagree"):
        equienergetic_search(max_n=6)


def test_equienergetic_search_rejects_orders_beyond_atlas():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="at most 7"):
        equienergetic_search(max_n=8)
    # refused before any scan: order 7 alone has 12,340,288 signatures
    with pytest.raises(ValueError, match="at most 6 with find_all"):
        equienergetic_search(max_n=7, find_all=True)
    for bad in (6.5, "6", None):
        with pytest.raises(ValueError, match="max_n must be an integer"):
            equienergetic_search(max_n=bad)
    assert equienergetic_search(max_n=1) == equienergetic_search(max_n=-3) == []
    assert time.perf_counter() - start < 1.0


def test_atlas_table_matches_networkx():
    nx = pytest.importorskip("networkx")
    expected = {}
    for g in nx.graph_atlas_g():
        if g.number_of_nodes() >= 2 and nx.is_connected(g):
            expected.setdefault(g.number_of_nodes(), []).append(
                tuple(sorted((min(e), max(e)) for e in g.edges())))
    assert sorted(expected) == list(range(2, _ATLAS_MAX_N + 1))
    assert sum(map(len, expected.values())) == 995
    for n, graphs in expected.items():
        assert connected_graphs(n) == graphs


def test_search_runs_without_networkx():
    # a fresh interpreter, so no other test has imported networkx yet
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = ("import json, sys, sgcorona\n"
            "pairs = sgcorona.equienergetic_search(6)\n"
            "print(json.dumps([[h.edges() for h in pair] for pair in pairs]))\n"
            "print('networkx' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.splitlines()
    pairs = [tuple([tuple(e) for e in edges] for edges in pair) for pair in json.loads(out[0])]
    assert pairs == [FIRST_PAIR_EDGES]
    assert out[1] == "False"


def _first_index(keys):
    """For each position, the first position holding an equal key."""
    first = {}
    return [first.setdefault(k, i) for i, k in enumerate(keys)]


def test_search_keys_agree_with_exact_kernel():
    # equal trace rows iff equal char polys, equal moment rows iff equal
    # reduced coronals, over every signature of a few base graphs; the
    # last base carries the first admissible pair, so one coronal class
    # there holds several char polys
    pair_base = SignedGraph(6, [(u, v, 1) for u, v, _ in FIRST_PAIR_EDGES[0]])
    for base in (complete_graph(4), cycle_graph(5), star_graph(4), complete_graph(5),
                 pair_base):
        graphs = list(all_signings(base))
        traces, moments = _spectral_keys(np.array([g.adjacency() for g in graphs]))
        exact = [graph_coronal(g) for g in graphs]
        assert _first_index(map(bytes, traces)) == _first_index(
            char_poly(g.adjacency()) for g in graphs)
        assert _first_index(map(bytes, moments)) == _first_index(c.as_pair() for c in exact)


def test_coronal_equality_by_cross_multiplication():
    # reduced coronals are canonical, so two graphs have equal coronals iff
    # their unreduced pairs satisfy p1*f2 == p2*f1; the exact certificate
    # of the equienergetic construction and search rests on this
    pair_base = SignedGraph(6, [(u, v, 1) for u, v, _ in FIRST_PAIR_EDGES[0]])
    equal = unequal = 0
    for base in (complete_graph(4), cycle_graph(5), star_graph(4), pair_base):
        graphs = list(all_signings(base))
        reduced = [graph_coronal(g).as_pair() for g in graphs]
        pairs = [coronal_pair(g.adjacency(), canonical_marking(g)) for g in graphs]
        for i, j in combinations(range(len(graphs)), 2):
            (p1, f1), (p2, f2) = pairs[i], pairs[j]
            same = reduced[i] == reduced[j]
            assert same == (p1 * f2 == p2 * f1)
            equal += same
            unequal += not same
    assert equal and unequal


def test_first_pair_products_dense_check(first_pair):
    # the product identity against the dense char poly of the built
    # product, for first factors of order 1 to 4
    h1, h2 = first_pair
    factors = (empty_graph(1), path_graph(2, -1), cycle_graph(3, [1, -1, 1]),
               star_graph(3, [1, -1, -1]))
    for g in factors:
        dense = []
        for h in (h1, h2):
            prod, _ = add_vertex_corona(g, h)
            dense.append(char_poly(prod.adjacency()))
            assert product_char_poly_A(g, h) == dense[-1]
        assert dense[0] != dense[1]
        _, _, report = equienergetic_product_pair(g, h1, h2)
        assert not report.products_cospectral


def test_known_admissible_pair_verifies():
    h1, h2 = known_admissible_pair()
    assert regularity(h1).co_regular_pair == (3, 1)
    assert regularity(h2).co_regular_pair == (5, 1)
    assert abs(energy(h1).energy - 10) < 1e-8
    assert abs(energy(h2).energy - 10) < 1e-8
    p1, p2, report = equienergetic_product_pair(cycle_graph(3), h1, h2)
    assert report.energy_gap <= 1e-6
    assert not report.products_cospectral
    assert p1.n == p2.n == 3 * 8


def test_equienergetic_rejects_empty_first_factor():
    # both products would be empty, hence equal; before the check this
    # surfaced as an internal-bug RuntimeError
    with pytest.raises(PreconditionError) as info:
        equienergetic_product_pair(empty_graph(0), *known_admissible_pair())
    assert info.value.violations == ["empty first factor"]


# first factors of order 1 to 5 for the split oracles
SPLIT_FIRST_FACTORS = (empty_graph(1), path_graph(2, -1), cycle_graph(3, [1, -1, 1]),
                       star_graph(3, [1, -1, -1]), cycle_graph(5, [1, 1, -1, 1, -1]))


@pytest.fixture(scope="module")
def all_pairs():
    pairs = equienergetic_search(max_n=6, find_all=True)
    assert len(pairs) == 28
    return pairs


def test_equienergetic_split_exact(all_pairs):
    # with c = gcd(p, f) of h's unreduced coronal pair, the product identity
    # of g (*) h is c^n1 * S, S shared by equal reduced coronals; so
    # A1 c2^n1 = A2 c1^n1, and the products differ as f1 != f2
    for h1, h2 in all_pairs:
        c1, c2 = (poly_gcd(*coronal_pair(h.adjacency(), canonical_marking(h)))
                  for h in (h1, h2))
        for g in SPLIT_FIRST_FACTORS:
            a1, a2 = product_char_poly_A(g, h1), product_char_poly_A(g, h2)
            assert a1 != a2
            assert a1 * c2 ** g.n == a2 * c1 ** g.n


def test_equienergetic_energy_gap_identity(all_pairs):
    # the split gives E(g (*) h1) - E(g (*) h2) = n1 (E(h1) - E(h2)) exactly
    for h1, h2 in all_pairs:
        factor_gap = energy(h1).energy - energy(h2).energy
        for g in SPLIT_FIRST_FACTORS:
            e1, e2 = (sum(abs(v) for v in product_spectrum(g, h)) for h in (h1, h2))
            assert abs((e1 - e2) - g.n * factor_gap) <= 1e-12


def test_equienergetic_at_the_order_limit():
    # a 512-vertex first factor with an order-6 pair gives products of order
    # 512 * 8 = MAX_VERTICES; the certificate never builds a char poly of order n1
    g = SignedGraph(512, [(u, (u + d) % 512, -1 if u % 3 == 0 and d == 1 else 1)
                          for u in range(512) for d in (1, 2)])
    assert regularity(g).degree_regular == 4
    start = time.perf_counter()
    p1, p2, report = equienergetic_product_pair(g, *known_admissible_pair())
    assert time.perf_counter() - start < 30.0
    assert p1.n == p2.n == MAX_VERTICES
    assert report.energy_gap <= 1e-6
    assert not report.products_cospectral


# -- cross-checks against the exact root oracle ---------------------------------------


def test_jacobi_matches_exact_roots():
    rng = random.Random(48)
    for _ in range(8):
        n = rng.randint(2, 14)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                v = rng.randint(-2, 2)
                m[i][j] = v
                m[j][i] = v
        w, _ = jacobi_eigh(m)
        bound = max(sum(abs(x) for x in row) for row in m)
        exact = sorted(real_roots(char_poly(m), bound=bound), reverse=True)
        assert len(exact) == n
        assert max_spectral_diff(w, exact) < 1e-8


def test_duplication_component_laplacians():
    rng = random.Random(49)
    for _ in range(15):
        g = random_signed_graph(rng, rng.randint(1, 6))
        d = duplication(g)
        assert is_balanced(d)
        for comp in connected_components(d):
            sub = induced_subgraph(d, comp)
            assert abs(min(spectrum(sub, "L").values)) <= 1e-8


# -- property tests --------------------------------------------------------------

CO_REGULAR_POOL = [
    g
    for base in (cycle_graph(3), cycle_graph(4), cycle_graph(5), cycle_graph(6), complete_graph(4))
    for g in all_signings(base)
    if regularity(g).co_regular_pair is not None
]


@st.composite
def signed_graphs(draw, max_n=4, min_n=1):
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    signs = draw(st.lists(st.sampled_from((0, 1, -1)), min_size=len(pairs), max_size=len(pairs)))
    return SignedGraph(n, [(u, v, s) for (u, v), s in zip(pairs, signs) if s])


def _dense_spectrum(g):
    return np.linalg.eigvalsh(np.array(g.adjacency(), dtype=float).reshape(g.n, g.n))[::-1]


@settings(max_examples=60, deadline=None)
@given(signed_graphs(min_n=0), signed_graphs(min_n=0))
@example(empty_graph(0), cycle_graph(3))
@example(path_graph(2, -1), empty_graph(0))
def test_property_product_spectrum_matches_dense(g1, g2):
    prod, _ = add_vertex_corona(g1, g2)
    got = product_spectrum(g1, g2).values
    assert list(got) == sorted(got, reverse=True)
    assert max_spectral_diff(got, _dense_spectrum(prod)) < 1e-8


@settings(max_examples=40, deadline=None)
@given(signed_graphs(), st.sampled_from(CO_REGULAR_POOL))
def test_property_coregular_corollary_matches_dense(g1, g2):
    prod, _ = add_vertex_corona(g1, g2)
    got = corollary_coregular_spectrum(g1, g2).values
    assert max_spectral_diff(got, _dense_spectrum(prod)) < 1e-8


@settings(max_examples=40, deadline=None)
@given(
    signed_graphs(),
    st.lists(st.sampled_from((1, -1)), min_size=4, max_size=4),
    st.lists(st.sampled_from((1, -1)), min_size=1, max_size=4),
)
def test_property_star_corollary_matches_dense(shape, marks, leaf_signs):
    # re-sign the drawn graph by a marking, which makes it balanced
    g1 = SignedGraph(shape.n, [(u, v, marks[u] * marks[v]) for u, v, _ in shape.edges()])
    star = star_graph(len(leaf_signs), leaf_signs)
    prod, _ = add_vertex_corona(g1, star)
    got = corollary_star_spectrum(g1, star.n - 1, canonical_marking(star)[0]).values
    assert max_spectral_diff(got, _dense_spectrum(prod)) < 1e-8


@settings(max_examples=40, deadline=None)
@given(signed_graphs(max_n=6), st.lists(st.sampled_from((1, -1)), min_size=6, max_size=6),
       st.sampled_from("ALQ"))
def test_property_spectrum_switching_invariant(g, marks, which):
    switched = switch(g, Marking(tuple(marks[: g.n])))
    assert max_spectral_diff(spectrum(g, which).values, spectrum(switched, which).values) < 1e-8
