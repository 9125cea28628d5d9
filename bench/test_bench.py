"""Tests of the benchmark itself: smoke run, tracer, and oracle rejection.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import pytest  # noqa: E402

import harness  # noqa: E402
import sgcorona as sg  # noqa: E402
import tracing  # noqa: E402
import workloads as wk  # noqa: E402


def flip(poly: sg.IntPolynomial, k: int) -> sg.IntPolynomial:
    """Negate coefficient k (or set it to 1 when it is 0)."""
    c = list(poly.coefficients)
    c[k] = -c[k] if c[k] else 1
    return sg.IntPolynomial(c)


def moved(spectrum_values, by=1e-6):
    values = list(spectrum_values)
    values[len(values) // 2] += by
    return values


@pytest.fixture(scope="module")
def search_run():
    wl = wk.Search(5)
    pairs = wl.run("search")
    inp = wl.make_input(2, 0)
    return wl, pairs, inp, wl.run(inp)


def test_smoke_runs_every_workload(capsys):
    assert harness.main(["--smoke"]) == 0
    out = capsys.readouterr().out
    for name in wk.WORKLOADS:
        assert f"smoke {name}:" in out


def test_benchmark_json_names_the_harness_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(wk.WORKLOADS)
    assert {(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]} == {
        (k, u, b) for k, (u, b) in harness.END_TO_END.items()}
    assert {(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]} == {
        (k, u, b) for k, (_, u, b) in harness.PER_LAYER.items()}


def test_tracer_nests_spans_and_restores_the_library():
    original = sg.exactpoly.char_poly
    g1, g2 = sg.cycle_graph(4), sg.path_graph(3)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        tracer.op_id = 0
        sg.product_char_poly_L(g1, g2)
    assert sg.exactpoly.char_poly is original
    top = [i for i, p in enumerate(tracer.parent) if p < 0]
    assert [tracer.names[i] for i in top] == ["exactpoly.product_char_poly_L"]
    assert "exactpoly.char_poly" in tracer.names
    agg = tracing.aggregate(tracer)
    assert agg["exactpoly.product_char_poly.calls"] == 1
    assert agg["exactpoly.product_char_poly.degree_sum"] == 4 * (3 + 2)
    assert 0 <= agg["exactpoly.product_char_poly.self_s"] <= agg["exactpoly.product_char_poly.busy_s"]


def test_verify_oracle_rejects_a_flipped_coefficient():
    wl = wk.Verify(3)
    inp = wl.make_input((4, 4, "L"), 0)
    result = wl.run(inp)
    assert wl.check(inp, result) is None
    for k in (0, 5):
        bad = list(result)
        bad[3] = flip(result[3], k)  # formula only
        assert wl.check(inp, tuple(bad))
        bad[4] = bad[3]  # formula and direct agree, both wrong
        assert "det(xI - M)" in wl.check(inp, tuple(bad))


def test_scale_oracle_rejects_a_flipped_coefficient():
    wl = wk.Scale(3)
    inp = wl.make_input(wl.classes[0], 1)
    result = wl.run(inp)
    assert wl.check(inp, result) is None
    for i in (0, 1):
        bad = list(result)
        bad[i] = flip(result[i], 7)
        assert wl.check(inp, tuple(bad))


def test_spectra_oracle_rejects_an_eigenvalue_moved_by_1e6():
    wl = wk.Spectra(3)
    inp = wl.make_input(wl.classes[2], 0)
    prod, spectra, energy, assembled, integral, w, roots = result = wl.run(inp)
    assert wl.check(inp, result) is None
    bad_spectra = dict(spectra, L=sg.Spectrum(tuple(moved(spectra["L"].values))))
    for bad in (
        (prod, bad_spectra, energy, assembled, integral, w, roots),
        (prod, spectra, energy, sg.Spectrum(tuple(moved(assembled.values))), integral, w, roots),
        (prod, spectra, energy, assembled, integral, moved(w), roots),
        (prod, spectra, energy, assembled, integral, w, moved(roots)),
    ):
        assert wl.check(inp, bad)


def test_search_oracle_rejects_a_missing_pair(search_run):
    wl, pairs, inp, result = search_run
    assert wl.check("search", pairs) is None
    assert wl.check(inp, result) is None
    assert wl.check("search", pairs[:-1]) == "search returned no admissible pair"
    built, guard = result
    assert wl.check(inp, (built[:-1], guard))
    assert wl.check(inp, (built, None))


def test_a_corrupted_run_exits_nonzero(monkeypatch, capsys):
    real = sg.product_char_poly_A
    monkeypatch.setattr(sg, "product_char_poly_A", lambda g1, g2: flip(real(g1, g2), 0))
    assert harness.main(["--workload", "verify", "--seed", "1", "--seconds", "0"]) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] == 5 and last["attempted"] == 15
