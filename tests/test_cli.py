import random

import numpy as np
import pytest

from sgcorona import IntPolynomial, SignedGraph, cli, cycle_graph, path_graph
from sgcorona.cli import GraphFormatError, main, parse_graph, write_graph
from helpers import known_admissible_pair, random_signed_graph


def graph_file(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


P2 = "sg 2\ne 1 2 +\n"
P2_NEG = "sg 2\ne 1 2 -\n"
C3 = "sg 3\ne 1 2 +\ne 2 3 +\ne 3 1 +\n"
C3_ONE_NEG = "sg 3\ne 1 2 +\ne 2 3 +\ne 3 1 -\n"
K1 = "sg 1\n"


# -- parsing -------------------------------------------------------------------


def test_parse_examples():
    g = parse_graph(P2)
    assert g.n == 2 and g.edges() == [(0, 1, 1)]
    g = parse_graph(C3_ONE_NEG)
    assert g.edges() == [(0, 1, 1), (0, 2, -1), (1, 2, 1)]


def test_parse_comments_and_blank_lines():
    g = parse_graph("# a comment\n\nsg 2\n# another\ne 1 2 -\n\n")
    assert g.edges() == [(0, 1, -1)]


def test_parse_errors_carry_line_numbers():
    with pytest.raises(GraphFormatError) as info:
        parse_graph("sg 2\ne 1 1 +\n")
    assert info.value.line == 2 and "loop" in str(info.value)
    with pytest.raises(GraphFormatError) as info:
        parse_graph("sg 2\ne 1 3 +\n")
    assert info.value.line == 2 and "range" in str(info.value)
    with pytest.raises(GraphFormatError) as info:
        parse_graph("sg 2\ne 1 2 +\ne 2 1 -\n")
    assert info.value.line == 3 and "duplicate" in str(info.value)
    with pytest.raises(GraphFormatError) as info:
        parse_graph("sg 2\ne 1 2 *\n")
    assert "sign" in str(info.value)
    with pytest.raises(GraphFormatError) as info:
        parse_graph("sg x\n")
    assert info.value.line == 1 and "not an integer" in str(info.value)
    with pytest.raises(GraphFormatError) as info:
        parse_graph("sg 2\ne 1 2\n")
    assert info.value.line == 2 and "expected edge" in str(info.value)
    with pytest.raises(GraphFormatError) as info:
        parse_graph("sg 2\ne a 2 +\n")
    assert info.value.line == 2 and "endpoints must be integers" in str(info.value)
    with pytest.raises(GraphFormatError):
        parse_graph("graph 2\n")
    with pytest.raises(GraphFormatError):
        parse_graph("# nothing\n")


def test_round_trip_is_identity():
    rng = random.Random(51)
    for _ in range(25):
        g = random_signed_graph(rng, rng.randint(0, 7))
        text = write_graph(g)
        assert parse_graph(text) == g
        assert write_graph(parse_graph(text)) == text


def test_write_graph_refuses_a_comment_with_a_line_break():
    # "a\nb" used to be written as two lines, and the second failed to parse
    g = path_graph(2)
    for bad in ("a\nb", "a\r\nb", "a\rb", "trailing\n", "a\x0bb", "a\u2028b"):
        with pytest.raises(ValueError, match="line break"):
            write_graph(g, [bad])
    text = write_graph(g, ["a comment", ""])
    assert parse_graph(text) == g
    assert text.splitlines()[1:3] == ["# a comment", "# "]


# -- subcommands -----------------------------------------------------------------


def test_spectrum_command(tmp_path, capsys):
    path = graph_file(tmp_path, "c3.sg", C3)
    assert main(["spectrum", "--matrix", "A", path]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    assert abs(float(lines[0]) - 2.0) < 1e-9
    assert abs(float(lines[1]) + 1.0) < 1e-9


def test_balance_command(tmp_path, capsys):
    path = graph_file(tmp_path, "c3.sg", C3)
    assert main(["balance", path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "balanced"
    assert out[1:] == ["m 1 +", "m 2 +", "m 3 +"]

    neg = graph_file(tmp_path, "c3n.sg", "sg 3\ne 1 2 -\ne 2 3 -\ne 3 1 -\n")
    assert main(["balance", neg]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "unbalanced"
    assert out[1].startswith("e ")


def test_marking_command(tmp_path, capsys):
    path = graph_file(tmp_path, "c3.sg", C3_ONE_NEG)
    assert main(["marking", path]) == 0
    assert capsys.readouterr().out.splitlines() == ["m 1 -", "m 2 +", "m 3 -"]


def test_duplicate_command(tmp_path, capsys):
    path = graph_file(tmp_path, "p2.sg", P2_NEG)
    assert main(["duplicate", path]) == 0
    assert capsys.readouterr().out == "sg 4\ne 1 4 +\ne 2 3 +\n"


def test_corona_command_smallest(tmp_path, capsys):
    k1 = graph_file(tmp_path, "k1.sg", K1)
    assert main(["corona", "--kind", "add-vertex", k1, k1]) == 0
    out = capsys.readouterr().out
    plain = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert plain == ["sg 3", "e 2 3 +"]
    assert "# layout u 1 -> 1" in out
    assert "# layout a 1 -> 2" in out
    assert "# layout v 1 1 -> 3" in out
    # emitted file parses back to the product
    assert parse_graph(out) == SignedGraph(3, [(1, 2, 1)])


def test_corona_vertex_kind(tmp_path, capsys):
    k1 = graph_file(tmp_path, "k1.sg", K1)
    assert main(["corona", "--kind", "vertex", k1, k1]) == 0
    plain = [ln for ln in capsys.readouterr().out.splitlines() if not ln.startswith("#")]
    assert plain == ["sg 3", "e 1 3 +"]


def test_stats_command(tmp_path, capsys):
    p2 = graph_file(tmp_path, "p2.sg", P2)
    c3 = graph_file(tmp_path, "c3.sg", C3)
    assert main(["stats", p2, c3]) == 0
    out = capsys.readouterr().out
    assert "edges total: formula=14 enumeration=14 formula = enumeration" in out
    assert "triads t0: formula=8 enumeration=8 formula = enumeration" in out
    assert "MISMATCH" not in out


def test_coronal_command(tmp_path, capsys):
    p2 = graph_file(tmp_path, "p2.sg", P2)
    assert main(["coronal", "--matrix", "A", p2]) == 0
    assert capsys.readouterr().out.splitlines() == ["2", "-1 1"]


def test_verify_command_pass(tmp_path, capsys):
    p2 = graph_file(tmp_path, "p2.sg", P2)
    c3 = graph_file(tmp_path, "c3.sg", C3)
    assert main(["verify", "--theorem", "A", p2, c3]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "PASS"
    # monic degree-10 polynomial printed twice
    assert out[0] == out[1]
    assert out[0].split()[-1] == "1" and len(out[0].split()) == 11


def test_verify_command_fail(tmp_path, capsys, monkeypatch):
    # a wrong prediction prints both polynomials, then FAIL, and exits 1
    monkeypatch.setattr(cli, "product_char_poly_A", lambda g1, g2: IntPolynomial.x())
    p2 = graph_file(tmp_path, "p2.sg", P2)
    c3 = graph_file(tmp_path, "c3.sg", C3)
    assert main(["verify", "--theorem", "A", p2, c3]) == 1
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 3 and out[-1] == "FAIL"
    assert out[0] == "0 1" and out[1] != out[0]


def test_verify_command_all_theorems(tmp_path, capsys):
    p2 = graph_file(tmp_path, "p2.sg", P2_NEG)
    c3 = graph_file(tmp_path, "c3.sg", C3_ONE_NEG)
    for theorem in ("A", "L", "Q"):
        assert main(["verify", "--theorem", theorem, p2, c3]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "PASS"


def test_verify_requires_regular_for_laplacian(tmp_path, capsys):
    p3 = graph_file(tmp_path, "p3.sg", "sg 3\ne 1 2 +\ne 2 3 +\n")
    k1 = graph_file(tmp_path, "k1.sg", K1)
    assert main(["verify", "--theorem", "L", p3, k1]) == 2
    assert "regular" in capsys.readouterr().err


def test_energy_command(tmp_path, capsys):
    c3 = graph_file(tmp_path, "c3.sg", C3)
    assert main(["energy", c3]) == 0
    assert abs(float(capsys.readouterr().out.strip()) - 4.0) < 1e-9


def test_integral_command(tmp_path, capsys):
    c3 = graph_file(tmp_path, "c3.sg", C3)
    assert main(["integral", c3]) == 0
    assert capsys.readouterr().out.strip() == "integral: 2 -1 -1"
    k12 = graph_file(tmp_path, "k12.sg", "sg 3\ne 1 2 +\ne 1 3 +\n")
    assert main(["integral", k12]) == 0
    assert capsys.readouterr().out.strip() == "not integral"


def test_equienergetic_command_rejection(tmp_path, capsys):
    p2 = graph_file(tmp_path, "p2.sg", P2)
    c3 = graph_file(tmp_path, "c3.sg", C3)
    c3n = graph_file(tmp_path, "c3n.sg", "sg 3\ne 1 2 -\ne 2 3 -\ne 3 1 -\n")
    assert main(["equienergetic", p2, c3, c3n]) == 1
    assert "rejected: coronal mismatch" in capsys.readouterr().out


def test_equienergetic_command_pass(tmp_path, capsys):
    g = graph_file(tmp_path, "p2n.sg", P2_NEG)
    h1, h2 = (graph_file(tmp_path, f"h{i}.sg", write_graph(h))
              for i, h in enumerate(known_admissible_pair()))
    assert main(["equienergetic", g, h1, h2]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["E1 29.0922914523", "E2 29.0922914523"]
    assert lines[2].startswith("gap ")
    assert lines[3:] == ["non-cospectral: True", "PASS"]


def test_equienergetic_command_rejects_empty_first_factor(tmp_path, capsys):
    k0 = graph_file(tmp_path, "k0.sg", "sg 0\n")
    h1, h2 = (graph_file(tmp_path, f"h{i}.sg", write_graph(h))
              for i, h in enumerate(known_admissible_pair()))
    assert main(["equienergetic", k0, h1, h2]) == 1
    assert capsys.readouterr().out == "rejected: empty first factor\n"


def test_parse_error_exit_code(tmp_path, capsys):
    bad = graph_file(tmp_path, "bad.sg", "sg 2\ne 1 1 +\n")
    assert main(["spectrum", bad]) == 2
    assert "line 2" in capsys.readouterr().err


def test_vertex_limit_is_a_header_error(tmp_path, capsys):
    with pytest.raises(GraphFormatError, match="4096") as info:
        parse_graph("# huge\nsg 3000000000\n")
    assert info.value.line == 2
    assert parse_graph("sg 4096\n").n == 4096
    huge = graph_file(tmp_path, "huge.sg", "sg 3000000000\n")
    assert main(["marking", huge]) == 2
    assert "line 1" in capsys.readouterr().err


def test_edge_limit_is_an_edge_line_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_EDGES", 2)
    text = "sg 4\ne 1 2 +\ne 2 3 -\n# third edge\ne 3 4 +\n"
    with pytest.raises(GraphFormatError, match="at most 2") as info:
        parse_graph(text)
    assert info.value.line == 5
    assert parse_graph("sg 4\ne 1 2 +\ne 2 3 -\n").m == 2
    assert main(["marking", graph_file(tmp_path, "dense.sg", text)]) == 2
    assert "line 5" in capsys.readouterr().err


def test_missing_file_exit_code(tmp_path, capsys):
    assert main(["spectrum", str(tmp_path / "nope.sg")]) == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        main(["verify", "--theorem", "X", "a", "b"])
    assert info.value.code == 2


def test_solver_failure_exit_code(tmp_path, capsys, monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    c3 = graph_file(tmp_path, "c3.sg", C3)
    assert main(["spectrum", c3]) == 3
    assert main(["energy", c3]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "converge" in captured.err
    assert "Traceback" not in captured.err
