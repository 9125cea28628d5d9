"""Command-line interface: graph file parsing and theorem-check subcommands.

Graph file format (extension .sg by convention, 1-indexed vertices):

    # comment
    sg <n>              (0 <= n <= MAX_VERTICES = 4096)
    e <u> <v> <+|->     (at most MAX_EDGES = 1048576 edge lines)

Exit codes: 0 success/PASS, 1 FAIL, 2 usage or parse errors, 3 internal
errors (eigensolver non-convergence or a failed internal consistency check).
"""

from __future__ import annotations

import argparse
import re
import sys

from .core import MAX_EDGES, MAX_VERTICES, SignedGraph, balance, canonical_marking
from .exactpoly import (
    char_poly,
    graph_coronal,
    product_char_poly_A,
    product_char_poly_L,
    product_char_poly_Q,
)
from .products import add_vertex_corona, duplication, vertex_corona
from .spectra import (
    PreconditionError,
    _equienergetic_certificate,
    energy,
    integrality,
    spectrum,
)
from .structure import (
    count_signs,
    edge_stats_formula,
    enumerate_triads,
    triad_stats_formula,
    unbalance_criteria,
)

__all__ = ["GraphFormatError", "parse_graph", "write_graph", "main"]


class GraphFormatError(ValueError):
    """Malformed graph file; carries a 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


_SIGN_TOKENS = {"+": 1, "-": -1}
_SIGN_CHARS = {1: "+", -1: "-"}
_INTEGER = re.compile(r"[+-]?[0-9]+")


def _integer(token: str) -> int:
    """int(token) for an optionally signed run of ASCII digits, else ValueError;
    int() alone would also take '1_2' and non-ASCII digits."""
    if not _INTEGER.fullmatch(token):
        raise ValueError(token)
    return int(token)


def parse_graph(text: str) -> SignedGraph:
    """Parse the text graph format; diagnostics carry line numbers."""
    n = None
    edges = []
    seen: set[tuple[int, int]] = set()
    header_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if n is None:
            if parts[0] != "sg" or len(parts) != 2:
                raise GraphFormatError(lineno, f"expected header 'sg <n>', got {line!r}")
            try:
                n = _integer(parts[1])
            except ValueError:
                raise GraphFormatError(lineno, f"vertex count is not an integer: {parts[1]!r}") from None
            if not 0 <= n <= MAX_VERTICES:
                raise GraphFormatError(lineno, f"vertex count must be in 0..{MAX_VERTICES}, got {n}")
            header_line = lineno
            continue
        if parts[0] != "e" or len(parts) != 4:
            raise GraphFormatError(lineno, f"expected edge 'e <u> <v> <+|->', got {line!r}")
        if len(edges) == MAX_EDGES:
            raise GraphFormatError(lineno, f"edge count must be at most {MAX_EDGES}")
        try:
            u, v = _integer(parts[1]), _integer(parts[2])
        except ValueError:
            raise GraphFormatError(lineno, f"edge endpoints must be integers: {line!r}") from None
        if parts[3] not in _SIGN_TOKENS:
            raise GraphFormatError(lineno, f"bad sign token {parts[3]!r} (expected '+' or '-')")
        if not (1 <= u <= n) or not (1 <= v <= n):
            raise GraphFormatError(lineno, f"vertex out of range 1..{n}: e {u} {v}")
        if u == v:
            raise GraphFormatError(lineno, f"loop at vertex {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise GraphFormatError(lineno, f"duplicate edge {key[0]} {key[1]}")
        seen.add(key)
        edges.append((u - 1, v - 1, _SIGN_TOKENS[parts[3]]))
    if n is None:
        raise GraphFormatError(header_line + 1, "missing 'sg <n>' header")
    return SignedGraph(n, edges)


def write_graph(g: SignedGraph, extra_comments: list[str] | None = None) -> str:
    """Canonical text form: header, one-line comments, edges sorted, 1-indexed."""
    lines = [f"sg {g.n}"]
    for comment in extra_comments or ():
        line = f"# {comment}"
        if line.splitlines() != [line]:
            raise ValueError(f"comment must not contain a line break: {comment!r}")
        lines.append(line)
    for u, v, s in g.edges():
        lines.append(f"e {u + 1} {v + 1} {_SIGN_CHARS[s]}")
    return "\n".join(lines) + "\n"


def _load(path: str) -> SignedGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def _marking_lines(marks) -> list[str]:
    return [f"m {i + 1} {_SIGN_CHARS[v]}" for i, v in enumerate(marks)]


# -- subcommands -------------------------------------------------------------


def _cmd_spectrum(args) -> int:
    g = _load(args.file)
    for line in spectrum(g, args.matrix).to_lines():
        print(line)
    return 0


def _cmd_balance(args) -> int:
    g = _load(args.file)
    result = balance(g)
    if result.balanced:
        print("balanced")
        for line in _marking_lines(result.marking):
            print(line)
    else:
        u, v, s = result.violating_edge
        print("unbalanced")
        print(f"e {u + 1} {v + 1} {_SIGN_CHARS[s]}")
    return 0


def _cmd_marking(args) -> int:
    g = _load(args.file)
    for line in _marking_lines(canonical_marking(g)):
        print(line)
    return 0


def _cmd_duplicate(args) -> int:
    g = _load(args.file)
    sys.stdout.write(write_graph(duplication(g)))
    return 0


def _cmd_corona(args) -> int:
    g1, g2 = _load(args.g1), _load(args.g2)
    build = add_vertex_corona if args.kind == "add-vertex" else vertex_corona
    prod, layout = build(g1, g2)
    sys.stdout.write(write_graph(prod, extra_comments=layout.describe()))
    return 0


def _cmd_stats(args) -> int:
    g1, g2 = _load(args.g1), _load(args.g2)
    prod, _ = add_vertex_corona(g1, g2)
    es = edge_stats_formula(g1, g2)
    pos, neg = count_signs(prod)
    ok = True

    def row(label: str, formula: int, enum: int) -> None:
        nonlocal ok
        match = formula == enum
        ok = ok and match
        verdict = "formula = enumeration" if match else "MISMATCH"
        print(f"{label}: formula={formula} enumeration={enum} {verdict}")

    row("edges total", es.total, prod.m)
    row("edges positive", es.positive, pos)
    row("edges negative", es.negative, neg)
    tf = triad_stats_formula(g1, g2)
    te = enumerate_triads(prod)
    for i, (f_i, e_i) in enumerate(zip(tf.counts, te.counts)):
        row(f"triads t{i}", f_i, e_i)
    row("triads total", tf.total, te.total)
    classes = unbalance_criteria(g2) if g2.m else []
    print(f"unbalance criteria: {classes if classes else 'none'}")
    return 0 if ok else 1


def _cmd_coronal(args) -> int:
    g = _load(args.file)
    c = graph_coronal(g, args.matrix)
    print(c.numerator.to_line())
    print(c.denominator.to_line())
    return 0


def _cmd_verify(args) -> int:
    g1, g2 = _load(args.g1), _load(args.g2)
    theorem = args.theorem
    # L and Q raise ValueError, hence exit 2, for an irregular first factor
    predicted = {"A": product_char_poly_A, "L": product_char_poly_L,
                 "Q": product_char_poly_Q}[theorem](g1, g2)
    prod, _ = add_vertex_corona(g1, g2)
    direct = char_poly(prod.matrix(theorem))
    print(predicted.to_line())
    print(direct.to_line())
    if predicted == direct:
        print("PASS")
        return 0
    print("FAIL")
    return 1


def _cmd_energy(args) -> int:
    g = _load(args.file)
    print(f"{energy(g).energy:.12g}")
    return 0


def _cmd_integral(args) -> int:
    g = _load(args.file)
    result = integrality(g)
    if result.integral:
        print("integral: " + " ".join(str(v) for v in result.eigenvalues))
    else:
        print("not integral")
    return 0


def _cmd_equienergetic(args) -> int:
    g, h1, h2 = _load(args.g), _load(args.h1), _load(args.h2)
    try:
        report = _equienergetic_certificate(g, h1, h2)
    except PreconditionError as exc:
        for violation in exc.violations:
            print(f"rejected: {violation}")
        return 1
    print(f"E1 {report.energy_1:.12g}")
    print(f"E2 {report.energy_2:.12g}")
    print(f"gap {report.energy_gap:.3e}")
    print(f"non-cospectral: {not report.products_cospectral}")
    print("PASS")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgcorona",
        description="Signed-graph duplication corona products: spectra, "
        "statistics, and exact theorem checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="eigenvalues of A, L, or Q")
    p.add_argument("--matrix", choices=("A", "L", "Q"), default="A")
    p.add_argument("file")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("balance", help="balance check with witness")
    p.add_argument("file")
    p.set_defaults(func=_cmd_balance)

    p = sub.add_parser("marking", help="canonical marking")
    p.add_argument("file")
    p.set_defaults(func=_cmd_marking)

    p = sub.add_parser("duplicate", help="duplication signed graph")
    p.add_argument("file")
    p.set_defaults(func=_cmd_duplicate)

    p = sub.add_parser("corona", help="duplication corona product of two graphs")
    p.add_argument("--kind", choices=("add-vertex", "vertex"), default="add-vertex")
    p.add_argument("g1")
    p.add_argument("g2")
    p.set_defaults(func=_cmd_corona)

    p = sub.add_parser("stats", help="edge/triad statistics, formula vs enumeration")
    p.add_argument("g1")
    p.add_argument("g2")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("coronal", help="reduced coronal numerator and denominator")
    p.add_argument("--matrix", choices=("A", "L", "Q"), default="A")
    p.add_argument("file")
    p.set_defaults(func=_cmd_coronal)

    p = sub.add_parser("verify", help="exact product characteristic-polynomial check")
    p.add_argument("--theorem", choices=("A", "L", "Q"), required=True)
    p.add_argument("g1")
    p.add_argument("g2")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("energy", help="adjacency energy")
    p.add_argument("file")
    p.set_defaults(func=_cmd_energy)

    p = sub.add_parser("integral", help="exact integrality of the adjacency spectrum")
    p.add_argument("file")
    p.set_defaults(func=_cmd_integral)

    p = sub.add_parser("equienergetic", help="equienergetic product construction")
    p.add_argument("g")
    p.add_argument("h1")
    p.add_argument("h2")
    p.set_defaults(func=_cmd_equienergetic)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # GraphFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
