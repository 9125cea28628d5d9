"""Shared test utilities: generators and independent oracles."""

from __future__ import annotations

import itertools
from collections import deque
from fractions import Fraction

from sgcorona import Marking, SignedGraph, complete_graph


def all_signings(base: SignedGraph):
    """Every sign assignment over the underlying edges of base."""
    edges = base.edges()
    for signs in itertools.product((1, -1), repeat=len(edges)):
        yield SignedGraph(base.n, [(u, v, s) for (u, v, _), s in zip(edges, signs)])


def random_signed_graph(rng, n: int, p: float = 0.5) -> SignedGraph:
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v, rng.choice((1, -1))))
    return SignedGraph(n, edges)


def induced_subgraph(g: SignedGraph, vertices) -> SignedGraph:
    """Subgraph on the given vertices, reindexed in the order supplied."""
    index = {v: i for i, v in enumerate(vertices)}
    if len(index) != len(vertices):
        raise ValueError("duplicate vertices")
    return SignedGraph(len(index), [(index[u], index[v], s) for u, v, s in g.edges()
                                    if u in index and v in index])


def connected_components(g: SignedGraph) -> list[list[int]]:
    """Vertex sets of the connected components, each sorted, by lowest vertex."""
    seen = [False] * g.n
    comps = []
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        comp, queue = [root], deque([root])
        while queue:
            for v, _ in g.neighbors(queue.popleft()):
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    queue.append(v)
        comps.append(sorted(comp))
    return comps


def disjoint_union(a: SignedGraph, b: SignedGraph) -> SignedGraph:
    return SignedGraph(a.n + b.n, a.edges() + [(u + a.n, v + a.n, s) for u, v, s in b.edges()])


def random_marking(rng, n: int) -> Marking:
    return Marking(tuple(rng.choice((1, -1)) for _ in range(n)))


def random_balanced_graph(rng, n: int, p: float = 0.5) -> SignedGraph:
    """Random graph signed by a random marking, hence balanced."""
    marks = random_marking(rng, n)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v, marks[u] * marks[v]))
    return SignedGraph(n, edges)


def known_admissible_pair() -> tuple[SignedGraph, SignedGraph]:
    """K_{3,3} with a negative perfect matching and K_6 with two negative
    triangles: both co-regular with net degree 1, both energy 10, with
    different spectra and equal coronals."""
    k33_edges = []
    for u in range(3):
        for v in range(3, 6):
            sign = -1 if v - 3 == u else 1
            k33_edges.append((u, v, sign))
    neg = {(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)}
    k6 = [(u, v, -1 if (u, v) in neg else 1) for u, v, _ in complete_graph(6).edges()]
    return SignedGraph(6, k33_edges), SignedGraph(6, k6)


def fraction_refine_root(q, a: Fraction, b: Fraction, width: Fraction) -> Fraction:
    """Reference bisection of (a, b], holding one simple root of q, on Fractions.

    The bracket keeps q's sign at b; a root at b or at a midpoint is
    returned exactly, and otherwise the final midpoint.
    """
    fb = q(b)
    if fb == 0:
        return b
    sb = fb > 0
    while b - a > width:
        mid = (a + b) / 2
        fm = q(mid)
        if fm == 0:
            return mid
        if (fm > 0) == sb:
            b = mid
        else:
            a = mid
    return (a + b) / 2


def bareiss_det(matrix) -> int:
    """Exact determinant of an integer matrix (fraction-free elimination).

    Independent oracle for characteristic-polynomial checks.
    """
    m = [[Fraction(x) for x in row] for row in matrix]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot_row is None:
            return 0
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            det = -det
        pivot = m[col][col]
        det *= pivot
        for r in range(col + 1, n):
            factor = m[r][col] / pivot
            if factor:
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    if det.denominator != 1:
        raise AssertionError(f"non-integer determinant {det} of an integer matrix")
    return int(det)


def _fraction_rank(m: list[list[Fraction]]) -> int:
    """Rank of a Fraction matrix by Gaussian elimination; m is overwritten."""
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot_row = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        for r in range(rank + 1, len(m)):
            factor = m[r][col] / m[rank][col]
            if factor:
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def integer_spectrum_by_nullity(matrix) -> tuple[int, ...] | None:
    """Eigenvalues of a symmetric integer matrix, descending, if all are integers.

    Independent oracle for integrality: A is diagonalisable, so an
    integer k is an eigenvalue of multiplicity n - rank(A - kI), and every
    eigenvalue lies in [-D, D] with D the largest absolute row sum.  The
    matrix is integral iff these multiplicities add up to n; otherwise
    None.  Ranks come from exact Fraction elimination.
    """
    n = len(matrix)
    bound = max((sum(abs(x) for x in row) for row in matrix), default=0)
    values: list[int] = []
    for k in range(bound, -bound - 1, -1):
        shifted = [[Fraction(x - k * (i == j)) for j, x in enumerate(row)]
                   for i, row in enumerate(matrix)]
        values += [k] * (n - _fraction_rank(shifted))
    return tuple(values) if len(values) == n else None


def max_spectral_diff(a, b) -> float:
    """Largest elementwise gap between two descending spectra."""
    if len(a) != len(b):
        raise AssertionError(f"spectra of different lengths {len(a)} and {len(b)}")
    return max((abs(x - y) for x, y in zip(a, b)), default=0.0)
