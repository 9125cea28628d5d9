"""Closed-form edge and triad statistics of the add-vertex corona.

The closed forms predict the sign-classified edge counts and the triad
census (triangles by number of negative edges) of g1 (*) g2 from factor
data alone, without building the product.  Brute-force enumeration
counterparts are provided as oracles.

Mark conventions: all vertex marks are canonical marks of the input
factors; a-block clones inherit the u-block marks.  The join-edge terms
count marks over the a-block only (one join endpoint per a-vertex), which
is what makes the positive/negative rows sum to the total row.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import combinations

from .core import SignedGraph, canonical_marking, is_balanced

__all__ = [
    "EdgeStats",
    "TriadStats",
    "count_signs",
    "edge_stats_formula",
    "enumerate_triads",
    "triad_stats_formula",
    "unbalance_criteria",
]


def count_signs(g: SignedGraph) -> tuple[int, int]:
    """(positive, negative) edge counts of a signed graph."""
    pos = sum(1 for _, _, s in g.edges() if s > 0)
    return pos, g.m - pos


@dataclass(frozen=True)
class EdgeStats:
    """Edge counts of g1 (*) g2: all, positive and negative."""

    total: int
    positive: int
    negative: int


def edge_stats_formula(g1: SignedGraph, g2: SignedGraph) -> EdgeStats:
    """Edge counts of the add-vertex corona from closed forms.

    total    = |DE| + n1*|E2| + n1*n2
    positive = |DE+| + n1*|E2+| + N1+*N2+ + N1-*N2-
    negative = |DE-| + n1*|E2-| + N1+*N2- + N1-*N2+

    N1± count marks over the a-block join endpoints (n1 vertices) and N2±
    over the copy graph's vertices.  The duplication block is counted from
    g1's edges: each edge uv gives two edges signed mu1(u)*mu1(v).
    """
    mu1 = canonical_marking(g1)
    mu2 = canonical_marking(g2)
    de_total = 2 * g1.m
    de_pos = 2 * sum(1 for u, v, _ in g1.edges() if mu1[u] == mu1[v])
    de_neg = de_total - de_pos
    e2_pos, e2_neg = count_signs(g2)
    n1p = sum(1 for v in mu1 if v > 0)
    n1m = g1.n - n1p
    n2p = sum(1 for v in mu2 if v > 0)
    n2m = g2.n - n2p
    positive = de_pos + g1.n * e2_pos + n1p * n2p + n1m * n2m
    negative = de_neg + g1.n * e2_neg + n1p * n2m + n1m * n2p
    total = de_total + g1.n * g2.m + g1.n * g2.n
    return EdgeStats(total, positive, negative)


@dataclass(frozen=True)
class TriadStats:
    """Triangle census by negative-edge count (t_i = triads with i negatives)."""

    t0: int
    t1: int
    t2: int
    t3: int

    @property
    def total(self) -> int:
        return self.t0 + self.t1 + self.t2 + self.t3

    @property
    def counts(self) -> tuple[int, int, int, int]:
        return (self.t0, self.t1, self.t2, self.t3)


def enumerate_triads(g: SignedGraph) -> TriadStats:
    """Brute-force triangle census classified by negative-edge count, read
    from the adjacency matrix at every vertex triple."""
    a = g.adjacency()
    t = [0, 0, 0, 0]
    for u, v, w in combinations(range(g.n), 3):
        if a[u][v] and a[v][w] and a[u][w]:
            t[(a[u][v] < 0) + (a[v][w] < 0) + (a[u][w] < 0)] += 1
    return TriadStats(*t)


def triad_stats_formula(g1: SignedGraph, g2: SignedGraph) -> TriadStats:
    """Triad census of the add-vertex corona from closed forms.

    Copy-internal triangles replicate g2's census n1 times.  Each anchor
    a_i of mark m adds one triangle per edge uv of its copy, with
    [m*mu2(u) < 0] + [m*mu2(v) < 0] + [sign(uv) < 0] negative edges; the
    duplication block is bipartite between its blocks and so adds no
    triangle.
    """
    mu1 = canonical_marking(g1)
    mu2 = canonical_marking(g2)
    t = [g1.n * c for c in enumerate_triads(g2).counts]
    n1p = sum(1 for v in mu1 if v > 0)
    for m, count in ((1, n1p), (-1, g1.n - n1p)):
        for u, v, s in g2.edges():
            t[(m * mu2[u] < 0) + (m * mu2[v] < 0) + (s < 0)] += count
    return TriadStats(*t)


def unbalance_criteria(g2: SignedGraph) -> list[int]:
    """Edge types of g2 that force every add-vertex corona to be unbalanced.

    Under canonical marks of g2:
      1: positive edge joining opposite-marked vertices
      2: negative edge joining two positively marked vertices
      3: negative edge joining two negatively marked vertices

    An empty list predicts a balanced product for every balanced first
    factor.  If g2 itself is unbalanced the product is unconditionally
    unbalanced; a warning is emitted and the classification still runs.
    """
    if not is_balanced(g2):
        warnings.warn(
            "second factor is unbalanced; the corona product is unbalanced "
            "regardless of these edge classes",
            stacklevel=2,
        )
    mu = canonical_marking(g2)
    found = set()
    for u, v, s in g2.edges():
        same = mu[u] == mu[v]
        if s > 0 and not same:
            found.add(1)
        elif s < 0 and same:
            found.add(2 if mu[u] > 0 else 3)
    return sorted(found)
