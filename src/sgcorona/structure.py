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
from .products import duplication

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
    """Edge counts of g1 (*) g2 together with the factor quantities used."""

    total: int
    positive: int
    negative: int
    de_total: int
    de_positive: int
    de_negative: int
    e2_total: int
    e2_positive: int
    e2_negative: int
    n1_positive: int
    n1_negative: int
    n2_positive: int
    n2_negative: int


def edge_stats_formula(g1: SignedGraph, g2: SignedGraph) -> EdgeStats:
    """Edge counts of the add-vertex corona from closed forms.

    total    = |DE| + n1*|E2| + n1*n2
    positive = |DE+| + n1*|E2+| + N1+*N2+ + N1-*N2-
    negative = |DE-| + n1*|E2-| + N1+*N2- + N1-*N2+

    N1± count marks over the a-block join endpoints (n1 vertices) and N2±
    over the copy graph's vertices.
    """
    mu1 = canonical_marking(g1)
    mu2 = canonical_marking(g2)
    dg = duplication(g1)
    de_pos, de_neg = count_signs(dg)
    e2_pos, e2_neg = count_signs(g2)
    n1p = sum(1 for v in mu1 if v > 0)
    n1m = g1.n - n1p
    n2p = sum(1 for v in mu2 if v > 0)
    n2m = g2.n - n2p
    positive = de_pos + g1.n * e2_pos + n1p * n2p + n1m * n2m
    negative = de_neg + g1.n * e2_neg + n1p * n2m + n1m * n2p
    total = dg.m + g1.n * g2.m + g1.n * g2.n
    return EdgeStats(
        total=total,
        positive=positive,
        negative=negative,
        de_total=dg.m,
        de_positive=de_pos,
        de_negative=de_neg,
        e2_total=g2.m,
        e2_positive=e2_pos,
        e2_negative=e2_neg,
        n1_positive=n1p,
        n1_negative=n1m,
        n2_positive=n2p,
        n2_negative=n2m,
    )


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
    """Brute-force triangle census classified by negative-edge count."""
    t = [0, 0, 0, 0]
    for u, v, w in combinations(range(g.n), 3):
        if g.has_edge(u, v) and g.has_edge(v, w) and g.has_edge(u, w):
            neg = sum(1 for s in (g.sign(u, v), g.sign(v, w), g.sign(u, w)) if s < 0)
            t[neg] += 1
    return TriadStats(*t)


def _edge_classes(g: SignedGraph) -> dict[tuple[int, str], int]:
    """Edge counts keyed by (sign, endpoint-mark pair) under canonical marks."""
    mu = canonical_marking(g)
    out = {(1, "pp"): 0, (1, "pm"): 0, (1, "mm"): 0,
           (-1, "pp"): 0, (-1, "pm"): 0, (-1, "mm"): 0}
    for u, v, s in g.edges():
        a, b = mu[u], mu[v]
        if a > 0 and b > 0:
            pair = "pp"
        elif a < 0 and b < 0:
            pair = "mm"
        else:
            pair = "pm"
        out[(s, pair)] += 1
    return out


def triad_stats_formula(g1: SignedGraph, g2: SignedGraph) -> TriadStats:
    """Triad census of the add-vertex corona from closed forms.

    Each anchor a_i contributes one triangle per edge of its copy, whose
    negative count is set by the anchor's mark, the edge sign, and the
    endpoint marks; copy-internal triangles replicate g2's census n1
    times; the duplication block is bipartite between its blocks and so
    adds no triangle.
    """
    mu1 = canonical_marking(g1)
    ct = enumerate_triads(g2).counts
    cls = _edge_classes(g2)
    nup = sum(1 for v in mu1 if v > 0)
    num = g1.n - nup
    n1 = g1.n
    pos_pp, pos_pm, pos_mm = cls[(1, "pp")], cls[(1, "pm")], cls[(1, "mm")]
    neg_pp, neg_pm, neg_mm = cls[(-1, "pp")], cls[(-1, "pm")], cls[(-1, "mm")]
    t0 = n1 * ct[0] + nup * pos_pp + num * pos_mm
    t1 = n1 * ct[1] + nup * (pos_pm + neg_pp) + num * (pos_pm + neg_mm)
    t2 = n1 * ct[2] + nup * (pos_mm + neg_pm) + num * (pos_pp + neg_pm)
    t3 = n1 * ct[3] + nup * neg_mm + num * neg_pp
    return TriadStats(t0, t1, t2, t3)


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
