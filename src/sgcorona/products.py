"""Duplication signed graphs and the two duplication corona products.

The duplication of a signed graph doubles the vertex set: each clone a_i
is joined to the neighbourhood of u_i with sign mark(u_i)*mark(neighbor)
under the canonical marking, and the original edges are removed.  The two
corona products attach disjoint copies of a second graph to the a-block
(add-vertex corona) or the u-block (vertex corona); they are switching
isomorphic, and this module produces the explicit witness.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Marking, SignedGraph, _check_product_order, canonical_marking, relabel

__all__ = [
    "ProductLayout",
    "SwitchingIsoWitness",
    "duplication",
    "add_vertex_corona",
    "vertex_corona",
    "switching_iso_witness",
]


@dataclass(frozen=True)
class ProductLayout:
    """Index map for a duplication corona on factors of order n1 and n2.

    Vertices are laid out as the u-block (offsets 0..n1-1), the a-block
    (n1..2n1-1), and then one block per copy position j holding the j-th
    vertex of every copy: v_j^i sits at 2*n1 + j*n1 + i (0-indexed i, j).
    """

    n1: int
    n2: int

    @property
    def total(self) -> int:
        return self.n1 * (2 + self.n2)

    def u(self, i: int) -> int:
        return i

    def a(self, i: int) -> int:
        return self.n1 + i

    def copy_vertex(self, i: int, j: int) -> int:
        """Index of the j-th vertex of the i-th copy of the second factor."""
        return 2 * self.n1 + j * self.n1 + i

    def describe(self) -> list[str]:
        """Human-readable layout lines, 1-indexed like the file format."""
        lines = []
        for i in range(self.n1):
            lines.append(f"layout u {i + 1} -> {self.u(i) + 1}")
        for i in range(self.n1):
            lines.append(f"layout a {i + 1} -> {self.a(i) + 1}")
        for i in range(self.n1):
            for j in range(self.n2):
                lines.append(f"layout v {j + 1} {i + 1} -> {self.copy_vertex(i, j) + 1}")
        return lines


def duplication(g: SignedGraph) -> SignedGraph:
    """Duplication signed graph on 2n vertices (u-block then a-block).

    Every original edge u_i u_j contributes the clone edges a_i-u_j and
    a_j-u_i, both signed mark(u_i)*mark(u_j) under the canonical marking,
    and is itself deleted.  The a-block is independent, so the result is
    bipartite between the blocks and always balanced.
    """
    mu = canonical_marking(g)
    n = g.n
    edges = []
    for u, v, _ in g.edges():
        s = mu[u] * mu[v]
        edges.append((n + u, v, s))
        edges.append((n + v, u, s))
    return SignedGraph(2 * n, edges)


def _corona(g1: SignedGraph, g2: SignedGraph, join_at_a: bool):
    _check_product_order(g1, g2)
    lay = ProductLayout(g1.n, g2.n)
    mu1 = canonical_marking(g1)
    mu2 = canonical_marking(g2)
    n1 = g1.n
    edges = list(duplication(g1).edges())
    for i in range(n1):
        for u, v, s in g2.edges():
            edges.append((lay.copy_vertex(i, u), lay.copy_vertex(i, v), s))
        anchor = lay.a(i) if join_at_a else lay.u(i)
        for j in range(g2.n):
            edges.append((anchor, lay.copy_vertex(i, j), mu1[i] * mu2[j]))
    return SignedGraph(lay.total, edges), lay


def add_vertex_corona(g1: SignedGraph, g2: SignedGraph):
    """Duplication add-vertex corona: copies of g2 joined at the a-block.

    Join edge a_i - v_j^i carries sign mark1(u_i)*mark2(v_j), with the
    canonical markings of the input factors (the a-block inherits the
    u-block marks).  Returns the product and its layout.
    """
    return _corona(g1, g2, join_at_a=True)


def vertex_corona(g1: SignedGraph, g2: SignedGraph):
    """Duplication vertex corona: copies of g2 joined at the u-block."""
    return _corona(g1, g2, join_at_a=False)


@dataclass(frozen=True)
class SwitchingIsoWitness:
    """Vertex bijection plus switching function relating the two coronas."""

    mapping: tuple[int, ...]
    switching: Marking


def switching_iso_witness(g1: SignedGraph, g2: SignedGraph) -> SwitchingIsoWitness:
    """Explicit witness that the two corona products coincide.

    The bijection swaps the u- and a-blocks and fixes every copy vertex;
    the switching function is identically +1.  The witness is verified
    constructively: relabelling the add-vertex corona must reproduce the
    vertex corona edge-for-edge, signs included (switching by +1 changes
    nothing).  A failure would be an internal bug, not bad input.
    """
    star, lay = add_vertex_corona(g1, g2)
    ring, _ = vertex_corona(g1, g2)
    n1 = g1.n
    mapping = []
    for x in range(lay.total):
        if x < n1:
            mapping.append(n1 + x)
        elif x < 2 * n1:
            mapping.append(x - n1)
        else:
            mapping.append(x)
    if relabel(star, mapping) != ring:
        raise RuntimeError(
            "switching isomorphism witness failed verification; this is a bug"
        )
    return SwitchingIsoWitness(tuple(mapping), Marking.all_positive(lay.total))
