"""Signed graphs: data model, markings, switching, balance, regularity.

A signed graph is a simple undirected graph whose edges carry a sign in
{+1, -1}.  Everything in this module is an immutable value and every
operation is a pure function, so the API is safe to use concurrently.
"""

from __future__ import annotations

import operator
from array import array
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from itertools import combinations
from operator import and_, eq, itemgetter

import numpy as np

__all__ = [
    "MAX_VERTICES",
    "MAX_EDGES",
    "Marking",
    "SignedGraph",
    "BalanceResult",
    "RegularityReport",
    "canonical_marking",
    "mu_signed_graph",
    "balance",
    "is_balanced",
    "switch",
    "regularity",
    "relabel",
    "empty_graph",
    "path_graph",
    "cycle_graph",
    "complete_graph",
    "star_graph",
]


def _check_sign(s: int) -> int:
    if s != 1 and s != -1:
        raise ValueError(f"edge sign must be +1 or -1, got {s!r}")
    return int(s)


@dataclass(frozen=True)
class Marking:
    """A ±1 label per vertex.  diag(values) squared is the identity."""

    values: tuple[int, ...]

    def __post_init__(self):
        for v in self.values:
            if v != 1 and v != -1:
                raise ValueError(f"marking entries must be +1 or -1, got {v!r}")
        object.__setattr__(self, "values", tuple(int(v) for v in self.values))

    @classmethod
    def all_positive(cls, n: int) -> "Marking":
        return cls((1,) * n)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> int:
        return self.values[i]

    def __iter__(self):
        return iter(self.values)


def _as_marks(m, n: int) -> tuple[int, ...]:
    """Accept a Marking or a plain ±1 sequence of length n."""
    marks = m if isinstance(m, Marking) else Marking(tuple(m))
    if len(marks) != n:
        raise ValueError(f"marking has length {len(marks)}, expected {n}")
    return marks.values


def _as_int(value, what: str) -> int:
    """An integer-typed value (numpy ints too); 0.7 or '1' raise ValueError."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


# Largest vertex count a SignedGraph accepts: a dense n x n matrix holds
# 16.8 million entries at this size.
MAX_VERTICES = 4096
# Largest edge count a SignedGraph accepts, about twice the 523,776 edges
# of K_1024, whose store takes about 2.5 MiB but whose construction peaks
# near 65 MiB in edge tuples; K_4096's 8.4 million are refused.
MAX_EDGES = 1 << 20


def _vertex_count(value, what: str = "vertex count") -> int:
    """An integer in 0..MAX_VERTICES; anything else raises ValueError."""
    n = _as_int(value, what)
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"{what} must be in 0..{MAX_VERTICES}, got {n}")
    return n


def _check_product_order(g1, g2) -> None:
    """Raise ValueError if a corona product of g1 and g2, of order
    n1 * (n2 + 2), would exceed MAX_VERTICES; callers check before they
    allocate anything of the product's size."""
    total = g1.n * (g2.n + 2)
    if total > MAX_VERTICES:
        raise ValueError(f"product order {g1.n} * ({g2.n} + 2) = {total} exceeds {MAX_VERTICES}")


class SignedGraph:
    """Immutable simple undirected graph with edge signs in {+1, -1}.

    Vertices are the integers 0..n-1, at most MAX_VERTICES of them, and
    there are at most MAX_EDGES edges.  Loops and parallel edges are
    rejected at construction.  The edges are stored sorted by (u, v), with
    u < v, in three parallel typed arrays: endpoints as unsigned 16-bit
    and signs as signed 8-bit integers, 5 bytes per edge.  Edge lookups
    bisect them.
    """

    __slots__ = ("_n", "_u", "_v", "_s")

    def __init__(self, n: int, edges=()):
        n = _vertex_count(n)
        keyed: list[tuple[int, int, int]] = []
        for item in edges:
            u, v, s = item
            u, v = _as_int(u, "edge endpoint"), _as_int(v, "edge endpoint")
            if not (0 <= u < n) or not (0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            if len(keyed) == MAX_EDGES:
                raise ValueError(f"edge count must be at most {MAX_EDGES}")
            keyed.append((u, v, _check_sign(s)) if u < v else (v, u, _check_sign(s)))
        keyed.sort()
        # zip(*keyed) would make one iterator object per edge
        us, vs, ss = (tuple(map(itemgetter(i), keyed)) for i in range(3))
        repeats = list(map(and_, map(eq, us, us[1:]), map(eq, vs, vs[1:])))
        if any(repeats):
            i = repeats.index(True)
            raise ValueError(f"duplicate edge {(us[i], vs[i])}")
        self._n = n
        # 'H' holds 0..65535, above MAX_VERTICES - 1, and 'b' holds +-1
        self._u, self._v, self._s = array("H", us), array("H", vs), array("b", ss)

    # -- basic queries ------------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    @property
    def m(self) -> int:
        return len(self._u)

    def edges(self) -> list[tuple[int, int, int]]:
        """Edges as (u, v, sign) with u < v, sorted lexicographically."""
        return list(zip(self._u, self._v, self._s))

    def _find(self, u: int, v: int) -> int:
        """Index of edge uv in the arrays, or -1 when there is none."""
        if u > v:
            u, v = v, u
        lo = bisect_left(self._u, u)
        hi = bisect_right(self._u, u, lo)
        i = bisect_left(self._v, v, lo, hi)
        return i if i < hi and self._v[i] == v else -1

    def has_edge(self, u: int, v: int) -> bool:
        return self._find(u, v) >= 0

    def sign(self, u: int, v: int) -> int:
        i = self._find(u, v)
        if i < 0:
            raise ValueError(f"no edge between {u} and {v}")
        return self._s[i]

    def neighbors(self, v: int) -> tuple[tuple[int, int], ...]:
        """Sorted (neighbor, sign) pairs incident to v: the edges (u, v) before
        v's bisected run of the arrays, found by one numpy scan, then that run."""
        v = _as_int(v, "vertex")
        if not 0 <= v < self._n:
            raise ValueError(f"vertex {v} out of range for n={self._n}")
        lo = bisect_left(self._u, v)
        hi = bisect_right(self._u, v, lo)
        below = np.flatnonzero(np.frombuffer(self._v, np.uint16, count=lo) == v).tolist()
        return tuple([(self._u[i], self._s[i]) for i in below]
                     + list(zip(self._v[lo:hi], self._s[lo:hi])))

    # -- degrees ------------------------------------------------------

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def degrees(self) -> list[int]:
        degs = [0] * self._n
        for u, v in zip(self._u, self._v):
            degs[u] += 1
            degs[v] += 1
        return degs

    # -- matrices (exact integer, list-of-rows) -----------------------

    def adjacency(self) -> list[list[int]]:
        a = [[0] * self._n for _ in range(self._n)]
        for u, v, s in zip(self._u, self._v, self._s):
            a[u][v] = s
            a[v][u] = s
        return a

    def laplacian(self) -> list[list[int]]:
        return self._plus_degrees([[-x for x in row] for row in self.adjacency()])

    def signless_laplacian(self) -> list[list[int]]:
        return self._plus_degrees(self.adjacency())

    def _plus_degrees(self, mat: list[list[int]]) -> list[list[int]]:
        for v, d in enumerate(self.degrees()):
            mat[v][v] += d
        return mat

    def matrix(self, which: str) -> list[list[int]]:
        """The A, L, or Q matrix by one-letter name."""
        if which == "A":
            return self.adjacency()
        if which == "L":
            return self.laplacian()
        if which == "Q":
            return self.signless_laplacian()
        raise ValueError(f"matrix selector must be 'A', 'L' or 'Q', got {which!r}")

    # -- value semantics ----------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, SignedGraph):
            return NotImplemented
        return (self._n == other._n and self._u == other._u and self._v == other._v
                and self._s == other._s)

    def __hash__(self) -> int:
        return hash((self._n, self._u.tobytes(), self._v.tobytes(), self._s.tobytes()))

    def __repr__(self) -> str:
        return f"SignedGraph(n={self._n}, m={self.m})"


def _neighbor_lists(g: SignedGraph) -> list[list[tuple[int, int]]]:
    """Per-vertex (neighbor, sign) lists from the sorted edges; each list is
    sorted, as a vertex meets its lower neighbours before its higher ones."""
    lists: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for u, v, s in g.edges():
        lists[u].append((v, s))
        lists[v].append((u, s))
    return lists


# -- markings and balance ---------------------------------------------


def canonical_marking(g: SignedGraph) -> Marking:
    """Mark each vertex with the product of its incident edge signs.

    An isolated vertex gets +1 (empty product).
    """
    marks = [1] * g.n
    for u, v, s in g.edges():
        marks[u] *= s
        marks[v] *= s
    return Marking(tuple(marks))


def mu_signed_graph(g: SignedGraph, m) -> SignedGraph:
    """Re-sign every edge uv with m(u)*m(v).  The result is always balanced."""
    marks = _as_marks(m, g.n)
    return SignedGraph(g.n, ((u, v, marks[u] * marks[v]) for u, v, _ in g.edges()))


@dataclass(frozen=True)
class BalanceResult:
    """Outcome of a balance check: a witness marking, or one bad edge."""

    balanced: bool
    marking: Marking | None
    violating_edge: tuple[int, int, int] | None

    def __bool__(self) -> bool:
        return self.balanced


def balance(g: SignedGraph) -> BalanceResult:
    """Decide balance by propagating marks over a BFS forest.

    Roots are the lowest-indexed unvisited vertices and get mark +1, so
    the witness marking is deterministic.  On failure the reported edge
    is the first non-tree edge whose sign contradicts the propagated
    marks, i.e. an edge closing a negative cycle.
    """
    adj = _neighbor_lists(g)
    marks = [0] * g.n
    for root in range(g.n):
        if marks[root] != 0:
            continue
        marks[root] = 1
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v, s in adj[u]:
                want = s * marks[u]
                if marks[v] == 0:
                    marks[v] = want
                    queue.append(v)
                elif marks[v] != want:
                    edge = (u, v) if u < v else (v, u)
                    return BalanceResult(False, None, (edge[0], edge[1], s))
    return BalanceResult(True, Marking(tuple(marks)), None)


def is_balanced(g: SignedGraph) -> bool:
    return balance(g).balanced


def switch(g: SignedGraph, theta) -> SignedGraph:
    """Multiply each edge sign uv by theta(u)*theta(v).  Involutive."""
    t = _as_marks(theta, g.n)
    return SignedGraph(g.n, ((u, v, s * t[u] * t[v]) for u, v, s in g.edges()))


# -- regularity -------------------------------------------------------


@dataclass(frozen=True)
class RegularityReport:
    """Uniform degree r, uniform signed degree k, and the pair when both hold."""

    degree_regular: int | None
    net_regular: int | None
    co_regular_pair: tuple[int, int] | None


def regularity(g: SignedGraph) -> RegularityReport:
    if g.n == 0:
        return RegularityReport(None, None, None)
    adj = _neighbor_lists(g)
    degs = [len(a) for a in adj]
    sdegs = [sum(s for _, s in a) for a in adj]
    r = degs[0] if all(d == degs[0] for d in degs) else None
    k = sdegs[0] if all(s == sdegs[0] for s in sdegs) else None
    pair = (r, k) if r is not None and k is not None else None
    return RegularityReport(r, k, pair)


# -- structural helpers ------------------------------------------------


def relabel(g: SignedGraph, perm) -> SignedGraph:
    """Rename vertices: vertex v becomes perm[v]."""
    p = list(perm)
    if sorted(p) != list(range(g.n)):
        raise ValueError("perm must be a permutation of 0..n-1")
    return SignedGraph(g.n, ((p[u], p[v], s) for u, v, s in g.edges()))


# -- small graph constructors ------------------------------------------


def _sign_list(signs, m: int) -> list[int]:
    if signs is None:
        return [1] * m
    if isinstance(signs, int):
        return [_check_sign(signs)] * m
    out = [_check_sign(s) for s in signs]
    if len(out) != m:
        raise ValueError(f"expected {m} signs, got {len(out)}")
    return out


def empty_graph(n: int) -> SignedGraph:
    return SignedGraph(n)


def path_graph(n: int, signs=None) -> SignedGraph:
    """Path on n vertices 0-1-2-...; signs follow edge order."""
    n = _vertex_count(n)
    ss = _sign_list(signs, max(n - 1, 0))
    return SignedGraph(n, ((i, i + 1, ss[i]) for i in range(n - 1)))


def cycle_graph(n: int, signs=None) -> SignedGraph:
    """Cycle 0-1-...-(n-1)-0; needs n >= 3."""
    n = _vertex_count(n)
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    ss = _sign_list(signs, n)
    return SignedGraph(n, ((i, (i + 1) % n, ss[i]) for i in range(n)))


def complete_graph(n: int, signs=None) -> SignedGraph:
    """Complete graph; signs follow lexicographic edge order."""
    n = _vertex_count(n)
    m = n * (n - 1) // 2
    if m > MAX_EDGES:
        raise ValueError(f"edge count must be at most {MAX_EDGES}, got {m}")
    ss = _sign_list(signs, m)
    return SignedGraph(n, ((u, v, s) for (u, v), s in zip(combinations(range(n), 2), ss)))


def star_graph(leaves: int, signs=None) -> SignedGraph:
    """Star with center 0 and the given number of leaves."""
    leaves = _vertex_count(leaves, "leaf count")
    ss = _sign_list(signs, leaves)
    return SignedGraph(leaves + 1, ((0, i + 1, ss[i]) for i in range(leaves)))
