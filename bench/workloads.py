"""The four benchmark workloads: inputs, timed operations and oracles.

Every operation calls the library the way the matching CLI subcommand or
documented API use does, through module attributes looked up at call
time (`sg.char_poly`, `cli.parse_graph`), so that the tracer's wrappers
see each call.

Inputs come only from the generators.  The size class and the cycle
index fix everything that sets an operation's work: orders, underlying
graphs, signatures, the criterion-10 matrix.  The seed picks the vertex
labelling (a permutation of each graph and matrix), which changes the
inputs but not the work, so that runs with different seeds measure the
program rather than the luck of the draw.

An oracle runs after the timed interval.  It returns None when the
operation's result is right and a one-line reason when it is not.  The
oracles use numpy and integer arithmetic of their own; tolerances are
those pinned in tests/test_acceptance.py.
"""

from __future__ import annotations

import random

import numpy as np

import sgcorona as sg
from sgcorona import cli

# Tolerances pinned in tests/test_acceptance.py.
SPECTRAL_TOL = 1e-8  # assembled/solved spectra vs a reference solver
IDENTITY_TOL = 1e-9  # trace and Frobenius identities, relative
EQUIENERGETIC_TOL = 1e-6  # energy gap of a constructed product pair
INTEGRAL_TOL = 1e-7  # numeric integrality cross-check (criterion 8)

PRIME = 2147483629  # largest prime below 2**31; products fit in int64
EVAL_POINTS = (2, -3)


# -- input generation ----------------------------------------------------------


def dense(n: int) -> list[tuple[int, int]]:
    """A fixed underlying graph on n vertices with 60% of all possible edges."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return sorted(random.Random(n).sample(pairs, round(0.6 * len(pairs))))


def circulant(n: int, degree: int) -> list[tuple[int, int, int]]:
    """(u, v, offset) for the degree-regular circulant graph on n vertices."""
    edges: dict[tuple[int, int], int] = {}
    for o in range(1, degree // 2 + 1):
        for u in range(n):
            edges.setdefault((min(u, (u + o) % n), max(u, (u + o) % n)), o)
    return [(u, v, o) for (u, v), o in edges.items()]


def signature(rng: random.Random, n: int, pairs, balanced: bool = False):
    """Random edge signs; a balanced signature comes from a random marking."""
    marks = [rng.choice((1, -1)) for _ in range(n)]
    return [(u, v, marks[u] * marks[v] if balanced else rng.choice((1, -1))) for u, v, *_ in pairs]


def coregular(n: int, degree: int, pattern: int):
    """Co-regular circulant: offset o is negative when bit o-1 of pattern
    is set, so every vertex has the same degree and net degree."""
    return [(u, v, -1 if pattern >> (o - 1) & 1 else 1) for u, v, o in circulant(n, degree)]


def labelled(rng: random.Random, n: int, edges) -> sg.SignedGraph:
    """The signed graph under a random vertex labelling."""
    label = list(range(n))
    rng.shuffle(label)
    return sg.SignedGraph(n, [(label[u], label[v], s) for u, v, s in edges])


def graph_text(g: sg.SignedGraph) -> str:
    """The .sg file text a user would hand to the CLI."""
    lines = [f"sg {g.n}"] + [f"e {u + 1} {v + 1} {'+' if s > 0 else '-'}" for u, v, s in g.edges()]
    return "\n".join(lines) + "\n"


def random_symmetric(rng: random.Random, n: int) -> list[list[int]]:
    """Criterion-10 distribution: integer symmetric, entries in [-4, 4]."""
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.randint(-4, 4)
    return m


def permuted(rng: random.Random, m: list[list[int]]) -> list[list[int]]:
    """P M P^T for a random permutation P: same spectrum, other entries."""
    order = list(range(len(m)))
    rng.shuffle(order)
    return [[m[i][j] for j in order] for i in order]


# -- independent oracles -------------------------------------------------------


def det_mod(matrix: np.ndarray, p: int = PRIME) -> int:
    """det(matrix) mod p by Gaussian elimination in int64 (p < 2**31)."""
    a = np.array(matrix, dtype=np.int64) % p
    n = a.shape[0]
    det = 1
    for k in range(n):
        nonzero = np.flatnonzero(a[k:, k])
        if nonzero.size == 0:
            return 0
        r = k + int(nonzero[0])
        if r != k:
            a[[k, r]] = a[[r, k]]
            det = -det
        pivot = int(a[k, k])
        det = det * pivot % p
        factors = a[k + 1:, k] * pow(pivot, p - 2, p) % p
        rest = a[k + 1:, k + 1:]
        rest -= np.multiply.outer(factors, a[k, k + 1:]) % p
        rest += p * (rest < 0)
    return det % p


def charpoly_at_mod(matrix: np.ndarray, k: int, p: int = PRIME) -> int:
    """det(kI - M) mod p."""
    return det_mod(k * np.eye(matrix.shape[0], dtype=np.int64) - matrix, p)


def poly_at_mod(poly: sg.IntPolynomial, k: int, p: int = PRIME) -> int:
    acc = 0
    for c in reversed(poly.coefficients):
        acc = (acc * k + c) % p
    return acc


def check_charpoly(poly: sg.IntPolynomial, matrix) -> str | None:
    """Degree, monicity, trace coefficient, and values mod p at two points."""
    m = np.array(matrix, dtype=np.int64)
    n = m.shape[0]
    if poly.degree != n or not poly.is_monic:
        return f"char poly has degree {poly.degree} (monic={poly.is_monic}), expected monic degree {n}"
    if n and poly.coeff(n - 1) != -int(np.trace(m)):
        return f"char poly trace coefficient {poly.coeff(n - 1)} != {-int(np.trace(m))}"
    for k in EVAL_POINTS:
        if poly_at_mod(poly, k) != charpoly_at_mod(m, k):
            return f"char poly at x={k} disagrees with det(xI - M) mod p"
    return None


def differ_mod(a: np.ndarray, b: np.ndarray) -> bool:
    """True if det(xI - a) != det(xI - b) is proven at some integer x mod p.

    Both are monic of degree n, so agreement at n + 1 points means the
    polynomials agree mod p."""
    return any(charpoly_at_mod(a, k) != charpoly_at_mod(b, k) for k in range(a.shape[0] + 1))


def descending_eigvals(matrix) -> np.ndarray:
    return np.linalg.eigvalsh(np.array(matrix, dtype=float))[::-1]


def spectrum_gap(values, reference: np.ndarray) -> float:
    values = np.sort(np.asarray(values, dtype=float))[::-1]
    if values.shape != reference.shape:
        return float("inf")
    return float(np.max(np.abs(values - reference), initial=0.0))


def coronal_value(g: sg.SignedGraph, t: float) -> float:
    """mu^T (tI - A)^-1 mu by a dense solve, mu the canonical marking."""
    a = np.array(g.adjacency(), dtype=float)
    mu = np.array([np.prod([s for _, s in g.neighbors(v)]) for v in range(g.n)], dtype=float)
    return float(mu @ np.linalg.solve(t * np.eye(g.n) - a, mu))


def check_coronal(c: sg.Coronal, g: sg.SignedGraph) -> str | None:
    for t in (g.n + 0.5, g.n + 1.5):  # above the spectral radius
        want = coronal_value(g, t)
        got = c.numerator(t) / c.denominator(t)
        if abs(got - want) > IDENTITY_TOL * max(1.0, abs(want)):
            return f"coronal at x={t} is {got!r}, dense solve gives {want!r}"
    return None


# -- workloads -----------------------------------------------------------------


class Workload:
    """A cycle of size classes; one input per class per cycle.

    `classes` is ordered by cost.  `tail_pct` is the percentile reported
    as op_tail_ms: fixed per workload so that runs of different commits
    compare the same statistic, and chosen so that at least ten
    operations lie beyond it at the baseline.
    """

    name = ""
    tail_pct: float
    classes: tuple = ()
    smoke_classes = 1  # the smallest size with each of its variants

    def __init__(self, seed: int, smoke: bool = False):
        self.rng = random.Random(f"{self.name}:{seed}")
        if smoke:
            self.classes = self.classes[:self.smoke_classes]

    def fixed(self, cls, cycle: int) -> random.Random:
        """Generator for what sets an operation's work (underlying graphs,
        signatures, matrices up to a permutation): the same for every
        seed, so that runs with different seeds do the same work."""
        return random.Random(f"{self.name}:{cls}:{cycle}")

    def make_input(self, cls, cycle: int):
        raise NotImplementedError

    def make_cycle(self, cycle: int) -> list:
        return [self.make_input(cls, cycle) for cls in self.classes]

    def prelude(self) -> list:
        """Operations run once at the start of the timed window."""
        return []

    def warmup_input(self):
        return self.make_input(self.classes[0], 0)

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, result) -> str | None:
        raise NotImplementedError


class Verify(Workload):
    """`sgcorona verify` + `stats` + `corona`, call for call."""

    name = "verify"
    tail_pct = 85.0
    # (n1, n2) with N = n1 * (n2 + 2) from 18 to 42; A, L, Q each once.
    classes = tuple((n1, n2, x) for n1, n2 in ((3, 4), (4, 4), (5, 4), (5, 5), (6, 5))
                    for x in "ALQ")
    smoke_classes = 3

    def make_input(self, cls, cycle):
        n1, n2, theorem = cls
        fixed = self.fixed(cls, cycle)
        under1 = dense(n1) if theorem == "A" else circulant(n1, 2 if n1 < 5 else 4)
        # every other cycle has balanced factors, so the balance check runs
        balanced = cycle % 2 == 0
        g1 = labelled(self.rng, n1, signature(fixed, n1, under1, balanced))
        g2 = labelled(self.rng, n2, signature(fixed, n2, dense(n2), balanced))
        return graph_text(g1), graph_text(g2), theorem

    def run(self, inp):
        text1, text2, theorem = inp
        g1, g2 = cli.parse_graph(text1), cli.parse_graph(text2)
        if theorem != "A" and sg.regularity(g1).degree_regular is None:
            raise ValueError("L/Q theorem needs a degree-regular first factor")
        prod, layout = sg.add_vertex_corona(g1, g2)
        formula = {"A": sg.product_char_poly_A, "L": sg.product_char_poly_L,
                   "Q": sg.product_char_poly_Q}[theorem](g1, g2)
        direct = sg.char_poly(prod.matrix(theorem))
        edges = sg.edge_stats_formula(g1, g2)
        signs = sg.count_signs(prod)
        triads_formula = sg.triad_stats_formula(g1, g2)
        triads_enum = sg.enumerate_triads(prod)
        criteria = sg.unbalance_criteria(g2) if g2.m else []
        witness = sg.switching_iso_witness(g1, g2)
        written = cli.write_graph(prod, extra_comments=layout.describe())
        both_balanced = sg.balance(g1).balanced and sg.balance(g2).balanced
        prod_balance = sg.balance(prod) if both_balanced else None
        return (g1, g2, prod, formula, direct, edges, signs, triads_formula,
                triads_enum, criteria, witness, written, prod_balance)

    def check(self, inp, result):
        (g1, g2, prod, formula, direct, edges, signs, triads_formula,
         triads_enum, criteria, witness, written, prod_balance) = result
        theorem = inp[2]
        if formula != direct:
            return f"theorem {theorem}: formula polynomial != direct char poly"
        m = np.array(prod.matrix(theorem), dtype=np.int64)
        reason = check_charpoly(direct, m)
        if reason:
            return f"theorem {theorem}: {reason}"
        pos = sum(1 for _, _, s in prod.edges() if s > 0)
        if (edges.total, edges.positive, edges.negative) != (prod.m, pos, prod.m - pos):
            return "edge table disagrees with the product's edges"
        if signs != (pos, prod.m - pos):
            return "count_signs disagrees with the product's edges"
        if triads_formula.counts != triads_enum.counts:
            return "triad table formula != enumeration"
        a = np.array(prod.adjacency(), dtype=np.int64)
        # trace(|A|^3) = 6 * triangles; trace(A^3) = 6 * (t0 - t1 + t2 - t3)
        t = triads_enum.counts
        if (np.trace(np.abs(a) @ np.abs(a) @ np.abs(a)) != 6 * sum(t)
                or np.trace(a @ a @ a) != 6 * (t[0] - t[1] + t[2] - t[3])):
            return "triad enumeration disagrees with trace(A^3)"
        ring, _ = sg.vertex_corona(g1, g2)
        mapping = np.array(witness.mapping)
        if sorted(witness.mapping) != list(range(prod.n)):
            return "switching witness mapping is not a permutation"
        theta = np.array(witness.switching.values)
        moved = np.zeros_like(a)
        moved[np.ix_(mapping, mapping)] = a
        moved = theta[:, None] * moved * theta[None, :]
        if not np.array_equal(moved, np.array(ring.adjacency(), dtype=np.int64)):
            return "switching witness does not map the add-vertex corona to the vertex corona"
        if cli.parse_graph(written) != prod or written.count("\ne ") != prod.m:
            return "written product does not parse back to the product"
        if prod_balance is not None:
            if prod_balance.balanced != (not criteria):
                return f"balance(product)={prod_balance.balanced} but unbalance criteria {criteria}"
            if prod_balance.balanced:
                marks = prod_balance.marking
                if any(s != marks[u] * marks[v] for u, v, s in prod.edges()):
                    return "balance witness marking does not sign the product"
            else:
                u, v, s = prod_balance.violating_edge
                if not prod.has_edge(u, v) or prod.sign(u, v) != s:
                    return "reported violating edge is not a product edge"
        return None


class Spectra(Workload):
    """Numeric spectra with exact certification (`spectrum`, `energy`,
    `integral`, the corollaries, and the criterion-10 distribution)."""

    name = "spectra"
    tail_pct = 70.0
    # (n1, n2, matrix n, second factor kind); N = n1 * (n2 + 2) from 10 to 28
    classes = tuple((n1, n2, n, kind) for n1, n2, n in
                    ((2, 3, 8), (2, 4, 11), (3, 4, 14), (4, 4, 17), (4, 5, 20))
                    for kind in ("coregular", "star"))
    smoke_classes = 2

    def make_input(self, cls, cycle):
        n1, n2, n, kind = cls
        fixed = self.fixed(cls, cycle)
        if kind == "coregular":
            g1 = labelled(self.rng, n1, signature(fixed, n1, dense(n1)))
            g2 = labelled(self.rng, n2, coregular(n2, 2 if n2 < 5 else 4, cycle))
        else:
            g1 = labelled(self.rng, n1, signature(fixed, n1, dense(n1), balanced=True))
            # the star's centre stays vertex 0: the corollary takes its mark
            g2 = sg.SignedGraph(n2, signature(fixed, n2, [(0, j) for j in range(1, n2)]))
        return g1, g2, kind, permuted(self.rng, random_symmetric(fixed, n))

    def run(self, inp):
        g1, g2, kind, m = inp
        prod, _ = sg.add_vertex_corona(g1, g2)
        spectra = {x: sg.spectrum(prod, x) for x in "ALQ"}
        energy = sg.energy(prod)
        if kind == "coregular":
            assembled = sg.corollary_coregular_spectrum(g1, g2)
        else:
            assembled = sg.corollary_star_spectrum(g1, g2.n - 1, sg.canonical_marking(g2)[0])
        integral = sg.integrality(g2)
        w, _ = sg.jacobi_eigh(m)
        bound = max(sum(abs(x) for x in row) for row in m)
        roots = sg.real_roots(sg.char_poly(m), bound=bound)
        return prod, spectra, energy, assembled, integral, w, roots

    def check(self, inp, result):
        g1, g2, kind, m = inp
        prod, spectra, energy, assembled, integral, w, roots = result
        for x, spec in spectra.items():
            gap = spectrum_gap(spec.values, descending_eigvals(prod.matrix(x)))
            if not gap < SPECTRAL_TOL:
                return f"spectrum {x} off numpy eigvalsh by {gap:.3g}"
        ref = descending_eigvals(prod.adjacency())
        if not spectrum_gap(energy.spectrum.values, ref) < SPECTRAL_TOL:
            return "energy spectrum off numpy eigvalsh"
        want = float(np.sum(np.abs(ref)))
        if not abs(energy.energy - want) < SPECTRAL_TOL * max(1.0, want):
            return f"energy {energy.energy!r} != {want!r}"
        gap = spectrum_gap(assembled.values, ref)
        if not gap < SPECTRAL_TOL:
            return f"{kind} corollary spectrum off numpy eigvalsh by {gap:.3g}"
        ref2 = descending_eigvals(g2.adjacency())
        numeric = bool(np.all(np.abs(ref2 - np.round(ref2)) < INTEGRAL_TOL))
        if integral.integral != numeric:
            return f"integrality says {integral.integral}, eigvalsh says {numeric}"
        if integral.integral and not spectrum_gap(integral.eigenvalues, ref2) < SPECTRAL_TOL:
            return "integral eigenvalues off numpy eigvalsh"
        n = len(m)
        gap = spectrum_gap(w, descending_eigvals(m))
        if not gap < SPECTRAL_TOL:
            return f"jacobi_eigh off numpy eigvalsh by {gap:.3g}"
        if len(roots) != n:
            return f"real_roots found {len(roots)} roots of a degree-{n} char poly"
        gap = spectrum_gap(roots, np.asarray(w, dtype=float))
        if not gap < SPECTRAL_TOL:
            return f"real_roots off jacobi_eigh by {gap:.3g}"
        trace = sum(m[i][i] for i in range(n))
        fro2 = sum(x * x for row in m for x in row)
        if abs(float(np.sum(w)) - trace) > IDENTITY_TOL * max(1.0, abs(trace)):
            return "eigenvalue sum != trace"
        if abs(float(np.sum(np.square(w))) - fro2) > IDENTITY_TOL * max(1.0, fro2):
            return "eigenvalue square sum != Frobenius norm"
        return None


class Scale(Workload):
    """The paper's formula path at orders where a dense char poly of the
    product is out of reach."""

    name = "scale"
    tail_pct = 70.0
    # (n1, g1 degree, n2, second factor degree); N from 128 to 392.  The
    # Laplacian-type theorem alternates L, Q from one cycle to the next.
    classes = ((16, 4, 6, 2), (18, 4, 8, 2), (20, 4, 8, 4), (24, 4, 10, 4), (28, 4, 12, 4))

    def make_input(self, cls, cycle):
        n1, r1, n2, r2 = cls
        g1 = labelled(self.rng, n1, signature(self.fixed(cls, cycle), n1, circulant(n1, r1)))
        g2 = labelled(self.rng, n2, coregular(n2, r2, cycle // 2))
        return g1, g2, "LQ"[cycle % 2]

    def run(self, inp):
        g1, g2, which = inp
        poly_a = sg.product_char_poly_A(g1, g2)
        poly_x = (sg.product_char_poly_L if which == "L" else sg.product_char_poly_Q)(g1, g2)
        coronal = sg.graph_coronal(g2)
        assembled = sg.corollary_coregular_spectrum(g1, g2)
        return poly_a, poly_x, coronal, assembled

    def check(self, inp, result):
        g1, g2, which = inp
        poly_a, poly_x, coronal, assembled = result
        prod, _ = sg.add_vertex_corona(g1, g2)
        reason = (check_charpoly(poly_a, prod.adjacency())
                  or check_charpoly(poly_x, prod.matrix(which))
                  or check_coronal(coronal, g2))
        if reason:
            return reason
        gap = spectrum_gap(assembled.values, descending_eigvals(prod.adjacency()))
        if not gap < SPECTRAL_TOL:
            return f"co-regular corollary spectrum off numpy eigvalsh by {gap:.3g}"
        return None


class Search(Workload):
    """One exhaustive `equienergetic_search(max_n=6)`, then the
    `equienergetic` construction on every pair found, plus the guard case."""

    name = "search"
    tail_pct = 85.0
    # order of the first factor; product order n * (6 + 2)
    classes = (1, 2, 2, 3, 4)
    MAX_N = 6

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        self.pairs: list = []
        self.guard = (sg.path_graph(2), sg.cycle_graph(3), sg.cycle_graph(3, -1))

    def make_input(self, cls, cycle):
        return labelled(self.rng, cls, signature(self.fixed(cls, cycle), cls, dense(cls)))

    def prelude(self):
        return ["search"]

    def warmup_input(self):
        return "guard"

    def run(self, inp):
        if inp == "search":
            self.pairs = sg.equienergetic_search(max_n=self.MAX_N)
            return self.pairs
        built = [] if inp == "guard" else [
            sg.equienergetic_product_pair(inp, h1, h2) for h1, h2 in self.pairs
        ]
        try:
            sg.equienergetic_product_pair(*self.guard)
        except sg.PreconditionError as exc:
            return built, exc.violations
        return built, None

    def check(self, inp, result):
        if inp == "search":
            return self.check_pairs(result)
        built, guard = result
        if guard is None or not any("coronal" in v for v in guard):
            return f"guard case not rejected for its coronal mismatch: {guard}"
        if inp == "guard":
            return None
        if not self.pairs:
            return "no search pairs to build products from"
        if len(built) != len(self.pairs):
            return f"{len(built)} products built for {len(self.pairs)} pairs"
        for (h1, _), (p1, p2, report) in zip(self.pairs, built):
            if p1.n != inp.n * (h1.n + 2) or p2.n != p1.n:
                return "product order is not n1 * (n2 + 2)"
            if report.energy_gap > EQUIENERGETIC_TOL or report.products_cospectral:
                return "report does not certify an equienergetic non-cospectral pair"
            a1 = np.array(p1.adjacency(), dtype=np.int64)
            a2 = np.array(p2.adjacency(), dtype=np.int64)
            e1 = float(np.sum(np.abs(np.linalg.eigvalsh(a1))))
            e2 = float(np.sum(np.abs(np.linalg.eigvalsh(a2))))
            if abs(e1 - e2) > EQUIENERGETIC_TOL:
                return f"products' energies differ by {abs(e1 - e2):.3g}"
            if max(abs(report.energy_1 - e1), abs(report.energy_2 - e2)) > SPECTRAL_TOL * max(1.0, e1):
                return "reported product energy off numpy eigvalsh"
            if not differ_mod(a1, a2):
                return "products are cospectral"
        return None

    def check_pairs(self, pairs):
        if not pairs:
            return "search returned no admissible pair"
        for h1, h2 in pairs:
            if h1.n != h2.n or h1.n > self.MAX_N:
                return f"pair orders {h1.n}, {h2.n} not equal and <= {self.MAX_N}"
            e1 = float(np.sum(np.abs(descending_eigvals(h1.adjacency()))))
            e2 = float(np.sum(np.abs(descending_eigvals(h2.adjacency()))))
            if abs(e1 - e2) > SPECTRAL_TOL:
                return f"pair energies differ by {abs(e1 - e2):.3g}"
            for t in (h1.n + 0.5, h1.n + 1.5):
                c1, c2 = coronal_value(h1, t), coronal_value(h2, t)
                if abs(c1 - c2) > IDENTITY_TOL * max(1.0, abs(c1)):
                    return "pair coronals differ"
            a1 = np.array(h1.adjacency(), dtype=np.int64)
            a2 = np.array(h2.adjacency(), dtype=np.int64)
            if not differ_mod(a1, a2):
                return "pair is cospectral"
        return None


WORKLOADS = {w.name: w for w in (Verify, Spectra, Scale, Search)}
