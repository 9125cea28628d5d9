"""Numeric spectra, energy, integrality, corollary solvers, equienergetics.

Every numeric eigenvalue comes from one solver, LAPACK's symmetric
driver through numpy (eigh/eigvalsh), including the roots of the
corollaries' cubic and quartic factors, which are taken as the
eigenvalues of small symmetric matrices with those characteristic
polynomials.  Exact decisions (integrality, cospectrality) are delegated
to the integer characteristic-polynomial machinery; floats only ever
carry approximations of real spectra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SignedGraph, canonical_marking, is_balanced, mu_signed_graph, regularity
from .exactpoly import IntPolynomial, char_poly, coronal, integer_roots
from .products import add_vertex_corona

__all__ = [
    "Spectrum",
    "EnergyReport",
    "IntegralityResult",
    "EquienergeticReport",
    "PreconditionError",
    "jacobi_eigh",
    "eig_sym",
    "spectrum",
    "energy",
    "is_integral",
    "integrality",
    "cospectral",
    "corollary_coregular_spectrum",
    "corollary_star_spectrum",
    "equienergetic_product_pair",
    "equienergetic_search",
]


@dataclass(frozen=True)
class Spectrum:
    """Real eigenvalues sorted descending; multiplicity by repetition."""

    values: tuple[float, ...]
    source: str | None = None

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def to_lines(self) -> list[str]:
        """One eigenvalue per line, 12 significant digits, descending."""
        return [f"{v:.12g}" for v in self.values]


def _symmetric(matrix) -> np.ndarray:
    """Float copy of a real symmetric matrix, or ValueError naming the defect."""
    a = np.array(matrix, dtype=float)
    if a.size == 0 and a.ndim == 1:
        a = a.reshape(0, 0)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    scale = max(1.0, float(np.linalg.norm(a)))
    if a.size and float(np.max(np.abs(a - a.T))) > 1e-12 * scale:
        raise ValueError("matrix must be symmetric")
    return a


def _lapack(solver, a: np.ndarray):
    """Run a numpy symmetric eigensolver, mapping non-convergence to RuntimeError."""
    try:
        return solver(a)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"symmetric eigensolver failed to converge: {exc}") from exc


def jacobi_eigh(matrix):
    """Eigendecomposition of a real symmetric matrix by LAPACK (numpy eigh).

    Returns (w, V) with eigenvalues descending and V's columns the
    matching orthonormal eigenvectors.  Non-square, asymmetric or
    non-finite input raises ValueError; non-convergence raises
    RuntimeError.  The name is historical and kept for existing callers.
    """
    w, v = _lapack(np.linalg.eigh, _symmetric(matrix))
    return w[::-1].copy(), v[:, ::-1].copy()


def eig_sym(matrix, source: str | None = None) -> Spectrum:
    """Spectrum of a real symmetric matrix via LAPACK (numpy eigvalsh)."""
    w = _lapack(np.linalg.eigvalsh, _symmetric(matrix))
    return Spectrum(tuple(w[::-1].tolist()), source)


def spectrum(g: SignedGraph, which: str = "A") -> Spectrum:
    """Spectrum of the graph's A, L, or Q matrix."""
    return eig_sym(g.matrix(which), source=which)


@dataclass(frozen=True)
class EnergyReport:
    """Sum of absolute adjacency eigenvalues, with the spectrum attached."""

    energy: float
    spectrum: Spectrum


def energy(g: SignedGraph) -> EnergyReport:
    spec = spectrum(g, "A")
    return EnergyReport(float(sum(abs(v) for v in spec.values)), spec)


# -- exact integrality -------------------------------------------------------


@dataclass(frozen=True)
class IntegralityResult:
    """Exact decision whether every adjacency eigenvalue is an integer."""

    integral: bool
    eigenvalues: tuple[int, ...] | None

    def __bool__(self) -> bool:
        return self.integral


def integrality(g: SignedGraph) -> IntegralityResult:
    """Exact integrality test via integer-root extraction of the char poly.

    The characteristic polynomial splits into integer linear factors iff
    divisor-of-constant-term synthetic division exhausts its degree; no
    floating point is involved in the decision.
    """
    p = char_poly(g.adjacency())
    bound = max((sum(abs(x) for x in row) for row in g.adjacency()), default=0)
    roots, rest = integer_roots(p, bound=bound)
    if rest.degree > 0:
        return IntegralityResult(False, None)
    vals: list[int] = []
    for r, mult in roots.items():
        vals.extend([r] * mult)
    vals.sort(reverse=True)
    return IntegralityResult(True, tuple(vals))


def is_integral(g: SignedGraph) -> IntegralityResult:
    return integrality(g)


def cospectral(g1: SignedGraph, g2: SignedGraph, which: str = "A") -> bool:
    """Exact M-cospectrality via characteristic-polynomial equality."""
    return char_poly(g1.matrix(which)) == char_poly(g2.matrix(which))


# -- corollary spectrum assembly ----------------------------------------------


def _factor_roots(ts, template: list[list[float]]) -> list[float]:
    """Union over t in ts of the eigenvalues of template with entry (0, 1) = t.

    Each template is chosen so that its characteristic polynomial, with t
    in the (0, 1)/(1, 0) slots, is one corollary factor polynomial; one
    batched LAPACK call then yields every factor's (all real) roots.
    """
    m = np.repeat(np.array([template], dtype=float), len(ts), axis=0)
    m[:, 0, 1] = m[:, 1, 0] = ts
    return _lapack(np.linalg.eigvalsh, m).ravel().tolist()


def corollary_coregular_spectrum(g1: SignedGraph, g2: SignedGraph) -> Spectrum:
    """Assembled corona spectrum for a co-regular second factor.

    Requires g2 co-regular with pair (r, k); k is then an adjacency
    eigenvalue of g2 with some exact multiplicity p.  The product
    spectrum is: every eigenvalue of g2 other than k repeated n1 times,
    the three real roots of x^3 - k x^2 - (n2 + t^2) x + k t^2 for each
    eigenvalue t of g1_mu, and k with multiplicity n1*(p-1).  The cubic is
    det(xI - M) for M = [[0, t, 0], [t, 0, sqrt(n2)], [0, sqrt(n2), k]].
    """
    rep = regularity(g2)
    if rep.co_regular_pair is None:
        raise ValueError("second factor must be co-regular (degree- and net-regular)")
    _, k = rep.co_regular_pair
    n1, n2 = g1.n, g2.n
    f2 = char_poly(g2.adjacency())
    p_mult = 0
    lin = IntPolynomial((-k, 1))
    q = f2
    while q.degree >= 1 and q(k) == 0:
        p_mult += 1
        q = q.exact_div(lin)
    if p_mult == 0:
        raise ValueError(f"net degree {k} is not an eigenvalue of the second factor")
    w2 = list(eig_sym(g2.adjacency()).values)
    # drop the p_mult values closest to k (they are the exact copies of k)
    w2.sort(key=lambda x: abs(x - k))
    others = w2[p_mult:]
    values: list[float] = []
    for lam in others:
        values.extend([lam] * n1)
    lam1mu = eig_sym(mu_signed_graph(g1, canonical_marking(g1)).adjacency()).values
    s = n2 ** 0.5
    values.extend(_factor_roots(lam1mu, [[0, 0, 0], [0, 0, s], [0, s, k]]))
    values.extend([float(k)] * (n1 * (p_mult - 1)))
    values.sort(reverse=True)
    return Spectrum(tuple(values), source="A")


def corollary_star_spectrum(g1: SignedGraph, n2: int, center_mark: int) -> Spectrum:
    """Assembled spectrum of g1 (*) star-with-n2-leaves, for balanced g1.

    Zero appears with multiplicity n1*(n2-1); for each adjacency
    eigenvalue t of g1 the quartic
    x^4 - (2 n2 + 1 + t^2) x^2 - 2 n2 mu(center) x + n2 t^2 contributes
    four real roots.  Requires g1 balanced (so g1 and g1_mu are
    cospectral, making the quartic's t the eigenvalues of g1 itself);
    the star's signature must realize the requested center mark through
    its canonical marking.  With c = mu(center) and s = sqrt(n2), the
    quartic is det(xI - M) for
    M = [[0, t, 0, 0], [t, 0, 1, c s], [0, 1, 0, s], [0, c s, s, 0]].
    """
    if center_mark not in (1, -1):
        raise ValueError("center mark must be +1 or -1")
    if n2 < 1:
        raise ValueError("star needs at least one leaf")
    if not is_balanced(g1):
        raise ValueError("first factor must be balanced for the star corollary")
    n1 = g1.n
    values = [0.0] * (n1 * (n2 - 1))
    s = n2 ** 0.5
    cs = center_mark * s
    template = [[0, 0, 0, 0], [0, 0, 1, cs], [0, 1, 0, s], [0, cs, s, 0]]
    values.extend(_factor_roots(eig_sym(g1.adjacency()).values, template))
    values.sort(reverse=True)
    return Spectrum(tuple(values), source="A")


# -- equienergetic construction -----------------------------------------------


class PreconditionError(ValueError):
    """Raised when the equienergetic construction's hypotheses fail."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


@dataclass(frozen=True)
class EquienergeticReport:
    """Verified outcome for a constructed equienergetic product pair."""

    energy_1: float
    energy_2: float
    energy_gap: float
    products_cospectral: bool


def equienergetic_product_pair(g: SignedGraph, h1: SignedGraph, h2: SignedGraph):
    """Build g (*) h1 and g (*) h2 from an admissible equienergetic pair.

    Admissible means: equal order, identical reduced adjacency coronals
    (exact), equal energy within 1e-8, and exactly non-cospectral.  All
    violations are collected and raised together.  The returned report
    certifies the products' energies agree within 1e-6 and their
    characteristic polynomials differ exactly.
    """
    violations = []
    if h1.n != h2.n:
        violations.append("order mismatch")
    c1 = coronal(h1.adjacency(), canonical_marking(h1))
    c2 = coronal(h2.adjacency(), canonical_marking(h2))
    if c1.as_pair() != c2.as_pair():
        violations.append("coronal mismatch")
    e1, e2 = energy(h1).energy, energy(h2).energy
    if abs(e1 - e2) > 1e-8:
        violations.append("energy mismatch")
    if c1.unreduced()[1] == c2.unreduced()[1]:  # the char polys of h1, h2
        violations.append("cospectral inputs")
    if violations:
        raise PreconditionError(violations)
    p1, _ = add_vertex_corona(g, h1)
    p2, _ = add_vertex_corona(g, h2)
    pe1, pe2 = energy(p1).energy, energy(p2).energy
    gap = abs(pe1 - pe2)
    cospec = char_poly(p1.adjacency()) == char_poly(p2.adjacency())
    if gap > 1e-6 or cospec:
        raise RuntimeError(
            "constructed products violate the equienergetic guarantee; this is a bug"
        )
    return p1, p2, EquienergeticReport(pe1, pe2, gap, cospec)


def _atlas_connected(max_n: int):
    """Connected graphs on 2..max_n vertices, one per isomorphism class."""
    import networkx as nx

    out = []
    for g in nx.graph_atlas_g():
        n = g.number_of_nodes()
        if n < 2 or n > max_n:
            continue
        if not nx.is_connected(g):
            continue
        mapping = {v: i for i, v in enumerate(sorted(g.nodes()))}
        edges = tuple(sorted((min(mapping[u], mapping[v]), max(mapping[u], mapping[v]))
                             for u, v in g.edges()))
        out.append((n, edges))
    return out


def equienergetic_search(max_n: int = 6, find_all: bool = False):
    """Exhaustive scan for admissible equienergetic pairs at small order.

    Scans every signature of every connected graph on up to max_n
    vertices (one representative per isomorphism class of the underlying
    graph; energy, spectra and coronals are isomorphism-invariant, so the
    reduction loses nothing).  Candidates are pre-filtered by batched
    float energies, then certified exactly: identical reduced coronals
    and different characteristic polynomials.  Returns a list of
    (h1, h2) pairs; with find_all False the scan stops at the first hit.
    """
    found: list[tuple[SignedGraph, SignedGraph]] = []
    by_n: dict[int, list[tuple[int, tuple[tuple[int, int], ...]]]] = {}
    for n, edges in _atlas_connected(max_n):
        by_n.setdefault(n, []).append((n, edges))
    for n in sorted(by_n):
        entries = []  # (energy, graph_index, signature_bits)
        graphs = by_n[n]
        for gi, (_, edges) in enumerate(graphs):
            m = len(edges)
            mats = np.zeros((2 ** m, n, n))
            for bits in range(2 ** m):
                for ei, (u, v) in enumerate(edges):
                    s = -1.0 if (bits >> ei) & 1 else 1.0
                    mats[bits, u, v] = s
                    mats[bits, v, u] = s
            w = np.linalg.eigvalsh(mats)
            energies = np.sum(np.abs(w), axis=1)
            entries.extend((float(energies[b]), gi, b) for b in range(2 ** m))
        entries.sort()
        exact: dict[tuple[int, int], tuple] = {}

        def certify(gi: int, bits: int):
            key = (gi, bits)
            if key not in exact:
                _, edges = graphs[gi]
                sg = SignedGraph(
                    n,
                    ((u, v, -1 if (bits >> ei) & 1 else 1)
                     for ei, (u, v) in enumerate(edges)),
                )
                cor = coronal(sg.adjacency(), canonical_marking(sg))
                exact[key] = (sg, cor.unreduced()[1].coefficients, cor.as_pair())
            return exact[key]

        i = 0
        while i < len(entries):
            j = i + 1
            while j < len(entries) and entries[j][0] - entries[j - 1][0] <= 1e-8:
                j += 1
            if j - i >= 2:
                # within a coronal class, keep one representative per char poly
                groups: dict[tuple, dict[tuple, SignedGraph]] = {}
                for _, gi, bits in entries[i:j]:
                    sg, cp, cor = certify(gi, bits)
                    key = tuple(q.coefficients for q in cor)
                    reps = groups.setdefault(key, {})
                    if cp not in reps:
                        for other in reps.values():
                            found.append((other, sg))
                            if not find_all:
                                return found
                        reps[cp] = sg
            i = j
    return found
