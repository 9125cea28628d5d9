"""Numeric spectra, energy, integrality, product spectra, equienergetics.

Every numeric eigenvalue comes from one solver, LAPACK's symmetric
driver through numpy (eigh/eigvalsh).  Corona product spectra come from
the factorisation behind the paper's identity, never from the dense
product; the corollaries are special cases of it.  Exact decisions
(integrality, cospectrality) are integer characteristic-polynomial
equalities; floats only carry approximations or propose candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._atlas import connected_graphs
from .core import (
    SignedGraph,
    _as_int,
    _vertex_count,
    canonical_marking,
    is_balanced,
    regularity,
    star_graph,
)
from .exactpoly import IntPolynomial, _slot_block, char_poly, coronal_pair
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
    "integrality",
    "cospectral",
    "product_spectrum",
    "corollary_coregular_spectrum",
    "corollary_star_spectrum",
    "equienergetic_product_pair",
    "equienergetic_search",
]


class Spectrum:
    """Real eigenvalues sorted descending; multiplicity by repetition.

    The values are stored packed, as float64 bytes: 8 bytes a value, where
    a tuple of floats costs 32 (the float object and its slot).  `values`
    unpacks them into a new tuple on each access.  Instances are immutable;
    equality and hashing go by the values, so 0.0 and -0.0 agree.
    """

    __slots__ = ("_packed",)

    def __init__(self, values):
        array = np.asarray(values, dtype=np.float64)
        if array.ndim != 1:
            raise ValueError(f"spectrum values must be one-dimensional, not {array.shape}")
        object.__setattr__(self, "_packed", array.tobytes())

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(self)

    def __len__(self) -> int:
        return len(self._packed) // 8

    def __iter__(self):
        return iter(memoryview(self._packed).cast("d"))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.values == other.values

    def __hash__(self) -> int:
        return hash(self.values)

    def __repr__(self) -> str:
        return f"Spectrum(values={self.values!r})"

    def __setattr__(self, name, value):
        raise AttributeError(f"Spectrum is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Spectrum is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return (Spectrum, (self.values,))

    def to_lines(self) -> list[str]:
        """One eigenvalue per line, 12 significant digits, descending."""
        return [f"{v:.12g}" for v in self]


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


def eig_sym(matrix) -> Spectrum:
    """Spectrum of a real symmetric matrix via LAPACK (numpy eigvalsh)."""
    return Spectrum(_lapack(np.linalg.eigvalsh, _symmetric(matrix))[::-1])


def spectrum(g: SignedGraph, which: str = "A") -> Spectrum:
    """Spectrum of the graph's A, L, or Q matrix."""
    return eig_sym(g.matrix(which))


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
    """Exact integrality test: the rounded LAPACK spectrum, certified.

    The `eig_sym` eigenvalues of A(g), rounded to integers l_i, are
    accepted iff char_poly(A) == prod(x - l_i), one integer-polynomial
    equality.  If it holds, the char poly splits over the integers with
    exactly those roots.  If g is integral, rounding recovers its
    spectrum: LAPACK's symmetric solver is backward stable, so each
    eigenvalue is off by about n * eps * ||A||_2, under 4e-9 for
    |lambda| <= 4095 at n <= 4096, far below 1/2.
    """
    a = g.adjacency()
    vals = tuple(round(v) for v in eig_sym(a).values)
    x = IntPolynomial.x()
    if char_poly(a) != math.prod((x - v for v in vals), start=IntPolynomial.one()):
        return IntegralityResult(False, None)
    return IntegralityResult(True, vals)


def cospectral(g1: SignedGraph, g2: SignedGraph, which: str = "A") -> bool:
    """Exact M-cospectrality via characteristic-polynomial equality."""
    return char_poly(g1.matrix(which)) == char_poly(g2.matrix(which))


# -- product spectra ----------------------------------------------------------


def product_spectrum(g1: SignedGraph, g2: SignedGraph) -> Spectrum:
    """Adjacency spectrum of the add-vertex corona g1 (*) g2, from the factors.

    Switching copy i of g2 by mu1(i) splits the product's adjacency into
    one slot block M_t = M_0 + tE per eigenvalue t of A(g1_mu)
    (`exactpoly._slot_block`), so the spectrum is the union of spec(M_t):
    one eigensolve of order n1 (of |A(g1)|: A(g1_mu) = D |A(g1)| D with
    D = diag(mu1), as g1_mu is balanced) and one batched one of the blocks,
    of order n2 + 2.  Exact for every pair of factors, including empty ones.
    """
    b = np.array(_slot_block(g1, g2, "A"), dtype=float)
    t = eig_sym(np.abs(g1.adjacency())).values
    m = np.repeat(b[None], len(t), axis=0)
    m[:, 0, 1] = m[:, 1, 0] = t
    return Spectrum(np.sort(_lapack(np.linalg.eigvalsh, m).ravel())[::-1])


def corollary_coregular_spectrum(g1: SignedGraph, g2: SignedGraph) -> Spectrum:
    """Corona spectrum for a co-regular second factor, from `product_spectrum`.

    Requires g2 co-regular with pair (r, k); k is then an adjacency
    eigenvalue of g2 (A(g2) 1 = k 1) with some multiplicity p.  The
    product spectrum is: every eigenvalue of g2 other than k repeated n1
    times, the three real roots of x^3 - k x^2 - (n2 + t^2) x + k t^2 for
    each eigenvalue t of g1_mu, and k with multiplicity n1*(p-1).  Every
    vertex of g2 has the same number of negative edges, so its canonical
    marking is constant, an eigenvector for k; each block M_t therefore
    keeps the span of the u-slot, the a-slot and the marking, where it
    acts as M = [[0, t, 0], [t, 0, sqrt(n2)], [0, sqrt(n2), k]], and the
    cubic is det(xI - M).
    """
    if regularity(g2).co_regular_pair is None:
        raise ValueError("second factor must be co-regular (degree- and net-regular)")
    return product_spectrum(g1, g2)


def corollary_star_spectrum(g1: SignedGraph, n2: int, center_mark: int) -> Spectrum:
    """Spectrum of g1 (*) star-with-n2-leaves, for balanced g1.

    Zero appears with multiplicity n1*(n2-1); for each adjacency
    eigenvalue t of g1 the quartic
    x^4 - (2 n2 + 1 + t^2) x^2 - 2 n2 mu(center) x + n2 t^2 contributes
    four real roots.  Requires g1 balanced (so g1 and g1_mu are
    cospectral, making the quartic's t the eigenvalues of g1 itself).
    With c = mu(center) and s = sqrt(n2), the quartic is det(xI - M) for
    M = [[0, t, 0, 0], [t, 0, 1, c s], [0, 1, 0, s], [0, c s, s, 0]].
    The star's signs enter the spectrum only through c, so the spectrum
    is that of the product with the star whose first edge carries c and
    whose other edges are positive, taken from `product_spectrum`.
    """
    if center_mark not in (1, -1):
        raise ValueError("center mark must be +1 or -1")
    if _vertex_count(n2, "leaf count") < 1:
        raise ValueError("star needs at least one leaf")
    if not is_balanced(g1):
        raise ValueError("first factor must be balanced for the star corollary")
    return product_spectrum(g1, star_graph(n2, [center_mark] + [1] * (n2 - 1)))


# -- equienergetic construction -----------------------------------------------


# Largest energy difference the construction accepts and the search
# chains, so that every pair the search returns passes the construction.
_ENERGY_TOL = 1e-8
# Largest energy gap of the constructed products, n1 * _ENERGY_TOL to n1 = 100
_PRODUCT_GAP_TOL = 1e-6


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


def _coronal_check(h1: SignedGraph, h2: SignedGraph) -> tuple[bool, bool]:
    """Whether h1 and h2 have equal reduced adjacency coronals and whether
    their characteristic polynomials differ, both exact: with (p, f) the
    unreduced coronal pair, f = charpoly(A(h)), that is p1 f2 = p2 f1
    (reduced coronals are canonical) and f1 != f2."""
    (p1, f1), (p2, f2) = (coronal_pair(h.adjacency(), canonical_marking(h)) for h in (h1, h2))
    return p1 * f2 == p2 * f1, f1 != f2


def _equienergetic_certificate(
    g: SignedGraph, h1: SignedGraph, h2: SignedGraph
) -> EquienergeticReport:
    """The report of `equienergetic_product_pair`, from the factors alone."""
    violations = []
    if g.n == 0:
        violations.append("empty first factor")
    if h1.n != h2.n:
        violations.append("order mismatch")
    same_coronal, distinct = _coronal_check(h1, h2)
    if not same_coronal:
        violations.append("coronal mismatch")
    e1, e2 = energy(h1).energy, energy(h2).energy
    if abs(e1 - e2) > _ENERGY_TOL:
        violations.append("energy mismatch")
    if not distinct:
        violations.append("cospectral inputs")
    if violations:
        raise PreconditionError(violations)
    pe1, pe2 = (float(sum(abs(v) for v in product_spectrum(g, h))) for h in (h1, h2))
    gap = abs(pe1 - pe2)
    if gap > _PRODUCT_GAP_TOL:
        tol = f"{_PRODUCT_GAP_TOL:.0e}".replace("e-0", "e-")  # 1e-6, not 1e-06
        raise RuntimeError(
            f"constructed products' energies differ by more than {tol}; for n1 <= 100 this is a bug"
        )
    return EquienergeticReport(pe1, pe2, gap, not distinct)


def equienergetic_product_pair(g: SignedGraph, h1: SignedGraph, h2: SignedGraph):
    """Build g (*) h1 and g (*) h2 from an admissible equienergetic pair.

    Admissible means: a first factor with at least one vertex (else
    both products are empty), equal order, identical reduced adjacency
    coronals (exact), equal energy within 1e-8, and exactly
    non-cospectral.  All violations are collected and raised together.

    The certificate is the split of the adjacency product identity: with
    c = gcd(p, f) of h's unreduced coronal pair, the identity for g (*) h
    is c^n1 * S, n1 = g.n, with S shared by equal reduced coronals.  So
    the products are cospectral iff f1 = f2, which the preconditions
    exclude, and their energy gap is exactly n1 * |E(h1) - E(h2)|.  The
    report's energies come from `product_spectrum`, and a gap above 1e-6
    raises RuntimeError.  The 1e-8 input tolerance guarantees that gap
    only for n1 <= 100; for a larger g the error can also mean inputs
    whose energies differ by more than 1e-6 / n1.
    """
    report = _equienergetic_certificate(g, h1, h2)
    return add_vertex_corona(g, h1)[0], add_vertex_corona(g, h2)[0], report


# Largest order in the shipped atlas table (`_atlas.py`), hence the
# search's limit.
_ATLAS_MAX_N = 7
# Largest order a find_all search scans: order 7 has 12,340,288 signatures,
# 89 times order 6's, and about 197 MB of scan arrays.
_FIND_ALL_MAX_N = 6
# Signatures per batched eigensolve or key computation in the search; the
# working arrays hold about _SEARCH_CHUNK * n^2 numbers.
_SEARCH_CHUNK = 4096


def _signature_matrices(n: int, us: np.ndarray, vs: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """Integer adjacency matrices (B, n, n) of B signatures.

    Row b of us and vs lists the endpoints of signature b's edges (or
    one row shared by all); bit e of bits[b] set makes edge e negative.
    Padding edges (n, n) land in an extra row and column that is cut off.
    """
    signs = 1 - 2 * ((bits[:, None] >> np.arange(us.shape[1])) & 1)
    rows = np.arange(len(bits))[:, None]
    a = np.zeros((len(bits), n + 1, n + 1), dtype=np.int64)
    a[rows, us, vs] = signs
    a[rows, vs, us] = signs
    return a[:, :n, :n]


def _spectral_keys(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact cospectrality and coronal keys of signed adjacency matrices (B, n, n).

    Row b of the first array holds tr(A^k) for k = 1..n; by Newton's
    identities two matrices of order n have the same characteristic
    polynomial iff these agree.  Row b of the second holds mu^T A^k mu
    for k = 0..2n-1, with mu the canonical marking: the first 2n
    coefficients of the coronal's expansion in 1/x.  Two coronals whose
    denominators have degree n differ by a fraction with a degree-2n
    denominator and a numerator of lower degree, which is zero iff those
    2n coefficients agree; so equal rows mean equal reduced coronals.
    Every entry is at most n * (n-1)^(2n) in size, exact in int64 for
    n <= 7.
    """
    count, n, _ = a.shape
    mu = np.where(a != 0, a, 1).prod(axis=2)
    v = [mu]
    for _ in range(n):
        v.append(np.einsum("bij,bj->bi", a, v[-1]))
    moments = np.empty((count, 2 * n), dtype=np.int64)
    for j in range(n):
        moments[:, 2 * j] = np.einsum("bi,bi->b", v[j], v[j])
        moments[:, 2 * j + 1] = np.einsum("bi,bi->b", v[j], v[j + 1])
    traces = np.empty((count, n), dtype=np.int64)
    power = a
    for k in range(n):
        traces[:, k] = np.einsum("bii->b", power)
        if k + 1 < n:
            power = power @ a
    return traces, moments


def equienergetic_search(max_n: int = 6, find_all: bool = False):
    """Exhaustive scan for admissible equienergetic pairs at small order.

    Scans every signature of every connected graph on up to max_n
    vertices (one representative per isomorphism class of the underlying
    graph; energy, spectra and coronals are isomorphism-invariant, so the
    reduction loses nothing), taken in atlas order from the connected
    graphs of Read & Wilson's graph atlas that the package ships as a
    table (`_atlas.py`).  max_n must be an integer: at most 1 finds
    nothing, and a non-integer or a value above 7, the table's largest
    order, raises ValueError, and so does max_n = 7 with find_all true,
    which would scan every order-7 signature.  Signatures are sorted by
    batched float energy and chained into clusters whose neighbours lie
    within 1e-8.  Inside a cluster, candidates are grouped by exact
    integer keys (power traces for the characteristic polynomial,
    marking moments for the coronal, see `_spectral_keys`); a pair is
    two candidates with equal coronals and different characteristic
    polynomials, and each returned pair is confirmed with the exact
    coronals.  Returns a list of (h1, h2) pairs; with find_all False the
    scan stops at the first hit.
    """
    max_n = _as_int(max_n, "max_n")
    if max_n > _ATLAS_MAX_N:
        raise ValueError(
            f"max_n must be at most {_ATLAS_MAX_N}, the largest order in the graph atlas"
        )
    if find_all and max_n > _FIND_ALL_MAX_N:
        raise ValueError(
            f"max_n must be at most {_FIND_ALL_MAX_N} with find_all: order "
            f"{_FIND_ALL_MAX_N + 1} has too many signatures to scan them all"
        )
    found: list[tuple[SignedGraph, SignedGraph]] = []
    for n in range(2, max_n + 1):
        graphs = connected_graphs(n)
        # edge endpoints per graph, padded with (n, n) to a common width
        us = np.full((len(graphs), max(len(e) for e in graphs)), n)
        vs = us.copy()
        for gi, edges in enumerate(graphs):
            us[gi, : len(edges)], vs[gi, : len(edges)] = zip(*edges)
        energies, gis, sigs = [], [], []
        for gi, edges in enumerate(graphs):
            m = len(edges)
            for start in range(0, 2 ** m, _SEARCH_CHUNK):
                bits = np.arange(start, min(start + _SEARCH_CHUNK, 2 ** m), dtype=np.int32)
                a = _signature_matrices(n, us[gi : gi + 1, :m], vs[gi : gi + 1, :m], bits)
                w = _lapack(np.linalg.eigvalsh, a.astype(float))
                energies.append(np.sum(np.abs(w), axis=1))
                gis.append(np.full(len(bits), gi, dtype=np.int32))
                sigs.append(bits)
        energy, gi_of, bits_of = (np.concatenate(x) for x in (energies, gis, sigs))
        order = np.lexsort((bits_of, gi_of, energy))
        energy, gi_of, bits_of = energy[order], gi_of[order], bits_of[order]
        # clusters chain sorted energies whose successive gaps are <= _ENERGY_TOL
        cluster = np.concatenate(([0], np.cumsum(np.diff(energy) > _ENERGY_TOL)))

        def graph(i: int) -> SignedGraph:
            edges = graphs[gi_of[i]]
            b = int(bits_of[i])
            return SignedGraph(
                n, ((u, v, -1 if (b >> e) & 1 else 1) for e, (u, v) in enumerate(edges))
            )

        current = -1
        groups: dict[bytes, dict[bytes, int]] = {}
        # every signature is scanned: its negation -A has the same energy, so
        # no cluster is a singleton that a filter could skip
        for start in range(0, len(energy), _SEARCH_CHUNK):
            idx = slice(start, start + _SEARCH_CHUNK)
            gsel = gi_of[idx]
            traces, moments = _spectral_keys(
                _signature_matrices(n, us[gsel], vs[gsel], bits_of[idx])
            )
            keys = zip(cluster[idx].tolist(), map(bytes, traces), map(bytes, moments))
            for i, (cl, cp, key) in enumerate(keys, start):
                if cl != current:
                    # within a coronal class, keep one representative per char poly
                    current, groups = cl, {}
                reps = groups.setdefault(key, {})
                if cp not in reps:
                    for other in reps.values():
                        pair = (graph(other), graph(i))
                        if _coronal_check(*pair) != (True, True):
                            raise RuntimeError("search keys disagree with the exact "
                                               "coronals; this is a bug")
                        found.append(pair)
                        if not find_all:
                            return found
                    reps[cp] = i
    return found
