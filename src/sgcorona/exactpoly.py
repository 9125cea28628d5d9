"""Exact integer polynomial arithmetic, characteristic polynomials, coronals.

Characteristic polynomials of integer symmetric matrices are computed by
the Faddeev-LeVerrier recurrence, the one exact kernel here.  The
coronal numerator p = mu^T adj(xI - M) mu is a difference of two of
them: by the matrix determinant lemma, det(xI - M - mu mu^T) = f - p
with f = det(xI - M).  All arithmetic is over Python's arbitrary-precision
integers: coefficient growth at the scales handled here is modest but
fixed-width overflow would be silent, so big integers are mandatory.

Also here: one remainder sequence for both gcds and Sturm chains, whose
terms are positive multiples of the true negated remainders (the sign
matters: Sturm counts read it), Yun squarefree decomposition, real roots
(the exact eigenvalue oracle: dyadic brackets around float seeds from
np.roots, certified by integer sign checks and a count, falling back to
Yun and then to Sturm bisection at dyadic points, each point's Sturm
count computed once; then integer dyadic bisection), and the one
product char-poly identity behind the A, L and Q matrices of the
duplication add-vertex corona, denominator-cleared by Horner's rule,
the first factor entering only through its graph.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import gcd

import numpy as np

from .core import MAX_VERTICES, SignedGraph, _check_product_order, canonical_marking, regularity

__all__ = [
    "IntPolynomial",
    "Coronal",
    "char_poly",
    "coronal_pair",
    "coronal",
    "graph_coronal",
    "product_char_poly_A",
    "product_char_poly_L",
    "product_char_poly_Q",
    "poly_gcd",
    "squarefree_decomposition",
    "real_roots",
]


# Largest degree, and largest exponent, `**` takes: the char poly of any
# graph the package accepts, corona products included, has degree at most
# MAX_VERTICES; x ** 10**9 would allocate a billion coefficients, and
# 2 ** 10**12 a 125 GB coefficient.
_MAX_POWER_DEGREE = MAX_VERTICES


class IntPolynomial:
    """Dense univariate polynomial with integer coefficients.

    Coefficients are stored ascending by degree with no trailing zeros;
    the zero polynomial is the empty tuple.  Instances are immutable.
    """

    __slots__ = ("_c",)

    def __init__(self, coefficients=()):
        try:  # operator.index takes numpy ints; 0.5 or '1' raise
            c = list(map(operator.index, coefficients))
        except TypeError:
            raise ValueError("polynomial coefficients must be integers") from None
        while c and c[-1] == 0:
            c.pop()
        self._c = tuple(c)

    # -- constructors ---------------------------------------------------

    @classmethod
    def one(cls) -> "IntPolynomial":
        return cls((1,))

    @classmethod
    def x(cls) -> "IntPolynomial":
        return cls((0, 1))

    # -- basic queries ----------------------------------------------------

    @property
    def coefficients(self) -> tuple[int, ...]:
        return self._c

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self._c) - 1

    @property
    def is_zero(self) -> bool:
        return not self._c

    @property
    def leading(self) -> int:
        if not self._c:
            return 0
        return self._c[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self._c) and self._c[-1] == 1

    def coeff(self, k: int) -> int:
        return self._c[k] if 0 <= k < len(self._c) else 0

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = IntPolynomial((other,))
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self._c, other._c
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] += v
        return IntPolynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return IntPolynomial(tuple(-v for v in self._c))

    def __sub__(self, other):
        if isinstance(other, int):
            other = IntPolynomial((other,))
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return IntPolynomial()
            return IntPolynomial(tuple(v * other for v in self._c))
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self._c, other._c
        if not a or not b:
            return IntPolynomial()
        out = [0] * (len(a) + len(b) - 1)
        for i, av in enumerate(a):
            if av == 0:
                continue
            for j, bv in enumerate(b):
                out[i + j] += av * bv
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        if max(self.degree, 1) * k > _MAX_POWER_DEGREE:
            raise ValueError(f"power {k} of degree {self.degree} exceeds {_MAX_POWER_DEGREE}")
        result, base = IntPolynomial.one(), self
        while True:
            if k & 1:
                result = result * base
            k >>= 1
            if not k:
                return result
            base = base * base

    def __call__(self, x):
        """Horner evaluation; works for int, float, or Fraction inputs."""
        acc = 0 * x
        for c in reversed(self._c):
            acc = acc * x + c
        return acc

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial(tuple(i * c for i, c in enumerate(self._c) if i > 0))

    # -- integer-content helpers -------------------------------------------

    def primitive_part(self) -> "IntPolynomial":
        """Divide out the content and normalize the leading coefficient positive."""
        p = self.divide_content()
        return -p if self.leading < 0 else p

    def divide_content(self) -> "IntPolynomial":
        """Divide by the positive content, preserving the sign pattern."""
        if not self._c:
            return self
        g = gcd(*self._c)
        return IntPolynomial(tuple(c // g for c in self._c))

    def exact_div(self, other: "IntPolynomial") -> "IntPolynomial":
        """Exact quotient self / other over the integers; raises if inexact."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero:
            return IntPolynomial()
        rem = list(self._c)
        d = other.degree
        oc = other._c
        lead = oc[-1]
        if len(rem) - 1 < d:
            raise ValueError("inexact polynomial division")
        q = [0] * (len(rem) - d)
        for i in range(len(rem) - 1, d - 1, -1):
            if rem[i] == 0:
                continue
            if rem[i] % lead != 0:
                raise ValueError("inexact polynomial division")
            f = rem[i] // lead
            q[i - d] = f
            for j in range(d + 1):
                rem[i - d + j] -= f * oc[j]
        if any(rem):
            raise ValueError("inexact polynomial division")
        return IntPolynomial(q)

    # -- serialization ------------------------------------------------------

    def to_line(self) -> str:
        """Ascending coefficients, space-separated, on one line ('0' if zero)."""
        if not self._c:
            return "0"
        return " ".join(str(c) for c in self._c)

    # -- value semantics ------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = IntPolynomial((other,))
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self._c == other._c

    def __hash__(self) -> int:
        return hash(self._c)

    def __repr__(self) -> str:
        return f"IntPolynomial({self._c!r})"


# -- gcd machinery -------------------------------------------------------


def _remainder_sequence(f: IntPolynomial, g: IntPolynomial):
    """Yield f, g and minus each remainder of the two terms before it, times
    a positive rational, up to the last nonzero term; deg f >= deg g.

    The step r <- |lc(g)| r - sgn(lc(g)) lc(r) x^k g cancels r's leading
    term and keeps r a positive multiple of f modulo g, so the signs are
    those of the Sturm chain when g = f'.
    """
    yield f
    while not g.is_zero:
        yield g
        *low, lead = g.coefficients
        r = list(f.coefficients)
        while len(r) > len(low):
            top = r.pop() if lead > 0 else -r.pop()
            if top:
                r = [abs(lead) * v for v in r]
                for j, v in enumerate(low, len(r) - len(low)):
                    r[j] -= top * v
        f, g = g, IntPolynomial(-v for v in r).divide_content()


def poly_gcd(f: IntPolynomial, g: IntPolynomial) -> IntPolynomial:
    """Primitive gcd: the primitive part of the remainder sequence's last term.

    The result is primitive with positive leading coefficient; constants
    collapse to 1.  Integer content of the inputs is deliberately not
    carried into the result.
    """
    if f.degree < g.degree:
        f, g = g, f
    *_, last = _remainder_sequence(f, g)
    return IntPolynomial.one() if last.degree == 0 else last.primitive_part()


# -- matrices (exact, list-of-rows) ----------------------------------------


def _matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _validate_square(matrix) -> list[list[int]]:
    try:  # operator.index takes numpy ints; 0.5 or '1' raise
        rows = [list(map(operator.index, row)) for row in matrix]
    except TypeError:
        raise ValueError("matrix entries must be integers") from None
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("matrix must be square")
    return rows


def char_poly(matrix) -> IntPolynomial:
    """Monic characteristic polynomial det(xI - M), exact over the integers.

    Runs the Faddeev-LeVerrier recurrence P_1 = M, c_{n-k} = -tr(P_k)/k,
    P_{k+1} = M (P_k + c_{n-k} I); every trace division is exact.
    """
    a = _validate_square(matrix)
    n = len(a)
    c = [0] * (n + 1)
    c[n] = 1
    p = [row[:] for row in a]
    for k in range(1, n + 1):
        tr = sum(p[i][i] for i in range(n))
        if tr % k:
            raise RuntimeError("Faddeev-LeVerrier trace division is inexact; this is a bug")
        c[n - k] = -(tr // k)
        if k < n:
            for i in range(n):
                p[i][i] += c[n - k]
            p = _matmul(a, p)
    return IntPolynomial(c)


def coronal_pair(matrix, mu) -> tuple[IntPolynomial, IntPolynomial]:
    """Unreduced coronal numerator and characteristic polynomial of M.

    The numerator is p(x) = mu^T adj(xI - M) mu; the pair p/f is the
    coronal before gcd reduction.  By the matrix determinant lemma,
    det(xI - M - mu mu^T) = f(x) - p(x), so p = f - charpoly(M + mu mu^T).
    """
    marks = list(mu)
    a = _validate_square(matrix)
    if len(marks) != len(a):
        raise ValueError("marking length must match matrix dimension")
    f = char_poly(a)
    shifted = [[x + mi * mj for x, mj in zip(row, marks)] for row, mi in zip(a, marks)]
    return f - char_poly(shifted), f


@dataclass(frozen=True)
class Coronal:
    """Reduced coronal: the unreduced pair p/f divided by its primitive gcd.

    Only the primitive gcd is divided out, so the rational function's
    value is untouched and the numerator may keep an integer content,
    e.g. 2/(x-1).  f is monic, so the gcd and the denominator are monic
    too; a reduced pair is therefore canonical, and two coronals are
    equal iff their unreduced pairs satisfy p1*f2 == p2*f1.
    """

    numerator: IntPolynomial
    denominator: IntPolynomial

    def as_pair(self) -> tuple[IntPolynomial, IntPolynomial]:
        return (self.numerator, self.denominator)


def coronal(matrix, mu) -> Coronal:
    """Reduced coronal of an integer symmetric matrix with the given marks."""
    p, f = coronal_pair(matrix, mu)
    r = poly_gcd(p, f)
    return Coronal(p.exact_div(r), f.exact_div(r))


def graph_coronal(g: SignedGraph, which: str = "A") -> Coronal:
    """Coronal of a signed graph's A/L/Q matrix under canonical marking."""
    return coronal(g.matrix(which), canonical_marking(g))


# -- product characteristic polynomials --------------------------------------


def _mu_square_charpoly(g1: SignedGraph) -> IntPolynomial:
    """Char poly g of A(g1_mu)^2, from h = charpoly(|A(g1)|).

    g1_mu is balanced, so A(g1_mu) = D |A(g1)| D with D = diag(mu), and
    g(x^2) = (-1)^n1 h(x) h(-x).
    """
    h = char_poly([[abs(v) for v in row] for row in g1.adjacency()])
    h_neg = IntPolynomial(c if k % 2 == 0 else -c for k, c in enumerate(h.coefficients))
    return IntPolynomial((h * h_neg).coefficients[::2]) * (-1) ** g1.n


def _cleared_identity(
    g_sq: IntPolynomial, p: IntPolynomial, f: IntPolynomial, n1: int, r: int = 0, d: int = 0
) -> IntPolynomial:
    """sum_k g_k u^k f^(n1-k), u = (x - r)((x - r - d) f - p): the product
    identity cleared of f, whose block for an eigenvalue t of A(g1_mu) has
    char poly u - t^2 f; g_sq = charpoly(A(g1_mu)^2).  Homogeneous Horner,
    R <- R u + g_k f^(n1-k) from k = n1 down, so every product has a
    factor of degree at most deg u."""
    x = IntPolynomial.x()
    u = (x - r) * ((x - (r + d)) * f - p)
    result = IntPolynomial((g_sq.coeff(n1),))
    f_pow = IntPolynomial.one()
    for k in range(n1 - 1, -1, -1):
        f_pow = f_pow * f
        result = result * u + f_pow * g_sq.coeff(k)
    return result


def _product_char_poly(g1: SignedGraph, g2: SignedGraph, which: str) -> IntPolynomial:
    """The cleared identity for the A, L or Q matrix of g1 (*) g2.

    (p, f) is the unreduced coronal pair, under g2's canonical marking,
    of a copy's block M(g2) + sI.  A has r = d = s = 0; L and Q need g1
    regular of degree r1 and have r = r1, d = n2, s = 1, as each copy
    vertex has one more edge, to its anchor.
    """
    _check_product_order(g1, g2)
    r = d = s = 0
    if which != "A":
        r, d, s = regularity(g1).degree_regular, g2.n, 1
        if r is None:
            raise ValueError("first factor must be degree-regular for L and Q")
    block = g2.matrix(which)
    for i, row in enumerate(block):
        row[i] += s
    p, f = coronal_pair(block, canonical_marking(g2))
    return _cleared_identity(_mu_square_charpoly(g1), p, f, g1.n, r, d)


def product_char_poly_A(g1: SignedGraph, g2: SignedGraph) -> IntPolynomial:
    """Adjacency characteristic polynomial of the add-vertex corona.

    Exact and without eigenvalues, for any factors: with (p2, f2) the
    unreduced coronal pair of A(g2) and g the characteristic polynomial
    of A(g1_mu)^2, it is sum_k g_k u^k f2^(n1-k) with u = x^2 f2 - x p2,
    monic of degree n1*(n2+2), by Horner's rule.
    """
    return _product_char_poly(g1, g2, "A")


def product_char_poly_L(g1: SignedGraph, g2: SignedGraph) -> IntPolynomial:
    """Laplacian characteristic polynomial of the corona; g1 must be regular.

    The adjacency identity with the coronal pair (pL, fL) of the copy
    block L(g2) + I and u = (x - r1)((x - r1 - n2) fL - pL), r1 the
    degree of g1; an irregular g1 raises ValueError.
    """
    return _product_char_poly(g1, g2, "L")


def product_char_poly_Q(g1: SignedGraph, g2: SignedGraph) -> IntPolynomial:
    """Signless-Laplacian variant of `product_char_poly_L`, from Q(g2)'s pair."""
    return _product_char_poly(g1, g2, "Q")


# -- squarefree decomposition and exact real roots ---------------------------


def squarefree_decomposition(p: IntPolynomial) -> list[tuple[IntPolynomial, int]]:
    """Yun decomposition: pairwise-coprime squarefree factors with multiplicity.

    Content and sign are dropped; the product of factor^multiplicity is
    the primitive positive part of p.
    """
    if p.is_zero:
        raise ValueError("zero polynomial has no squarefree decomposition")
    p = p.primitive_part()
    if p.degree == 0:
        return []
    dp = p.derivative()
    a = poly_gcd(p, dp)
    b = p.exact_div(a)
    d = dp.exact_div(a) - b.derivative()
    out = []
    i = 1
    while b.degree > 0:
        a = poly_gcd(b, d)
        if a.degree > 0:
            out.append((a, i))
        b = b.exact_div(a)
        d = d.exact_div(a) - b.derivative()
        i += 1
    return out


def _variations(chain: list[IntPolynomial], m: int, k: int) -> int:
    """Sign changes along the chain at the dyadic point m / 2^k, zeros skipped."""
    signs = [v > 0 for v in (_scaled_value(p, m, k) for p in chain) if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _isolate_squarefree(q: IntPolynomial, bound: int) -> list[tuple[int, int, int]]:
    """Disjoint brackets (a/2^k, b/2^k], given as (a, b, k), each holding
    one real root of q: the Sturm fallback of `real_roots`.

    Every real root must lie strictly inside (-bound, bound), the power
    of two from `_root_bound` or a smaller cap.  With the chain's zeros
    skipped, V(a) - V(b) counts the roots in (a, b] even when an endpoint
    is a root, so no midpoint that is itself a root needs a special case.
    Each bracket carries the counts V(a) and V(b) of its ends, so the
    chain is evaluated once at each end of the window and then once per
    midpoint: the halves of (a, b] take (V(a), V(mid)) and (V(mid), V(b)).
    Every point is dyadic, so every count is read from integers.
    """
    chain = list(_remainder_sequence(q, q.derivative()))
    if chain[-1].degree > 0:
        raise ValueError("Sturm chain hit a zero remainder; input not squarefree")
    out: list[tuple[int, int, int]] = []
    stack = [(-bound, bound, 0, _variations(chain, -bound, 0), _variations(chain, bound, 0))]
    while stack:
        a, b, k, va, vb = stack.pop()
        if va - vb == 1:
            out.append((a, b, k))
        elif va > vb:
            mid, k = a + b, k + 1  # (a + b) / 2^(k + 1)
            v = _variations(chain, mid, k)
            stack += [(2 * a, mid, k, va, v), (mid, 2 * b, k, v, vb)]
    return out


def _scaled_value(q: IntPolynomial, m: int, k: int) -> int:
    """2^(kd) q(m/2^k), which has the sign of q(m/2^k); d is the degree of q."""
    acc = 0
    for j, ci in enumerate(reversed(q.coefficients)):  # homogeneous Horner
        acc = acc * m + (ci << (j * k))
    return acc


def _refine_root(q: IntPolynomial, a: int, b: int, k: int, scale: int) -> tuple[int, int]:
    """Bisect (a/2^k, b/2^k], holding one simple root of q, to width 1/scale.

    The bracket is (lo, lo + span] over 2^k; halving it doubles lo and k
    and leaves span fixed.  It keeps q's sign at its right end.  The root
    comes back as (m, j), the dyadic m/2^j: exactly if it lies at b or at
    a midpoint, else as the midpoint of the last bracket.
    """
    lo, span = a, b - a
    fb = _scaled_value(q, b, k)
    if fb == 0:
        return b, k
    while span * scale > 1 << k:
        lo, k = lo << 1, k + 1
        fm = _scaled_value(q, lo + span, k)  # the old bracket's midpoint
        if fm == 0:
            return lo + span, k
        if (fm > 0) != (fb > 0):
            lo += span
    return 2 * lo + span, k + 1


def _seeds(q: IntPolynomial) -> list[float]:
    """Real parts of q's roots from `np.roots`; none if a coefficient overflows a float."""
    try:
        return np.roots([float(c) for c in reversed(q.coefficients)]).real.tolist()
    except (OverflowError, np.linalg.LinAlgError):
        return []


# Dyadic scale k of the seed brackets, and their half-widths in units of
# 2^-k, tried in turn: about 2.3e-10, 6.0e-8 and 1.5e-5
_SEED_SCALE = 40
_SEED_HALF_WIDTHS = (1 << 8, 1 << 16, 1 << 24)


def _seeded_brackets(q: IntPolynomial, seeds) -> list[tuple[int, int, int]] | None:
    """Brackets (a/2^k, b/2^k], as (a, b, k), that certify every root of q
    real and simple, one around each float seed; None if they do not.

    Each seed is rounded to the grid 2^-k, k = `_SEED_SCALE`, and gets a
    bracket of half-width h; two brackets that overlap are both cut at
    the midpoint of their centres, so the brackets are disjoint.  If q is
    nonzero at a and q(a) q(b) <= 0 on every one, each holds a root, by
    the intermediate value theorem, so deg q disjoint brackets hold
    deg q distinct roots: all of q's, each simple, so q is squarefree.
    The signs come from integers (`_scaled_value`).  A failed check
    retries with the next half-width in `_SEED_HALF_WIDTHS`.  Too few
    seeds, a non-finite one, or two on one grid point (as the real parts
    of a complex pair are) give None at once.
    """
    k = _SEED_SCALE
    try:
        centres = sorted(round(s * (1 << k)) for s in seeds)
    except (OverflowError, ValueError):  # an infinite or NaN seed
        return None
    if len(centres) != q.degree or any(a == b for a, b in zip(centres, centres[1:])):
        return None
    for h in _SEED_HALF_WIDTHS:
        los, his = [c - h for c in centres], [c + h for c in centres]
        for i in range(len(centres) - 1):
            if his[i] > los[i + 1]:
                his[i] = los[i + 1] = (centres[i] + centres[i + 1]) >> 1
        value = {x: _scaled_value(q, x, k) for x in {*los, *his}}
        if all(value[a] and value[a] * value[b] <= 0 for a, b in zip(los, his)):
            return [(a, b, k) for a, b in zip(los, his)]
    return None


def _in_window(q: IntPolynomial, brackets, bound: int) -> list[tuple[int, int, int]]:
    """Brackets, each holding one simple root of q and no other, cut to
    (-bound, bound]; a cut bracket stays only if it still holds its root."""
    out = []
    for a, b, k in brackets:
        lo, hi = max(a, -bound << k), min(b, bound << k)
        if (lo, hi) != (a, b):
            flo = _scaled_value(q, lo, k) if lo < hi else 0
            if not flo or flo * _scaled_value(q, hi, k) > 0:
                continue
        out.append((lo, hi, k))
    return out


# Brackets are refined, exactly, to width 1/_ROOT_SCALE before rounding
_ROOT_SCALE = 10 ** 11


def real_roots(p: IntPolynomial, bound: int | None = None) -> list[float]:
    """All real roots of p with multiplicity, ascending, to within 1e-11.

    Roots are isolated exactly, refined to width 1/`_ROOT_SCALE` by
    integer dyadic bisection, and only then rounded to float.  Isolation
    first certifies brackets around float seeds from `np.roots` on p's
    primitive part q (`_seeded_brackets`); deg q certified brackets also
    prove q squarefree, so Yun does not run.  If the certificate fails,
    p is split by Yun and each factor tried the same way; a factor whose
    seeds fail too is isolated by Sturm bisection on dyadic points.
    Only roots in (-B, B] count, B the power of two from `_root_bound`,
    or int(bound) + 1 if smaller: `bound` may give a finite nonnegative
    bound on |root| to keep the Sturm window small.
    """
    cap = _bound_limit(bound)
    if p.is_zero:
        raise ValueError("zero polynomial has every number as a root")
    q = p.primitive_part()
    brackets = _seeded_brackets(q, _seeds(q))
    if brackets is not None:
        pieces = [(q, 1, brackets)]
    else:
        pieces = [(f, m, _seeded_brackets(f, _seeds(f))) for f, m in squarefree_decomposition(p)]
    roots: list[float] = []
    for f, mult, brackets in pieces:
        window = min(_root_bound(f), cap)
        if brackets is None:
            brackets = _isolate_squarefree(f, window)
        for a, b, k in _in_window(f, brackets, window):
            m, j = _refine_root(f, a, b, k, _ROOT_SCALE)
            roots.extend([m / (1 << j)] * mult)
    roots.sort()
    return roots


def _bound_limit(bound) -> int | float:
    """int(bound) + 1, or inf for None; a negative or non-finite bound raises."""
    if bound is not None and not 0 <= bound < float("inf"):
        raise ValueError(f"bound must be finite and nonnegative, got {bound!r}")
    return float("inf") if bound is None else int(bound) + 1


def _root_bound(p: IntPolynomial) -> int:
    """A power of two B with |z| < B for every complex root z of p.

    Fujiwara's bound 2 max_k |a_(d-k) / a_d|^(1/k), the last ratio halved,
    with each term rounded up to a power of two from bit lengths, as
    |a / a_d| < 2^(bitlen(a) - bitlen(a_d) + 1).  Monic p of degree d has
    |a_(d-k)| <= C(d, k) rho^k, rho its spectral radius: B < 8 d max(rho, 1).
    """
    *low, lead = p.coefficients
    d, top = len(low), abs(lead).bit_length() - 1
    # term k < 2^e_k, e_k = ceil((bitlen(a) - bitlen(lead) + 1 - [k = d]) / k)
    e = max((-((top + (k == d) - abs(a).bit_length()) // k)
             for k, a in enumerate(reversed(low), 1)), default=0)
    return 2 << max(e, 0)
