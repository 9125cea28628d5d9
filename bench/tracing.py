"""Span recording around the library's public functions, from outside.

`installed(tracer)` replaces every public function of the traced
modules, wherever the package holds a reference to it (the defining
module, the modules that import it, the package namespace), by a wrapper
that records a span.  The library's own calls between public functions
go through those module globals, so nested spans show where a call's
time went; private helpers are not wrapped and their time is self time
of the public function that called them.  Nothing under `src/` changes,
and the originals are restored when the context exits.

Spans are kept in memory as parallel lists and written out at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from contextlib import contextmanager
from math import comb
from time import perf_counter

LAYERS = ("cli", "core", "products", "structure", "exactpoly", "spectra")

# Per-layer metric groups that merge several public functions.
GROUPS = {
    "exactpoly.product_char_poly_A": "exactpoly.product_char_poly",
    "exactpoly.product_char_poly_L": "exactpoly.product_char_poly",
    "exactpoly.product_char_poly_Q": "exactpoly.product_char_poly",
    "spectra.spectrum": "spectra.eigensolve",
    "spectra.eig_sym": "spectra.eigensolve",
    "spectra.jacobi_eigh": "spectra.eigensolve",
    "spectra.corollary_coregular_spectrum": "spectra.corollary",
    "spectra.corollary_star_spectrum": "spectra.corollary",
}


def _coeff_bits(poly) -> int:
    return max((abs(c).bit_length() for c in poly.coefficients), default=0)


def _product_poly_counts(args, result) -> dict:
    return {"degree": result.degree, "coeff_bits": _coeff_bits(result)}


# Work counters taken at the span boundary: name -> f(args, result) -> dict.
COUNTERS = {
    "exactpoly.char_poly": lambda a, r: {"dim": len(a[0]), "coeff_bits": _coeff_bits(r)},
    "exactpoly.product_char_poly_A": _product_poly_counts,
    "exactpoly.product_char_poly_L": _product_poly_counts,
    "exactpoly.product_char_poly_Q": _product_poly_counts,
    "exactpoly.real_roots": lambda a, r: {"roots": len(r)},
    "spectra.spectrum": lambda a, r: {"dim": a[0].n},
    "spectra.eig_sym": lambda a, r: {"dim": len(a[0])},
    "spectra.jacobi_eigh": lambda a, r: {"dim": len(a[0])},
    "spectra.equienergetic_search": lambda a, r: {"pairs_found": len(r)},
    "products.add_vertex_corona": lambda a, r: {"vertices": r[0].n, "edges": r[0].m},
    "structure.enumerate_triads": lambda a, r: {"triples": comb(a[0].n, 3)},
    "cli.parse_graph": lambda a, r: {"bytes": len(a[0])},
    "cli.write_graph": lambda a, r: {"bytes": len(r)},
}


class Tracer:
    """In-memory span store for one single-threaded benchmark process."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.counts: list[dict | None] = []
        self.op_id = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self.op_id)
            self.counts.append(None)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()
            if counter is not None:
                self.counts[idx] = counter(args, result)
            return result

        return traced

    def spans(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "op": o, "counts": c}
            for n, s, e, p, o, c in zip(
                self.names, self.start, self.end, self.parent, self.op, self.counts
            )
        ]


@contextmanager
def installed(tracer: Tracer):
    """Route every public function of the traced layers through the tracer."""
    modules = [importlib.import_module("sgcorona")]
    modules += [importlib.import_module(f"sgcorona.{layer}") for layer in LAYERS]
    wrappers: dict[int, object] = {}
    for mod in modules[1:]:
        layer = mod.__name__.rsplit(".", 1)[1]
        for name, fn in vars(mod).items():
            if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                    and not name.startswith("_")):
                wrappers[id(fn)] = tracer.wrap(f"{layer}.{name}", fn)
    replaced = []
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                replaced.append((mod, attr, value))
                setattr(mod, attr, wrapper)
    try:
        yield tracer
    finally:
        for mod, attr, value in replaced:
            setattr(mod, attr, value)


def aggregate(tracer: Tracer) -> dict[str, float]:
    """Per-group busy time, self time, calls and summed work counters.

    busy_s and calls count only a group's outermost spans (a span with
    no ancestor in the same group), so spectrum -> eig_sym -> jacobi_eigh
    is one eigensolve call.  self_s is each span's duration minus its
    children's, summed over every span of the group, so self times of
    all groups add up to the traced time without double counting.
    """
    n = len(tracer.names)
    groups = [GROUPS.get(name, name) for name in tracer.names]
    child_time = [0.0] * n
    for i in range(n):
        p = tracer.parent[i]
        if p >= 0:
            child_time[p] += tracer.end[i] - tracer.start[i]
    out: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0.0) + value

    for i in range(n):
        g = groups[i]
        dur = tracer.end[i] - tracer.start[i]
        add(f"{g}.self_s", dur - child_time[i])
        p = tracer.parent[i]
        while p >= 0 and groups[p] != g:
            p = tracer.parent[p]
        if p >= 0:
            continue
        add(f"{g}.busy_s", dur)
        add(f"{g}.calls", 1)
        for key, value in (tracer.counts[i] or {}).items():
            add(f"{g}.{key}_sum", value)
            out[f"{g}.{key}_max"] = max(out.get(f"{g}.{key}_max", 0), value)
    return out


def top_level_time(tracer: Tracer) -> dict[int, float]:
    """Per operation, the wall time covered by spans with no parent."""
    covered: dict[int, float] = {}
    for i in range(len(tracer.names)):
        if tracer.parent[i] < 0:
            o = tracer.op[i]
            covered[o] = covered.get(o, 0.0) + tracer.end[i] - tracer.start[i]
    return covered
