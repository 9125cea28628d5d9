"""Signed graphs, duplication corona products, and their exact spectra."""

from .core import (
    MAX_EDGES,
    MAX_VERTICES,
    BalanceResult,
    Marking,
    RegularityReport,
    SignedGraph,
    balance,
    canonical_marking,
    complete_graph,
    cycle_graph,
    empty_graph,
    is_balanced,
    mu_signed_graph,
    path_graph,
    regularity,
    relabel,
    star_graph,
    switch,
)
from .exactpoly import (
    Coronal,
    IntPolynomial,
    char_poly,
    coronal,
    coronal_pair,
    graph_coronal,
    poly_gcd,
    product_char_poly_A,
    product_char_poly_L,
    product_char_poly_Q,
    real_roots,
    squarefree_decomposition,
)
from .products import (
    ProductLayout,
    SwitchingIsoWitness,
    add_vertex_corona,
    duplication,
    switching_iso_witness,
    vertex_corona,
)
from .spectra import (
    EnergyReport,
    EquienergeticReport,
    IntegralityResult,
    PreconditionError,
    Spectrum,
    corollary_coregular_spectrum,
    corollary_star_spectrum,
    cospectral,
    eig_sym,
    energy,
    equienergetic_product_pair,
    equienergetic_search,
    integrality,
    jacobi_eigh,
    product_spectrum,
    spectrum,
)
from .structure import (
    EdgeStats,
    TriadStats,
    count_signs,
    edge_stats_formula,
    enumerate_triads,
    triad_stats_formula,
    unbalance_criteria,
)

__version__ = "0.1.0"
