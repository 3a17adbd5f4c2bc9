"""Exact classification engine for low-rank spherical Fano varieties.

The package enumerates, for every spherical homogeneous space of rank at
most two and dimension at most four, the polytopes classifying its locally
factorial Fano equivariant embeddings, and computes Picard rank, Fano index,
anticanonical degree and the Kaehler-Einstein (K-stability) verdict of each.
"""

from .geometry import (
    Rat,
    RationalPolytope,
    Facet,
    convex_hull,
    facets,
    dual,
    contains,
    lattice_points,
    integrate,
    snf,
    is_lattice_basis,
    primitive,
)
from .core import (
    Color,
    DHPolynomial,
    CombinatorialData,
    Verdict,
    valuation_cone_position,
    check_reflexive,
)
from .registry import families, build, rank0_entries, symmetry_group
from .search import (
    EnumConfig,
    CanonicalPolytope,
    enumerate_rank1,
    enumerate_rank2,
    enumerate_polytopes,
    canonical_form,
    brute_force_oracle,
)
from .invariants import (
    divisor_basis,
    picard_rank,
    fano_index,
    moment_polytope,
    degree,
    dh_barycenter,
    k_verdict,
)
from .catalog import build_catalog, counts_table, verify, emit

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
