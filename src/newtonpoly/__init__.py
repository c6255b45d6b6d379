"""Newton polytopes of hypersurfaces from evaluation or witness-set oracles."""

from .numbers import GaussianRational
from .polytope import LatticePolytope, convex_hull, dilate, lattice_points, support_function
from .slp import SparsePolynomial, Slp, parse_slp, parse_sparse, sparse_to_slp

__all__ = [
    "GaussianRational",
    "LatticePolytope",
    "convex_hull",
    "dilate",
    "lattice_points",
    "support_function",
    "SparsePolynomial",
    "Slp",
    "parse_slp",
    "parse_sparse",
    "sparse_to_slp",
]

__version__ = "0.1.0"
