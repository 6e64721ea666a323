"""Exact enumerative combinatorics of structures on F_q-vector spaces.

Species of structures over a finite field, their generating series, type
generating series, and cycle index series, with an exhaustive enumeration
oracle for verification at small q and n.
"""

from .field import FieldSpec, field_make
from .poly import Poly, is_irreducible, irreducible_count, monic_irreducibles
from .linalg import (InvariantData, Matrix, Subspace, companion_matrix,
                     enumerate_decompositions, enumerate_matrices,
                     enumerate_subspaces, gl_order, invariant_data, qbinomial)
from .classes import ConjClass, centralizer_order, enumerate_classes
from .series import POLY_T, RATIONAL, PowerSeries, TPoly, euler_product
from .cycleindex import CycleIndexSeries, z_build
from .species import (Assembly, Builtin, Mark, Plus, Power, Product, SpeciesExpr,
                      Sum, cycle_index, gen_series, type_series, weighted_gen_series)
from .parser import parse, render

__all__ = [
    "FieldSpec", "field_make",
    "Poly", "is_irreducible", "irreducible_count", "monic_irreducibles",
    "InvariantData", "Matrix", "Subspace", "companion_matrix",
    "enumerate_decompositions", "enumerate_matrices", "enumerate_subspaces",
    "gl_order", "invariant_data", "qbinomial",
    "ConjClass", "centralizer_order", "enumerate_classes",
    "POLY_T", "RATIONAL", "PowerSeries", "TPoly", "euler_product",
    "CycleIndexSeries", "z_build",
    "Assembly", "Builtin", "Mark", "Plus", "Power", "Product", "SpeciesExpr",
    "Sum", "cycle_index", "gen_series", "type_series", "weighted_gen_series",
    "parse", "render",
]

__version__ = "0.1.0"
