"""Exact distances, diameters, and diameter bounds for circulant graphs C_n(1, s).

Distances are pure arithmetic and never touch an explicit graph: single
queries scan a small set of canonical path classes, bulk ranges use a
lattice kernel.  An independent breadth-first-search oracle provides
ground truth for testing.  Closed-form
diameter values and constructed peripheral vertices are available for the
parameter regimes that admit them.

Importing the package does not import numpy: the first call of the bulk
kernel (distance_range, and through it diameter_exact and
eccentricity_profile) loads it, so scalar queries, bounds, closed forms and
the oracle start without paying for it.
"""
from .bounds import bounds_report
from .diameter import diameter_exact, eccentricity_profile
from .distance import distance, distance_from_zero, distance_range
from .formulas import diameter_formula, formula_witness
from .oracle import bfs_distances, build_adjacency, oracle_diameter
from .params import CirculantParams, OutOfRangeError, VertexOutOfRangeError
from .paths import Family, WalkSpec, canonical_classes, realize_path, reduce_walk

__version__ = "0.1.0"

__all__ = [
    "CirculantParams",
    "Family",
    "OutOfRangeError",
    "VertexOutOfRangeError",
    "WalkSpec",
    "bfs_distances",
    "bounds_report",
    "build_adjacency",
    "canonical_classes",
    "diameter_exact",
    "diameter_formula",
    "distance",
    "distance_from_zero",
    "distance_range",
    "eccentricity_profile",
    "formula_witness",
    "oracle_diameter",
    "realize_path",
    "reduce_walk",
]
