"""Exact strict-convexity testing for polygons.

A polygon here is any finite ordered sequence of points (repeats allowed);
edges include the closing segment back to the first vertex.  The package
provides a linear-time strict-convexity decision with per-condition evidence,
two independent brute-force oracles to check it against (a quadratic
sidedness sweep and a cubic hull comparison), generators for strictly convex
polygons and for minimal counterexamples (quasi-strict polygons violating
exactly one decision condition), and a small CLI.

All arithmetic is exact rational; there are no tolerances anywhere.
"""

from .fast_test import (ConditionId, ConvexityReport, InvalidConditionId,
                        SignTable, condition_value, is_strictly_convex,
                        is_strictly_convex_chain)
from .generator import (DEFAULT_SEED_TRIANGLE, make_minimality_witness,
                        make_strictly_convex, parabola_polygon,
                        random_polygon)
from .geometry import Point, Scalar, delta, delta_evaluations
from .oracles import (TooFewVertices, convex_hull, hull_oracle,
                      is_quasi_strict, is_strict, matches_hull_order,
                      strictly_convex_oracle)
from .polyfile import (PolygonParseError, format_polygon, parse_polygon,
                       read_polygon_file, write_polygon_file)

__version__ = "0.1.0"

__all__ = [
    "ConditionId", "ConvexityReport", "DEFAULT_SEED_TRIANGLE",
    "InvalidConditionId", "Point", "PolygonParseError", "Scalar", "SignTable",
    "TooFewVertices", "condition_value", "convex_hull", "delta",
    "delta_evaluations", "format_polygon", "hull_oracle",
    "is_quasi_strict", "is_strict", "is_strictly_convex",
    "is_strictly_convex_chain", "make_minimality_witness",
    "make_strictly_convex", "matches_hull_order", "parabola_polygon",
    "parse_polygon", "random_polygon", "read_polygon_file",
    "strictly_convex_oracle", "write_polygon_file",
]
