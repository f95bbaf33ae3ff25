"""Exact strict-convexity testing for polygons.

A polygon here is any finite ordered sequence of points (repeats allowed);
edges include the closing segment back to the first vertex.  The package
provides a linear-time strict-convexity decision with per-condition evidence,
two independent quadratic brute-force oracles to check it against, generators
for strictly convex polygons and for minimal counterexamples (quasi-strict
polygons violating exactly one decision condition), and a small CLI.

All arithmetic is exact rational; there are no tolerances anywhere.
"""

from .errors import (ExhaustedEpsilonBudget, IndexOutOfRange, InvalidConditionId,
                     NotQuasiStrictInput, TooFewVertices)
from .fast_test import (ConditionId, ConvexityReport, SignTable,
                        condition_value, is_strictly_convex,
                        is_strictly_convex_chain, sign_table)
from .generator import (Arc, ArcChoice, DEFAULT_SEED_TRIANGLE, arc_extension,
                        extend, make_minimality_witness, make_strictly_convex,
                        parabola_polygon, random_polygon)
from .geometry import (NEG, POS, ZERO, AffineMap, Point, Polygon, Scalar,
                       delta, delta_evaluations, sign_of)
from .oracles import (convex_hull, hull_oracle, matches_hull_order,
                      remove_vertex, strictly_convex_oracle)
from .polyfile import (PolygonParseError, format_polygon, parse_polygon,
                       read_polygon_file, write_polygon_file)
from .predicates import (SidednessResult, is_quasi_strict, is_strict,
                         strictly_one_side)

__version__ = "0.1.0"

__all__ = [
    "AffineMap", "Arc", "ArcChoice", "ConditionId", "ConvexityReport",
    "DEFAULT_SEED_TRIANGLE", "ExhaustedEpsilonBudget", "IndexOutOfRange",
    "InvalidConditionId", "NEG", "NotQuasiStrictInput", "POS", "Point",
    "Polygon", "PolygonParseError", "Scalar", "SidednessResult", "SignTable",
    "TooFewVertices", "ZERO", "arc_extension", "condition_value",
    "convex_hull", "delta", "delta_evaluations", "extend", "format_polygon",
    "hull_oracle", "is_quasi_strict", "is_strict", "is_strictly_convex",
    "is_strictly_convex_chain", "make_minimality_witness",
    "make_strictly_convex", "matches_hull_order", "parabola_polygon",
    "parse_polygon", "random_polygon", "read_polygon_file", "remove_vertex",
    "sign_of", "sign_table", "strictly_convex_oracle", "strictly_one_side",
    "write_polygon_file",
]
