"""Dynamics with choice: attractors for discrete-time systems with N maps.

Each step applies one of N evolution maps, selected by a symbol of a
one-sided infinite strategy string.  The package computes global compact
attractors of the associated set dynamics, per-strategy (individual)
attractors, and attractor slices when strategies are restricted to a sofic
subshift, with example systems and diagnostics for the headline phenomena
(including the strict inclusion of the union of individual attractors in
the global attractor).
"""

from .setdyn import (
    AssumptionViolation,
    AttractorReport,
    ModelSpec,
    PointCloud,
    chaos_game,
    compute_K,
    directed_distance,
    hausdorff,
    hutchinson_step,
    individual_attractor,
)
from .sofic import SoficPresentation, builtin, start_vertices
from .symbolic import UPString, Word, d_sigma, d_sigma_exponent, enumerate_words, parse_strategy, shift
from .restricted import (
    SliceReport,
    VertexFamily,
    enumerate_slices,
    save_slice_report,
    verify_decomposition,
    vertex_limits,
)
from . import models

__version__ = "0.1.0"

__all__ = [
    "AssumptionViolation",
    "AttractorReport",
    "ModelSpec",
    "PointCloud",
    "SliceReport",
    "SoficPresentation",
    "UPString",
    "VertexFamily",
    "Word",
    "builtin",
    "chaos_game",
    "compute_K",
    "d_sigma",
    "d_sigma_exponent",
    "directed_distance",
    "enumerate_slices",
    "enumerate_words",
    "hausdorff",
    "hutchinson_step",
    "individual_attractor",
    "models",
    "parse_strategy",
    "save_slice_report",
    "shift",
    "start_vertices",
    "verify_decomposition",
    "vertex_limits",
]
