"""Toolkit for CPL, a small declarative language that describes cognitive
processes as triple-entity rules inside named scenes.

The pipeline: parse a scene script, validate it against the derivation
algebra and cross-rule consistency, then derive the downstream structures:
the co-occurrence frequency grid with its clustering, the nested concept
forest with uni-directional links and process cycles, the ensemble-backed
process hierarchy, and memory-vote predictions.  The package exports the
pipeline's entry points; everything else lives in its submodule.
"""

from .check import check_all
from .forest import build_forest, extract_cycles, nested_notation
from .grid import cluster_scene
from .hierarchy import build_ensemble, build_hierarchy
from .parser import parse_scene

__version__ = "0.1.0"

__all__ = [
    "build_ensemble",
    "build_forest",
    "build_hierarchy",
    "check_all",
    "cluster_scene",
    "extract_cycles",
    "nested_notation",
    "parse_scene",
    "__version__",
]
