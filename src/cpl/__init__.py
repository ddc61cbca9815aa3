"""Toolkit for CPL, a small declarative language that describes cognitive
processes as triple-entity rules inside named scenes.

The pipeline: parse a scene script, validate it against the derivation
algebra and cross-rule consistency, then derive the downstream structures:
the co-occurrence frequency grid with its clustering, the nested concept
forest with uni-directional links and process cycles, the ensemble-backed
process hierarchy, and memory-vote predictions.  Each stage lives in its own
submodule; import the entry points from there.
"""

__version__ = "0.1.0"
