"""Deterministic federated-learning simulator and verification lab.

The package namespace holds only the version; import from the submodules
(fedsim.engine, fedsim.params, fedsim.models, ...).
"""

__version__ = "0.1.0"
