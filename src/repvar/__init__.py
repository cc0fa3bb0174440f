"""Constrained unitary representation varieties at desk scale.

Representations of finitely presented groups into U(N) with peripheral
conjugacy-class constraints: constraint solving, relative first cohomology,
cup-product obstructions, and order-by-order jet lifting over truncated
polynomial rings.

``import repvar`` loads no submodule: each name below is looked up in its
defining submodule, imported on first use (PEP 562), so a caller that needs
only the parser never imports numpy.
"""

import importlib

_EXPORTS = {  # defining submodule -> exported names
    "presentation": (
        "ConjugacyClassSpec", "ParseError", "Presentation", "Word", "normalize_word",
        "parse_presentation", "serialize_presentation",
    ),
    "unitary": (
        "BranchCutError", "adjoint_action", "class_of", "class_residual", "diagonal_model",
        "exponential", "haar_sample", "inner_product", "principal_log",
    ),
    "repspace": (
        "IllConditionedError", "NoConvergenceError", "NotFoundError", "Representation",
        "Residuals", "commutant_dimension", "conjugate", "constraint_residual",
        "evaluate_word", "find_representation", "refine", "rep_from_json", "rep_to_json",
    ),
    "cohomology": (
        "Cochain1", "Cochain2", "CohomologyBasis", "ConeComplex", "Dims", "NotACocycleError",
        "ObstructionClass", "PairingTensor", "assemble_complex", "coboundary",
        "cocycle_transport", "h1_basis", "h_dims", "obstruction", "pairing_tensor",
    ),
    "jets": (
        "ConeProbeReport", "JetRepresentation", "LiftOptions", "LiftReport",
        "gauge_transform", "jet_word", "lift", "probe_cone",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_SOURCE)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # read, never stored here: a copy in this namespace would keep the value
    # it had at first use after the defining module rebinds the name
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
