"""Three-tangle of three-qubit states: closed forms for the GHZ/W/flipped-W
mixture family, an independent convex-roof decomposition search, and qutrit
Bloch-space zero-tangle membership tests."""

import importlib

# the module that defines each export; a name is imported on first use
# (PEP 562), so `import tritangle` loads no numpy
_EXPORTS = {
    "analytic": (
        "CkwAudit",
        "PiecewiseTangle",
        "Region",
        "Thresholds",
        "alpha_I",
        "alpha_I_dd",
        "alpha_II",
        "ckw_audit",
        "concurrence_sum_sq",
        "mixed_three_tangle",
        "one_tangle_min",
        "p_c",
        "solve_p0",
        "solve_p1",
        "solve_p_star",
        "thresholds",
    ),
    "bloch": (
        "GELL_MANN",
        "bloch_vector",
        "in_zero_polyhedron",
        "qutrit_from_bloch",
        "qutrit_project",
        "vertex_states",
        "zero_tangle_vertices",
    ),
    "errors": (
        "BadDimensionError",
        "BadParamsError",
        "EmptyInputError",
        "NotIsometryError",
        "OutOfSpanError",
        "ZeroVectorError",
    ),
    "family": (
        "SYMMETRIC_PHASES",
        "ghz",
        "ghz_minus",
        "optimal_decomposition",
        "pi_state",
        "rho",
        "symmetric_ensemble",
        "w",
        "w_tilde",
        "z_state",
        "z_tangle_closed",
    ),
    "measures": (
        "ckw_residual",
        "concurrence",
        "ensemble_average_tangle",
        "one_tangle_pure",
        "tangle_from_amps",
        "three_tangle_pure",
    ),
    "roof": (
        "CharCurve",
        "DecompositionSearchResult",
        "LowerEnvelope",
        "characteristic_curve",
        "hjw_ensemble",
        "lower_convex_envelope",
        "min_avg_tangle",
        "rank_of",
    ),
    "states": (
        "DensityMatrix",
        "Ensemble",
        "PureState3",
        "density_from_ensemble",
        "eigh_desc",
        "load_density_matrix",
        "partial_trace",
        "partial_trace_pair",
        "pure_from_amplitudes",
        "save_density_matrix",
        "trace_distance",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [name for names in _EXPORTS.values() for name in names]

__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
