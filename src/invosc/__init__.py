"""Driven inverted harmonic oscillator: exact quantum evolution, quasistatic
barrier transmission, and the open-system (heat-bath) response machinery,
each cross-checked against independent numerical oracles.

The exports below are resolved on first use (PEP 562), so ``import invosc``
loads no submodule and a program pays only for the modules it touches.
"""

import importlib

# submodule -> the names it exports from the package
_EXPORTS = {
    "barrier_transmission": (
        "TunnelingParams", "asymptotic_prefactor", "averaged_transmission",
        "averaged_transmission_asymptotic", "barrier_potential",
        "transmission_exact", "transmission_jwkb"),
    "classical_dynamics": ("TrajectoryPoint", "lagrangian_action", "trajectory"),
    "closed_evolution": (
        "EvolvedGaussian", "PropagatorValue", "action_S", "delta_kick_at",
        "evaluate", "evolve_gaussian", "propagator"),
    "core": (
        "ConstantForce", "ForceProfile", "GaussianPacket", "HarmonicForce",
        "SystemParams", "TabulatedForce", "ZeroForce", "evaluate_initial",
        "force_at"),
    "numerics": (
        "GridState", "QuadratureError", "QuadratureResult", "bessel_k_quarter",
        "expm", "expm_gramian", "grid_from_packet", "integrate_adaptive",
        "integrate_exp_sinh", "integrate_fourier", "integrate_tanh_sinh",
        "integrate_trapezoid", "langevin_ode_oracle",
        "scaled_bessel_k_quarter", "schrodinger_grid_evolve", "solve_cubic"),
    "open_system": (
        "CLASSICAL", "OCCUPATION", "SYMMETRIZED", "BathParams", "CubicCoefficients",
        "DegeneratePolesError", "InitialMoments", "PoleDecomposition", "RootClass",
        "bath_spectral_density", "characteristic_coefficients",
        "discriminant_boundary", "drude_kernel", "green_pair", "mean_trajectory",
        "noise_spectrum", "open_evolution", "solve_poles", "spectral_noise_term",
        "symmetrized_correlation", "variance_noise_term", "windowed_transform"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name):
    """An export, read from its submodule on every access (so that it is
    always the submodule's current binding), or a submodule not yet loaded."""
    module = _SOURCE.get(name, name if name in _EXPORTS else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = importlib.import_module(f"{__name__}.{module}")
    return loaded if module == name else getattr(loaded, name)


def __dir__():
    return sorted({*globals(), *__all__})
