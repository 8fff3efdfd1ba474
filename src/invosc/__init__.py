"""Driven inverted harmonic oscillator: exact quantum evolution, quasistatic
barrier transmission, and the open-system (heat-bath) response machinery,
each cross-checked against independent numerical oracles."""

from .barrier_transmission import (TunnelingParams, asymptotic_prefactor,
                                   averaged_transmission,
                                   averaged_transmission_asymptotic,
                                   barrier_potential, transmission_exact,
                                   transmission_jwkb)
from .classical_dynamics import TrajectoryPoint, lagrangian_action, trajectory
from .closed_evolution import (EvolvedGaussian, PropagatorValue, action_S,
                               delta_kick_at, evaluate, evolve_gaussian,
                               propagator)
from .core import (ConstantForce, ForceProfile, GaussianPacket, HarmonicForce,
                   SystemParams, TabulatedForce, ZeroForce, evaluate_initial,
                   force_at)
from .numerics import (GridState, QuadratureError, QuadratureResult,
                       bessel_k_quarter, expm, expm_gramian, grid_from_packet,
                       integrate_adaptive, integrate_halfline,
                       integrate_trapezoid, langevin_ode_oracle,
                       scaled_bessel_k_quarter,
                       schrodinger_grid_evolve, solve_cubic)
from .open_system import (CLASSICAL, OCCUPATION, SYMMETRIZED, BathParams,
                          CubicCoefficients, DegeneratePolesError,
                          InitialMoments, PoleDecomposition, RootClass,
                          bath_spectral_density, characteristic_coefficients,
                          discriminant_boundary, drude_kernel, green_pair,
                          mean_trajectory, noise_spectrum, solve_poles,
                          spectral_noise_term, symmetrized_correlation,
                          variance_noise_term, variance_parts,
                          windowed_transform)

__version__ = "0.1.0"
