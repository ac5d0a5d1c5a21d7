"""Dynamical transfer-matrix scattering for finite-range complex potentials.

Core objects: :class:`~scatter1d.potential.PotentialSpec` describes the
truncated exponential slab, :func:`~scatter1d.potential.wave_context`
derives the per-wavenumber parameters, and the amplitude engines are
:func:`~scatter1d.analytic.amplitudes_analytic` (closed Bessel forms) and
:func:`~scatter1d.transfer.transfer_matrix` (direct evolution, works for
any finite-range potential through :class:`~scatter1d.transfer.SampledPotential`).
"""

import logging as _logging

__version__ = "0.1.0"

# Library logging stays silent unless the application configures it.
_logging.getLogger(__name__).addHandler(_logging.NullHandler())

from .analytic import (amplitudes_analytic, amplitudes_perturbative,
                       boundary_values, invisibility_quality)
from .bessel import (IdentityResiduals, bessel_j, bessel_j_derivative,
                     identity_residuals, imaginary_zeros, in_hurwitz_band,
                     real_zeros)
from .errors import (AccuracyError, ConvergenceError,
                     DegenerateDenominatorError, DomainError, NearZeroError,
                     NoSolutionError, Scatter1dError, SpectralSingularityError)
from .invisibility import (DesignPoint, InvisibilityVerdict, Mechanism,
                           SweepData, VerdictKind, classify,
                           design_unidirectional, fig1_design_point,
                           fig1_design_wavelength_nm, fig1_sweep,
                           wavelength_sweep)
from .potential import (PermittivityProfile, PotentialSpec, WaveContext,
                        evaluate_potential, from_permittivity, mu_factor,
                        permittivity, snap_gamma, wave_context)
from .shooting import shooting_amplitudes
from .singularity import (SingularitySolution, scan_singularities,
                          seed_integer_gamma, solve_general,
                          solve_half_integer, solve_integer_gamma,
                          table1_rows, validate_root_ode)
from .transfer import (SampledPotential, ScatteringAmplitudes, TransferMatrix,
                       amplitudes_from_matrix, left_reflection_integral,
                       left_reflection_via_conjugate, matrix_from_amplitudes,
                       s_boundary, transfer_matrix)

__all__ = [name for name in dir() if not name.startswith("_")]
