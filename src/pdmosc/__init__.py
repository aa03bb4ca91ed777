"""Thermodynamics and superstatistics of a harmonic oscillator with
position-dependent mass, with every typeset closed form audited against
independent numerical oracles."""

from .errors import (DomainEdge, NonConvergence, NonDecaying, PdmoscError, SingularLimit,
                     Underflow)
from .numerics import (QuadratureResult, Tolerance, derivative, erf, erfc, erfcx,
                       integrate_finite, integrate_semi_infinite,
                       integrate_semi_infinite_batch, richardson, stencil, sum_decaying)
from .spectrum import OscillatorParams, SpectrumCoefficients, coefficients, energy_level
from .thermo import (B_MIN, Beta, ThermoPoint, energy_moments, free_energy_closed,
                     heat_capacity_closed, log_partition, log_partition_closed,
                     mean_energy_closed, entropy_closed, partition_closed,
                     partition_quadrature, partition_sum, thermo_closed_point,
                     thermo_from_logZ)
from .superstat import (DeformationQ, SuperstatPoint, boltzmann_factor_q,
                        entropy_superstat_closed, free_energy_superstat_closed,
                        heat_capacity_superstat_closed,
                        log_superstat_partition_closed, mean_energy_superstat_closed,
                        superstat_partition_closed, superstat_partition_quadrature,
                        superstat_thermo)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
