"""Thermodynamics and superstatistics of a harmonic oscillator with
position-dependent mass, with every typeset closed form audited against
independent numerical oracles."""

from types import ModuleType as _Module

from .errors import NonConvergence, NonDecaying, PdmoscError, SingularLimit
from .numerics import (QuadratureResult, Tolerance, erf, erfc, erfcx, erfcx_derivatives,
                       exp_neg_product, integrate_batch)
from .spectrum import OscillatorParams, SpectrumCoefficients, coefficients
from .thermo import (B_MIN, ThermoPoint, heat_capacity_closed, log_partition_closed,
                     mean_energy_closed, entropy_closed, partition_closed,
                     thermo_closed_point, thermo_quadrature, thermo_sum_engine)
from .superstat import (SuperstatPoint, boltzmann_factor_q, entropy_superstat_closed,
                        heat_capacity_superstat_closed, log_superstat_partition_closed,
                        mean_energy_superstat_closed, superstat_closed_point,
                        superstat_partition_closed, superstat_quadrature, superstat_thermo)

__version__ = "0.1.0"

#: the public functions, records and constants; not the submodules that importing binds
__all__ = [name for name in dir()
           if not name.startswith("_") and not isinstance(globals()[name], _Module)]
