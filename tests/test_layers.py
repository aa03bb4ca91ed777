"""The package's import layers: numerics <- spectrum <- _moments <- {thermo,
superstat} <- routes.  What both families use lives in ``_moments``, so no
module imports a private name of thermo or superstat, and superstat does not
import thermo at all."""

import ast
from pathlib import Path
from types import ModuleType

import pdmosc
from pdmosc import thermo

SRC = Path(__file__).resolve().parents[1] / "src" / "pdmosc"

#: pdmosc.__all__: every public function, record and constant, no submodule
PUBLIC = (
    "B_MIN", "NonConvergence", "NonDecaying", "OscillatorParams", "PdmoscError",
    "QuadratureResult", "SingularLimit", "SpectrumCoefficients", "SuperstatPoint", "ThermoPoint",
    "Tolerance", "boltzmann_factor_q", "coefficients", "entropy_closed",
    "entropy_superstat_closed", "erf", "erfc", "erfcx", "erfcx_derivatives",
    "exp_neg_product", "heat_capacity_closed", "heat_capacity_superstat_closed",
    "integrate_batch", "log_partition_closed", "log_superstat_partition_closed",
    "mean_energy_closed", "mean_energy_superstat_closed", "partition_closed",
    "superstat_closed_point", "superstat_partition_closed",
    "superstat_quadrature", "superstat_thermo", "thermo_closed_point",
    "thermo_quadrature", "thermo_sum_engine")


def _relative_imports(path: Path) -> list[tuple[str, str]]:
    """(module, name) for each name of every ``from .module import name``
    in path; ``from . import module`` gives (module, module)."""
    tree = ast.parse(path.read_text())
    return [(node.module or alias.name, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names]


def test_no_module_imports_a_private_name_of_either_family():
    found = [(path.name, module, name) for path in sorted(SRC.glob("*.py"))
             for module, name in _relative_imports(path)
             if module in ("thermo", "superstat") and name.startswith("_")]
    assert found == []


def test_superstat_does_not_import_thermo():
    assert "thermo" not in {module for module, _ in _relative_imports(SRC / "superstat.py")}


def test_public_names_and_constants_are_unchanged():
    assert sorted(pdmosc.__all__) == sorted(PUBLIC)
    assert thermo.B_MIN == 1e-8 and pdmosc.B_MIN is thermo.B_MIN
    assert thermo.TRANSCRIPTIONS == ("verbatim", "corrected")


def test_no_public_name_is_a_module():
    # importing the package binds its submodules; a star import does not
    assert [name for name in pdmosc.__all__ if isinstance(getattr(pdmosc, name), ModuleType)] == []
    namespace = {}
    exec("from pdmosc import *", namespace)
    assert "thermo" not in namespace and "numerics" not in namespace
