"""Desk-scale laboratory for heavy-tailed kinetic equations and their
fractional-diffusion limits."""

from .errors import (ConfigError, HeavykinError, NumericError, OutputError,
                     ValidationError)
from .model import (
    ModelParams,
    PiecewiseHeavyTailDensity,
    coercivity_constant,
    collision_frequency,
    drift,
    equilibrium_pdf,
    gamma_exponent,
    sample_equilibrium,
    sample_post_collision,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "HeavykinError",
    "NumericError",
    "OutputError",
    "ValidationError",
    "ModelParams",
    "PiecewiseHeavyTailDensity",
    "coercivity_constant",
    "collision_frequency",
    "drift",
    "equilibrium_pdf",
    "gamma_exponent",
    "sample_equilibrium",
    "sample_post_collision",
    "RunConfig",
    "default_config",
    "load_config",
    "parse_config",
    "serialize_config",
    "SpatialGrid",
    "VelocityGrid",
    "DiscreteModel",
    "DensityField",
    "PhaseField",
    "KineticRun",
    "run_kinetic_det",
    "auto_vscale",
    "ParticleEnsemble",
    "init_ensemble",
    "advance",
    "estimate_density",
    "ProbeFunction",
    "gaussian_packet",
    "static_gaussian",
    "constant_probe",
    "chi_eval",
    "hazard_weight",
    "chi_l2_diagnostics",
    "operator_limit_lhs",
    "NonlocalOperator",
    "MacroRun",
    "eta",
    "kernel_table",
    "assemble",
    "solve_macro",
    "fourier_reference",
    "nonlocal_operator_at",
    "Verdict",
    "SweepReport",
    "run_sweep",
    "check_apriori",
    "check_coercivity",
    "check_correctors",
    "mc_cross_check",
    "write_outputs",
    "read_phase_binary",
    "__version__",
]

from .config import (RunConfig, default_config, load_config, parse_config,
                     serialize_config)
from .grids import DensityField, DiscreteModel, SpatialGrid, VelocityGrid
from .kinetic_fv import KineticRun, PhaseField, auto_vscale, run_kinetic_det
from .kinetic_mc import ParticleEnsemble, advance, estimate_density, init_ensemble
from .corrector import (ProbeFunction, chi_eval, chi_l2_diagnostics,
                        constant_probe, gaussian_packet, hazard_weight,
                        operator_limit_lhs, static_gaussian)
from .nonlocal_op import (MacroRun, NonlocalOperator, assemble, eta,
                          fourier_reference, kernel_table,
                          nonlocal_operator_at, solve_macro)
from .harness import (SweepReport, Verdict, check_apriori, check_coercivity,
                      check_correctors, mc_cross_check, run_sweep)
from .outputs import read_phase_binary, write_outputs
