"""Numerics and verification harness for BC_n elliptic Selberg integral identities."""

from .errors import (
    ConfigurationError,
    DegenerateParameterError,
    DomainError,
    EllSelbergError,
    NonConvergenceError,
    PoleProximityError,
    SampleRejectionError,
    TruncationError,
)
from .qseries import (
    Nomes,
    elliptic_gamma,
    elliptic_gamma_recip,
    qpoch_inf,
    theta,
    theta_pm,
)
from .invariants import (
    BalancingMode,
    ParameterSet,
    boundary_expectation_ratio,
    coefficient_c,
    fundamental_invariant,
)
from .integrand import c_constant, j_closed, psi, psi_tilde
from .quadrature import (
    QuadratureGrid,
    QuadResult,
    default_budget,
    nabla_quad,
    torus_integrate,
)
from .residues import (
    cn_recurrence_check,
    continued_integral_n1,
    lim_pinch_J,
)
from .sampling import SafeBox, SampleStats, sample_da_parameters, sample_parameters
from .report import ScenarioReport, relative_error, write_report
from .config import Config, load_config, parse_config
from .scenarios import (
    SCENARIO_NAMES,
    make_continued,
    make_pinched,
    run_suite,
    scenario_dixon_anderson,
    scenario_eval_formula,
    scenario_nabla,
    scenario_pinch,
    scenario_qde,
    scenario_recurrence,
    scenario_recurrence_telescope,
)

__version__ = "0.1.0"
