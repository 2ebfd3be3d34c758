"""Exact-likelihood estimation for SDEs with a random drift multiplier.

Subjects follow dX = phi b(X) dt + sigma(X) dW with phi ~ N(mu, omega2)
drawn once per subject. The likelihood of theta = (mu, omega2) given a
path depends on the data only through two stochastic integrals (U, V),
and this package simulates such ensembles, computes (U, V), evaluates the
closed-form likelihood, maximizes it over a compact rectangle, and runs
the Monte Carlo experiments that exercise the estimator's limit theory.
"""

from .asymptotics import (
    ConvergenceTable,
    ExperimentReport,
    McEstimate,
    averaged_limits,
    fisher_info_mc,
    kl_mc,
    run_consistency_experiment,
    run_moment_continuity_probe,
    run_noniid_experiment,
    run_normality_experiment,
)
from .errors import (
    ConfigError,
    ExperimentFailed,
    IngestError,
    InvalidStats,
    SdeRemleError,
    SimulationDiverged,
)
from .estimator import MleFit, fit_mle
from .io import read_paths_csv, write_stats_csv
from .models import (
    Design,
    DesignFamily,
    ModelSpec,
    ParamSpace,
    Theta,
    builtin_model,
)
from .simulate import Path, simulate_ensemble, time_grid
from .stats import stats_list

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ConvergenceTable",
    "Design",
    "DesignFamily",
    "ExperimentFailed",
    "ExperimentReport",
    "IngestError",
    "InvalidStats",
    "McEstimate",
    "MleFit",
    "ModelSpec",
    "ParamSpace",
    "Path",
    "SdeRemleError",
    "SimulationDiverged",
    "Theta",
    "averaged_limits",
    "builtin_model",
    "fisher_info_mc",
    "fit_mle",
    "kl_mc",
    "read_paths_csv",
    "run_consistency_experiment",
    "run_moment_continuity_probe",
    "run_noniid_experiment",
    "run_normality_experiment",
    "simulate_ensemble",
    "stats_list",
    "time_grid",
    "write_stats_csv",
]
