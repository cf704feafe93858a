"""Aggregation-free spatial-temporal community sensing.

Partial, noisy, locally held sensor observations are fused into a full
field estimate by decentralized masked non-negative matrix factorization
over a simulated peer-to-peer network: no raw observation or location ever
leaves a participant's device, only low-rank factor matrices travel.
Centralized baselines and an experiment sweep harness are included.
"""

from .baselines import ImputeResult, mean_fill, tsvd_impute, tsvd_impute_all
from .datagen import (CoverageSchedule, assign_coverage, assign_coverage_all,
                      generate_lowrank_field, load_field_csv, observe,
                      write_field_csv)
from .errors import (CswaError, NumericError, ParameterError, ParseError,
                     ShapeError)
from .evaluation import (AXES, METHODS, SweepRecord, SweepSpec,
                         absolute_error, comm_bound,
                         compose_params, median_errors, records_to_csv,
                         run_sweep)
from .factorization import (GradPair, gradients, init_factors, masked_loss,
                            sgd_step, solve_centralized, solve_centralized_all)
from .model import (FactorPair, Field, Hyperparams, LocalObservations,
                    build_window)
from .protocol import (ORGANIZER, AuditReport, AuditViolation, ChainMessage,
                       Continue, Finished, RunResult, aggregate_for_baseline,
                       audit_transcript, participant_step, recover,
                       run_simulation, run_simulation_all)
from .rng import substream

__version__ = "0.1.0"

__all__ = [
    "AXES", "AuditReport", "AuditViolation", "ChainMessage", "Continue",
    "CoverageSchedule", "CswaError", "FactorPair", "Field", "Finished",
    "GradPair", "Hyperparams", "ImputeResult", "LocalObservations",
    "METHODS", "NumericError", "ORGANIZER", "ParameterError", "ParseError",
    "RunResult", "ShapeError", "SweepRecord", "SweepSpec",
    "absolute_error", "aggregate_for_baseline",
    "assign_coverage", "assign_coverage_all", "audit_transcript",
    "build_window", "comm_bound", "compose_params", "generate_lowrank_field",
    "gradients", "init_factors", "load_field_csv",
    "masked_loss", "mean_fill", "median_errors", "observe",
    "participant_step", "records_to_csv", "recover", "run_simulation",
    "run_simulation_all", "run_sweep", "sgd_step", "solve_centralized",
    "solve_centralized_all", "substream",
    "tsvd_impute", "tsvd_impute_all", "write_field_csv",
]
