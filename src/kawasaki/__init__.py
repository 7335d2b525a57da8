"""Continuum Kawasaki dynamics toolkit.

Exact stochastic simulation of interacting hopping particles on a periodic
torus, correlation-function estimation, deterministic solvers for the
mean-field kinetic equation, analytic well-posedness certificates, and a
scaling harness that verifies the mean-field limit empirically.
"""

import gc

from .errors import (BoundViolation, BudgetError, ConfigError, GeometryError,
                     HorizonError, InvalidSpecError, KawasakiError,
                     NumericError, StepSizeError)
from .fields import DensityField
from .kernels import (KernelSpec, PotentialSpec, alpha, c_phi, mean_phi,
                      sample_displacement)
from .torus import Torus
from .simulator import (SimulationParams, Trajectory, map_chunks,
                        sample_poisson_positions, simulate, simulate_ensemble)
from .estimator import (CorrelationEstimate, SubPoissonReport,
                        estimate_correlations, estimate_density,
                        estimate_pair_correlation, radial_product_profile,
                        sub_poisson_report)
from .kinetic import (BoundReport, KineticTrajectory, PicardResult, kinetic_rhs,
                      monitor_bounds, picard_solve, solve_kinetic,
                      vlasov_first_order)
from .horizon import (HorizonReport, contraction_factor, existence_horizon,
                      find_T_for_q, horizon_report, op_norm_bound, t_star,
                      theta_of_t)
from .scaling import (ConvergenceReport, SweepResult, SweepSpec,
                      convergence_report, renormalize, run_sweep,
                      write_sweep_outputs)
from .gibbs import GibbsSampler, calibrate_activity

__version__ = "0.1.0"

# Importing the package leaves the collector's counters at their thresholds,
# so a run's first young-generation collection would cascade into a full
# collection of every object numpy and scipy made (17-24 ms inside the run's
# work). One full collection here, at import, resets the counters.
gc.collect()
