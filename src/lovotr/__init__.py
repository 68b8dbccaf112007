"""Derivative-free trust-region minimization of the pointwise minimum of
several black-box functions (low order-value optimization) over a box.

The top-level names are what a caller needs to state a problem, solve it,
generate the shipped test sets and run a benchmark campaign, together with
what ``solve`` and ``run_campaign`` hand back: results, the evaluation
ledger, per-iteration outcomes, traces and the errors a run can raise.  The
layers underneath stay importable from their modules:

* :mod:`lovotr.problem` -- problem containers, metered oracles, JSON files;
* :mod:`lovotr.model` -- the linear interpolation model over n+1 points;
* :mod:`lovotr.subproblem` -- trust-region and geometry steps on box-and-ball;
* :mod:`lovotr.solver` -- the iteration loop, configuration and results;
* :mod:`lovotr.testsets` -- QD / HS-combo / least-squares-block generators;
* :mod:`lovotr.bench` -- budgeted campaigns, data profiles, CSV/SVG output.
"""

from .bench import (
    DataProfile,
    RunTrace,
    data_profile,
    default_f_l,
    emit,
    run_campaign,
    summarize_simplex_gradients,
)
from .errors import BudgetExceededError, GeometryError, OracleError
from .problem import (
    ComponentOracle,
    EvalLedger,
    FeasibleBox,
    LovoProblem,
    load_problem,
    save_problem,
)
from .solver import SolveResult, SolverConfig, StepOutcome, solve
from .testsets import gen_hs, gen_mw, gen_qd, qd_instance, HS_CATALOG, MW_REGISTRY

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "ComponentOracle",
    "DataProfile",
    "EvalLedger",
    "FeasibleBox",
    "GeometryError",
    "HS_CATALOG",
    "LovoProblem",
    "MW_REGISTRY",
    "OracleError",
    "RunTrace",
    "SolveResult",
    "SolverConfig",
    "StepOutcome",
    "data_profile",
    "default_f_l",
    "emit",
    "gen_hs",
    "gen_mw",
    "gen_qd",
    "load_problem",
    "qd_instance",
    "run_campaign",
    "save_problem",
    "solve",
    "summarize_simplex_gradients",
]
