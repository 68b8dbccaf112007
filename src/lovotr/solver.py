"""Derivative-free trust-region loop for min-of-components objectives.

Each iteration works on one component, the one known (or last certified) to
attain the pointwise minimum at the current iterate, through a linear
interpolation model maintained over n+1 sample points.  Two radii evolve
independently: ``Delta`` bounds the step, and ``delta`` is the radius that
geometry steps sample within and that the criticality and success tests read.
``delta`` does not bound the sample: accepted trust-region points enter it
wherever they land, so sample points may lie well beyond ``delta`` from the
base.  An iteration passes through four phases:

* criticality: when ``delta > BETA * pi`` the model cannot be trusted relative
  to its apparent stationarity, so both radii shrink and nothing is evaluated;
* step acceptance: the trust-region step is evaluated and accepted when the
  reduction ratio reaches ``ETA``; on acceptance the working index is rechosen
  from the active set whenever a full objective evaluation certified it.  The
  iterate is the sample's base, and ``exchange_point`` alone moves it: to an
  accepted candidate (``iterate`` passes ``accepted``) and, whatever the
  ratio, to any new point it admits below the base value, so under the cheap
  ratio every candidate that enters is the next iterate and ``ETA`` only
  names the outcome's kind;
* radii adjustment: an accepted step that swaps the working component inflates
  both radii by ``TAU4``, at most ``GAMMA_MAX + 1`` times between successful
  iterations (the ``Gamma`` counter, reset whenever ``rho >= ETA1``);
* radii update: otherwise radii shrink by ``TAU1`` below ``ETA1``, grow by
  ``TAU3`` after a full-length step with ``rho > ETA2``, and stay put between.

These thresholds and the lengths ``RADIUS0`` (both initial radii) and
``DELTA_MIN`` are module constants; ``SolverConfig`` holds the budget and the
cheap-ratio switch.

No update takes either radius below ``radius_floor(fx)``, the larger of
``DELTA_MIN`` and ``0.1 * sqrt(eps * |fx|)`` for the working
component's value ``fx`` at the iterate.  Below that size differences of
sample values are rounding noise and the model gradient means nothing, so
shrinking further only wastes evaluations.  The stopping tests compare the
radii and the stationarity measure with the same floor.

Evaluating the full objective costs one evaluation of every component, so by
default the reduction ratio is estimated from the working component alone (a
certified underestimate) for up to ``NRHOMAX`` consecutive candidate
evaluations before a full evaluation is forced.  Sample maintenance is
single-point exchange: productive trust-region points enter the sample
directly.  Every other iteration that evaluates is one geometry iteration
(``_geometry_iteration``), which resamples the point farthest from the base:
it repairs a stale sample, replaces a trust-region step too short to evaluate,
and follows a candidate that did not enter the sample.  Index swaps
rebuild the sample values for the new component at the unchanged point
locations (n evaluations; the certifying full evaluation gave the base value).
The committed iterate is one record, the :class:`LinearModel` in
``SolverState.model`` (base, working index, value there, gradient);
``_commit`` installs it with its stationarity ``pi`` once an iteration's
fallible work is done.  Every iteration reports a :class:`StepOutcome` built
from the committed state by ``_outcome``; every run, however it ends, returns
the last committed iterate under one of six statuses (``solve``).
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import BudgetExceededError, GeometryError, OracleError, PointRejectedError
from .model import (
    LinearModel,
    SampleSet,
    build_model,
    exchange_point,
    initial_sample,
    model_stationarity,
    rebuild_for_index,
    replace_point,
)
from .problem import (EvalLedger, LovoProblem, _check_count, choose_imin,
                      eval_component, eval_fmin)
from .subproblem import (
    FULL_STEP_RTOL,
    altmov_linear,
    select_target_for_altmov,
    trsbox_linear,
)

_log = logging.getLogger(__name__)

# Iteration kinds.  The first six partition the evaluated iterations the way
# the two thresholds and the adjustment phase do; geometry-improvement
# iterations are reported as "altmov" regardless of whether a trust-region
# candidate was evaluated first.
KIND_CRITICALITY = "criticality"
KIND_UNSUCCESSFUL = "unsuccessful"
KIND_ACCEPTABLE_ADJUSTED = "acceptable_adjusted"
KIND_ACCEPTABLE_PLAIN = "acceptable_plain"
KIND_SUCCESSFUL_ADJUSTED = "successful_adjusted"
KIND_SUCCESSFUL_PLAIN = "successful_plain"
KIND_ALTMOV = "altmov"

STATUS_SUCCESS = "success"
STATUS_STALLED = "stalled"
STATUS_BUDGET = "budget_exhausted"
STATUS_MAXCRIT = "maxcrit_exceeded"
STATUS_ORACLE = "oracle_error"
STATUS_GEOMETRY = "geometry_failed"


# The loop's dimensionless thresholds and counts, at values from common
# trust-region practice (Conn, Scheinberg & Vicente, *Introduction to
# Derivative-Free Optimization*, SIAM 2009).  They satisfy
# 0 < TAU1 <= TAU2 < 1 <= TAU3 <= TAU4, 0 <= ETA < ETA1 <= ETA2, ETA1 < 1,
# GAMMA_MAX >= 1 and NRHOMAX >= 1.
BETA = 1.0       # criticality test: delta > BETA * pi
TAU1 = 0.5       # radius shrink factor
TAU2 = 0.95      # largest Delta factor of a criticality iteration
TAU3 = 2.0       # radius growth after a full-length step with rho > ETA2
TAU4 = 2.0       # radius inflation on an adjusted index swap
ETA = 0.05       # acceptance threshold for the reduction ratio
ETA1 = 0.25      # successful-step threshold
ETA2 = 0.75      # very successful threshold
GAMMA_MAX = 3    # bound on the Gamma counter of adjusted swaps
NRHOMAX = 3      # consecutive cheap-ratio candidates before a full evaluation

# The loop's lengths, in the units of x: both radii start at RADIUS0 and never
# shrink below DELTA_MIN (see ``radius_floor``).
RADIUS0 = 1.0
DELTA_MIN = 1e-8

# The stationarity measure is frozen while consecutive criticality iterations
# shrink the sample radius, so after a sudden drop in the measure (typical when
# the iterate lands on an active bound) a spell must be able to ride the radius
# all the way down to DELTA_MIN: 27 halvings.  A spell longer than n plus this
# ends the run as ``maxcrit_exceeded``.
MAXCRIT_RIDE = math.ceil(math.log(RADIUS0 / DELTA_MIN) / math.log(1.0 / TAU1))


@dataclass
class SolverConfig:
    """The settings a caller chooses; checked at construction.

    ``budget`` caps the total number of component evaluations (None: no
    cap; else an integer of at least 1), and ``use_cheap_rho=False``
    certifies every reduction ratio with a full evaluation; it takes a
    ``bool`` or ``numpy.bool_`` only.  The loop's
    thresholds and lengths are the module constants ``BETA`` .. ``NRHOMAX``,
    ``RADIUS0`` and ``DELTA_MIN``.
    """

    budget: int | None = None
    use_cheap_rho: bool = True

    def __post_init__(self):
        _check_count("budget", self.budget, optional=True)
        if not isinstance(self.use_cheap_rho, (bool, np.bool_)):
            raise ValueError(f"use_cheap_rho must be a bool, got {self.use_cheap_rho!r}")


@dataclass
class SolverState:
    """The evolving run state; owned by exactly one run.

    ``model`` is the committed iterate and ``pi`` its stationarity measure,
    set together by ``_commit``; a failed iteration may leave ``sample``
    half-changed, never ``model``.  ``ledger`` meters the run's evaluations.
    """

    delta: float
    Delta: float
    Gamma: int
    sample: SampleSet
    model: LinearModel
    pi: float
    ledger: EvalLedger
    rho_cheap_streak: int = 0
    consec_crit: int = 0
    consec_alt: int = 0
    repair_streak: int = 0       # consecutive frozen geometry repairs
    model_doubted: bool = False  # last evaluated step had a poor ratio


@dataclass
class StepOutcome:
    """Snapshot of one iteration, sufficient to replay the radii state machine.

    The fields after ``evals_total`` describe the trust-region candidate and
    keep their "no candidate" defaults when none was evaluated.
    """

    kind: str
    pi: float
    d: np.ndarray
    delta: float          # post-update sample radius
    Delta: float          # post-update trust-region radius
    Gamma: int
    index: int
    fx: float
    evals_total: int
    k: int = -1           # set by solve
    rho: float = 0.0
    rho_hat: float = 0.0
    rho_defined: bool = False    # a trust-region candidate was evaluated
    rho_was_cheap: bool = False
    index_swapped: bool = False
    full_length: bool = False
    adjusted: bool = False
    radii_frozen: bool = False   # geometry iteration that left both radii unchanged

    def record(self) -> dict:
        """Every field under its name, ``d`` as a list: a JSON-ready row."""
        rec = {f.name: getattr(self, f.name) for f in fields(self)}
        rec["d"] = self.d.tolist()
        return rec


@dataclass
class SolveResult:
    """Terminal state of one run plus its full iteration history."""

    x_final: np.ndarray
    f_final: float
    status: str
    iterations: int
    ledger: EvalLedger
    history: list = field(default_factory=list)
    i_final: int = 1
    error: str = ""  # text of the OracleError that ended an oracle_error run

    def write_history_jsonl(self, path):
        with open(path, "w") as fh:
            for outcome in self.history:
                fh.write(json.dumps(outcome.record(), sort_keys=True))
                fh.write("\n")


# Both radii stop shrinking at ``radius_floor``.  A value near f is known to
# about EPS * |f|, so a linear model over a sample of radius delta has a
# gradient error of about 2 * EPS * |f| / delta from rounding, on top of the
# truncation error L * delta / 2 at curvature L.  The sum is smallest at the
# forward-difference step 2 * sqrt(EPS * |f| / L) (Gill, Murray & Wright,
# *Practical Optimization*, 1981, sec. 8.6; Moré & Wild, *Estimating
# derivatives of noisy simulations*, ACM TOMS 2012).  The solver sees no
# curvature, so the floor is NOISE_RADIUS_FACTOR * sqrt(EPS * |f|): 0.1 is the
# best step for L = 400, and a step k times off the best one has (k + 1/k) / 2
# times its error, so 0.1 stays within 5/3 of the best for every L from 44 to
# 3600.  Larger factors let truncation dominate at high curvature, smaller
# ones rounding.
EPS = float(np.finfo(float).eps)
NOISE_RADIUS_FACTOR = 0.1


def radius_floor(fx: float) -> float:
    """Smallest radius at which sample values near ``fx`` still resolve a gradient.

    ``max(DELTA_MIN, NOISE_RADIUS_FACTOR * sqrt(EPS * |fx|))``: the rounding
    level of the working component's values sets the floor, and ``DELTA_MIN``
    is its lower bound (the two agree for ``|fx|`` up to about 45).
    """
    return max(DELTA_MIN, NOISE_RADIUS_FACTOR * math.sqrt(EPS * abs(fx)))


def _update_radii(state: SolverState, delta_factor: float, Delta_factor: float):
    """Scale both radii, stopping at the floor of the committed value ``model.fx``."""
    floor = radius_floor(state.model.fx)
    state.delta = max(state.delta * delta_factor, floor)
    state.Delta = max(state.Delta * Delta_factor, floor)


# A sample point farther than this multiple of the trust-region radius makes
# the reduction ratio meaningless; geometry is repaired before stepping.
STALE_FACTOR = 2.0


def _commit(state: SolverState, model: LinearModel, box):
    """Make ``model`` the committed iterate, with its stationarity measure."""
    state.model = model
    state.pi = model_stationarity(model, box)


def _outcome(state: SolverState, kind: str, pi: float, d, **candidate) -> StepOutcome:
    """The committed iteration's snapshot; ``candidate`` holds the trial fields."""
    return StepOutcome(
        kind=kind, pi=pi, d=np.array(d, dtype=float), delta=state.delta,
        Delta=state.Delta, Gamma=state.Gamma, index=state.model.index,
        fx=state.model.fx, evals_total=state.ledger.total_component_evals, **candidate,
    )


def _geometry_iteration(state: SolverState, problem: LovoProblem, pi: float,
                        stale: bool, **candidate) -> StepOutcome:
    """Geometry-improvement iteration: resample one point within ``delta`` of the base.

    The target is the point farthest from the base.  On stale
    geometry the target is overwritten in place (the base never moves) and
    the radii stay put (repair work carries no evidence about the radii);
    otherwise the new point goes through the sample exchange and both radii
    shrink, as there is nothing left to repair at this scale.  A repair that
    places no point shrinks them too.  ``candidate`` holds the fields of a
    trust-region candidate evaluated first, if any.  Nothing is committed
    before the model is rebuilt.
    """
    target = select_target_for_altmov(state.sample)
    d_alt, flat = altmov_linear(state.sample, state.delta, target)
    placed = False
    if not flat:
        x_alt = problem.box.project(state.sample.base + d_alt)
        f_alt = eval_component(problem, state.ledger, state.model.index, x_alt)
        try:
            if stale:
                replace_point(state.sample, target, x_alt, f_alt)
            else:
                exchange_point(state.sample, x_alt, f_alt)
            placed = True
        except PointRejectedError:
            _log.debug("geometry point rejected by the sample exchange")
    model = build_model(state.sample)

    # commit; frozen repairs are gate maintenance, not the "no further
    # improvement" iterations the stall counter watches, so they age their
    # own streak instead
    frozen = stale and placed
    _commit(state, model, problem.box)
    if frozen:
        state.repair_streak += 1
    else:
        _update_radii(state, TAU1, TAU1)
        state.repair_streak = 0
        state.consec_alt += 1
    state.consec_crit = 0
    return _outcome(state, KIND_ALTMOV, pi, d_alt, radii_frozen=frozen, **candidate)


def iterate(state: SolverState, problem: LovoProblem,
            config: SolverConfig) -> StepOutcome:
    """Run exactly one iteration, mutating ``state`` and its ledger."""
    box = problem.box
    pi = state.pi

    # --- criticality phase: radii shrink, nothing is evaluated.  Any Delta
    # factor in [TAU1, TAU2] is admissible; the midpoint is used.
    if state.delta > BETA * pi:
        _update_radii(state, TAU1, 0.5 * (TAU1 + TAU2))
        state.consec_crit += 1
        state.consec_alt = 0
        state.repair_streak = 0
        return _outcome(state, KIND_CRITICALITY, pi, np.zeros(problem.n))

    # --- geometry gate: after a poor reduction ratio, a sample point far
    # outside the trust region is the usual culprit; repair before stepping
    # again rather than shrinking the radii on a meaningless ratio.  A repair
    # places its point within delta <= Delta of a base that stays, so each one
    # clears a point beyond 2 * Delta and a streak ends after at most n.  The
    # cap of 2n guards against repairs that rounding places beyond 2 * Delta.
    # The sample keeps the distances current and a repair updates one of them.
    if state.model_doubted and state.repair_streak < 2 * problem.n:
        if np.maximum.reduce(state.sample.distances) > STALE_FACTOR * state.Delta:
            return _geometry_iteration(state, problem, pi, stale=True)
        state.model_doubted = False

    d = trsbox_linear(state.model, box, state.Delta, state.sample.room)
    dnorm = math.sqrt(d.dot(d))
    full_length = dnorm >= state.Delta * (1.0 - FULL_STEP_RTOL)
    predicted = -float(state.model.g.dot(d))
    if dnorm < 0.5 * state.Delta or predicted <= 0.0:
        # Short or non-descending steps are not worth an evaluation.
        return _geometry_iteration(state, problem, pi, stale=False)

    fx, i = state.model.fx, state.model.index
    x_new = box.project(state.model.base + d)
    use_full = (
        not config.use_cheap_rho
        or problem.r == 1
        or state.rho_cheap_streak >= NRHOMAX
    )
    cheap = False
    values_new = None
    if use_full:
        values_new = eval_fmin(problem, state.ledger, x_new)
        f_insert = float(values_new[i - 1])
        rho = (fx - float(values_new.min())) / predicted
        rho_hat = (fx - f_insert) / predicted
        # The full ratio can only see a deeper minimum at the candidate.
        assert rho_hat <= rho
    else:
        f_insert = eval_component(problem, state.ledger, i, x_new)
        rho = rho_hat = (fx - f_insert) / predicted
        cheap = True

    accepted = rho >= ETA

    # --- sample maintenance: insert the productive trust-region point, or
    # take a geometry-improvement step within the sample radius instead.  An
    # accepted candidate becomes the iterate even when the working component
    # alone did not improve (a certified swap can ride on another's decrease).
    row = None  # where the candidate sits in the sample, once inserted
    if rho > 0.0:
        try:
            row = exchange_point(state.sample, x_new, f_insert, accepted)
        except PointRejectedError:
            _log.debug("trust-region point rejected by the sample exchange")
    if row is None:
        # Nothing entered: rho <= 0, or the exchange refused the candidate,
        # accepted or not.  The iterate stays, the radii shrink by TAU1, Gamma
        # stays and nothing is adjusted, as on any fresh geometry iteration.
        outcome = _geometry_iteration(
            state, problem, pi, stale=False, rho=rho, rho_hat=rho_hat,
            rho_defined=True, rho_was_cheap=cheap, full_length=full_length)
        state.rho_cheap_streak = state.rho_cheap_streak + 1 if cheap else 0
        state.model_doubted = True
        return outcome

    # The working index can only be rechosen when the active set at the
    # accepted point was certified by a full evaluation; estimated-ratio
    # iterations keep the current index.
    i_next = i
    swapped = False
    if accepted and values_new is not None:
        i_next = choose_imin(values_new, i)
        swapped = i_next != i

    # --- Gamma reset, then the two radii phases (Algorithm lines; computed
    # now, committed with the rest once the fallible work is done).
    gamma = 0 if rho >= ETA1 else state.Gamma
    adjusted = accepted and swapped and gamma <= GAMMA_MAX
    if adjusted:
        radii_factor = TAU4
        gamma += 1
    elif rho < ETA1:
        radii_factor = TAU1
    elif rho > ETA2 and full_length:
        radii_factor = TAU3
    else:
        radii_factor = 1.0

    # --- model rebuild (certified index swap; the candidate is in row 0, so
    # the full evaluation holds the new base value) or incremental update.
    if swapped:
        model = rebuild_for_index(state.sample, problem, state.ledger, i_next,
                                  float(values_new[i_next - 1]))
    else:
        model = build_model(state.sample)

    # commit
    state.rho_cheap_streak = state.rho_cheap_streak + 1 if cheap else 0
    state.model_doubted = rho < ETA1
    state.repair_streak = 0
    state.Gamma = gamma
    _commit(state, model, box)
    _update_radii(state, radii_factor, radii_factor)
    if not accepted:
        kind = KIND_UNSUCCESSFUL
    elif rho >= ETA1:
        kind = KIND_SUCCESSFUL_ADJUSTED if adjusted else KIND_SUCCESSFUL_PLAIN
    else:
        kind = KIND_ACCEPTABLE_ADJUSTED if adjusted else KIND_ACCEPTABLE_PLAIN
    state.consec_alt = 0
    state.consec_crit = 0
    return _outcome(state, kind, pi, d, rho=rho, rho_hat=rho_hat,
                    rho_defined=True, rho_was_cheap=cheap, index_swapped=swapped,
                    full_length=full_length, adjusted=adjusted)


def check_stopping(state: SolverState, problem: LovoProblem) -> str | None:
    """Terminal status after an iteration, or None to continue.

    Both tests use the floor the radii stop at, ``radius_floor(fx)``:
    ``DELTA_MIN`` while ``|fx|`` is below about 45, and ``0.1 * sqrt(eps *
    |fx|)`` above.  A run succeeds once ``delta`` and the scaled stationarity
    measure are both at or below the floor; ``delta`` is the radius geometry
    steps sample within, not the extent of the sample, whose accepted points
    may lie farther from the base.  It
    stalls when both radii sit at the floor and the last n iterations were
    geometry steps, taken because the trust-region step was short, did not
    descend on the model, or raised the working component: there is no room
    for improvement left in the sample at the smallest radius where its
    values still resolve a gradient.  Long runs of consecutive criticality
    iterations (more than ``n + MAXCRIT_RIDE``) and budget exhaustion
    terminate the run as safety valves.
    """
    floor = radius_floor(state.model.fx)
    if state.delta <= floor and BETA * state.pi <= floor:
        return STATUS_SUCCESS
    if (
        state.delta <= floor
        and state.Delta <= floor
        and state.consec_alt >= problem.n
    ):
        return STATUS_STALLED
    if state.consec_crit > problem.n + MAXCRIT_RIDE:
        return STATUS_MAXCRIT
    if state.ledger.exhausted():
        return STATUS_BUDGET
    return None


def _initial_state(problem: LovoProblem, ledger: EvalLedger) -> SolverState:
    values0 = eval_fmin(problem, ledger, problem.x0)
    i0 = choose_imin(values0)
    sample = initial_sample(problem, problem.x0, RADIUS0, ledger, i0,
                            base_value=float(values0[i0 - 1]))
    model = build_model(sample)
    return SolverState(delta=RADIUS0, Delta=RADIUS0, Gamma=0,
                       sample=sample, model=model,
                       pi=model_stationarity(model, problem.box), ledger=ledger)


def _recover_geometry(state: SolverState, problem: LovoProblem):
    """Rebuild the sample from scratch around the committed base.

    The new sample has the radius the state carries afterwards: ``delta``,
    raised to the floor if it lies below it.
    """
    committed = state.model
    floor = radius_floor(committed.fx)
    delta = max(state.delta, floor)
    sample = initial_sample(problem, committed.base, delta, state.ledger,
                            committed.index, base_value=committed.fx)
    state.sample = sample
    _commit(state, build_model(sample), problem.box)
    state.delta = delta
    state.Delta = max(state.Delta, floor)


def solve(problem: LovoProblem, config: SolverConfig | None = None,
          callback=None, ledger: EvalLedger | None = None) -> SolveResult:
    """Minimize the pointwise minimum of the problem's components over its box.

    The run has one exit.  ``check_stopping`` names its status, or the
    exception that ended it does: ``BudgetExceededError`` gives
    ``budget_exhausted``, ``OracleError`` ``oracle_error`` (its text in
    ``SolveResult.error``), and ``GeometryError`` ``geometry_failed`` (a
    degenerate initial sample, a failed rebuild, or a second error in a row).

    Parameters
    ----------
    problem : LovoProblem
    config : SolverConfig, optional
        Defaults are used when omitted.
    callback : callable, optional
        Called after every iteration as ``callback(k, outcome, state)`` with
        the live :class:`SolverState`: its ``sample`` (see
        ``SampleSet.to_debug_dict``), ``model``, ``delta``, ``Delta`` and
        ``ledger``.  A callback may read the state but must not write to it.
    ledger : EvalLedger, optional
        Pass a pre-configured ledger to control metering; by default a
        component-metered ledger honoring ``config.budget`` is created.  A
        ledger whose ``r`` is not the problem's raises ``ValueError``.  The
        ledger's budget is the one that holds, so a ``config.budget`` that
        differs from it raises ``ValueError`` too.

    Returns
    -------
    SolveResult
        Whatever the status, ``x_final``, ``f_final`` and ``i_final`` are the
        last committed model's ``base``, ``fx`` (which never rises) and
        ``index``; a run that
        ends before its initial sample is built reports ``problem.x0`` and
        the ledger's best certified value (``inf`` if none).
    """
    config = config if config is not None else SolverConfig()
    if ledger is None:
        ledger = EvalLedger(problem.r, budget=config.budget)
    elif ledger.r != problem.r:
        raise ValueError(f"the ledger is for r={ledger.r} components, "
                         f"the problem has r={problem.r}")
    elif config.budget is not None and config.budget != ledger.budget:
        raise ValueError(f"config budget {config.budget} differs from the "
                         f"ledger's budget {ledger.budget}")

    state = None
    history = []
    error = ""
    try:
        state = _initial_state(problem, ledger)
        status = None
        while status is None:
            try:
                outcome = iterate(state, problem, config)
            except GeometryError:
                # a second consecutive failure leaves through the handler
                _recover_geometry(state, problem)
                outcome = iterate(state, problem, config)
            outcome.k = len(history)
            history.append(outcome)
            if callback is not None:
                callback(outcome.k, outcome, state)
            status = check_stopping(state, problem)
    except BudgetExceededError:
        status = STATUS_BUDGET
    except OracleError as exc:
        status, error = STATUS_ORACLE, str(exc)
    except GeometryError:
        status = STATUS_GEOMETRY

    if state is None:
        x, fx, i = problem.x0.copy(), ledger.best_certified, 1
    else:
        x, fx, i = state.model.base.copy(), state.model.fx, state.model.index
    return SolveResult(
        x_final=x, f_final=fx, status=status, iterations=len(history),
        ledger=ledger, history=history, i_final=i, error=error,
    )
