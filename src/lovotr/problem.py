"""Problem containers and metered oracle access for min-of-components objectives.

A problem bundles ``r`` black-box component functions over a common box with a
starting point.  The objective being minimized is the pointwise minimum of the
components, and the active set at a point collects the indices of the
components attaining that minimum there.  All oracle calls go through an
:class:`EvalLedger`, which meters per-component evaluation counts, enforces an
optional budget, and records the trace of best certified objective values used
by the benchmark harness.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import BudgetExceededError, OracleError


def as_vector(x, n=None, name="x"):
    """Coerce ``x`` to a 1-D float array, checking its length when ``n`` is given."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {v.shape}")
    if n is not None and v.size != n:
        raise ValueError(f"{name} has size {v.size}, expected {n}")
    return v


@dataclass
class FeasibleBox:
    """Axis-aligned box ``{x : lower <= x <= upper}`` with exact projection.

    Both bound vectors must be finite and satisfy ``lower < upper`` in every
    coordinate (no fixed variables).  The box is the only feasible-region
    implementation shipped; any object exposing ``project`` and ``contains``
    with the same semantics can stand in for it where no coordinate bounds are
    required.
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.lower = as_vector(self.lower, name="lower")
        self.upper = as_vector(self.upper, n=self.lower.size, name="upper")
        if not (np.isfinite(self.lower).all() and np.isfinite(self.upper).all()):
            raise ValueError("box bounds must be finite")
        if not np.all(self.lower < self.upper):
            raise ValueError("box must satisfy lower < upper in every coordinate")

    @property
    def n(self) -> int:
        return self.lower.size

    def project(self, x) -> np.ndarray:
        """Componentwise clamp of ``x`` onto the box (idempotent, nonexpansive).

        ``np.minimum(np.maximum(x, lower), upper)`` is ``np.clip`` bit for
        bit, signed zeros included, without ``np.clip``'s Python-level
        wrapper, which costs more than the clamp itself at small n.
        """
        v = as_vector(x, n=self.n)
        return np.minimum(np.maximum(v, self.lower), self.upper)

    def contains(self, x, tol=0.0) -> bool:
        v = as_vector(x, n=self.n)
        return bool(np.all(v >= self.lower - tol) and np.all(v <= self.upper + tol))


@dataclass
class ComponentOracle:
    """One black-box component: a 1-based index and its evaluation function.

    The function must be deterministic and return a finite value everywhere on
    the feasible box.
    """

    index: int
    fn: Callable[[np.ndarray], float]

    def __call__(self, x) -> float:
        return float(self.fn(x))


@dataclass
class LovoProblem:
    """A min-of-components problem instance.

    Attributes
    ----------
    name : str
        Identifier, unique within a benchmark campaign.
    components : list of ComponentOracle
        The component functions, indexed 1..r in order.
    box : FeasibleBox
        Feasible region.
    x0 : numpy.ndarray
        Feasible starting point.
    generator : dict or None
        Optional ``{"kind": ..., "params": ...}`` record describing how the
        instance was generated; used for JSON round-tripping.
    """

    name: str
    components: list
    box: FeasibleBox
    x0: np.ndarray
    generator: dict | None = None

    def __post_init__(self):
        self.x0 = as_vector(self.x0, n=self.box.n, name="x0")
        if len(self.components) < 1:
            raise ValueError("need at least one component")
        if self.box.n < 1:
            raise ValueError("need at least one variable")
        for pos, comp in enumerate(self.components, start=1):
            if comp.index != pos:
                raise ValueError(f"component at position {pos} has index {comp.index}")
        if not self.box.contains(self.x0):
            raise ValueError("x0 must lie inside the box")

    @property
    def n(self) -> int:
        return self.box.n

    @property
    def r(self) -> int:
        return len(self.components)


class TracePoint(NamedTuple):
    """One entry of a best-value trace."""

    t_component: int
    t_fmin: int
    value: float


@dataclass
class EvalLedger:
    """Evaluation accounting for one solver run.

    Counts per-component evaluations and full objective evaluations, enforces
    an optional budget, and records ``trace``, the running best of the
    certified objective values (known values of the pointwise minimum).  A
    single-component value of a multi-component problem only bounds the
    objective from above and is not recorded.

    ``metering`` selects the budget unit: ``"component"`` caps the total number
    of component evaluations, ``"fmin"`` caps the number of full objective
    evaluations.  A full evaluation is admitted whenever the budget is not yet
    reached, so a component-metered run can overshoot by at most ``r - 1``
    trailing component evaluations.
    """

    r: int
    budget: int | None = None
    metering: str = "component"
    component_evals: np.ndarray = field(init=False)
    fmin_evals: int = field(init=False, default=0)
    trace: list = field(init=False, default_factory=list)

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("need r >= 1")
        if self.metering not in ("component", "fmin"):
            raise ValueError(f"unknown metering {self.metering!r}")
        self.component_evals = np.zeros(self.r, dtype=np.int64)

    @property
    def total_component_evals(self) -> int:
        return int(self.component_evals.sum())

    def exhausted(self) -> bool:
        if self.budget is None:
            return False
        used = self.fmin_evals if self.metering == "fmin" else self.total_component_evals
        return used >= self.budget

    def _charge_component(self, i: int):
        if self.exhausted():
            raise BudgetExceededError(f"evaluation budget of {self.budget} reached")
        self.component_evals[i - 1] += 1

    def _charge_fmin(self):
        # The batch of r component evaluations below may straddle the boundary.
        if self.exhausted():
            raise BudgetExceededError(f"evaluation budget of {self.budget} reached")
        self.component_evals += 1
        self.fmin_evals += 1

    @property
    def best_certified(self) -> float:
        return self.trace[-1].value if self.trace else np.inf

    def note_value(self, value: float):
        """Record the certified ``value`` in the trace if it improves the running best."""
        if value < self.best_certified:
            self.trace.append(
                TracePoint(self.total_component_evals, self.fmin_evals, float(value)))


class FminResult(NamedTuple):
    """Full objective evaluation: minimum value, active set, all component values."""

    value: float
    active: frozenset
    component_values: np.ndarray


def eval_component(problem: LovoProblem, ledger: EvalLedger, i: int, x) -> float:
    """Evaluate component ``i`` at ``x``, charging one evaluation to the ledger.

    The point is projected onto the box before the oracle is called, so oracles
    never see infeasible points.  With a single component the returned value is
    a certified objective value and is recorded as such.
    """
    if not 1 <= i <= problem.r:
        raise ValueError(f"component index {i} outside 1..{problem.r}")
    xp = problem.box.project(x)
    ledger._charge_component(i)
    value = problem.components[i - 1](xp)
    if not math.isfinite(value):
        raise OracleError(i, xp, value)
    if problem.r == 1:
        ledger.fmin_evals += 1
        ledger.note_value(value)
    return value


def eval_fmin(problem: LovoProblem, ledger: EvalLedger, x) -> FminResult:
    """Evaluate all components at ``x`` and identify the active set.

    Charges ``r`` component evaluations and one full objective evaluation to
    the ledger.  Ties in the active set are identified by exact floating-point
    equality.
    """
    xp = problem.box.project(x)
    ledger._charge_fmin()
    values = np.empty(problem.r)
    for comp in problem.components:
        v = comp(xp)
        if not math.isfinite(v):
            raise OracleError(comp.index, xp, v)
        values[comp.index - 1] = v
    value = float(values.min())
    active = frozenset(int(i) + 1 for i in np.nonzero(values == value)[0])
    ledger.note_value(value)
    return FminResult(value, active, values)


def choose_imin(active, previous_index: int | None = None) -> int:
    """Pick the working component index from a nonempty active set.

    Sticky tie-breaking: the previous index is kept whenever it is still
    active, otherwise the smallest active index is returned.  Stickiness avoids
    spurious index swaps, which would trigger radii adjustments.
    """
    if not active:
        raise ValueError("active set must be nonempty")
    if previous_index is not None and previous_index in active:
        return previous_index
    return min(active)


# ---------------------------------------------------------------------------
# JSON serialization.  Generated problems carry a generator record and are
# rebuilt through the factory registered for their kind; analytic test
# functions are referenced by registry name inside the generator params.

_GENERATOR_REGISTRY: dict = {}


def register_generator(kind: str, factory):
    """Register ``factory(params) -> LovoProblem`` for generator ``kind``."""
    _GENERATOR_REGISTRY[kind] = factory


def problem_to_dict(problem: LovoProblem) -> dict:
    if problem.generator is None:
        raise ValueError(f"problem {problem.name!r} has no generator record")
    return {
        "name": problem.name,
        "n": problem.n,
        "r": problem.r,
        "lower": problem.box.lower.tolist(),
        "upper": problem.box.upper.tolist(),
        "x0": problem.x0.tolist(),
        "generator": problem.generator,
    }


def problem_from_dict(doc: dict) -> LovoProblem:
    from . import testsets  # noqa: F401  (populates the registry)

    gen = doc["generator"]
    try:
        factory = _GENERATOR_REGISTRY[gen["kind"]]
    except KeyError:
        raise ValueError(f"unknown generator kind {gen['kind']!r}") from None
    problem = factory(gen["params"])
    for key, got, expect in (
        ("n", problem.n, doc["n"]),
        ("r", problem.r, doc["r"]),
    ):
        if got != expect:
            raise ValueError(f"rebuilt problem has {key}={got}, document says {expect}")
    return problem


def save_problem(problem: LovoProblem, path):
    with open(path, "w") as fh:
        json.dump(problem_to_dict(problem), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_problem(path) -> LovoProblem:
    with open(path) as fh:
        return problem_from_dict(json.load(fh))
