"""Problem containers and metered oracle access for min-of-components objectives.

A problem bundles ``r`` black-box component functions over a common box with a
starting point.  The objective being minimized is the pointwise minimum of the
components.  A full evaluation returns every component's value at a point,
and :func:`choose_imin` picks the working component among those attaining the
minimum there (the active set).  All oracle calls go through an
:class:`EvalLedger`, which counts component and full evaluations, enforces an
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


def _read_only(x) -> np.ndarray:
    """A read-only float view of ``x``: of ``x`` itself when it is a float array."""
    view = np.asarray(x, dtype=float).view()
    view.setflags(write=False)  # cheaper than setting view.flags.writeable
    return view


@dataclass
class FeasibleBox:
    """Axis-aligned box ``{x : lower <= x <= upper}`` with exact projection.

    Both bound vectors must be finite and satisfy ``lower < upper`` in every
    coordinate (no fixed variables).  The box keeps read-only copies of them,
    so a later write to the caller's arrays cannot move it past these checks.
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.lower = _read_only(as_vector(self.lower, name="lower").copy())
        self.upper = _read_only(as_vector(self.upper, n=self.lower.size, name="upper").copy())
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

    def contains(self, x) -> bool:
        v = as_vector(x, n=self.n)
        return bool(np.all(v >= self.lower) and np.all(v <= self.upper))


@dataclass
class ComponentOracle:
    """One black-box component: a 1-based index and its evaluation function.

    The function must be deterministic and return a finite value everywhere on
    the feasible box.  It receives a feasible length-n float array, a
    read-only view of the caller's point (``eval_component``, ``eval_fmin``),
    so a write into it raises ``ValueError`` instead of moving a point the
    solver holds.
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
        Feasible starting point: the problem's own read-only copy, which a
        later write to the caller's array does not reach.
    generator : dict or None
        Optional ``{"kind": ..., "params": ...}`` record describing how the
        instance was generated; used for JSON round-tripping.
    eval_all : callable or None
        Optional batch oracle: ``eval_all(x)`` returns all ``r`` component
        values at ``x`` as one float array, equal bit for bit to
        ``[c.fn(x) for c in components]``; like them it receives a read-only
        view of ``x``.  :func:`eval_fmin` calls it in place of the ``r``
        component calls, but only while every component still holds the
        ``fn`` it had when the problem was built; once any ``fn`` is rebound
        (a wrapper that times, counts or checks calls), full evaluations go
        through the components one by one again.
    """

    name: str
    components: list
    box: FeasibleBox
    x0: np.ndarray
    generator: dict | None = None
    eval_all: Callable[[np.ndarray], np.ndarray] | None = field(
        default=None, repr=False, compare=False)

    def __post_init__(self):
        # The functions eval_all stands in for; see _batch_oracle.
        self._built_fns = [c.fn for c in self.components]
        self.x0 = _read_only(as_vector(self.x0, n=self.box.n, name="x0").copy())
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

    def _batch_oracle(self):
        """``eval_all`` while every component holds the ``fn`` it was built with, else None.

        List equality tests each pair for identity first, and a function
        equals only itself, so this is an identity check on the ``r``
        functions; at r = 100 it is the cheapest form measured, under half the
        cost of ``all(map(operator.is_, ...))``.
        """
        if self.eval_all is not None and [c.fn for c in self.components] == self._built_fns:
            return self.eval_all
        return None


def _check_count(name, value, optional=False):
    """Refuse a ``value`` other than an integer of at least 1, or None if ``optional``.

    A bool is refused; numpy integers are accepted.
    """
    if not ((optional and value is None)
            or (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
                and value >= 1)):
        raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")


class TracePoint(NamedTuple):
    """One entry of a best-value trace."""

    t_component: int
    t_fmin: int
    value: float


@dataclass
class EvalLedger:
    """Evaluation accounting for one solver run.

    Holds two running counts, ``total_component_evals`` (component
    evaluations) and ``fmin_evals`` (full objective evaluations), enforces an
    optional budget, and records ``trace``, the running best of the certified
    objective values (known values of the pointwise minimum).  A
    single-component value of a multi-component problem only bounds the
    objective from above and is not recorded.

    A charge of ``r`` component evaluations is one full evaluation: every
    ``eval_fmin``, and every single-component call when ``r == 1``.  It is
    counted when charged, before the oracle answers.

    ``r`` is an integer of at least 1, and ``budget`` is None (no cap) or
    one; a bool counts as neither, a numpy integer as either.  ``metering``
    selects its unit: ``"component"`` caps the total number of component
    evaluations, ``"fmin"`` caps the number of full objective evaluations.
    A full evaluation is admitted whenever the budget is not yet reached, so
    a component-metered run can overshoot by at most ``r - 1`` trailing
    component evaluations.
    """

    r: int
    budget: int | None = None
    metering: str = "component"
    total_component_evals: int = field(init=False, default=0)
    fmin_evals: int = field(init=False, default=0)
    trace: list = field(init=False, default_factory=list)

    def __post_init__(self):
        _check_count("r", self.r)
        _check_count("budget", self.budget, optional=True)
        if self.metering not in ("component", "fmin"):
            raise ValueError(f"unknown metering {self.metering!r}")

    def exhausted(self) -> bool:
        if self.budget is None:
            return False
        used = self.fmin_evals if self.metering == "fmin" else self.total_component_evals
        return used >= self.budget

    def _charge(self, count: int):
        # A full evaluation's r component evaluations may straddle the boundary.
        if self.exhausted():
            raise BudgetExceededError(f"evaluation budget of {self.budget} reached")
        self.total_component_evals += count
        if count == self.r:
            self.fmin_evals += 1

    @property
    def best_certified(self) -> float:
        return self.trace[-1].value if self.trace else np.inf

    def note_value(self, value: float):
        """Record the certified ``value`` in the trace if it improves the running best."""
        if value < self.best_certified:
            self.trace.append(
                TracePoint(self.total_component_evals, self.fmin_evals, float(value)))


def eval_component(problem: LovoProblem, ledger: EvalLedger, i: int, x) -> float:
    """Evaluate component ``i`` at ``x``, charging one evaluation to the ledger.

    A feasible ``x`` is the caller's precondition: the oracle receives a
    read-only view of ``x``, unprojected and uncopied, so a write into it
    raises ``ValueError``.  ``LovoProblem`` refuses an ``x0`` off
    the box, the solver projects each candidate it forms, and
    ``initial_sample`` projects the starting point it is handed.
    With a single component the returned value is a certified objective value
    and is recorded as such.
    """
    if not 1 <= i <= problem.r:
        raise ValueError(f"component index {i} outside 1..{problem.r}")
    ledger._charge(1)
    value = problem.components[i - 1](_read_only(x))
    if not math.isfinite(value):
        raise OracleError(i, x, value)
    if problem.r == 1:
        ledger.note_value(value)
    return value


def eval_fmin(problem: LovoProblem, ledger: EvalLedger, x) -> np.ndarray:
    """Evaluate all components at ``x``; returns the ``(r,)`` array of their values.

    Charges ``r`` component evaluations and one full objective evaluation to
    the ledger, and records the minimum of the values as a certified objective
    value.  The values come from one ``eval_all`` call when the problem's
    batch oracle is in force (see ``LovoProblem._batch_oracle``), else from
    the components one at a time; either way a non-finite value raises
    :class:`OracleError` for the lowest index holding one.  A batch result
    that is not ``r`` values raises ``ValueError``.  As for
    :func:`eval_component`, a feasible ``x`` is the caller's precondition and
    the oracles, and ``eval_all``, receive one read-only view of it.
    """
    ledger._charge(problem.r)
    view = _read_only(x)
    batch = problem._batch_oracle()
    if batch is not None:
        values = np.asarray(batch(view), dtype=float)
        if values.shape != (problem.r,):
            raise ValueError(f"eval_all of problem {problem.name!r} returned shape "
                             f"{values.shape}, expected {(problem.r,)}")
        finite = np.isfinite(values)
        if not np.logical_and.reduce(finite):
            k = int(np.argmin(finite))  # the first False
            raise OracleError(k + 1, x, float(values[k]))
    else:
        values = np.empty(problem.r)
        for comp in problem.components:
            v = comp(view)
            if not math.isfinite(v):
                raise OracleError(comp.index, x, v)
            values[comp.index - 1] = v
    ledger.note_value(float(values.min()))
    return values


def choose_imin(values, previous_index: int | None = None) -> int:
    """Pick the working component index from the finite component values at a point.

    The active set holds the 1-based indices whose value equals the minimum
    exactly (so +0.0 and -0.0 tie).  Sticky tie-breaking: the previous index
    is kept whenever it is still active, otherwise the smallest active index
    is returned, which is where ``argmin`` finds the minimum first.
    Stickiness avoids spurious index swaps, which would trigger radii
    adjustments.
    """
    if previous_index is not None and values[previous_index - 1] == values.min():
        return previous_index
    return int(np.argmin(values)) + 1


# ---------------------------------------------------------------------------
# JSON serialization.  Generated problems carry a generator record and are
# rebuilt as ``testsets.GENERATORS[kind](**params)``; analytic test functions
# are referenced by registry name inside the generator params.

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
    """Rebuild the problem ``problem_to_dict`` described.

    A document that is not an object with ``name``, ``n``, ``r``, ``lower``,
    ``upper``, ``x0`` and ``generator: {kind, params}``, an unknown kind,
    params the generator cannot use and a rebuilt problem that differs from
    the document in any of those six keys raise ``ValueError``.  The
    comparison is exact: JSON round-trips floats exactly.
    """
    from .testsets import GENERATORS  # testsets builds on this module

    gen = doc.get("generator") if isinstance(doc, dict) else None
    if not (isinstance(gen, dict) and {"kind", "params"} <= gen.keys()
            and {"name", "n", "r", "lower", "upper", "x0"} <= doc.keys()):
        raise ValueError("not a problem document: expected an object with name, "
                         "n, r, lower, upper, x0 and generator {kind, params}")
    kind = gen["kind"]
    if not (isinstance(kind, str) and kind in GENERATORS):
        raise ValueError(f"unknown generator kind {kind!r}")
    try:
        problem = GENERATORS[kind](**gen["params"])
    except TypeError as exc:
        raise ValueError(f"bad params for generator kind {kind!r}: "
                         f"{type(exc).__name__}: {exc}") from None
    for key, got in problem_to_dict(problem).items():
        if key != "generator" and got != doc[key]:
            raise ValueError(f"rebuilt problem has {key}={got!r}, "
                             f"document says {doc[key]!r}")
    return problem


def save_problem(problem: LovoProblem, path):
    with open(path, "w") as fh:
        json.dump(problem_to_dict(problem), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_problem(path) -> LovoProblem:
    with open(path) as fh:
        return problem_from_dict(json.load(fh))
