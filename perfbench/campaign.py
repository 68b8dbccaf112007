"""One campaign pass: solve every problem of a workload once and check the results.

Each problem is solved by ``lovotr.solve`` under the per-problem budget and
component-metered ledger of ``lovotr.bench.run_campaign``; calling ``solve``
directly also yields the iteration count, the history and the ledger, which
``run_campaign`` does not return.  Iteration latencies are the intervals
between consecutive ``callback`` calls of one solve.  With ``meter_speed`` the
callback also times the host-speed kernel every ``speed.EVERY`` iterations;
kernel runs are left out of the solve time and of the intervals.
"""

from __future__ import annotations

import contextlib
import hashlib
import logging
import math
import time
import warnings
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

import lovotr
from lovotr.bench import RunTrace, campaign_budget, data_profile, summarize_simplex_gradients
from lovotr.problem import EvalLedger

import speed
import tracing
import workloads

TAU = 1e-5
KAPPA = 100.0
# Spelled out rather than imported: they name per-layer metrics in BENCHMARK.json.
STATUSES = ("success", "stalled", "budget_exhausted", "maxcrit_exceeded")
KINDS = ("criticality", "unsuccessful", "acceptable_adjusted", "acceptable_plain",
         "successful_adjusted", "successful_plain", "altmov")
ACCEPTED_KINDS = ("acceptable_adjusted", "acceptable_plain",
                  "successful_adjusted", "successful_plain")


class CountingHandler(logging.Handler):
    """Counts the package's log records at WARNING and above."""

    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


@dataclass
class PassResult:
    """Totals of one pass over the workload."""

    wall_s: float = 0.0
    attempted: int = 0
    iterations: int = 0
    component_evals: int = 0
    intervals_s: dict = field(default_factory=dict)   # position -> callback intervals
    tail_s: dict = field(default_factory=dict)        # position -> last callback to return
    kernel_s: dict = field(default_factory=dict)      # position -> kernel timings
    failures: list = field(default_factory=list)  # (problem id, reason)
    statuses: Counter = field(default_factory=Counter)
    kinds: Counter = field(default_factory=Counter)
    frozen_repairs: int = 0
    evals_after_best: int = 0
    tr_candidates: int = 0
    tr_accepted: int = 0
    tr_cheap: int = 0
    thin_box_warnings: int = 0
    log_warnings: int = 0
    best_values: dict = field(default_factory=dict)  # problem id -> best certified
    solved_frac: float = 0.0
    kappa_p50: float = math.inf
    digest: str = ""

    @property
    def failed(self) -> int:
        return len({pid for pid, _ in self.failures})


def check_run(problem, oracles, result, budget) -> list:
    """Reasons the run's outputs are wrong; empty when all checks pass."""
    reasons = []
    if result.status not in STATUSES:
        reasons.append(f"unknown status {result.status!r}")
    x = np.asarray(result.x_final, dtype=float)
    if not problem.box.contains(x):
        reasons.append("x_final outside the box")
    else:
        f_min = min(float(fn(x)) for fn in oracles)
        if f_min != result.f_final:
            reasons.append(f"f_final {result.f_final!r} != min_i f_i(x_final) {f_min!r}")
    trace = result.ledger.trace
    if not trace:
        reasons.append("no certified value")
    if any(b.value >= a.value or b.t_component < a.t_component
           for a, b in zip(trace, trace[1:])):
        reasons.append("certified trace not monotone")
    overshoot = result.ledger.total_component_evals - budget
    if overshoot > problem.r - 1:
        reasons.append(f"budget overshoot {overshoot} > r-1")
    return reasons


def _digest_update(h, pid: str, result):
    h.update(pid.encode())
    for o in result.history:
        h.update(f"{o.kind},{float(o.rho).hex()},{float(o.delta).hex()},"
                 f"{float(o.Delta).hex()},{o.index},{o.evals_total};".encode())
    h.update(float(result.f_final).hex().encode())


def run_pass(workload, oracles: list, order: list, tracer=None,
             meter_speed: bool = False, score: bool = True) -> PassResult:
    """Solve the workload's problems in ``order`` once; ``tracer`` adds spans.

    ``score`` computes the data profile, which needs the reference values.
    """
    out = PassResult()
    handler = CountingHandler()
    logger = logging.getLogger("lovotr")
    logger.addHandler(handler)
    results = {}
    budgets = {}
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t_pass = time.perf_counter()
            for pos in order:
                problem = workload.problems[pos]
                budget = campaign_budget(problem, workload.n_max, "component")
                config = replace(workload.config, budget=budget)
                ledger = EvalLedger(problem.r, budget=budget, metering="component")
                if tracer is not None:
                    tracing.instrument_ledger(tracer, ledger)
                    tracer.problem = pos
                    with tracer.span(tracing.SOLVE):
                        timed = _solve(problem, config, ledger, meter_speed)
                else:
                    timed = _solve(problem, config, ledger, meter_speed)
                result, out.intervals_s[pos], out.tail_s[pos], out.kernel_s[pos] = timed
                results[pos] = result
                budgets[pos] = budget
                out.attempted += 1
            out.wall_s = time.perf_counter() - t_pass
        out.thin_box_warnings = len(caught)
    finally:
        logger.removeHandler(handler)
    out.log_warnings = handler.count

    digest = hashlib.sha256()
    traces = []
    for pos in sorted(results, key=lambda p: workload.ids[p]):
        pid, problem, result = workload.ids[pos], workload.problems[pos], results[pos]
        if isinstance(result, Exception):
            out.failures.append((pid, f"raised {type(result).__name__}: {result}"))
            continue
        out.failures.extend((pid, reason) for reason in
                            check_run(problem, oracles[pos], result, budgets[pos]))
        _digest_update(digest, pid, result)
        _count(out, result)
        samples = [(p.t_component, p.value) for p in result.ledger.trace]
        if not samples:
            continue
        traces.append(RunTrace(problem_name=pid, n_p=problem.n, r_p=problem.r,
                               metering="component", budget=budgets[pos],
                               f_x0=samples[0][1], samples=samples,
                               status=result.status))
    out.digest = digest.hexdigest()
    out.best_values = {tr.problem_name: tr.best_value for tr in traces}
    if not score:
        return out

    span = tracer.span(tracing.PROFILE) if tracer is not None else contextlib.nullcontext()
    with span:
        f_l = workloads.reference_values(workload, out.best_values)
        # runs without a trace (failed) count as unsolved
        profile = replace(data_profile(traces, TAU, f_l), n_problems=len(workload.ids))
        out.solved_frac = profile.fraction_at(KAPPA)
        out.kappa_p50 = summarize_simplex_gradients(profile, [0.5])[0][1]
    return out


def _solve(problem, config, ledger, meter_speed: bool):
    """(result or exception, callback intervals, tail seconds, kernel timings).

    The first interval runs from the call to the first callback, so it also
    holds the initial sample; the tail runs from the last callback to the
    return.  Kernel timing ``j`` follows the intervals ``EVERY*j`` to
    ``EVERY*j + EVERY - 1``; the last one follows the solve.
    """
    clock = time.perf_counter
    intervals = []
    kernels = []
    last = clock()

    def callback(k, outcome, led):
        nonlocal last
        now = clock()
        intervals.append(now - last)
        last = now
        if meter_speed and k % speed.EVERY == speed.EVERY - 1:
            kernels.append(speed.kernel_s())
            last = clock()

    try:
        result = lovotr.solve(problem, config, ledger=ledger, callback=callback)
    except Exception as exc:  # a failed run is counted, not fatal
        result = exc
    tail = clock() - last
    if meter_speed:
        kernels.append(speed.kernel_s())
    return result, np.asarray(intervals), tail, kernels


def _count(out: PassResult, result):
    out.statuses[result.status] += 1
    out.iterations += result.iterations
    evals = result.ledger.total_component_evals
    out.component_evals += evals
    trace = result.ledger.trace
    out.evals_after_best += evals - (trace[-1].t_component if trace else 0)
    for o in result.history:
        out.kinds[o.kind] += 1
        out.frozen_repairs += o.radii_frozen
        if o.rho_defined:
            out.tr_candidates += 1
            out.tr_accepted += o.kind in ACCEPTED_KINDS
            out.tr_cheap += o.rho_was_cheap
