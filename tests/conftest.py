import os

# One BLAS thread, as perfbench/run.py sets: the solver's algebra is n <= 12,
# where a thread pool costs more than it saves.  BLAS reads these once, when
# numpy is first imported, so they are set before that import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import math
from collections import Counter

import numpy as np
import pytest

from lovotr.solver import (
    DELTA_MIN,
    ETA,
    ETA1,
    ETA2,
    GAMMA_MAX,
    NOISE_RADIUS_FACTOR,
    RADIUS0,
    TAU1,
    TAU2,
    TAU3,
    TAU4,
)


def central_diff_gradient(f, x, h=1e-6):
    """Independent gradient oracle: central differences, coordinate by coordinate."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def count_calls(problem):
    """Wrap every component's ``fn`` in place; the Counter counts calls by index.

    A rebound ``fn`` turns the problem's batch oracle off, so every component
    value comes through the wrapper.
    """
    calls = Counter()
    for comp in problem.components:
        def counting(x, _index=comp.index, _fn=comp.fn):
            calls[_index] += 1
            return _fn(x)
        comp.fn = counting
    return calls


def active_set(values):
    """The 1-based indices whose value equals the minimum exactly."""
    return {int(i) + 1 for i in np.nonzero(values == values.min())[0]}


def check_sufficient_decrease(model, d, pi, Delta, theta=0.01):
    """Whether the step achieves the benchmark fraction of projected-gradient decrease.

    For a linear model the condition reads

        m(base) - m(base + d) >= theta * pi * min(pi, Delta, 1)

    (the Hessian term in the general denominator is zero).  The solver does
    not call it: the exact path trace satisfies it for any positive ``theta``
    small enough, which acceptance criterion 5 audits over 1000 steps.
    """
    v = np.asarray(d, dtype=float)
    if v.shape != model.base.shape:
        raise ValueError(f"step has shape {v.shape}, expected {model.base.shape}")
    decrease = -float(model.g @ v)
    return decrease >= theta * pi * min(pi, Delta, 1.0)


def replay_radii(history):
    """Independent re-implementation of the radii state machine.

    Walks the logged (rho, swap, full-length) stream through the four phase
    rules, at the solver's threshold constants, from both radii at
    ``RADIUS0``, and returns the (delta, Delta) pair after every iteration.
    Every update stops at the noise floor ``max(DELTA_MIN, c * sqrt(eps *
    |fx|))`` of the value ``fx`` the iteration committed.  Every geometry
    iteration (``altmov``) shrinks both radii by ``TAU1`` and leaves the
    ``Gamma`` counter alone, whatever ratio a refused candidate had, except
    frozen repairs, which leave the radii alone too.
    """
    delta = Delta = RADIUS0
    gamma = 0
    out = []
    for o in history:
        floor = max(DELTA_MIN,
                    NOISE_RADIUS_FACTOR * math.sqrt(np.finfo(float).eps * abs(o.fx)))
        if o.kind == "criticality":
            factors = (TAU1, 0.5 * (TAU1 + TAU2))
        elif o.kind == "altmov":
            factors = None if o.radii_frozen else (TAU1, TAU1)
        else:
            if o.rho >= ETA1:
                gamma = 0
            adjusted = o.rho >= ETA and o.index_swapped and gamma <= GAMMA_MAX
            if adjusted:
                factors = (TAU4, TAU4)
                gamma += 1
            elif o.rho < ETA1:
                factors = (TAU1, TAU1)
            elif o.rho > ETA2 and o.full_length:
                factors = (TAU3, TAU3)
            else:
                factors = (1.0, 1.0)
        if factors is not None:
            delta = max(delta * factors[0], floor)
            Delta = max(Delta * factors[1], floor)
        out.append((delta, Delta))
    return out


def assert_radii_replay(history):
    replayed = replay_radii(history)
    for o, (delta, Delta) in zip(history, replayed):
        assert o.delta == delta and o.Delta == Delta, (
            f"radii diverge at k={o.k} ({o.kind}): "
            f"logged ({o.delta}, {o.Delta}), replayed ({delta}, {Delta})"
        )


def adjustment_counts(history):
    """(|acceptable with adjustment|, |successful|) over a history."""
    adjusted_acceptable = sum(
        1 for o in history if o.kind == "acceptable_adjusted"
    )
    successful = sum(
        1 for o in history
        if o.kind in ("successful_plain", "successful_adjusted")
    )
    return adjusted_acceptable, successful


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
