import os

# One BLAS thread, as perfbench/run.py sets: the solver's algebra is n <= 12,
# where a thread pool costs more than it saves.  BLAS reads these once, when
# numpy is first imported, so they are set before that import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import math

import numpy as np
import pytest

from lovotr.solver import NOISE_RADIUS_FACTOR


def central_diff_gradient(f, x, h=1e-6):
    """Independent gradient oracle: central differences, coordinate by coordinate."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def replay_radii(config, history):
    """Independent re-implementation of the radii state machine.

    Walks the logged (rho, swap, full-length) stream through the four phase
    rules and returns the (delta, Delta) pair after every iteration.  Every
    update stops at the noise floor ``max(delta_min, c * sqrt(eps * |fx|))``
    of the value ``fx`` the iteration committed; frozen repairs leave both
    radii alone.
    """
    delta, Delta = config.delta0, config.Delta0
    gamma = 0
    out = []
    for o in history:
        floor = max(config.delta_min,
                    NOISE_RADIUS_FACTOR * math.sqrt(np.finfo(float).eps * abs(o.fx)))
        if o.kind == "criticality":
            factors = (config.tau1, 0.5 * (config.tau1 + config.tau2))
        elif o.kind == "altmov" and not o.rho_defined:
            factors = None if o.radii_frozen else (config.tau1, config.tau1)
        else:
            if o.rho >= config.eta1:
                gamma = 0
            adjusted = (o.rho >= config.eta and o.index_swapped
                        and gamma <= config.Gamma_max)
            if adjusted:
                factors = (config.tau4, config.tau4)
                gamma += 1
            elif o.rho < config.eta1:
                factors = (config.tau1, config.tau1)
            elif o.rho > config.eta2 and o.full_length:
                factors = (config.tau3, config.tau3)
            else:
                factors = (1.0, 1.0)
        if factors is not None:
            delta = max(delta * factors[0], floor)
            Delta = max(Delta * factors[1], floor)
        out.append((delta, Delta))
    return out


def assert_radii_replay(config, history):
    replayed = replay_radii(config, history)
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
