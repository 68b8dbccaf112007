"""Trust-region and geometry-improvement steps for linear models on a box.

With a linear model the trust-region subproblem -- minimize ``g . d`` subject
to ``base + d`` in the box and ``||d|| <= Delta`` -- is solved exactly by
tracing the piecewise-linear projected-gradient path

    d(t) = P(base - t g) - base,   t >= 0.

Each coordinate moves linearly until it reaches its bound (its breakpoint) and
is pinned there; the trace stops at the first ``t`` where ``||d(t)|| = Delta``
or where every descending coordinate is pinned, whichever comes first.  The
first segment, up to the earliest breakpoint, is closed-form: when the ball is
met there the step is ``-t g`` at the root ``t`` the segment loop would
compute, and the loop over the sorted breakpoints runs only when a bound is
met first.  The path has at most n breakpoints, so the cost is O(n log n), and
no iterative scheme is required.  The same path construction, run along both
signs of a Lagrange polynomial's gradient, yields the geometry-improvement
step.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import GeometryError
from .model import LinearModel, SampleSet

# ||d|| = Delta is tested with this relative slack; exact equality is
# meaningless in floating point.
FULL_STEP_RTOL = 1e-10


def _trace_projected_path(base, direction, box, radius) -> np.ndarray:
    """Endpoint of ``t -> P(base + t * direction) - base`` traced to ``radius``.

    ``base`` must be feasible.  Returns the step at the first ``t`` with
    ``||d(t)|| = radius``, or the path's limit point once all moving
    coordinates are pinned at their bounds.
    """
    # Breakpoint of each coordinate: the t at which it reaches its bound.
    # Fixed coordinates get NaN, which sorts after every moving one, even one
    # whose breakpoint overflowed to inf.
    t_break = np.divide(np.where(direction > 0.0, box.upper, box.lower) - base,
                        direction, out=np.full(base.size, np.nan),
                        where=direction != 0.0)

    # First segment in closed form: d(t) = t * direction up to the earliest
    # breakpoint.  ``s`` is the segment loop's root for d = 0 in the loop's
    # own arithmetic, so this branch returns exactly what the loop would.
    a = float(direction @ direction)
    s = math.sqrt(4.0 * a * (radius * radius)) / (2.0 * a) if a > 0.0 else math.nan
    t_first = np.fmin.reduce(t_break)  # NaN only when nothing moves
    if 0.0 < t_first and s <= t_first:
        d = s * direction
    else:
        d = _trace_segments(base, direction, box, radius, t_break)

    # Roundoff guards: the endpoint must be feasible and inside the ball.
    d = np.minimum(np.maximum(base + d, box.lower), box.upper) - base
    norm = math.sqrt(d @ d)
    if norm > radius:
        d *= radius / norm
    return d


def _trace_segments(base, direction, box, radius, t_break) -> np.ndarray:
    """The path trace segment by segment, pinning one coordinate per breakpoint."""
    d = np.zeros(base.size)
    v = direction.copy()  # velocity; a coordinate's entry is zeroed when it pins
    t_cur = 0.0
    for j in np.argsort(t_break)[:np.count_nonzero(direction)].tolist() + [None]:
        t_next = math.inf if j is None else max(t_break[j], t_cur)
        a = float(v @ v)
        if a > 0.0 and t_next > t_cur:
            # First s with ||d + s v|| = radius on this segment.
            b = 2.0 * float(d @ v)
            c = float(d @ d) - radius * radius
            disc = b * b - 4.0 * a * c
            if disc >= 0.0:
                s = (-b + math.sqrt(disc)) / (2.0 * a)
                if 0.0 <= s <= t_next - t_cur:
                    return d + s * v
            if j is None:
                # Unbounded segment that never meets the radius cannot occur:
                # ||d|| grows without bound along any nonzero direction.
                raise AssertionError("unbounded projected-gradient segment")
            d = d + (t_next - t_cur) * v
        if j is None:
            return d
        # Pin the coordinate exactly at its bound.
        d[j] = (box.upper[j] if direction[j] > 0 else box.lower[j]) - base[j]
        v[j] = 0.0
        t_cur = t_next


def trsbox_linear(model: LinearModel, box, Delta: float) -> np.ndarray:
    """Step minimizing the linear model over box-and-ball, by an exact path trace.

    Returns ``d`` with ``base + d`` feasible and ``||d|| <= Delta`` (up to a
    1e-12 relative roundoff allowance, which the trace enforces by scaling).
    A zero model gradient yields the zero step.
    """
    if Delta <= 0:
        raise ValueError("Delta must be positive")
    if not np.any(model.g):
        return np.zeros_like(model.g)
    return _trace_projected_path(model.base, -model.g, box, Delta)


def check_sufficient_decrease(model: LinearModel, d, pi: float, Delta: float,
                              theta: float = 0.01) -> bool:
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


def select_target_for_altmov(sample: SampleSet, dist=None) -> int:
    """Index of the non-base sample point farthest from the base (ties: largest index).

    ``dist`` passes in the distances of rows 1..n from the base when the
    caller has already computed them.
    """
    if dist is None:
        diff = sample.points[1:] - sample.base
        dist = np.sqrt(np.add.reduce(diff * diff, axis=1))  # norm(diff, axis=1)
    return dist.size - int(np.argmax(dist[::-1]))  # last maximum, as a row 1..n


def altmov_linear(sample: SampleSet, box, delta: float, target_index: int):
    """Geometry-improvement step maximizing ``|l_target|`` within ``delta`` of the base.

    The affine Lagrange polynomial of the replacement target is pushed along
    both signed projected-gradient paths (the same construction as the
    trust-region step) and the better endpoint is returned; this is exact when
    the box is inactive and a two-endpoint heuristic once it clips.  Ties go to
    the positive direction.  The polynomial's constant term and gradient are
    column ``target_index`` of the sample's cached inverse.

    Returns ``(d, flat)``; ``flat`` signals that both paths were clipped to
    zero length, so the sample cannot be improved within this radius.
    """
    if not 1 <= target_index < sample.npt:
        raise ValueError(f"target index {target_index} outside 1..{sample.npt - 1}")
    if delta <= 0:
        raise ValueError("delta must be positive")
    inv, _ = sample._factorize()
    c, w = float(inv[0, target_index]), inv[1:, target_index]
    if not np.any(w):
        raise GeometryError(
            f"Lagrange polynomial of point {target_index} has zero gradient; "
            "the sample set must be rebuilt"
        )
    base = sample.base

    def weight(d):  # |l_target(base + d)|
        return abs(c + float(w @ ((base + d) - base)))

    d_plus = _trace_projected_path(base, w, box, delta)
    d_minus = _trace_projected_path(base, -w, box, delta)
    d = d_plus if weight(d_plus) >= weight(d_minus) else d_minus
    flat = not (np.any(d_plus) or np.any(d_minus))
    return d, flat
