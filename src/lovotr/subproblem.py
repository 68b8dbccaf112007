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
met first.  When the ball of radius ``2 Delta`` around the base lies inside
the box, no bound can be met before the ball, and the breakpoints and the
feasibility clamp are skipped: the rounded gap to every face exceeds the
first-segment step with a margin, so the breakpoint pass would take the same
first-segment step and the clamp would leave it unchanged, bit for bit.  A
path whose ``||g||^2`` overflows or underflows is traced along ``g`` scaled
by a power of two, which moves every breakpoint but not the path.  The path
has at most n breakpoints, so the cost is O(n log n), and no iterative scheme
is required.  The same path construction, run along both signs of a Lagrange
polynomial's gradient, yields the geometry-improvement step.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import GeometryError
from .model import LinearModel, SampleSet

# ||d|| = Delta is tested with this relative slack; exact equality is
# meaningless in floating point.
FULL_STEP_RTOL = 1e-10

# Smallest positive normal float.
_TINY = float(np.finfo(float).tiny)


def _room(base, box) -> float:
    """Distance from ``base`` to the nearest face of the box."""
    return float(np.minimum.reduce(np.minimum(base - box.lower, box.upper - base)))


def _trace_projected_path(base, direction, box, radius, room=None) -> np.ndarray:
    """Endpoint of ``t -> P(base + t * direction) - base`` traced to ``radius``.

    ``base`` must be feasible.  Returns the step at the first ``t`` with
    ``||d(t)|| = radius``, or the path's limit point once all moving
    coordinates are pinned at their bounds.  ``room`` passes in
    ``_room(base, box)`` when the caller has it.
    """
    a = float(direction @ direction)
    if not _TINY <= a < math.inf:
        # ||direction||^2 overflows or underflows.  A positive multiple traces
        # the same path; a power of two bringing the largest entry into
        # [0.5, 1) scales every entry exactly, barring underflow of entries
        # far below the largest, whose motion is below rounding anyway.
        direction = np.ldexp(direction, -np.frexp(np.maximum.reduce(np.abs(direction)))[1])
        a = float(direction @ direction)
    # First-segment root of ||t * direction|| = radius in the segment loop's
    # own arithmetic; NaN when nothing moves (or an entry is NaN or inf).
    rr = radius * radius
    s = math.sqrt(4.0 * a * rr) / (2.0 * a) if a > 0.0 else math.nan
    if room is None:
        room = _room(base, box)

    if 2.0 * radius <= room and s < math.inf and rr >= _TINY:
        # Interior ball, bit for bit what the breakpoint pass below returns.
        # A finite s means that a is a finite normal float and nothing
        # overflowed; with radius^2 normal, s ||direction|| <= sqrt(2) radius
        # (1 + O(n eps)), the sqrt(2) covering a subnormal 4 a radius^2 (a
        # subnormal radius^2 rounds twice, and reached 1.9 radius).  So a
        # moving coordinate j, whose gap g_j to its bound is at least
        # room >= 2 radius, has s |direction_j| < g_j.  Its breakpoint below
        # is fl(g_j / |direction_j|) (lower - base is -(base - lower)
        # exactly), so by monotone rounding the earliest breakpoint is
        # positive and at least s: the pass takes d = s * direction.  As
        # |d_j| < g_j by a margin, fl(base + d) lies in the box, and the
        # guard clamp leaves it unchanged.
        d = (base + s * direction) - base
    else:
        # Breakpoint of each coordinate: the t at which it reaches its bound.
        # Fixed coordinates get NaN, which sorts after every moving one, even
        # one whose breakpoint overflowed to inf.
        t_break = np.empty(base.size)
        t_break.fill(math.nan)
        np.divide(np.where(direction > 0.0, box.upper, box.lower) - base,
                  direction, out=t_break, where=direction != 0.0)
        # First segment in closed form: d(t) = t * direction up to the
        # earliest breakpoint, where s is exactly the loop's root.
        t_first = np.fmin.reduce(t_break)  # NaN only when nothing moves
        if 0.0 < t_first and s <= t_first:
            d = s * direction
        else:
            d = _trace_segments(base, direction, box, radius, t_break)
        # Roundoff guard: the endpoint must be feasible.
        d = np.minimum(np.maximum(base + d, box.lower), box.upper) - base

    # Roundoff guard: the endpoint must lie inside the ball.
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
    if not np.logical_or.reduce(model.g):  # np.any without its Python wrapper
        return np.zeros_like(model.g)
    return _trace_projected_path(model.base, -model.g, box, Delta)


def select_target_for_altmov(sample: SampleSet, dist=None) -> int:
    """Index of the non-base sample point farthest from the base (ties: largest index).

    ``dist`` passes in the distances of rows 1..n from the base when the
    caller has already computed them.
    """
    if dist is None:
        diff = sample.points[1:] - sample.base
        dist = np.sqrt(np.add.reduce(diff * diff, axis=1))  # norm(diff, axis=1)
    return dist.size - int(dist[::-1].argmax())  # last maximum, as a row 1..n


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
    inv = sample._factorize()
    c, w = float(inv[0, target_index]), inv[1:, target_index]
    if not np.logical_or.reduce(w):
        raise GeometryError(
            f"Lagrange polynomial of point {target_index} has zero gradient; "
            "the sample set must be rebuilt"
        )
    base = sample.base

    def weight(d):  # |l_target(base + d)|
        return abs(c + float(w @ ((base + d) - base)))

    room = _room(base, box)
    d_plus = _trace_projected_path(base, w, box, delta, room)
    d_minus = _trace_projected_path(base, -w, box, delta, room)
    d = d_plus if weight(d_plus) >= weight(d_minus) else d_minus
    flat = not (np.logical_or.reduce(d_plus) or np.logical_or.reduce(d_minus))
    return d, flat
