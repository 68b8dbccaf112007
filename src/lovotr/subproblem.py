"""Trust-region and geometry-improvement steps for linear models on a box.

With a linear model the trust-region subproblem -- minimize ``g . d`` subject
to ``base + d`` in the box and ``||d|| <= Delta`` -- is solved exactly by
tracing the piecewise-linear projected-gradient path

    d(t) = P(base - t g) - base,   t >= 0.

Each coordinate moves linearly until it reaches its bound (its breakpoint) and
is pinned there; the trace stops at the first ``t`` where ``||d(t)|| = Delta``
or where every descending coordinate is pinned, whichever comes first.  A loop
over the sorted breakpoints traces it one segment at a time, the first segment
included.  The one shortcut is the interior ball: when the ball of radius
``2 Delta`` around the base lies inside the box, no bound can be met before
the ball, and the breakpoints and the feasibility clamp are skipped: the
rounded gap to every face exceeds the first-segment step with a margin, so the
loop would take the same first-segment step and the clamp would leave it
unchanged, bit for bit.  A path on which ``||g||^2``, ``Delta^2`` or their
product overflows or underflows is traced from the origin in units of a power
of two near ``Delta``, with the gaps to the bounds scaled alike, and along
``g`` scaled by a power of two, which moves every breakpoint but not the path.
The path has at most n breakpoints, so the cost is O(n log n), and no
iterative scheme is required.  The same path construction,
run along both signs of a Lagrange polynomial's gradient, yields the
geometry-improvement step.  In the interior ball the two signs share the
squared norm and the first-segment length ``s``, so ``altmov_linear`` forms
``s w`` once and takes both endpoints from it: negation is exact, so this is
bit for bit the two traces.  The distance from the base to the box, which
decides the interior ball, is cached by the sample set until the base moves
(``SampleSet.room``); both steps read it there.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from .errors import GeometryError
from .model import LinearModel, SampleSet, _room

# ||d|| = Delta is tested with this relative slack; exact equality is
# meaningless in floating point.
FULL_STEP_RTOL = 1e-10

# Smallest positive normal float.
_TINY = float(np.finfo(float).tiny)


def _trace_projected_path(base, direction, box, radius, room=None):
    """Endpoint of ``t -> P(base + t * direction) - base`` traced to ``radius``.

    ``base`` must be feasible.  Returns ``(d, sq)`` as ``_into_ball`` does:
    the step at the first ``t`` with ``||d(t)|| = radius``, or the path's
    limit point once all moving coordinates are pinned at their bounds.
    ``room`` passes in ``_room(base, box)`` when the caller has it.

    Both properties of the endpoint hold up to rounding only.  ``_into_ball``
    scales an endpoint outside the ball back onto it, and the scaled step can
    still exceed ``radius`` by a few ulps (2 eps relative at most in 80,000
    random traces).  The clamp makes ``base + d`` feasible before ``base`` is
    subtracted again, but that subtraction, the scaling and the later sum
    ``base + d`` each round, so ``base + d`` can leave the box: it did in 1.2%
    of those traces, by at most one spacing of ``max(|base_j|, |d_j|)`` per
    coordinate.  A caller that evaluates ``base + d`` projects it first.
    """
    a = float(direction.dot(direction))
    rr = radius * radius
    q = 4.0 * a * rr  # the segment loop's discriminants lie within 2 q
    if (not _normal_squares(a, rr, q)
            and 0.0 < radius < math.inf and np.isfinite(direction).all()
            and direction.any()):
        # A square overflows or underflows.  The path depends on base and box
        # only through the gaps to the bounds, and on direction only up to a
        # positive factor, so trace it from the origin in units of 2^e, with
        # e from frexp(radius), along direction scaled by the power of two
        # that brings its largest entry into [0.5, 1): radius is then in
        # [0.5, 1) and a in [0.25, n).  Every scaling is exact barring
        # underflow of entries far below the largest, whose motion is below
        # rounding anyway, and a gap that overflows lies beyond any step.
        e = math.frexp(radius)[1]
        with np.errstate(over="ignore"):
            gaps = SimpleNamespace(lower=np.ldexp(box.lower - base, -e),
                                   upper=np.ldexp(box.upper - base, -e))
        unit = np.ldexp(direction, -np.frexp(np.maximum.reduce(np.abs(direction)))[1])
        d, _ = _trace_projected_path(np.zeros(base.size), unit, gaps, math.ldexp(radius, -e))
        d = np.minimum(np.maximum(base + np.ldexp(d, e), box.lower), box.upper) - base
        return _into_ball(d, radius)
    # First-segment root of ||t * direction|| = radius in the segment loop's
    # own arithmetic; NaN when nothing moves (or an entry is NaN or inf).
    s = math.sqrt(q) / (2.0 * a) if a > 0.0 else math.nan
    if room is None:
        room = _room(base, box)

    if 2.0 * radius <= room and s < math.inf:
        # Interior ball, bit for bit what the segment loop below returns.
        # A finite s and a positive radius mean that a, radius^2 and q are
        # normal floats here, so s ||direction|| <= radius (1 + O(n eps)).
        # So a moving coordinate j, whose gap g_j to its bound is at least
        # room >= 2 radius, has s |direction_j| < g_j.  Its breakpoint in the
        # loop is fl(g_j / |direction_j|) (lower - base is -(base - lower)
        # exactly), so by monotone rounding the earliest breakpoint is
        # positive and at least s: the loop's first segment ends at
        # d = s * direction.  As |d_j| < g_j by a margin, fl(base + d) lies
        # in the box, and the guard clamp leaves it unchanged.
        d = (base + s * direction) - base
    else:
        d = _trace_segments(base, direction, box, radius)
        # Roundoff guard: the endpoint must be feasible.
        d = np.minimum(np.maximum(base + d, box.lower), box.upper) - base

    return _into_ball(d, radius)


def _normal_squares(a, rr, q) -> bool:
    """``||direction||^2``, ``radius^2`` and ``q = 4 a rr`` are normal, with ``2 q`` finite."""
    return a >= _TINY and rr >= _TINY and _TINY <= q and 2.0 * q < math.inf


def _into_ball(d, radius):
    """Roundoff guard: ``d`` scaled onto the ball when it ends outside it.

    A step whose ``||d||^2`` overflows takes its norm without squaring.
    Returns ``(d, sq)``, with ``sq`` the square the guard formed: ``d.dot(d)``,
    or ``radius^2`` once ``d`` is scaled onto the ball.  So ``sq > 0`` means
    ``d`` is nonzero (scaling keeps an entry of at least about
    ``radius / sqrt(n)``), while ``sq == 0`` leaves a zero ``d`` or a square
    that underflowed.
    """
    sq = float(d.dot(d))
    norm = math.sqrt(sq) if sq < math.inf else math.hypot(*d.tolist())
    if norm > radius:
        d *= radius / norm
        sq = radius * radius
    return d, sq


def _trace_segments(base, direction, box, radius) -> np.ndarray:
    """The path trace segment by segment, from breakpoints it computes itself."""
    # Breakpoint of each coordinate: the t at which it reaches its bound.
    # Fixed coordinates get NaN, which sorts after every moving one, even one
    # whose breakpoint overflowed to inf.
    t_break = np.empty(base.size)
    t_break.fill(math.nan)
    np.divide(np.where(direction > 0.0, box.upper, box.lower) - base,
              direction, out=t_break, where=direction != 0.0)
    d = np.zeros(base.size)
    v = direction.copy()  # velocity; a coordinate's entry is zeroed when it pins
    t_cur = 0.0
    for j in np.argsort(t_break)[:np.count_nonzero(direction)].tolist() + [None]:
        t_next = math.inf if j is None else max(t_break[j], t_cur)
        a = float(v.dot(v))
        if a > 0.0 and t_next > t_cur:
            # First s with ||d + s v|| = radius on this segment.
            b = 2.0 * float(d.dot(v))
            c = float(d.dot(d)) - radius * radius
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


def trsbox_linear(model: LinearModel, box, Delta: float, room=None) -> np.ndarray:
    """Step minimizing the linear model over box-and-ball, by an exact path trace.

    Returns ``d`` with ``||d|| <= Delta`` and ``base + d`` in the box, both up
    to rounding as ``_trace_projected_path`` states: ``||d||`` may exceed
    ``Delta`` by a few ulps, and ``project(base + d)`` may move a coordinate of
    ``base + d`` by up to one spacing of ``max(|base_j|, |d_j|)``.  The solver
    projects ``base + d`` before it evaluates there.  A zero model gradient
    yields the zero step.  ``room`` passes in the distance from
    ``model.base`` to the nearest face of the box when the caller has it
    (``SampleSet.room`` caches it).  A radius that is not positive, NaN
    included, raises ``ValueError``.
    """
    if not Delta > 0:  # NaN included
        raise ValueError("Delta must be positive")
    return _trace_projected_path(model.base, -model.g, box, Delta, room)[0]


def select_target_for_altmov(sample: SampleSet) -> int:
    """Index of the non-base sample point farthest from the base (ties: largest index).

    The distances are the sample's cache (``SampleSet.distances``).
    """
    dist = sample.distances()
    return dist.size - int(dist[::-1].argmax())  # last maximum, as a row 1..n


def altmov_linear(sample: SampleSet, box, delta: float, target_index: int):
    """Geometry-improvement step maximizing ``|l_target|`` within ``delta`` of the base.

    The affine Lagrange polynomial of the replacement target is pushed along
    both signed projected-gradient paths (the same construction as the
    trust-region step) and the better endpoint is returned.  The step is exact,
    clipped by the box or not: ``l_target`` is affine, so over the convex set
    box-and-ball its range is an interval; each trace attains one end of it,
    as ``trsbox_linear`` does, and the better end maximizes ``|l_target|``.
    Ties go to the positive direction.  The polynomial's constant term and
    gradient are column ``target_index`` of the sample's cached inverse.
    When the interior-ball branch of the trace applies, it applies to both
    signs, which share ``||w||^2`` and the first-segment length ``s``: both
    endpoints come from one ``s w``, bit for bit the two traces, as negation
    is exact.  Whether ``w`` or an endpoint is zero is read off its square,
    ``w.dot(w)`` or the one ``_into_ball`` formed; only a square of zero, which
    may have underflowed, sends the test to the entries themselves.

    Returns ``(d, flat)``; ``flat`` signals that both paths were clipped to
    zero length, so the sample cannot be improved within this radius.
    """
    if not 1 <= target_index < sample.npt:
        raise ValueError(f"target index {target_index} outside 1..{sample.npt - 1}")
    if not delta > 0:  # NaN included
        raise ValueError("delta must be positive")
    inv = sample._factorize()
    c, w = float(inv[0, target_index]), inv[1:, target_index]
    a = float(w.dot(w))
    if not a > 0.0 and not np.logical_or.reduce(w):
        raise GeometryError(
            f"Lagrange polynomial of point {target_index} has zero gradient; "
            "the sample set must be rebuilt"
        )
    base = sample.base

    def weight(d):  # |l_target(base + d)|
        return abs(c + float(w.dot((base + d) - base)))

    room = sample.room(box)
    rr = delta * delta
    q = 4.0 * a * rr
    s = math.sqrt(q) / (2.0 * a) if _normal_squares(a, rr, q) else math.inf
    if 2.0 * delta <= room and s < math.inf:
        # The interior branch of _trace_projected_path, once for both signs.
        sw = s * w
        d_plus, sq_plus = _into_ball((base + sw) - base, delta)
        d_minus, sq_minus = _into_ball((base - sw) - base, delta)
    else:
        d_plus, sq_plus = _trace_projected_path(base, w, box, delta, room)
        d_minus, sq_minus = _trace_projected_path(base, -w, box, delta, room)
    d = d_plus if weight(d_plus) >= weight(d_minus) else d_minus
    flat = not (sq_plus > 0.0 or sq_minus > 0.0
                or np.logical_or.reduce(d_plus) or np.logical_or.reduce(d_minus))
    return d, flat
