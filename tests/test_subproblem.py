import math
from collections import Counter

import numpy as np
import pytest

from conftest import check_sufficient_decrease
from lovotr.errors import GeometryError
from lovotr.model import (
    LinearModel,
    SampleSet,
    _lagrange_values_at,
    model_stationarity,
)
from lovotr.problem import FeasibleBox
from lovotr.subproblem import (
    _face_distance,
    _trace_projected_path,
    altmov_linear,
    select_target_for_altmov,
    trsbox_linear,
)


def model(base, g):
    return LinearModel(index=1, base=np.asarray(base, float), fx=0.0,
                       g=np.asarray(g, float))


def scaled_box_and_base(rng, n, scale, on_face):
    """A box of widths up to 5 * scale and a base on each face with probability ``on_face``."""
    lower = rng.uniform(-5, 0, n) * scale
    upper = lower + rng.uniform(0.01, 5, n) * scale
    pin = rng.random(n)
    base = np.where(pin < on_face, lower,
                    np.where(pin > 1.0 - on_face, upper, rng.uniform(lower, upper)))
    return FeasibleBox(lower, upper), base


def within_rounding(box, base, d, radius):
    """Assert the subproblems' guarantee; return whether ``base + d`` is off the box.

    ``||d||`` exceeds ``radius`` by a few ulps at most, and projecting
    ``base + d`` moves a coordinate by at most one spacing of
    ``max(|base_j|, |d_j|)``.
    """
    assert math.sqrt(math.fsum((d * d).tolist())) <= radius * (1.0 + 4.0 * np.finfo(float).eps)
    x = base + d
    moved = np.abs(box.project(x) - x)
    assert np.all(moved <= np.spacing(np.maximum(np.abs(base), np.abs(d))))
    return bool(moved.any())


def grid_best_step(g, base, box, Delta, points_per_dim):
    """Brute-force oracle: best objective value over a grid of box-and-ball."""
    n = base.size
    axes = [
        np.linspace(
            max(box.lower[j] - base[j], -Delta),
            min(box.upper[j] - base[j], Delta),
            points_per_dim,
        )
        for j in range(n)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    d = np.stack([m.ravel() for m in mesh], axis=1)
    keep = np.einsum("ij,ij->i", d, d) <= Delta * Delta
    d = d[keep]
    obj = d @ np.asarray(g, float)
    return float(obj.min())


def reference_trace(base, direction, box, radius):
    """The path trace written plainly: every moving coordinate is filtered
    from a full sort, and the direction is rebuilt on every segment."""
    n = base.size
    d = np.zeros(n)
    moving = direction != 0.0
    t_break = np.full(n, np.inf)
    up = moving & (direction > 0)
    dn = moving & (direction < 0)
    t_break[up] = (box.upper[up] - base[up]) / direction[up]
    t_break[dn] = (box.lower[dn] - base[dn]) / direction[dn]
    order = [int(j) for j in np.argsort(t_break) if moving[j]]
    t_cur = 0.0
    for j in order + [None]:
        t_next = math.inf if j is None else max(t_break[j], t_cur)
        v = np.where(moving, direction, 0.0)
        a = float(v @ v)
        if a > 0.0 and t_next > t_cur:
            b = 2.0 * float(d @ v)
            c = float(d @ d) - radius * radius
            disc = b * b - 4.0 * a * c
            if disc >= 0.0:
                s = (-b + math.sqrt(disc)) / (2.0 * a)
                if 0.0 <= s <= t_next - t_cur:
                    d = d + s * v
                    break
            d = d + (t_next - t_cur) * v
        if j is None:
            break
        d[j] = (box.upper[j] if direction[j] > 0 else box.lower[j]) - base[j]
        moving[j] = False
        t_cur = t_next
    d = np.clip(base + d, box.lower, box.upper) - base
    norm = float(np.linalg.norm(d))
    if norm == math.inf:  # the norm squares d, and ||d||^2 overflowed
        norm = math.hypot(*d)
    if norm > radius:
        d *= radius / norm
    return d


def max_linear_2d(u, lo, hi, r):
    """Brute-force maximum of ``u . d`` over the box [lo, hi] cut by the ball ``||d|| <= r``.

    A linear function on this convex set peaks at a vertex of its boundary:
    a box corner inside the ball, a crossing of a box edge with the circle,
    or the circle's point along ``u``.  Every candidate is tried.
    """
    cands = [np.array([x, y]) for x in (lo[0], hi[0]) for y in (lo[1], hi[1])]
    cands.append(r * u / math.hypot(*u))
    for j in range(2):
        for b in (lo[j], hi[j]):
            if abs(b) <= r:
                h = math.sqrt(r * r - b * b)
                for t in (h, -h):
                    p = np.empty(2)
                    p[j], p[1 - j] = b, t
                    cands.append(p)
    return max(float(u @ p) for p in cands
               if np.all(p >= lo) and np.all(p <= hi) and p @ p <= r * r * (1 + 1e-15))


class TestTrsbox:
    def test_ball_binds_in_the_interior(self):
        box = FeasibleBox([0, 0], [10, 10])
        d = trsbox_linear(model([5, 5], [1, 0]), box, 2.0)
        assert d == pytest.approx([-2.0, 0.0], abs=1e-12)

    def test_lower_bound_binds_first(self):
        box = FeasibleBox([0, 0], [10, 10])
        d = trsbox_linear(model([1, 5], [1, 0]), box, 5.0)
        assert d == pytest.approx([-1.0, 0.0], abs=1e-12)

    def test_two_piece_path(self):
        # coordinate 1 pins at the bound, coordinate 2 runs to the ball
        box = FeasibleBox([0, 0], [10, 10])
        d = trsbox_linear(model([1, 5], [1, 1]), box, 5.0)
        assert d == pytest.approx([-1.0, -math.sqrt(24.0)], rel=1e-12)

    def test_zero_gradient(self):
        box = FeasibleBox([0], [1])
        assert np.array_equal(trsbox_linear(model([0.5], [0.0]), box, 1.0), [0.0])

    def test_signed_zero_gradient_gives_positive_zeros(self):
        # -g is (-0.0, 0.0); both the interior ball and the segment loop
        # return +0.0 in every coordinate
        box = FeasibleBox([0, 0], [1, 1])
        for base, Delta in (([0.5, 0.5], 0.1), ([0.5, 0.5], 1.0), ([0.0, 1.0], 0.1)):
            d = trsbox_linear(model(base, [0.0, -0.0]), box, Delta)
            assert np.array_equal(d, [0.0, 0.0])
            assert not np.any(np.signbit(d))

    def test_trace_matches_plain_reference(self, rng):
        def assert_same(base, direction, box, radius, room=None):
            got, _ = _trace_projected_path(base, direction, box, radius, room)
            ref = reference_trace(base, direction, box, radius)
            assert np.array_equal(got, ref)
            assert np.array_equal(np.signbit(got), np.signbit(ref))

        def first_segment(base, direction, box, radius):
            # (s, t_first) of the segment loop's first segment: the loop
            # stops there when s <= t_first
            moving = direction != 0.0
            bound = np.where(direction > 0.0, box.upper, box.lower)
            t_first = float(np.min((bound[moving] - base[moving]) / direction[moving]))
            a = float(direction @ direction)
            return math.sqrt(4.0 * a * (radius * radius)) / (2.0 * a), t_first

        # bases on a bound with the direction pointing out (pinned at t = 0),
        # zero direction entries and radii from inside to beyond the box
        for _ in range(400):
            n = int(rng.integers(1, 13))
            lower = rng.uniform(-3, 0, n)
            upper = lower + rng.uniform(0.1, 4, n)
            box = FeasibleBox(lower, upper)
            base = rng.uniform(lower, upper)
            direction = rng.standard_normal(n)
            at_lower = rng.random(n) < 0.2
            at_upper = ~at_lower & (rng.random(n) < 0.2)
            base[at_lower], base[at_upper] = lower[at_lower], upper[at_upper]
            direction[at_lower] = -np.abs(direction[at_lower])
            direction[at_upper] = np.abs(direction[at_upper])
            direction[rng.random(n) < 0.15] = 0.0
            if not np.any(direction):
                continue
            radius = float(10.0 ** rng.uniform(-3, 1))
            assert_same(base, direction, box, radius)

        # interior balls, most of them stopping on the first segment; signed
        # zeros in the base and the direction (a zero gradient entry negates
        # to -0.0)
        fast = 0
        for _ in range(600):
            n = int(rng.integers(1, 13))
            lower = rng.uniform(-3, -0.1, n)
            upper = rng.uniform(0.1, 3, n)
            box = FeasibleBox(lower, upper)
            base = rng.uniform(0.5 * lower, 0.5 * upper)
            base[rng.random(n) < 0.1] = rng.choice([0.0, -0.0])
            direction = rng.standard_normal(n)
            direction[rng.random(n) < 0.1] = rng.choice([0.0, -0.0])
            if not np.any(direction):
                continue
            radius = float(10.0 ** rng.uniform(-4, 0.5))
            s, t_first = first_segment(base, direction, box, radius)
            fast += s <= t_first
            assert_same(base, direction, box, radius)
        assert fast >= 300

        # balls touching the nearest bound, and one ulp of radius either side:
        # both sides of the first-segment test are reached
        sides = set()
        for _ in range(300):
            n = int(rng.integers(1, 13))
            lower = rng.uniform(-3, -0.1, n)
            upper = rng.uniform(0.1, 3, n)
            box = FeasibleBox(lower, upper)
            base = rng.uniform(0.5 * lower, 0.5 * upper)
            direction = rng.standard_normal(n)
            _, t_first = first_segment(base, direction, box, 1.0)
            touch = t_first * math.sqrt(float(direction @ direction))
            for radius in (np.nextafter(touch, 0.0), touch, np.nextafter(touch, np.inf)):
                s, _ = first_segment(base, direction, box, float(radius))
                sides.add(bool(s <= t_first))
                assert_same(base, direction, box, float(radius))
        assert sides == {True, False}

        # the interior branch, taken when 2 radius <= room: radii at half the
        # room and one ulp either side, and smaller ones; bases of magnitude
        # 1e6..1e12, where base + s d rounds, and bases on a face; room passed
        # in and computed inside
        interior = set()
        for _ in range(300):
            n = int(rng.integers(1, 13))
            shift = 10.0 ** rng.uniform(6, 12) if rng.random() < 0.5 else 0.0
            lower = shift + rng.uniform(-3, -0.1, n)
            upper = shift + rng.uniform(0.1, 3, n)
            box = FeasibleBox(lower, upper)
            base = rng.uniform(lower, upper)
            face = rng.random(n) < 0.05
            base[face] = np.where(rng.random(n) < 0.5, lower, upper)[face]
            direction = rng.standard_normal(n)
            direction[rng.random(n) < 0.1] = rng.choice([0.0, -0.0])
            if not np.any(direction):
                continue
            room = _face_distance(base, box)
            half = 0.5 * room
            radii = [float(10.0 ** rng.uniform(-4, 0))]
            if half > 0.0:
                radii += [float(np.nextafter(half, 0.0)), half,
                          float(np.nextafter(half, np.inf)),
                          half * float(10.0 ** rng.uniform(-4, 0))]
            for radius in radii:
                interior.add(2.0 * radius <= room)
                assert_same(base, direction, box, radius, room)
                assert_same(base, direction, box, radius)
        assert interior == {True, False}

    def test_overflowing_and_underflowing_norms(self):
        # ||g||^2 overflows or underflows; the path is the one of g scaled
        box = FeasibleBox([0, 0], [1, 1])
        base = np.array([0.5, 0.5])
        d = trsbox_linear(model(base, [1e160, 3e159]), box, 0.1)
        assert d == pytest.approx(-0.1 * np.array([1.0, 0.3]) / math.sqrt(1.09), rel=1e-12)
        d = trsbox_linear(model(base, [3e-162, 1e-162]), box, 0.1)
        assert d == pytest.approx(-0.1 * np.array([3.0, 1.0]) / math.sqrt(10.0), rel=1e-12)
        for direction in ([1e200, 1e200], [-1e300, 2e299], [1e-170, 0.0]):
            direction = np.array(direction)
            unit = direction / np.max(np.abs(direction))
            for at in (base, np.array([0.02, 0.97])):  # interior, near two faces
                d, _ = _trace_projected_path(at, direction, box, 0.1)
                assert d == pytest.approx(reference_trace(at, unit, box, 0.1), rel=1e-12)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_ball_guard_takes_an_overflowing_norm(self, monkeypatch):
        # at the largest radius whose square is finite, a step rounded just
        # past the ball overflows ||d||^2; the guard must still scale it onto
        # the ball, not to zero
        hypot_calls = []
        hypot = math.hypot
        monkeypatch.setattr(math, "hypot", lambda *v: hypot_calls.append(v) or hypot(*v))
        box = FeasibleBox([-1e200, -1e200], [1e200, 1e200])
        base = np.zeros(2)
        direction = np.array([1e-4, 1e-4])
        radius = 1.3407807929942596e154
        assert radius * radius < math.inf
        d, _ = _trace_projected_path(base, direction, box, radius)
        assert hypot_calls
        assert np.array_equal(d, reference_trace(base, direction, box, radius))
        assert d == pytest.approx([radius / math.sqrt(2.0)] * 2, rel=1e-12)
        d = trsbox_linear(model(base, -direction), box, radius)
        assert np.array_equal(d, reference_trace(base, direction, box, radius))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_squared_radius_out_of_range(self):
        # radius^2, or the scale 4 ||direction||^2 radius^2 of the segment
        # loop's discriminant, overflows or underflows; the path is traced in
        # units of a power of two near the radius, so it still meets the ball
        # on the segment that crosses it
        box = FeasibleBox([-1e200, -1e200], [1e150, 1e200])
        d, _ = _trace_projected_path(np.zeros(2), np.array([1.0, 1.0]), box, 1e160)
        assert d.tolist() == [1e150, 1e160]
        wide = FeasibleBox([-1e200, -1e200], [1e200, 1e200])
        d, _ = _trace_projected_path(np.zeros(2), np.array([1.0, 0.0]), wide, 1e160)
        assert d.tolist() == [1e160, 0.0]
        d, _ = _trace_projected_path(np.zeros(2), np.array([1e100, 2e100]), wide, 1e60)
        assert d == pytest.approx(1e60 / math.sqrt(5.0) * np.array([1.0, 2.0]), rel=1e-12)
        unit = FeasibleBox([-1, -1], [1, 1])
        d, _ = _trace_projected_path(np.zeros(2), np.array([1e-100, 0.0]), unit, 1e-75)
        assert d.tolist() == [1e-75, 0.0]
        for radius in (1e-170, 1e-320):
            d, _ = _trace_projected_path(np.zeros(2), np.array([1.0, 1.0]), unit, radius)
            assert d == pytest.approx([radius / math.sqrt(2.0)] * 2,
                                      rel=1e-12 if radius > 1e-300 else 1e-3)
        base = np.array([1.0, 0.0])  # on the upper face of coordinate 1
        d, _ = _trace_projected_path(base, np.array([1.0, 1.0]), unit, 1e-170)
        assert d.tolist() == [0.0, 1e-170]

    def test_zero_direction_in_the_interior(self):
        # nothing moves: the first-segment root is NaN, and the step is zero
        box = FeasibleBox([0, 0], [1, 1])
        base = np.array([0.5, 0.5])
        for direction in (np.zeros(2), np.array([0.0, -0.0])):
            d, _ = _trace_projected_path(base, direction, box, 0.1)
            assert np.array_equal(d, [0.0, 0.0])
            assert np.array_equal(d, reference_trace(base, direction, box, 0.1))

    def test_feasible_and_short_enough(self, rng):
        # bases on faces at the scales 1e-3 and 1e3, held to the guarantee
        # the docstring states rather than to exact feasibility
        for _ in range(300):
            n = int(rng.integers(1, 9))
            scale = 10.0 ** rng.choice([-3, 3])
            box, base = scaled_box_and_base(rng, n, scale, on_face=0.3)
            g = rng.normal(0, 10 ** rng.uniform(-2, 2), n)
            Delta = scale * 10.0 ** rng.uniform(-3, 1)
            within_rounding(box, base, trsbox_linear(model(base, g), box, Delta), Delta)

    def test_norm_and_feasibility_hold_up_to_rounding(self, rng):
        # the guarantee the docstring states: ||d|| exceeds Delta by a few
        # ulps at most, and projecting base + d moves a coordinate by at most
        # one spacing of max(|base_j|, |d_j|); bases on a face and scales far
        # from 1 make the rounding show
        outside = 0
        for _ in range(3000):
            n = int(rng.integers(1, 13))
            scale = 10.0 ** rng.uniform(-3, 3)
            box, base = scaled_box_and_base(rng, n, scale, on_face=0.15)
            g = rng.normal(size=n) * 10.0 ** rng.uniform(-4, 4)
            Delta = scale * 10.0 ** rng.uniform(-4, 1)
            outside += within_rounding(box, base, trsbox_linear(model(base, g), box, Delta), Delta)
        assert outside > 0  # exact feasibility is not what the trace keeps

    def test_nan_radius_raises(self):
        box = FeasibleBox([0, 0], [10, 10])
        m = model([5.0, 5.0], [1.0, 2.0])
        for Delta in (math.nan, 0.0, -1.0):
            with pytest.raises(ValueError):
                trsbox_linear(m, box, Delta)

    def test_matches_grid_bruteforce(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 3))
            lower = rng.uniform(-2, 0, n)
            upper = lower + rng.uniform(0.5, 3, n)
            box = FeasibleBox(lower, upper)
            base = rng.uniform(lower, upper)
            g = rng.normal(0, 1, n)
            Delta = float(10 ** rng.uniform(-1, 0.5))
            d = trsbox_linear(model(base, g), box, Delta)
            best = grid_best_step(g, base, box, Delta, 700 if n == 2 else 200001)
            assert g @ d <= best + 1e-6 * np.linalg.norm(g) * Delta


class TestSufficientDecrease:
    def test_zero_measure_zero_step(self):
        box = FeasibleBox([0, 0], [10, 10])
        m = model([5, 5], [0, 0])
        assert check_sufficient_decrease(m, np.zeros(2), 0.0, 1.0)

    def test_plain_example(self):
        box = FeasibleBox([0, 0], [10, 10])
        m = model([5, 5], [1, 0])
        d = trsbox_linear(m, box, 2.0)
        pi = model_stationarity(m, box)
        assert pi == pytest.approx(1.0)
        # decrease 2 against threshold 0.01 * 1 * min(1, 2, 1)
        assert check_sufficient_decrease(m, d, pi, 2.0, theta=0.01)

    def test_uphill_step_fails(self):
        m = model([5, 5], [1, 0])
        assert not check_sufficient_decrease(m, 2 * m.g, 1.0, 2.0)

    def test_randomized_audit(self, rng):
        # smaller twin of the acceptance audit
        passed = 0
        total = 200
        for _ in range(total):
            n = int(rng.integers(1, 9))
            lower = rng.uniform(-5, 0, n)
            upper = lower + rng.uniform(0.2, 6, n)
            box = FeasibleBox(lower, upper)
            base = rng.uniform(lower, upper)
            g = rng.normal(0, 10 ** rng.uniform(-2, 2), n)
            Delta = float(10 ** rng.uniform(-3, 1))
            m = model(base, g)
            d = trsbox_linear(m, box, Delta)
            pi = model_stationarity(m, box)
            passed += check_sufficient_decrease(m, d, pi, Delta, theta=0.01)
        assert passed == total


def two_point_sample():
    return SampleSet(np.array([[0.0], [2.0]]), np.array([0.0, 0.0]), 1,
                     FeasibleBox([0], [10]))


class TestAltmov:
    def test_one_dimensional_prefers_feasible_side(self):
        d, flat = altmov_linear(two_point_sample(), 1.0, 1)
        assert d == pytest.approx([1.0])
        assert not flat

    def test_symmetric_tie_goes_positive(self):
        pts = np.array([[5.0, 5.0], [6.0, 5.0], [5.0, 6.0]])
        s = SampleSet(pts, np.zeros(3), 1, FeasibleBox([0, 0], [10, 10]))
        d, flat = altmov_linear(s, 2.0, 1)
        assert d == pytest.approx([2.0, 0.0], abs=1e-12)
        assert not flat

    def test_corner_base_uses_inward_direction(self):
        # at a corner one signed path is fully pinned; the other leads inward
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        s = SampleSet(pts, np.zeros(3), 1, FeasibleBox([0, 0], [10, 10]))
        d, flat = altmov_linear(s, 0.5, 1)
        assert not flat
        assert np.linalg.norm(d) == pytest.approx(0.5)
        assert np.all(d >= 0)

    def test_never_infeasible_or_overlong(self, rng):
        # bases on faces at the scales 1e-3 and 1e3, held to the guarantee
        # trsbox_linear states, which the shared trace gives altmov as well
        for _ in range(100):
            n = int(rng.integers(1, 6))
            scale = 10.0 ** rng.choice([-3, 3])
            box, base = scaled_box_and_base(rng, n, scale, on_face=0.3)
            pts = np.vstack([base] + [
                np.clip(base + rng.normal(0, scale, n), box.lower, box.upper)
                for _ in range(n)
            ])
            s = SampleSet(pts, np.zeros(n + 1), 1, box)
            try:
                target = select_target_for_altmov(s)
                d, flat = altmov_linear(s, 0.7 * scale, target)
            except GeometryError:
                continue
            within_rounding(box, base, d, 0.7 * scale)

    def test_matches_two_reference_traces(self, rng):
        # the better of the traces along +w and -w, bit for bit, with bases
        # in the interior and on a face
        on_face = interior = 0
        for _ in range(300):
            n = int(rng.integers(1, 9))
            lower = rng.uniform(-3, 0, n)
            upper = lower + rng.uniform(0.5, 4, n)
            box = FeasibleBox(lower, upper)
            base = rng.uniform(lower, upper)
            face = rng.random(n) < 0.15
            base[face] = np.where(rng.random(n) < 0.5, lower, upper)[face]
            pts = np.vstack([base] + [
                np.clip(base + rng.normal(0, 1, n), lower, upper)
                for _ in range(n)
            ])
            s = SampleSet(pts, np.zeros(n + 1), 1, box)
            delta = float(10.0 ** rng.uniform(-3, 0.5))
            try:
                target = select_target_for_altmov(s)
                d, flat = altmov_linear(s, delta, target)
            except GeometryError:
                continue
            inv = s._factorize()
            c, w = float(inv[0, target]), inv[1:, target]
            plus = reference_trace(base, w, box, delta)
            minus = reference_trace(base, -w, box, delta)

            def weight(step):
                return abs(c + float(w @ ((base + step) - base)))

            ref = plus if weight(plus) >= weight(minus) else minus
            assert np.array_equal(d, ref)
            assert np.array_equal(np.signbit(d), np.signbit(ref))
            assert flat == (not np.any(plus) and not np.any(minus))
            on_face += bool(face.any())
            interior += 2.0 * delta <= _face_distance(base, box)
        assert on_face >= 50 and interior >= 50

    def test_shared_trace_matches_two_trace_calls(self, rng):
        # the interior branch traces both signs at once; every case matches
        # one _trace_projected_path call per sign bit for bit, including
        # bases on a face and squares that overflow or underflow (the change
        # of units), reached through a rescaled inverse or an extreme radius
        tiny = float(np.finfo(float).tiny)
        branches = Counter()
        for k in range(3000):
            n = int(rng.integers(1, 12))
            lower = rng.uniform(-3, 0, n)
            upper = lower + rng.uniform(0.5, 4, n)
            box = FeasibleBox(lower, upper)
            base = rng.uniform(lower, upper)
            if rng.random() < 0.3:
                face = rng.random(n) < 0.5
                face[rng.integers(n)] = True
                base[face] = np.where(rng.random(n) < 0.5, lower, upper)[face]
            pts = np.vstack([base, np.clip(base + rng.normal(0, 1, (n, n)),
                                           lower, upper)])
            s = SampleSet(pts, np.zeros(n + 1), 1, box)
            try:
                inv = s._factorize()
            except GeometryError:
                continue
            delta = float(10.0 ** rng.uniform(-8, math.log10(30.0)))
            if k % 10 == 0:
                s._basis = np.ldexp(inv, int(rng.choice([-600, 600])))
            elif k % 10 == 1:
                delta = float(rng.choice([1e-170, 1e160]))
            target = int(rng.integers(1, n + 1))
            with np.errstate(over="ignore"):
                d, flat = altmov_linear(s, delta, target)

            inv = s._factorize()
            c, w = float(inv[0, target]), inv[1:, target]
            with np.errstate(over="ignore"):
                a, rr = float(w @ w), delta * delta
                q = 4.0 * a * rr
                plus, _ = _trace_projected_path(base, w, box, delta)
                minus, _ = _trace_projected_path(base, -w, box, delta)

                def weight(step):
                    return abs(c + float(w @ ((base + step) - base)))

                ref = plus if weight(plus) >= weight(minus) else minus
            assert d.tobytes() == ref.tobytes()
            assert flat == (not np.any(plus) and not np.any(minus))
            if not (tiny <= min(a, rr, q) and 2.0 * q < math.inf):
                branches["change of units"] += 1
            elif 2.0 * delta <= _face_distance(base, box):
                branches["interior"] += 1
            else:
                branches["clipped"] += 1
        assert min(branches.values()) >= 200, branches

    def test_maximizes_the_weight_over_box_and_ball(self, rng):
        # the better of the two signed traces is the exact maximizer of
        # |l_target| over box-and-ball, clipped or not: brute force at n = 2
        clipped, worst = 0, 0.0
        while clipped < 270:
            lower = rng.uniform(-3, 0, 2)
            upper = lower + rng.uniform(0.2, 4, 2)
            box = FeasibleBox(lower, upper)
            base = rng.uniform(lower, upper)
            face = rng.random(2) < 0.2
            base[face] = np.where(rng.random(2) < 0.5, lower, upper)[face]
            pts = np.vstack([base] + [
                np.clip(base + rng.normal(0, 1, 2), lower, upper) for _ in range(2)
            ])
            s = SampleSet(pts, np.zeros(3), 1, box)
            delta = float(10.0 ** rng.uniform(-1, 0.7))
            if delta <= min(np.min(base - lower), np.min(upper - base)):
                continue  # the box does not clip the ball
            target = int(rng.integers(1, 3))
            try:
                d, _ = altmov_linear(s, delta, target)
            except GeometryError:
                continue
            inv = s._factorize()
            c, w = float(inv[0, target]), inv[1:, target]
            lo, hi = lower - base, upper - base
            best = max(c + max_linear_2d(w, lo, hi, delta),
                       -c + max_linear_2d(-w, lo, hi, delta))
            worst = max(worst, (best - abs(c + float(w @ d))) / best)
            clipped += 1
        assert worst <= 1e-14

    def test_endpoint_beats_clipped_alternatives(self):
        # the returned endpoint maximizes the polynomial among both paths
        s = two_point_sample()
        d, _ = altmov_linear(s, 1.0, 1)
        v = abs(_lagrange_values_at(s, s.base + d)[1])
        for other in ([1.0], [0.0], [-0.0]):
            assert v >= abs(_lagrange_values_at(s, np.asarray(other))[1]) - 1e-12

    def test_degenerate_polynomial_raises(self):
        s = two_point_sample()
        flat = s._factorize().copy()
        flat[:, 1] = 0.0  # l_1 = 0 + 0 . (x - base)
        s._basis = flat
        with pytest.raises(GeometryError):
            altmov_linear(s, 1.0, 1)

    @pytest.mark.parametrize("case", ["tiny gradient", "underflowing step",
                                      "rounded-away step", "zero column"])
    def test_zero_tests_match_the_reductions(self, case):
        # the zero-gradient and flat verdicts are read off squares; where a
        # square is zero, only the entries tell a true zero from an underflow
        for corner in (5.0, 0.0, 1e10):  # interior ball; base on a face; huge base
            base = np.array([corner, 5.0])
            box = FeasibleBox([0, 0], [2e10, 10])
            s = SampleSet(np.vstack([base, base + [1, 0], base + [0, 1]]), np.zeros(3), 1,
                          box)
            inv = s._factorize().copy()
            delta = 1e-8 if case == "rounded-away step" else 1.0
            if case == "tiny gradient":
                inv[1:, 1] = [1e-170, -2e-170]
            elif case == "underflowing step":
                delta = 1e-170
            elif case == "zero column":
                inv[1:, 1] = [0.0, -0.0]
            s._basis = inv
            w = inv[1:, 1]
            if not np.logical_or.reduce(w):
                with pytest.raises(GeometryError):
                    altmov_linear(s, delta, 1)
                continue
            d, flat = altmov_linear(s, delta, 1)
            plus, _ = _trace_projected_path(base, w, box, delta)
            minus, _ = _trace_projected_path(base, -w, box, delta)
            assert flat == (not np.logical_or.reduce(plus)
                            and not np.logical_or.reduce(minus))
            # a step below half the rounding unit of the base rounds away
            assert flat == (delta < 0.5 * np.spacing(corner))
            if case == "tiny gradient":
                assert float(w @ w) == 0.0
            elif case == "underflowing step":
                assert float(d @ d) == 0.0

    def test_nan_radius_raises(self):
        s = SampleSet(np.array([[5.0, 5.0], [6.0, 5.0], [5.0, 6.0]]), np.zeros(3), 1,
                      FeasibleBox([0, 0], [10, 10]))
        for delta in (math.nan, 0.0, -1.0):
            with pytest.raises(ValueError):
                altmov_linear(s, delta, 1)

    def test_bad_target_rejected(self):
        with pytest.raises(ValueError):
            altmov_linear(two_point_sample(), 1.0, 0)


class TestSelectTarget:
    def test_farthest_point(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 3.0]])
        s = SampleSet(pts, np.zeros(3), 1, FeasibleBox([-1, -1], [4, 4]))
        assert select_target_for_altmov(s) == 2

    def test_tie_takes_largest_index(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        s = SampleSet(pts, np.zeros(3), 1, FeasibleBox([-1, -1], [4, 4]))
        assert select_target_for_altmov(s) == 2

    def test_single_candidate(self):
        assert select_target_for_altmov(two_point_sample()) == 1

    def test_matches_reference_loop(self, rng):
        # grid points make exact distance ties common
        for _ in range(500):
            n = int(rng.integers(1, 8))
            pts = rng.integers(-2, 3, (n + 1, n)).astype(float)
            s = SampleSet(pts, np.zeros(n + 1), 1,
                          FeasibleBox(np.full(n, -3.0), np.full(n, 3.0)))
            dist = np.linalg.norm(pts[1:] - pts[0], axis=1)
            best, expected = -1.0, 1
            for j, dj in enumerate(dist, start=1):
                if dj >= best:
                    best, expected = float(dj), j
            assert np.array_equal(s.distances, dist)
            assert select_target_for_altmov(s) == expected
