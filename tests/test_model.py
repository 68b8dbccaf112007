import math
import os
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import central_diff_gradient, count_calls
from lovotr.errors import GeometryError, PointRejectedError
from lovotr.model import (
    CONDITION_LIMIT,
    MIN_LAGRANGE_WEIGHT,
    SampleSet,
    _face_distance,
    _lagrange_values_at,
    build_model,
    exchange_point,
    initial_sample,
    model_stationarity,
    promote_to_base,
    rebuild_for_index,
    replace_point,
)
from lovotr.problem import ComponentOracle, EvalLedger, FeasibleBox, LovoProblem
from lovotr.testsets import qd_instance


def quad_problem(n, lower=0.0, upper=10.0):
    fn = lambda x: float(np.sum(np.asarray(x) ** 2))
    return LovoProblem(
        "quad",
        [ComponentOracle(1, fn)],
        FeasibleBox(np.full(n, lower), np.full(n, upper)),
        np.full(n, 0.5 * (lower + upper)),
    )


def sample_from(points, values, model_index=1, box=None):
    """A sample of ``points``; the box defaults to one far wider than any test's points."""
    points = np.asarray(points, float)
    if box is None:
        box = FeasibleBox(np.full(points.shape[1], -1e300), np.full(points.shape[1], 1e300))
    return SampleSet(points, np.asarray(values, float), model_index, box)


class TestInitialSample:
    def test_interior_steps_up(self):
        problem = quad_problem(2)
        s = initial_sample(problem, [5, 5], 1.0, EvalLedger(1), 1)
        assert np.array_equal(s.points, [[5, 5], [6, 5], [5, 6]])

    def test_upper_bound_flips_direction(self):
        problem = quad_problem(2)
        s = initial_sample(problem, [10, 5], 1.0, EvalLedger(1), 1)
        assert np.array_equal(s.points, [[10, 5], [9, 5], [10, 6]])

    def test_one_dimensional(self):
        problem = quad_problem(1)
        s = initial_sample(problem, [0], 2.0, EvalLedger(1), 1)
        assert np.array_equal(s.points, [[0], [2]])
        assert np.array_equal(s.interpolation_matrix(), [[1, 0], [1, 2]])
        assert np.isfinite(s.condition_estimate())

    def test_thin_box_shrinks_with_warning(self):
        problem = quad_problem(1, lower=0.0, upper=1.0)
        with pytest.warns(UserWarning):
            s = initial_sample(problem, [0.2], 2.0, EvalLedger(1), 1)
        assert np.array_equal(s.points, [[0.2], [0.7]])

    def test_thin_box_warning_states_the_room_and_width(self):
        # the box is wider than the offset, but x0 sits too near its middle
        problem = quad_problem(2, lower=2.0, upper=3.5)
        with pytest.warns(UserWarning) as caught:
            initial_sample(problem, [2.75, 2.75], 1.0, EvalLedger(1), 1)
        assert [str(w.message) for w in caught] == [
            f"x0 has less than 1.0 of room on either side in coordinate {j} "
            "(box width 1.5); shrinking the initial offset to 0.75" for j in (0, 1)]

    def test_evaluation_accounting(self):
        problem = quad_problem(3)
        calls = count_calls(problem)
        ledger = EvalLedger(1)
        initial_sample(problem, problem.x0, 1.0, ledger, 1)
        assert calls == {1: 4} and ledger.total_component_evals == 4
        calls.clear()
        ledger2 = EvalLedger(1)
        initial_sample(problem, problem.x0, 1.0, ledger2, 1, base_value=0.0)
        assert calls == {1: 3} and ledger2.total_component_evals == 3

    def test_an_oracle_writing_its_argument_raises(self):
        # unguarded, the write moved the local row (6, 5) to (6.25, 5), which
        # the sample stored with the value 61 of (6, 5)
        def writes_its_argument(x):
            value = float(np.sum(x ** 2))
            x[0] += 0.25
            return value

        problem = LovoProblem("writer", [ComponentOracle(1, writes_its_argument)],
                              FeasibleBox([0, 0], [10, 10]), [5, 5])
        with pytest.raises(ValueError, match="read-only"):
            initial_sample(problem, [5, 5], 1.0, EvalLedger(1), 1, base_value=50.0)

    def test_values_match_oracle(self):
        problem = quad_problem(2)
        s = initial_sample(problem, [5, 5], 1.0, EvalLedger(1), 1)
        for point, value in zip(s.points, s.values):
            assert value == float(np.sum(point ** 2))


class TestBuildModel:
    def test_coordinate_function(self):
        s = sample_from([[0, 0], [1, 0], [0, 1]], [0, 1, 0])
        m = build_model(s)
        assert m.fx == 0.0 and m.index == 1
        assert m.g == pytest.approx([1.0, 0.0], abs=1e-14)

    def test_constant_function(self):
        s = sample_from([[0], [2]], [3, 3])
        m = build_model(s)
        assert m.fx == 3.0 and m.g[0] == pytest.approx(0.0)

    def test_affine_by_hand(self):
        # f(x) = 2 + 3 x1 - x2 on the unit simplex corners
        s = sample_from([[0, 0], [1, 0], [0, 1]], [2, 5, 1])
        m = build_model(s)
        assert m.fx == 2.0
        assert m.g == pytest.approx([3.0, -1.0], abs=1e-12)

    def test_interpolation_tolerance(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 7))
            pts = rng.uniform(0, 1, (n + 1, n))
            vals = rng.uniform(-100, 100, n + 1)
            s = sample_from(pts, vals)
            try:
                m = build_model(s)
            except GeometryError:
                continue
            err = max(abs(m.fx + m.g @ (p - m.base) - v) for p, v in zip(pts, vals))
            assert err <= 1e-10 * (1 + np.abs(vals).max())

    def test_singular_sample_rejected(self):
        # a repeated point, and a zero column (smallest singular value 0);
        # neither may warn on the way
        for pts in ([[0, 0], [1, 0], [1, 0]], [[0, 0], [1, 0], [2, 0]]):
            s = sample_from(pts, [0, 1, 1])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(GeometryError, match="singular"):
                    build_model(s)


class TestFactorization:
    @staticmethod
    def scipy_inverse(m):
        q, rmat = scipy.linalg.qr(m)
        return scipy.linalg.solve_triangular(rmat, q.T)

    def test_inverse_matches_scipy_qr_bit_for_bit(self, rng):
        checked = 0
        for n in range(2, 13):
            for scale in (1e-8, 1e-6, 1e-4, 1e-2, 1.0):
                base = rng.uniform(-5, 5, n)
                random_pts = base + scale * rng.standard_normal((n + 1, n))
                near = random_pts.copy()
                near[2] = near[1] + 1e-2 * scale * rng.standard_normal(n)
                for pts in (random_pts, near):
                    s = sample_from(pts, np.zeros(n + 1))
                    m = s.interpolation_matrix()
                    inv = s._factorize()
                    reference = self.scipy_inverse(m)
                    assert np.array_equal(inv, reference)
                    cond = np.linalg.norm(m) * np.linalg.norm(reference)
                    assert s.condition_estimate() == pytest.approx(cond, rel=1e-12)
                    checked += 1
        assert checked == 11 * 5 * 2

    def test_non_finite_sample_raises(self):
        for bad in (np.nan, np.inf):
            s = sample_from([[0, 0], [1, 0], [0, bad]], [0, 1, 2])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(GeometryError, match="non-finite"):
                    s._factorize()

    def test_overflowing_norm_is_singular_not_non_finite(self):
        # finite entries near 1e200 whose ||M||_F^2 overflows
        s = sample_from([[0, 0], [1e200, 0], [0, 3e200]], [0, 1, 2])
        assert np.all(np.isfinite(s.interpolation_matrix()))
        with pytest.raises(GeometryError, match="singular"):
            s._factorize()

    def test_condition_estimate_follows_the_points(self):
        s = sample_from([[0, 0], [1, 0], [0, 1]], [1, 2, 3])
        for row, point in ((2, [0, 1e-3]), (1, [2, 0]), (2, [0, 1])):
            before = s.condition_estimate()
            replace_point(s, row, point, 0.0)
            m = s.interpolation_matrix()
            cond = np.linalg.norm(m) * np.linalg.norm(self.scipy_inverse(m))
            assert s.condition_estimate() == pytest.approx(cond, rel=1e-12)
            assert s.condition_estimate() != before

    def test_condition_limit_is_sharp(self):
        # the Frobenius condition number of [[0, 0], [1, 0], [0, h]] is nearly
        # proportional to 1 / h
        def sample(h):
            return sample_from([[0, 0], [1, 0], [0, h]], [0, 1, 2])

        def cond(s):
            return np.linalg.cond(s.interpolation_matrix(), "fro")

        k = cond(sample(1e-6)) * 1e-6
        above, below = sample(k / 1.001e12), sample(k / 0.999e12)
        assert CONDITION_LIMIT < cond(above) < 1.01e12
        assert 0.99e12 < cond(below) < CONDITION_LIMIT
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GeometryError, match="singular"):
                above._factorize()
            assert below.condition_estimate() < CONDITION_LIMIT

    def test_build_decides_as_the_frobenius_condition(self, rng):
        # random, near-coincident and scaled samples with condition numbers
        # from 1 to 1e13: the build raises exactly when ||M||_F ||M^-1||_F of
        # the reference inverse is beyond the limit
        verdicts = Counter()
        decades = set()
        for _ in range(600):
            n = int(rng.integers(1, 13))
            base = rng.uniform(-5, 5, n)
            pts = base + rng.standard_normal((n + 1, n))
            kind = rng.choice(["random", "near", "scaled"])
            if kind == "near":  # for n = 1 the moved point is the base
                gap = 10.0 ** rng.uniform(-14, 0)
                pts[2 % (n + 1)] = pts[1] + gap * rng.standard_normal(n)
            elif kind == "scaled":
                pts = base + 10.0 ** rng.uniform(-13, 1) * (pts - base)
            s = sample_from(pts, np.zeros(n + 1))
            m = s.interpolation_matrix()
            reference = self.scipy_inverse(m)
            cond = np.linalg.norm(m) * np.linalg.norm(reference)
            decades.add(int(math.log10(min(cond, 1e13))))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                if cond > CONDITION_LIMIT:
                    with pytest.raises(GeometryError, match="singular"):
                        s._factorize()
                    verdicts["rejected"] += 1
                    continue
                inv = s._factorize()
            assert np.array_equal(inv, reference)
            verdicts["accepted"] += 1
            assert s.condition_estimate() == pytest.approx(cond, rel=1e-12)
        assert decades == set(range(14))
        assert min(verdicts["accepted"], verdicts["rejected"]) >= 10


SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(code):
    """Run ``code`` in a fresh interpreter that imports lovotr from this checkout.

    This session has imported ``scipy.linalg`` (above), so what ``import
    lovotr`` loads by itself can only be seen from a new process.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


class TestLapackExtension:
    def test_import_and_solve_load_only_the_lapack_extension(self):
        done = run_fresh(
            "import sys\n"
            "import lovotr\n"
            "lovotr.solve(lovotr.gen_qd(3, 2, seed=5, count=1)[0])\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "['scipy.linalg._flapack']"

    @pytest.mark.parametrize("first", ["scipy.linalg", "lovotr"])
    def test_scipy_linalg_shares_the_routines(self, first):
        done = run_fresh(
            f"import {first}\n"
            "import lovotr.model, scipy.linalg.lapack as lapack\n"
            "print([getattr(lapack, f) is getattr(lovotr.model, f)\n"
            "       for f in ('dgeqrf', 'dorgqr', 'dtrtrs')])\n")
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[True, True, True]"

    def test_missing_scipy_raises_import_error(self):
        done = run_fresh("import sys\nsys.modules['scipy'] = None\nimport lovotr\n")
        assert done.returncode != 0
        assert "ImportError" in done.stderr and "scipy" in done.stderr.splitlines()[-1]


class TestLagrange:
    def test_one_dimensional_basis(self):
        s = sample_from([[0], [1]], [0, 0])
        for x in (0.0, 0.3, 1.0, 2.5):
            l0, l1 = _lagrange_values_at(s, np.array([x]))
            assert l0 == pytest.approx(1 - x, abs=1e-12)
            assert l1 == pytest.approx(x, abs=1e-12)

    def test_barycentric_on_simplex(self):
        s = sample_from([[0, 0], [1, 0], [0, 1]], [0, 0, 0])
        assert _lagrange_values_at(s, np.array([0.7, 0.1]))[1] == pytest.approx(
            0.7, abs=1e-12)

    def test_partition_of_unity(self, rng):
        pts = rng.uniform(0, 5, (4, 3))
        s = sample_from(pts, np.zeros(4))
        for _ in range(10):
            x = rng.uniform(-3, 8, 3)
            assert sum(_lagrange_values_at(s, x)) == pytest.approx(1.0, abs=1e-10)

    def test_kronecker_property(self, rng):
        pts = rng.uniform(0, 5, (5, 4))
        s = sample_from(pts, np.zeros(5))
        for mth, p in enumerate(pts):
            for j, value in enumerate(_lagrange_values_at(s, p)):
                assert value == pytest.approx(float(j == mth), abs=1e-9)

    def test_gradient_duality(self, rng):
        # model gradient equals the value-weighted sum of basis gradients,
        # which are rows 1..n of the inverse interpolation matrix
        pts = rng.uniform(0, 2, (4, 3))
        vals = rng.uniform(-5, 5, 4)
        s = sample_from(pts, vals)
        m = build_model(s)
        inv = s._factorize()
        g_dual = sum(v * inv[1:, j] for j, v in enumerate(vals))
        assert m.g == pytest.approx(g_dual, abs=1e-9)


def reference_exchange(points, values, inv, x_new, f_new):
    """The exchange one row at a time: the loop form of ``exchange_point``.

    It works on plain copies of a sample's ``points`` and ``values`` and on
    the sample's inverse ``inv``, so it reads none of the caches the exchange
    keeps.  Returns the row where ``x_new`` sits afterwards, found by
    searching the new points for it, and the new points and values.
    """
    points, values = np.array(points, dtype=float), np.array(values, dtype=float)
    x_new = np.asarray(x_new, dtype=float)
    f_new = float(f_new)
    row = reference_find_row(points, x_new)
    if row is not None:
        values[row] = f_new
        return row, points, values

    m_row = np.concatenate([[1.0], x_new - points[0]])
    lag = m_row.dot(inv)
    best_old = int(np.argmin(values))
    improves_best = f_new < values[best_old]
    improves_base = f_new < values[0]
    candidates = []
    for t in range(len(points)):
        if t == best_old and not improves_best:
            continue
        if t == 0 and not improves_base:
            continue
        if abs(lag[t]) < MIN_LAGRANGE_WEIGHT:
            continue
        candidates.append(t)
    if not candidates:
        raise PointRejectedError("no admissible row")

    x_best = x_new if improves_best else points[best_old]
    t_out, best_score = None, -1.0
    for t in candidates:
        score = abs(lag[t]) * float(np.sum((points[t] - x_best) ** 2))
        if score >= best_score:
            t_out, best_score = t, score
    if improves_base and t_out != 0:
        points[t_out] = points[0]
        values[t_out] = values[0]
        points[0] = x_new
        values[0] = f_new
    else:
        points[t_out] = x_new
        values[t_out] = f_new
    return reference_find_row(points, x_new), points, values


def random_exchange_case(rng):
    """A nonsingular sample and a candidate, drawn to hit every exchange branch.

    Half the samples are coordinate stencils ``base + s_j e_j`` on an integer
    grid with grid candidates.  Their cache holds the exact inverse (QR
    rounding would break most ties), so Lagrange values are simple fractions
    and scores tie exactly.  Values repeat so that the best row and the
    improvement tests see ties too.  The other candidates are copies of a
    sample point or a sample point moved by about 1e-17, whose Lagrange
    weights at the other rows are negligible.
    """
    n = int(rng.integers(1, 13))
    values = (rng.integers(0, 4, n + 1).astype(float) if rng.random() < 0.5
              else rng.uniform(-1, 1, n + 1))
    grid = rng.random() < 0.5
    if grid:
        base = rng.integers(0, 4, n).astype(float)
        steps = rng.choice([-2.0, -1.0, 1.0, 2.0], n)
        pts = np.vstack([base, base + np.diag(steps)])
        sample = sample_from(pts, values)
        inv = np.zeros((n + 1, n + 1))
        inv[0, 0] = 1.0
        inv[1:, 0] = -1.0 / steps
        inv[1:, 1:] = np.diag(1.0 / steps)
        sample.condition_estimate()  # the stencil passes the condition test
        sample._basis = inv
    else:
        while True:
            pts = rng.uniform(-1, 1, (n + 1, n))
            sample = sample_from(pts, values)
            try:
                sample._factorize()
                break
            except GeometryError:
                continue

    mode = rng.integers(0, 4) if rng.random() < 0.5 else 0
    if mode == 0:
        x_new = (rng.integers(-1, 5, n).astype(float) if grid
                 else rng.uniform(-1, 1, n))
    elif mode == 1:
        x_new = pts[0] + rng.uniform(-1, 1, n)
    elif mode == 2:
        x_new = pts[rng.integers(0, n + 1)].copy()
    else:
        x_new = pts[rng.integers(0, n + 1)] + 1e-17 * rng.standard_normal(n)
    f_choice = rng.integers(0, 4)
    if f_choice == 0:
        f_new = values.min() - 1.0
    elif f_choice == 1:
        f_new = float(rng.choice(values))
    elif f_choice == 2:
        f_new = float(rng.uniform(values.min(), values.max() + 1e-9))
    else:
        f_new = values.max() + 1.0
    return sample, x_new, f_new


def exchange_case_tags(sample, x_new, f_new):
    """The branches of the exchange that a case exercises, for coverage counts."""
    if sample.find_row(x_new) is not None:
        return {"coincident"}
    best_old = int(np.argmin(sample.values))
    improves_best = f_new < sample.values[best_old]
    improves_base = f_new < sample.values[0]
    weight = np.abs(_lagrange_values_at(sample, x_new))
    admissible = weight >= MIN_LAGRANGE_WEIGHT
    admissible[best_old] &= improves_best
    admissible[0] &= improves_base
    if not admissible.any():
        return {"rejected"}
    x_best = x_new if improves_best else sample.points[best_old]
    scores = (weight * np.sum((sample.points - x_best) ** 2, axis=1))[admissible]
    tags = set()
    if np.count_nonzero(scores == scores.max()) > 1:
        tags.add("score tie")
    if best_old != 0 and not improves_best:
        tags.add("best protected")
    if improves_base:
        tags.add("takes base")
    else:
        tags.add("base protected")
    return tags


class TestExchange:
    def test_matches_reference_loop(self, rng):
        seen = Counter()
        for _ in range(3000):
            sample, x_new, f_new = random_exchange_case(rng)
            points, values = sample.points.copy(), sample.values.copy()
            seen.update(exchange_case_tags(sample, x_new, f_new))
            try:
                expected, points, values = reference_exchange(
                    points, values, sample._factorize(), x_new, f_new)
            except PointRejectedError:
                with pytest.raises(PointRejectedError):
                    exchange_point(sample, x_new, f_new)
            else:
                assert exchange_point(sample, x_new, f_new) == expected
            assert np.array_equal(sample.points, points)
            assert np.array_equal(sample.values, values)
        for case in ("rejected", "score tie", "best protected", "base protected",
                     "takes base", "coincident"):
            assert seen[case] >= 25, (case, seen)

    def test_insert_better_point_one_dim(self):
        # scores tie at 0.5 each; the tie goes to the larger index and the
        # improving candidate takes the base slot
        s = sample_from([[0], [2]], [5, 9])
        exchange_point(s, [1], 3.0)
        assert np.array_equal(s.points, [[1], [0]])
        assert np.array_equal(s.values, [3, 5])

    def test_coincident_point_refreshes(self):
        s = sample_from([[0], [2]], [5, 9])
        exchange_point(s, [2], 8.5)
        assert np.array_equal(s.points, [[0], [2]])
        assert np.array_equal(s.values, [5, 8.5])

    def test_best_candidate_takes_base(self):
        # removal scores: old base 2, others 1 each; the old base leaves
        s = sample_from([[0, 0], [1, 0], [0, 1]], [4, 5, 6])
        exchange_point(s, [1, 1], 1.0)
        assert np.array_equal(s.points[0], [1, 1])
        assert s.values[0] == 1.0
        assert s.find_row([0, 0]) is None

    def test_non_improving_point_keeps_base_and_best(self):
        s = sample_from([[0, 0], [1, 0], [0, 1]], [4, 5, 6])
        exchange_point(s, [2, 2], 9.0)
        assert np.array_equal(s.points[0], [0, 0])
        assert s.find_row([2, 2]) is not None
        assert s.values.min() == 4.0

    def test_rejection_when_no_admissible_slot(self):
        # base is protected (no improvement on it), the best point is
        # protected, and the only other slot has a negligible weight
        s = sample_from([[0.0], [5.0]], [1.0, 0.0])
        with pytest.raises(PointRejectedError):
            exchange_point(s, [1e-20], 2.0)

    def test_exchange_preserves_nonsingularity(self, rng):
        problem = quad_problem(4)
        s = initial_sample(problem, problem.x0, 1.0, EvalLedger(1), 1)
        for _ in range(60):
            x = rng.uniform(3, 7, 4)
            try:
                exchange_point(s, x, float(rng.uniform(-10, 60)))
            except PointRejectedError:
                continue
            assert np.isfinite(s.condition_estimate())
            for mth, p in enumerate(s.points):
                for j, value in enumerate(_lagrange_values_at(s, p)):
                    assert abs(value - float(j == mth)) < 1e-8


class TestReplacePoint:
    def test_forced_replacement(self):
        s = sample_from([[0, 0], [1, 0], [0, 1]], [1, 2, 3])
        replace_point(s, 2, [0.1, 0.2], 5.0)
        assert np.array_equal(s.points[2], [0.1, 0.2])
        assert s.values[2] == 5.0

    def test_cannot_target_base(self):
        s = sample_from([[0], [1]], [1, 2])
        with pytest.raises(ValueError):
            replace_point(s, 0, [0.5], 0.0)

    def test_improving_replacement_never_moves_base(self):
        # repairs maintain geometry around the iterate; relocation is the
        # acceptance phase's job
        s = sample_from([[0], [1]], [1, 2])
        replace_point(s, 1, [0.5], 0.25)
        assert np.array_equal(s.points[0], [0.0])
        assert np.array_equal(s.points[1], [0.5])
        assert s.values[1] == 0.25

    @pytest.mark.parametrize("layout", ["stencil", "uniform"])
    def test_copy_of_another_row_is_rejected(self, rng, layout):
        # a copy of any other sample point, the base included, is refused and
        # nothing moves; on uniform samples l_row can exceed the weight
        # threshold there by rounding, so the weight test alone would let
        # some copies in
        for _ in range(40):
            n = int(rng.integers(1, 13))
            if layout == "stencil":
                base = rng.uniform(-5, 5, n)
                steps = rng.choice([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0], n)
                points = np.vstack([base, base + np.diag(steps)])
            else:
                points = rng.uniform(-1, 1, (n + 1, n))
            s = sample_from(points, rng.uniform(-1, 1, n + 1))
            points, values, inv = s.points.copy(), s.values.copy(), s._factorize()
            for row in range(1, n + 1):
                for other in range(n + 1):
                    if other == row:
                        continue
                    with pytest.raises(PointRejectedError):
                        replace_point(s, row, points[other].copy(), -9.0)
                    assert np.array_equal(s.points, points)
                    assert np.array_equal(s.values, values)
                    assert s._factorize() is inv

    def test_zero_weight_at_the_target_is_rejected(self):
        # (0, 0.5) lies on the line through the other two points, where
        # l_1 = x_1 vanishes: it cannot replace point 1, and nothing moves
        s = sample_from([[0, 0], [1, 0], [0, 1]], [1, 2, 3])
        inv = s._factorize()
        with pytest.raises(PointRejectedError, match="without degeneracy"):
            replace_point(s, 1, [0, 0.5], 5.0)
        assert np.array_equal(s.points, [[0, 0], [1, 0], [0, 1]])
        assert np.array_equal(s.values, [1, 2, 3])
        assert s._factorize() is inv

    def test_copy_of_the_target_row_is_written_back(self):
        s = sample_from([[0, 0], [1, 0], [0, 1]], [1, 2, 3])
        replace_point(s, 2, [0, 1], 7.0)
        assert np.array_equal(s.points, [[0, 0], [1, 0], [0, 1]])
        assert np.array_equal(s.values, [1, 2, 7])

    def test_promote_to_base_swaps_rows(self):
        s = sample_from([[0], [1]], [1, 2])
        promote_to_base(s, 1)
        assert np.array_equal(s.points, [[1], [0]])
        assert np.array_equal(s.values, [2, 1])


class TestRebuildForIndex:
    def two_component_problem(self):
        comps = [
            ComponentOracle(1, lambda x: float(np.sum(x ** 2))),
            ComponentOracle(2, lambda x: float(np.sum((x - 1) ** 2)) + 1),
        ]
        return LovoProblem("two", comps, FeasibleBox([0, 0], [10, 10]), [5, 5])

    def test_costs_npt_evaluations(self):
        problem = self.two_component_problem()
        ledger = EvalLedger(2)
        s = initial_sample(problem, [5, 5], 1.0, ledger, 1)
        calls = count_calls(problem)
        before = ledger.total_component_evals
        # the caller passes the new component's base value (f2(5, 5) = 33),
        # so a swap costs n evaluations, not npt
        model = rebuild_for_index(s, problem, ledger, 2, 33.0)
        assert calls == {2: 2}
        assert ledger.total_component_evals - before == 2
        assert s.model_index == model.index == 2
        assert s.values[0] == model.fx == 33.0

    def test_qd_swap_gradient_matches_finite_differences(self):
        inst = qd_instance(n=6, r=3, seed=31, ordinal=0)
        problem = inst.to_problem()
        ledger = EvalLedger(3)
        x0 = problem.x0
        # tiny sample radius: the rebuilt gradient approximates the new
        # component's gradient at the base to high relative accuracy
        s = initial_sample(problem, x0, 1e-7, ledger, 1)
        model = rebuild_for_index(s, problem, ledger, 2, problem.components[1](x0))
        assert model.index == 2 and model.fx == s.values[0]
        fd = central_diff_gradient(lambda x: inst.component_value(2, x), x0, h=1e-3)
        assert np.linalg.norm(model.g - fd) <= 1e-6 * np.linalg.norm(fd)
        analytic = inst.component_gradient(2, x0)
        assert np.linalg.norm(model.g - analytic) <= 1e-6 * np.linalg.norm(analytic)

    def test_an_oracle_writing_its_argument_raises(self):
        # the rows an oracle receives are read-only views of the sample's
        # points: a write raises instead of moving (6, 5) to (6.5, 5) while
        # its value stays that of the old point
        def writes_its_argument(x):
            x[0] += 0.5
            return float(np.sum(x ** 2))

        comps = [ComponentOracle(1, lambda x: float(np.sum(x ** 2))),
                 ComponentOracle(2, writes_its_argument)]
        problem = LovoProblem("writer", comps, FeasibleBox([0, 0], [10, 10]), [5, 5])
        ledger = EvalLedger(2)
        s = initial_sample(problem, [5, 5], 1.0, ledger, 1)
        with pytest.raises(ValueError, match="read-only"):
            rebuild_for_index(s, problem, ledger, 2, 50.0)
        assert np.array_equal(s.points, [[5, 5], [6, 5], [5, 6]])


WRITES = ("exchange", "coincident", "hand_over", "replace", "promote", "rebuild")


def reference_find_row(points, x):
    """First row equal to ``x`` under the array comparison ``points == x``."""
    hits = np.logical_and.reduce(points == x, axis=1)
    return int(hits.argmax()) if hits.any() else None


def with_signed_zeros(rng, x, lower, upper):
    """``x`` with about a quarter of its feasible coordinates set to +0.0 or -0.0."""
    x = x.copy()
    zero = (lower <= 0.0) & (upper >= 0.0) & (rng.random(x.size) < 0.25)
    x[zero] = np.where(rng.random(x.size) < 0.5, 0.0, -0.0)[zero]
    return x


class TestSampleCaches:
    """The cached matrix, inverse, room, row lists and distances always equal a
    fresh sample's, and ``find_row`` answers as the array comparison does."""

    @staticmethod
    def assert_matches_fresh(sample, box, rng):
        assert sample.box is box
        fresh = SampleSet(sample.points.copy(), sample.values.copy(),
                          sample.model_index, box)
        # the plain attributes: base is a view of row 0, written in place
        assert (sample.n, sample.npt) == (fresh.n, fresh.npt)
        assert sample.base.shape == (sample.n,)
        assert sample.base.ctypes.data == sample.points[0].ctypes.data
        assert np.shares_memory(sample.base, sample.points[0])
        assert sample.interpolation_matrix().tobytes() == \
            fresh.interpolation_matrix().tobytes()
        try:
            expected = fresh._factorize()
        except GeometryError:
            with pytest.raises(GeometryError):
                sample._factorize()
        else:
            assert sample._factorize().tobytes() == expected.tobytes()
        assert sample.room == fresh.room == _face_distance(fresh.points[0], box)
        assert sample.distances.tobytes() == fresh.distances.tobytes()
        # the row lists, signs of zeros included
        assert np.array(sample._rows).tobytes() == fresh.points.tobytes()
        points = fresh.points
        for row in points:
            x = row.copy()
            assert sample.find_row(x) == reference_find_row(points, x)
            x = np.nextafter(row, math.inf)
            assert sample.find_row(x) == reference_find_row(points, x)
            x = np.where(row == 0.0, -row, row)  # the zeros' signs flipped
            assert sample.find_row(x) == reference_find_row(points, x)
        # a duplicated row: the first match wins
        k = int(rng.integers(0, sample.n))
        duplicated = points.copy()
        duplicated[-1] = points[k]
        dup = SampleSet(duplicated, sample.values, sample.model_index, box)
        assert dup.find_row(points[k].copy()) == reference_find_row(duplicated, points[k]) \
            == k

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
           writes=st.lists(st.sampled_from(WRITES), min_size=1, max_size=12))
    def test_every_write_keeps_the_caches_fresh(self, n, seed, writes):
        rng = np.random.default_rng(seed)
        lower = rng.uniform(-3, 0, n)
        upper = lower + rng.uniform(0.5, 4, n)
        box = FeasibleBox(lower, upper)
        comps = [ComponentOracle(1, lambda x: float(x @ x)),
                 ComponentOracle(2, lambda x: float(np.sum(np.abs(x))))]
        problem = LovoProblem("caches", comps, box, lower)
        ledger = EvalLedger(2)
        points = rng.uniform(lower, upper, (n + 1, n))
        sample = sample_from([with_signed_zeros(rng, p, lower, upper) for p in points],
                             rng.uniform(-1, 1, n + 1), box=box)
        for write in writes:
            # build the inverse, the one lazy cache, so that a write path that
            # skips dropping it leaves a stale one behind
            try:
                sample._factorize()
            except GeometryError:
                pass
            row = int(rng.integers(1, n + 1))
            x_new = with_signed_zeros(rng, rng.uniform(lower, upper), lower, upper)
            try:
                if write == "exchange":
                    exchange_point(sample, x_new, float(rng.uniform(-1, 2)))
                elif write == "coincident":
                    exchange_point(sample, sample.points[row].copy(), -5.0)
                elif write == "hand_over":
                    exchange_point(sample, x_new, float(sample.values.min()) - 1.0)
                elif write == "replace":
                    replace_point(sample, row, x_new, float(rng.uniform(-1, 2)))
                elif write == "promote":
                    promote_to_base(sample, row)
                else:
                    rebuild_for_index(sample, problem, ledger,
                                      3 - sample.model_index, float(sample.values[0]))
            except (GeometryError, PointRejectedError):
                pass
            self.assert_matches_fresh(sample, box, rng)

    def test_points_and_base_are_read_only(self):
        s = sample_from([[0, 0], [1, 0], [0, 1]], [0, 1, 2])
        with pytest.raises(ValueError, match="read-only"):
            s.points[1, 0] = 2.0
        with pytest.raises(ValueError, match="read-only"):
            s.points[:] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            s.base[0] = 3.0
        with pytest.raises(ValueError, match="read-only"):
            s.base += 1.0
        assert np.array_equal(s.points, [[0, 0], [1, 0], [0, 1]])
        assert s.find_row([0, 0]) == 0

    def test_matrix_and_distances_are_read_only(self):
        s = sample_from([[0, 0], [1, 0], [0, 2]], [0, 1, 2])
        matrix = s.interpolation_matrix()
        with pytest.raises(ValueError, match="read-only"):
            matrix[1, 1] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            s.interpolation_matrix()[:] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            s.distances[0] = 7.0
        with pytest.raises(ValueError, match="read-only"):
            s.distances *= 2.0
        assert np.array_equal(matrix, [[1, 0, 0], [1, 1, 0], [1, 0, 2]])
        assert np.array_equal(s.distances, [1, 2])
        assert s.interpolation_matrix() is matrix  # one view, built once

    def test_find_row_compares_as_ieee_floats(self):
        s = sample_from([[0.0, -0.0], [math.nan, 1.0], [1.0, 1.0]], [0, 0, 0])
        assert s.find_row([-0.0, 0.0]) == 0
        assert s.find_row(np.array([math.nan, 1.0])) is None
        assert s.find_row(s.points[1]) is None  # a NaN equals nothing, itself included
        assert s.find_row((1, 1)) == 2

    def test_find_row_takes_only_a_length_n_vector(self):
        # broadcasting would let a scalar or a length-1 vector "equal" any
        # row whose entries are all equal, here row 1
        s = sample_from([[0, 0], [1, 1], [0, 1]], [0, 0, 0])
        for x in (1.0, [1.0], [[1.0, 1.0]], [1.0, 1.0, 1.0]):
            with pytest.raises(ValueError):
                s.find_row(x)
        assert s.find_row([1, 1]) == 1

    def test_writes_take_only_a_length_n_vector(self):
        s = sample_from([[0, 0], [1, 1], [0, 1]], [0, 1, 2])
        for x in ([1.0], [[2.0, 2.0]], [2.0, 2.0, 2.0]):
            with pytest.raises(ValueError):
                exchange_point(s, x, -1.0)
            with pytest.raises(ValueError):
                replace_point(s, 1, x, -1.0)
            with pytest.raises(ValueError):
                s.find_row(x)
        assert np.array_equal(s.points, [[0, 0], [1, 1], [0, 1]])

    def test_construction_copies_the_arrays(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        values = np.array([1.0, 2.0, 3.0])
        box = FeasibleBox([-1, -1], [2, 2])
        s = SampleSet(points, values, 1, box)
        m, inv, room = s.interpolation_matrix().copy(), s._factorize().copy(), s.room
        points[0] = [0.5, 0.5]
        points[2] = [9.0, 9.0]
        values[:] = 0.0
        assert np.array_equal(s.points, [[0, 0], [1, 0], [0, 1]])
        assert np.array_equal(s.values, [1, 2, 3])
        assert np.array_equal(s.interpolation_matrix(), m)
        assert np.array_equal(s._factorize(), inv)
        assert s.room == room == 1.0


class TestStationarity:
    def box(self):
        return FeasibleBox([0, 0], [10, 10])

    def test_interior_full_step(self):
        from lovotr.model import LinearModel

        m = LinearModel(index=1, base=np.array([5.0, 5.0]), fx=0.0,
                        g=np.array([1.0, 0.0]))
        assert model_stationarity(m, self.box()) == pytest.approx(1.0)

    def test_clipped_to_zero_on_boundary(self):
        from lovotr.model import LinearModel

        m = LinearModel(index=1, base=np.array([0.0, 5.0]), fx=0.0,
                        g=np.array([1.0, 0.0]))
        assert model_stationarity(m, self.box()) == 0.0

    def test_partial_clip(self):
        from lovotr.model import LinearModel

        m = LinearModel(index=1, base=np.array([0.0, 5.0]), fx=0.0,
                        g=np.array([-1.0, -2.0]))
        assert model_stationarity(m, self.box()) == pytest.approx(math.sqrt(5.0))


class TestModelQuality:
    def test_affine_functions_recovered_exactly(self, rng):
        # the model gradient of an affine function is its true gradient,
        # independently of which nonsingular feasible sample is used
        box = FeasibleBox(np.zeros(3), np.full(3, 10.0))
        for _ in range(20):
            g_true = rng.uniform(-5, 5, 3)
            c = float(rng.uniform(-5, 5))
            pts = rng.uniform(0, 10, (4, 3))
            vals = np.array([c + g_true @ p for p in pts])
            s = sample_from(pts, vals)
            try:
                m = build_model(s)
            except GeometryError:
                continue
            assert np.linalg.norm(m.g - g_true) <= 1e-9
            assert model_stationarity(m, box) == pytest.approx(
                np.linalg.norm(box.project(s.base - g_true) - s.base), abs=1e-9
            )

    def test_gradient_error_scales_linearly_with_radius(self):
        # desk-scale check of the model-quality contract: error ~ O(delta)
        fn = lambda x: float(np.sum(np.sin(x)) + 0.5 * np.sum(x ** 2))
        problem = LovoProblem(
            "smooth",
            [ComponentOracle(1, fn)],
            FeasibleBox(np.full(4, -10.0), np.full(4, 10.0)),
            np.array([0.3, -0.4, 0.9, 0.1]),
        )
        errs = []
        deltas = [1e-1, 1e-2, 1e-3]
        for delta in deltas:
            s = initial_sample(problem, problem.x0, delta, EvalLedger(1), 1)
            m = build_model(s)
            fd = central_diff_gradient(fn, problem.x0, h=1e-7)
            errs.append(np.linalg.norm(m.g - fd))
        slope = (math.log(errs[0]) - math.log(errs[-1])) / (
            math.log(deltas[0]) - math.log(deltas[-1])
        )
        assert slope >= 0.9

    def test_debug_dump_fields(self):
        s = sample_from([[0], [1]], [1, 2])
        dump = s.to_debug_dict()
        assert set(dump) == {"points", "values", "model_index", "condition_estimate"}
