import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import active_set, central_diff_gradient
from lovotr.problem import (
    EvalLedger,
    eval_component,
    eval_fmin,
    problem_from_dict,
    problem_to_dict,
)
from lovotr.testsets import (
    CatalogEntry,
    HS_CATALOG,
    MW_REGISTRY,
    Xoshiro256StarStar,
    _splitmix64,
    gen_hs,
    gen_mw,
    gen_qd,
    qd_instance,
    residual_blocks,
)


def box_points(box, rng, count):
    """Random interior points, box corners, and points with some coordinates on a bound."""
    lo, hi = box.lower, box.upper
    n = lo.size
    points = [rng.uniform(lo, hi) for _ in range(count)]
    corners = [np.zeros(n, bool), np.ones(n, bool)] + list(rng.random((14, n)) < 0.5)
    points += [np.where(c, hi, lo) for c in corners]
    for _ in range(count // 2):
        x = rng.uniform(lo, hi)
        on = rng.random(n) < 0.5
        x[on] = np.where(rng.random(n) < 0.5, lo, hi)[on]
        points.append(x)
    return points


def assert_batch_is_bitwise(problem, points):
    """``eval_all`` equals the component oracles bit for bit at every point."""
    for x in points:
        got = problem.eval_all(x)
        ref = np.array([c.fn(x) for c in problem.components])
        assert got.dtype == np.float64 and got.shape == (problem.r,)
        assert got.tobytes() == ref.tobytes(), (problem.name, x, got - ref)


class TestPrng:
    def test_splitmix_reference_vector(self):
        # published first output of splitmix64 seeded with 0
        out, _ = _splitmix64(0)
        assert out == 0xE220A8397B1DCDAF

    def test_xoshiro_hand_derived_outputs(self):
        rng = Xoshiro256StarStar(0)
        rng._s = [1, 2, 3, 4]
        assert [rng.next_u64() for _ in range(3)] == [11520, 0, 1509978240]

    def test_deterministic_streams(self):
        a = Xoshiro256StarStar(123, 7)
        b = Xoshiro256StarStar(123, 7)
        assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]
        c = Xoshiro256StarStar(123, 8)
        assert c.next_u64() != Xoshiro256StarStar(123, 7).next_u64()

    def test_uniform_range(self):
        rng = Xoshiro256StarStar(5, 0)
        draws = rng.uniforms(1000, 2.0, 3.0)
        assert np.all(draws >= 2.0) and np.all(draws < 3.0)
        assert 2.4 < draws.mean() < 2.6


class TestQd:
    def test_nesting_is_bitwise(self, rng):
        small = gen_qd(10, 10, seed=77, count=3)
        large = gen_qd(10, 25, seed=77, count=3)
        for ps, pl in zip(small, large):
            la, lb = EvalLedger(10), EvalLedger(25)
            for _ in range(5):
                x = rng.uniform(0, 10, 10)
                for i in range(1, 11):
                    assert eval_component(ps, la, i, x) == eval_component(pl, lb, i, x)

    def test_component_one_floor(self):
        inst = qd_instance(10, 5, seed=3, ordinal=1)
        assert inst.component_value(1, inst.b[0]) == 5.0

    def test_min_property(self, rng):
        problem = gen_qd(6, 8, seed=11, count=1)[0]
        ledger = EvalLedger(8)
        for _ in range(100):
            x = rng.uniform(0, 10, 6)
            values = eval_fmin(problem, ledger, x)
            assert ledger.best_certified <= values.min() <= values[0]

    def test_analytic_gradient_matches_finite_differences(self, rng):
        inst = qd_instance(5, 4, seed=29, ordinal=0)
        for _ in range(20):
            x = rng.uniform(0, 10, 5)
            i = int(rng.integers(1, 5))
            fd = central_diff_gradient(lambda z: inst.component_value(i, z), x, h=1e-5)
            analytic = inst.component_gradient(i, x)
            denom = max(1.0, np.linalg.norm(analytic))
            assert np.linalg.norm(fd - analytic) <= 1e-6 * denom

    def test_box_and_start(self):
        problem = gen_qd(4, 2, seed=1, count=1)[0]
        assert np.array_equal(problem.box.lower, np.zeros(4))
        assert np.array_equal(problem.box.upper, np.full(4, 10.0))
        assert np.array_equal(problem.x0, np.full(4, 5.0))

    def test_batch_is_bitwise(self, rng):
        # eval_fmin trusts eval_all to be the oracles bit for bit; a numpy whose
        # vecdot sums in another order than ``a @ v`` fails here (see below)
        # instead of moving the benchmark digests
        for n in range(1, 13):
            for r in (1, 2, 5, 10, 37, 100):
                inst = qd_instance(n, r, seed=20240817, ordinal=n)
                problem = inst.to_problem()
                assert_batch_is_bitwise(problem, box_points(problem.box, rng, 40) + list(inst.b))

    def test_batch_points_tell_summation_orders_apart(self, rng):
        # The test above has teeth: at its random points a left-to-right sum
        # of the same products, one other order, differs from eval_all.
        for n in range(2, 13):
            inst = qd_instance(n, 100, seed=20240817, ordinal=n)
            problem = inst.to_problem()
            offsets = np.array([5.0 ** i for i in range(1, 101)])
            differs = 0
            for x in box_points(problem.box, rng, 40):
                terms = inst.a * (x - inst.b) ** 2
                in_order = offsets + 0.5 * np.array([sum(row) for row in terms])
                differs += in_order.tobytes() != problem.eval_all(x).tobytes()
            assert differs > 0, n

    def test_roundtrip_bit_identical(self, rng):
        problem = gen_qd(5, 6, seed=13, count=2)[1]
        clone = problem_from_dict(problem_to_dict(problem))
        la, lb = EvalLedger(6), EvalLedger(6)
        for _ in range(100):
            x = rng.uniform(0, 10, 5)
            i = int(rng.integers(1, 7))
            assert eval_component(problem, la, i, x) == eval_component(clone, lb, i, x)


class TestHs:
    def test_identical_entries_tie_everywhere(self, rng):
        problem = gen_hs(HS_CATALOG, ["hs5", "hs5"])
        ledger = EvalLedger(2)
        for _ in range(20):
            x = rng.uniform(problem.box.lower, problem.box.upper)
            assert active_set(eval_fmin(problem, ledger, x)) == {1, 2}

    def test_box_intersection(self):
        catalog = {
            "a": CatalogEntry("a", 2, lambda x: 0.0,
                              np.array([0.0, 0.0]), np.array([1.0, 2.0])),
            "b": CatalogEntry("b", 2, lambda x: 1.0,
                              np.array([0.5, 1.0]), np.array([2.0, 2.0])),
        }
        problem = gen_hs(catalog, ["a", "b"])
        assert np.array_equal(problem.box.lower, [0.5, 1.0])
        assert np.array_equal(problem.box.upper, [1.0, 2.0])

    def test_degenerate_intersection_rejected(self):
        catalog = {
            "a": CatalogEntry("a", 1, lambda x: 0.0,
                              np.array([0.0]), np.array([1.0])),
            "b": CatalogEntry("b", 1, lambda x: 1.0,
                              np.array([1.0]), np.array([2.0])),
        }
        with pytest.raises(ValueError):
            gen_hs(catalog, ["a", "b"])

    def test_real_catalog_degenerate_pair_rejected(self):
        # hs4 pins x1 >= 1 while hs45 caps x1 <= 1
        with pytest.raises(ValueError):
            gen_hs(HS_CATALOG, ["hs4", "hs45"])

    def test_dimension_padding(self, rng):
        problem = gen_hs(HS_CATALOG, ["hs5", "hs25"])
        assert problem.n == 3
        # the 2-d objective ignores the third coordinate
        ledger = EvalLedger(2)
        x = problem.box.project(rng.uniform(problem.box.lower, problem.box.upper))
        y = x.copy()
        y[2] = problem.box.project(y + 0.7)[2]
        assert eval_component(problem, ledger, 1, x) == eval_component(
            problem, ledger, 1, y
        )

    def test_combo_arity_checked(self):
        with pytest.raises(ValueError):
            gen_hs(HS_CATALOG, ["hs1"])
        with pytest.raises(ValueError):
            gen_hs(HS_CATALOG, ["hs1"] * 5)
        with pytest.raises(ValueError):
            gen_hs(HS_CATALOG, ["hs1", "nope"])

    def test_start_is_box_center(self):
        problem = gen_hs(HS_CATALOG, ["hs1", "hs5"])
        center = 0.5 * (problem.box.lower + problem.box.upper)
        assert np.array_equal(problem.x0, center)

    def test_roundtrip(self, rng):
        problem = gen_hs(HS_CATALOG, ["hs38", "hs45"])
        clone = problem_from_dict(problem_to_dict(problem))
        la, lb = EvalLedger(2), EvalLedger(2)
        for _ in range(50):
            x = rng.uniform(problem.box.lower, problem.box.upper)
            for i in (1, 2):
                assert eval_component(problem, la, i, x) == eval_component(
                    clone, lb, i, x
                )


class TestMw:
    def test_single_block_is_full_sum_of_squares(self, rng):
        problem = gen_mw("broyden_tridiagonal", 5, 1)
        family = MW_REGISTRY["broyden_tridiagonal"]
        ledger = EvalLedger(1)
        for _ in range(20):
            x = rng.uniform(-5, 5, 5)
            res = family.residuals(x)
            assert eval_component(problem, ledger, 1, x) == pytest.approx(
                float(res @ res), rel=1e-15
            )

    def test_rosenbrock_root_ties_all_blocks(self):
        problem = gen_mw("extended_rosenbrock", 2, 2)
        values = eval_fmin(problem, EvalLedger(2), [1.0, 1.0])
        assert values.min() == 0.0
        assert active_set(values) == {1, 2}

    @given(st.integers(1, 60), st.integers(1, 60))
    @settings(max_examples=120)
    def test_blocks_balanced_and_complete(self, m, r):
        if r > m:
            return
        blocks = residual_blocks(m, r)
        sizes = [len(b) for b in blocks]
        assert sum(sizes) == m
        assert max(sizes) - min(sizes) <= 1
        assert np.array_equal(np.concatenate(blocks), np.arange(m))

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            gen_mw("nope", 4, 2)

    def test_dimension_rules_enforced(self):
        with pytest.raises(ValueError):
            gen_mw("extended_rosenbrock", 3, 1)  # needs even n
        with pytest.raises(ValueError):
            gen_mw("powell_singular_extended", 6, 1)  # needs n % 4 == 0
        with pytest.raises(ValueError):
            gen_mw("trigonometric", 4, 5)  # more blocks than residuals

    def test_start_scaled_and_projected(self):
        problem = gen_mw("penalty_i", 10, 2, start_scale=10.0)
        assert problem.box.contains(problem.x0)
        assert problem.x0[-1] == 50.0  # 10 * 10 clipped to the box edge

    def test_registry_has_enough_smooth_families(self):
        assert len(MW_REGISTRY) >= 10

    def test_roundtrip(self, rng):
        problem = gen_mw("chebyquad", 4, 3, start_scale=2.0)
        clone = problem_from_dict(problem_to_dict(problem))
        la, lb = EvalLedger(3), EvalLedger(3)
        for _ in range(50):
            x = rng.uniform(-5, 5, 4)
            for i in (1, 2, 3):
                assert eval_component(problem, la, i, x) == eval_component(
                    clone, lb, i, x
                )

    def test_batch_is_bitwise(self, rng):
        checked = 0
        for name, family in MW_REGISTRY.items():
            for n in range(1, 13):
                if not family.check_n(n):
                    continue
                for r in range(1, family.residual_count(n) + 1):
                    for scale in (1.0, 10.0):
                        problem = gen_mw(name, n, r, start_scale=scale)
                        points = [problem.x0] + box_points(problem.box, rng, 2)
                        assert_batch_is_bitwise(problem, points)
                        checked += 1
        assert checked >= 1600

    def test_families_are_finite_on_the_box(self, rng):
        for name, family in MW_REGISTRY.items():
            n = 4 if family.check_n(4) else 8
            problem = gen_mw(name, n, 2)
            ledger = EvalLedger(2)
            for _ in range(10):
                x = rng.uniform(problem.box.lower, problem.box.upper)
                v = eval_component(problem, ledger, 1, x)
                assert np.isfinite(v)
