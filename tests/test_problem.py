import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lovotr.errors import BudgetExceededError, OracleError
from lovotr.problem import (
    ComponentOracle,
    EvalLedger,
    FeasibleBox,
    LovoProblem,
    choose_imin,
    eval_component,
    eval_fmin,
    problem_from_dict,
    problem_to_dict,
)
from lovotr.testsets import gen_qd, qd_instance


def make_problem(fns, lower, upper, x0):
    comps = [ComponentOracle(i + 1, fn) for i, fn in enumerate(fns)]
    return LovoProblem("test", comps, FeasibleBox(lower, upper), x0)


class TestProjection:
    def test_interior_fixed_point(self):
        box = FeasibleBox([0, 0], [10, 10])
        assert np.array_equal(box.project([5, 5]), [5, 5])

    def test_exterior_clamp(self):
        box = FeasibleBox([0, 0], [10, 10])
        assert np.array_equal(box.project([-3, 12]), [0, 10])

    def test_mixed_clamp(self):
        box = FeasibleBox([0, 0, 0], [1, 1, 1])
        assert np.array_equal(box.project([0.5, -0.1, 1.1]), [0.5, 0, 1])

    def test_dimension_mismatch(self):
        box = FeasibleBox([0, 0], [1, 1])
        with pytest.raises(ValueError):
            box.project([1, 2, 3])

    def test_idempotent_and_nonexpansive(self, rng):
        for _ in range(200):
            n = rng.integers(1, 8)
            lower = rng.uniform(-5, 0, n)
            upper = lower + rng.uniform(0.1, 5, n)
            box = FeasibleBox(lower, upper)
            x = rng.uniform(-10, 10, n)
            y = rng.uniform(-10, 10, n)
            px, py = box.project(x), box.project(y)
            assert np.array_equal(box.project(px), px)
            assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-15

    def test_matches_np_clip_bitwise(self, rng):
        # signed zeros in the bounds and the input, points on the bounds,
        # and sizes on both sides of numpy's vector-loop widths
        specials = [0.0, -0.0, np.inf, -np.inf, np.nan]
        for _ in range(400):
            n = int(rng.integers(1, 40))
            lower = rng.choice([-0.0, 0.0, -1.0, -2.5], n)
            upper = np.where(rng.random(n) < 0.3, rng.choice([0.0, -0.0], n), 1.5)
            upper[upper <= lower] = 1.5
            box = FeasibleBox(lower, upper)
            x = rng.uniform(-4.0, 4.0, n)
            on_lower, on_upper = rng.random(n) < 0.2, rng.random(n) < 0.2
            x[on_lower], x[on_upper] = lower[on_lower], upper[on_upper]
            odd = rng.random(n) < 0.2
            x[odd] = rng.choice(specials, int(odd.sum()))
            got, ref = box.project(x), np.clip(x, lower, upper)
            assert np.array_equal(got, ref, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(ref))

    def test_degenerate_box_rejected(self):
        with pytest.raises(ValueError):
            FeasibleBox([0, 1], [1, 1])
        with pytest.raises(ValueError):
            FeasibleBox([0], [np.inf])


class TestEvalComponent:
    def test_qd_center_value(self):
        inst = qd_instance(n=10, r=10, seed=123, ordinal=0)
        problem = inst.to_problem()
        ledger = EvalLedger(problem.r)
        # At its own center the quadratic term vanishes.
        assert eval_component(problem, ledger, 1, inst.b[0]) == 5.0

    def test_deterministic_and_counted(self):
        problem = make_problem(
            [lambda x: float(x[0] ** 2), lambda x: 7.0], [0, 0], [10, 10], [2, 2]
        )
        ledger = EvalLedger(problem.r)
        v1 = eval_component(problem, ledger, 1, [2, 2])
        v2 = eval_component(problem, ledger, 1, [2, 2])
        assert v1 == v2 == 4.0
        assert ledger.component_evals[0] == 2 and ledger.component_evals[1] == 0

    def test_constant_oracle(self):
        problem = make_problem([lambda x: 3.0], [0], [1], [0.5])
        ledger = EvalLedger(1)
        assert eval_component(problem, ledger, 1, [0.25]) == 3.0

    def test_nonfinite_raises(self):
        for bad in (float("nan"), float("inf"), -float("inf")):
            problem = make_problem([lambda x: 0.0, lambda x, v=bad: v],
                                   [0], [1], [0.5])
            with pytest.raises(OracleError) as err:
                eval_component(problem, EvalLedger(2), 2, [0.5])
            assert err.value.index == 2
            with pytest.raises(OracleError) as err:
                eval_fmin(problem, EvalLedger(2), [0.5])
            assert err.value.index == 2

    def test_bad_index(self):
        problem = make_problem([lambda x: 0.0], [0], [1], [0.5])
        with pytest.raises(ValueError):
            eval_component(problem, EvalLedger(1), 2, [0.5])


class TestEvalFmin:
    def test_distinct_constants(self):
        problem = make_problem([lambda x: 2.0, lambda x: 5.0], [0], [1], [0.5])
        res = eval_fmin(problem, EvalLedger(2), [0.5])
        assert res.value == 2.0 and res.active == {1}

    def test_tie_yields_both(self):
        problem = make_problem([lambda x: 4.0, lambda x: 4.0], [0], [1], [0.5])
        res = eval_fmin(problem, EvalLedger(2), [0.5])
        assert res.value == 4.0 and res.active == {1, 2}

    def test_qd_matches_bruteforce(self):
        inst = qd_instance(n=10, r=10, seed=7, ordinal=3)
        problem = inst.to_problem()
        x0 = problem.x0
        res = eval_fmin(problem, EvalLedger(problem.r), x0)
        direct = [inst.component_value(i, x0) for i in range(1, 11)]
        assert res.value == min(direct)
        assert res.active == {int(np.argmin(direct)) + 1}
        # every reported active component attains the minimum exactly
        for i in res.active:
            assert direct[i - 1] == res.value

    def test_ledger_accounting(self):
        problem = make_problem([lambda x: 1.0, lambda x: 2.0, lambda x: 3.0],
                               [0], [1], [0.5])
        ledger = EvalLedger(3)
        eval_fmin(problem, ledger, [0.5])
        assert list(ledger.component_evals) == [1, 1, 1]
        assert ledger.fmin_evals == 1
        assert ledger.total_component_evals == 3


class TestChooseImin:
    def test_sticky(self):
        assert choose_imin({1, 3}, previous_index=3) == 3

    def test_smallest_when_previous_gone(self):
        assert choose_imin({2, 5}, previous_index=1) == 2

    def test_singleton(self):
        assert choose_imin({4}, previous_index=4) == 4

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            choose_imin(frozenset())

    @given(st.sets(st.integers(1, 50), min_size=1), st.integers(1, 50))
    @settings(max_examples=100)
    def test_always_member_and_sticky(self, active, prev):
        chosen = choose_imin(active, prev)
        assert chosen in active
        if prev in active:
            assert chosen == prev
        else:
            assert chosen == min(active)


class TestLedger:
    def test_trace_monotone(self):
        ledger = EvalLedger(2)
        ledger.component_evals[0] = 1
        ledger.note_value(5.0)
        ledger.component_evals[0] = 3
        ledger.note_value(7.0)  # not an improvement
        ledger.component_evals[0] = 6
        ledger.note_value(4.0)
        values = [p.value for p in ledger.trace]
        counts = [p.t_component for p in ledger.trace]
        assert values == [5.0, 4.0]
        assert counts == sorted(set(counts))

    def test_component_budget_enforced(self):
        problem = make_problem([lambda x: 1.0], [0], [1], [0.5])
        ledger = EvalLedger(1, budget=2)
        eval_component(problem, ledger, 1, [0.5])
        eval_component(problem, ledger, 1, [0.5])
        with pytest.raises(BudgetExceededError):
            eval_component(problem, ledger, 1, [0.5])

    def test_full_eval_may_straddle(self):
        fns = [lambda x: 1.0, lambda x: 2.0, lambda x: 3.0]
        problem = make_problem(fns, [0], [1], [0.5])
        ledger = EvalLedger(3, budget=4)
        eval_fmin(problem, ledger, [0.5])  # 3 evals, under budget
        eval_fmin(problem, ledger, [0.5])  # admitted at 3 < 4, ends at 6
        assert ledger.total_component_evals == 6  # overshoot < r
        with pytest.raises(BudgetExceededError):
            eval_fmin(problem, ledger, [0.5])

    def test_fmin_metering(self):
        fns = [lambda x: 1.0, lambda x: 2.0]
        problem = make_problem(fns, [0], [1], [0.5])
        ledger = EvalLedger(2, budget=2, metering="fmin")
        eval_fmin(problem, ledger, [0.5])
        eval_fmin(problem, ledger, [0.5])
        with pytest.raises(BudgetExceededError):
            eval_fmin(problem, ledger, [0.5])


class TestProblemValidation:
    def test_infeasible_start(self):
        with pytest.raises(ValueError):
            make_problem([lambda x: 0.0], [0], [1], [2.0])

    def test_component_indices_checked(self):
        comps = [ComponentOracle(2, lambda x: 0.0)]
        with pytest.raises(ValueError):
            LovoProblem("bad", comps, FeasibleBox([0], [1]), [0.5])

    def test_oracles_never_called_outside_box(self):
        seen = []

        def spy(x):
            seen.append(np.array(x))
            return float(np.sum(x))

        problem = make_problem([spy], [0, 0], [1, 1], [0.5, 0.5])
        eval_component(problem, EvalLedger(1), 1, [2.0, -1.0])
        assert np.array_equal(seen[0], [1.0, 0.0])


class TestSerialization:
    def test_document_shape(self):
        problem = gen_qd(3, 2, seed=11, count=1)[0]
        doc = problem_to_dict(problem)
        assert set(doc) == {"name", "n", "r", "lower", "upper", "x0", "generator"}
        assert doc["n"] == 3 and doc["r"] == 2

    def test_roundtrip_restores_oracles(self, rng):
        problem = gen_qd(4, 3, seed=99, count=2)[1]
        clone = problem_from_dict(problem_to_dict(problem))
        ledger_a, ledger_b = EvalLedger(3), EvalLedger(3)
        for _ in range(20):
            x = rng.uniform(0, 10, 4)
            for i in (1, 2, 3):
                assert eval_component(problem, ledger_a, i, x) == eval_component(
                    clone, ledger_b, i, x
                )

    def test_unknown_generator(self):
        with pytest.raises(ValueError):
            problem_from_dict({"name": "x", "n": 1, "r": 1, "lower": [0],
                               "upper": [1], "x0": [0],
                               "generator": {"kind": "nope", "params": {}}})

    def test_generator_required(self):
        problem = make_problem([lambda x: 0.0], [0], [1], [0.5])
        with pytest.raises(ValueError):
            problem_to_dict(problem)
