from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import active_set, count_calls
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
from lovotr.solver import SolverConfig, solve
from lovotr.testsets import gen_qd, qd_instance


def make_problem(fns, lower, upper, x0, eval_all=None):
    comps = [ComponentOracle(i + 1, fn) for i, fn in enumerate(fns)]
    return LovoProblem("test", comps, FeasibleBox(lower, upper), x0, eval_all=eval_all)


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
        calls = count_calls(problem)
        ledger = EvalLedger(problem.r)
        v1 = eval_component(problem, ledger, 1, [2, 2])
        v2 = eval_component(problem, ledger, 1, [2, 2])
        assert v1 == v2 == 4.0
        assert calls == {1: 2}
        assert ledger.total_component_evals == 2 and ledger.fmin_evals == 0

    def test_constant_oracle(self):
        problem = make_problem([lambda x: 3.0], [0], [1], [0.5])
        ledger = EvalLedger(1)
        assert eval_component(problem, ledger, 1, [0.25]) == 3.0

    def test_nonfinite_raises(self):
        # (component values, the index a full evaluation must name): one bad
        # value, and bad values at k and k + 2, where the lowest one is named.
        # Each case runs through the component loop and through an eval_all
        # that returns the same values at once.  A full evaluation is charged
        # in full before the first call, so the ledger counts all r values.
        nonfinite = (float("nan"), float("inf"), -float("inf"))
        cases = [([0.0, bad], 2) for bad in nonfinite]
        cases += [([1.0, bad, 2.0, other, 3.0], 2)
                  for bad in nonfinite for other in nonfinite]
        for values, index in cases:
            calls = []
            fns = [lambda x, v=v: calls.append(v) or v for v in values]
            loop = make_problem(fns, [0], [1], [0.5])
            batch = make_problem(fns, [0], [1], [0.5],
                                 eval_all=lambda x, v=values: np.array(v))
            ledger = EvalLedger(len(values))
            with pytest.raises(OracleError) as err:
                eval_component(loop, ledger, index, [0.5])
            assert err.value.index == index
            assert ledger.total_component_evals == 1 and ledger.fmin_evals == 0
            raised = []
            for problem in (loop, batch):
                calls.clear()
                ledger = EvalLedger(len(values))
                with pytest.raises(OracleError) as err:
                    eval_fmin(problem, ledger, [0.5])
                assert err.value.index == index
                assert ledger.total_component_evals == len(values)
                assert ledger.fmin_evals == 1
                raised.append((repr(err.value.value), len(calls)))
            # the loop stops at the bad component; the batch calls no component
            assert raised == [(repr(values[index - 1]), index), (repr(values[index - 1]), 0)]
        # with r = 1 a single-component call is a full evaluation, counted as
        # one although its oracle answered NaN, as eval_fmin counts it
        for call in (lambda p, led: eval_component(p, led, 1, [0.5]),
                     lambda p, led: eval_fmin(p, led, [0.5])):
            ledger = EvalLedger(1)
            with pytest.raises(OracleError):
                call(make_problem([lambda x: float("nan")], [0], [1], [0.5]), ledger)
            assert ledger.total_component_evals == ledger.fmin_evals == 1

    def test_bad_index(self):
        problem = make_problem([lambda x: 0.0], [0], [1], [0.5])
        with pytest.raises(ValueError):
            eval_component(problem, EvalLedger(1), 2, [0.5])


class TestEvalFmin:
    def test_distinct_constants(self):
        problem = make_problem([lambda x: 2.0, lambda x: 5.0], [0], [1], [0.5])
        values = eval_fmin(problem, EvalLedger(2), [0.5])
        assert values.min() == 2.0 and active_set(values) == {1}

    def test_tie_yields_both(self):
        problem = make_problem([lambda x: 4.0, lambda x: 4.0], [0], [1], [0.5])
        values = eval_fmin(problem, EvalLedger(2), [0.5])
        assert values.min() == 4.0 and active_set(values) == {1, 2}

    def test_qd_matches_bruteforce(self):
        inst = qd_instance(n=10, r=10, seed=7, ordinal=3)
        problem = inst.to_problem()
        x0 = problem.x0
        ledger = EvalLedger(problem.r)
        values = eval_fmin(problem, ledger, x0)
        direct = [inst.component_value(i, x0) for i in range(1, 11)]
        assert values.tolist() == direct
        assert ledger.best_certified == min(direct)
        assert active_set(values) == {int(np.argmin(direct)) + 1}

    def test_ledger_accounting(self):
        problem = make_problem([lambda x: 1.0, lambda x: 2.0, lambda x: 3.0],
                               [0], [1], [0.5])
        calls = count_calls(problem)
        ledger = EvalLedger(3)
        eval_fmin(problem, ledger, [0.5])
        assert calls == {1: 1, 2: 1, 3: 1}
        assert ledger.fmin_evals == 1
        assert ledger.total_component_evals == 3


class TestBatchOracle:
    """``eval_fmin`` through ``LovoProblem.eval_all`` against the component loop."""

    @staticmethod
    def counted(problem):
        """Same problem with every ``fn`` counting its calls, ``eval_all`` kept."""
        calls = Counter()

        def counting(comp):
            def fn(x, _comp=comp):
                calls[_comp.index] += 1
                return _comp.fn(x)

            return ComponentOracle(comp.index, fn)

        clone = LovoProblem(problem.name, [counting(c) for c in problem.components],
                            problem.box, problem.x0, eval_all=problem.eval_all)
        return clone, calls

    @staticmethod
    def count_batch_calls(problem):
        """Count ``eval_all`` calls; wrapping the field keeps the batch on."""
        calls = [0]
        eval_all = problem.eval_all

        def counting_eval_all(x):
            calls[0] += 1
            return eval_all(x)

        problem.eval_all = counting_eval_all
        return calls

    def test_fmin_results_match_the_loop(self, rng):
        for n, r in ((1, 1), (2, 7), (10, 10), (10, 100), (12, 33)):
            inst = qd_instance(n, r, 20240817, n)
            batched, looped = inst.to_problem(), inst.to_problem()
            batch_calls = self.count_batch_calls(batched)
            looped_calls = count_calls(looped)
            ledgers = [EvalLedger(r, budget=25 * r), EvalLedger(r, budget=25 * r)]
            # eval_fmin passes points on as given, so the batch and the loop
            # must agree off the box too; the rows of b give each component's
            # floor value; 30 or more points overrun the budget
            points = [rng.uniform(-2.0, 12.0, n) for _ in range(30)] + list(inst.b)
            for x in points:
                got = []
                for problem, ledger in zip((batched, looped), ledgers):
                    try:
                        got.append(eval_fmin(problem, ledger, x))
                    except BudgetExceededError:
                        got.append(None)
                if got[0] is None:
                    assert got[1] is None
                    continue
                a, b = got
                assert a.tobytes() == b.tobytes()
            assert (ledgers[0].total_component_evals == ledgers[1].total_component_evals
                    == 25 * r)
            assert ledgers[0].fmin_evals == ledgers[1].fmin_evals == 25
            assert ledgers[0].trace == ledgers[1].trace
            assert batch_calls[0] == 25
            assert looped_calls == {i: 25 for i in range(1, r + 1)}

    def test_solve_histories_match_the_loop(self):
        inst = qd_instance(6, 25, 20240817, 2)
        batched, single_calls = self.counted(inst.to_problem())
        batch_calls = self.count_batch_calls(batched)
        looped = inst.to_problem()
        looped_calls = count_calls(looped)
        a, b = [solve(problem, SolverConfig(budget=1500, use_cheap_rho=False))
                for problem in (batched, looped)]
        assert a.ledger.fmin_evals == batch_calls[0] > 10
        assert [repr(o) for o in a.history] == [repr(o) for o in b.history]
        assert a.status == b.status and repr(a.f_final) == repr(b.f_final)
        # each batch call stands for one call of every component
        assert looped_calls == {i: single_calls[i] + batch_calls[0] for i in range(1, 26)}
        assert a.ledger.total_component_evals == b.ledger.total_component_evals
        assert a.ledger.fmin_evals == b.ledger.fmin_evals
        assert a.ledger.trace == b.ledger.trace

    def test_rebound_fn_turns_the_batch_off(self):
        problem, calls = self.counted(qd_instance(4, 6, 11, 0).to_problem())
        eval_fmin(problem, EvalLedger(6), [1.0, 2.0, 3.0, 4.0])
        assert not calls  # one eval_all call, no component call
        built = problem.components[2].fn
        problem.components[2].fn = lambda x: built(x)
        for _ in range(3):
            eval_fmin(problem, EvalLedger(6), [1.0, 2.0, 3.0, 4.0])
        assert calls == {i: 3 for i in range(1, 7)}
        problem.components[2].fn = lambda x: float("nan")
        with pytest.raises(OracleError) as err:
            eval_fmin(problem, EvalLedger(6), [1.0, 2.0, 3.0, 4.0])
        assert err.value.index == 3
        # restoring the function the problem was built with restores the batch
        calls.clear()
        problem.components[2].fn = built
        eval_fmin(problem, EvalLedger(6), [1.0, 2.0, 3.0, 4.0])
        assert not calls

    def test_list_result_matches_the_array(self):
        inst = qd_instance(4, 3, 11, 0)
        arrays, listed = inst.to_problem(), inst.to_problem()
        eval_all = listed.eval_all
        listed.eval_all = lambda x: eval_all(x).tolist()
        a, b = [solve(problem, SolverConfig(budget=300, use_cheap_rho=False))
                for problem in (arrays, listed)]
        assert a.ledger.fmin_evals > 1
        assert [repr(o) for o in a.history] == [repr(o) for o in b.history]

    @pytest.mark.parametrize("one_value", [lambda v: v[0], lambda v: v[:1]],
                             ids=["scalar", "length-1"])
    def test_wrong_shape_is_named(self, one_value):
        fns = [lambda x: float(x[0]), lambda x: float(3.0 * x[0] - 8.5)]
        problem = make_problem(
            fns, [0, 0], [10, 10], [5, 5],
            eval_all=lambda x: one_value(np.array([fn(x) for fn in fns])))
        with pytest.raises(ValueError) as err:
            solve(problem, SolverConfig(use_cheap_rho=False))
        shape = str(np.shape(one_value(np.zeros(2))))
        assert "'test'" in str(err.value) and shape in str(err.value)
        assert "(2,)" in str(err.value)

    def test_replaced_component_turns_the_batch_off(self):
        problem, calls = self.counted(qd_instance(3, 4, 11, 1).to_problem())
        problem.components[0] = ComponentOracle(1, lambda x: -1.0)
        values = eval_fmin(problem, EvalLedger(4), [5.0, 5.0, 5.0])
        assert values.min() == -1.0 and active_set(values) == {1}
        assert calls == {2: 1, 3: 1, 4: 1}


class TestChooseImin:
    def test_sticky(self):
        assert choose_imin(np.array([1.0, 2.0, 1.0]), previous_index=3) == 3

    def test_smallest_when_previous_gone(self):
        assert choose_imin(np.array([3.0, 1.0, 2.0, 3.0, 1.0]), previous_index=1) == 2

    def test_singleton(self):
        assert choose_imin(np.array([3.0, 3.0, 3.0, 0.5]), previous_index=4) == 4

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            choose_imin(np.array([]))

    def test_signed_zeros_tie(self):
        for values in ([0.0, -0.0], [-0.0, 0.0]):
            assert choose_imin(np.array(values)) == 1
            assert choose_imin(np.array(values), previous_index=2) == 2

    @given(st.lists(st.sampled_from([-1.5, -0.0, 0.0, 2.0]) | st.floats(-1e3, 1e3),
                    min_size=1, max_size=12), st.data())
    @settings(max_examples=300)
    def test_always_member_and_sticky(self, listed, data):
        # reference: the rule stated on the active set, keeping the previous
        # index while it is active and taking the smallest one otherwise
        values = np.array(listed)
        prev = data.draw(st.none() | st.integers(1, values.size))
        active = active_set(values)
        expected = prev if prev in active else min(active)
        assert choose_imin(values, prev) == expected


class TestLedger:
    def test_trace_monotone(self):
        ledger = EvalLedger(2)
        ledger._charge(1)
        ledger.note_value(5.0)
        ledger._charge(2)
        ledger.note_value(7.0)  # not an improvement
        ledger._charge(1)
        ledger._charge(2)
        ledger.note_value(4.0)
        values = [p.value for p in ledger.trace]
        counts = [p.t_component for p in ledger.trace]
        assert values == [5.0, 4.0]
        assert counts == sorted(set(counts))
        assert [p.t_fmin for p in ledger.trace] == [0, 2]  # a charge of r is one

    @pytest.mark.parametrize("budget", [0, -3, 2.5, True, np.float64(4.0), "10"])
    def test_budget_must_be_an_integer_of_at_least_one(self, budget):
        # 2.5 would run 3 evaluations, and True would pass for 1
        with pytest.raises(ValueError, match="budget"):
            EvalLedger(2, budget=budget)
        with pytest.raises(ValueError, match="budget"):
            SolverConfig(budget=budget)

    @pytest.mark.parametrize("r", [0, 2.5, True, "2", np.float64(2.0), None])
    def test_component_count_must_be_an_integer_of_at_least_one(self, r):
        # 2.5 would count a float number of components, True would pass for 1
        with pytest.raises(ValueError, match="r must be an integer"):
            EvalLedger(r)

    @pytest.mark.parametrize("budget", [None, 1, 2**40, np.int64(7), np.int32(1)])
    def test_integer_budgets_accepted(self, budget):
        assert EvalLedger(2, budget=budget).budget == budget
        assert SolverConfig(budget=budget).budget == budget

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


class TestOracleArguments:
    """An oracle receives a read-only view of the point, so one that writes
    into its argument raises instead of moving a point the solver holds."""

    @staticmethod
    def writes_its_argument(x):
        x[0] += 0.5
        return float(np.sum(x ** 2))

    def test_x0_is_the_problems_own_read_only_copy(self):
        x0 = np.array([5.0, 5.0])
        problem = make_problem([lambda x: 0.0], [0, 0], [10, 10], x0)
        x0[0] = 7.0
        assert np.array_equal(problem.x0, [5, 5])
        with pytest.raises(ValueError, match="read-only"):
            problem.x0[0] = 7.0

    @pytest.mark.parametrize("batch", [False, True], ids=["components", "eval_all"])
    def test_a_writing_oracle_moves_no_point(self, batch):
        # unguarded, the full evaluation at x0 moved both problem.x0 and the
        # caller's array from (5, 5) to (5.5, 5)
        fns = [lambda x: float(np.sum(x)), self.writes_its_argument]
        eval_all = (lambda x: np.array([fn(x) for fn in fns])) if batch else None
        x0, x = np.array([5.0, 5.0]), np.array([6.0, 5.0])
        problem = make_problem(fns, [0, 0], [10, 10], x0, eval_all=eval_all)
        for evaluate in (lambda: eval_fmin(problem, EvalLedger(2), problem.x0),
                         lambda: eval_fmin(problem, EvalLedger(2), x),
                         lambda: eval_component(problem, EvalLedger(2), 2, x)):
            with pytest.raises(ValueError, match="read-only"):
                evaluate()
        assert np.array_equal(problem.x0, [5, 5]) and np.array_equal(x0, [5, 5])
        assert np.array_equal(x, [6, 5])


class TestProblemValidation:
    def test_infeasible_start(self):
        with pytest.raises(ValueError):
            make_problem([lambda x: 0.0], [0], [1], [2.0])

    def test_component_indices_checked(self):
        comps = [ComponentOracle(2, lambda x: 0.0)]
        with pytest.raises(ValueError):
            LovoProblem("bad", comps, FeasibleBox([0], [1]), [0.5])


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

    def test_unknown_params_key_is_refused(self):
        # a document's params are the generator's keyword arguments
        doc = problem_to_dict(gen_qd(3, 2, seed=11, count=1)[0])
        doc["generator"]["params"]["scale"] = 2.0
        with pytest.raises(ValueError, match="bad params for generator kind 'qd'.*'scale'"):
            problem_from_dict(doc)

    def test_unknown_generator(self):
        with pytest.raises(ValueError):
            problem_from_dict({"name": "x", "n": 1, "r": 1, "lower": [0],
                               "upper": [1], "x0": [0],
                               "generator": {"kind": "nope", "params": {}}})

    def test_generator_required(self):
        problem = make_problem([lambda x: 0.0], [0], [1], [0.5])
        with pytest.raises(ValueError):
            problem_to_dict(problem)
