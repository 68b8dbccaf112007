import dataclasses
import json
import math
import os
import sys
import tempfile
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    adjustment_counts,
    assert_radii_replay,
    central_diff_gradient,
    count_calls,
)
import lovotr.model
from lovotr.errors import BudgetExceededError, GeometryError
from lovotr.model import LinearModel, build_model, initial_sample, model_stationarity
from lovotr.problem import ComponentOracle, EvalLedger, FeasibleBox, LovoProblem
from lovotr.solver import (
    BETA,
    DELTA_MIN,
    ETA,
    ETA1,
    ETA2,
    GAMMA_MAX,
    MAXCRIT_RIDE,
    NRHOMAX,
    RADIUS0,
    STATUS_BUDGET,
    STATUS_GEOMETRY,
    STATUS_MAXCRIT,
    STATUS_ORACLE,
    STATUS_STALLED,
    STATUS_SUCCESS,
    SolverConfig,
    SolverState,
    StepOutcome,
    TAU1,
    TAU2,
    TAU3,
    TAU4,
    _commit,
    _initial_state,
    _recover_geometry,
    check_stopping,
    iterate,
    radius_floor,
    solve,
)
from lovotr.testsets import gen_hs, gen_mw, gen_qd, qd_instance, HS_CATALOG


def single_quadratic(n, c, lower=0.0, upper=10.0):
    c = np.asarray(c, float)
    fn = lambda x: float(np.sum((np.asarray(x) - c) ** 2))
    return LovoProblem(
        "quad",
        [ComponentOracle(1, fn)],
        FeasibleBox(np.full(n, lower), np.full(n, upper)),
        np.full(n, 0.5 * (lower + upper)),
    )


def committed_state(sample, box, delta, Delta, ledger):
    """A state committed to the model of ``sample``, metered by ``ledger``."""
    model = build_model(sample)
    return SolverState(delta=delta, Delta=Delta, Gamma=0, sample=sample, model=model,
                       pi=model_stationarity(model, box), ledger=ledger)


def linear_pair():
    """f1 = x1 is active at the start; f2 undercuts one unit to the left."""
    comps = [
        ComponentOracle(1, lambda x: float(x[0])),
        ComponentOracle(2, lambda x: float(3.0 * x[0] - 8.5)),
    ]
    return LovoProblem("pair", comps, FeasibleBox([0, 0], [10, 10]), [5, 5])


def loop_orderings_hold():
    """The orderings the loop's constants must satisfy."""
    return (BETA > 0 and 0 < TAU1 <= TAU2 < 1 <= TAU3 <= TAU4
            and 0 <= ETA < ETA1 <= ETA2 and ETA1 < 1
            and GAMMA_MAX >= 1 and NRHOMAX >= 1 and 0 < DELTA_MIN < RADIUS0)


SETTINGS = ("budget", "use_cheap_rho")


class TestConfigValidation:
    @pytest.mark.parametrize("bad, error", [
        (dict(budget=0), ValueError),
        (dict(delta0=1.0), TypeError),  # the lengths are module constants
    ], ids=["budget-0", "length-setting"])
    def test_bad_settings_refused(self, bad, error):
        with pytest.raises(error):
            SolverConfig(**bad)

    @pytest.mark.parametrize("flag", ["no", None, 0, 2, 1.0, np.int64(1)])
    def test_use_cheap_rho_must_be_a_bool(self, flag):
        # the truthy "no" would turn the cheap ratio on
        with pytest.raises(ValueError, match="use_cheap_rho"):
            SolverConfig(use_cheap_rho=flag)

    @pytest.mark.parametrize("flag", [True, False, np.True_, np.False_])
    def test_bool_flags_accepted(self, flag):
        assert SolverConfig(use_cheap_rho=flag).use_cheap_rho == flag

    def test_defaults_valid(self):
        SolverConfig()
        assert loop_orderings_hold()

    def test_only_caller_settings_are_fields(self):
        assert tuple(f.name for f in dataclasses.fields(SolverConfig)) == SETTINGS
        with pytest.raises(TypeError):
            SolverConfig(tau1=0.5)


class TestIterationPhases:
    def make_state(self, problem, delta=RADIUS0, Delta=RADIUS0):
        ledger = EvalLedger(problem.r)
        sample = initial_sample(problem, problem.x0, delta, ledger, 1)
        return committed_state(sample, problem.box, delta, Delta, ledger), ledger

    def test_criticality_shrinks_radii(self):
        problem = single_quadratic(2, [5, 5])
        config = SolverConfig()
        state, ledger = self.make_state(problem, 0.5, 1.0)
        # a stationary model forces the criticality branch (delta > beta*pi = 0)
        model = state.model
        _commit(state, LinearModel(index=1, base=model.base.copy(), fx=model.fx,
                                   g=np.zeros(2)), problem.box)
        before = ledger.total_component_evals
        outcome = iterate(state, problem, config)
        assert outcome.kind == "criticality"
        assert outcome.rho == 0.0 and np.all(outcome.d == 0)
        assert state.delta == 0.5 * TAU1
        assert state.Delta == 1.0 * 0.5 * (TAU1 + TAU2)
        assert ledger.total_component_evals == before

    def test_growth_on_strong_full_length_step(self):
        # f is linear, so the model is exact, rho = 1 > eta2, and the step
        # always runs to the trust-region boundary
        comps = [ComponentOracle(1, lambda x: float(x[0] + 0.5 * x[1]))]
        problem = LovoProblem("lin", comps, FeasibleBox([0, 0], [10, 10]), [5, 5])
        config = SolverConfig()
        state, ledger = self.make_state(problem)
        outcome = iterate(state, problem, config)
        assert outcome.kind == "successful_plain"
        assert outcome.rho == pytest.approx(1.0)
        assert outcome.full_length
        assert state.delta == state.Delta == RADIUS0 * TAU3

    def test_swap_triggers_adjustment_and_rebuild(self):
        problem = linear_pair()
        config = SolverConfig(use_cheap_rho=False)
        state, ledger = self.make_state(problem)
        assert state.model.fx == 5.0  # certified objective value at the start
        calls = count_calls(problem)
        before = ledger.total_component_evals
        outcome = iterate(state, problem, config)
        assert outcome.index_swapped and outcome.adjusted
        assert outcome.kind == "successful_adjusted"
        assert state.model.index == 2
        assert state.Gamma == 1
        assert state.delta == state.Delta == RADIUS0 * TAU4
        assert np.array_equal(state.model.base, [4.0, 5.0])
        assert state.model.fx == pytest.approx(3.5)
        # full evaluation called both components once, rebuild called the
        # new component at the two sample points other than the base
        assert calls == {1: 1, 2: 1 + 2}
        assert ledger.total_component_evals - before == 2 + 2

    def test_rejection_keeps_iterate(self):
        # an adversarial oracle that punishes any move
        fn = lambda x: 0.0 if np.array_equal(x, [5.0, 5.0]) else 100.0
        problem = LovoProblem(
            "spite", [ComponentOracle(1, fn)], FeasibleBox([0, 0], [10, 10]), [5, 5]
        )
        config = SolverConfig()
        ledger = EvalLedger(1)
        sample = initial_sample(problem, problem.x0, 1.0, ledger, 1)
        state = committed_state(sample, problem.box, 1.0, 1.0, ledger)
        assert state.model.fx == 0.0
        before = ledger.total_component_evals
        outcome = iterate(state, problem, config)
        assert not outcome.index_swapped
        assert np.array_equal(state.model.base, [5.0, 5.0])
        assert state.delta == TAU1  # failed step shrinks the radii
        # the rejected candidate falls back to one geometry step
        assert outcome.kind == "altmov" and outcome.rho_defined
        assert ledger.total_component_evals - before == 2

    def test_unsuccessful_cheap_candidate_becomes_the_iterate(self):
        # f1 = -x1 + 0.49 (x1 - 5)^2 gives the step (2, 0) a cheap ratio of
        # 0.04 / 1.51: positive, so the candidate lies below the base value
        # and takes the base slot, yet below ETA, so the step is unsuccessful
        comps = [
            ComponentOracle(1, lambda x: float(-x[0] + 0.49 * (x[0] - 5.0) ** 2)),
            ComponentOracle(2, lambda x: 100.0),
        ]
        problem = LovoProblem("shallow", comps, FeasibleBox([0, 0], [10, 10]), [5, 5])
        state, ledger = self.make_state(problem, 0.5, 2.0)
        outcome = iterate(state, problem, SolverConfig())
        assert outcome.kind == "unsuccessful" and outcome.rho_was_cheap
        assert 0.0 < outcome.rho < ETA
        assert np.array_equal(state.model.base, [7.0, 5.0])
        assert state.model.fx == problem.components[0]([7.0, 5.0])
        assert (state.delta, state.Delta) == (0.5 * TAU1, 2.0 * TAU1)

    @staticmethod
    def refusing_exchange(v):
        """Step (2, 0) to (7, 5) lands on f1 = 1, where the exchange refuses it.

        The sample (5,5), (6,5), (5,6) holds f1's minimum at (6,5), and the
        candidate's Lagrange weight is zero at row 2, so no row is
        admissible.  f2 takes the value ``v`` there, which sets the ratio.
        """
        comps = [
            ComponentOracle(1, lambda x: float((x[0] - 6.0) ** 2)),
            ComponentOracle(2, lambda x: float(v) if x[0] >= 6.99 else 20.0),
        ]
        problem = LovoProblem("refused", comps, FeasibleBox([0, 0], [10, 10]), [5, 5])
        ledger = EvalLedger(problem.r)
        sample = initial_sample(problem, problem.x0, 1.0, ledger, 1)
        return problem, committed_state(sample, problem.box, 1.0, 2.0, ledger), ledger

    def test_refused_candidate_takes_a_geometry_step(self):
        problem, state, ledger = self.refusing_exchange(0.99)
        before = ledger.total_component_evals
        outcome = iterate(state, problem, SolverConfig(use_cheap_rho=False))
        assert outcome.kind == "altmov" and outcome.rho_defined
        assert outcome.rho == pytest.approx(0.005) and outcome.rho < ETA
        assert not outcome.radii_frozen and not outcome.adjusted
        assert (state.delta, state.Delta) == (1.0 * TAU1, 2.0 * TAU1)
        assert state.model_doubted and state.rho_cheap_streak == 0
        # the full evaluation at the candidate, then one geometry evaluation
        assert ledger.total_component_evals - before == 2 + 1
        assert np.array_equal(state.model.base, [5.0, 5.0])

    def test_refused_accepted_candidate_takes_a_geometry_step(self):
        # f2 = 0 at the candidate gives the full ratio (1 - 0) / 2 = 0.5, so
        # the step is accepted, yet the exchange refuses it: the iteration is
        # the same geometry step as for any refused candidate, the run does
        # not need a recovery, and Gamma is left alone
        problem, state, ledger = self.refusing_exchange(0.0)
        state.Gamma = 2
        before = ledger.total_component_evals
        outcome = iterate(state, problem, SolverConfig(use_cheap_rho=False))
        assert outcome.kind == "altmov" and outcome.rho_defined
        assert outcome.rho == pytest.approx(0.5) and outcome.rho >= ETA1
        assert not outcome.radii_frozen and not outcome.adjusted
        assert (state.delta, state.Delta) == (1.0 * TAU1, 2.0 * TAU1)
        assert state.Gamma == outcome.Gamma == 2
        assert ledger.total_component_evals - before == 2 + 1
        assert np.array_equal(state.model.base, [5.0, 5.0])
        assert state.model.fx == 1.0

    def test_stale_sample_is_repaired_with_frozen_radii(self):
        # after a poor ratio, a sample point beyond 2 * Delta is replaced
        # before stepping again; the radii and the base stay put
        problem = single_quadratic(2, [8, 8])
        config = SolverConfig()
        state, ledger = self.make_state(problem)
        state.delta, state.Delta = 0.25, 0.4
        state.model_doubted = True
        points = state.sample.points.copy()
        before = ledger.total_component_evals
        outcome = iterate(state, problem, config)
        assert outcome.kind == "altmov" and outcome.radii_frozen
        assert not outcome.rho_defined
        assert (state.delta, state.Delta) == (0.25, 0.4)
        assert np.array_equal(state.model.base, points[0])
        assert ledger.total_component_evals - before == 1
        # both offsets lie 1 from the base; the tie goes to the last row
        assert np.array_equal(state.sample.points[:2], points[:2])
        assert not np.array_equal(state.sample.points[2], points[2])
        assert np.linalg.norm(state.sample.points[2] - points[0]) <= 0.25

    def test_frozen_repair_rewrites_one_matrix_row(self, monkeypatch):
        # the repair keeps the base, so the sample's cached interpolation
        # matrix takes the new row in place, one distance changes and the
        # room is not recomputed
        problem = single_quadratic(2, [8, 8])
        state, ledger = self.make_state(problem)
        state.delta, state.Delta = 0.25, 0.4
        state.model_doubted = True
        matrix = state.sample.interpolation_matrix()
        before, dist = matrix.copy(), state.sample.distances.copy()
        rooms = []  # the bases whose room was computed
        face_distance = lovotr.model._face_distance

        def counted(base, box):
            rooms.append(base.copy())
            return face_distance(base, box)

        monkeypatch.setattr(lovotr.model, "_face_distance", counted)
        outcome = iterate(state, problem, SolverConfig())
        assert outcome.kind == "altmov" and outcome.radii_frozen
        after = state.sample.interpolation_matrix()
        assert after is matrix
        assert np.array_equal(after[:2], before[:2])
        assert not np.array_equal(after[2], before[2])
        expected = np.concatenate([[1.0], state.sample.points[2] - state.sample.base])
        assert after[2].tobytes() == expected.tobytes()
        assert state.sample.distances[0] == dist[0] and state.sample.distances[1] != dist[1]
        assert state.sample.distances[1] == math.sqrt(np.add.reduce(expected[1:] ** 2))
        assert rooms == [] and state.sample.room == 5.0  # the base (5, 5) in [0, 10]^2

    def test_short_step_shrinks_both_radii(self):
        # the box clips the trust-region step to a quarter of Delta, which is
        # not worth an evaluation: a geometry step on a fresh sample shrinks
        comps = [ComponentOracle(1, lambda x: float(np.sum((np.asarray(x) - 20.0) ** 2)))]
        problem = LovoProblem("corner", comps, FeasibleBox([0, 0], [10, 10]),
                              [9.9, 9.9])
        config = SolverConfig()
        state, ledger = self.make_state(problem, 0.1, 1.0)
        outcome = iterate(state, problem, config)
        assert outcome.kind == "altmov"
        assert not outcome.rho_defined and not outcome.radii_frozen
        assert state.delta == 0.1 * TAU1
        assert state.Delta == 1.0 * TAU1


class TestStopping:
    def make_state(self, g, delta, Delta, consec_alt=0, consec_crit=0, fx=0.0):
        problem = single_quadratic(2, [5, 5])
        ledger = EvalLedger(1)
        sample = initial_sample(problem, problem.x0, 1.0, ledger, 1)
        model = LinearModel(index=1, base=sample.base.copy(), fx=fx,
                            g=np.asarray(g, float))
        state = SolverState(
            delta=delta, Delta=Delta, Gamma=0, sample=sample, model=model,
            pi=model_stationarity(model, problem.box), ledger=ledger,
            consec_alt=consec_alt, consec_crit=consec_crit,
        )
        return state, problem, ledger

    def test_success(self):
        state, problem, ledger = self.make_state([0, 0], 1e-9, 1.0)
        assert check_stopping(state, problem) == "success"

    def test_stalled(self):
        state, problem, ledger = self.make_state([1, 0], 1e-9, 1e-9, consec_alt=2)
        assert check_stopping(state, problem) == "stalled"

    def test_stall_at_rounding_floor_of_large_values(self):
        # near f = 3125 values resolve nothing finer than the floor, which
        # lies well above DELTA_MIN; the stall test fires there and not above
        floor = radius_floor(3125.0)
        assert floor == pytest.approx(0.1 * np.sqrt(np.finfo(float).eps * 3125.0))
        assert floor > 8 * DELTA_MIN
        state, problem, ledger = self.make_state([1, 0], floor, floor,
                                                 consec_alt=2, fx=3125.0)
        assert check_stopping(state, problem) == "stalled"
        state, problem, ledger = self.make_state([1, 0], 2 * floor, floor,
                                                 consec_alt=2, fx=3125.0)
        assert check_stopping(state, problem) is None
        state, problem, ledger = self.make_state([1, 0], floor, 2 * floor,
                                                 consec_alt=2, fx=3125.0)
        assert check_stopping(state, problem) is None

    def test_floor_is_delta_min_for_small_values(self):
        assert radius_floor(0.0) == DELTA_MIN == 1e-8
        assert radius_floor(-40.0) == DELTA_MIN
        assert radius_floor(-3125.0) == radius_floor(3125.0)

    def test_maxcrit(self):
        # a spell may ride delta from RADIUS0 = 1 down to DELTA_MIN = 1e-8 by
        # halvings (27 of them), plus n = 2
        assert MAXCRIT_RIDE == 27
        state, problem, ledger = self.make_state([1, 0], 1.0, 1.0, consec_crit=29)
        assert check_stopping(state, problem) is None
        state, problem, ledger = self.make_state([1, 0], 1.0, 1.0, consec_crit=30)
        assert check_stopping(state, problem) == "maxcrit_exceeded"

    def test_budget(self):
        state, problem, ledger = self.make_state([1, 0], 1.0, 1.0)
        ledger.budget = ledger.total_component_evals + 1
        ledger._charge(1)  # the last evaluation the budget admits
        assert check_stopping(state, problem) == (
            "budget_exhausted"
        )

    def test_continue(self):
        state, problem, ledger = self.make_state([1, 0], 1.0, 1.0)
        assert check_stopping(state, problem) is None


class TestSolve:
    def test_single_quadratic_interior(self):
        problem = single_quadratic(2, [3.0, 7.0])
        result = solve(problem, SolverConfig(budget=600))
        assert np.linalg.norm(result.x_final - [3.0, 7.0]) <= 1e-4
        assert result.f_final <= 1e-6

    def test_constant_dominance_never_swaps(self):
        # component 2 sits strictly above component 1 everywhere, so the run
        # behaves exactly like single-component minimization
        c = np.array([4.0, 6.0])
        comps = [
            ComponentOracle(1, lambda x: float(np.sum((x - c) ** 2))),
            ComponentOracle(2, lambda x: float(np.sum((x - c) ** 2)) + 5.0),
        ]
        problem = LovoProblem("dom", comps, FeasibleBox([0, 0], [10, 10]), [5, 5])
        result = solve(problem, SolverConfig(budget=2000))
        assert result.i_final == 1
        assert not any(o.index_swapped for o in result.history)
        assert result.f_final <= 1e-6

    def test_qd_reaches_weak_stationarity(self):
        inst = qd_instance(n=10, r=10, seed=5, ordinal=0)
        problem = inst.to_problem()
        result = solve(problem, SolverConfig(budget=11000))
        assert result.status in ("success", "stalled")
        x, i = result.x_final, result.i_final
        fd = central_diff_gradient(lambda z: inst.component_value(i, z), x, h=1e-6)
        pi_f = np.linalg.norm(problem.box.project(x - fd) - x)
        assert pi_f < 1e-4

    def test_qd_p030_stops_at_the_rounding_floor(self):
        # Without a floor the radii of this run collapse to 4e-12, where
        # values near its basin floor 5**5 resolve no gradient, and it stalls
        # with a true projected gradient of 1.2e-4 (acceptance criterion 3).
        inst = qd_instance(10, 10, 20240817, 30)
        problem = inst.to_problem()
        config = SolverConfig(budget=11000)
        result = solve(problem, config)
        assert result.status in ("success", "stalled")
        x = result.x_final
        grad = inst.component_gradient(result.i_final, x)
        assert np.linalg.norm(problem.box.project(x - grad) - x) < 1e-4
        last = result.history[-1]
        floor = radius_floor(last.fx)
        assert floor > DELTA_MIN
        if result.status == "stalled":
            assert last.delta == floor and last.Delta == floor
        assert min(o.delta for o in result.history) >= DELTA_MIN
        assert_radii_replay(result.history)

    def test_recovery_rebuilds_at_the_radius_it_keeps(self):
        inst = qd_instance(4, 2, 7, 0)
        problem = inst.to_problem()
        ledger = EvalLedger(problem.r)
        sample = initial_sample(problem, problem.x0, 1.0, ledger, 1)
        fx = float(sample.values[0])
        state = committed_state(sample, problem.box, 1e-12, 1e-12, ledger)
        _recover_geometry(state, problem)
        floor = radius_floor(fx)
        assert state.delta == floor and state.Delta == floor
        offsets = np.abs(state.sample.points[1:] - state.sample.base).max(axis=1)
        assert np.allclose(offsets, floor, rtol=1e-6)
        assert state.model.fx == fx

    def test_monotone_certified_trace_and_feasible_queries(self):
        queries = []
        inst = qd_instance(n=4, r=3, seed=9, ordinal=0)
        problem = inst.to_problem()
        wrapped = LovoProblem(
            problem.name,
            [
                ComponentOracle(c.index,
                                lambda x, c=c: (queries.append(np.array(x)), c(x))[1])
                for c in problem.components
            ],
            problem.box, problem.x0,
        )
        result = solve(wrapped, SolverConfig(budget=2000))
        values = [p.value for p in result.ledger.trace]
        assert all(a > b for a, b in zip(values, values[1:])) or len(values) == 1
        assert all(np.all(q >= 0.0) and np.all(q <= 10.0) for q in queries)

    @pytest.mark.parametrize("problem, config, kind", [
        (gen_qd(3, 3, seed=2, count=1)[0],
         SolverConfig(budget=1500, use_cheap_rho=False), "index_swapped"),
        (gen_hs(HS_CATALOG, ["hs5", "hs38"]), SolverConfig(budget=1500),
         "criticality"),
    ], ids=["qd-swap", "hs-criticality"])
    def test_stationarity_once_per_committed_model(self, monkeypatch, problem,
                                                    config, kind):
        # every model the loop commits comes from build_model or
        # rebuild_for_index; criticality iterations keep the model they saw
        import lovotr.solver as solver_module

        calls = Counter()

        def count(name):
            fn = getattr(solver_module, name)

            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                calls[name] += 1
                return result

            monkeypatch.setattr(solver_module, name, counted)

        for name in ("model_stationarity", "build_model", "rebuild_for_index",
                     "_recover_geometry"):
            count(name)
        result = solve(problem, config)
        criticality = sum(o.kind == "criticality" for o in result.history)
        assert criticality if kind == "criticality" else any(
            o.index_swapped for o in result.history)
        models = calls["build_model"] + calls["rebuild_for_index"]
        assert models == (result.iterations - criticality + 1
                          + calls["_recover_geometry"])
        assert calls["model_stationarity"] == models

    def test_rho_hat_never_exceeds_rho(self):
        problem = gen_qd(4, 4, seed=17, count=1)[0]
        result = solve(problem, SolverConfig(budget=3000))
        full = [o for o in result.history if o.rho_defined and not o.rho_was_cheap]
        assert full, "expected full-ratio iterations"
        assert all(o.rho_hat <= o.rho for o in full)

    @pytest.mark.parametrize("problem", [linear_pair(), gen_qd(3, 3, seed=2, count=1)[0]],
                             ids=["pair-loop", "qd-batch"])
    def test_swap_takes_the_base_value_from_the_full_evaluation(self, monkeypatch,
                                                                problem):
        import lovotr.solver as solver_module

        # count every oracle call, an eval_all call as r; the batch stays on
        calls = [0]

        def counted(comp):
            def fn(x, _fn=comp.fn):
                calls[0] += 1
                return _fn(x)
            return ComponentOracle(comp.index, fn)

        def counted_eval_all(x, _eval_all=problem.eval_all):
            calls[0] += problem.r
            return _eval_all(x)

        problem = LovoProblem(
            problem.name, [counted(c) for c in problem.components], problem.box,
            problem.x0, eval_all=counted_eval_all if problem.eval_all else None)
        full, rebuilds = [], []
        eval_fmin = solver_module.eval_fmin
        rebuild_for_index = solver_module.rebuild_for_index

        def recording_eval_fmin(*args):
            full.append(eval_fmin(*args))
            return full[-1]

        def recording_rebuild(sample, p, ledger, new_index, *rest):
            before = ledger.total_component_evals
            model = rebuild_for_index(sample, p, ledger, new_index, *rest)
            rebuilds.append((sample.values[0], full[-1][new_index - 1],
                             ledger.total_component_evals - before))
            return model

        monkeypatch.setattr(solver_module, "eval_fmin", recording_eval_fmin)
        monkeypatch.setattr(solver_module, "rebuild_for_index", recording_rebuild)
        result = solve(problem, SolverConfig(budget=1500, use_cheap_rho=False))
        assert rebuilds
        assert len(rebuilds) == sum(o.index_swapped for o in result.history)
        for base_value, certified, charged in rebuilds:
            assert float(base_value).hex() == float(certified).hex()
            assert charged == problem.n
        # every charge is one oracle call
        assert result.ledger.total_component_evals == calls[0]

    def test_budget_exhaustion_is_graceful(self):
        problem = single_quadratic(3, [2.0, 3.0, 4.0])
        result = solve(problem, SolverConfig(budget=10))
        assert result.status == "budget_exhausted"
        assert result.ledger.total_component_evals <= 10 + problem.r
        assert problem.box.contains(result.x_final)

    def test_config_budget_must_match_the_ledger(self):
        # the ledger meters the run, so a different config budget would be ignored
        problem = gen_qd(3, 2, seed=5, count=1)[0]
        with pytest.raises(ValueError, match="budget"):
            solve(problem, SolverConfig(budget=5), ledger=EvalLedger(problem.r))
        ledger = EvalLedger(problem.r, budget=5)
        result = solve(problem, SolverConfig(budget=5), ledger=ledger)
        assert result.status == "budget_exhausted"
        assert ledger.total_component_evals <= 5 + problem.r - 1

    @pytest.mark.parametrize("r", [1, 3])
    def test_ledger_must_count_the_problems_components(self, r):
        # a ledger for r=3 never counts a full evaluation of an r=2 problem, so
        # an fmin budget never binds; one for r=1 counts every component
        # evaluation as a full one
        problem = gen_qd(3, 2, seed=5, count=1)[0]
        ledger = EvalLedger(r, budget=10, metering="fmin")
        with pytest.raises(ValueError, match="r=2"):
            solve(problem, ledger=ledger)
        assert ledger.total_component_evals == 0

    def test_an_oracle_writing_its_argument_stops_the_run(self):
        # unguarded, this run moved x0, ended budget_exhausted with no error,
        # and its callbacks saw sample rows whose values were not f(row)
        def writes_its_argument(x):
            value = float(np.sum((x - 3.0) ** 2))
            x[0] += 0.25
            return value

        problem = LovoProblem("writer", [ComponentOracle(1, writes_its_argument)],
                              FeasibleBox([0, 0], [10, 10]), [5.0, 5.0])
        seen = []
        with pytest.raises(ValueError, match="read-only"):
            solve(problem, SolverConfig(budget=60),
                  callback=lambda k, outcome, state: seen.append(k))
        assert seen == [] and np.array_equal(problem.x0, [5, 5])

    def test_flat_geometry_step_evaluates_nothing(self, monkeypatch):
        # near 1e9 the floor radius 1e-8 is below the rounding of x, so a
        # geometry step rounds to the base on both signed paths: it is flat,
        # costs no evaluation and shrinks both radii
        import lovotr.solver as solver_module

        flat_at = []
        altmov = solver_module.altmov_linear

        def recorded(*args):
            d, flat = altmov(*args)
            flat_at.append(flat)
            return d, flat

        monkeypatch.setattr(solver_module, "altmov_linear", recorded)
        far = 1e9
        comps = [
            ComponentOracle(1, lambda x: float(np.sum((x - far) ** 2))),
            ComponentOracle(2, lambda x: float(np.sum((x - [far + 2, far - 2]) ** 2))),
        ]
        problem = LovoProblem("far", comps, FeasibleBox([far - 5] * 2, [far + 5] * 2),
                              [far + 1] * 2)
        flat_steps = []

        def watch(k, outcome, state):
            if flat_at and flat_at[-1]:
                flat_steps.append(outcome)
            flat_at.clear()

        result = solve(problem, SolverConfig(budget=5000), callback=watch)
        assert result.status in (STATUS_SUCCESS, STATUS_STALLED)
        assert flat_steps
        evals = {o.k: o.evals_total for o in result.history}
        for o in flat_steps:
            assert o.kind == "altmov" and not o.radii_frozen and not np.any(o.d)
            if not o.rho_defined:  # no trust-region candidate was evaluated first
                assert o.evals_total == evals.get(o.k - 1, o.evals_total)

    def test_oracle_failure_ends_in_oracle_error(self):
        calls = [0]

        def flaky(x):
            calls[0] += 1
            if calls[0] > 20:
                return float("nan")
            return float(np.sum((np.asarray(x) - 3.3) ** 2))

        problem = LovoProblem(
            "flaky", [ComponentOracle(1, flaky)], FeasibleBox([0, 0], [10, 10]), [5, 5]
        )
        result = solve(problem, SolverConfig(budget=500))
        assert result.status == STATUS_ORACLE
        assert "component 1 returned non-finite value nan" in result.error
        assert calls[0] == 21 and result.history
        # the last committed iterate, not the failed query
        assert result.f_final == result.history[-1].fx < result.ledger.trace[0].value
        assert result.f_final == np.sum((result.x_final - 3.3) ** 2)
        assert problem.box.contains(result.x_final)

    @pytest.mark.filterwarnings("ignore:x0 has less than")
    @pytest.mark.parametrize("cause", ["initial", "repeat", "recovery"])
    def test_geometry_failure_is_named(self, monkeypatch, cause):
        import lovotr.solver as solver_module

        def fail(*args):
            raise GeometryError("degenerate")

        if cause == "initial":
            # offsets of 5e-14 and 1: the interpolation system is singular
            comps = [ComponentOracle(1, lambda x: float(x @ x))]
            problem = LovoProblem("thin", comps, FeasibleBox([0, 0], [1e-13, 10]),
                                  [0, 5])
        else:
            problem = single_quadratic(2, [3.0, 7.0])
            monkeypatch.setattr(solver_module, "iterate", fail)
            if cause == "recovery":
                monkeypatch.setattr(solver_module, "_recover_geometry", fail)
        result = solve(problem, SolverConfig(budget=100))
        assert result.status == STATUS_GEOMETRY and not result.error
        assert result.iterations == 0
        assert np.array_equal(result.x_final, problem.x0)
        assert result.f_final == result.ledger.trace[0].value

    def test_callback_and_history_export(self, tmp_path):
        problem = single_quadratic(2, [3.0, 7.0])
        seen = []
        result = solve(problem, SolverConfig(budget=300),
                       callback=lambda k, o, state: seen.append((k, o.kind)))
        assert [k for k, _ in seen] == list(range(result.iterations))
        path = tmp_path / "history.jsonl"
        result.write_history_jsonl(path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(records) == result.iterations
        assert set(records[0]) == {f.name for f in dataclasses.fields(StepOutcome)}

    def test_callback_reads_the_live_sample(self):
        # the hook receives the run state; its sample is what a dump reads
        problem = single_quadratic(2, [3.0, 7.0])
        dumps = []
        result = solve(problem, SolverConfig(budget=100),
                       callback=lambda k, o, state: dumps.append(
                           state.sample.to_debug_dict()))
        assert len(dumps) == result.iterations
        assert "condition_estimate" in dumps[0]
        assert dumps[-1]["points"][0] == result.x_final.tolist()


def assert_committed(state, box):
    """The committed model is the sample's iterate, bit for bit."""
    model, sample = state.model, state.sample
    assert model.base.tobytes() == sample.base.tobytes()
    assert model.fx.hex() == float(sample.values[0]).hex()
    assert model.index == sample.model_index
    assert state.pi.hex() == model_stationarity(model, box).hex()


class TestCommittedRecord:
    @pytest.mark.parametrize("problem, config, kind", [
        (gen_qd(3, 3, seed=2, count=1)[0],
         SolverConfig(budget=1500, use_cheap_rho=False), "index_swapped"),
        (gen_hs(HS_CATALOG, ["hs5", "hs38"]), SolverConfig(budget=1500),
         "criticality"),
    ], ids=["qd-swap", "hs-criticality"])
    def test_model_is_the_sample_iterate(self, problem, config, kind):
        ledger = EvalLedger(problem.r, budget=config.budget)
        state = _initial_state(problem, ledger)
        assert_committed(state, problem.box)
        history, status = [], None
        while status is None:
            try:
                outcome = iterate(state, problem, config)
            except BudgetExceededError:
                break
            history.append(outcome)
            assert_committed(state, problem.box)
            assert (outcome.index, outcome.fx) == (state.model.index, state.model.fx)
            status = check_stopping(state, problem)
        if kind == "criticality":
            assert any(o.kind == "criticality" for o in history)
        else:
            assert any(o.index_swapped for o in history)

    def test_failed_iteration_leaves_the_record(self, monkeypatch):
        import lovotr.solver as solver_module

        def fail(sample):
            raise GeometryError("degenerate")

        problem = gen_qd(3, 3, seed=2, count=1)[0]
        config = SolverConfig(budget=1500, use_cheap_rho=False)
        ledger = EvalLedger(problem.r, budget=config.budget)
        state = _initial_state(problem, ledger)
        iterate(state, problem, config)
        model, pi = state.model, state.pi
        monkeypatch.setattr(solver_module, "build_model", fail)
        with pytest.raises(GeometryError):
            iterate(state, problem, config)
        # the failed iteration had moved the sample's base; the record stays
        assert not np.array_equal(state.sample.base, model.base)
        assert state.model is model and state.pi == pi
        monkeypatch.undo()
        _recover_geometry(state, problem)
        assert_committed(state, problem.box)
        assert state.model.base.tobytes() == model.base.tobytes()
        assert (state.model.index, state.model.fx) == (model.index, model.fx)
        for _ in range(5):
            iterate(state, problem, config)
            assert_committed(state, problem.box)


class TestCheapRatioEquivalence:
    def test_single_component_sequences_identical(self):
        problem = single_quadratic(3, [2.5, 6.5, 4.0])
        runs = [
            solve(problem, SolverConfig(budget=800, use_cheap_rho=flag))
            for flag in (True, False)
        ]
        a, b = runs
        assert a.iterations == b.iterations
        for oa, ob in zip(a.history, b.history):
            assert oa.kind == ob.kind and oa.rho == ob.rho
            assert np.array_equal(oa.d, ob.d)
            assert (oa.delta, oa.Delta) == (ob.delta, ob.Delta)
        assert np.array_equal(a.x_final, b.x_final)

    def test_cheap_ratio_streak_respects_nrhomax(self):
        problem = gen_qd(4, 4, seed=3, count=1)[0]
        result = solve(problem, SolverConfig(budget=2000))
        streak = 0
        for o in result.history:
            if not o.rho_defined:
                continue
            if o.rho_was_cheap:
                streak += 1
                assert streak <= NRHOMAX
            else:
                streak = 0


class TestRadiiReplay:
    def test_histories_replay_exactly(self):
        problems = [
            gen_qd(4, 4, seed=23, count=1)[0],
            single_quadratic(2, [3.0, 7.0]),
            gen_hs(HS_CATALOG, ["hs1", "hs5"]),
            gen_mw("broyden_tridiagonal", 5, 2),
        ]
        config = SolverConfig(budget=1500)
        for problem in problems:
            result = solve(problem, config)
            assert result.history
            assert_radii_replay(result.history)
            adjusted, successful = adjustment_counts(result.history)
            assert adjusted <= GAMMA_MAX * max(successful, 0) + 0

    def test_exported_history_replays(self, tmp_path):
        # the JSON lines alone carry what the radii state machine needs
        problem = gen_qd(2, 3, seed=25, count=1)[0]  # one index swap
        config = SolverConfig(budget=800)
        result = solve(problem, config)
        path = tmp_path / "history.jsonl"
        result.write_history_jsonl(path)
        history = [SimpleNamespace(**json.loads(line))
                   for line in path.read_text().splitlines()]
        assert len(history) == result.iterations
        assert any(o.index_swapped for o in history)
        assert any(o.radii_frozen for o in history)
        assert_radii_replay(history)
        for o, logged in zip(result.history, history):
            assert np.array_equal(o.d, logged.d) and o.pi == logged.pi


@st.composite
def small_lovo_problems(draw):
    """Small LOVO problems: thin or wide boxes, starts on bounds, exact ties.

    Component kinds are drawn by hypothesis; the floats come from one drawn
    seed.  A "copy" repeats the previous component, so the two tie exactly
    everywhere, and a "constant" never moves.  Constants lie above the lowest
    quadratic at x0, so a quadratic is the working component and the run takes
    trust-region steps whenever there is one; without one, they lie in (-1, 1).
    """
    n = draw(st.integers(1, 6))
    # quadratics are drawn twice as often as each other kind
    kinds = draw(st.lists(st.sampled_from(["quadratic", "quadratic", "copy",
                                           "constant"]), min_size=1, max_size=5))
    thin = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lower = rng.uniform(-2.0, 2.0, n)
    upper = lower + (rng.uniform(1e-3, 0.5, n) if thin else rng.uniform(0.5, 5.0, n))
    x0 = rng.uniform(lower, upper)
    on_lower = rng.random(n) < 0.3
    on_upper = ~on_lower & (rng.random(n) < 0.3)
    x0[on_lower], x0[on_upper] = lower[on_lower], upper[on_upper]

    def quadratic():
        center = rng.uniform(lower - 1.0, upper + 1.0)
        weight = rng.uniform(0.1, 10.0, n)
        return lambda x, c=center, w=weight: float(w @ (x - c) ** 2)

    quadratics = [quadratic() if kind == "quadratic" else None for kind in kinds]
    q0 = min((q(x0) for q in quadratics if q is not None), default=None)
    low, high = (-1.0, 1.0) if q0 is None else (q0, 2.0 * q0 + 1.0)
    fns = []
    for kind, quadratic in zip(kinds, quadratics):
        if quadratic is not None:
            fns.append(quadratic)
        elif kind == "copy" and fns:
            fns.append(fns[-1])
        else:
            fns.append(lambda x, c=float(rng.uniform(low, high)): c)
    box = FeasibleBox(lower, upper)
    problem = LovoProblem(
        "prop", [ComponentOracle(k, fn) for k, fn in enumerate(fns, start=1)],
        box, x0)
    return problem, draw(st.integers(50, 300))


class TestInvariants:
    @pytest.mark.filterwarnings("ignore:x0 has less than")
    @given(small_lovo_problems(), st.none() | st.integers(1, 20))
    @settings(max_examples=60, deadline=None)
    def test_every_iteration_keeps_the_loop_invariants(self, case, nan_at):
        # nan_at: the oracle call, counted over all components, that returns NaN
        problem, budget = case
        lower, upper = problem.box.lower, problem.box.upper
        outside = []
        calls = [0]
        for comp in problem.components:
            def checked(x, _fn=comp.fn):
                calls[0] += 1
                if np.any(x < lower) or np.any(x > upper):
                    outside.append(np.array(x))
                return float("nan") if calls[0] == nan_at else _fn(x)
            comp.fn = checked

        committed = []  # fx committed by each iteration so far

        def check(k, outcome, state):
            # a criticality step shrinks delta more than Delta, and every
            # other update scales or floors both alike
            assert state.delta <= state.Delta, (k, state.delta, state.Delta)
            assert (outcome.delta, outcome.Delta) == (state.delta, state.Delta)
            ledger = state.ledger
            assert not outside, outside[0]
            assert ledger.total_component_evals <= budget + problem.r - 1
            # every charge is one oracle call; the NaN, if any, ends the run
            assert ledger.total_component_evals == calls[0]
            values = [p.value for p in ledger.trace]
            assert all(a > b for a, b in zip(values, values[1:])), values
            # the committed value never rises, so solve can report the last one
            previous = committed[-1] if committed else values[0]
            assert outcome.fx <= previous, (k, outcome.fx, previous)
            committed.append(outcome.fx)

        config = SolverConfig(budget=budget)
        result = solve(problem, config, callback=check)
        assert not outside
        assert result.ledger.total_component_evals <= budget + problem.r - 1
        assert result.status in (STATUS_SUCCESS, STATUS_STALLED, STATUS_BUDGET,
                                 STATUS_MAXCRIT, STATUS_ORACLE, STATUS_GEOMETRY)
        assert (result.status == STATUS_ORACLE) == (calls[0] == nan_at)
        # a full evaluation charges all r components, then stops at the NaN
        total = result.ledger.total_component_evals
        if result.status == STATUS_ORACLE:
            assert calls[0] <= total <= calls[0] + problem.r - 1
        else:
            assert total == calls[0]
        assert bool(result.error) == (result.status == STATUS_ORACLE)
        assert problem.box.contains(result.x_final)
        if result.history:
            assert result.f_final == result.history[-1].fx
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "history.jsonl")
            result.write_history_jsonl(path)
            with open(path) as fh:
                logged = [SimpleNamespace(**json.loads(line)) for line in fh]
        assert len(logged) == result.iterations
        assert_radii_replay(logged)


@dataclasses.dataclass
class WatchedBox(FeasibleBox):
    """A box that counts the points off it that the solver module projects.

    The solver's only projections are of the candidates it forms, ``base +
    d``; the model layer's projections (of ``x0`` and of ``base - g``) are
    told apart by the calling module's name.
    """

    off_box: int = 0

    def project(self, x):
        if sys._getframe(1).f_globals["__name__"] == "lovotr.solver" and not self.contains(x):
            self.off_box += 1
        return super().project(x)


def scaled_box_problem(rng):
    """A problem of 1 to 3 quadratics in 1 to 6 variables on a scaled, shifted box.

    The box widths are scaled by 10^U(-3, 3), half the boxes are shifted by
    up to 1e3, and each coordinate of the start lies on its lower face, or on
    its upper one, with probability 0.3: bases on faces at scales far from 1
    are where rounding puts ``base + d`` outside the box.
    """
    n = int(rng.integers(1, 7))
    r = int(rng.integers(1, 4))
    scale = 10.0 ** rng.uniform(-3, 3)
    lower = rng.uniform(-2.0, 2.0, n) * scale
    if rng.random() < 0.5:
        lower += rng.uniform(-1e3, 1e3)
    upper = lower + rng.uniform(0.5, 5.0, n) * scale
    pin = rng.random(n)
    x0 = np.where(pin < 0.3, lower, np.where(pin > 0.7, upper, rng.uniform(lower, upper)))
    comps = []
    for k in range(1, r + 1):
        center = rng.uniform(lower - scale, upper + scale)
        weight = rng.uniform(0.1, 10.0, n) / scale**2
        comps.append(ComponentOracle(
            k, lambda x, c=center, w=weight: float(w.dot((x - c) ** 2))))
    return LovoProblem("scaled", comps, WatchedBox(lower, upper), x0)


class TestFeasibilityContract:
    @pytest.mark.filterwarnings("ignore:x0 has less than")
    def test_oracles_see_only_feasible_points_on_scaled_boxes(self):
        # eval_component and eval_fmin pass points on as given, so the
        # solver's projection of each candidate is what keeps the oracles in
        # the box; the sweep must also reach candidates that need it, or it
        # could not fail without them
        rng = np.random.default_rng(0)
        outside = []
        off_box = 0
        for _ in range(300):
            problem = scaled_box_problem(rng)
            box = problem.box
            for comp in problem.components:
                def checked(x, _fn=comp.fn):
                    if not box.contains(x):
                        outside.append(np.array(x))
                    return _fn(x)
                comp.fn = checked
            solve(problem, SolverConfig(budget=300))
            off_box += box.off_box
        assert not outside, outside[0]
        assert off_box > 0
