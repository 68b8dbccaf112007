import math

import numpy as np
import pytest

from lovotr.bench import (
    DataProfile,
    RunTrace,
    campaign_budget,
    data_profile,
    default_f_l,
    emit,
    read_traces,
    run_campaign,
    summarize_simplex_gradients,
    write_trace,
)
from lovotr.problem import ComponentOracle, FeasibleBox, LovoProblem
from lovotr.solver import SolverConfig
from lovotr.testsets import gen_qd


def trace(name="p", n=1, r=1, samples=(), f_x0=None, metering="component"):
    samples = list(samples)
    return RunTrace(
        problem_name=name, n_p=n, r_p=r, metering=metering,
        budget=100 * r * (n + 1),
        f_x0=f_x0 if f_x0 is not None else (samples[0][1] if samples else math.inf),
        samples=samples, status="success",
    )


class TestBudgets:
    def test_component_budget_formula(self):
        problem = gen_qd(10, 10, seed=1, count=1)[0]
        assert campaign_budget(problem, n_max=10, budget_rule="component") == 11000

    def test_fmin_budget_formula(self):
        problem = gen_qd(10, 10, seed=1, count=1)[0]
        assert campaign_budget(problem, n_max=10, budget_rule="fmin") == 1100

    def test_unknown_rule(self):
        problem = gen_qd(2, 2, seed=1, count=1)[0]
        with pytest.raises(ValueError):
            campaign_budget(problem, 2, "nope")


class TestRunCampaign:
    def test_empty_list(self):
        assert run_campaign([], SolverConfig()) == []

    def test_traces_recorded_and_budget_respected(self):
        problems = gen_qd(3, 2, seed=5, count=3)
        traces = run_campaign(problems, SolverConfig())
        assert [t.problem_name for t in traces] == sorted(p.name for p in problems)
        for t in traces:
            assert t.budget == 100 * 2 * 4
            counts = [s[0] for s in t.samples]
            values = [s[1] for s in t.samples]
            assert counts == sorted(counts)
            assert all(a > b for a, b in zip(values, values[1:])) or len(values) <= 1
            assert counts[-1] <= t.budget + t.r_p
            assert t.status in ("success", "stalled", "budget_exhausted",
                                "maxcrit_exceeded", "geometry_failed")
            assert t.x_final is not None

    def test_config_budget_refused(self):
        # the budget rule sets every run's budget
        with pytest.raises(ValueError, match="budget"):
            run_campaign(gen_qd(3, 2, seed=5, count=1), SolverConfig(budget=5))

    def test_failed_run_is_flagged(self):
        def bomb(x):
            return float("nan")

        bad = LovoProblem(
            "bomb", [ComponentOracle(1, bomb)], FeasibleBox([0], [1]), [0.5]
        )
        traces = run_campaign([bad], SolverConfig())
        assert traces[0].status.startswith("error:OracleError: ")
        assert "component 1 returned non-finite value nan" in traces[0].status

    def test_fmin_and_component_rules_coincide_for_single_component(self):
        problems = gen_qd(3, 1, seed=8, count=2)
        a = run_campaign(problems, SolverConfig(), budget_rule="component")
        b = run_campaign(problems, SolverConfig(), budget_rule="fmin")
        for ta, tb in zip(a, b):
            assert ta.samples == tb.samples
        fl = default_f_l(a)
        pa = data_profile(a, 1e-3, fl)
        pb = data_profile(b, 1e-3, fl)
        assert pa.solve_kappas == pb.solve_kappas


class TestDataProfile:
    def test_threshold_from_reference(self):
        # f(x0)=10, reference 0, tau=0.1: crossing needs value <= 1
        t = trace(samples=[(2, 10.0), (8, 0.9)])
        profile = data_profile([t], 0.1, {"p": 0.0})
        assert profile.solve_kappas["p"] == pytest.approx(8 / 2.0)

    def test_never_crossing_counts_zero(self):
        t = trace(samples=[(2, 10.0), (8, 5.0)])
        profile = data_profile([t], 0.1, {"p": 0.0})
        assert profile.solve_kappas["p"] is None
        assert profile.fraction_at(1e9) == 0.0

    def test_single_step_curve(self):
        t = trace(n=3, r=2, samples=[(2, 10.0), (16, 0.0)])
        profile = data_profile([t], 0.5, {"p": 0.0})
        assert profile.solve_kappas["p"] == pytest.approx(2.0)
        assert profile.fraction_at(1.999) == 0.0
        assert profile.fraction_at(2.0) == 1.0

    def test_fmin_metering_uses_smaller_denominator(self):
        t = trace(n=3, r=2, samples=[(8, 0.0)], f_x0=1.0, metering="fmin")
        profile = data_profile([t], 0.5, {"p": 0.0})
        assert profile.solve_kappas["p"] == pytest.approx(2.0)

    def test_missing_reference_is_an_error(self):
        t = trace(samples=[(2, 1.0)])
        with pytest.raises(ValueError):
            data_profile([t], 0.1, {})

    def test_determinism(self):
        traces = [trace(name=f"p{i}", samples=[(2, 10.0), (5 + i, 0.0)])
                  for i in range(4)]
        fl = {t.problem_name: 0.0 for t in traces}
        a = data_profile(traces, 1e-3, fl)
        b = data_profile(traces, 1e-3, fl)
        assert a.solve_kappas == b.solve_kappas

    def test_default_reference_table(self):
        traces = [trace(name="a", samples=[(1, 5.0), (2, 3.0)]),
                  trace(name="b", samples=[(1, 9.0)])]
        fl = default_f_l(traces)
        assert fl == {"a": 3.0, "b": 9.0}
        fl2 = default_f_l(traces, overrides={"a": 1.0})
        assert fl2["a"] == 1.0


class TestSummary:
    def profile(self, kappas, n=None):
        kappas = list(kappas)
        return DataProfile(
            tau=1e-3, n_problems=n if n is not None else len(kappas),
            solve_kappas={f"p{i}": k for i, k in enumerate(kappas)},
        )

    def test_single_step_to_one(self):
        profile = self.profile([7.0, 7.0, 7.0])
        assert summarize_simplex_gradients(profile, [0.6]) == [(0.6, 7.0)]

    def test_unreachable_fraction_is_inf(self):
        profile = self.profile([7.0, None, None])
        table = summarize_simplex_gradients(profile, [0.2, 0.6])
        assert table[0] == (0.2, 7.0)
        assert table[1][1] == math.inf

    def test_fraction_domain_checked(self):
        with pytest.raises(ValueError):
            summarize_simplex_gradients(self.profile([1.0]), [0.0])


class TestEmit:
    def test_csv_deterministic(self, tmp_path):
        profile = DataProfile(1e-5, 2, {"a": 3.0, "b": 11.0})
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit(profile, p1)
        emit(profile, p2)
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        assert lines[0] == "tau,kappa,solved_fraction"
        assert len(lines) == 3

    def test_empty_profile_header_only(self, tmp_path):
        profile = DataProfile(1e-5, 0, {})
        path = tmp_path / "empty.csv"
        emit(profile, path)
        assert path.read_text() == "tau,kappa,solved_fraction\n"

    def test_svg_one_polyline_per_profile(self, tmp_path):
        profile = DataProfile(1e-5, 1, {"a": 2.0})
        path = tmp_path / "p.svg"
        emit(profile, path)
        text = path.read_text()
        assert text.count("<polyline") == 1
        assert "simplex gradients" in text and "fraction solved" in text
        emit(profile, tmp_path / "q.svg")
        assert (tmp_path / "q.svg").read_bytes() == path.read_bytes()

    def test_table_csv(self, tmp_path):
        path = tmp_path / "t.csv"
        emit([(0.6, 7.0), (0.9, math.inf)], path)
        assert path.read_text() == "fraction,kappa\n0.6,7\n0.9,inf\n"
        with pytest.raises(ValueError, match="csv only"):
            emit([(0.6, 7.0)], tmp_path / "t.svg")

    def test_unknown_format(self, tmp_path):
        for suffix in ("txt", "json"):
            for obj in (DataProfile(1e-5, 0, {}), [(0.6, 7.0)]):
                path = tmp_path / f"p.{suffix}"
                with pytest.raises(ValueError):
                    emit(obj, path)
                assert not path.exists()


class TestTraceFiles:
    def test_write_read_roundtrip(self, tmp_path):
        problems = gen_qd(2, 2, seed=4, count=2)
        problems[0].name = "manifest"  # its trace is written to manifest.json
        traces = run_campaign(problems, SolverConfig())
        for t in traces:
            write_trace(t, tmp_path)
        loaded = read_traces(tmp_path)
        assert [t.problem_name for t in loaded] == [t.problem_name for t in traces]
        for a, b in zip(loaded, traces):
            assert a.samples == b.samples
            assert (a.n_p, a.r_p, a.budget, a.status) == (
                b.n_p, b.r_p, b.budget, b.status
            )
