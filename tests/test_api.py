"""The public surface (``lovotr.__all__`` is what the README documents) and the
names the benchmark's tracer wraps."""

import inspect
import re
from pathlib import Path

import pytest

import lovotr

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()

DOCUMENTED = [
    "BudgetExceededError", "ComponentOracle", "DataProfile", "EvalLedger",
    "FeasibleBox", "GeometryError", "HS_CATALOG", "LovoProblem", "MW_REGISTRY",
    "OracleError", "RunTrace", "SolveResult", "SolverConfig", "StepOutcome",
    "data_profile", "default_f_l", "emit", "gen_hs", "gen_mw", "gen_qd",
    "load_problem", "qd_instance", "run_campaign", "save_problem", "solve",
    "summarize_simplex_gradients",
]


def _section(heading):
    start = README.index(heading + "\n")
    end = README.find("\n##", start + len(heading))
    return README[start:end if end >= 0 else None]


def test_all_is_the_documented_list():
    assert sorted(lovotr.__all__) == sorted(DOCUMENTED)
    assert len(set(lovotr.__all__)) == len(lovotr.__all__)


def test_readme_public_api_lists_exactly_all():
    text = _section("### Public API")
    bullets = text[text.index("\n* "):text.index("\n\n", text.index("\n* "))]
    listed = re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", bullets)
    assert sorted(listed) == sorted(lovotr.__all__)


def test_every_name_resolves():
    for name in lovotr.__all__:
        assert getattr(lovotr, name) is not None, name


def test_quick_start_runs_on_top_level_names():
    text = _section("## Library quick start")
    code = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    used = set(re.findall(r"\blovotr\.(\w+)", code))
    assert used and used <= set(lovotr.__all__)
    namespace = {"__name__": "quick_start"}
    exec(compile(code, "README quick start", "exec"), namespace)
    result = namespace["result"]
    assert isinstance(result, lovotr.SolveResult)
    assert result.status in ("success", "stalled", "budget_exhausted",
                             "maxcrit_exceeded", "geometry_failed")
    assert result.ledger.total_component_evals <= 2000 + 1


# The loop constants README "How it works" states, each as NAME=value.
README_CONSTANTS = ["TAU1", "TAU2", "TAU3", "TAU4", "ETA", "ETA1", "ETA2",
                    "GAMMA_MAX", "NRHOMAX", "BETA", "RADIUS0", "DELTA_MIN"]


def test_readme_states_the_solvers_constants():
    import lovotr.solver

    text = _section("### How it works")
    stated = re.findall(r"\b([A-Z][A-Z0-9_]*)=([-+.0-9e]+)", text)
    assert [name for name, _ in stated] == README_CONSTANTS
    for name, value in stated:
        assert float(value) == getattr(lovotr.solver, name), name
    ride = re.search(r"`MAXCRIT_RIDE` is (\d+)", text)
    assert ride and int(ride.group(1)) == lovotr.solver.MAXCRIT_RIDE


# The functions perfbench's tracer wraps through ``lovotr.solver``'s globals,
# by module.  A span is named after its function and module, and a name the
# tracer never saw reads 0, so a renamed or moved function would zero a
# per-layer metric without failing a run.
TRACED = {
    "model": ["build_model", "model_stationarity", "exchange_point",
              "replace_point", "rebuild_for_index", "initial_sample"],
    "subproblem": ["altmov_linear", "trsbox_linear", "select_target_for_altmov"],
    "problem": ["eval_fmin", "eval_component"],
    "solver": ["iterate", "check_stopping", "_recover_geometry"],
}


@pytest.mark.parametrize("layer, name", [
    (layer, name) for layer, names in TRACED.items() for name in names])
def test_traced_names_live_where_the_benchmark_reads_them(layer, name):
    import lovotr.solver

    fn = getattr(lovotr.solver, name)
    assert inspect.isfunction(fn)
    assert (fn.__module__, fn.__name__) == (f"lovotr.{layer}", name)


def test_model_calls_the_traced_eval_component():
    import lovotr.model
    import lovotr.problem

    assert lovotr.model.eval_component is lovotr.problem.eval_component


# perfbench's campaign calls ``solve(problem, config, ledger=ledger,
# callback=cb)`` with a positional ``cb(k, outcome, led)``.
def test_solve_takes_problem_config_callback_ledger():
    params = list(inspect.signature(lovotr.solve).parameters)
    assert params == ["problem", "config", "callback", "ledger"]


def test_solve_calls_the_benchmark_callback_with_the_live_state():
    problem = lovotr.gen_qd(3, 2, seed=5, count=1)[0]
    ledger = lovotr.EvalLedger(problem.r, budget=300)
    seen = []

    def cb(k, outcome, led):
        assert led.ledger is ledger
        # the sample the run writes to: its base is the committed iterate
        assert led.sample.base.tobytes() == led.model.base.tobytes()
        assert led.sample.values[0] == outcome.fx
        seen.append((k, led, led.sample))

    result = lovotr.solve(problem, lovotr.SolverConfig(), ledger=ledger, callback=cb)
    assert [k for k, _, _ in seen] == list(range(result.iterations))
    state = seen[-1][1]
    assert all(led is state for _, led, _ in seen)
    assert seen[-1][2] is state.sample
    assert state.sample.base.tobytes() == result.x_final.tobytes()
