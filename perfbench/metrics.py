"""End-to-end metrics (untraced passes) and per-layer metrics (traced pass).

Each metric is a (value, unit) pair.  Which layer metric should move which
end-to-end metric, on which workload, is written down in README.md.
"""

from __future__ import annotations

import resource
import statistics

import numpy as np

import campaign
import speed
import tracing


def end_to_end(passes: list, setup_samples: list) -> dict:
    """Times are at reference host speed (see speed.py), pooled over all passes.

    ``setup_samples`` holds a (reference-speed, raw) pair per set-up timing.
    ``raw_*`` report the same quantities unscaled, and ``host_slowdown`` the
    median over solves of the mean kernel time over ``speed.REFERENCE_S``.
    """
    first = passes[0]
    walls, latencies, raw_walls, raw_latencies, slowdown = [], [], [], [], []
    for p in passes:
        wall = raw_wall = 0.0
        for pos, intervals in p.intervals_s.items():
            scaled, tail = speed.scale_solve(intervals, p.tail_s[pos], p.kernel_s[pos])
            wall += scaled.sum() + tail
            raw_wall += intervals.sum() + p.tail_s[pos]
            latencies.append(scaled[1:])
            raw_latencies.append(intervals[1:])
            slowdown.append(1.0 / speed.factor(p.kernel_s[pos]))
        walls.append(wall)
        raw_walls.append(raw_wall)
    latencies_us = np.concatenate(latencies) * 1e6
    raw_latencies_us = np.concatenate(raw_latencies) * 1e6
    wall_s = statistics.median(walls)
    return {
        "setup_s": (statistics.median(scaled for scaled, _ in setup_samples), "s"),
        "wall_s": (wall_s, "s"),
        "iters_per_s": (first.iterations / wall_s, "1/s"),
        "iter_us_p50": (float(np.percentile(latencies_us, 50)), "us"),
        "iter_us_p95": (float(np.percentile(latencies_us, 95)), "us"),
        "iter_us_p99": (float(np.percentile(latencies_us, 99)), "us"),
        "iter_samples": (int(latencies_us.size), "count"),
        "component_evals": (first.component_evals, "count"),
        "solved_frac": (first.solved_frac, "fraction"),
        "kappa_p50": (first.kappa_p50, "simplex_grads"),
        "failed_frac": (sum(p.failed for p in passes) / sum(p.attempted for p in passes),
                        "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "raw_setup_s": (statistics.median(raw for _, raw in setup_samples), "s"),
        "raw_wall_s": (statistics.median(raw_walls), "s"),
        "raw_iter_us_p50": (float(np.percentile(raw_latencies_us, 50)), "us"),
        "raw_iter_us_p99": (float(np.percentile(raw_latencies_us, 99)), "us"),
        "host_slowdown": (statistics.median(slowdown), "ratio"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: tracing.Tracer, traced, untraced, gen_s: float) -> dict:
    stat = tracer.stat
    solve_s = stat(tracing.SOLVE, "total_s")
    oracle_calls = stat(tracing.ORACLE, "calls")
    raised = tracer.raised
    m = {
        "model.build_model_s": stat("model.build_model", "self_s"),
        "model.build_model_calls": stat("model.build_model", "calls"),
        "model.stationarity_s": stat("model.model_stationarity", "self_s"),
        "model.stationarity_calls": stat("model.model_stationarity", "calls"),
        "model.exchange_point_s": stat("model.exchange_point", "self_s"),
        "model.exchange_point_calls": stat("model.exchange_point", "calls"),
        "model.exchange_point_rejected": raised[("model.exchange_point", "PointRejectedError")],
        "model.replace_point_s": stat("model.replace_point", "self_s"),
        "model.replace_point_calls": stat("model.replace_point", "calls"),
        "model.rebuild_for_index_self_s": stat("model.rebuild_for_index", "self_s"),
        "model.rebuild_for_index_calls": stat("model.rebuild_for_index", "calls"),
        "model.initial_sample_self_s": stat("model.initial_sample", "self_s"),
        "model.initial_sample_calls": stat("model.initial_sample", "calls"),
        "model.geometry_errors": sum(v for (name, exc), v in raised.items()
                                     if name.startswith("model.") and exc == "GeometryError"),
        "model.thin_box_warnings": traced.thin_box_warnings,
        "model.self_share": _ratio(tracer.layer_self_s("model"), solve_s),
        "subproblem.altmov_s": stat("subproblem.altmov_linear", "self_s"),
        "subproblem.altmov_calls": stat("subproblem.altmov_linear", "calls"),
        "subproblem.altmov_flat": tracer.flat_altmovs,
        "subproblem.trsbox_s": stat("subproblem.trsbox_linear", "self_s"),
        "subproblem.trsbox_calls": stat("subproblem.trsbox_linear", "calls"),
        "subproblem.select_target_s": stat("subproblem.select_target_for_altmov", "self_s"),
        "subproblem.self_share": _ratio(tracer.layer_self_s("subproblem"), solve_s),
        "problem.oracle_s": stat(tracing.ORACLE, "self_s"),
        "problem.oracle_calls": oracle_calls,
        "problem.eval_fmin_self_s": stat("problem.eval_fmin", "self_s"),
        "problem.eval_fmin_calls": stat("problem.eval_fmin", "calls"),
        "problem.eval_component_self_s": stat("problem.eval_component", "self_s"),
        "problem.eval_component_calls": stat("problem.eval_component", "calls"),
        "problem.ledger_self_s": stat(tracing.LEDGER, "self_s"),
        "problem.ledger_calls": stat(tracing.LEDGER, "calls"),
        "problem.full_eval_share": _ratio(tracer.oracle_calls_under("problem.eval_fmin"),
                                          oracle_calls),
        "problem.box_violations": tracer.box_violations,
        "problem.self_share": _ratio(tracer.layer_self_s("problem"), solve_s),
        "solver.iterate_self_s": stat("solver.iterate", "self_s"),
        "solver.check_stopping_self_s": stat("solver.check_stopping", "self_s"),
        "solver.solve_self_s": stat(tracing.SOLVE, "self_s"),
        "solver.iterations": traced.iterations,
        "solver.frozen_repairs": traced.frozen_repairs,
        "solver.geometry_recoveries": stat("solver._recover_geometry", "calls"),
        "solver.evals_after_best": traced.evals_after_best,
        "solver.tr_candidates": traced.tr_candidates,
        "solver.tr_accept_ratio": _ratio(traced.tr_accepted, traced.tr_candidates),
        "solver.cheap_rho_share": _ratio(traced.tr_cheap, traced.tr_candidates),
        "solver.log_warnings": traced.log_warnings,
        "solver.self_share": _ratio(tracer.layer_self_s("solver"), solve_s),
        "testsets.gen_s": gen_s,
        "bench.profile_s": stat(tracing.PROFILE, "total_s"),
        "trace.solve_s": solve_s,
        "trace.wall_s": traced.wall_s,
        "trace.untraced_wall_s": untraced.wall_s,
        "trace.overhead_frac": _ratio(traced.wall_s - untraced.wall_s, untraced.wall_s),
    }
    for kind in campaign.KINDS:
        m[f"solver.kind.{kind}"] = traced.kinds[kind]
    for status in campaign.STATUSES:
        m[f"solver.status.{status}"] = traced.statuses[status]
    return {name: (value, _unit(name)) for name, value in m.items()}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_ratio", "_frac")):
        return "fraction"
    return "count"


def traced_consistency(tracer: tracing.Tracer, traced, untraced) -> list:
    """Reasons the traced pass disagrees with the untraced one; empty if none."""
    reasons = []
    if traced.digest != untraced.digest:
        reasons.append("tracing changed the behaviour digest")
    oracle_calls = tracer.stat(tracing.ORACLE, "calls")
    if oracle_calls != traced.component_evals:
        reasons.append(f"oracle calls {oracle_calls} != component evals "
                       f"{traced.component_evals}")
    iterate_returns = (tracer.stat("solver.iterate", "calls")
                       - sum(v for (name, _), v in tracer.raised.items()
                             if name == "solver.iterate"))
    if iterate_returns != traced.iterations:
        reasons.append(f"iterate returned {iterate_returns} times, "
                       f"{traced.iterations} iterations recorded")
    if tracer.box_violations:
        reasons.append(f"{tracer.box_violations} oracle queries outside the box")
    return reasons
