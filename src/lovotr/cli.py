"""Command-line entry points: problem generation and the benchmark pipeline.

    lovotr gen-qd --n 10 --r 25 --seed 7 --count 50 --out problems/
    lovotr bench run --problems problems/ --budget-rule component --out traces/
    lovotr bench profile --traces traces/ --tau 1e-1,1e-3,1e-5,1e-7 --out profiles/

``bench run`` solves with the default ``SolverConfig``; ``--no-cheap-rho`` sets
``use_cheap_rho=False``, and the budget comes from ``--budget-rule``.
``bench profile`` writes, per tau, the profile ``profile_tau{tau}.csv`` and its
budget table ``table_tau{tau}.csv`` at ``TABLE_FRACTIONS``.  Bad input exits with
one line naming the file or option at fault, before any ``--out`` directory is
created.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import bench, testsets
from .problem import load_problem, save_problem
from .solver import SolverConfig

TABLE_FRACTIONS = (0.2, 0.4, 0.6, 0.8, 0.85)


def _parse_taus(text: str) -> list:
    """``--tau``: comma-separated tolerances, each a number in (0, 1)."""
    taus = []
    for part in filter(None, text.split(",")):
        try:
            tau = float(part)
        except ValueError:
            tau = math.nan
        if not 0.0 < tau < 1.0:
            raise argparse.ArgumentTypeError(f"{part!r} is not a tolerance in (0, 1)")
        taus.append(tau)
    if not taus:
        raise argparse.ArgumentTypeError("expected at least one tolerance")
    return taus


def _parse_positive_int(text: str) -> int:
    """``--n``, ``--r``, ``--count``: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def _is_finite_number(value) -> bool:
    """A JSON number, not a bool, that converts to a finite float."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _make_out_dir(path):
    """Create the ``--out`` directory; a file in its place exits with one line."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise SystemExit(f"--out {path}: cannot create the directory "
                         f"({exc.strerror})") from None


def _cmd_gen_qd(args) -> int:
    _make_out_dir(args.out)
    problems = testsets.gen_qd(args.n, args.r, args.seed, args.count)
    for problem in problems:
        save_problem(problem, os.path.join(args.out, f"{problem.name}.problem.json"))
    print(f"wrote {len(problems)} problems to {args.out}")
    return 0


def _load_problems(directory) -> list:
    if not os.path.isdir(directory):
        raise SystemExit(f"problem directory {directory} does not exist")
    problems = []
    seen = {}  # trace file stem -> (problem file, problem name)
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".problem.json"):
            continue
        path = os.path.join(directory, name)
        try:
            problem = load_problem(path)
        except (OSError, ValueError) as exc:  # unreadable, not JSON, or malformed
            raise SystemExit(f"problem file {path}: {exc}") from None
        stem = bench._safe_name(problem.name)
        if stem in seen:
            other_path, other = seen[stem]
            raise SystemExit(f"problems {other!r} ({other_path}) and {problem.name!r} "
                             f"({path}) would both write the trace {stem}.csv")
        seen[stem] = path, problem.name
        problems.append(problem)
    if not problems:
        raise SystemExit(f"no *.problem.json files in {directory}")
    return problems


def _cmd_bench_run(args) -> int:
    problems = _load_problems(args.problems)
    config = SolverConfig(use_cheap_rho=not args.no_cheap_rho)
    dump_fh = sample_log = None
    if args.dump_samples:
        try:
            dump_fh = open(args.dump_samples, "w")
        except OSError as exc:
            raise SystemExit(f"--dump-samples {args.dump_samples}: "
                             f"{exc.strerror}") from None

        def sample_log(name, k, sample):
            record = {"problem": name, "k": k, **sample.to_debug_dict()}
            dump_fh.write(json.dumps(record) + "\n")

    def progress(trace):
        if args.verbose:
            print(f"{trace.problem_name}: status={trace.status} "
                  f"best={trace.best_value:.6g}")

    try:
        _make_out_dir(args.out)
        traces = bench.run_campaign(problems, config,
                                    budget_rule=args.budget_rule,
                                    callback=progress, sample_log=sample_log)
    finally:
        if dump_fh is not None:
            dump_fh.close()
    for trace in traces:
        bench.write_trace(trace, args.out)
    print(f"wrote {len(traces)} traces to {args.out}")
    return 0


def _cmd_bench_profile(args) -> int:
    try:
        traces = bench.read_traces(args.traces)
    except (OSError, ValueError) as exc:  # no such directory, or a stray file
        raise SystemExit(str(exc)) from None
    if not traces:
        raise SystemExit(f"no trace manifests in {args.traces}")
    overrides = None
    if args.f_l:
        try:
            with open(args.f_l) as fh:
                overrides = json.load(fh)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"reference-value file {args.f_l}: {exc}") from None
        if not (isinstance(overrides, dict)
                and all(map(_is_finite_number, overrides.values()))):
            raise SystemExit(f"reference-value file {args.f_l}: expected a JSON object "
                             "mapping problem names to finite numbers")
    f_l_table = bench.default_f_l(traces, overrides)
    _make_out_dir(args.out)
    for tau in args.tau:
        profile = bench.data_profile(traces, tau, f_l_table)
        stem = os.path.join(args.out, f"profile_tau{tau:g}")
        bench.emit(profile, stem + ".csv")
        if args.svg:
            bench.emit(profile, stem + ".svg")
        table = bench.summarize_simplex_gradients(profile, TABLE_FRACTIONS)
        bench.emit(table, os.path.join(args.out, f"table_tau{tau:g}.csv"))
        print(f"tau={tau:g}: solved fraction at budget 100 is "
              f"{profile.fraction_at(100.0):.3f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lovotr",
        description="Min-of-components trust-region solver and benchmark tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-qd", help="generate QD problem instances")
    gen.add_argument("--n", type=_parse_positive_int, default=10)
    gen.add_argument("--r", type=_parse_positive_int, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--count", type=_parse_positive_int, default=50)
    gen.add_argument("--out", required=True)
    gen.set_defaults(fn=_cmd_gen_qd)

    bench_parser = sub.add_parser("bench", help="benchmark pipeline")
    bench_sub = bench_parser.add_subparsers(dest="bench_command", required=True)

    run = bench_sub.add_parser("run", help="run the solver over a problem directory")
    run.add_argument("--problems", required=True)
    run.add_argument("--no-cheap-rho", action="store_true",
                     help="certify every reduction ratio with a full evaluation")
    run.add_argument("--budget-rule", choices=bench.BUDGET_RULES, default="component")
    run.add_argument("--out", required=True)
    run.add_argument("--verbose", "-v", action="store_true")
    run.add_argument("--dump-samples", default=None,
                     help="JSONL file receiving per-iteration sample-set dumps")
    run.set_defaults(fn=_cmd_bench_run)

    prof = bench_sub.add_parser("profile", help="data profiles and budget tables")
    prof.add_argument("--traces", required=True)
    prof.add_argument("--tau", type=_parse_taus, default="1e-1,1e-3,1e-5,1e-7",
                      help="comma-separated tolerances in (0, 1)")
    prof.add_argument("--out", required=True)
    prof.add_argument("--f-l", default=None,
                      help="JSON file of per-problem reference values")
    prof.add_argument("--svg", action="store_true")
    prof.set_defaults(fn=_cmd_bench_profile)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
