"""Command-line entry points: problem generation and the benchmark pipeline.

    lovotr gen-qd --n 10 --r 25 --seed 7 --count 50 --out problems/
    lovotr bench run --problems problems/ --budget-rule component --out traces/
    lovotr bench profile --traces traces/ --tau 1e-1,1e-3,1e-5,1e-7 --out profiles/
    lovotr bench table --profile profiles/profile_tau1e-05.csv --fractions 0.2,0.4,0.6
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

from . import bench, testsets
from .problem import load_problem, save_problem
from .solver import SolverConfig


def _parse_floats(text: str) -> list:
    return [float(part) for part in text.split(",") if part]


def _load_config(path) -> SolverConfig:
    if path is None:
        return SolverConfig()
    with open(path) as fh:
        settings = json.load(fh)
    if not isinstance(settings, dict):
        raise SystemExit(f"{path}: expected a JSON object of solver settings")
    unknown = sorted(set(settings) - {f.name for f in dataclasses.fields(SolverConfig)})
    if unknown:
        raise SystemExit(f"{path}: unknown solver setting(s): {', '.join(unknown)}")
    try:
        return SolverConfig(**settings)
    except ValueError as exc:
        raise SystemExit(f"{path}: {exc}") from None


def _cmd_gen_qd(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    problems = testsets.gen_qd(args.n, args.r, args.seed, args.count)
    for problem in problems:
        save_problem(problem, os.path.join(args.out, f"{problem.name}.problem.json"))
    print(f"wrote {len(problems)} problems to {args.out}")
    return 0


def _load_problems(directory) -> list:
    if not os.path.isdir(directory):
        raise SystemExit(f"problem directory {directory} does not exist")
    problems = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".problem.json"):
            problems.append(load_problem(os.path.join(directory, name)))
    if not problems:
        raise SystemExit(f"no *.problem.json files in {directory}")
    return problems


def _cmd_bench_run(args) -> int:
    problems = _load_problems(args.problems)
    config = _load_config(args.config)
    os.makedirs(args.out, exist_ok=True)

    dump_fh = open(args.dump_samples, "w") if args.dump_samples else None
    sample_log = None
    if dump_fh is not None:
        def sample_log(name, k, sample):
            record = {"problem": name, "k": k, **sample.to_debug_dict()}
            dump_fh.write(json.dumps(record) + "\n")

    def progress(trace):
        if args.verbose:
            print(f"{trace.problem_name}: status={trace.status} "
                  f"best={trace.best_value:.6g}")

    try:
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
    traces = bench.read_traces(args.traces)
    overrides = None
    if args.f_l:
        with open(args.f_l) as fh:
            overrides = json.load(fh)
    f_l_table = bench.default_f_l(traces, overrides)
    os.makedirs(args.out, exist_ok=True)
    for tau in _parse_floats(args.tau):
        profile = bench.data_profile(traces, tau, f_l_table)
        stem = os.path.join(args.out, f"profile_tau{tau:g}")
        bench.emit(profile, stem + ".csv")
        if args.svg:
            bench.emit(profile, stem + ".svg")
        print(f"tau={tau:g}: solved fraction at budget 100 is "
              f"{profile.fraction_at(100.0):.3f}")
    return 0


def _read_profile_csv(path) -> bench.DataProfile:
    """The profile a CSV holds; its rows list only the solved problems.

    The last row's solved fraction is (rows / problems), which gives back the
    number of problems; an empty profile has none solved out of none.  A CSV
    whose rows carry more than one tau holds several profiles (``bench.emit``
    of a dict writes them all into one file) and is refused.
    """
    kappas = []
    tau = math.nan
    fraction = 1.0
    with open(path) as fh:
        header = fh.readline()
        if header.strip() != "tau,kappa,solved_fraction":
            raise SystemExit(f"{path} is not a profile CSV")
        for line in fh:
            tau_text, kappa_text, fraction_text = line.strip().split(",")
            if kappas and float(tau_text) != tau:
                raise SystemExit(f"{path} holds profiles at more than one tau "
                                 f"({tau:g} and {float(tau_text):g}); "
                                 "emit one profile per CSV")
            tau = float(tau_text)
            kappas.append(float(kappa_text))
            fraction = float(fraction_text)
    return bench.DataProfile(
        tau=tau, n_problems=round(len(kappas) / fraction),
        solve_kappas={f"p{idx}": k for idx, k in enumerate(kappas)},
    )


def _cmd_bench_table(args) -> int:
    profile = _read_profile_csv(args.profile)
    table = bench.summarize_simplex_gradients(profile, _parse_floats(args.fractions))
    if args.out:
        bench.emit(table, args.out)
        print(f"wrote {args.out}")
    else:
        print("fraction,kappa")
        for fraction, kappa in table:
            print(f"{fraction:g},{'inf' if math.isinf(kappa) else format(kappa, '.10g')}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lovotr",
        description="Min-of-components trust-region solver and benchmark tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-qd", help="generate QD problem instances")
    gen.add_argument("--n", type=int, default=10)
    gen.add_argument("--r", type=int, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--count", type=int, default=50)
    gen.add_argument("--out", required=True)
    gen.set_defaults(fn=_cmd_gen_qd)

    bench_parser = sub.add_parser("bench", help="benchmark pipeline")
    bench_sub = bench_parser.add_subparsers(dest="bench_command", required=True)

    run = bench_sub.add_parser("run", help="run the solver over a problem directory")
    run.add_argument("--problems", required=True)
    run.add_argument("--config", default=None, help="JSON file of solver settings")
    run.add_argument("--budget-rule", choices=bench.BUDGET_RULES, default="component")
    run.add_argument("--out", required=True)
    run.add_argument("--verbose", "-v", action="store_true")
    run.add_argument("--dump-samples", default=None,
                     help="JSONL file receiving per-iteration sample-set dumps")
    run.set_defaults(fn=_cmd_bench_run)

    prof = bench_sub.add_parser("profile", help="compute data profiles from traces")
    prof.add_argument("--traces", required=True)
    prof.add_argument("--tau", default="1e-1,1e-3,1e-5,1e-7")
    prof.add_argument("--out", required=True)
    prof.add_argument("--f-l", default=None,
                      help="JSON file of per-problem reference values")
    prof.add_argument("--svg", action="store_true")
    prof.set_defaults(fn=_cmd_bench_profile)

    table = bench_sub.add_parser("table", help="budget summary from a profile CSV")
    table.add_argument("--profile", required=True)
    table.add_argument("--fractions", default="0.2,0.4,0.6,0.8,0.85")
    table.add_argument("--out", default=None)
    table.set_defaults(fn=_cmd_bench_table)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
