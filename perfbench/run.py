"""Benchmark of the lovotr solver: seeded single-process campaigns.

Run from the root of a checkout:

    python3 perfbench/run.py --workload qd-r10 --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the campaign is solved in untraced passes until the time
window is used (at least one pass) and every end-to-end metric is printed;
times are scaled to a reference host speed (speed.py).
With ``--trace 1`` one untraced pass is followed by one pass with layer spans,
and the per-layer metrics and the tracing overhead are printed.  Every run's
outputs are checked.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``, holding the
metrics that BENCHMARK.json declares for the mode; results, the environment
and (traced) the spans are also written under ``.perfbench/``.

``--seed`` sets the order the problems are solved in; the behaviour digest is
taken in problem-id order, so it must not depend on the seed.  The instances
come from ``--qd-seed`` (see workloads.py).
"""

import os
import sys

# BLAS threads must be pinned before numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" in sys.modules:
    sys.exit("numpy was imported before the BLAS thread count could be pinned")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("qd-r10", "qd-r100-full", "hs-mw")  # built in workloads.py, imported later
SETUP_PROBES = 6  # extra set-up timings, each in a fresh interpreter
SETUP_KERNELS = 20  # host-speed kernel runs after each set-up timing
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--qd-seed", type=int, default=None,
                        help="QD generator seed (default: workloads.QD_SEED)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def timed_setup(workload_name, qd_seed):
    """Import the package, generate the workload and round-trip it.

    Returns (seconds at reference host speed, raw seconds, workload); the host
    speed is measured right after, since importing numpy is part of set-up.
    """
    start = time.perf_counter()
    import workloads

    seed = workloads.QD_SEED if qd_seed is None else qd_seed
    workload = workloads.build(workload_name, seed)
    raw_s = time.perf_counter() - start
    import speed

    speed.warm_up(SETUP_KERNELS)
    scale = speed.factor([speed.kernel_s() for _ in range(SETUP_KERNELS)])
    return raw_s * scale, raw_s, workload


def probe_setup(args):
    """One set-up timing in a fresh interpreter: (reference-speed s, raw s)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload]
    if args.qd_seed is not None:
        cmd += ["--qd-seed", str(args.qd_seed)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    scaled, raw = done.stdout.split()
    return float(scaled), float(raw)


def git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown (not a git checkout)"


def environment():
    import numpy
    import scipy

    return {
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def measure(args, workload, order, oracles, setup):
    import campaign
    import metrics

    if not args.trace:
        import speed

        setup_samples = [setup] + [probe_setup(args) for _ in range(SETUP_PROBES)]
        speed.warm_up()
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(campaign.run_pass(workload, oracles, order, meter_speed=True))
            if time.perf_counter() - start + passes[-1].wall_s > args.seconds:
                break
        problems = [] if len({p.digest for p in passes}) == 1 else [
            "behaviour digest differs between passes"]
        return passes, metrics.end_to_end(passes, setup_samples), problems, None

    import tracing

    untraced = campaign.run_pass(workload, oracles, order)
    tracer = tracing.Tracer()
    saved = tracing.instrument(tracer)
    try:
        for problem in workload.problems:
            tracing.instrument_problem(tracer, problem)
        traced = campaign.run_pass(workload, oracles, order, tracer)
    finally:
        tracing.restore(saved)
    problems = metrics.traced_consistency(tracer, traced, untraced)
    gen_s = timed_setup(args.workload, args.qd_seed)[1]  # package already imported
    return ([untraced, traced], metrics.per_layer(tracer, traced, untraced, gen_s),
            problems, tracer)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lovotr", "__init__.py")):
        print(f"no lovotr package under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    if args.setup_probe:
        print(*timed_setup(args.workload, args.qd_seed)[:2])
        return 0

    declared = declared_metrics(args.trace)
    *setup, workload = timed_setup(args.workload, args.qd_seed)
    oracles = [[c.fn for c in p.components] for p in workload.problems]
    order = list(range(len(workload.problems)))
    random.Random(args.seed).shuffle(order)

    passes, values, problems, tracer = measure(args, workload, order, oracles, setup)
    values = {k: (v if isinstance(v, int) else float(v), u) for k, (v, u) in values.items()}

    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    failed = sum(p.failed for p in passes)
    missing = [m["name"] for m in declared
               if m["name"] not in values or values[m["name"]][1] != m["unit"]
               or not math.isfinite(values[m["name"]][0])]
    if missing:
        problems.append(f"declared metrics without a finite value in their unit: {missing}")
    correct = not failures and not problems

    env = environment()
    mode = "traced" if args.trace else "untraced"
    print(f"# workload {args.workload} seed {args.seed} ({mode}, "
          f"{len(workload.problems)} problems x {len(passes)} passes)")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# behaviour digest {passes[0].digest}")
    for name, (value, unit) in values.items():
        print(f"{name} {value!r} {unit}")
    for pid, reason in failures:
        print(f"# FAILED {pid}: {reason}")
    for reason in problems:
        print(f"# CHECK {reason}")

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "env": env,
                   "digest": passes[0].digest,
                   "pass_wall_s": [p.wall_s for p in passes],
                   "raw_solve_s": {workload.ids[pos]: [float(p.intervals_s[pos].sum() + p.tail_s[pos])
                                                   for p in passes]
                                   for pos in sorted(passes[0].intervals_s)},
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
                   "failures": failures, "checks": problems}, fh, indent=1)
    if tracer is not None:
        tracer.write(stem + "-spans.npz", workload.ids)

    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]}
                    for m in declared if m["name"] not in missing},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
