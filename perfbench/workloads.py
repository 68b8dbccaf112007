"""Workload definitions: which problems each campaign solves, under which config.

Every workload is a closed loop: one problem at a time in one process, each
solved once per campaign pass under the per-problem budget that
``lovotr.bench.run_campaign`` uses (component metering).

* ``qd-r10``: QD, n=10, r=10, default ``SolverConfig``; the paper's base case.
  The model and subproblem layers do most of the work and most iterations are
  frozen geometry repairs.
* ``qd-r100-full``: QD, n=10, r=100, ``use_cheap_rho=False``.  Every
  trust-region candidate is a 100-component full evaluation, so the oracle
  layer is heavy, and the cheap-ratio mechanism is bypassed: a change to that
  mechanism must show no change here.
* ``hs-mw``: the 26 valid two-entry HS catalog combinations plus ten
  least-squares block problems at start scales 1 and 10 (46 problems, n=2..10).
  Small n, where fixed per-call overhead outweighs the O(n^3) algebra; most
  runs end in ``success``; it holds the only index swaps and thin-box starts.

The instance set of a workload does not depend on the ``--seed`` of a run:
campaign totals vary by about 30% from one QD instance set of ten problems to
the next, far more than any bound a regression gate could use.  QD instances
come from the generator seed ``QD_SEED``; ``HELD_OUT_QD_SEED`` names a second
instance set for checking a claim on problems it was not developed on.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass

from lovotr import testsets
from lovotr.problem import problem_from_dict, problem_to_dict
from lovotr.solver import SolverConfig

QD_SEED = 20240817
HELD_OUT_QD_SEED = 20250521
QD_COUNT = 10
QD_N = 10

# The eight least-squares cases of acceptance criterion 7 plus two wider ones.
MW_CASES = (
    ("broyden_tridiagonal", 5, 2), ("trigonometric", 4, 2),
    ("discrete_boundary_value", 6, 3), ("penalty_i", 4, 2),
    ("extended_rosenbrock", 4, 2), ("variably_dimensioned", 4, 3),
    ("brown_almost_linear", 4, 2), ("linear_full_rank", 3, 2),
    ("chebyquad", 6, 3), ("powell_singular_extended", 8, 4),
)
MW_START_SCALES = (1.0, 10.0)
HS_PAIR_COUNT = 26

REFERENCES_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                               "references.json")


@dataclass
class Workload:
    """The problems of one campaign, keyed by ids unique within it."""

    name: str
    ids: list
    problems: list
    config: SolverConfig
    n_max: int


def problem_id(problem) -> str:
    """Campaign-unique id; MW names omit the start scale, so it is appended."""
    gen = problem.generator
    if gen["kind"] == "mw":
        return f"{problem.name}-x{gen['params']['start_scale']:g}"
    return problem.name


def _generate(name: str, qd_seed: int) -> list:
    if name == "qd-r10":
        return testsets.gen_qd(QD_N, 10, qd_seed, QD_COUNT)
    if name == "qd-r100-full":
        return testsets.gen_qd(QD_N, 100, qd_seed, QD_COUNT)
    if name == "hs-mw":
        problems = []
        for pair in itertools.combinations(testsets.HS_CATALOG, 2):
            try:
                problems.append(testsets.gen_hs(testsets.HS_CATALOG, list(pair)))
            except ValueError:  # the pair's boxes do not intersect
                continue
        if len(problems) != HS_PAIR_COUNT:
            raise RuntimeError(f"expected {HS_PAIR_COUNT} valid HS pairs, "
                               f"got {len(problems)}")
        for scale in MW_START_SCALES:
            for function_id, n, r in MW_CASES:
                problems.append(testsets.gen_mw(function_id, n, r, scale))
        return problems
    raise ValueError(f"unknown workload {name!r}")


def _same_problem(a, b) -> bool:
    return (a.n == b.n and a.r == b.r and a.generator == b.generator
            and (a.x0 == b.x0).all() and (a.box.lower == b.box.lower).all()
            and (a.box.upper == b.box.upper).all())


def build(name: str, qd_seed: int = QD_SEED) -> Workload:
    """Generate the workload and round-trip every problem through its JSON form.

    The solver receives the round-tripped problems only.
    """
    generated = _generate(name, qd_seed)
    problems = []
    for original in generated:
        rebuilt = problem_from_dict(json.loads(json.dumps(problem_to_dict(original))))
        if not _same_problem(original, rebuilt):
            raise RuntimeError(f"{original.name} does not survive the JSON round trip")
        problems.append(rebuilt)
    ids = [problem_id(p) for p in generated]
    if len(set(ids)) != len(ids):
        raise RuntimeError(f"duplicate problem ids in workload {name!r}")
    config = SolverConfig(use_cheap_rho=False) if name == "qd-r100-full" else SolverConfig()
    return Workload(name=name, ids=ids, problems=problems, config=config,
                    n_max=max(p.n for p in problems))


def qd_floor(value: float) -> float:
    """Largest basin floor 5**i at or below ``value`` (acceptance criterion 1).

    Every QD objective value is at least 5 and the basin bottoms sit exactly at
    the powers 5**i, so this snaps a run's best value to the floor of the basin
    it converged into.
    """
    i = max(1, int(math.floor(math.log(max(value, 5.0)) / math.log(5.0))))
    while 5.0 ** (i + 1) <= value:
        i += 1
    return 5.0 ** i


def reference_values(workload: Workload, best_values: dict) -> dict:
    """Data-profile reference value f_L per problem id.

    QD runs snap their own best value to its basin floor.  HS/MW references are
    frozen in ``references.json`` (written by ``freeze_references.py`` from a
    baseline run) and never recomputed, so a later change that finds lower
    values still counts as solving.
    """
    if workload.name.startswith("qd-"):
        return {pid: qd_floor(value) for pid, value in best_values.items()}
    with open(REFERENCES_PATH) as fh:
        frozen = json.load(fh)[workload.name]
    missing = sorted(set(workload.ids) - set(frozen))
    if missing:
        raise RuntimeError(f"no frozen reference for {missing}")
    return {pid: frozen[pid] for pid in workload.ids}

