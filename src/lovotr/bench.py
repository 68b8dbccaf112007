"""Campaign runner, data profiles, and report emission.

A campaign runs the solver over a list of problems under a per-problem
evaluation budget and records, for each problem, the trace of best certified
objective values against cumulative evaluation counts.  Two budget rules are
supported, matching the two ways of metering a solver that can evaluate
components independently:

* ``component``: the budget is ``100 * r_p * (n_max + 1)`` component
  evaluations and trace abscissas count component evaluations; profile
  abscissas are ``t / (r_p * (n_p + 1))``.
* ``fmin``: the budget is ``100 * (n_max + 1)`` full objective evaluations and
  trace abscissas count full evaluations; profile abscissas are
  ``t / (n_p + 1)``.

Either way the abscissa unit is one simplex gradient of the objective (n+1
full evaluations).  A problem counts as solved with tolerance ``tau`` at the
first ``t`` where

    f_best(t) <= f_L + tau * (f(x0) - f_L),

with ``f_L`` the reference value per problem (by default the best value found
by any participating run, optionally overridden with known values).  The data
profile is the running fraction of problems solved as a function of the
simplex-gradient budget; its summary table gives the smallest budget that
reaches each of a few solved fractions.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .problem import EvalLedger, LovoProblem
from .solver import STATUS_ORACLE, SolverConfig, solve

BUDGET_RULES = ("component", "fmin")


@dataclass
class RunTrace:
    """Best-value trace of one (problem, solver) run."""

    problem_name: str
    n_p: int
    r_p: int
    metering: str
    budget: int
    f_x0: float
    samples: list = field(default_factory=list)  # (t, f_best), certified
    status: str = ""
    # the run's final point and index; None when the run raised, and on a
    # trace that read_traces read back (profiles do not use them)
    x_final: np.ndarray | None = None
    i_final: int | None = None

    @property
    def best_value(self) -> float:
        return self.samples[-1][1] if self.samples else math.inf

    def first_crossing(self, threshold: float):
        """Smallest t with f_best(t) <= threshold, or None."""
        for t, value in self.samples:
            if value <= threshold:
                return t
        return None

    def profile_denominator(self) -> float:
        if self.metering == "fmin":
            return self.n_p + 1.0
        return self.r_p * (self.n_p + 1.0)


def campaign_budget(problem: LovoProblem, n_max: int, budget_rule: str) -> int:
    """Per-problem evaluation budget for the given rule."""
    if budget_rule == "component":
        return 100 * problem.r * (n_max + 1)
    if budget_rule == "fmin":
        return 100 * (n_max + 1)
    raise ValueError(f"unknown budget rule {budget_rule!r}")


def _trace_from_ledger(ledger: EvalLedger) -> list:
    fmin = ledger.metering == "fmin"
    return [(point.t_fmin if fmin else point.t_component, point.value)
            for point in ledger.trace]


def run_campaign(problems: list, config: SolverConfig | None = None,
                 budget_rule: str = "component", callback=None,
                 sample_log=None) -> list:
    """Run the solver over every problem; one RunTrace per problem.

    The solver is halted at the budget (a trailing full evaluation may
    overshoot a component budget by at most ``r - 1`` single evaluations).  A
    run that ends in ``oracle_error`` (keeping its ``x_final``) or raises
    keeps its trace, with ``status`` set to ``error:TypeName: message`` for
    the exception that ended it.  ``sample_log`` is a per-iteration debug
    hook, called as ``sample_log(problem_name, k, sample)`` with the solver's
    live sample set.
    ``budget_rule`` sets every run's budget, so a ``config.budget`` raises
    ``ValueError``.
    """
    if budget_rule not in BUDGET_RULES:
        raise ValueError(f"unknown budget rule {budget_rule!r}")
    config = config if config is not None else SolverConfig()
    if config.budget is not None:
        raise ValueError("config.budget must be None: budget_rule sets the budgets")
    n_max = max((p.n for p in problems), default=0)
    traces = []
    for problem in problems:
        budget = campaign_budget(problem, n_max, budget_rule)
        ledger = EvalLedger(problem.r, budget=budget, metering=budget_rule)
        log = None
        if sample_log is not None:
            log = (lambda k, _, state, _name=problem.name:
                   sample_log(_name, k, state.sample))
        try:
            result = solve(problem, config, ledger=ledger, callback=log)
            status = result.status
            if status == STATUS_ORACLE:
                status = f"error:OracleError: {result.error}"
            x_final, i_final = result.x_final, result.i_final
        except Exception as exc:  # failed run: keep the partial trace
            status = f"error:{type(exc).__name__}: {exc}"
            x_final, i_final = None, None
        certified = _trace_from_ledger(ledger)
        trace = RunTrace(
            problem_name=problem.name, n_p=problem.n, r_p=problem.r,
            metering=budget_rule, budget=budget,
            f_x0=certified[0][1] if certified else math.inf,
            samples=certified, status=status,
            x_final=x_final, i_final=i_final,
        )
        traces.append(trace)
        if callback is not None:
            callback(trace)
    traces.sort(key=lambda tr: tr.problem_name)
    return traces


def default_f_l(traces: list, overrides: dict | None = None) -> dict:
    """Per-problem reference values: best value across runs, then overrides."""
    table: dict = {}
    for trace in traces:
        best = trace.best_value
        if trace.problem_name not in table or best < table[trace.problem_name]:
            table[trace.problem_name] = best
    if overrides:
        table.update(overrides)
    return table


@dataclass
class DataProfile:
    """Solved-fraction curve over the simplex-gradient budget, for one tolerance."""

    tau: float
    n_problems: int
    solve_kappas: dict  # problem name -> kappa, or None if never solved

    def curve(self):
        """Step-curve vertices as (kappas, fractions), both sorted."""
        solved = sorted(k for k in self.solve_kappas.values() if k is not None)
        kappas = np.asarray(solved, dtype=float)
        fractions = np.arange(1, kappas.size + 1) / max(self.n_problems, 1)
        return kappas, fractions

    def fraction_at(self, kappa: float) -> float:
        kappas, fractions = self.curve()
        idx = np.searchsorted(kappas, kappa, side="right")
        return float(fractions[idx - 1]) if idx > 0 else 0.0

    def rows(self):
        """CSV rows (tau, kappa, solved_fraction) at the curve's step points."""
        kappas, fractions = self.curve()
        return [(self.tau, float(k), float(f)) for k, f in zip(kappas, fractions)]


def data_profile(traces: list, tau: float, f_l_table: dict) -> DataProfile:
    """Solved-fraction profile of the traces at tolerance ``tau``.

    ``f_l_table`` must provide a reference value for every traced problem.
    Each problem is counted once: two traces of one problem name raise
    ``ValueError``.
    """
    solve_kappas = {}
    for trace in traces:
        if trace.problem_name in solve_kappas:
            raise ValueError(f"problem {trace.problem_name!r} has more than one trace; "
                             "a data profile counts each problem once")
        try:
            f_l = f_l_table[trace.problem_name]
        except KeyError:
            raise ValueError(
                f"no reference value for problem {trace.problem_name!r}"
            ) from None
        threshold = f_l + tau * (trace.f_x0 - f_l)
        t = trace.first_crossing(threshold)
        solve_kappas[trace.problem_name] = (
            None if t is None else t / trace.profile_denominator()
        )
    return DataProfile(tau=tau, n_problems=len(traces), solve_kappas=solve_kappas)


def summarize_simplex_gradients(profile: DataProfile, fractions: list) -> list:
    """Smallest budget reaching each solved fraction: rows (fraction, kappa).

    Budgets are in simplex gradients; unreachable fractions report ``inf``.
    """
    solved = sorted(k for k in profile.solve_kappas.values() if k is not None)
    table = []
    for fraction in fractions:
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fractions must lie in (0, 1], got {fraction}")
        need = math.ceil(fraction * profile.n_problems)
        kappa = solved[need - 1] if 0 < need <= len(solved) else math.inf
        table.append((float(fraction), float(kappa)))
    return table


# ---------------------------------------------------------------------------
# Emission: CSV / SVG, all byte-deterministic for identical inputs.

def _format_number(x: float) -> str:
    return "inf" if x == math.inf else format(x, ".10g")


def emit(obj, path) -> str:
    """Write a profile or a summary table to ``path``.

    The format, ``csv`` or ``svg``, is the file extension.  A profile is
    written as CSV or SVG and a summary table as CSV; any other pairing is
    refused (``ValueError``).  Output is deterministic: emitting the same
    object twice yields byte-identical files.
    """
    fmt = os.path.splitext(str(path))[1].lstrip(".").lower()
    if fmt not in ("csv", "svg"):
        raise ValueError(f"unknown format {fmt!r}")
    elif isinstance(obj, list):  # summary table
        if fmt != "csv":
            raise ValueError("summary tables are emitted as csv only")
        lines = ["fraction,kappa"]
        for fraction, kappa in obj:
            lines.append(f"{_format_number(fraction)},{_format_number(kappa)}")
        text = "\n".join(lines) + "\n"
    elif not isinstance(obj, DataProfile):
        raise TypeError(f"cannot emit object of type {type(obj).__name__}")
    elif fmt == "csv":
        lines = ["tau,kappa,solved_fraction"]
        for tau, kappa, frac in obj.rows():
            lines.append(
                f"{_format_number(tau)},{_format_number(kappa)},{_format_number(frac)}"
            )
        text = "\n".join(lines) + "\n"
    else:
        text = render_profile_svg(obj)
    with open(path, "w") as fh:
        fh.write(text)
    return str(path)


def render_profile_svg(profile: DataProfile) -> str:
    """Minimal static SVG: the profile's step polyline, labeled axes."""
    width, height = 640, 480
    ml, mr, mt, mb = 60, 20, 20, 50
    pw, ph = width - ml - mr, height - mt - mb
    kappas, fractions = profile.curve()
    kappa_max = max(1.0, float(kappas[-1])) if kappas.size else 1.0

    def sx(kappa):
        return ml + pw * min(kappa, kappa_max) / kappa_max

    def sy(fraction):
        return mt + ph * (1.0 - fraction)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
        'stroke="#000000"/>',
        f'<text x="{ml + pw / 2:.1f}" y="{height - 12}" text-anchor="middle" '
        'font-size="14">simplex gradients</text>',
        f'<text x="16" y="{mt + ph / 2:.1f}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 16 {mt + ph / 2:.1f})">fraction solved</text>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        out.append(
            f'<text x="{ml - 6}" y="{sy(frac) + 4:.1f}" text-anchor="end" '
            f'font-size="11">{frac:g}</text>'
        )
    for tick in range(5):
        kappa = kappa_max * tick / 4.0
        out.append(
            f'<text x="{sx(kappa):.1f}" y="{height - 32}" text-anchor="middle" '
            f'font-size="11">{kappa:g}</text>'
        )
    pts = [(sx(0.0), sy(0.0))]
    level = 0.0
    for kappa, fraction in zip(kappas, fractions):
        pts.append((sx(kappa), sy(level)))
        pts.append((sx(kappa), sy(fraction)))
        level = fraction
    pts.append((sx(kappa_max), sy(level)))
    coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in pts)
    out.append(f'<polyline points="{coords}" fill="none" stroke="#1f77b4" '
               'stroke-width="1.5"/>')
    out.append(f'<text x="{ml + 8}" y="{mt + 16}" font-size="12" '
               f'fill="#1f77b4">tau={profile.tau:g}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Trace files: one CSV per problem plus a JSON manifest, as used by the CLI.

def write_trace(trace: RunTrace, directory):
    base = os.path.join(str(directory), _safe_name(trace.problem_name))
    with open(base + ".csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "f_best"])
        for t, value in trace.samples:
            writer.writerow([t, repr(float(value))])
    manifest = {
        "problem": trace.problem_name,
        "n": trace.n_p,
        "r": trace.r_p,
        "budget": trace.budget,
        "status": trace.status,
        "metering": trace.metering,
        "f_x0": trace.f_x0,
    }
    if trace.x_final is not None:
        manifest["x_final"] = list(np.asarray(trace.x_final, dtype=float))
        manifest["i_final"] = trace.i_final
    with open(base + ".json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _positive_int(value) -> bool:
    return type(value) is int and value > 0


# What each trace manifest key must hold, and how to say so; ``f_x0`` is
# ``Infinity`` when nothing was certified, and it, ``status`` and ``metering``
# may be absent.
_MANIFEST_TYPES = {
    "problem": (lambda v: type(v) is str, "a string"),
    "n": (_positive_int, "a positive integer"),
    "r": (_positive_int, "a positive integer"),
    "budget": (_positive_int, "a positive integer"),
    "f_x0": (lambda v: type(v) in (int, float) and v == v, "a number other than NaN"),
    "status": (lambda v: type(v) is str, "a string"),
    "metering": (lambda v: v in BUDGET_RULES, f"one of {', '.join(BUDGET_RULES)}"),
}


def read_traces(directory) -> list:
    """Traces ``write_trace`` wrote, less ``x_final`` and ``i_final``.

    No profile reads those two keys, so they are not parsed.  A stray
    ``.json`` file, a manifest value of the wrong type (see
    ``_MANIFEST_TYPES``), an empty CSV or a CSV row that is not ``t,f_best``
    raises ``ValueError`` naming the file (and the key, or the row's line).
    So does a row that no run writes: a ``t`` that is negative or below the
    previous row's, or an ``f_best`` that is not finite or above the previous
    row's (``best_value`` reads the last row as the best).
    """
    traces = []
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        path = os.path.join(str(directory), name)
        with open(path) as fh:
            try:
                manifest = json.load(fh)
            except ValueError:  # not JSON, or not text
                manifest = None
        if not (isinstance(manifest, dict)
                and {"problem", "n", "r", "budget"} <= manifest.keys()):
            raise ValueError(f"{path} is not a trace manifest")
        for key, (accepts, expected) in _MANIFEST_TYPES.items():
            if key in manifest and not accepts(manifest[key]):
                raise ValueError(f"{path}: trace manifest key {key!r} must be "
                                 f"{expected}, got {json.dumps(manifest[key])}")
        csv_path = path[:-5] + ".csv"
        if not os.path.isfile(csv_path):
            raise ValueError(f"{path} is a trace manifest without its CSV {csv_path}")
        samples = []
        with open(csv_path) as fh:
            reader = csv.reader(fh)
            if next(reader, None) is None:
                raise ValueError(f"{csv_path} is empty; expected the header 't,f_best'")
            for row in reader:
                where = f"{csv_path}, line {reader.line_num}"
                try:
                    t, f_best = row
                    t, f_best = int(t), float(f_best)
                except ValueError:
                    raise ValueError(f"{where}: expected a row 't,f_best', "
                                     f"got {','.join(row)!r}") from None
                prev_t, prev_f = samples[-1] if samples else (0, math.inf)
                if not (t >= prev_t and math.isfinite(f_best) and f_best <= prev_f):
                    raise ValueError(
                        f"{where}: row {','.join(row)!r} is out of trace order; t must "
                        "be >= 0 and >= the previous t, f_best finite and <= the "
                        "previous f_best")
                samples.append((t, f_best))
        traces.append(RunTrace(
            problem_name=manifest["problem"], n_p=manifest["n"], r_p=manifest["r"],
            metering=manifest.get("metering", "component"),
            budget=manifest["budget"], f_x0=manifest.get("f_x0", math.inf),
            samples=samples, status=manifest.get("status", ""),
        ))
    return traces


def _safe_name(name: str) -> str:
    return "".join(c if c.isalnum() or c in "-_." else "_" for c in name)
