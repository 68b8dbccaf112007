"""Layer spans recorded from outside the package, for the traced run only.

``instrument`` replaces the functions that ``lovotr.solver`` imported from the
other modules (and its own module-level functions) and
``lovotr.model.eval_component`` with timing wrappers; ``restore`` puts the
originals back.  ``instrument_problem`` and ``instrument_ledger`` wrap each
problem's ``ComponentOracle.fn`` and the ledger's ``note_value`` and
``exhausted``, objects the benchmark itself owns.  A span's layer is the module its function lives in.  Spans stay in memory
(name, start, end, parent, problem) and are written out at the end of the run.
Self time is a span's duration minus the durations of its direct children;
calls nest strictly in this single-threaded loop, so the children never
overlap one another.
"""

from __future__ import annotations

import inspect
import time
from array import array
from collections import Counter

import numpy as np

ORACLE = "problem.oracle"
LEDGER = "problem.ledger"
SOLVE = "solver.solve"
PROFILE = "bench.profile"


class Tracer:
    """Span recorder with per-name call counts, self time and raised exceptions."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_problem = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: list = []
        self.self_s: list = []
        self.total_s: list = []
        self.raised: Counter = Counter()   # (name, exception type) -> count
        self.box_violations = 0
        self.flat_altmovs = 0
        self.problem = -1
        self._stack: list = []    # open span indices
        self._child: list = []    # child durations of each open span
        self.t0 = time.perf_counter()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_problem.append(self.problem)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self._child.append(0.0)
        return idx

    def _close(self, idx: int, nid: int, start: float, end: float):
        self._stack.pop()
        children = self._child.pop()
        duration = end - start
        if self._child:
            self._child[-1] += duration
        self.span_start[idx] = start
        self.span_end[idx] = end
        self.calls[nid] += 1
        self.self_s[nid] += duration - children
        self.total_s[nid] += duration

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = self._open(nid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self.raised[(name, type(exc).__name__)] += 1
                raise
            finally:
                self._close(idx, nid, start, clock())

        return traced

    def span(self, name: str):
        """Context manager recording one span around a block."""
        return _Span(self, self.name_id(name))

    def stat(self, name: str, field: str) -> float:
        nid = self._ids.get(name)
        if nid is None:
            return 0
        return {"calls": self.calls, "self_s": self.self_s,
                "total_s": self.total_s}[field][nid]

    def layer_self_s(self, layer: str) -> float:
        return sum(s for name, s in zip(self.names, self.self_s)
                   if name.split(".")[0] == layer)

    def oracle_calls_under(self, parent: str) -> int:
        """Oracle spans whose direct parent is a span named ``parent``."""
        if parent not in self._ids or ORACLE not in self._ids:
            return 0
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        oracle = parents[names == self._ids[ORACLE]]
        oracle = oracle[oracle >= 0]
        return int(np.count_nonzero(names[oracle] == self._ids[parent]))

    def write(self, path: str, problem_ids: list):
        np.savez_compressed(
            path,
            names=np.array(self.names),
            problems=np.array(problem_ids),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            problem=np.frombuffer(self.span_problem, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64) - self.t0,
            end=np.frombuffer(self.span_end, dtype=np.float64) - self.t0,
        )


class _Span:
    def __init__(self, tracer: Tracer, nid: int):
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        self.idx = self.tracer._open(self.nid)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.idx, self.nid, self.start, time.perf_counter())
        return False


def _layer_functions(module):
    """Module-level functions of ``module`` that belong to the package."""
    for attr, value in vars(module).items():
        if inspect.isfunction(value) and value.__module__.startswith("lovotr."):
            yield attr, value


def instrument(tracer: Tracer) -> list:
    """Wrap the package's cross-layer calls; returns what ``restore`` undoes."""
    import lovotr.model
    import lovotr.solver

    saved = []
    for attr, fn in _layer_functions(lovotr.solver):
        if attr == "solve":  # the campaign records the root span itself
            continue
        layer = fn.__module__.rsplit(".", 1)[-1]
        saved.append((lovotr.solver, attr, fn))
        traced = tracer.wrap(f"{layer}.{fn.__name__}", fn)
        if attr == "altmov_linear":
            traced = _count_flat(tracer, traced)
        setattr(lovotr.solver, attr, traced)
    saved.append((lovotr.model, "eval_component", lovotr.model.eval_component))
    lovotr.model.eval_component = tracer.wrap("problem.eval_component",
                                              lovotr.model.eval_component)
    return saved


def _count_flat(tracer: Tracer, altmov):
    def counted(*args, **kwargs):
        d, flat = altmov(*args, **kwargs)
        tracer.flat_altmovs += bool(flat)
        return d, flat

    return counted


def restore(saved: list):
    for module, attr, fn in reversed(saved):
        setattr(module, attr, fn)


def instrument_problem(tracer: Tracer, problem):
    """Time every oracle of ``problem`` and count queries outside its box."""
    lower, upper = problem.box.lower, problem.box.upper
    for comp in problem.components:
        timed = tracer.wrap(ORACLE, comp.fn)

        def fn(x, _timed=timed):
            v = np.asarray(x, dtype=float)
            if (v < lower).any() or (v > upper).any():
                tracer.box_violations += 1
            return _timed(x)

        comp.fn = fn


def instrument_ledger(tracer: Tracer, ledger):
    ledger.note_value = tracer.wrap(LEDGER, ledger.note_value)
    ledger.exhausted = tracer.wrap(LEDGER, ledger.exhausted)
