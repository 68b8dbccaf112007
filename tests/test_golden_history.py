"""Golden iteration histories: a pure refactor reproduces them bit for bit.

A small fixed set is solved under both ``use_cheap_rho`` values at a budget of
1500, and every iteration is hashed with the fields perfbench's behaviour
digest reads: kind, rho, both radii (as float hex), working index, evaluation
count, and the final value.  The set covers criticality iterations and
``success``, ``stalled`` and ``budget_exhausted`` runs, at least one rebuild
of a singular sample (``_recover_geometry``), and geometry iterations after an
evaluated trust-region candidate that did not enter the sample (``altmov``
with ``rho_defined``).  It also covers every way a write reaches the sample's
cached interpolation matrix: frozen repairs (``radii_frozen``) and exchanges
that keep the base rewrite one row, and accepted steps and exchanges that
hand the candidate the base slot recompute its offset columns.  Frozen
repairs update one entry of the row distances without recomputing them, and a
swap into the base slot carries the cached row lists over.  A change that is
meant to move the numbers updates ``GOLDEN_SHA256`` and says so.
"""

import hashlib
from collections import Counter

import numpy as np

import lovotr.model
import lovotr.solver
from lovotr.solver import SolverConfig, solve
from lovotr.testsets import HS_CATALOG, gen_hs, gen_mw, gen_qd

GOLDEN_SHA256 = "9eac9a21a43b3362659b1c09c5290c4996b5510f694fd34464ce520151b2dc86"


def golden_problems():
    return [
        *gen_qd(4, 3, 20240817, 3),
        gen_hs(HS_CATALOG, ["hs1", "hs25"]),
        gen_hs(HS_CATALOG, ["hs5", "hs38"]),
        gen_mw("extended_rosenbrock", 4, 2),
    ]


def test_histories_match_the_golden_digest(monkeypatch):
    recoveries = []
    recover = lovotr.solver._recover_geometry

    def counted_recover(*args):
        recoveries.append(args)
        return recover(*args)

    monkeypatch.setattr(lovotr.solver, "_recover_geometry", counted_recover)
    exchange_rows = Counter()  # True: the candidate took the base slot
    exchange = lovotr.solver.exchange_point

    def counted_exchange(*args):
        row = exchange(*args)
        exchange_rows[row == 0] += 1
        return row

    monkeypatch.setattr(lovotr.solver, "exchange_point", counted_exchange)
    in_place = Counter()  # cache writes that updated an array instead of rebuilding it
    replace, promote = lovotr.solver.replace_point, lovotr.model.promote_to_base
    base_moved = lovotr.model.SampleSet._base_moved

    def counted_base_moved(sample):
        in_place["full recomputes"] += 1
        base_moved(sample)

    def counted_replace(sample, *args):
        recomputes, dist = in_place["full recomputes"], sample.distances.copy()
        replace(sample, *args)
        in_place["repair recomputes"] += in_place["full recomputes"] - recomputes
        in_place["one-row updates"] += int(np.count_nonzero(sample.distances != dist)) == 1

    def counted_promote(sample, row):
        rows = sample._rows
        promote(sample, row)
        in_place["row lists"] += sample._rows is rows

    monkeypatch.setattr(lovotr.model.SampleSet, "_base_moved", counted_base_moved)
    monkeypatch.setattr(lovotr.solver, "replace_point", counted_replace)
    for module in (lovotr.solver, lovotr.model):  # exchange_point promotes too
        monkeypatch.setattr(module, "promote_to_base", counted_promote)
    digest = hashlib.sha256()
    statuses, kinds = set(), set()
    after_candidate = frozen = 0
    streaks = []  # (longest run of consecutive frozen repairs, n) per run
    for problem in golden_problems():
        for use_cheap_rho in (True, False):
            result = solve(problem, SolverConfig(budget=1500,
                                                 use_cheap_rho=use_cheap_rho))
            digest.update(problem.name.encode())
            for o in result.history:
                digest.update(f"{o.kind},{float(o.rho).hex()},{float(o.delta).hex()},"
                              f"{float(o.Delta).hex()},{o.index},{o.evals_total};"
                              .encode())
            digest.update(float(result.f_final).hex().encode())
            statuses.add(result.status)
            kinds.update(o.kind for o in result.history)
            after_candidate += sum(o.kind == "altmov" and o.rho_defined
                                   for o in result.history)
            frozen += sum(o.radii_frozen for o in result.history)
            run = longest = 0
            for o in result.history:
                run = run + 1 if o.radii_frozen else 0
                longest = max(longest, run)
            streaks.append((longest, problem.n))
    assert statuses == {"success", "stalled", "budget_exhausted"}
    assert {"criticality", "unsuccessful"} <= kinds
    assert after_candidate > 0
    assert frozen > 0  # row writes by replace_point
    assert exchange_rows[False] > 0 and exchange_rows[True] > 0
    # a repair never moves the base: it updates one distance, no full recompute
    assert in_place["one-row updates"] > 0 and in_place["repair recomputes"] == 0
    assert in_place["full recomputes"] > 0 and in_place["row lists"] > 0
    assert recoveries  # the set rebuilds at least one singular sample
    # a repair places its point within delta <= Delta of a base that stays,
    # so each one clears a point beyond 2 * Delta: a streak ends within n
    assert all(longest <= n for longest, n in streaks), streaks
    assert digest.hexdigest() == GOLDEN_SHA256
