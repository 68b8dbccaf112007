"""Golden iteration histories: a pure refactor reproduces them bit for bit.

A small fixed set is solved under both ``use_cheap_rho`` values at a budget of
1500, and every iteration is hashed with the fields perfbench's behaviour
digest reads: kind, rho, both radii (as float hex), working index, evaluation
count, and the final value.  The set covers criticality iterations and
``success``, ``stalled`` and ``budget_exhausted`` runs, and at least one
rebuild of a singular sample (``_recover_geometry``).  A change that is meant
to move the numbers updates ``GOLDEN_SHA256`` and says so.
"""

import hashlib

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
    digest = hashlib.sha256()
    statuses, kinds = set(), set()
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
    assert statuses == {"success", "stalled", "budget_exhausted"}
    assert "criticality" in kinds
    assert recoveries  # the set rebuilds at least one singular sample
    assert digest.hexdigest() == GOLDEN_SHA256
