"""Benchmark problem generators: QD quadratics, HS-style combos, MW-style blocks.

Three families are shipped:

* ``qd``: synthetic quadratic instances with component ``i`` given by
  ``f_i(x) = 5**i + 0.5 * sum_j a_ij (x_j - b_ij)**2`` over the box
  ``[0, 10]^n`` with the start at the box center.  The coefficient vectors are
  drawn by a self-contained pseudorandom generator (below) so that instances
  reproduce bit-identically everywhere, and component-by-component so that a
  set generated with a larger ``r`` extends, rather than reshuffles, the
  smaller one.
* ``hs``: bound-constrained objectives from the classical Hock-Schittkowski
  collection (1981 Springer edition; formulas transcribed below), combined in
  groups of 2 to 4 into one min-of-components problem on the intersection of
  their boxes.
* ``mw``: smooth nonlinear least-squares families in the tradition of the
  More-Wild benchmark set (the functions go back to More, Garbow and
  Hillstrom, 1981); the residuals are partitioned into ``r`` nearly equal
  blocks and component ``i`` is the sum of squares over block ``i``.

Pseudorandom numbers come from xoshiro256** (Blackman and Vigna, public
domain), a 64-bit generator with 256 bits of state, seeded through the
splitmix64 mixer from the pair (campaign seed, problem ordinal).  Uniform
doubles are produced as ``(word >> 11) * 2**-53``.  The generator is fixed and
documented here precisely so that QD instances are reproducible across
machines and releases; the original experiments behind this design used a
host-language Mersenne Twister, so agreement with them is distributional, not
bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .problem import ComponentOracle, FeasibleBox, LovoProblem

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(state: int):
    """One splitmix64 step: returns (output word, next state)."""
    state = (state + _GOLDEN) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64, state


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class Xoshiro256StarStar:
    """xoshiro256** 1.0; state words come from splitmix64 over the seed pair."""

    def __init__(self, seed: int, ordinal: int = 0):
        state = (int(seed) ^ ((ordinal + 1) * _GOLDEN)) & _MASK64
        words = []
        for _ in range(4):
            w, state = _splitmix64(state)
            words.append(w)
        if not any(words):
            words[0] = _GOLDEN
        self._s = words

    def next_u64(self) -> int:
        s = self._s
        result = (_rotl((s[1] * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s[1] << 17) & _MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        u = (self.next_u64() >> 11) * 2.0 ** -53
        return lo + u * (hi - lo)

    def uniforms(self, count: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        return np.array([self.uniform(lo, hi) for _ in range(count)])


# ---------------------------------------------------------------------------
# QD: synthetic quadratics with increasing component counts.

@dataclass
class QdInstance:
    """One QD instance: coefficient rows ``a`` in [0,1000]^n, centers ``b`` in [0,10]^n."""

    n: int
    r: int
    seed: int
    ordinal: int
    a: np.ndarray
    b: np.ndarray

    def component_value(self, i: int, x) -> float:
        x = np.asarray(x, dtype=float)
        return 5.0 ** i + 0.5 * float(self.a[i - 1] @ (x - self.b[i - 1]) ** 2)

    def component_gradient(self, i: int, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.a[i - 1] * (x - self.b[i - 1])

    def to_problem(self) -> LovoProblem:
        def make_oracle(i: int) -> ComponentOracle:
            offset = 5.0 ** i
            a_i = self.a[i - 1]
            b_i = self.b[i - 1]

            def fn(x, _offset=offset, _a=a_i, _b=b_i):
                return _offset + 0.5 * float(_a @ (np.asarray(x, float) - _b) ** 2)

            return ComponentOracle(index=i, fn=fn)

        # Python's 5.0 ** i, as each oracle computes it, not numpy's power.
        offsets = np.array([5.0 ** i for i in range(1, self.r + 1)])
        a, b = self.a, self.b

        def eval_all(x):
            # vecdot runs each row through the kernel of the oracles' ``_a @ v``
            # (einsum and add.reduce sum in other orders and differ in bits).
            return offsets + 0.5 * np.vecdot(a, (np.asarray(x, float) - b) ** 2)

        box = FeasibleBox(np.zeros(self.n), np.full(self.n, 10.0))
        return LovoProblem(
            name=f"qd-r{self.r}-n{self.n}-s{self.seed}-p{self.ordinal:03d}",
            components=[make_oracle(i) for i in range(1, self.r + 1)],
            box=box,
            x0=np.full(self.n, 5.0),
            generator={
                "kind": "qd",
                "params": {"n": self.n, "r": self.r, "seed": self.seed,
                           "ordinal": self.ordinal},
            },
            eval_all=eval_all,
        )


def qd_instance(n: int, r: int, seed: int, ordinal: int) -> QdInstance:
    """Draw one QD instance; ``a`` then ``b`` per component, in component order.

    The draw order makes the nesting property structural: with the same seed
    and ordinal, the first components of a larger-``r`` instance coincide
    bitwise with a smaller-``r`` instance.
    """
    if n < 1 or r < 1:
        raise ValueError("need n >= 1 and r >= 1")
    rng = Xoshiro256StarStar(seed, ordinal)
    a = np.empty((r, n))
    b = np.empty((r, n))
    for i in range(r):
        a[i] = rng.uniforms(n, 0.0, 1000.0)
        b[i] = rng.uniforms(n, 0.0, 10.0)
    return QdInstance(n=n, r=r, seed=seed, ordinal=ordinal, a=a, b=b)


def gen_qd(n: int, r: int, seed: int, count: int) -> list:
    """Generate ``count`` QD problems for the given dimension and component count."""
    if count < 1:
        raise ValueError("need count >= 1")
    return [qd_instance(n, r, seed, k).to_problem() for k in range(count)]


def _qd_factory(params: dict) -> LovoProblem:
    return qd_instance(params["n"], params["r"], params["seed"],
                       params["ordinal"]).to_problem()


# ---------------------------------------------------------------------------
# HS: bound-constrained catalog objectives and their combinations.
#
# The eight catalog entries below are problems 1, 3, 4, 5, 25, 38, 45 and 110
# of the Hock-Schittkowski collection ("Test Examples for Nonlinear
# Programming Codes", Springer, 1981).  One-sided native bounds are closed off
# with wide finite ones, since every variable here needs a proper interval.

@dataclass
class CatalogEntry:
    name: str
    dim: int
    fn: Callable[[np.ndarray], float]
    lower: np.ndarray
    upper: np.ndarray


def _hs1(x):
    return 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2


def _hs3(x):
    return x[1] + 1e-5 * (x[1] - x[0]) ** 2


def _hs4(x):
    return (x[0] + 1.0) ** 3 / 3.0 + x[1]


def _hs5(x):
    return (
        math.sin(x[0] + x[1])
        + (x[0] - x[1]) ** 2
        - 1.5 * x[0]
        + 2.5 * x[1]
        + 1.0
    )


_HS25_I = np.arange(1.0, 100.0)
_HS25_U = 25.0 + (-50.0 * np.log(0.01 * _HS25_I)) ** (2.0 / 3.0)


def _hs25(x):
    terms = -0.01 * _HS25_I + np.exp(-((_HS25_U - x[1]) ** x[2]) / x[0])
    return float(terms @ terms)


def _hs38(x):
    return (
        100.0 * (x[1] - x[0] ** 2) ** 2
        + (1.0 - x[0]) ** 2
        + 90.0 * (x[3] - x[2] ** 2) ** 2
        + (1.0 - x[2]) ** 2
        + 10.1 * ((x[1] - 1.0) ** 2 + (x[3] - 1.0) ** 2)
        + 19.8 * (x[1] - 1.0) * (x[3] - 1.0)
    )


def _hs45(x):
    return 2.0 - x[0] * x[1] * x[2] * x[3] * x[4] / 120.0


def _hs110(x):
    xs = x[:10]
    logs = np.log(xs - 2.0) ** 2 + np.log(10.0 - xs) ** 2
    return float(logs.sum()) - float(np.prod(xs)) ** 0.2


HS_CATALOG = {
    entry.name: entry
    for entry in [
        CatalogEntry("hs1", 2, _hs1,
                     np.array([-10.0, -1.5]), np.array([10.0, 10.0])),
        CatalogEntry("hs3", 2, _hs3,
                     np.array([-10.0, 0.0]), np.array([10.0, 10.0])),
        CatalogEntry("hs4", 2, _hs4,
                     np.array([1.0, 0.0]), np.array([11.0, 10.0])),
        CatalogEntry("hs5", 2, _hs5,
                     np.array([-1.5, -3.0]), np.array([4.0, 3.0])),
        CatalogEntry("hs25", 3, _hs25,
                     np.array([0.1, 0.0, 0.0]), np.array([100.0, 25.6, 5.0])),
        CatalogEntry("hs38", 4, _hs38,
                     np.full(4, -10.0), np.full(4, 10.0)),
        CatalogEntry("hs45", 5, _hs45,
                     np.zeros(5), np.array([1.0, 2.0, 3.0, 4.0, 5.0])),
        CatalogEntry("hs110", 10, _hs110,
                     np.full(10, 2.001), np.full(10, 9.999)),
    ]
}


def gen_hs(catalog: dict, combo: list) -> LovoProblem:
    """Combine 2 to 4 catalog objectives into one min-of-components problem.

    The dimension is the largest among the combined entries; objectives of
    smaller dimension ignore the extra coordinates, and their boxes leave them
    unconstrained.  The feasible box is the coordinatewise intersection;
    combinations whose intersection pinches to a point in some coordinate are
    rejected.  The start is the center of the intersected box.
    """
    if not 2 <= len(combo) <= 4:
        raise ValueError("combo must name 2 to 4 catalog entries")
    entries = []
    for name in combo:
        try:
            entries.append(catalog[name])
        except KeyError:
            raise ValueError(f"unknown catalog entry {name!r}") from None

    n = max(e.dim for e in entries)
    lower = np.full(n, -np.inf)
    upper = np.full(n, np.inf)
    for e in entries:
        lower[: e.dim] = np.maximum(lower[: e.dim], e.lower)
        upper[: e.dim] = np.minimum(upper[: e.dim], e.upper)
    # Coordinates no entry constrains cannot occur: the widest entry spans n.
    if np.any(lower >= upper):
        bad = int(np.nonzero(lower >= upper)[0][0])
        raise ValueError(
            f"combination {combo} has a degenerate box in coordinate {bad}"
        )

    def make_oracle(pos: int, entry: CatalogEntry) -> ComponentOracle:
        def fn(x, _e=entry):
            return float(_e.fn(np.asarray(x, dtype=float)[: _e.dim]))

        return ComponentOracle(index=pos, fn=fn)

    return LovoProblem(
        name="hs-" + "+".join(combo),
        components=[make_oracle(pos, e) for pos, e in enumerate(entries, start=1)],
        box=FeasibleBox(lower, upper),
        x0=0.5 * (lower + upper),
        generator={"kind": "hs", "params": {"combo": list(combo)}},
    )


def _hs_factory(params: dict) -> LovoProblem:
    return gen_hs(HS_CATALOG, params["combo"])


# ---------------------------------------------------------------------------
# MW: smooth least-squares families split into residual blocks.

@dataclass
class MwFamily:
    name: str
    residual_count: Callable[[int], int]
    residuals: Callable[[np.ndarray], np.ndarray]
    start: Callable[[int], np.ndarray]
    check_n: Callable[[int], bool] = lambda n: n >= 2


def _rosenbrock_ext(x):
    n = x.size
    out = np.empty(n)
    out[0::2] = 10.0 * (x[1::2] - x[0::2] ** 2)
    out[1::2] = 1.0 - x[0::2]
    return out


def _rosenbrock_ext_start(n):
    s = np.empty(n)
    s[0::2] = -1.2
    s[1::2] = 1.0
    return s


def _powell_singular_ext(x):
    out = np.empty(x.size)
    a, b, c, d = x[0::4], x[1::4], x[2::4], x[3::4]
    out[0::4] = a + 10.0 * b
    out[1::4] = math.sqrt(5.0) * (c - d)
    out[2::4] = (b - 2.0 * c) ** 2
    out[3::4] = math.sqrt(10.0) * (a - d) ** 2
    return out


def _powell_singular_ext_start(n):
    s = np.empty(n)
    s[0::4], s[1::4], s[2::4], s[3::4] = 3.0, -1.0, 0.0, 1.0
    return s


def _trigonometric(x):
    n = x.size
    i = np.arange(1.0, n + 1.0)
    return n - np.cos(x).sum() + i * (1.0 - np.cos(x)) - np.sin(x)


def _broyden_tridiagonal(x):
    padded = np.concatenate(([0.0], x, [0.0]))
    xm, xc, xp = padded[:-2], padded[1:-1], padded[2:]
    return (3.0 - 2.0 * xc) * xc - xm - 2.0 * xp + 1.0


def _discrete_boundary_value(x):
    n = x.size
    h = 1.0 / (n + 1.0)
    t = np.arange(1.0, n + 1.0) * h
    padded = np.concatenate(([0.0], x, [0.0]))
    xm, xc, xp = padded[:-2], padded[1:-1], padded[2:]
    return 2.0 * xc - xm - xp + h * h * (xc + t + 1.0) ** 3 / 2.0


def _linear_full_rank(x):
    n = x.size
    m = 2 * n
    s = 2.0 * x.sum() / m + 1.0
    out = np.full(m, -s)
    out[:n] += x
    return out


def _variably_dimensioned(x):
    n = x.size
    j = np.arange(1.0, n + 1.0)
    s = float(j @ (x - 1.0))
    return np.concatenate((x - 1.0, [s, s * s]))


def _penalty_i(x):
    a = math.sqrt(1e-5)
    return np.concatenate((a * (x - 1.0), [float(x @ x) - 0.25]))


def _brown_almost_linear(x):
    n = x.size
    out = np.empty(n)
    out[:-1] = x[:-1] + x.sum() - (n + 1.0)
    out[-1] = float(np.prod(x)) - 1.0
    return out


def _chebyquad(x):
    n = x.size
    y = 2.0 * x - 1.0  # shift [0, 1] onto the Chebyshev interval
    tkm1 = np.ones_like(y)
    tk = y.copy()
    out = np.empty(n)
    for i in range(1, n + 1):
        if i == 1:
            ti = y
        else:
            ti = 2.0 * y * tk - tkm1
            tkm1, tk = tk, ti
        out[i - 1] = ti.sum() / n
        if i % 2 == 0:
            out[i - 1] += 1.0 / (i * i - 1.0)
    return out


MW_REGISTRY = {
    fam.name: fam
    for fam in [
        MwFamily("extended_rosenbrock", lambda n: n, _rosenbrock_ext,
                 _rosenbrock_ext_start, lambda n: n >= 2 and n % 2 == 0),
        MwFamily("powell_singular_extended", lambda n: n, _powell_singular_ext,
                 _powell_singular_ext_start, lambda n: n >= 4 and n % 4 == 0),
        MwFamily("trigonometric", lambda n: n, _trigonometric,
                 lambda n: np.full(n, 1.0 / n), lambda n: n >= 1),
        MwFamily("broyden_tridiagonal", lambda n: n, _broyden_tridiagonal,
                 lambda n: np.full(n, -1.0), lambda n: n >= 2),
        MwFamily("discrete_boundary_value", lambda n: n, _discrete_boundary_value,
                 lambda n: (lambda t: t * (t - 1.0))(np.arange(1.0, n + 1.0) / (n + 1.0)),
                 lambda n: n >= 2),
        MwFamily("linear_full_rank", lambda n: 2 * n, _linear_full_rank,
                 lambda n: np.ones(n), lambda n: n >= 1),
        MwFamily("variably_dimensioned", lambda n: n + 2, _variably_dimensioned,
                 lambda n: 1.0 - np.arange(1.0, n + 1.0) / n, lambda n: n >= 1),
        MwFamily("penalty_i", lambda n: n + 1, _penalty_i,
                 lambda n: np.arange(1.0, n + 1.0), lambda n: n >= 1),
        MwFamily("brown_almost_linear", lambda n: n, _brown_almost_linear,
                 lambda n: np.full(n, 0.5), lambda n: n >= 2),
        MwFamily("chebyquad", lambda n: n, _chebyquad,
                 lambda n: np.arange(1.0, n + 1.0) / (n + 1.0), lambda n: n >= 2),
    ]
}

MW_DEFAULT_BOUND = 50.0


def residual_blocks(m: int, r: int) -> list:
    """Split residual indices 0..m-1 into r contiguous blocks, sizes within 1."""
    return np.array_split(np.arange(m), r)


def gen_mw(function_id: str, n: int, r: int, start_scale: float = 1.0) -> LovoProblem:
    """Build a min-of-components problem from a least-squares family.

    The family's ``m`` residuals are split into ``r`` nearly equal contiguous
    blocks (sizes differ by at most one; the leading blocks take the extra
    residuals) and component ``i`` is the sum of squared residuals over block
    ``i``.  With ``r = 1`` this is the family's plain sum-of-squares
    objective.  The start is the family's standard starting point scaled by
    ``start_scale`` and projected onto the box, which is ``[-50, 50]^n``
    unless the family defines one.
    """
    try:
        family = MW_REGISTRY[function_id]
    except KeyError:
        raise ValueError(f"unknown least-squares family {function_id!r}") from None
    if not family.check_n(n):
        raise ValueError(f"family {function_id!r} does not support n={n}")
    m = family.residual_count(n)
    if not 1 <= r <= m:
        raise ValueError(f"need 1 <= r <= {m} residual blocks, got {r}")

    box = FeasibleBox(np.full(n, -MW_DEFAULT_BOUND), np.full(n, MW_DEFAULT_BOUND))
    blocks = residual_blocks(m, r)

    def make_oracle(pos: int, block: np.ndarray) -> ComponentOracle:
        def fn(x, _block=block, _res=family.residuals):
            res = _res(np.asarray(x, dtype=float))[_block]
            return float(res @ res)

        return ComponentOracle(index=pos, fn=fn)

    spans = [(int(blk[0]), int(blk[-1]) + 1) for blk in blocks]

    def eval_all(x, _res=family.residuals):
        # One residual vector for all r blocks; each block's dot runs on the
        # same contiguous values as its oracle's, so the sums are the same.
        res = _res(np.asarray(x, dtype=float))
        return np.array([res[s:e] @ res[s:e] for s, e in spans])

    x0 = box.project(family.start(n) * start_scale)
    return LovoProblem(
        name=f"mw-{function_id}-n{n}-r{r}",
        components=[make_oracle(pos, blk) for pos, blk in enumerate(blocks, start=1)],
        box=box,
        x0=x0,
        generator={
            "kind": "mw",
            "params": {"function_id": function_id, "n": n, "r": r,
                       "start_scale": start_scale},
        },
        eval_all=eval_all,
    )


def _mw_factory(params: dict) -> LovoProblem:
    return gen_mw(params["function_id"], params["n"], params["r"],
                  params.get("start_scale", 1.0))


GENERATORS = {"qd": _qd_factory, "hs": _hs_factory, "mw": _mw_factory}
