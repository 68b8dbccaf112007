"""Linear interpolation models over a sample set of n+1 points.

The sample set holds n+1 affinely independent feasible points, the first one
being the base point (the solver's current iterate), together with the values
of the working component there.  The determined linear model is obtained by
solving the (n+1)x(n+1) interpolation system with rows ``[1, (y - base)^T]``
through a QR factorization, which is retained on the sample set and reused for
Lagrange-polynomial queries.  Factorizations are recomputed from scratch on
every change: at the dimensions handled here (n <= 12 across the shipped test
sets) the O(n^3) cost is irrelevant, and incremental updates are left as
future work.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import GeometryError, PointRejectedError
from .problem import as_vector, eval_component

# Interpolation systems with condition estimates beyond this are treated as
# singular: the caller must repair the geometry before trusting the model.
CONDITION_LIMIT = 1e12

# A candidate whose Lagrange weight falls below this adds no information to
# the sample set and cannot safely replace any point.
MIN_LAGRANGE_WEIGHT = 1e-14


@dataclass
class LinearModel:
    """Affine model ``m(x) = b + g . (x - base)`` (the Hessian is identically zero)."""

    b: float
    g: np.ndarray
    base: np.ndarray

    def value(self, x) -> float:
        x = as_vector(x, n=self.base.size)
        return self.b + float(self.g @ (x - self.base))


@dataclass
class AffineFunction:
    """Affine function ``c + w . (x - base)``; used for Lagrange polynomials."""

    c: float
    w: np.ndarray
    base: np.ndarray

    def value(self, x) -> float:
        x = as_vector(x, n=self.base.size)
        return self.c + float(self.w @ (x - self.base))

    @property
    def grad(self) -> np.ndarray:
        return self.w


class SampleSet:
    """n+1 interpolation points with component values; ``points[0]`` is the base.

    Parameters
    ----------
    points : array, shape (n+1, n)
        Interpolation points, all feasible.
    values : array, shape (n+1,)
        Values of the working component at the points.
    model_index : int
        1-based index of the component the values belong to.
    """

    def __init__(self, points, values, model_index):
        self.points = np.asarray(points, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.points.ndim != 2 or self.points.shape[0] != self.points.shape[1] + 1:
            raise ValueError(f"expected (n+1, n) points, got {self.points.shape}")
        if self.values.shape != (self.points.shape[0],):
            raise ValueError("values must have one entry per point")
        self.model_index = int(model_index)
        self._basis = None

    @property
    def n(self) -> int:
        return self.points.shape[1]

    @property
    def npt(self) -> int:
        return self.points.shape[0]

    @property
    def base(self) -> np.ndarray:
        return self.points[0]

    def touch(self):
        """Invalidate cached factorizations after any in-place modification."""
        self._basis = None

    def interpolation_matrix(self) -> np.ndarray:
        """Rows ``[1, (y - base)^T]``; shifting by the base improves conditioning."""
        m = np.empty((self.npt, self.npt))
        m[:, 0] = 1.0
        m[:, 1:] = self.points - self.base
        return m

    def condition_estimate(self) -> float:
        return self._factorize()[1]

    def _factorize(self):
        """Inverse of the interpolation matrix via QR, with a condition estimate."""
        if self._basis is None:
            m = self.interpolation_matrix()
            cond = float(np.linalg.cond(m))
            if not np.isfinite(cond) or cond > CONDITION_LIMIT:
                raise GeometryError(
                    f"interpolation system is numerically singular (cond={cond:.3e}); "
                    "the sample set needs a geometry-improvement step"
                )
            q, rmat = scipy.linalg.qr(m)
            inv = scipy.linalg.solve_triangular(rmat, q.T)
            self._basis = (inv, cond)
        return self._basis

    def find_row(self, x) -> int | None:
        """Index of the row exactly equal to ``x``, or None."""
        x = as_vector(x, n=self.n)
        hits = np.nonzero((self.points == x).all(axis=1))[0]
        return int(hits[0]) if hits.size else None

    def to_debug_dict(self) -> dict:
        try:
            cond = self.condition_estimate()
        except GeometryError:
            cond = float("inf")
        return {
            "points": self.points.tolist(),
            "values": self.values.tolist(),
            "model_index": self.model_index,
            "condition_estimate": cond,
        }


def initial_sample(problem, x0, delta0, ledger, model_index, base_value=None) -> SampleSet:
    """Build the starting sample around ``x0`` with coordinate steps of size ``delta0``.

    The set is ``{x0} u {x0 +/- delta0 e_j : j = 1..n}``: the offset along
    coordinate ``j`` goes up unless that would leave the box, in which case it
    goes down.  If the box is thinner than ``delta0`` in some coordinate the
    offset shrinks to half the box width there (with a warning).  The working
    component is evaluated at each new point; ``base_value`` passes in an
    already-known value at ``x0`` so it is not charged twice.
    """
    x0 = problem.box.project(x0)
    if delta0 <= 0:
        raise ValueError("delta0 must be positive")
    n = problem.n
    lower, upper = problem.box.lower, problem.box.upper
    points = np.tile(x0, (n + 1, 1))
    for j in range(n):
        step = delta0
        if x0[j] + step <= upper[j]:
            points[j + 1, j] += step
        elif x0[j] - step >= lower[j]:
            points[j + 1, j] -= step
        else:
            step = 0.5 * (upper[j] - lower[j])
            warnings.warn(
                f"box is thinner than {delta0} in coordinate {j}; "
                f"shrinking the initial offset to {step}",
                stacklevel=2,
            )
            if x0[j] + step <= upper[j]:
                points[j + 1, j] += step
            elif x0[j] - step >= lower[j]:
                points[j + 1, j] -= step
            else:
                raise GeometryError(f"cannot place an offset point in coordinate {j}")

    values = np.empty(n + 1)
    values[0] = (
        eval_component(problem, ledger, model_index, x0)
        if base_value is None
        else base_value
    )
    for j in range(1, n + 1):
        values[j] = eval_component(problem, ledger, model_index, points[j])
    return SampleSet(points, values, model_index)


def build_model(sample: SampleSet) -> LinearModel:
    """Solve the interpolation system and return the determined linear model."""
    inv, _ = sample._factorize()
    coeffs = inv @ sample.values
    return LinearModel(b=float(coeffs[0]), g=coeffs[1:].copy(), base=sample.base.copy())


def lagrange_polynomials(sample: SampleSet) -> list:
    """Affine Lagrange basis: ``l_j`` is 1 at point ``j`` and 0 at the others."""
    inv, _ = sample._factorize()
    base = sample.base.copy()
    return [
        AffineFunction(c=float(inv[0, j]), w=inv[1:, j].copy(), base=base)
        for j in range(sample.npt)
    ]


def _lagrange_values_at(sample: SampleSet, x) -> np.ndarray:
    inv, _ = sample._factorize()
    row = np.empty(sample.npt)
    row[0] = 1.0
    row[1:] = as_vector(x, n=sample.n) - sample.base
    return row @ inv


def promote_to_base(sample: SampleSet, row: int):
    """Swap sample row ``row`` into the base slot."""
    if row == 0:
        return
    sample.points[[0, row]] = sample.points[[row, 0]]
    sample.values[[0, row]] = sample.values[[row, 0]]
    sample.touch()


def exchange_point(sample: SampleSet, x_new, f_new: float) -> SampleSet:
    """Insert ``(x_new, f_new)`` into the sample, removing one existing point.

    The removed point maximizes ``|l_t(x_new)| * ||y_t - x_best||^2`` where
    ``x_best`` is the point with the smallest value after insertion; ties go to
    the largest index (older points sit at low indices after base swaps).  Two
    points are protected from removal: the current best point, unless the
    candidate improves on it, and the base point, unless the candidate improves
    on the base value, in which case the base slot is handed to the candidate
    and the old base is kept where the removed point sat.

    A candidate coinciding with an existing point refreshes that point's value
    and changes nothing else.  A candidate whose admissible Lagrange weights
    all fall below ``MIN_LAGRANGE_WEIGHT`` is rejected.
    """
    x_new = as_vector(x_new, n=sample.n, name="x_new")
    f_new = float(f_new)

    row = sample.find_row(x_new)
    if row is not None:
        sample.values[row] = f_new
        sample.touch()
        return sample

    lag = _lagrange_values_at(sample, x_new)
    best_old = int(np.argmin(sample.values))
    improves_best = f_new < sample.values[best_old]
    improves_base = f_new < sample.values[0]

    candidates = []
    for t in range(sample.npt):
        if t == best_old and not improves_best:
            continue
        if t == 0 and not improves_base:
            continue
        if abs(lag[t]) < MIN_LAGRANGE_WEIGHT:
            continue
        candidates.append(t)
    if not candidates:
        raise PointRejectedError(
            "candidate point adds no interpolation information; "
            "take a geometry-improvement step instead"
        )

    x_best = x_new if improves_best else sample.points[best_old]
    t_out, best_score = None, -1.0
    for t in candidates:  # ties fall to the largest index
        score = abs(lag[t]) * float(np.sum((sample.points[t] - x_best) ** 2))
        if score >= best_score:
            t_out, best_score = t, score

    if improves_base and t_out != 0:
        # Keep the old base in the vacated slot and center the set on the
        # candidate, which now carries the smallest base-slot value.
        sample.points[t_out] = sample.points[0]
        sample.values[t_out] = sample.values[0]
        sample.points[0] = x_new
        sample.values[0] = f_new
    else:
        sample.points[t_out] = x_new
        sample.values[t_out] = f_new
    sample.touch()
    return sample


def replace_point(sample: SampleSet, row: int, x_new, f_new: float) -> SampleSet:
    """Overwrite sample row ``row`` (never the base) with ``(x_new, f_new)``.

    Used by geometry-repair iterations, which choose the outgoing point
    themselves instead of going through the exchange score and which must not
    move the base: repairs maintain the sample around the current iterate,
    they do not relocate it.  The replacement is refused when the candidate's
    Lagrange weight at the outgoing row is negligible, since that would make
    the set singular.
    """
    if not 1 <= row < sample.npt:
        raise ValueError(f"cannot replace row {row}")
    x_new = as_vector(x_new, n=sample.n, name="x_new")
    existing = sample.find_row(x_new)
    if existing is not None:
        sample.values[existing] = float(f_new)
        sample.touch()
        return sample
    lag = _lagrange_values_at(sample, x_new)
    if abs(lag[row]) < MIN_LAGRANGE_WEIGHT:
        raise PointRejectedError(
            f"candidate cannot replace sample point {row} without degeneracy"
        )
    sample.points[row] = x_new
    sample.values[row] = float(f_new)
    sample.touch()
    return sample


def rebuild_for_index(sample: SampleSet, problem, ledger, new_index: int):
    """Re-evaluate the sample for a new working component and rebuild the model.

    Point locations are kept; only the new component is evaluated, once per
    point (n+1 evaluations).  Swapping to the current index is a no-op and
    costs nothing.
    """
    if new_index == sample.model_index:
        return sample, build_model(sample)
    values = np.empty(sample.npt)
    for j in range(sample.npt):
        values[j] = eval_component(problem, ledger, new_index, sample.points[j])
    sample.values = values
    sample.model_index = new_index
    sample.touch()
    return sample, build_model(sample)


def model_stationarity(model: LinearModel, box) -> float:
    """Projected-gradient stationarity measure ``||P(base - g) - base||``."""
    return float(np.linalg.norm(box.project(model.base - model.g) - model.base))
