"""Linear interpolation models over a sample set of n+1 points.

The sample set holds n+1 affinely independent feasible points, the first one
being the base point (the solver's current iterate), together with the values
of the working component there.  The determined linear model is obtained by
solving the (n+1)x(n+1) interpolation system with rows ``[1, (y - base)^T]``.
The sample set caches the inverse of that matrix together with its condition
number, the ratio of its extreme singular values.  Column ``j`` of the inverse
holds the coefficients of the affine Lagrange polynomial ``l_j`` (1 at point
``j``, 0 at the others), so ``[1, (x - base)^T] @ inverse`` gives every
``l_j(x)`` at once; the model coefficients, the sample exchange and the
geometry step all read the cache.  The inverse depends on the points only and
comes from a Householder QR factorization made by direct LAPACK calls: at
n <= 12 the factorization itself takes microseconds and the generic scipy
wrappers cost several times more.  It is recomputed from scratch whenever a
point moves; incremental updates are left as future work.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgeqrf, dgesdd, dorgqr, dtrtrs

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
        """Invalidate the cached factorization after a point moved.

        The factorization depends on the points only: writing new values
        (a coincident-point refresh, a change of working component) keeps it.
        """
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
        """Cached ``(inverse, cond)`` of the interpolation matrix.

        ``cond`` is the ratio of the largest to the smallest singular value
        (``inf`` when the smallest is zero).  A matrix with a non-finite
        entry, a condition number beyond ``CONDITION_LIMIT`` or a failed
        LAPACK call raises ``GeometryError``.  The inverse is ``R^-1 Q^T``
        from the QR factorization ``dgeqrf``/``dorgqr``; ``dtrtrs`` reads
        only the upper triangle of the packed factor.
        """
        if self._basis is None:
            m = self.interpolation_matrix()
            if not np.isfinite(m).all():
                raise GeometryError("interpolation system has non-finite entries")
            _, sv, _, info = dgesdd(m, compute_uv=0)
            if info != 0:
                raise GeometryError(f"SVD of the interpolation system failed ({info=})")
            cond = float(sv[0]) / float(sv[-1]) if sv[-1] > 0.0 else math.inf
            if cond > CONDITION_LIMIT:
                raise GeometryError(
                    f"interpolation system is numerically singular (cond={cond:.3e}); "
                    "the sample set needs a geometry-improvement step"
                )
            qr, tau, _, info = dgeqrf(m)
            if info == 0:
                q, _, info = dorgqr(qr, tau)
            if info == 0:
                inv, info = dtrtrs(qr, q.T)
            if info != 0:
                raise GeometryError(f"QR of the interpolation system failed ({info=})")
            self._basis = (inv, cond)
        return self._basis

    def find_row(self, x) -> int | None:
        """Index of the row exactly equal to the vector ``x``, or None."""
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


def _lagrange_values_at(sample: SampleSet, x) -> np.ndarray:
    """All Lagrange values ``l_j(x)``, j = 0..n, at the vector ``x``."""
    inv, _ = sample._factorize()
    row = np.empty(sample.npt)
    row[0] = 1.0
    row[1:] = x - sample.base
    return row @ inv


def promote_to_base(sample: SampleSet, row: int):
    """Swap sample row ``row`` into the base slot."""
    if row == 0:
        return
    sample.points[[0, row]] = sample.points[[row, 0]]
    sample.values[[0, row]] = sample.values[[row, 0]]
    sample.touch()


def exchange_point(sample: SampleSet, x_new, f_new: float) -> int:
    """Insert ``(x_new, f_new)`` into the sample, removing one existing point.

    Every row ``t`` is scored at once as ``|l_t(x_new)| * ||y_t - x_best||^2``,
    where ``x_best`` is the point with the smallest value after insertion, and
    the outgoing row is the last maximum among the admissible rows (older
    points sit at low indices after base swaps).  A row is admissible when its
    Lagrange weight ``|l_t(x_new)|`` reaches ``MIN_LAGRANGE_WEIGHT`` and it is
    not protected: the current best point is, unless the candidate improves on
    it, and so is the base point, unless the candidate improves on the base
    value, in which case the base slot is handed to the candidate and the old
    base is kept where the removed point sat.  With no admissible row the
    candidate is rejected (``PointRejectedError``).

    A candidate coinciding with an existing point refreshes that point's value
    and changes nothing else.  Returns the row where ``x_new`` sits afterwards.
    """
    x_new = as_vector(x_new, n=sample.n, name="x_new")
    f_new = float(f_new)

    row = sample.find_row(x_new)
    if row is not None:
        sample.values[row] = f_new
        return row

    weight = np.abs(_lagrange_values_at(sample, x_new))
    best_old = int(np.argmin(sample.values))
    improves_best = f_new < sample.values[best_old]
    improves_base = f_new < sample.values[0]

    admissible = weight >= MIN_LAGRANGE_WEIGHT
    if not improves_best:
        admissible[best_old] = False
    if not improves_base:
        admissible[0] = False
    if not admissible.any():
        raise PointRejectedError(
            "candidate point adds no interpolation information; "
            "take a geometry-improvement step instead"
        )

    x_best = x_new if improves_best else sample.points[best_old]
    score = weight * np.sum((sample.points - x_best) ** 2, axis=1)
    score[~admissible] = -1.0
    t_out = int(np.flatnonzero(score == score.max())[-1])  # ties: the last row

    if improves_base:
        # Keep the old base in the vacated slot and center the set on the
        # candidate, which now carries the smallest base-slot value.
        sample.points[t_out] = sample.points[0]
        sample.values[t_out] = sample.values[0]
        t_out = 0
    sample.points[t_out] = x_new
    sample.values[t_out] = f_new
    sample.touch()
    return t_out


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
    return sample, build_model(sample)


def model_stationarity(model: LinearModel, box) -> float:
    """Projected-gradient stationarity measure ``||P(base - g) - base||``."""
    step = box.project(model.base - model.g) - model.base
    return math.sqrt(step @ step)
