"""Linear interpolation models over a sample set of n+1 points.

The sample set holds n+1 affinely independent feasible points, the first one
being the base point (the solver's current iterate), together with the values
of the working component there.  The determined linear model is obtained by
solving the (n+1)x(n+1) interpolation system with rows ``[1, (y - base)^T]``.
The sample set caches the inverse of that matrix.  Column ``j`` of the inverse
holds the coefficients of the affine Lagrange polynomial ``l_j`` (1 at point
``j``, 0 at the others), so ``[1, (x - base)^T] @ inverse`` gives every
``l_j(x)`` at once; the model coefficients, the sample exchange and the
geometry step all read the cache.  The inverse depends on the points only and
comes from a Householder QR factorization made by direct calls to three
LAPACK routines: at n <= 12 the factorization itself takes microseconds and
the generic scipy wrappers cost several times more.  The routines come from
scipy's compiled extension ``scipy.linalg._flapack``, which ``_load_flapack``
loads by itself: the package import of ``scipy.linalg`` loads some 300
modules this package never calls and would take most of the time of
``import lovotr``.  The build rejects the system when its Frobenius condition
number ``||M||_F ||M^-1||_F``, read off the inverse, exceeds
``CONDITION_LIMIT``; a non-finite ``||M||_F`` rejects it before the QR.

The sample set owns its points: ``points`` and ``base`` (its row 0) are
read-only views of an array that only ``SampleSet._write_row`` and
``promote_to_base`` write, so a write from anywhere else raises
``ValueError`` rather than leaving a cache stale.  Besides the inverse the
sample keeps the matrix itself, the base's room to the sample's box, the rows
as lists of Python floats (which ``find_row`` compares) and the distances of
rows 1..n from the base.  These four are built with the sample and always
current, and the arrays handed out (``interpolation_matrix()``,
``distances``) are read-only views.  Two rules keep each of them equal to a
fresh build bit for bit:

* a row write updates one matrix row, by the same ``x - base`` subtraction
  as a fresh build, one mirror row and one distance, by the same per-row
  reduction of squares, and drops the inverse;
* a base move (a row-0 write, or a swap into the base slot) recomputes the
  offsets (the matrix's columns ``points - base``), the room and the
  distances by the same operations as a fresh build.

The inverse alone is lazy: it is computed when first read after a write.  A
write sequence can drop it twice before one read (an exchange writes a row,
then promotes it into the base slot), and its build is the one that can
fail: the ``GeometryError`` of a singular system must reach the loop where
it builds the model, not inside a write.

The inverse is recomputed from scratch after every point move.  An
incremental inverse (a rank-one update of the old one) was tried: it changes
the inverse in the last bits, and those bits moved the iteration histories and
cost evaluations (3% more on the QD n=10, r=10 campaign, 21% more on the HS/MW
set), while the factorization it saves is a few microseconds at n <= 12.

The products of this module, of the trust-region and geometry steps and of
the solver loop call ``ndarray.dot`` rather than the ``@`` operator.  Both
reach the same BLAS kernel (``ddot`` or ``dgemv``), but ``@`` dispatches
through the ``matmul`` ufunc first, which at n = 10 costs about as much again
as the product itself.  The two give the same bits except for the sign of a
zero product of two length-1 vectors, which the loop reads alike
(``tests/test_products.py``).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, PointRejectedError
from .problem import _read_only, as_vector, eval_component

# Interpolation systems whose Frobenius condition number exceeds this are
# treated as singular: the caller must repair the geometry before trusting
# the model.
CONDITION_LIMIT = 1e12

# A candidate whose Lagrange weight falls below this adds no information to
# the sample set and cannot safely replace any point.
MIN_LAGRANGE_WEIGHT = 1e-14


def _load_flapack():
    """scipy's LAPACK extension ``scipy.linalg._flapack``, without ``scipy.linalg``.

    Finding scipy's directories does not import scipy.  A copy already in
    ``sys.modules`` is used; a loaded one is registered there, so the process
    holds one copy whichever of ``scipy.linalg`` and this package comes first.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy_spec = importlib.util.find_spec("scipy")
    roots = scipy_spec.submodule_search_locations if scipy_spec else None
    found = importlib.machinery.PathFinder.find_spec(
        "_flapack", [os.path.join(root, "linalg") for root in roots or ()])
    if found is None or found.origin is None:
        raise ImportError("lovotr needs scipy's LAPACK extension "
                          "scipy.linalg._flapack; install scipy>=1.10")
    spec = importlib.util.spec_from_file_location(name, found.origin)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


_flapack = _load_flapack()
dgeqrf, dorgqr, dtrtrs = _flapack.dgeqrf, _flapack.dorgqr, _flapack.dtrtrs


@dataclass
class LinearModel:
    """The committed iterate: ``m(x) = fx + g . (x - base)`` for component ``index``.

    ``fx`` is the sampled value at ``base``, the interpolation condition there.
    """

    index: int
    base: np.ndarray
    fx: float
    g: np.ndarray


class SampleSet:
    """n+1 interpolation points with component values; ``points[0]`` is the base.

    ``points`` and ``base`` are read-only views of the sample's own copy of
    the points, which only the sample's writes change (see the module
    docstring).  ``room``, the distance from the base to the nearest face of
    ``box``, and ``distances``, a read-only view of the distances of rows
    1..n from the base, are current after every write; ``n``, ``npt`` and
    ``box`` are plain attributes.  ``values`` is a plain array, which no
    cache depends on.

    Parameters
    ----------
    points : array, shape (n+1, n)
        Interpolation points, all feasible.
    values : array, shape (n+1,)
        Values of the working component at the points.
    model_index : int
        1-based index of the component the values belong to.
    box : FeasibleBox
        The feasible box the points lie in.
    """

    def __init__(self, points, values, model_index, box):
        # Copies: the caches below follow writes made through this object,
        # so a caller's later change to its own array must not reach them.
        points = self._points = np.array(points, dtype=float)
        self.values = np.array(values, dtype=float)
        if points.ndim != 2 or points.shape[0] != points.shape[1] + 1:
            raise ValueError(f"expected (n+1, n) points, got {points.shape}")
        if self.values.shape != (points.shape[0],):
            raise ValueError("values must have one entry per point")
        self.model_index = int(model_index)
        self.box = box
        self.npt, self.n = points.shape
        self.points = _read_only(points)
        self.base = self.points[0]  # read-only too, and always the current row 0
        self._matrix = np.ones((self.npt, self.npt))  # rows [1, (y - base)^T]
        self._matrix_view = _read_only(self._matrix)
        self._rows = points.tolist()  # the points as lists of Python floats
        self._dist = np.empty(self.npt - 1)
        self.distances = _read_only(self._dist)
        self._base_moved()

    def _base_moved(self):
        """Recompute the offsets, the room and the distances; drop the inverse."""
        np.subtract(self._points, self._points[0], out=self._matrix[:, 1:])
        self.room = _face_distance(self.base, self.box)
        diff = self._matrix[1:, 1:]  # points[1:] - base
        np.sqrt(np.add.reduce(diff * diff, axis=1), out=self._dist)  # norm(diff, axis=1)
        self._basis = None  # the inverse of the matrix

    def _write_row(self, row: int, x, value: float, m_row):
        """Put ``(x, value)`` into row ``row``; ``m_row`` is ``[1, (x - base)^T]``.

        The row lists take the new row.  A non-base row also takes its place
        in the matrix and the distances and drops the inverse; row 0 moves
        the base (``_base_moved``).
        """
        self._points[row] = x
        self.values[row] = value
        self._rows[row] = self._points[row].tolist()
        if row == 0:
            self._base_moved()
            return
        self._basis = None
        self._matrix[row] = m_row
        diff = m_row[1:]  # x - base
        self._dist[row - 1] = math.sqrt(np.add.reduce(diff * diff))

    def interpolation_matrix(self) -> np.ndarray:
        """Rows ``[1, (y - base)^T]``; shifting by the base improves conditioning.

        A read-only view of the sample's own matrix, which every write keeps
        equal to a fresh build.
        """
        return self._matrix_view

    def condition_estimate(self) -> float:
        """Frobenius condition number ``||M||_F ||M^-1||_F`` of the cached inverse.

        It lies between ``cond_2(M)`` and ``(n+1) cond_2(M)``.  Raises
        ``GeometryError`` as the factorization does.
        """
        inv = self._factorize()
        m_sq = _frobenius_sq(self._matrix)
        return math.sqrt(m_sq * _frobenius_sq(inv))

    def _factorize(self) -> np.ndarray:
        """Cached inverse of the interpolation matrix.

        The inverse is ``R^-1 Q^T`` from the QR factorization
        ``dgeqrf``/``dorgqr``; ``dtrtrs`` reads only the upper triangle of the
        packed factor.  Finiteness is read off ``||M||_F^2``, which the
        condition test needs anyway: a NaN or inf entry makes it NaN or inf,
        and only then are the entries checked one by one.  A matrix with a
        non-finite entry or a failed LAPACK call raises ``GeometryError``, and
        so does a singular one: an exact zero pivot of ``R``, finite entries
        whose ``||M||_F^2`` overflows, or a Frobenius condition number
        ``||M||_F ||M^-1||_F`` beyond ``CONDITION_LIMIT`` (or not finite).
        """
        if self._basis is None:
            m = self._matrix
            m_sq = _frobenius_sq(m)
            cond = math.inf
            if m_sq < math.inf:
                qr, tau, _, info = dgeqrf(m)
                if info == 0:
                    q, _, info = dorgqr(qr, tau)
                if info == 0:
                    inv, info = dtrtrs(qr, q.T)
                if info < 0:
                    raise GeometryError(f"QR of the interpolation system failed ({info=})")
                if info == 0:
                    cond = math.sqrt(m_sq * _frobenius_sq(inv))
            elif not np.logical_and.reduce(np.isfinite(m), axis=None):
                raise GeometryError("interpolation system has non-finite entries")
            if not cond <= CONDITION_LIMIT:
                raise GeometryError(
                    f"interpolation system is numerically singular (cond={cond:.3e}); "
                    "the sample set needs a geometry-improvement step"
                )
            self._basis = inv
        return self._basis

    def find_row(self, x) -> int | None:
        """Index of the first row equal to the length-n vector ``x``, or None.

        Entries compare as IEEE floats do: -0.0 equals +0.0 and a NaN equals
        nothing.  The rows are compared as cached lists of Python floats,
        which for n <= 12 is several times faster than an array comparison.
        """
        return self._find(as_vector(x, n=self.n).tolist())

    def _find(self, x: list) -> int | None:
        """``find_row`` for a list of n Python floats, which it does not check."""
        return self._rows.index(x) if x in self._rows else None

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


def _face_distance(base, box) -> float:
    """Distance from ``base`` to the nearest face of the box."""
    return float(np.minimum.reduce(np.minimum(base - box.lower, box.upper - base)))


def _frobenius_sq(a) -> float:
    """Squared Frobenius norm; inf when the sum overflows (numpy then warns)."""
    flat = a.ravel("K")  # a view for C- and Fortran-ordered arrays alike
    return float(flat.dot(flat))


def initial_sample(problem, x0, delta0, ledger, model_index, base_value=None) -> SampleSet:
    """Build the starting sample around ``x0`` with coordinate steps of size ``delta0``.

    The set is ``{x0} u {x0 +/- delta0 e_j : j = 1..n}``: the offset along
    coordinate ``j`` goes up unless that would leave the box, in which case it
    goes down.  Where ``delta0`` fits neither way, the offset shrinks to half
    the box width in that coordinate (with a warning).  The working
    component is evaluated at each new point; ``base_value`` passes in an
    already-known value at ``x0`` so it is not charged twice.  ``x0`` is
    projected onto the box first: this is where outside points enter, and the
    oracles below expect feasible ones.
    """
    x0 = problem.box.project(x0)
    if delta0 <= 0:
        raise ValueError("delta0 must be positive")
    n = problem.n
    lower, upper = problem.box.lower, problem.box.upper
    points = np.tile(x0, (n + 1, 1))
    for j in range(n):
        step = delta0
        if x0[j] + step > upper[j] and x0[j] - step < lower[j]:
            width = upper[j] - lower[j]
            step = 0.5 * width
            warnings.warn(
                f"x0 has less than {delta0} of room on either side in coordinate "
                f"{j} (box width {width}); shrinking the initial offset to {step}",
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
    return SampleSet(points, values, model_index, problem.box)


def build_model(sample: SampleSet) -> LinearModel:
    """Solve the interpolation system and return the determined linear model."""
    inv = sample._factorize()
    coeffs = inv.dot(sample.values)
    return LinearModel(index=sample.model_index, base=sample.base.copy(),
                       fx=float(sample.values[0]), g=coeffs[1:])


def _matrix_row(sample: SampleSet, x) -> np.ndarray:
    """``[1, (x - base)^T]``: the interpolation-matrix row of the vector ``x``."""
    row = np.empty(sample.npt)
    row[0] = 1.0
    row[1:] = x - sample.base
    return row


def _lagrange_values_at(sample: SampleSet, x) -> np.ndarray:
    """All Lagrange values ``l_j(x)``, j = 0..n, at the vector ``x``."""
    inv = sample._factorize()
    return _matrix_row(sample, x).dot(inv)


def promote_to_base(sample: SampleSet, row: int):
    """Swap sample row ``row`` (not 0) into the base slot.

    The row lists swap the same two entries; the base moves
    (``SampleSet._base_moved``).
    """
    points, values, rows = sample._points, sample.values, sample._rows
    points[[0, row]] = points[[row, 0]]
    values[0], values[row] = values[row], values[0]
    rows[0], rows[row] = rows[row], rows[0]
    sample._base_moved()


def exchange_point(sample: SampleSet, x_new, f_new: float) -> int:
    """Insert ``(x_new, f_new)`` into the sample, removing one existing point.

    Every row ``t`` is scored at once as ``|l_t(x_new)| * ||y_t - x_best||^2``,
    where ``x_best`` is the point with the smallest value after insertion, and
    the outgoing row is the last maximum among the admissible rows (older
    points sit at low indices after base swaps).  A row is admissible when its
    Lagrange weight ``|l_t(x_new)|`` reaches ``MIN_LAGRANGE_WEIGHT`` and it is
    not protected: the current best point is, unless the candidate improves on
    it, and so is the base point, unless the candidate improves on the base
    value.  With no admissible row the candidate is rejected
    (``PointRejectedError``).

    The candidate takes the outgoing row, and ``promote_to_base`` then hands
    it the base slot when it improves on the base value: it becomes the
    solver's iterate whatever its reduction ratio.  A candidate coinciding
    with an existing point refreshes that point's value and changes nothing
    else.  Returns the row where ``x_new`` sits afterwards.
    """
    x_new = as_vector(x_new, n=sample.n, name="x_new")
    f_new = float(f_new)

    row = sample._find(x_new.tolist())
    if row is not None:
        sample.values[row] = f_new
        return row

    inv = sample._factorize()
    m_row = _matrix_row(sample, x_new)
    weight = abs(m_row.dot(inv))
    best_old = int(sample.values.argmin())
    improves_best = f_new < sample.values[best_old]
    improves_base = f_new < sample.values[0]

    admissible = weight >= MIN_LAGRANGE_WEIGHT
    if not improves_best:
        admissible[best_old] = False
    if not improves_base:
        admissible[0] = False
    if not np.logical_or.reduce(admissible):
        raise PointRejectedError(
            "candidate point adds no interpolation information; "
            "take a geometry-improvement step instead"
        )

    x_best = x_new if improves_best else sample.points[best_old]
    diff = sample.points - x_best
    score = weight * np.add.reduce(diff * diff, axis=1)
    score[~admissible] = -1.0
    t_out = score.size - 1 - int(score[::-1].argmax())  # ties: the last row

    sample._write_row(t_out, x_new, f_new, m_row)
    if improves_base and t_out != 0:
        promote_to_base(sample, t_out)
    return 0 if improves_base else t_out


def replace_point(sample: SampleSet, row: int, x_new, f_new: float):
    """Overwrite sample row ``row`` (never the base) with ``(x_new, f_new)``.

    Used by geometry-repair iterations, which choose the outgoing point
    themselves instead of going through the exchange score and which must not
    move the base: repairs maintain the sample around the current iterate,
    they do not relocate it.  The replacement is refused when the candidate's
    Lagrange weight at the outgoing row is negligible, since that would make
    the set singular.  A copy of another sample point is refused outright:
    ``l_row`` vanishes there only up to a rounding error of about eps times
    the condition number, which can pass the weight test.  A copy of row
    ``row`` itself (weight 1) is written back with the new value.
    """
    if not 1 <= row < sample.npt:
        raise ValueError(f"cannot replace row {row}")
    x_new = as_vector(x_new, n=sample.n, name="x_new")
    existing = sample._find(x_new.tolist())
    if existing is not None and existing != row:
        raise PointRejectedError(f"candidate repeats sample point {existing}")
    inv = sample._factorize()
    m_row = _matrix_row(sample, x_new)
    if abs(m_row.dot(inv)[row]) < MIN_LAGRANGE_WEIGHT:
        raise PointRejectedError(
            f"candidate cannot replace sample point {row} without degeneracy"
        )
    sample._write_row(row, x_new, float(f_new), m_row)


def rebuild_for_index(sample: SampleSet, problem, ledger, new_index: int,
                      base_value: float) -> LinearModel:
    """Re-evaluate the sample for a new working component and return its model.

    Point locations are kept and ``base_value`` is the new component's value
    at the base, so only the other n points are evaluated (n evaluations).
    """
    values = np.empty(sample.npt)
    values[0] = base_value
    for j in range(1, sample.npt):
        values[j] = eval_component(problem, ledger, new_index, sample.points[j])
    sample.values = values
    sample.model_index = new_index
    return build_model(sample)


def model_stationarity(model: LinearModel, box) -> float:
    """Projected-gradient stationarity measure ``||P(base - g) - base||``."""
    step = box.project(model.base - model.g) - model.base
    return math.sqrt(step.dot(step))
