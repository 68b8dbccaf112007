"""The iteration loop forms its products with ``ndarray.dot``, never ``@``.

``a @ b`` dispatches through the ``matmul`` ufunc; ``a.dot(b)`` goes straight
to the same BLAS kernel (``ddot`` for two vectors, ``dgemv`` for a matrix and
a vector) at about half the call cost.  The histories are bit for bit only
while the two give equal bits on every shape and layout the loop uses, which
the property tests below check; the syntax test keeps ``@`` out of the loop.

They split in one place: two length-1 vectors whose product is -0.0 (an exact
zero times a negative entry, or an underflow).  ``dot`` returns that product,
``@`` adds it to +0.0 and returns +0.0.  At n = 1 the loop meets such a
product only outside the squares (which are never -0.0), in ``g.dot(d)``,
``d.dot(v)`` and ``w.dot(...)``, whose results enter ``predicted <= 0.0``,
``-b + sqrt(disc)`` and ``abs(c + ...)``: each maps both zeros alike.
"""

import ast
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import lovotr
from lovotr.errors import GeometryError
from lovotr.model import SampleSet
from lovotr.problem import FeasibleBox

LOOP_MODULES = ("model.py", "solver.py", "subproblem.py")


def test_loop_modules_use_no_matmul_operator():
    src = Path(lovotr.__file__).parent
    found = []
    for name in LOOP_MODULES:
        tree = ast.parse((src / name).read_text(), filename=name)
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, (ast.BinOp, ast.AugAssign))
                  and isinstance(node.op, ast.MatMult)]
    assert not found, (
        f"`@` in the iteration loop at {', '.join(found)}: write `a.dot(b)`.  "
        "`@` dispatches through the matmul ufunc to the same BLAS kernel; timeit "
        "on numpy 2.4.6 (x86-64, one BLAS thread) read 0.76 us against 0.40 us "
        "for a 10-vector dot and 0.83 us against 0.42 us for an 11x11 "
        "matrix-vector product, and a qd-r10 pass makes 213,644 of them"
    )


def scaled(rng, shape, scale):
    """Normal entries times ``2**k``, with ``k`` set by ``scale``."""
    low, high = {"unit": (0, 1), "huge": (500, 1020), "tiny": (-1074, -1000),
                 "mixed": (-1074, 1020)}[scale]
    return np.ldexp(rng.normal(size=shape), rng.integers(low, high, size=shape))


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def dot_is_matmul(x, y):
    """``x.dot(y)`` has the bits of ``x @ y``, up to the one split of length 1."""
    dot, mm = x.dot(y), x @ y
    if x.ndim == y.ndim == 1 and x.size == 1 and dot == 0.0:
        return same_bits(mm, 0.0) and same_bits(dot, x[0] * y[0])
    return same_bits(dot, mm)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from(["unit", "huge", "tiny", "mixed"]))
def test_dot_equals_matmul_on_the_loop_layouts(n, seed, scale):
    rng = np.random.default_rng(seed)
    sample = SampleSet(rng.uniform(-1, 1, (n + 1, n)), rng.normal(size=n + 1), 1,
                       FeasibleBox(np.full(n, -1.0), np.full(n, 1.0)))
    try:
        inv = sample._factorize()
    except GeometryError:
        inv = np.asfortranarray(rng.normal(size=(n + 1, n + 1)))
    assert inv.flags.f_contiguous  # as dtrtrs returns it
    # the same layout with entries whose products overflow or are subnormal
    big = np.asfortranarray(inv * scaled(rng, inv.shape, scale))
    rows = sample.interpolation_matrix()  # C-ordered
    v = scaled(rng, n + 1, scale)
    u = scaled(rng, n, scale)
    with np.errstate(over="ignore", invalid="ignore"):
        for m in (inv, big, np.ascontiguousarray(big)):
            assert same_bits(m.dot(v), m @ v)
            assert same_bits(v.dot(m), v @ m)
            for j in range(n + 1):
                w = m[1:, j]  # a column slice: contiguous in F order, strided in C
                assert same_bits(w.dot(w), w @ w)
                assert dot_is_matmul(w, u)
                assert same_bits(rows[j].dot(m), rows[j] @ m)
            flat = m.ravel("K")
            assert same_bits(flat.dot(flat), flat @ flat)
        for row in rows:
            assert same_bits(row.dot(v), row @ v)


finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    hnp.arrays(np.float64, n, elements=finite),
    hnp.arrays(np.float64, n, elements=finite))))
@example((np.full(2, 1e300), np.array([1e300, -1e-300])))  # overflow to inf
@example((np.array([5e-324, 1e-310, 0.0]), np.array([-1e-310, 3.0, -0.0])))  # subnormals
@example((np.array([0.0]), np.array([-1.0])))  # the split: -0.0 against +0.0
def test_dot_equals_matmul_on_vector_pairs(pair):
    # hypothesis draws subnormals, zeros of both signs and entries whose
    # products overflow to inf
    a, b = pair
    with np.errstate(over="ignore", invalid="ignore"):
        for x, y in ((a, b), (a, a), (b, -b)):
            assert dot_is_matmul(x, y)
