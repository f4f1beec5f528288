"""Strongly convex quadratic objectives over three SPD operator representations.

The objective is f(w) = 1/2 w^T A w - b^T w + c with A symmetric positive
definite.  A is stored in one of three forms so that matrix-vector products
stay O(n) where the structure allows it and extreme eigenvalues are exact
for every form:

* ``DiagonalOperator`` holds the diagonal of a diagonal matrix,
* ``RankOneOperator`` represents v v^T + sigma I without materializing it,
* ``DenseOperator`` wraps an explicit symmetric matrix, checked positive
  definite once at construction.

All operators and problems are immutable after construction; every operation
here is a pure function, safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "EigenBounds",
    "DiagonalOperator",
    "RankOneOperator",
    "DenseOperator",
    "QuadraticProblem",
]


def _as_vector(v, n=None, name="vector"):
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if n is not None and arr.shape[0] != n:
        raise ValueError(f"{name} has length {arr.shape[0]}, expected {n}")
    return arr


# numpy's bundled OpenBLAS splits a 1-D dot of more than this many elements
# between threads, and the rounding of the sum then depends on the thread
# count.  At this length and below, its ddot runs on one thread.
_BLAS_DOT_MAX = 10_000


def _dot(a, b):
    """The 1-D dot product a.b, with the same bits for any thread count.

    Up to ``_BLAS_DOT_MAX`` elements it is ``a.dot(b)``, the BLAS ddot with
    less dispatch around it than ``a @ b`` (0.8 against 1.3 us at n = 64).
    Longer dots run as einsum's serial loop in a fixed order: 0.76-0.88 ms
    at n = 10^6, where the ddot takes 0.78-0.80 ms on one thread and 0.37-0.38
    ms on two (min of 7 x 20 calls, 2-core Xeon).
    ``np.vecdot`` and einsum with ``optimize=True`` may call BLAS instead.
    """
    if len(a) <= _BLAS_DOT_MAX:
        return a.dot(b)
    return np.einsum("i,i->", a, b)


def _readonly(arr):
    # The array an operator or problem keeps.  An owned, read-only float64
    # array is kept as it is, shared with its maker, who must not make it
    # writable again (load_problem hands its parsed arrays over so); anything
    # else is copied, so the caller's array stays the caller's.
    if arr.dtype == np.float64 and arr.flags.owndata and not arr.flags.writeable:
        return arr
    arr = np.array(arr, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class EigenBounds:
    """Extreme eigenvalues of an SPD operator."""

    lambda_min: float
    lambda_max: float

    @property
    def condition_number(self) -> float:
        return self.lambda_max / self.lambda_min


class DiagonalOperator:
    """SPD operator stored as the diagonal of a diagonal matrix."""

    def __init__(self, diag):
        d = _as_vector(diag, name="diag")
        if d.size < 1:
            raise ValueError("diagonal must have at least one entry")
        if not np.all(np.isfinite(d)) or not np.all(d > 0.0):
            raise ValueError("diagonal entries must be finite and strictly positive")
        self.diag = _readonly(d)

    @property
    def dim(self) -> int:
        return self.diag.shape[0]

    def matvec(self, v):
        v = _as_vector(v, self.dim)
        return self.diag * v

    def solve(self, v):
        """Apply the exact inverse (elementwise division)."""
        v = _as_vector(v, self.dim)
        return v / self.diag

    def eigen_bounds(self) -> EigenBounds:
        return EigenBounds(float(self.diag.min()), float(self.diag.max()))

    def dense(self):
        return np.diag(self.diag)


class RankOneOperator:
    """The SPD operator v v^T + sigma I, applied in O(n) without materialization."""

    def __init__(self, v, sigma):
        vv = _as_vector(v, name="v")
        if vv.size < 1:
            raise ValueError("v must have at least one entry")
        sigma = float(sigma)
        if not np.isfinite(sigma) or sigma <= 0.0:
            raise ValueError("sigma must be finite and strictly positive")
        if not np.all(np.isfinite(vv)):
            raise ValueError("v must be finite")
        self.v = _readonly(vv)
        self.sigma = sigma
        self._v_sq = float(_dot(vv, vv))

    @property
    def dim(self) -> int:
        return self.v.shape[0]

    def matvec(self, x):
        x = _as_vector(x, self.dim)
        # (v.x) v + sigma x with one fresh n-vector fewer; the same bits.
        out = np.multiply(self.v, _dot(self.v, x))
        out += np.multiply(x, self.sigma)
        return out

    def solve(self, x):
        """Apply the exact inverse via the Sherman-Morrison identity."""
        x = _as_vector(x, self.dim)
        coeff = _dot(self.v, x) / (self.sigma * (self.sigma + self._v_sq))
        return x / self.sigma - coeff * self.v

    def eigen_bounds(self) -> EigenBounds:
        top = self.sigma + self._v_sq
        # In one dimension the operator is the scalar sigma + v^2.
        low = self.sigma if self.dim > 1 else top
        return EigenBounds(float(low), float(top))

    def dense(self):
        return np.outer(self.v, self.v) + self.sigma * np.eye(self.dim)


class DenseOperator:
    """SPD operator stored as an explicit symmetric matrix.

    Construction computes every eigenvalue once with ``np.linalg.eigvalsh``,
    an O(n^3) cost (construction measured 0.24 ms at n = 40, 15 ms at n = 400
    and 0.83 s at n = 2000 on a 2-core Xeon), and rejects a matrix that is
    not positive definite.  The extreme eigenvalues are kept as exact bounds.
    """

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"matrix must be square, got shape {m.shape}")
        if m.shape[0] < 1:
            raise ValueError("matrix must have at least one row")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix entries must be finite")
        if not np.allclose(m, m.T, rtol=1e-10, atol=0.0):
            raise ValueError("matrix must be symmetric")
        w = np.linalg.eigvalsh(m)
        if w[0] <= 0.0:
            raise ValueError(
                f"matrix must be positive definite, smallest eigenvalue is {float(w[0])!r}"
            )
        self.matrix = _readonly(m)
        self._bounds = EigenBounds(float(w[0]), float(w[-1]))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def matvec(self, v):
        v = _as_vector(v, self.dim)
        return self.matrix @ v

    def eigen_bounds(self) -> EigenBounds:
        return self._bounds

    def dense(self):
        return np.array(self.matrix)


@dataclass(frozen=True)
class QuadraticProblem:
    """The objective f(w) = 1/2 w^T A w - b^T w + c with SPD operator A.

    Its unique minimizer solves A w = b.
    """

    A: DiagonalOperator | RankOneOperator | DenseOperator
    b: np.ndarray
    c: float = 0.0

    def __post_init__(self):
        b = _as_vector(self.b, self.A.dim, name="b")
        bad = np.flatnonzero(~np.isfinite(b))
        if bad.size:
            raise ValueError(f"b must be finite, entry {bad[0]} is {float(b[bad[0]])!r}")
        c = float(self.c)
        if not np.isfinite(c):
            raise ValueError(f"c must be finite, got {c!r}")
        object.__setattr__(self, "b", _readonly(b))
        object.__setattr__(self, "c", c)

    @property
    def dim(self) -> int:
        return self.A.dim

    def value(self, x) -> float:
        x = _as_vector(x, self.dim)
        return float(0.5 * _dot(x, self.A.matvec(x)) - _dot(self.b, x) + self.c)

    def gradient(self, x):
        """The derivative A x - b."""
        x = _as_vector(x, self.dim)
        return self.A.matvec(x) - self.b

    def a_inner(self, u, v) -> float:
        """The scalar product u^T A v of the energy norm."""
        u = _as_vector(u, self.dim, name="u")
        return float(_dot(u, self.A.matvec(v)))
