import csv
import math
import os
import tempfile
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from ellipcenter.quadratic import DiagonalOperator, QuadraticProblem

# Property tests draw the same examples on every run, and keep no example
# database, so the suite stays deterministic.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


@contextmanager
def scratch():
    """A new directory for one property example, deleted when it ends: on
    some file systems, rewriting a file moments after its blocks were written
    out stalls for tens of milliseconds, where a new file costs microseconds."""
    with tempfile.TemporaryDirectory() as directory:
        yield Path(directory)


def diag_problem(entries, b=None, c=0.0):
    entries = np.asarray(entries, dtype=float)
    if b is None:
        b = np.zeros(len(entries))
    return QuadraticProblem(DiagonalOperator(entries), b, c)


def bits(value):
    return np.float64(value).tobytes()


class SplitMix64:
    """The documented splitmix64 recurrence, one draw at a time: the oracle
    that the library's closed-form draws are checked against."""

    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self._state = int(seed) & self.MASK

    def next_uint64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & self.MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def next_float(self) -> float:
        return (self.next_uint64() >> 11) * 2.0**-53

    def next_int(self, lo: int, hi: int) -> int:
        if hi < lo:
            raise ValueError(f"empty integer range [{lo}, {hi}]")
        return lo + int(self.next_float() * (hi - lo + 1))

    def floats(self, n: int) -> np.ndarray:
        return np.array([self.next_float() for _ in range(n)])

    def ints(self, lo: int, hi: int, n: int) -> np.ndarray:
        return np.array([self.next_int(lo, hi) for _ in range(n)], dtype=np.int64)


@pytest.fixture
def pipe_file():
    """Put text into a pipe and return the ``/dev/fd`` path that reads it:
    a problem file that is not regular, so it has no size."""
    ends = []

    def make(text):
        read_end, write_end = os.pipe()
        ends.append(read_end)
        os.write(write_end, text.encode())
        os.close(write_end)
        return f"/dev/fd/{read_end}"

    yield make
    for fd in ends:
        os.close(fd)


def splitmix_instance(spec):
    """The operator entries (diagonal or v) and b of a generated instance,
    drawn one at a time in the documented order."""
    rng = SplitMix64(spec.seed)
    if spec.family.value == "diag":
        interior = rng.ints(10, 49900, spec.n - 2).astype(float)
        entries = np.concatenate(([1.0], interior, [50000.0]))
    else:
        entries = rng.floats(spec.n)
    return entries, spec.b_scale * rng.floats(spec.n)


def reference_trace_csv(path, records):
    """The trace CSV as csv.writer writes it from each record's cells: the
    oracle that the library's row formats are checked against."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("iter", "branch", "f", "grad_norm", "t", "delta", "alpha", "beta"))
        for i, rec in enumerate(records, start=1):
            values = (rec.f_value, rec.grad_norm, rec.t, rec.delta, rec.alpha, rec.beta)
            cells = ["" if v is None else f"{v:.17g}" for v in values]
            writer.writerow([i, rec.branch.value if rec.branch else "", *cells])


def reference_save_problem(problem, path):
    """The problem file as one string of whole joined lines, written at once:
    the oracle that the library's sliced writer is checked against."""

    def joined(values):
        return " ".join(map("{:.17g}".format, values.tolist()))

    op = problem.A
    if hasattr(op, "diag"):
        lines = [f"diag {problem.dim}", joined(op.diag)]
    elif hasattr(op, "v"):
        lines = [f"rank1 {problem.dim} {op.sigma:.17g}", joined(op.v)]
    else:
        lines = [f"dense {problem.dim}", *map(joined, op.matrix)]
    lines += ["b", joined(problem.b)]
    if problem.c != 0.0:
        lines.append(f"c {problem.c:.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# The reference search's constants, written out apart from the library's:
# extrapolation factor, sufficient-decrease and curvature constants, trials.
WOLFE_A, WOLFE_M1, WOLFE_M2, WOLFE_MAX_TRIALS = 2.0, 1e-4, 0.9, 100


def reference_wolfe_search(oracle, x, d):
    """The Wolfe search as it was before the line model, with a gradient at
    every trial point: the oracle that the library's one-matvec search is
    checked against.  ``oracle(x)`` returns ``(value, gradient)``."""
    x = np.asarray(x, dtype=float)
    d = np.asarray(d, dtype=float)
    f0, g0 = oracle(x)
    slope0 = float(d @ g0)
    if slope0 >= 0.0:
        raise ValueError(f"d is not a descent direction (directional slope {slope0:g})")
    t, t_left, t_right = 1.0, 0.0, math.inf
    best = None
    for _ in range(WOLFE_MAX_TRIALS):
        ft, gt = oracle(x + t * d)
        slope_t = float(d @ gt)
        if ft <= f0 + WOLFE_M1 * t * slope0:
            if slope_t >= WOLFE_M2 * slope0:
                return t
            t_left = t
            best = t
        else:
            t_right = t
        t = WOLFE_A * t if math.isinf(t_right) else 0.5 * (t_left + t_right)
    warnings.warn(
        f"Wolfe search did not satisfy the curvature condition within "
        f"{WOLFE_MAX_TRIALS} trials; returning the best sufficient-decrease step",
        RuntimeWarning,
        stacklevel=2,
    )
    return best if best is not None else t


def reference_line_oracle(problem, x, g_x):
    """The anchored oracle of ``reference_wolfe_search`` from x: it returns
    f(z) - f(x) = 1/2 (z - x)^T (g(z) + g(x)) at one matvec a trial, and
    answers x itself from the gradient in hand."""

    def oracle(z):
        if z is x:
            return 0.0, g_x
        g = problem.gradient(z)
        return 0.5 * float((z - x) @ (g + g_x)), g

    return oracle


class Steps(list):
    """An observer for ``SolveOptions(observer=...)`` that keeps each step's
    ``(x, g, record)``; ``xs`` and ``records`` read one field."""

    def __call__(self, x, g, record):
        self.append((x, g, record))

    @property
    def xs(self):
        return [x for x, _, _ in self]

    @property
    def records(self):
        return [record for _, _, record in self]


class CountingOperator:
    """Delegates to an operator and counts its matvecs."""

    def __init__(self, op):
        self.op = op
        self.calls = 0

    @property
    def dim(self):
        return self.op.dim

    def matvec(self, v):
        self.calls += 1
        return self.op.matvec(v)

    def eigen_bounds(self):
        return self.op.eigen_bounds()


class IndefiniteOperator:
    """The symmetric indefinite diag(d), which no library operator accepts.

    It reaches the solvers' own checks on the energy norm and cg's breakdown.
    """

    def __init__(self, diag):
        self.diag = np.asarray(diag, dtype=float)

    @property
    def dim(self):
        return self.diag.shape[0]

    def matvec(self, v):
        return self.diag * v


# The most n-vectors a solve holds at once, x1 not counted, at n = 2*10^5
# over at most 60 steps from x1 = 0, on the diag and rank-one ("dense")
# families.  Beside its inputs a step makes only the arrays it hands out
# and the matvec outputs; me made 9 / 7, grad 7 / 7 and bb 6 / 6 while
# their steps made scratch vectors as well.
LIVE_VECTORS = {"me": (7, 5), "grad": (5, 5), "bb-long": (5, 5), "bb-short": (5, 5),
                "cg": (7, 6), "fast": (7, 7)}
LIVE_N = 200_000


ACCEPTANCE_LINES = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
