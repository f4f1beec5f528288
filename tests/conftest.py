import numpy as np
from hypothesis import settings

# Property tests draw the same examples on every run, and keep no example
# database, so the suite stays deterministic.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


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


ACCEPTANCE_LINES = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
