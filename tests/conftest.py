import numpy as np
from hypothesis import settings

# Property tests draw the same examples on every run, and keep no example
# database, so the suite stays deterministic.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


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
