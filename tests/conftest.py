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


ACCEPTANCE_LINES = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
