"""Seeded construction of the two benchmark instance families, plus file I/O.

Random draws come from splitmix64 so that any implementation of the same
documented recurrence reproduces identical instances bit for bit:

* state advance: ``s = (s + 0x9E3779B97F4A7C15) mod 2^64``
* output mix:    ``z = s``; ``z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9``;
  ``z = (z ^ (z >> 27)) * 0x94D049BB133111EB``; ``z = z ^ (z >> 31)``
  (all mod 2^64)
* float in [0, 1): ``(z >> 11) * 2**-53``
* integer on [lo, hi]: ``lo + floor(float * (hi - lo + 1))``

Instance families:

* ``DIAGONAL_ILL_CONDITIONED``: diagonal matrix with first entry 1, last
  entry 50000 (condition number 50000 for every n >= 2) and interior entries
  drawn as uniform integers on [10, 49900].  Draw order: the n-2 interior
  entries, then the n entries of b.
* ``DENSE_RANK_ONE``: v v^T + 10 I with the entries of v uniform on [0, 1].
  Draw order: the n entries of v, then the n entries of b.

The right-hand side b has entries uniform on [0, b_scale] in both families
(b_scale defaults to 1000; the source experiments never state how b was
produced, so it is a knob here).

Problem file format (whitespace-separated decimal, one problem per file)::

    diag n | dense n | rank1 n sigma     header line
    <entries>                             n diagonal entries, n*n matrix
                                          entries row by row, or the n
                                          entries of v
    b
    <n entries>
    c <value>                             optional
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .quadratic import (
    DenseOperator,
    DiagonalOperator,
    QuadraticProblem,
    RankOneOperator,
)

__all__ = [
    "SplitMix64",
    "InstanceFamily",
    "InstanceSpec",
    "gen_diagonal",
    "gen_dense_rank_one",
    "generate",
    "instance_metadata",
    "write_instance_metadata",
    "ProblemFormatError",
    "load_problem",
    "save_problem",
]

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """Deterministic 64-bit generator implementing the recurrence above."""

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
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


class InstanceFamily(Enum):
    DIAGONAL_ILL_CONDITIONED = "diag"
    DENSE_RANK_ONE = "dense"


# The two families as the module docstring defines them.
_DIAG_FIRST = 1.0
_DIAG_LAST = 50000.0
_DIAG_LO = 10
_DIAG_HI = 49900
_SIGMA = 10.0


@dataclass(frozen=True)
class InstanceSpec:
    """Recipe for one generated instance: the family fixes the operator's
    distribution, ``b_scale`` the range of b."""

    family: InstanceFamily
    n: int
    seed: int
    b_scale: float = 1000.0

    def __post_init__(self):
        if self.family is InstanceFamily.DIAGONAL_ILL_CONDITIONED and self.n < 2:
            raise ValueError("diagonal family needs n >= 2 for the first and last entries")
        if self.n < 1:
            raise ValueError("n must be positive")
        if not self.b_scale > 0.0:
            raise ValueError("b_scale must be positive")


def gen_diagonal(spec: InstanceSpec) -> QuadraticProblem:
    """Diagonal instance: fixed extreme entries, integer interior, random b."""
    if spec.family is not InstanceFamily.DIAGONAL_ILL_CONDITIONED:
        raise ValueError(f"spec family is {spec.family}, expected DIAGONAL_ILL_CONDITIONED")
    rng = SplitMix64(spec.seed)
    diag = np.empty(spec.n)
    diag[0] = _DIAG_FIRST
    diag[-1] = _DIAG_LAST
    diag[1:-1] = rng.ints(_DIAG_LO, _DIAG_HI, spec.n - 2).astype(float)
    b = spec.b_scale * rng.floats(spec.n)
    return QuadraticProblem(DiagonalOperator(diag), b)


def gen_dense_rank_one(spec: InstanceSpec) -> QuadraticProblem:
    """Rank-one-plus-scaled-identity instance with uniform v and random b."""
    if spec.family is not InstanceFamily.DENSE_RANK_ONE:
        raise ValueError(f"spec family is {spec.family}, expected DENSE_RANK_ONE")
    rng = SplitMix64(spec.seed)
    v = rng.floats(spec.n)
    b = spec.b_scale * rng.floats(spec.n)
    return QuadraticProblem(RankOneOperator(v, _SIGMA), b)


def generate(spec: InstanceSpec) -> QuadraticProblem:
    if spec.family is InstanceFamily.DIAGONAL_ILL_CONDITIONED:
        return gen_diagonal(spec)
    return gen_dense_rank_one(spec)


def instance_metadata(spec: InstanceSpec | None, problem: QuadraticProblem) -> dict:
    """Metadata of one instance; ``spec`` None means a problem loaded from a file."""
    return {
        "family": spec.family.value if spec else "file",
        "n": problem.dim,
        "seed": spec.seed if spec else None,
        "condition_number": problem.A.eigen_bounds().condition_number,
        "b_scale": spec.b_scale if spec else None,
    }


def write_instance_metadata(path, records) -> None:
    """Write one JSON object per line for each instance metadata dict."""
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


class ProblemFormatError(ValueError):
    """Malformed problem file; the message carries the offending line number
    and ``filename`` names the file."""

    filename = None


def _tokenize(lines):
    tokens = []
    for lineno, line in enumerate(lines, start=1):
        for tok in line.split():
            tokens.append((tok, lineno))
    return tokens


def _take_floats(tokens, pos, count, section, last_line):
    values = np.empty(count)
    for i in range(count):
        if pos >= len(tokens):
            raise ProblemFormatError(
                f"line {last_line}: expected {count} entries in the {section} "
                f"section, found {i}"
            )
        tok, lineno = tokens[pos]
        try:
            values[i] = float(tok)
        except ValueError:
            raise ProblemFormatError(
                f"line {lineno}: expected a number in the {section} section, "
                f"got {tok!r}"
            ) from None
        pos += 1
        last_line = lineno
    return values, pos, last_line


def _checked(lineno, build, *args):
    # A value the operator or problem rejects is a format error at the last
    # line of the section it came from.
    try:
        return build(*args)
    except ValueError as exc:
        raise ProblemFormatError(f"line {lineno}: {exc}") from None


def load_problem(path) -> QuadraticProblem:
    """Parse a problem file in the format documented in the module docstring.

    Every value the operators and ``QuadraticProblem`` reject is reported as
    a ``ProblemFormatError`` with a line number and ``filename`` set to path.
    """
    with open(path) as fh:
        tokens = _tokenize(fh)
    try:
        return _parse(tokens)
    except ProblemFormatError as exc:
        exc.filename = str(path)
        raise


def _parse(tokens) -> QuadraticProblem:
    if not tokens:
        raise ProblemFormatError("line 1: empty problem file")

    kind, header_line = tokens[0]
    pos = 1

    def take_header_number(what, convert):
        nonlocal pos
        if pos >= len(tokens) or tokens[pos][1] != header_line:
            raise ProblemFormatError(f"line {header_line}: header is missing {what}")
        tok, _ = tokens[pos]
        try:
            value = convert(tok)
        except ValueError:
            raise ProblemFormatError(
                f"line {header_line}: bad {what} {tok!r} in header"
            ) from None
        pos += 1
        return value

    if kind not in ("diag", "dense", "rank1"):
        raise ProblemFormatError(
            f"line {header_line}: unknown header {kind!r}, expected diag, dense or rank1"
        )
    n = take_header_number("problem size", int)
    if n < 1:
        raise ProblemFormatError(f"line {header_line}: problem size must be positive")
    sigma = take_header_number("sigma", float) if kind == "rank1" else None

    last_line = header_line
    if kind == "diag":
        entries, pos, last_line = _take_floats(tokens, pos, n, "diagonal", last_line)
        operator = _checked(last_line, DiagonalOperator, entries)
    elif kind == "dense":
        entries, pos, last_line = _take_floats(tokens, pos, n * n, "matrix", last_line)
        operator = _checked(last_line, DenseOperator, entries.reshape(n, n))
    else:
        entries, pos, last_line = _take_floats(tokens, pos, n, "v", last_line)
        operator = _checked(last_line, RankOneOperator, entries, sigma)

    if pos >= len(tokens) or tokens[pos][0] != "b":
        found = tokens[pos][0] if pos < len(tokens) else "end of file"
        lineno = tokens[pos][1] if pos < len(tokens) else last_line
        raise ProblemFormatError(f"line {lineno}: expected the b section, found {found!r}")
    last_line = tokens[pos][1]
    pos += 1
    b, pos, last_line = _take_floats(tokens, pos, n, "b", last_line)
    problem = _checked(last_line, QuadraticProblem, operator, b)

    if pos < len(tokens) and tokens[pos][0] == "c":
        last_line = tokens[pos][1]
        pos += 1
        values, pos, last_line = _take_floats(tokens, pos, 1, "c", last_line)
        problem = _checked(last_line, QuadraticProblem, operator, b, values[0])
    if pos != len(tokens):
        tok, lineno = tokens[pos]
        raise ProblemFormatError(f"line {lineno}: unexpected trailing token {tok!r}")
    return problem


def save_problem(problem: QuadraticProblem, path) -> None:
    """Write a problem in the text format that load_problem reads."""
    op = problem.A
    n = problem.dim
    lines = []
    if isinstance(op, DiagonalOperator):
        lines.append(f"diag {n}")
        lines.append(" ".join(f"{v:.17g}" for v in op.diag))
    elif isinstance(op, RankOneOperator):
        lines.append(f"rank1 {n} {op.sigma:.17g}")
        lines.append(" ".join(f"{v:.17g}" for v in op.v))
    elif isinstance(op, DenseOperator):
        lines.append(f"dense {n}")
        for row in op.matrix:
            lines.append(" ".join(f"{v:.17g}" for v in row))
    else:
        raise TypeError(f"unsupported operator type {type(op).__name__}")
    lines.append("b")
    lines.append(" ".join(f"{v:.17g}" for v in problem.b))
    if problem.c != 0.0:
        lines.append(f"c {problem.c:.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
