"""Seeded construction of the two benchmark instance families, plus file I/O.

Random draws come from splitmix64 so that any implementation of the same
documented recurrence reproduces identical instances bit for bit:

* state advance: ``s = (s + 0x9E3779B97F4A7C15) mod 2^64``, so draw k
  (k = 1, 2, ...) has the closed-form state ``seed + k * 0x9E3779B97F4A7C15``
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

Problem file format (whitespace-separated decimal in UTF-8, one problem per
file)::

    diag n | dense n | rank1 n sigma     header line
    <entries>                             n diagonal entries, n*n matrix
                                          entries row by row, or the n
                                          entries of v
    b
    <n entries>
    c <value>                             optional

``save_problem`` writes a line's numbers a slice at a time and
``load_problem`` reads a line a piece at a time, so beside the arrays each
holds one piece of text and its tokens, however long the lines are.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from enum import Enum
from operator import length_hint

import numpy as np

from .quadratic import DenseOperator, DiagonalOperator, QuadraticProblem, RankOneOperator

__all__ = [
    "InstanceFamily",
    "InstanceSpec",
    "generate",
    "instance_metadata",
    "write_instance_metadata",
    "ProblemFormatError",
    "load_problem",
    "save_problem",
]


def _draws(seed: int, start: int, count: int) -> np.ndarray:
    """Draws start+1 ... start+count of seed's stream as floats in [0, 1), from
    the closed-form states in uint64 arrays, which wrap modulo 2^64."""
    with np.errstate(over="ignore"):
        z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
        z *= np.uint64(0x9E3779B97F4A7C15)
        z += np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF)
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


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
        if not 0.0 < self.b_scale < np.inf:
            raise ValueError("b_scale must be positive and finite")


def generate(spec: InstanceSpec) -> QuadraticProblem:
    """The instance ``spec`` names, drawn as the module docstring defines it."""
    n, seed = spec.n, spec.seed
    if spec.family is InstanceFamily.DIAGONAL_ILL_CONDITIONED:
        diag = np.empty(n)
        diag[0] = _DIAG_FIRST
        diag[-1] = _DIAG_LAST
        diag[1:-1] = _DIAG_LO + np.floor(_draws(seed, 0, n - 2) * (_DIAG_HI - _DIAG_LO + 1))
        b = spec.b_scale * _draws(seed, n - 2, n)
        return QuadraticProblem(DiagonalOperator(diag), b)
    v = _draws(seed, 0, n)
    b = spec.b_scale * _draws(seed, n, n)
    return QuadraticProblem(RankOneOperator(v, _SIGMA), b)


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


# load_problem reads UTF-8 with errors="surrogateescape", so a byte that is
# not valid UTF-8 arrives as the lone surrogate U+DC00 + byte.
_UNDECODED = re.compile("[\udc80-\udcff]")


# load_problem reads a line at most this many characters at a time, and
# save_problem formats this many values at a time, so neither holds more
# than one such piece of a line's text beside the arrays.
_PIECE_CHARS = 65536
_SLICE_VALUES = 16384


class _Cursor:
    """The tokens of a problem file, split one piece of a line at a time.
    ``lineno`` is the line of the next token (at the end of the file, of the
    last one).  A byte that is not valid UTF-8 is found when its piece is
    read, so on a line longer than a piece, a bad token in an earlier piece
    is reported first."""

    def __init__(self, fh):
        self._readline = fh.readline
        self._line = 1  # the line of the next piece
        self._carry = ""  # a token that the last piece may have cut
        self._tokens, self._pos = [], 0
        self.lineno = self.last_line = 1

    def peek(self):
        """The next token, or None at the end of the file."""
        while self._pos >= len(self._tokens):
            piece = self._readline(_PIECE_CHARS)
            if not (piece or self._carry):
                self.lineno = self.last_line
                return None
            self.lineno = self._line
            if not piece.isascii() and (bad := _UNDECODED.search(piece)):
                byte = ord(bad.group()) - 0xDC00
                raise ProblemFormatError(
                    f"line {self.lineno}: byte 0x{byte:02x} is not valid UTF-8"
                )
            tokens = (self._carry + piece).split()
            self._carry = ""
            if piece.endswith("\n"):
                self._line += 1
            elif piece and not piece[-1].isspace():
                # The line goes on in the next piece, maybe inside this token.
                self._carry = tokens.pop()
            self._tokens, self._pos = tokens, 0
        return self._tokens[self._pos]

    def take(self):
        tok = self.peek()
        self._pos += 1
        self.last_line = self.lineno
        return tok

    def floats(self, count, section):
        """The next count tokens as floats, each piece's share converted in
        bulk, in a read-only array that the operators and problem keep."""
        values = np.empty(count)
        done = 0
        while done < count:
            if self.peek() is None:
                raise ProblemFormatError(
                    f"line {self.lineno}: expected {count} entries in the {section} "
                    f"section, found {done}"
                )
            chunk = self._tokens[self._pos:self._pos + count - done]
            k = len(chunk)
            rest = iter(chunk)
            try:
                values[done:done + k] = np.fromiter(map(float, rest), float, k)
            except ValueError:
                # float() stopped at the bad token; rest holds the tokens after it.
                bad = chunk[-1 - length_hint(rest)]
                raise ProblemFormatError(
                    f"line {self.lineno}: expected a number in the {section} section, "
                    f"got {bad!r}"
                ) from None
            done += k
            self._pos += k
            self.last_line = self.lineno
        values.setflags(write=False)
        return values

    def build(self, make, *args):
        # A value the operator or problem rejects fails at its section's last line.
        try:
            return make(*args)
        except ValueError as exc:
            raise ProblemFormatError(f"line {self.last_line}: {exc}") from None


def load_problem(path) -> QuadraticProblem:
    """Parse a problem file in the format documented in the module docstring.

    The file is read as UTF-8.  Every value the operators and
    ``QuadraticProblem`` reject, and every byte that is not valid UTF-8, is
    reported as a ``ProblemFormatError`` with a line number and ``filename``
    set to path.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        try:
            return _parse(_Cursor(fh))
        except ProblemFormatError as exc:
            exc.filename = str(path)
            raise


def _parse(cur: _Cursor) -> QuadraticProblem:
    kind = cur.take()
    if kind is None:
        raise ProblemFormatError("line 1: empty problem file")
    header_line = cur.lineno

    def take_header_number(what, convert):
        tok = cur.peek()
        if tok is None or cur.lineno != header_line:
            raise ProblemFormatError(f"line {header_line}: header is missing {what}")
        try:
            return convert(cur.take())
        except ValueError:
            raise ProblemFormatError(
                f"line {header_line}: bad {what} {tok!r} in header"
            ) from None

    if kind not in ("diag", "dense", "rank1"):
        raise ProblemFormatError(
            f"line {header_line}: unknown header {kind!r}, expected diag, dense or rank1"
        )
    n = take_header_number("problem size", int)
    if n < 1:
        raise ProblemFormatError(f"line {header_line}: problem size must be positive")
    sigma = take_header_number("sigma", float) if kind == "rank1" else None

    if kind == "diag":
        entries = cur.floats(n, "diagonal")
        operator = cur.build(DiagonalOperator, entries)
    elif kind == "dense":
        entries = cur.floats(n * n, "matrix")
        operator = cur.build(DenseOperator, entries.reshape(n, n))
    else:
        entries = cur.floats(n, "v")
        operator = cur.build(RankOneOperator, entries, sigma)

    found = cur.take() or "end of file"
    if found != "b":
        raise ProblemFormatError(f"line {cur.lineno}: expected the b section, found {found!r}")
    b = cur.floats(n, "b")
    problem = cur.build(QuadraticProblem, operator, b)

    if cur.peek() == "c":
        cur.take()
        c = cur.floats(1, "c")[0]
        problem = cur.build(QuadraticProblem, operator, b, c)
    tok = cur.peek()
    if tok is not None:
        raise ProblemFormatError(f"line {cur.lineno}: unexpected trailing token {tok!r}")
    return problem


def _write_line(fh, values: np.ndarray) -> None:
    """Write values as one line of "%.17g" tokens, a slice at a time."""
    for start in range(0, values.size, _SLICE_VALUES):
        if start:
            fh.write(" ")
        fh.write(" ".join(map("{:.17g}".format, values[start:start + _SLICE_VALUES].tolist())))
    fh.write("\n")


def save_problem(problem: QuadraticProblem, path) -> None:
    """Write a problem in the text format that load_problem reads."""
    op = problem.A
    n = problem.dim
    if isinstance(op, DiagonalOperator):
        header, rows = f"diag {n}", [op.diag]
    elif isinstance(op, RankOneOperator):
        header, rows = f"rank1 {n} {op.sigma:.17g}", [op.v]
    elif isinstance(op, DenseOperator):
        header, rows = f"dense {n}", op.matrix
    else:
        raise TypeError(f"unsupported operator type {type(op).__name__}")
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            _write_line(fh, row)
        fh.write("b\n")
        _write_line(fh, problem.b)
        if problem.c != 0.0:
            fh.write(f"c {problem.c:.17g}\n")
