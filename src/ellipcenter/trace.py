"""The trace of a solve, one CSV row per step: ``_PackedTrace``, the observer
a traced benchmark cell keeps its steps in, and ``write_trace_csv``."""

from __future__ import annotations

import struct
from functools import cache
from itertools import chain, groupby, islice

from .solver import Branch

__all__ = ["write_trace_csv"]


_TRACE_HEADER = "iter,branch,f,grad_norm,t,delta,alpha,beta\r\n"
# Rows as csv.writer wrote them from the cells: comma-separated, CRLF ends,
# no quoting (no cell holds a comma, quote or line break), each float as
# "%.17g" and a None cell blank.  A packed row is one code byte and its
# numbers that are not None, as doubles.  Bits 0-1 of the code are the
# branch's index in _BRANCHES, and bit j + 2 is set when the j-th of f,
# grad_norm, t, delta, alpha and beta is None.  Rows of one code share one
# format, applied to a run of k rows at once as (format * k) % cells.
_BRANCHES = (None, *Branch)
# Rows per packed batch: a trace holds at most this many StepRecords before
# it packs them, and the writer formats at most this many rows at a time,
# so both hold about 100 KB beside the packed numbers.
_BATCH_ROWS = 256


def _code(record) -> int:
    f, norm, branch, *step = record
    blank = sum(4 << j for j, v in enumerate((f, norm, *step)) if v is None)
    return _BRANCHES.index(branch) | blank


@cache
def _layout(code: int):
    # (width, row format) of the rows of one code: the numbers a row stores,
    # and the "%" format of its cells.  A code is one byte, so the cache
    # holds at most 256 entries.
    branch = _BRANCHES[code & 3]
    cells = ["" if code >> (j + 2) & 1 else "%.17g" for j in range(6)]
    row = ",".join(["%d", branch.value if branch else "", *cells]) + "\r\n"
    return cells.count("%.17g"), row


def _pack(records):
    """One batch of StepRecords as ``(codes, values)``: a code byte per row,
    and each row's numbers that are not None as doubles in row order."""
    k = len(records)
    f, norm, branch, *step = zip(*records)
    numbers = (f, norm, *step)
    code = _code(records[0])
    blank = [code >> (j + 2) & 1 for j in range(6)]
    # A batch whose rows all have the first row's code is packed by one
    # struct call, which raises on a None in a present column.  Only the
    # blank columns are counted: None == float costs about 30 ns a compare.
    if branch.count(branch[0]) == k and all(
        column.count(None) == k for column, b in zip(numbers, blank) if b
    ):
        present = [column for column, b in zip(numbers, blank) if not b]
        try:
            values = struct.pack(f"{len(present) * k}d", *chain.from_iterable(zip(*present)))
            return bytes((code,)) * k, values
        except struct.error:
            pass
    values = [v for record in records for v in (*record[:2], *record[3:]) if v is not None]
    return bytes(map(_code, records)), struct.pack(f"{len(values)}d", *values)


class _PackedTrace:
    """An observer that keeps the ``StepRecord`` of each step, packed.

    Each row keeps one code byte, which names its branch and its None
    fields, and its other numbers as doubles: 49 bytes a center step, 25 a
    midpoint step and 17 a baseline step, where a record takes about 190
    (midpoint) to 250 (center).  Steps are packed ``_BATCH_ROWS`` at a
    time.  ``len`` counts the steps seen, and ``write_trace_csv`` formats
    the packed batches as they are.
    """

    def __init__(self):
        self._full = []  # packed (codes, values), _BATCH_ROWS rows each
        self._pending = []  # records not yet packed

    def __len__(self):
        return _BATCH_ROWS * len(self._full) + len(self._pending)

    def __call__(self, x, g, record):
        pending = self._pending
        pending.append(record)
        if len(pending) == _BATCH_ROWS:
            self._full.append(_pack(pending))
            pending.clear()

    def packed(self):
        """The trace's batches in order, the pending records packed last."""
        yield from self._full
        if self._pending:
            yield _pack(self._pending)


def _batches(records):
    # The packed batches of a trace, or of any iterable of StepRecords as it
    # is read.
    if isinstance(records, _PackedTrace):
        yield from records.packed()
        return
    records = iter(records)
    while batch := list(islice(records, _BATCH_ROWS)):
        yield _pack(batch)


def _trace_text(records):
    # The CSV text, one string per run of one code within a batch.
    yield _TRACE_HEADER
    i = 1
    for codes, values in _batches(records):
        values = memoryview(values).cast("d")
        at = 0
        for code, run in groupby(codes):
            k = len(list(run))
            width, row = _layout(code)
            cells = [None] * ((width + 1) * k)
            cells[::width + 1] = range(i, i + k)
            for j in range(width):
                cells[j + 1::width + 1] = values[at + j:at + width * k:width]
            yield (row * k) % tuple(cells)
            at += width * k
            i += k


def write_trace_csv(path, records) -> None:
    """Write ``StepRecord`` rows to CSV, one per update in order.

    Each row reports the state at the start of that iteration; fields a
    record leaves None stay blank.  ``records`` is any iterable of records,
    read and packed 256 at a time, or the packed trace a traced benchmark
    cell keeps, formatted as it is.  Each run of rows with the same branch
    and the same None fields in a batch is formatted with one ``%``, so no
    copy of the whole file is held.
    """
    with open(path, "w", newline="") as fh:
        fh.writelines(_trace_text(records))
