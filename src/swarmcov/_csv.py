"""The CSV table format every artifact uses, in one place.

A table is a header line of column names, then one line per row of
comma-separated cells: floats as ``%.17g``, which round-trips every double,
and ints as ``%d``.  Writing and reading it again gives the same bits.
"""

from __future__ import annotations

import numpy as np

_CHUNK_ROWS = 8192  # rows formatted by one % operation: bounds the cells held at once


def write_csv(path, header: str, row_format: str, *columns) -> None:
    """Write ``header``, then ``row_format % row`` for each row of the columns.

    ``columns`` are equal-length 1D sequences, one per ``%`` field of
    ``row_format``.
    """
    columns = [np.asarray(c) for c in columns]
    width, n_rows = len(columns), len(columns[0])
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for lo in range(0, n_rows, _CHUNK_ROWS):
            hi = min(lo + _CHUNK_ROWS, n_rows)
            cells = [None] * (width * (hi - lo))
            for j, col in enumerate(columns):
                cells[j::width] = col[lo:hi].tolist()
            fh.write(((row_format + "\n") * (hi - lo)) % tuple(cells))


def read_csv(path, *headers: str) -> np.ndarray:
    """The rows of a table as a structured array, named by its header.

    Raises ValueError unless the header is one of ``headers``.
    """
    raw = np.atleast_1d(np.genfromtxt(path, delimiter=",", names=True))
    if ",".join(raw.dtype.names or ()) not in headers:
        raise ValueError(f"expected header {' or '.join(headers)}")
    return raw


def centers_to_axis(centers: np.ndarray) -> tuple[float, float, int]:
    """(lo, hi, n) of the uniform axis whose cell centers a table lists."""
    centers = np.unique(centers)
    if len(centers) < 1:
        raise ValueError("no cells in file")
    h = centers[1] - centers[0] if len(centers) > 1 else 1.0
    if not np.allclose(np.diff(centers), h, rtol=1e-9, atol=1e-12):
        raise ValueError("cell centers must be uniformly spaced")
    return float(centers[0] - h / 2), float(centers[-1] + h / 2), len(centers)
