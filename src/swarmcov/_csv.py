"""The CSV table format every artifact uses, in one place.

A table is a header line of column names, then one line per row of
comma-separated cells: floats as ``%.17g``, which round-trips every double,
and ints as ``%d``.  Writing and reading it again gives the same bits.

Tables whose cells are all ``%.17g`` floats and ``%d`` ints are formatted in
numpy, a chunk of rows at a time, to the bytes Python's ``%`` prints.  A
float x with 1e-10 <= |x| < 1e16 is scaled by 10**q, q = 16 - floor(log10|x|),
as the double-double p + r: p = fl(|x| * hi) and r its error, found exactly
by Dekker's two-product, plus |x| * lo, where hi + lo = 10**q exactly.
The integer part F of p + r fixes the exponent (F must have 17 digits, or the
exponent moves by one and the product is taken again) and rounding the
fraction gives the 17 significant digits.  r is off by less than 1e-14, so
only a fraction within 1e-9 of 1/2 could round the wrong way: those cells,
the non-finite ones and those outside the range are printed by ``%``, as are
tables with a ``%s`` field.  A chunk whose floats share one exponent takes
one power of ten, broadcast.

Each cell has a slot of fixed columns for every character its text may need:
"-0.000", the 17 digits with a "." after each but the last, "e-XX" and the
separator for a float (44 bytes); "-", 20 digits and the separator for an int
(22).  A chunk keeps only the slot columns that some cell of it prints: the
sign only if a cell is negative, the "0.000" lead only for exponents -4..-1,
the digits and dots its cells reach, "e-XX" only for exponents below -4, and
as many int digits as its widest cell.  A chunk with a cell left to ``%``
keeps the whole slot, and that cell's text is written down its own column.
The chunk is built slot-major: one (width x rows) byte matrix, one
contiguous row per kept column, holding the byte each cell prints there or
NUL where it prints nothing, so each column is one 1D operation.  Digits come
four at a time from a lookup table of 0000..9999 in blocks that differ in
which zeros are NUL: a float's 16 digits after the first from one lookup of
its four groups, trailing zeros NUL where no nonzero digit follows, turned
into 16 rows by one transpose, with the zeros up to the units digit set back
by one mask; an int's with its leading zeros NUL.  The sign, the lead, each
dot and "e-XX" are each one masked row.  No character a cell prints is NUL,
so one transpose to row-major and dropping the NUL bytes join the chunk.

``read_csv`` reads the header line itself, as np.genfromtxt(names=True)
reads one (a leading "#" and the spaces around names are allowed), skips
the lines genfromtxt skips (blank but for spaces and a "#" comment), and
parses the rows with np.loadtxt's C parser, which rounds each cell to the
nearest double, so a table written and read again keeps its bits.  A row
with an empty or non-numeric cell raises ValueError, as one with a missing
or extra cell does; the message names the row's line in the file.
"""

from __future__ import annotations

import re

import numpy as np

_CHUNK_ROWS = 8192  # rows formatted at once: bounds the cells held at once

_G, _D = "%.17g", "%d"
_E16, _E17 = 10**16, 10**17
_TIE = 1e-9  # a scaled fraction this close to 1/2 is left to %

# 10**q = _P_HI[q] + _P_LO[q] exactly for q = 0..27 (5**27 < 2**63), and _P_HI
# split in two halves of 26 bits (Veltkamp), so that the halves' products are exact
_P_HI = np.array([float(10**q) for q in range(28)])
_P_LO = np.array([float(10**q - int(h)) for q, h in enumerate(_P_HI)])
_SPLIT = 134217729.0  # 2**27 + 1


def _split(a):
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


_P_HH, _P_HL = _split(_P_HI)


def _digit_blocks():
    """The four ASCII digits of 0000..9999, each as one uint32, in four blocks
    of 10,000 that differ in which zeros are NUL, the byte a cell does not print."""
    q = np.arange(10_000)[:, None]
    printed = (q // np.array([1000, 100, 10, 1]) % 10 + 48).astype(np.uint8)
    return np.concatenate([
        printed,
        np.where(q % np.array([10_000, 1000, 100, 10]) > 0, printed, 0),  # the trailing zeros
        np.where(q >= np.array([1000, 100, 10, 1]), printed, 0),  # the leading zeros
        np.where(q >= np.array([1000, 100, 10, 0]), printed, 0),  # those but the units digit
    ]).astype(np.uint8).view(np.uint32).ravel()


_DIGITS4 = _digit_blocks()
_TRAIL, _LEAD0, _UNITS = 10_000, 20_000, 30_000  # offsets of the blocks
# the characters np.genfromtxt drops from a column name
_NAME_DROPS = frozenset(r"""~!@#$%^&*()-=+~\|]}[{';: /?.>,<""" + '"')

# a float cell's slot: "-0.000", the digits d0..d16 with a "." after each of
# d0..d15, "e-XX" and the separator (44 bytes)
_FLOAT_SLOT = b"-0.000" + b"0." * 16 + b"0e-00"
# by exponent + 11, a column per exponent, a row per slot column: the byte a
# cell of that exponent prints there, or NUL.  %.17g prints 0.00d0.. for
# exponents -4..-1 (the lead, slot columns 1..5), d0.d1..e-XX below -4
# ("e-XX", 39..42), and the digits up to the units in fixed notation, their
# trailing zeros included (the zeros of d1..d16, as an OR mask)
_X = np.arange(-11, 18)
_LEAD = np.array([(_X >= -4) & (_X <= -j) for j in (1, 1, 2, 3, 4)], np.uint8) * np.array(
    [[48], [46], [48], [48], [48]], np.uint8)
_E = (_X < -4).astype(np.uint8)
_EXPONENT = np.array([_E * 101, _E * 45, _E * (48 + -_X // 10 % 10), _E * (48 + -_X % 10)],
                     np.uint8)
_WHOLE = ((_X >= np.arange(1, 17)[:, None]) * 48).astype(np.uint8)


def _scaled(a, X):
    """Integer part and fraction of a * 10**(16 - X), to within 1e-14.

    Both are exact only for a scaled value of at least 2**53; below, the
    integer part is still below 10**16, which is all a caller needs of it.
    """
    q = 16 - X
    if q.min() == q.max():
        q = q[:1]  # one exponent: its powers of ten broadcast
    hi, lo = _P_HI.take(q, mode="clip"), _P_LO.take(q, mode="clip")
    hh, hl = _P_HH.take(q, mode="clip"), _P_HL.take(q, mode="clip")
    ah, al = _split(a)
    p = a * hi  # an integer when p >= 2**53, as it is once X is right
    r = ((ah * hh - p) + ah * hl + al * hh) + al * hl  # a * hi - p, exactly
    r += a * lo
    r_whole = np.floor(r)
    return p.astype(np.int64) + r_whole.astype(np.int64), r - r_whole


def _float_cells(x, sep):
    """The layout of the float column x in its chunk, and a writer of its cells.

    Returns (text, put): the slot columns the chunk keeps, as the bytes they
    start with, and put(M), which writes the column's cells into M, a
    (len(text) x rows) view: one row per kept slot column, holding the byte
    each cell prints there, or NUL.
    """
    a = np.abs(x)
    fast = (a >= 1e-10) & (a < 1e16)
    zero = a == 0
    a = np.where(fast, a, 1.0)
    X = np.floor(np.log10(a)).astype(np.int64)
    F, frac = _scaled(a, X)
    # left to %: the cells out of the range and those within _TIE of a tie
    unsettled = (~fast & ~zero) | (np.abs(frac - 0.5) < _TIE)
    off = np.flatnonzero((F < _E16) | (F >= _E17))
    if off.size:
        X[off] += np.where(F[off] < _E16, -1, 1)
        F[off], frac[off] = _scaled(a[off], X[off])
        # and those whose exponent the second product did not settle either
        unsettled[off] = (F[off] < _E16) | (F[off] >= _E17) | (np.abs(frac[off] - 0.5) < _TIE)
    N = F + (frac > 0.5)
    top = N == _E17
    X += top
    N[top] = _E16
    N[zero] = 0  # X is 0 there, as for 1.0
    d0 = N // _E16
    low = N - d0 * _E16
    # d1..d16 in four groups; a group whose later digits are all zero takes
    # the block whose trailing zeros are NUL
    hi8 = low // 10**8
    lo8 = low - hi8 * 10**8
    g0, g2 = hi8 // 10**4, lo8 // 10**4
    g1, g3 = hi8 - g0 * 10**4, lo8 - g2 * 10**4
    groups = np.stack([g0 + _TRAIL * ((g1 == 0) & (lo8 == 0)), g1 + _TRAIL * (lo8 == 0),
                       g2 + _TRAIL * (g3 == 0), g3 + _TRAIL])
    # one row per digit: the (4 x rows) words' bytes, transposed once
    digits = _DIGITS4.take(groups).view(np.uint8).reshape(4, -1, 4).transpose(0, 2, 1)
    digits = digits.reshape(16, -1)
    X += 11  # from here on, the column of the tables by exponent
    whole = min(int(X.max()) - 11, 16)  # fixed notation prints the zeros up to the units
    if whole > 0:
        digits[:whole] |= _WHOLE[:whole].take(X, axis=1, mode="clip")
    neg = np.signbit(x)
    unsettled = np.flatnonzero(unsettled)
    seen = np.zeros(len(_X), bool)
    seen[X] = True
    # the dot after dk (slot column 7 + 2k), printed where d(k + 1) is: after
    # the units digit, or after d0 in exponent notation
    dots = {int(k): (X == k + 11) & (digits[k] > 0) for k in np.flatnonzero(seen[11:27])}
    if seen[:7].any():
        dots[0] = ((X == 11) | (X < 7)) & (digits[0] > 0)
    keep = np.ones(44, bool)  # % may print any of the slot's characters
    if not unsettled.size:
        keep[0] = neg.any()
        keep[1:6] = _LEAD[:, seen].any(axis=1)
        keep[7:38:2] = False
        for k, dot in dots.items():
            keep[7 + 2 * k] = dot.any()
        keep[8:39:2] = digits.any(axis=1)
        keep[39:43] = seen[:7].any()
    cols = np.flatnonzero(keep)
    at = np.cumsum(keep) - 1  # slot column -> row of M
    n_lead = np.count_nonzero(keep[1:6])
    n_digits = np.count_nonzero(keep[8:39:2])

    def put(M):
        if keep[0]:
            np.multiply(neg.view(np.uint8), 45, out=M[0])
        if n_lead:
            np.take(_LEAD[:n_lead], X, axis=1, out=M[at[1]:at[1] + n_lead], mode="clip")
        np.add(d0, 48, out=M[at[6]], casting="unsafe")
        M[at[8:8 + 2 * n_digits:2]] = digits[:n_digits]
        for k in np.flatnonzero(keep[7:38:2]):
            if k in dots:
                np.multiply(dots[k].view(np.uint8), 46, out=M[at[7 + 2 * k]])
            else:
                M[at[7 + 2 * k]] = 0
        if keep[39]:
            np.take(_EXPONENT, X, axis=1, out=M[at[39]:at[39] + 4], mode="clip")
        M[-1] = sep[0]
        if unsettled.size:
            text = b"".join((_G % v).encode().ljust(43, b"\0") for v in x[unsettled].tolist())
            M[:43, unsettled] = np.frombuffer(text, np.uint8).reshape(-1, 43).T

    return np.frombuffer(_FLOAT_SLOT + sep, np.uint8)[cols], put


def _int_cells(v, sep):
    """The layout of the integer column v in its chunk, and a writer of its cells.

    As _float_cells: the layout keeps the sign only if a cell is negative and
    as many digits as the widest cell has.
    """
    neg = v < 0
    sign = bool(neg.any())
    mag = v.astype(np.uint64)  # modulo 2**64, so 0 - mag is |v| for v < 0
    if sign:
        mag = np.where(neg, 0 - mag, mag)
    width = len(str(int(mag.max())))
    groups = -(-width // 4)

    def put(M):
        if sign:
            np.multiply(neg.view(np.uint8), 45, out=M[0])
        # four digits at a time, the top group first: a group below a nonzero
        # one prints its leading zeros, and only the units group prints a 0
        quads = mag + _UNITS
        if groups > 1:
            quads = np.stack([mag // 10 ** (4 * k) % 10**4 + np.where(
                mag >= 10 ** (4 * k + 4), np.uint64(0), np.uint64(_LEAD0 if k else _UNITS))
                for k in range(groups - 1, -1, -1)], axis=1)
        digits = _DIGITS4.take(quads).view(np.uint8).reshape(len(mag), -1)
        M[int(sign):-1] = digits[:, 4 * groups - width:].T
        M[-1] = sep[0]

    return np.frombuffer(b"-"[:sign] + b"0" * width + sep, np.uint8), put


def _numpy_rows(fields, chunk):
    """The bytes of the rows of chunk, one column per field."""
    seps = [b","] * (len(fields) - 1) + [b"\n"]
    cells = [_float_cells(col.astype(np.float64), sep) if field == _G else _int_cells(col, sep)
             for field, col, sep in zip(fields, chunk, seps)]
    # each row a cache line longer than the chunk: rows 8192 bytes apart would
    # put a cell's bytes in one cache set, which the transpose below thrashes
    n = len(chunk[0])
    M = np.empty((sum(len(t) for t, _ in cells), n + 64), np.uint8)[:, :n]
    o = 0
    for t, put in cells:
        put(M[o:o + len(t)])
        o += len(t)
    rows = M.T.copy().ravel()  # no character printed is NUL
    return rows[rows != 0]


def _percent_rows(row_format, chunk):
    """The bytes of the rows of chunk, by one % operation."""
    width = len(chunk)
    cells = [None] * (width * len(chunk[0]))
    for j, col in enumerate(chunk):
        cells[j::width] = col.tolist()
    return (((row_format + "\n") * len(chunk[0])) % tuple(cells)).encode()


def write_csv(path, header: str, row_format: str, *columns) -> None:
    """Write ``header``, then ``row_format % row`` for each row of the columns.

    ``columns`` are equal-length 1D sequences, one per ``%`` field of
    ``row_format``.
    """
    write_chunks(path, header, row_format, [columns])


def write_chunks(path, header: str, row_format: str, chunks) -> None:
    """As write_csv, for a table that comes in chunks of rows.

    ``chunks`` is an iterable of column tuples, as write_csv takes them; each
    chunk is written as it comes, so a stream of rows is never held whole.
    """
    fields = row_format.split(",")
    with open(path, "wb") as fh:
        fh.write((header + "\n").encode())
        for columns in chunks:
            columns = [np.asarray(c) for c in columns]
            in_numpy = len(fields) == len(columns) and all(
                (f == _G and c.dtype.kind in "fiu") or (f == _D and c.dtype.kind in "iu")
                for f, c in zip(fields, columns)
            )
            for lo in range(0, len(columns[0]), _CHUNK_ROWS):
                chunk = [c[lo:lo + _CHUNK_ROWS] for c in columns]
                fh.write(_numpy_rows(fields, chunk) if in_numpy
                         else _percent_rows(row_format, chunk))


def _header_names(lines) -> tuple[list[str], int]:
    """The column names on the table's first line, as np.genfromtxt(names=True)
    reads them, and the index of the line after it.

    Blank lines before the header are skipped, and the header is the text
    after a "#" when the line has one.  A first name left empty is dropped;
    each name is stripped, its spaces become "_" and the characters of
    _NAME_DROPS go.
    """
    for k, line in enumerate(lines):
        if "#" in line:
            line = "".join(line.split("#")[1:])
        line = line.strip(" \r\n")
        if line:
            values = line.split(",")
            if not values[0].strip():
                del values[0]
            return ["".join(c for c in v.strip().replace(" ", "_") if c not in _NAME_DROPS)
                    for v in values], k + 1
    return [], len(lines)


def _is_row(line: str) -> bool:
    return bool(line.split("#")[0].strip(" \r\n"))


def _bad_row(path, lines, first: int, dtype) -> str | None:
    """The first row from lines[first] on that np.loadtxt rejects, named by
    its line in the file, with loadtxt's reason; None if it takes them all."""
    for n, line in enumerate(lines[first:], first + 1):
        if _is_row(line):
            try:
                np.loadtxt([line], delimiter=",", dtype=dtype)
            except ValueError as err:
                # loadtxt counts the rows it was given, and suggests usecols
                reason = re.sub(r" at row \d+(?:, column (\d+))?",
                                lambda m: f" (column {m[1]})" if m[1] else "", str(err))
                return f"{path}, line {n}: {reason.split(';')[0].rstrip('.')}"
    return None


def read_csv(path, *headers: str) -> np.ndarray:
    """The rows of a table as a structured array of floats, named by its header.

    Raises ValueError unless the header is one of ``headers``, and on a row
    with a missing, extra, empty or non-numeric cell, naming the row's line
    in the file.  Lines that are blank but for spaces and a "#" comment are
    skipped, as np.genfromtxt skips them; np.loadtxt parses the rest,
    rounding each cell to the nearest double, as float() does.
    """
    with open(path) as fh:
        lines = fh.readlines()
    names, first = _header_names(lines)
    if ",".join(names) not in headers:
        raise ValueError(f"expected header {' or '.join(headers)}")
    rows = [line for line in lines[first:] if _is_row(line)]
    dtype = [(name, float) for name in names]
    if not rows:
        # loadtxt would warn of a table of no rows; its callers say if that will not do
        return np.empty(0, dtype)
    try:
        return np.loadtxt(rows, delimiter=",", ndmin=1, dtype=dtype)
    except ValueError as err:
        raise ValueError(_bad_row(path, lines, first, dtype) or str(err)) from None


def centers_to_axis(centers: np.ndarray) -> tuple[float, float, int]:
    """(lo, hi, n) of the uniform axis whose cell centers a table lists."""
    centers = np.unique(centers)
    if len(centers) < 1:
        raise ValueError("no cells in file")
    h = centers[1] - centers[0] if len(centers) > 1 else 1.0
    if not np.allclose(np.diff(centers), h, rtol=1e-9, atol=1e-12):
        raise ValueError("cell centers must be uniformly spaced")
    return float(centers[0] - h / 2), float(centers[-1] + h / 2), len(centers)
