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
tables with a ``%s`` field.  Digits come four at a time from a lookup table.
A chunk whose floats share one exponent takes one power of ten, broadcast.
A float's last nonzero digit comes from its 16 digits after the first: their
nonzero flags, read as two little-endian 64-bit words, have their highest
set byte where ``np.frexp`` of the word gives an exponent of 8k + 1.

Each cell has a slot of fixed columns for every character its text may need:
"-0.000", the 17 digits with a "." after each but the last, "e-XX" and the
separator for a float (44 bytes); "-", 20 digits and the separator for an int
(22).  A chunk's column keeps only the slot columns that some cell of the
chunk prints: the sign only if a cell is negative, the "0.000" lead only for
exponents -4..-1, the digits and dots its cells reach, "e-XX" only for
exponents below -4, and as many int digits as its widest cell.  A chunk with
a cell left to ``%`` keeps the whole slot.  The kept columns of every field
make one (rows x width) byte matrix, a keep mask drops the characters each
cell does not print, and one boolean index joins the chunk.  An int cell's
digit count is one plus the powers of ten, up to the chunk's widest cell's,
that it reaches; a column whose widest cell has at most 4 digits takes them
from one lookup of its cells' values.

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
# the four ASCII digits of 0000..9999, each as one uint32
_DIGITS4 = (np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + 48).astype(
    np.uint8).view(np.uint32).ravel()
_POW10 = 10 ** np.arange(1, 20, dtype=np.uint64)
# the characters np.genfromtxt drops from a column name
_NAME_DROPS = frozenset(r"""~!@#$%^&*()-=+~\|]}[{';: /?.>,<""" + '"')


def _float_slot_keep():
    """Which bytes of a float slot a cell keeps, by [exponent + 11, last nonzero digit].

    The slot is "-0.000", the digits d0..d16 with a "." after each of
    d0..d15, "e-XX" and the separator.  ``%.17g`` prints the digits in fixed
    notation for -4 <= exponent <= 16, as d0..dX.d(X+1).. or 0.00d0..,
    else as d0.d1..e-XX, with trailing zeros and a bare "." dropped.
    """
    X = np.arange(-11, 17)[:, None, None]
    z = np.arange(17)[None, :, None]
    pos = np.arange(44)
    digit, dot = (pos - 6) // 2, (pos - 7) // 2
    is_digit = (pos >= 6) & (pos <= 38) & (pos % 2 == 0)
    is_dot = (pos >= 7) & (pos <= 37) & (pos % 2 == 1)
    fixed, lead = X >= -4, (X >= -4) & (X < 0)
    whole = fixed & (X >= 0)
    dot_after = np.where(whole, X, 0)
    return (
        (lead & ((pos == 1) | (pos == 2) | ((pos >= 3) & (pos < 2 - X))))
        | (is_digit & (digit <= np.where(whole, np.maximum(z, X), z)))
        | (is_dot & ~lead & (dot == dot_after) & (z > dot_after))
        | (~fixed & (pos >= 39) & (pos <= 42))
        | (pos == 43)
    )


_FLOAT_KEEP = _float_slot_keep().reshape(-1, 44)
# the two exponent digits of e-11..e+16, each pair as one uint16; only
# exponents below -4 are printed in exponent notation, which is e-05..e-11 here
_EXPONENTS = np.frombuffer(b"".join(b"%02d" % abs(X) for X in range(-11, 17)), np.uint16)
# int slot: "-", 20 digits, the separator; by digit count
_INT_KEEP = (np.arange(22) >= 21 - np.arange(21)[:, None]) & (np.arange(22) > 0)


def _digits16(v):
    """The 16 ASCII digits of each v in [0, 10**16), as an (n, 16) array."""
    a = v // 10**8
    b = v - a * 10**8
    a1, b1 = a // 10**4, b // 10**4
    groups = np.stack([a1, a - a1 * 10**4, b1, b - b1 * 10**4], axis=1)
    return _DIGITS4.take(groups).view(np.uint8)


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
    start with, and put(M, K), which writes each cell into M and its keep
    mask into K, both (rows x len(text)) views.
    """
    a = np.abs(x)
    fast = (a >= 1e-10) & (a < 1e16)
    zero = a == 0
    a = np.where(fast, a, 1.0)
    X = np.floor(np.log10(a)).astype(np.int64)
    F, frac = _scaled(a, X)
    off = np.flatnonzero((F < _E16) | (F >= _E17))
    if off.size:
        X[off] += np.where(F[off] < _E16, -1, 1)
        F[off], frac[off] = _scaled(a[off], X[off])
    N = F + (frac > 0.5)
    top = N == _E17
    X += top
    N[top] = _E16
    N[zero] = 0  # X is 0 there, as for 1.0
    d0 = N // _E16
    low = N - d0 * _E16
    rest = _digits16(low)
    # z: the last nonzero digit, d0 for 0 and for N = d0 * 10**16; frexp gives
    # 8k + 1 for a flag word whose highest set byte is k, and 0 for no flag
    e = np.frexp((rest != 48).view("<u8").astype(np.float64))[1]
    z = (np.where(e[:, 1] > 0, 64 + e[:, 1], e[:, 0]) + 7) >> 3
    row = np.clip((X + 11) * 17 + z, 0, len(_FLOAT_KEEP) - 1)
    neg = np.signbit(x)
    unsettled = np.flatnonzero(
        (~fast & ~zero) | (F < _E16) | (F >= _E17) | (np.abs(frac - 0.5) < _TIE))
    if unsettled.size:
        keep = np.ones(44, bool)  # % may print any of the slot's characters
    else:
        keep = _FLOAT_KEEP[np.bincount(row, minlength=len(_FLOAT_KEEP)) > 0].any(axis=0)
        keep[0] = neg.any()
    cols = np.flatnonzero(keep)
    at = np.cumsum(keep) - 1  # slot column -> layout column
    n_digits = np.count_nonzero(keep[8:39:2])

    def put(M, K):
        M[:, at[6]] = 48 + d0
        M[:, at[8:8 + 2 * n_digits:2]] = rest[:, :n_digits]
        K[:] = _FLOAT_KEEP[:, cols].take(row, axis=0)
        if keep[0]:
            K[:, 0] = neg
        if keep[41]:
            M[:, at[41:43]] = _EXPONENTS.take(X + 11, mode="clip")[:, None].view(np.uint8)
        for i in unsettled:
            text = np.frombuffer((_G % x[i]).encode(), np.uint8)
            M[i, :len(text)] = text
            K[i, :43] = False
            K[i, :len(text)] = True

    return _slot(_G, sep)[cols], put


def _int_cells(v, sep):
    """The layout of the integer column v in its chunk, and a writer of its cells.

    As _float_cells: the layout keeps the sign only if a cell is negative and
    as many digits as the widest cell has.
    """
    neg = v < 0
    mag = v.astype(np.uint64)  # modulo 2**64, so 0 - mag is |v| for v < 0
    mag = np.where(neg, 0 - mag, mag)
    width = len(str(int(mag.max())))
    # digits: one, plus one for each power of ten up to the widest cell's it reaches
    count = np.ones(len(mag), np.intp)
    for p in _POW10[:width - 1]:
        count += mag >= p
    keep = _INT_KEEP[width].copy()
    keep[0] = neg.any()
    cols = np.flatnonzero(keep)
    groups = -(-width // 4)
    # the last 4 * groups digits, four at a time: one group is the cells themselves
    quads = mag[:, None] if groups == 1 else np.stack(
        [mag // 10 ** (4 * k) % 10**4 for k in range(groups - 1, -1, -1)], axis=1)

    def put(M, K):
        M[:, int(keep[0]):-1] = _DIGITS4.take(quads).view(np.uint8)[:, 4 * groups - width:]
        K[:] = _INT_KEEP[:, cols].take(count, axis=0)
        if keep[0]:
            K[:, 0] = neg

    return _slot(_D, sep)[cols], put


def _slot(field, sep):
    """Every character a cell of field may print, at fixed columns, as uint8."""
    text = b"-0.000" + b"0." * 16 + b"0e-00" if field == _G else b"-" + b"0" * 20
    return np.frombuffer(text + sep, np.uint8)


def _numpy_rows(fields, chunk):
    """The bytes of the rows of chunk, one column per field."""
    seps = [b","] * (len(fields) - 1) + [b"\n"]
    cells = [_float_cells(col.astype(np.float64), sep) if field == _G else _int_cells(col, sep)
             for field, col, sep in zip(fields, chunk, seps)]
    text = np.concatenate([t for t, _ in cells])
    M = np.empty((len(chunk[0]), len(text)), np.uint8)
    M[:] = text
    K = np.empty(M.shape, bool)
    o = 0
    for t, put in cells:
        put(M[:, o:o + len(t)], K[:, o:o + len(t)])
        o += len(t)
    return M.ravel()[K.ravel()]


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
