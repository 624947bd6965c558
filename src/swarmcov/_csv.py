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
tables with a ``%s`` field.  Digits come four at a time from a lookup table;
each cell has a fixed-width slot in a (rows x width) byte matrix that holds
every character its text may need, and a keep mask drops the unused ones.
"""

from __future__ import annotations

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
    hi, lo = _P_HI.take(q, mode="clip"), _P_LO.take(q, mode="clip")
    hh, hl = _P_HH.take(q, mode="clip"), _P_HL.take(q, mode="clip")
    ah, al = _split(a)
    p = a * hi  # an integer when p >= 2**53, as it is once X is right
    r = ((ah * hh - p) + ah * hl + al * hh) + al * hl  # a * hi - p, exactly
    r += a * lo
    r_whole = np.floor(r)
    return p.astype(np.int64) + r_whole.astype(np.int64), r - r_whole


def _float_cells(x, M, K, o):
    """Write the float column x into the slots at column o of M and K."""
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
    # z: the last nonzero digit, d0 for 0 and for N = d0 * 10**16
    z = np.where(low == 0, 0, 16 - np.argmax((rest != 48)[:, ::-1], axis=1))
    M[:, o + 6] = 48 + d0
    M[:, o + 8:o + 39:2] = rest
    M[:, o + 41:o + 43] = _EXPONENTS.take(X + 11, mode="clip")[:, None].view(np.uint8)
    K[:, o:o + 44] = _FLOAT_KEEP.take((X + 11) * 17 + z, axis=0, mode="clip")
    K[:, o] = np.signbit(x)
    unsettled = (~fast & ~zero) | (F < _E16) | (F >= _E17) | (np.abs(frac - 0.5) < _TIE)
    for i in np.flatnonzero(unsettled):
        text = np.frombuffer((_G % x[i]).encode(), np.uint8)
        M[i, o:o + len(text)] = text
        K[i, o:o + 43] = False
        K[i, o:o + len(text)] = True


def _int_cells(v, M, K, o):
    """Write the integer column v into the slots at column o of M and K."""
    neg = v < 0
    mag = v.astype(np.uint64)  # modulo 2**64, so 0 - mag is |v| for v < 0
    mag = np.where(neg, 0 - mag, mag)
    top = mag // _E16
    M[:, o + 1:o + 5] = _DIGITS4.take(top)[:, None].view(np.uint8)
    M[:, o + 5:o + 21] = _digits16((mag - top * _E16).astype(np.int64))
    K[:, o:o + 22] = _INT_KEEP.take(1 + np.searchsorted(_POW10, mag, side="right"), axis=0)
    K[:, o] = neg


def _slot(field, sep):
    return (b"-0.000" + b"0." * 16 + b"0e-00" if field == _G else b"-" + b"0" * 20) + sep


def _numpy_rows(fields, chunk):
    """The bytes of the rows of chunk, one column per field."""
    slots = [_slot(f, b",") for f in fields[:-1]] + [_slot(fields[-1], b"\n")]
    M = np.empty((len(chunk[0]), sum(map(len, slots))), np.uint8)
    M[:] = np.frombuffer(b"".join(slots), np.uint8)
    K = np.empty(M.shape, bool)
    o = 0
    for field, col, slot in zip(fields, chunk, slots):
        if field == _G:
            _float_cells(col.astype(np.float64), M, K, o)
        else:
            _int_cells(col, M, K, o)
        o += len(slot)
    return np.compress(K.ravel(), M.ravel())


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
    columns = [np.asarray(c) for c in columns]
    fields = row_format.split(",")
    in_numpy = len(fields) == len(columns) and all(
        (f == _G and c.dtype.kind in "fiu") or (f == _D and c.dtype.kind in "iu")
        for f, c in zip(fields, columns)
    )
    n_rows = len(columns[0])
    with open(path, "wb") as fh:
        fh.write((header + "\n").encode())
        for lo in range(0, n_rows, _CHUNK_ROWS):
            chunk = [c[lo:lo + _CHUNK_ROWS] for c in columns]
            fh.write(_numpy_rows(fields, chunk) if in_numpy else _percent_rows(row_format, chunk))


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
