"""Dense exact matrices over F_p or Q, with the rank/kernel/complement kit.

This is the package's one exact-arithmetic engine: a field object
(``fields``) only describes its field (modulus, parsing, printing), and
every sum, product and division of field elements runs here, on matrices.
Every matrix keeps its entries in one 2-D numpy array.  Over F_p it is
int64 with entries reduced into [0, p); over Q it has dtype object and holds
Python ints and lowest-terms Fractions, an integral value always as an int.
So the structural operations (slicing, stacking, transposing, comparing, the
basis-map paths below) share one body, and only products, elimination and
division look at the field.  Subspaces are represented throughout the package as
*row* spaces; the canonical basis of a row space is the reduced echelon
form, over Q scaled to primitive integer rows with positive pivots, so equal
subspaces compare bit-for-bit equal.  A canonical basis carries its pivot
columns (Mat.pivots): row_basis and left_kernel set them, and an identity
is born with them, so no caller passes, detects or recomputes pivots, and
express_rows solves against a canonical basis only.

A basis map sends each basis vector to a distinct basis vector: row i is
the unit vector e_{cols[i]}.  Free-module actions, identities and the
coordinate complements of quotients are basis maps.  Such a matrix holds
only its column array (Mat.unit_cols) and builds its dense data the first
time something reads it.  The tag is set by construction and never found by
scanning entries: an existing matrix is never re-tagged, while unit_rows
with distinct columns, identity, take_rows of a basis map, the product of
two basis maps and a canonical basis of unit rows are born basis maps.  A
product routes on the tags alone: two basis maps compose their column
arrays, a basis map on the left gathers rows of the right factor, one on the
right scatters the columns of the left factor, and only a product of two
untagged matrices multiplies.  The stacked forms serve a group of
generators at once: push scatters one matrix into the columns of several
basis maps in one array, unit_row_maps tags the rows of one column table,
and stack_row_basis reads the row space of stacked basis maps off their
columns.  A basis map's own row basis and left kernel (none: its rows are
independent) are read off its columns too.

An F_p product runs on float64 BLAS when its inner dimension k has
k (p-1)^2 < 2^53: every partial sum is then an integer that float64 holds
exactly, so the result equals the int64 product.  Past that bound, and for
every k <= _SMALL_K, it runs on int64: there numpy's own loop costs less
than converting both factors to float64 and the result back.  A product
with k (p-1)^2 >= 2^63 is refused with a ValueError on either path.

Most matrices that F_p elimination sees are combinatorial: stacks of
actions, witness maps and projections with at most one nonzero entry per
row or per column.  One scan of the nonzero pattern (_unit_row_scan) finds
the unit rows, those with one nonzero entry.  A unit row at column c puts
e_c in the row space: c is a pivot of the rref with row e_c, and column c
is zero in every other row.  With no row holding two, the rref is read off,
unit rows in ascending column order over zero rows: row_basis returns them
as a basis map, and echelon, rank and the sparse rank's dense core get them
from _rref_fp.  Scanned on the transpose, columns with at most one nonzero
each leave the nonzero rows independent, so the left kernel is read off as
the unit rows at the zero rows.  Otherwise one vectorised pass takes every
unit column as a pivot, and the rows with two or more nonzeros, on the other
columns, are reduced the same way; written into one array in pivot order,
the parts are exactly the rref the loop gives, with no loop iteration per
unit row.  The pass runs only on a stack of at least _MIN_UNIT_ROWS rows, no
fewer rows than columns and at least _MIN_UNIT_ROWS unit rows: on wide
matrices its row count would cost more than it saves, and on tiny ones its
assembly outweighs the loop.  This is the singleton step of structured
Gaussian elimination (LaMacchia-Odlyzko, CRYPTO 1990).  Q elimination scans
nothing and keeps the plain loop: a prototype of the pass on object arrays
made the FI/Q verify battery's median item 4-10% slower.

Rational elimination is fraction-free: rows are cleared to integers up
front, cross-multiplication updates keep them integral, and each update is
reduced by its gcd.  One Gauss-Jordan routine serves int64 and
Python-int arrays: it runs on int64 while entries stay below 2^30 and
restarts on Python ints when they might not, and there every pivot row is
checked against the rational bit limit, read once when the elimination
starts so that a changed limit applies from the next elimination on.  Q
products clear denominators the same way, rows of the left factor and
columns of the right one, multiply integers and divide back once.
Fractions only appear where a contract demands unit pivots (rref) or
rational solution entries.

The ranks of sparse matrices, the Koszul differentials of homology, are
taken on rows held as dicts, column -> entry, with no dense matrix
(sparse_rank).  Pivots go in ascending column order, each on the shortest
row holding its column, in one pass over the sorted columns; fill-in only
lands right of the column being pivoted.  The rows are Koszul rows that
arrive copy-major in lex face order, and on that traffic column order was
never slower than Markowitz order (the fewest entries first, from a heap of
column counts) and often faster.
Updates are mod p over F_p, and fraction-free over Q as above, each pivot
row checked against the rational bit limit.  Over F_p, fill-in from dense
actions can make pivots dear: once the next pivot would update more than
_CORE_MARKOWITZ entries while at least one active cell in _CORE_DENSITY is
nonzero, the active rows and columns go to the dense echelon, and a matrix
that dense from the start goes there at once (structured Gaussian
elimination, LaMacchia-Odlyzko, CRYPTO 1990).  Live nonzeros, rows and
columns are counted as the loop goes, so that test costs O(1).  Over Q the
fraction-free loop finishes the work: handing the rest to the dense Q
echelon made changed-basis Koszul ranks 1.4-3x slower.  The loop is plain
Python: a Koszul differential takes about ten pivots, so numpy's per-call
overhead would decide the cost.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter

import numpy as np

from .fields import _qnorm, check_rational_bits, rational_bit_limit


class NotInSpan(Exception):
    """Signals that a vector lies outside the span it was solved against."""


_UNSET = object()


# integer-valued rational matrices ride int64 numpy kernels below this bound;
# anything larger (or fractional) takes the Python-int path
_NP_ENTRY_BOUND = 1 << 30

_qnorm_all = np.frompyfunc(_qnorm, 1, 1)
_numerators = np.frompyfunc(attrgetter("numerator"), 1, 1)
_denominators = np.frompyfunc(attrgetter("denominator"), 1, 1)


def _qdiv(x, d):
    return _qnorm(Fraction(x, d)) if x and d != 1 else x


_qdiv_all = np.frompyfunc(_qdiv, 2, 1)


def _dtype(field):
    """Storage dtype: int64 residues over F_p, Python ints and Fractions over Q."""
    return np.int64 if field.kind == "fp" else object


def _canon(field, arr):
    """Entries in storage form: reduced mod p, or Fractions of denominator 1 as ints."""
    if field.kind == "fp":
        return arr % field.p
    return _qnorm_all(arr)


def _divide(arr, d):
    """arr / d entrywise, d (nonzero) broadcast against arr.  Over F_p every
    d is a pivot of a canonical basis, or their lcm, so it is 1."""
    if (d == 1).all():
        return arr
    return _qdiv_all(arr, d)


def _types(arr):
    return set(map(type, arr.flat))


def _small_ints(arr):
    """int64 copy of an object array of ints all below the fast-path bound, else None.

    The type scan is essential: numpy would otherwise coerce Fractions via
    __int__, silently truncating them.
    """
    if arr.size == 0:
        return np.zeros(arr.shape, dtype=np.int64)
    if _types(arr) != {int} or np.abs(arr).max() >= _NP_ENTRY_BOUND:
        return None
    return arr.astype(np.int64)


def _integral_rows(data):
    """(rows, lcms): each row of a Q array scaled by the lcm of its
    denominators (a fresh array), and those lcms."""
    if Fraction not in _types(data):
        return data.copy(), np.ones(len(data), dtype=object)
    den = _denominators(data)
    lcms = np.lcm.reduce(den, axis=1)
    return _numerators(data) * (lcms[:, None] // den), lcms


def _gauss_jordan(work, limit):
    """Fraction-free Gauss-Jordan on an integer array, in place.

    Returns (rows, pivots) with primitive rows, positive pivots, zeros above
    and below every pivot: the canonical basis of the row space (the
    unit-pivot RREF rescaled row by row).  On int64 it returns None as soon
    as an entry reaches the fast-path bound; on Python ints it checks every
    pivot row against the rational bit limit instead.
    """
    wide = work.dtype == object
    nr, nc = work.shape
    pivots = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        nz = np.nonzero(work[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            work[[r, i]] = work[[i, r]]
        prow = work[r]
        pv = prow[c]
        if wide:
            check_rational_bits(np.abs(prow).max(), limit)
        f = work[:, c].copy()
        f[r] = 0
        mask = f != 0
        if mask.any():
            updated = work[mask] * pv - np.outer(f[mask], prow)
            g = np.gcd.reduce(np.abs(updated), axis=1)
            g[g == 0] = 1
            work[mask] = updated // g[:, None]
            # entries below 2^30 keep every int64 update below 2^61
            if not wide and np.abs(work).max() >= _NP_ENTRY_BOUND:
                return None
        pivots.append(c)
        r += 1
    rows = work[:r]
    rows //= np.gcd.reduce(np.abs(rows), axis=1)[:, None]
    neg = rows[np.arange(r), pivots] < 0
    rows[neg] = -rows[neg]
    work[r:] = 0
    return work, tuple(pivots)


def _echelon_q(data):
    """Canonical echelon form of a Q array, on int64 whenever that is exact."""
    work, _ = _integral_rows(data)
    limit = rational_bit_limit()
    if limit >= 31:
        small = _small_ints(work)
        if small is not None:
            done = _gauss_jordan(small, limit)
            if done is not None:
                return done[0].astype(object), done[1]
    return _gauss_jordan(work, limit)


# the unit-row pass runs only on a stack with at least this many rows and no
# fewer rows than columns, and only when at least this many of its rows are
# unit rows: below that its half-dozen whole-array passes cost more than the
# pivot loop iterations they save
_MIN_UNIT_ROWS = 8


def _unit_row_scan(data):
    """(columns, counts) from one scan of data's nonzero pattern: the
    columns where some row's only nonzero entry sits, as a mask, and each
    row's number of nonzero entries.  When no row holds two, counts is None
    and the columns are all that hold a nonzero entry: the rows read off."""
    nonzero = data != 0
    hit = nonzero.any(axis=1)
    if np.count_nonzero(nonzero) == np.count_nonzero(hit):
        return nonzero.any(axis=0), None
    counts = nonzero.sum(axis=1)
    return nonzero[counts == 1].any(axis=0), counts


def _rref_fp(data, p):
    """Canonical rref of an F_p residue array: (a fresh array, pivot columns).

    One scan (_unit_row_scan) routes it: rows with at most one nonzero entry
    each are read off; past the _MIN_UNIT_ROWS gate the unit rows are pivots
    and the rows with two or more nonzeros, on the other columns, are reduced
    the same way; the pivot loop takes what the gate turns away.
    """
    nr, nc = data.shape
    unit_col, counts = _unit_row_scan(data)
    if counts is None:
        pivots = np.flatnonzero(unit_col)
        out = np.zeros(data.shape, dtype=data.dtype)
        out[np.arange(len(pivots)), pivots] = 1
        return out, tuple(pivots.tolist())
    if nr < max(nc, _MIN_UNIT_ROWS) or np.count_nonzero(counts == 1) < _MIN_UNIT_ROWS:
        A = data.copy()
        return A, _pivot_loop(A, p)
    rest = np.flatnonzero(~unit_col)
    R, sub = _rref_fp(data[np.ix_(np.flatnonzero(counts > 1), rest)], p)
    sub = rest[list(sub)]
    is_pivot = unit_col.copy()
    is_pivot[sub] = True
    pivots = np.flatnonzero(is_pivot)
    unit_row = unit_col[pivots]  # output row k is e_{pivots[k]}, or a residual row
    out = np.zeros(data.shape, dtype=data.dtype)  # C order, as data.copy() gives
    out[np.flatnonzero(unit_row), pivots[unit_row]] = 1
    out[np.ix_(np.flatnonzero(~unit_row), rest)] = R[:len(sub)]
    return out, tuple(pivots.tolist())


def _pivot_loop(A, p):
    """Gauss-Jordan on an F_p residue array, in place: A becomes its rref.
    Returns the pivot columns."""
    nr, nc = A.shape
    pivots = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        col = A[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            A[[r, i]] = A[[i, r]]
        pv = int(A[r, c])
        if pv != 1:
            A[r] = (A[r] * pow(pv, p - 2, p)) % p
        col = A[:, c].copy()
        col[r] = 0
        mask = col != 0
        if mask.any():
            A[mask] = (A[mask] - np.outer(col[mask], A[r])) % p
        pivots.append(c)
        r += 1
    return tuple(pivots)


def _echelon(m):
    """Canonical echelon form of m's entries: (array, pivot columns)."""
    if m.field.kind == "fp":
        return _rref_fp(m.data, m.field.p)
    return _echelon_q(m.data)


# over F_p the sparse rank hands its active rows and columns to the dense
# echelon at the first pivot that would update more than _CORE_MARKOWITZ
# entries while at least one active cell in _CORE_DENSITY is nonzero
_CORE_MARKOWITZ = 64
_CORE_DENSITY = 4


def sparse_rank(field, rows) -> int:
    """Rank of the matrix whose rows are the dicts rows, column -> nonzero
    entry in storage form.  The dicts are consumed.

    Pivots go in ascending column order, each on the shortest row holding
    the column.  One sorted pass over the columns is exact: every column
    left of a pivot row's is pivoted (and so cleared from every other row)
    or empty when visited, and an empty column is never filled again, so
    fill-in lands right of the visited column only.  The pivot row is
    cleared from every other row of its column, mod p over F_p,
    fraction-free over Q (rows cleared to integers, each update divided by
    its gcd, each pivot row checked against the rational bit limit).  Over
    F_p, once a pivot is dear and the active part dense (_CORE_MARKOWITZ,
    _CORE_DENSITY), what is left goes to the dense echelon (_core_rank); a
    matrix with more than _CORE_MARKOWITZ entries that is that dense from
    the start goes there at once.  Over Q the loop finishes the work.
    """
    fp = field.kind == "fp"
    p = field.p if fp else None
    limit = None if fp else rational_bit_limit()
    rows = [row if fp else _integral_row(row) for row in rows if row]
    live, nnz, rank = len(rows), sum(map(len, rows)), 0
    cols = {}  # active column -> the rows holding it
    for k, row in enumerate(rows):
        for c in row:
            if c in cols:
                cols[c].add(k)
            else:
                cols[c] = {k}
    if fp and nnz > _CORE_MARKOWITZ and nnz * _CORE_DENSITY >= live * len(cols):
        return _core_rank(field, rows, cols)
    for c in sorted(cols):
        ks = cols.get(c)
        if ks is None:
            continue
        k = min(ks, key=lambda j: len(rows[j]))
        prow = rows[k]
        if fp and (len(ks) - 1) * (len(prow) - 1) > _CORE_MARKOWITZ and nnz * _CORE_DENSITY >= live * len(cols):
            return rank + _core_rank(field, rows, cols)
        rank += 1
        live -= 1
        nnz -= len(prow)
        rows[k] = None
        del cols[c]
        ks.discard(k)
        if not fp:
            check_rational_bits(max(map(abs, prow.values())), limit)
        pv = prow.pop(c)
        for d in prow:
            cols[d].discard(k)
        if fp and pv != 1:
            inv = pow(pv, p - 2, p)
            prow = {d: v * inv % p for d, v in prow.items()}
        for j in ks:
            row = rows[j]
            f = row.pop(c)
            before = len(row) + 1
            if not fp:
                g = gcd(pv, f)
                a, f = pv // g, f // g
                if a != 1:
                    row = {d: a * v for d, v in row.items()}
            for d, v in prow.items():
                x = row.get(d)
                if x is None:
                    row[d] = (-f * v) % p if fp else -f * v
                    cols[d].add(j)
                else:
                    x = (x - f * v) % p if fp else x - f * v
                    if x:
                        row[d] = x
                    else:
                        del row[d]
                        cols[d].discard(j)
            if not fp and row:
                g = gcd(*row.values())
                if g != 1:
                    row = {d: v // g for d, v in row.items()}
            rows[j] = row
            nnz += len(row) - before
            if not row:
                live -= 1
        for d in prow:
            if not cols[d]:
                del cols[d]
    return rank


def _integral_row(row):
    """A Q row dict as integers: scaled by the lcm of its denominators."""
    m = lcm(*(v.denominator for v in row.values() if type(v) is Fraction))
    return {c: int(v * m) for c, v in row.items()} if m != 1 else row


def _core_rank(field, rows, cols):
    """Rank of the nonempty F_p rows of sparse_rank on the columns cols,
    which hold all their entries, from one dense echelon."""
    live = [row for row in rows if row]
    place = dict(zip(cols, range(len(cols))))
    A = np.zeros((len(live), len(cols)), dtype=np.int64)
    at = np.repeat(np.arange(len(live)), list(map(len, live)))
    A[at, [place[c] for row in live for c in row]] = [v for row in live for v in row.values()]
    return len(_rref_fp(A, field.p)[1])


# a product of residues in [0, p) with inner dimension k has partial sums
# up to k (p-1)^2; below these limits float64 and int64 hold them exactly
_FLOAT_EXACT = 1 << 53
_INT64_EXACT = 1 << 63


# a product with inner dimension at most this runs on int64: there numpy's
# own loop costs less than the three float64 conversions around BLAS
_SMALL_K = 16


def _fp_product(x, y, p):
    """x @ y mod p for int64 residue arrays: float64 BLAS when exact and the
    inner dimension is past _SMALL_K, else int64.

    Exact whatever order BLAS adds in, since every partial sum is an integer
    below 2^53.  NumPy's int64 @ does not use BLAS.
    """
    k = x.shape[1]
    if k > _SMALL_K and k * (p - 1) ** 2 < _FLOAT_EXACT:
        return _float_product(x, y, p)
    return _int64_product(x, y, p)


def _float_product(x, y, p):
    return (x.astype(np.float64) @ y.astype(np.float64)).astype(np.int64) % p


def _int64_product(x, y, p):
    k = x.shape[1]
    if k * (p - 1) ** 2 >= _INT64_EXACT:
        raise ValueError(f"F_{p} product {x.shape} @ {y.shape} is not exact in int64: "
                         f"{k} * ({p} - 1)^2 >= 2^63")
    return (x @ y) % p


def _small_product(x, y):
    """x @ y of int64 copies as an object array when every partial sum fits, else None."""
    if x is None or y is None:
        return None
    if int(np.abs(x).max(initial=0)) * int(np.abs(y).max(initial=0)) * x.shape[1] >= 1 << 62:
        return None
    return (x @ y).astype(object)


def _q_product(a, b):
    """a @ b over Q, on integers.

    Integral operands multiply on their int64 copies when that is exact.
    Otherwise the rows of a and the columns of b are cleared of
    denominators (_integral_rows), the integer product runs on int64 when
    exact and on Python ints when not, and each entry is divided back by
    its row and column lcms.
    """
    out = _small_product(a._np_int(), b._np_int())
    if out is not None:
        return out
    (x, r), (yt, c) = _integral_rows(a.data), _integral_rows(b.data.T)
    out = _small_product(_small_ints(x), _small_ints(yt.T))
    if out is None:
        out = x @ yt.T
    return _qdiv_all(out, r[:, None] * c)


class Mat:
    """An immutable dense matrix over an exact field.

    ``data`` is a 2-D numpy array in storage form (see the module
    docstring); do not mutate it after construction, all operations return
    new matrices.  A basis map builds it on first read from ``unit_cols``.
    The field is a plain attribute rather than a subclass per field: the
    perfbench tracing shim patches the kernels on this class and names its
    spans by ``field.kind``.
    """

    __slots__ = ("field", "nrows", "ncols", "_data", "pivots", "unit_cols", "_npdata")

    def __init__(self, field, nrows, ncols, data):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self._data = data
        self.pivots = None  # pivot columns, set only on a canonical row basis
        self.unit_cols = None  # column per row, set only on a basis map (_basis_map)
        self._npdata = _UNSET  # lazily computed int64 copy (Q fast path)

    @property
    def data(self):
        if self._data is None:
            data = np.zeros((self.nrows, self.ncols), dtype=_dtype(self.field))
            data[np.arange(self.nrows), self.unit_cols] = 1  # p >= 2: already reduced
            self._data = data
        return self._data

    # -- constructors -------------------------------------------------

    @staticmethod
    def zeros(field, nrows, ncols) -> "Mat":
        return Mat(field, nrows, ncols, np.zeros((nrows, ncols), dtype=_dtype(field)))

    @staticmethod
    def _basis_map(field, cols, ncols) -> "Mat":
        """The basis map with distinct columns cols (an intp array); no data yet."""
        m = Mat(field, len(cols), ncols, None)
        m.unit_cols = cols
        return m

    @staticmethod
    def _unit_basis(field, hit) -> "Mat":
        """The canonical basis of the span of the unit vectors at the columns
        where the mask hit holds: those unit rows in ascending order, a basis
        map carrying its pivots."""
        cols = np.flatnonzero(hit)
        basis = Mat._basis_map(field, cols, len(hit))
        basis.pivots = tuple(cols.tolist())
        return basis

    @staticmethod
    def identity(field, n) -> "Mat":
        """The n x n identity: a basis map and its own canonical row basis."""
        m = Mat._basis_map(field, np.arange(n), n)
        m.pivots = tuple(range(n))
        return m

    @staticmethod
    def unit_rows(field, cols, ncols) -> "Mat":
        """The matrix whose row i is the unit vector e_{cols[i]}.

        A basis map when the columns are distinct; otherwise two rows
        share a column and it is stored dense.
        """
        cols = np.asarray(cols, dtype=np.intp)
        if not len(cols) or np.bincount(cols).max() == 1:
            return Mat._basis_map(field, cols, ncols)
        m = Mat.zeros(field, len(cols), ncols)
        m.data[np.arange(len(cols)), cols] = 1
        return m

    @staticmethod
    def unit_row_maps(field, table, ncols) -> list:
        """[unit_rows(field, cols, ncols) for cols in table] for the rows of a
        2-D column table, checked for repeated columns all at once."""
        table = np.asarray(table, dtype=np.intp)
        hit = np.zeros((len(table), ncols), dtype=bool)
        hit[np.arange(len(table))[:, None], table] = True
        return [Mat._basis_map(field, c, ncols) if n == len(c) else Mat.unit_rows(field, c, ncols)
                for c, n in zip(table, hit.sum(axis=1))]

    @staticmethod
    def from_rows(field, rows, ncols=None) -> "Mat":
        rows = [list(r) for r in rows]
        nrows = len(rows)
        if ncols is None:
            if not rows:
                raise ValueError("ncols required for an empty row list")
            ncols = len(rows[0])
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
        if field.kind == "q":
            return Mat(field, nrows, ncols, _canon(field, np.array(rows, dtype=object).reshape(nrows, ncols)))
        arr = np.array(rows).reshape(nrows, ncols)
        if arr.size and arr.dtype.kind not in "biu":
            # an int64 cast would truncate Fractions and floats silently
            raise TypeError(f"F_p entries must be machine integers, got a {arr.dtype} array")
        return Mat(field, nrows, ncols, _canon(field, arr).astype(np.int64, copy=False))

    # -- basics -------------------------------------------------------

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def row(self, i) -> list:
        return self.data[i].tolist()

    def is_zero(self) -> bool:
        return not self.data.any()

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        if self.field != other.field or self.shape != other.shape:
            return False
        return bool(np.array_equal(self.data, other.data))

    def __repr__(self):
        return f"Mat({self.field.name}, {self.nrows}x{self.ncols})"

    def take_rows(self, indices) -> "Mat":
        indices = np.asarray(indices, dtype=np.intp)
        if self.unit_cols is not None:
            return Mat.unit_rows(self.field, self.unit_cols[indices], self.ncols)
        return Mat(self.field, len(indices), self.ncols, self.data[indices])

    def take_cols(self, indices) -> "Mat":
        return Mat(self.field, self.nrows, len(indices), self.data[:, list(indices)])

    @staticmethod
    def vstack(mats) -> "Mat":
        return _stack(list(mats), 0)

    @staticmethod
    def stack_row_basis(mats) -> "Mat":
        """vstack(mats).row_basis() for a list mats.  When every one is a
        basis map, that is the unit rows at their distinct columns in
        ascending order, read off the column arrays: no stack is built and
        nothing is eliminated."""
        cols = _column_table(mats, mats[0].shape, mats[0].field)
        if cols is None:
            return Mat.vstack(mats).row_basis()
        hit = np.zeros(mats[0].ncols, dtype=bool)
        hit[cols] = True
        return Mat._unit_basis(mats[0].field, hit)

    def push(self, maps) -> "Mat":
        """The products self @ m, m in the list maps (not empty), row by row:
        row i k + j is row i of self @ maps[j].

        That is [self @ maps[0] | self @ maps[1] | ...] read k rows to a row
        of it, and when every m is a basis map one column scatter builds it.
        """
        k, n, ncols = len(maps), self.nrows, maps[0].ncols
        cols = _column_table(maps, (self.ncols, ncols), self.field)
        if cols is None:
            out = Mat.hstack([self @ m for m in maps]).data
        else:
            out = np.zeros((n, k, ncols), dtype=self.data.dtype)
            out[:, np.arange(k)[:, None], cols] = self.data[:, None, :]
        return Mat(self.field, n * k, ncols, out.reshape(n * k, ncols))

    @staticmethod
    def hstack(mats) -> "Mat":
        return _stack(list(mats), 1)

    # -- arithmetic ---------------------------------------------------

    def scale(self, c) -> "Mat":
        c = self.field.from_int(c)  # reduced mod p, so the int64 product cannot overflow
        return Mat(self.field, self.nrows, self.ncols, _canon(self.field, self.data * c))

    def _np_int(self):
        if self._npdata is _UNSET:
            self._npdata = _small_ints(self.data)
        return self._npdata

    def __matmul__(self, other) -> "Mat":
        if self.ncols != other.nrows or self.field != other.field:
            raise ValueError(f"matmul shape/field mismatch {self.shape} @ {other.shape}")
        left, right = self.unit_cols, other.unit_cols
        if left is not None and right is not None:
            # composition: row i goes to e_{left[i]}, then to e_{right[left[i]]}
            return Mat._basis_map(self.field, right[left], other.ncols)
        if left is not None:
            # row gather: row i of the product is row left[i] of other
            out = other.data[left]
        elif right is not None:
            # column scatter: other sends row i to the unit vector e_{right[i]}
            out = np.zeros((self.nrows, other.ncols), dtype=self.data.dtype)
            out[:, right] = self.data
        elif self.field.kind == "fp":
            out = _fp_product(self.data, other.data, self.field.p)
        else:
            out = _q_product(self, other)
        return Mat(self.field, self.nrows, other.ncols, out)

    # -- elimination ---------------------------------------------------

    def rref(self):
        """Reduced row echelon form with unit pivots; returns (R, pivot columns)."""
        data, pivots = _echelon(self)
        k = len(pivots)
        data[:k] = _divide(data[:k], data[np.arange(k), list(pivots)][:, None])
        return Mat(self.field, self.nrows, self.ncols, data), pivots

    def echelon(self):
        """Canonical echelon form: rref over F_p, primitive-integer rref over Q."""
        data, pivots = _echelon(self)
        return Mat(self.field, self.nrows, self.ncols, data), pivots

    def rank(self) -> int:
        return len(self.echelon()[1])

    def row_basis(self) -> "Mat":
        """Canonical basis of the row space (see echelon), carrying its pivots.

        A canonical basis, or a matrix with no rows, is its own basis, so
        asking it again runs no elimination.  A basis map's basis is read off
        its columns (stack_row_basis), and over F_p so is that of rows with at
        most one nonzero entry each, by the scan _rref_fp routes on.
        """
        if self.pivots is not None:
            return self
        if not self.nrows:
            self.pivots = ()
            return self
        if self.unit_cols is not None:
            return Mat.stack_row_basis([self])
        if self.field.kind == "fp":
            hit, counts = _unit_row_scan(self.data)
            if counts is None:
                return Mat._unit_basis(self.field, hit)
        R, pivots = self.echelon()
        basis = R.take_rows(range(len(pivots)))
        basis.pivots = pivots
        return basis

    def left_kernel(self) -> "Mat":
        """Canonical row basis of {v : v @ self = 0}, from one echelon.

        The echelon is of self^T with its columns reversed.  A null row of
        it is m at its free column f, plus entries at pivot columns left of
        f, and zero at every other free column; reversed back, the rows
        lead at distinct columns that are zero in every other row.  So they
        are the canonical basis once scaled: over F_p the lead m is 1
        already, over Q each row is divided by its gcd (m stays positive).

        When no column holds two nonzero entries the nonzero rows are
        independent, and the kernel is read off as the unit rows at the zero
        rows, a basis map; no echelon runs.  A basis map is such a matrix
        with no zero row, and over F_p _rref_fp's scan finds the others on
        the transpose (_unit_row_scan).
        """
        n = self.nrows
        if self.unit_cols is not None:
            return Mat._unit_basis(self.field, np.zeros(n, dtype=bool))
        if self.field.kind == "fp":
            used, counts = _unit_row_scan(self.data.T)
            if counts is None:
                return Mat._unit_basis(self.field, ~used)
        R, pivots = Mat(self.field, self.ncols, n, self.data.T[:, ::-1]).echelon()
        if len(pivots) == n:
            return Mat.zeros(self.field, 0, n).row_basis()
        free, K, _ = _null_rows(R.data, pivots, n)
        K = K[::-1, ::-1]
        if self.field.kind == "fp":
            K = K % self.field.p
        else:
            K = K // np.gcd.reduce(np.abs(K), axis=1)[:, None]
        basis = Mat(self.field, len(free), n, K)
        basis.pivots = tuple(n - 1 - f for f in reversed(free))
        return basis

    def quotient_projection(self):
        """(free, P) for the quotient of k^ncols by the row space U of self.

        free lists the non-pivot columns of U's canonical basis R; the
        standard vectors e_j, j in free, are a basis of a complement of U.
        P (ncols x len(free)) sends v to the coordinates of v mod U in that
        basis: the identity on the free rows, -R[:, free]/pivot on the pivot
        rows.  It equals the last columns of [B; complement_rows(B)].inverse()
        for any basis B of U, from one echelon form and no inverse.  For
        U = 0 that is the identity, kept a basis map.
        """
        R = self.row_basis()
        if not R.pivots:
            return list(range(self.ncols)), Mat.identity(self.field, self.ncols)
        free, K, m = _null_rows(R.data, R.pivots, self.ncols)
        P = _divide(_canon(self.field, K.T), np.array([[m]], dtype=object))
        return free, Mat(self.field, self.ncols, len(free), P)

    def express_rows(self, basis: "Mat") -> "Mat":
        """Solve X @ basis = self against a canonical basis; raises NotInSpan
        if any row is outside its span.

        X is read off the basis's pivot columns, where the basis is
        diagonal, and X @ basis is checked against self on the other
        columns.  A basis that carries no pivots (see row_basis) is refused
        with ValueError.
        """
        if self.ncols != basis.ncols or self.field != basis.field:
            raise ValueError("express_rows shape/field mismatch")
        if basis.pivots is None:
            raise ValueError("express_rows needs a canonical basis (Mat.row_basis)")
        if self.nrows == 0:
            return Mat.zeros(self.field, 0, basis.nrows)
        pivots = list(basis.pivots)
        pv = basis.data[np.arange(basis.nrows), pivots]
        X = Mat(self.field, self.nrows, basis.nrows, _divide(self.data[:, pivots], pv[None, :]))
        if not _product_equals(X, basis, self):
            raise NotInSpan("row outside the span of the basis")
        return X

    def complement_rows(self) -> "Mat":
        """Standard basis vectors completing the row space to the full space."""
        return Mat.unit_rows(self.field, _non_pivots(self.ncols, self.row_basis().pivots), self.ncols)

    def inverse(self) -> "Mat":
        if self.nrows != self.ncols:
            raise ValueError("inverse of non-square matrix")
        n = self.nrows
        R, pivots = Mat.hstack([self, Mat.identity(self.field, n)]).rref()
        if len(pivots) != n or any(pc >= n for pc in pivots):
            raise ValueError("matrix not invertible")
        return R.take_cols(range(n, 2 * n))


def _stack(mats, axis):
    """The matrices one after another along axis 0 (rows) or 1 (columns);
    they must share the field and the other dimension."""
    name = "vh"[axis] + "stack"
    if not mats:
        raise ValueError(f"{name} of nothing")
    if any(m.shape[1 - axis] != mats[0].shape[1 - axis] or m.field != mats[0].field for m in mats):
        raise ValueError(f"{name} shape/field mismatch")
    data = np.concatenate([m.data for m in mats], axis=axis)
    return Mat(mats[0].field, *data.shape, data)


def _column_table(maps, shape, field):
    """The column arrays of maps as the rows of one array, or None unless
    every one is a basis map of this shape over this field."""
    if any(m.unit_cols is None or m.shape != shape or m.field != field for m in maps):
        return None
    return np.concatenate([m.unit_cols for m in maps]).reshape(len(maps), shape[0])


def _non_pivots(n, pivots) -> list:
    """The columns 0..n-1 outside pivots, ascending."""
    piv = set(pivots)
    return [j for j in range(n) if j not in piv]


def _null_rows(R, pivots, n):
    """Non-pivot columns of an echelon array R (n columns) and its null rows.

    Row j of K is m e_{free[j]} minus the pivot columns' share of column
    free[j] of R, with m the lcm of the pivots so that it stays integral
    over Q; the rows of K span {v : R @ v^T = 0}.  Returns (free, K, m).
    """
    free = _non_pivots(n, pivots)
    k = len(pivots)
    pv = R[np.arange(k), list(pivots)]
    m = lcm(*pv.tolist())
    K = np.zeros((len(free), n), dtype=R.dtype)
    K[np.arange(len(free)), free] = m
    K[:, list(pivots)] = -(R[:k, free] * (m // pv)[:, None]).T
    return free, K, m


def _product_equals(X: Mat, B: Mat, M: Mat) -> bool:
    """X @ B == M on the columns of the canonical basis B outside its pivots."""
    other = _non_pivots(B.ncols, B.pivots)
    if not other:
        return True
    B_other = Mat(B.field, B.nrows, len(other), B.data.take(other, axis=1))
    return bool(np.array_equal((X @ B_other).data, M.data.take(other, axis=1)))
