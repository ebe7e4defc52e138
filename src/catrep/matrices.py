"""Dense exact matrices over F_p or Q, with the rank/kernel/complement kit.

Two storage backends sit behind one class: prime-field matrices are numpy
int64 arrays (all arithmetic stays integral, reduced mod p), rational
matrices are lists of rows holding Python ints or Fractions.  Subspaces are
represented throughout the package as *row* spaces; the canonical basis of a
row space is the reduced echelon form, over Q scaled to primitive integer
rows with positive pivots, so equal subspaces compare bit-for-bit equal.

Rational elimination is fraction-free: rows are cleared to integers up
front, cross-multiplication updates keep them integral, and each update is
reduced by its gcd, so Fractions only appear where a contract demands unit
pivots (rref) or rational solution entries.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import numpy as np

from .fields import _qnorm, check_rational_bits


class NotInSpan(Exception):
    """Signals that a vector lies outside the span it was solved against."""


_UNSET = object()


# integer-valued rational matrices ride int64 numpy kernels below this bound;
# anything larger (or fractional) takes the arbitrary-precision Python path
_NP_ENTRY_BOUND = 1 << 30


def _np_int_array(rows, nrows, ncols):
    """int64 array for all-int rows within the fast-path bound, else None.

    The type scan is essential: numpy would otherwise coerce Fractions via
    __int__, silently truncating them.
    """
    if nrows == 0 or ncols == 0:
        return np.zeros((nrows, ncols), dtype=np.int64)
    for row in rows:
        for x in row:
            if type(x) is not int:
                return None
    try:
        arr = np.array(rows, dtype=np.int64)
    except (TypeError, ValueError, OverflowError):
        return None
    if arr.shape != (nrows, ncols):
        return None
    if np.abs(arr).max() >= _NP_ENTRY_BOUND:
        return None
    return arr


def _echelon_q_np(arr):
    """Vectorized fraction-free Gauss-Jordan; None when entries outgrow int64."""
    work = arr.copy()
    nr, nc = work.shape
    pivots = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        col = work[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            work[[r, i]] = work[[i, r]]
        prow = work[r]
        pv = int(prow[c])
        biggest = int(np.abs(work).max())
        if biggest and abs(pv) > (1 << 61) // (2 * biggest):
            return None
        f = work[:, c].copy()
        f[r] = 0
        mask = f != 0
        if mask.any():
            updated = work[mask] * pv - np.outer(f[mask], prow)
            g = np.gcd.reduce(np.abs(updated), axis=1)
            g[g == 0] = 1
            work[mask] = updated // g[:, None]
        if np.abs(work).max() >= _NP_ENTRY_BOUND:
            return None
        pivots.append(c)
        r += 1
    for k, c in enumerate(pivots):
        row = work[k]
        g = int(np.gcd.reduce(np.abs(row)))
        if g > 1:
            row = row // g
        if row[c] < 0:
            row = -row
        work[k] = row
    work[len(pivots):] = 0
    return work, tuple(pivots)


def _int_rows(rows):
    """Clear denominators row by row; all-int rows pass through as copies."""
    out = []
    for row in rows:
        den = 1
        for x in row:
            if type(x) is not int:
                d = x.denominator
                den = den // gcd(den, d) * d
        if den == 1:
            out.append(list(row))
            continue
        ints = [x * den if type(x) is int else int(x * den) for x in row]
        g = 0
        for x in ints:
            g = gcd(g, x)
        if g > 1:
            ints = [x // g for x in ints]
        out.append(ints)
    return out


def _echelon_q(rows):
    """Fraction-free reduced echelon form over Q.

    Returns (rows, pivots) with primitive integer rows, positive pivots,
    zeros above and below every pivot.  This is the canonical basis of the
    row space (the unit-pivot RREF rescaled row by row).
    """
    work = _int_rows(rows)
    nr = len(work)
    nc = len(work[0]) if work else 0
    from .fields import rational_bit_limit

    arr = _np_int_array(work, nr, nc) if rational_bit_limit() >= 31 else None
    if arr is not None:
        fast = _echelon_q_np(arr)
        if fast is not None:
            out, pivots = fast
            return [[int(x) for x in row] for row in out], pivots
    pivots = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        pivot_at = None
        for i in range(r, nr):
            if work[i][c]:
                pivot_at = i
                break
        if pivot_at is None:
            continue
        if pivot_at != r:
            work[r], work[pivot_at] = work[pivot_at], work[r]
        prow = work[r]
        pv = prow[c]
        for i in range(nr):
            if i == r:
                continue
            f = work[i][c]
            if f:
                ri = work[i]
                new = [pv * a - f * b for a, b in zip(ri, prow)]
                g = 0
                for x in new:
                    g = gcd(g, x)
                if g > 1:
                    new = [x // g for x in new]
                work[i] = new
        check_rational_bits(max((abs(x) for x in prow), default=0))
        pivots.append(c)
        r += 1
    # canonical signs and per-row primitive reduction of the pivot rows
    for k, c in enumerate(pivots):
        row = work[k]
        g = 0
        for x in row:
            g = gcd(g, x)
        if g > 1:
            row = [x // g for x in row]
        if row[c] < 0:
            row = [-x for x in row]
        work[k] = row
    return [work[k] for k in range(len(pivots))] + [
        [0] * nc for _ in range(nr - len(pivots))
    ], tuple(pivots)


class Mat:
    """An immutable dense matrix over an exact field.

    Do not mutate ``data`` after construction; all operations return new
    matrices.  For F_p the payload is a numpy int64 array, for Q a list of
    row lists.
    """

    __slots__ = ("field", "nrows", "ncols", "data", "_unit_cols", "_npdata")

    def __init__(self, field, nrows, ncols, data):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.data = data
        self._unit_cols = _UNSET  # lazily computed basis-map tag
        self._npdata = _UNSET  # lazily computed int64 view (Q fast path)

    # -- constructors -------------------------------------------------

    @staticmethod
    def zeros(field, nrows, ncols) -> "Mat":
        if field.kind == "fp":
            return Mat(field, nrows, ncols, np.zeros((nrows, ncols), dtype=np.int64))
        return Mat(field, nrows, ncols, [[0] * ncols for _ in range(nrows)])

    @staticmethod
    def identity(field, n) -> "Mat":
        if field.kind == "fp":
            return Mat(field, n, n, np.eye(n, dtype=np.int64))  # p >= 2: already reduced
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = 1
        return Mat(field, n, n, rows)

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
        if field.kind == "fp":
            arr = np.array(rows, dtype=np.int64).reshape((nrows, ncols)) % field.p
            return Mat(field, nrows, ncols, arr)
        rows = [[_qnorm(x) for x in r] for r in rows]
        return Mat(field, nrows, ncols, rows)

    # -- basics -------------------------------------------------------

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def row(self, i) -> list:
        if self.field.kind == "fp":
            return [int(x) for x in self.data[i]]
        return list(self.data[i])

    def rows(self) -> list:
        return [self.row(i) for i in range(self.nrows)]

    def entry(self, i, j):
        if self.field.kind == "fp":
            return int(self.data[i][j])
        return self.data[i][j]

    def is_zero(self) -> bool:
        if self.field.kind == "fp":
            return not self.data.any()
        return all(all(x == 0 for x in r) for r in self.data)

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        if self.field != other.field or self.shape != other.shape:
            return False
        if self.field.kind == "fp":
            return bool(np.array_equal(self.data, other.data))
        return all(self.row(i) == other.row(i) for i in range(self.nrows))

    def __hash__(self):
        return hash((self.field, self.shape, tuple(tuple(r) for r in self.rows())))

    def __repr__(self):
        return f"Mat({self.field.name}, {self.nrows}x{self.ncols})"

    def take_rows(self, indices) -> "Mat":
        if self.field.kind == "fp":
            return Mat(self.field, len(indices), self.ncols, self.data[list(indices)])
        return Mat(self.field, len(indices), self.ncols, [list(self.data[i]) for i in indices])

    def take_cols(self, indices) -> "Mat":
        if self.field.kind == "fp":
            return Mat(self.field, self.nrows, len(indices), self.data[:, list(indices)])
        rows = [[r[j] for j in indices] for r in self.data]
        return Mat(self.field, self.nrows, len(indices), rows)

    def transpose(self) -> "Mat":
        if self.field.kind == "fp":
            return Mat(self.field, self.ncols, self.nrows, self.data.T.copy())
        rows = [[self.data[i][j] for i in range(self.nrows)] for j in range(self.ncols)]
        return Mat(self.field, self.ncols, self.nrows, rows)

    @staticmethod
    def vstack(mats) -> "Mat":
        mats = list(mats)
        if not mats:
            raise ValueError("vstack of nothing")
        field, ncols = mats[0].field, mats[0].ncols
        for m in mats:
            if m.ncols != ncols or m.field != field:
                raise ValueError("vstack shape/field mismatch")
        nrows = sum(m.nrows for m in mats)
        if field.kind == "fp":
            return Mat(field, nrows, ncols, np.vstack([m.data for m in mats]))
        rows = []
        for m in mats:
            rows.extend(list(r) for r in m.data)
        return Mat(field, nrows, ncols, rows)

    @staticmethod
    def hstack(mats) -> "Mat":
        mats = list(mats)
        if not mats:
            raise ValueError("hstack of nothing")
        field, nrows = mats[0].field, mats[0].nrows
        for m in mats:
            if m.nrows != nrows or m.field != field:
                raise ValueError("hstack shape/field mismatch")
        ncols = sum(m.ncols for m in mats)
        if field.kind == "fp":
            return Mat(field, nrows, ncols, np.hstack([m.data for m in mats]))
        rows = [sum((list(m.data[i]) for m in mats), []) for i in range(nrows)]
        return Mat(field, nrows, ncols, rows)

    # -- arithmetic ---------------------------------------------------

    def __sub__(self, other) -> "Mat":
        self._check_same_shape(other)
        if self.field.kind == "fp":
            return Mat(self.field, self.nrows, self.ncols, (self.data - other.data) % self.field.p)
        rows = [
            [_qnorm(a - b) for a, b in zip(ra, rb)]
            for ra, rb in zip(self.data, other.data)
        ]
        return Mat(self.field, self.nrows, self.ncols, rows)

    def scale(self, c) -> "Mat":
        if self.field.kind == "fp":
            return Mat(self.field, self.nrows, self.ncols, (self.data * (c % self.field.p)) % self.field.p)
        return Mat(self.field, self.nrows, self.ncols, [[_qnorm(c * x) for x in r] for r in self.data])

    def _basis_map_cols(self):
        """Column index per row when every row is a single unit entry, else None.

        Free-module action matrices have this shape (basis maps to basis
        injectively), which turns multiplication into a column scatter.
        """
        if self._unit_cols is not _UNSET:
            return self._unit_cols
        cols = None
        if self.nrows and self.ncols:
            if self.field.kind == "fp":
                nz = self.data != 0
                counts = nz.sum(axis=1)
                if counts.max(initial=0) == 1 and counts.min(initial=2) == 1:
                    idx = nz.argmax(axis=1)
                    vals = self.data[np.arange(self.nrows), idx]
                    if (vals == self.field.one()).all() and len(set(idx.tolist())) == self.nrows:
                        cols = idx.tolist()
            else:
                idx = []
                ok = True
                for row in self.data:
                    hits = [j for j, x in enumerate(row) if x != 0]
                    if len(hits) != 1 or row[hits[0]] != 1:
                        ok = False
                        break
                    idx.append(hits[0])
                if ok and len(set(idx)) == len(idx):
                    cols = idx
        self._unit_cols = cols
        return cols

    def _np_int(self):
        if self._npdata is _UNSET:
            self._npdata = _np_int_array(self.data, self.nrows, self.ncols)
        return self._npdata

    def __matmul__(self, other) -> "Mat":
        if self.ncols != other.nrows or self.field != other.field:
            raise ValueError(f"matmul shape/field mismatch {self.shape} @ {other.shape}")
        cols = other._basis_map_cols() if other.nrows else None
        if cols is not None:
            # column scatter: other sends row i to unit vector e_{cols[i]}
            out = Mat.zeros(self.field, self.nrows, other.ncols)
            if self.field.kind == "fp":
                out.data[:, cols] = self.data
            else:
                for i, row in enumerate(self.data):
                    orow = out.data[i]
                    for k, c in enumerate(cols):
                        orow[c] = row[k]
            return out
        if self.field.kind == "fp":
            return Mat(self.field, self.nrows, other.ncols, (self.data @ other.data) % self.field.p)
        a_np, b_np = self._np_int(), other._np_int()
        if a_np is not None and b_np is not None and self.ncols:
            bound = int(np.abs(a_np).max(initial=0)) * int(np.abs(b_np).max(initial=0)) * self.ncols
            if bound < 1 << 62:
                prod = a_np @ b_np
                return Mat(self.field, self.nrows, other.ncols,
                           [[int(x) for x in row] for row in prod])
        nc = other.ncols
        brows = other.data
        out = []
        for arow in self.data:
            acc = [0] * nc
            for k, aval in enumerate(arow):
                if aval:
                    brow = brows[k]
                    if aval == 1:
                        for j, bv in enumerate(brow):
                            if bv:
                                acc[j] += bv
                    else:
                        for j, bv in enumerate(brow):
                            if bv:
                                acc[j] += aval * bv
            out.append([_qnorm(x) for x in acc])
        return Mat(self.field, self.nrows, nc, out)

    def _check_same_shape(self, other):
        if self.shape != other.shape or self.field != other.field:
            raise ValueError("shape/field mismatch")

    # -- elimination ---------------------------------------------------

    def rref(self):
        """Reduced row echelon form with unit pivots; returns (R, pivot columns)."""
        if self.field.kind == "fp":
            return self._rref_fp()
        rows, pivots = _echelon_q(self.data)
        out = []
        for k, row in enumerate(rows):
            if k < len(pivots):
                pv = row[pivots[k]]
                if pv != 1:
                    row = [_qnorm(Fraction(x, pv)) for x in row]
            out.append(row)
        return Mat(self.field, self.nrows, self.ncols, out), pivots

    def _rref_fp(self):
        p = self.field.p
        A = self.data.copy()
        nr, nc = self.nrows, self.ncols
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
        return Mat(self.field, nr, nc, A), tuple(pivots)

    def echelon(self):
        """Canonical echelon form: rref over F_p, primitive-integer rref over Q."""
        if self.field.kind == "fp":
            return self._rref_fp()
        rows, pivots = _echelon_q(self.data)
        return Mat(self.field, self.nrows, self.ncols, rows), pivots

    def rank(self) -> int:
        return len(self.echelon()[1])

    def row_basis_pivots(self):
        """Canonical row-space basis together with its pivot columns."""
        R, pivots = self.echelon()
        rk = len(pivots)
        return R.take_rows(range(rk)), pivots

    def row_basis(self) -> "Mat":
        """Canonical basis of the row space (see echelon)."""
        return self.row_basis_pivots()[0]

    def left_kernel(self) -> "Mat":
        """Canonical row basis of {v : v @ self = 0}."""
        R, pivots = self.transpose().echelon()
        n = self.nrows
        free = [j for j in range(n) if j not in pivots]
        if not free:
            return Mat.zeros(self.field, 0, n)
        rows = []
        pivset = list(pivots)
        if self.field.kind == "fp":
            for j in free:
                v = [0] * n
                v[j] = 1
                for k, pc in enumerate(pivset):
                    v[pc] = -R.entry(k, j) % self.field.p
                rows.append(v)
        else:
            for j in free:
                v = [Fraction(0)] * n
                v[j] = Fraction(1)
                for k, pc in enumerate(pivset):
                    pv = R.entry(k, pc)
                    v[pc] = -Fraction(R.entry(k, j), pv)
                rows.append(v)
        return Mat.from_rows(self.field, rows, n).row_basis()

    def right_kernel_cols(self) -> "Mat":
        """Matrix K with independent columns spanning ker(self), self @ K = 0."""
        return self.transpose().left_kernel().transpose()

    def express_rows(self, basis: "Mat", pivots=None, verify: bool = True) -> "Mat":
        """Solve X @ basis = self; raises NotInSpan if any row is outside.

        When the basis is a canonical echelon basis (the package invariant
        for submodule bases) the solution reads off the pivot columns;
        ``pivots`` can be supplied to skip redetection, and ``verify=False``
        skips the product check when membership is guaranteed by theory.
        """
        if self.ncols != basis.ncols or self.field != basis.field:
            raise ValueError("express_rows shape/field mismatch")
        if self.nrows == 0:
            return Mat.zeros(self.field, 0, basis.nrows)
        if pivots is None:
            pivots = _detect_echelon_pivots(basis)
        if pivots is not None:
            X = self._express_by_pivots(basis, pivots)
            if verify and not _product_equals(X, basis, self):
                raise NotInSpan("row outside the span of the basis")
            return X
        return self._express_general(basis)

    def _express_by_pivots(self, basis: "Mat", pivots) -> "Mat":
        if self.field.kind == "fp":
            X = self.data[:, list(pivots)]
            if basis.nrows:
                pv = basis.data[np.arange(basis.nrows), list(pivots)]
                inv = np.array([pow(int(x), self.field.p - 2, self.field.p) for x in pv],
                               dtype=np.int64)
                X = (X * inv[None, :]) % self.field.p
            return Mat(self.field, self.nrows, basis.nrows, X)
        rows = []
        pvs = [basis.data[k][pc] for k, pc in enumerate(pivots)]
        for row in self.data:
            out = []
            for k, pc in enumerate(pivots):
                x = row[pc]
                pv = pvs[k]
                if pv == 1:
                    out.append(x)
                elif type(x) is int:
                    out.append(_qnorm(Fraction(x, pv)))
                else:
                    out.append(_qnorm(x / pv))
            rows.append(out)
        return Mat.from_rows(self.field, rows, basis.nrows)

    def _express_general(self, basis: "Mat") -> "Mat":
        aug = Mat.hstack([basis.transpose(), self.transpose()])
        R, pivots = aug.rref()
        b = basis.nrows
        for pc in pivots:
            if pc >= b:
                raise NotInSpan("row outside the span of the basis")
        coeff_rows = []
        pivlist = list(pivots)
        for i in range(self.nrows):
            col = b + i
            v = [0] * b
            for k, pc in enumerate(pivlist):
                v[pc] = R.entry(k, col)
            coeff_rows.append(v)
        return Mat.from_rows(self.field, coeff_rows, b)

    def complement_rows(self) -> "Mat":
        """Standard basis vectors completing the row space to the full space."""
        _, pivots = self.echelon()
        other = [j for j in range(self.ncols) if j not in pivots]
        rows = []
        for j in other:
            v = [0] * self.ncols
            v[j] = 1
            rows.append(v)
        return Mat.from_rows(self.field, rows, self.ncols) if rows else Mat.zeros(self.field, 0, self.ncols)

    def inverse(self) -> "Mat":
        if self.nrows != self.ncols:
            raise ValueError("inverse of non-square matrix")
        n = self.nrows
        R, pivots = Mat.hstack([self, Mat.identity(self.field, n)]).rref()
        if len(pivots) != n or any(pc >= n for pc in pivots):
            raise ValueError("matrix not invertible")
        return R.take_cols(range(n, 2 * n))


def _detect_echelon_pivots(basis: Mat):
    """Pivot columns when basis rows are in clean echelon form, else None."""
    pivots = []
    last = -1
    for i in range(basis.nrows):
        row = basis.row(i)
        pc = next((j for j, x in enumerate(row) if x != 0), None)
        if pc is None or pc <= last:
            return None
        pivots.append(pc)
        last = pc
    for k, pc in enumerate(pivots):
        for i in range(basis.nrows):
            if i != k and basis.entry(i, pc) != 0:
                return None
    return tuple(pivots)


def _product_equals(X: Mat, B: Mat, M: Mat) -> bool:
    return (X @ B) == M


# -- spec-facing operation names -------------------------------------


def row_reduce(A: Mat):
    """Reduced row echelon form of A plus its pivot columns."""
    return A.rref()


def kernel_basis(A: Mat) -> Mat:
    """Columns spanning ker(A): A @ K = 0 with independent columns."""
    return A.right_kernel_cols()


def membership(A: Mat, b: Mat) -> Mat:
    """Solve A @ x = b for a single column b; raises NotInSpan."""
    if b.ncols != 1 or b.nrows != A.nrows:
        raise ValueError("b must be a column with A's row count")
    x_rows = b.transpose().express_rows(A.transpose())
    return x_rows.transpose()


def complement_basis(S: Mat) -> Mat:
    """Columns completing span(columns of S) to the ambient space k^n."""
    return S.transpose().complement_rows().transpose()
