"""Field and dense-matrix layer: contract examples plus property tests."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from catrep import matrices
from catrep.fields import PrimeField, QQ, RationalOverflowError, parse_field
from catrep.matrices import Mat, NotInSpan

F2 = parse_field("fp:2")
F3 = parse_field("fp:3")
F7 = parse_field("fp:7")
F101 = parse_field("fp:101")


def test_parse_field():
    assert parse_field("q") is QQ
    assert parse_field("fp:101").p == 101
    with pytest.raises(ValueError):
        parse_field("fp:100")
    with pytest.raises(ValueError):
        parse_field("r")


def test_rational_lowest_terms():
    assert QQ.parse("-3/6") == Fraction(-1, 2)
    assert QQ.format(Fraction(1, 2)) == "1/2"
    assert QQ.format(7) == "7"


@pytest.mark.parametrize("field, text, value", [
    (QQ, "3", 3), (QQ, "-3/6", Fraction(-1, 2)), (QQ, "3/-6", Fraction(-1, 2)),
    (QQ, "4/2", 2), (QQ, "1/7", Fraction(1, 7)),
    (F7, "3", 3), (F7, "-3/6", 3), (F7, "3/6", 4), (F7, "10", 3), (F7, "-1", 6),
])
def test_parse_accepts(field, text, value):
    got = field.parse(text)
    assert got == value and type(got) is type(value)


@pytest.mark.parametrize("field, text, error", [
    (QQ, "1/0", ZeroDivisionError), (F7, "1/0", ZeroDivisionError), (F7, "1/7", ZeroDivisionError),
    *[(f, t, ValueError) for f in (QQ, F7) for t in ("1/", "/2", "x", "x/0")],
])
def test_parse_rejects(field, text, error):
    with pytest.raises(error):
        field.parse(text)


def test_row_reduce_zero_and_identity():
    Z = Mat.zeros(QQ, 2, 3)
    R, piv = Z.rref()
    assert R == Z and piv == ()
    I3 = Mat.identity(F101, 3)
    R, piv = I3.rref()
    assert R == I3 and piv == (0, 1, 2)


def test_row_reduce_rational_example():
    # hand Gaussian elimination of [[1,2],[2,4]]
    A = Mat.from_rows(QQ, [[1, 2], [2, 4]])
    R, piv = A.rref()
    assert R.rows() == [[1, 2], [0, 0]]
    assert piv == (0,)


def test_kernel_basis_identity_and_zero():
    # rows spanning {v : A @ v^T = 0}: the left kernel of the transpose
    assert Mat.identity(QQ, 3).transpose().left_kernel().nrows == 0
    K = Mat.zeros(F3, 2, 4).transpose().left_kernel()
    assert K.nrows == 4 and K.rank() == 4


def test_kernel_basis_f2_brute_force():
    # oracle: enumerate all of F_2^2 and test annihilation directly
    A = Mat.from_rows(F2, [[1, 1]])
    expected = [
        v for v in itertools.product(range(2), repeat=2)
        if (v[0] * 1 + v[1] * 1) % 2 == 0 and any(v)
    ]
    assert expected == [(1, 1)]
    K = A.transpose().left_kernel()
    assert K.nrows == 1
    assert K.row(0) == [1, 1]


def test_membership_examples():
    # solve x @ A = b for a row b and a canonical basis A, raising NotInSpan
    # when b is outside
    b = Mat.from_rows(QQ, [[5, 7]])
    x = b.express_rows(Mat.identity(QQ, 2))
    assert x == b
    with pytest.raises(NotInSpan):
        b.express_rows(Mat.zeros(QQ, 2, 2).row_basis())
    # a Fraction solution comes out exact: the canonical Q basis keeps its
    # primitive integer row, so the coefficient is 3 / 2
    basis = Mat.from_rows(QQ, [[2, 1]]).row_basis()
    assert basis.rows() == [[2, 1]] and basis.pivots == (0,)
    x = Mat.from_rows(QQ, [[3, Fraction(3, 2)]]).express_rows(basis)
    assert x.rows() == [[Fraction(3, 2)]]


def test_complement_basis_examples():
    full = Mat.identity(F3, 2)
    assert full.complement_rows().nrows == 0
    zero = Mat.zeros(F3, 0, 2)
    C = zero.complement_rows()
    assert C.nrows == 2 and C.rank() == 2
    # brute force over F_3^2: one vector outside span{(1,1)}
    S = Mat.from_rows(F3, [[1, 1]])
    C = S.complement_rows()
    assert C.nrows == 1
    assert Mat.vstack([S, C]).rank() == 2


def _random_mat(field, rows, cols, entries):
    return Mat.from_rows(field, [entries[i * cols : (i + 1) * cols] for i in range(rows)], cols)


@st.composite
def small_matrix(draw, fields=(QQ, F101, F2)):
    field = draw(st.sampled_from(fields))
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    if field.kind == "q":
        pool = st.integers(-6, 6)
    else:
        pool = st.integers(0, field.p - 1)
    entries = draw(st.lists(pool, min_size=rows * cols, max_size=rows * cols))
    return _random_mat(field, rows, cols, entries)


@settings(max_examples=60, deadline=None)
@given(small_matrix())
def test_rref_idempotent_and_rank_nullity(A):
    R, piv = A.rref()
    R2, piv2 = R.rref()
    assert R == R2 and piv == piv2
    K = A.transpose().left_kernel()
    assert (A @ K.transpose()).is_zero()
    assert len(piv) + K.nrows == A.ncols
    assert K.rank() == K.nrows


@settings(max_examples=60, deadline=None)
@given(small_matrix())
def test_complement_completes(A):
    C = A.transpose().complement_rows()
    assert Mat.vstack([A.transpose(), C]).rank() == A.nrows
    assert A.take_cols([]).ncols == 0


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_q_matmul_matches_naive(data):
    # every Q product tier: int64, Python ints, and Fractions cleared of
    # denominators per row and column
    A = data.draw(exact_matrix(QQ))
    B = data.draw(exact_matrix(QQ, rows=A.ncols))
    prod = A @ B
    for i in range(A.nrows):
        for j in range(B.ncols):
            acc = sum(A.entry(i, k) * B.entry(k, j) for k in range(A.ncols))
            assert prod.entry(i, j) == acc
    assert_storage(prod)


def test_q_product_past_the_int64_bound_takes_python_ints(monkeypatch):
    # integral operands below the fast-path bound have int64 copies, but
    # their partial sums reach (2^30 - 1)^2 k for inner dimension k: below
    # 2^62 at k = 4, not at k = 5
    big = (1 << 30) - 1
    assert big < matrices._NP_ENTRY_BOUND
    refused = []
    small_product = matrices._small_product

    def spy(x, y):
        out = small_product(x, y)
        if x is not None and y is not None and out is None:
            refused.append(x.shape[1])
        return out

    monkeypatch.setattr(matrices, "_small_product", spy)
    for k, refusals in ((4, []), (5, [5, 5])):
        refused.clear()
        A = Mat.from_rows(QQ, [[big] * k, [-big] * k])
        B = Mat.from_rows(QQ, [[big, 1]] * k)
        prod = A @ B
        assert refused == refusals
        assert prod.rows() == [[sum(a * b for a, b in zip(row, col)) for col in zip(*B.rows())]
                               for row in A.rows()]
        assert_storage(prod)


@settings(max_examples=50, deadline=None)
@given(small_matrix())
def test_row_basis_canonical(A):
    B = A.row_basis()
    # same row space, canonical: recomputing from shuffled stacked rows agrees
    C = Mat.vstack([A, B]).row_basis()
    assert C == B
    if A.field.kind == "q":
        for row in B.rows():
            assert all(type(x) is int for x in row)


def test_express_rows_detects_outside():
    basis = Mat.from_rows(QQ, [[1, 0, 0]]).row_basis()
    with pytest.raises(NotInSpan):
        Mat.from_rows(QQ, [[0, 1, 0]]).express_rows(basis)
    X = Mat.from_rows(QQ, [[5, 0, 0]]).express_rows(basis)
    assert X.entry(0, 0) == 5


def test_rational_growth_guard(monkeypatch):
    monkeypatch.setenv("CATREP_MAX_RATIONAL_BITS", "16")
    big = 1 << 40
    A = Mat.from_rows(QQ, [[big, 1], [1, big]])
    with pytest.raises(RationalOverflowError):
        A.rref()


def test_no_floats_accepted():
    with pytest.raises(TypeError):
        Mat.from_rows(QQ, [[0.5]])
    # over F_p an int64 cast would truncate these silently
    for bad in (Fraction(1, 2), 0.5, Fraction(4, 2)):
        with pytest.raises(TypeError):
            Mat.from_rows(F101, [[1, bad]])
    # and a non-integer scalar would leave the int64 residue storage
    for bad in (Fraction(3, 2), 2.5):
        with pytest.raises(TypeError):
            Mat.identity(F101, 2).scale(bad)


def test_numpy_integers_accepted():
    # exact integers of any type are taken, and stored as Python ints
    for field, expect in ((QQ, [[1, -2]]), (F101, [[1, 99]])):
        m = Mat.from_rows(field, np.array([[1, -2]]))
        assert m.rows() == expect
        assert_storage(m)
    assert Mat.from_rows(QQ, [[np.int32(3), True]]).rows() == [[3, 1]]
    with pytest.raises(TypeError):
        Mat.from_rows(QQ, np.array([[1.0, 2.0]]))


# -- storage form and a sympy oracle for the kernels ------------------

# Q matrices draw from one pool each: small ints, ints up to 2^29 (int64
# elimination that has to restart on Python ints), ints from 2^30 (Python
# ints from the start), Fractions, or all of these; zeros are frequent so
# that ranks drop and products stay sparse
_Q_SMALL = st.integers(-6, 6)
_Q_MID = st.integers(1 << 20, 1 << 29).map(lambda x: x * (-1) ** (x & 1))
_Q_BIG = st.integers(1 << 30, 1 << 40).map(lambda x: x * (-1) ** (x & 1))
_Q_FRAC = st.fractions(-9, 9, max_denominator=7)
Q_POOLS = [st.one_of(st.just(0), pool) for pool in
           (_Q_SMALL, _Q_MID, _Q_BIG, _Q_FRAC, st.one_of(_Q_SMALL, _Q_MID, _Q_BIG, _Q_FRAC))]


@st.composite
def exact_matrix(draw, field=None, rows=None, cols=None):
    field = field or draw(st.sampled_from((QQ, F101, F2)))
    rows = draw(st.integers(1, 5)) if rows is None else rows
    cols = draw(st.integers(1, 5)) if cols is None else cols
    pool = draw(st.sampled_from(Q_POOLS)) if field is QQ else st.integers(0, field.p - 1)
    return Mat.from_rows(field, draw(st.lists(st.lists(pool, min_size=cols, max_size=cols),
                                              min_size=rows, max_size=rows)), cols)


def assert_storage(m):
    """Q entries are ints or Fractions with denominator > 1; F_p entries ints in [0, p)."""
    if m.field is QQ:
        assert m.data.dtype == object
        for x in m.data.flat:
            assert type(x) is int or (type(x) is Fraction and x.denominator > 1), repr(x)
    else:
        assert m.data.dtype == np.int64
        for row in m.rows():
            assert all(type(x) is int and 0 <= x < m.field.p for x in row)
        assert all(type(m.entry(i, j)) is int for i in range(m.nrows) for j in range(m.ncols))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_storage_form(data):
    A = data.draw(exact_matrix())
    field = A.field
    B = data.draw(exact_matrix(field, rows=A.ncols))
    perm = data.draw(st.permutations(range(A.ncols)))
    R, _ = A.rref()
    E, _ = A.echelon()
    basis = A.row_basis()
    X = data.draw(exact_matrix(field, cols=basis.nrows)) if basis.nrows else None
    results = [
        A @ Mat.identity(field, A.ncols).take_rows(perm),  # column scatter
        A @ B, B.transpose() @ A.transpose(),
        A - data.draw(exact_matrix(field, rows=A.nrows, cols=A.ncols)),
        A.scale(3), A.scale(Fraction(3, 2) if field is QQ else 2),
        R, E, A.left_kernel(), A.complement_rows(),
        Mat.vstack([A, R]), Mat.hstack([A, E]), A.take_rows([0]), A.take_cols([0]), A.transpose(),
    ]
    if X is not None:
        M = X @ basis
        results += [M, M.express_rows(basis)]
    if A.nrows == A.ncols and A.rank() == A.nrows:
        results.append(A.inverse())
    # each Q product path once for sure: int64, Python ints, Fractions whose
    # products come out integral, and the scatter
    ints = Mat.from_rows(QQ, [[1, 2], [0, 3]])
    big = Mat.from_rows(QQ, [[1 << 40, 1], [0, 1]])
    halves = Mat.from_rows(QQ, [[Fraction(1, 2), 0], [Fraction(-3, 2), Fraction(1, 3)]])
    results += [ints @ ints, big @ ints, halves @ ints.scale(6), halves @ Mat.identity(QQ, 2)]
    for m in results:
        assert_storage(m)


def _domain(field):
    sympy = pytest.importorskip("sympy")
    return sympy.QQ if field is QQ else sympy.GF(field.p)


def _to_domain(m):
    from sympy.polys.matrices import DomainMatrix

    K = _domain(m.field)
    if m.field is QQ:
        rows = [[K(x.numerator, x.denominator) for x in r] for r in m.rows()]
    else:
        rows = [[K(x) for x in r] for r in m.rows()]
    return DomainMatrix(rows, m.shape, K)


def _from_domain(field, dm):
    if field is QQ:
        return Mat.from_rows(QQ, [[Fraction(int(x.numerator), int(x.denominator)) for x in r]
                                  for r in dm.to_list()], dm.shape[1])
    return Mat.from_rows(field, [[int(x) % field.p for x in r] for r in dm.to_list()], dm.shape[1])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_kernels_match_sympy(data):
    A = data.draw(exact_matrix())
    field, dA = A.field, _to_domain(A)
    R, pivots = A.rref()
    dR, dpivots = dA.rref()
    assert (R, pivots) == (_from_domain(field, dR), tuple(dpivots))
    assert A.rank() == dA.rank()
    # left kernel, compared by row space: the canonical bases agree
    K = A.left_kernel()
    dK = _from_domain(field, dA.transpose().nullspace())
    assert K.nrows == dK.nrows == A.nrows - A.rank()
    assert K == dK.row_basis()
    assert (_to_domain(K) * dA).is_zero_matrix
    # express_rows: the coefficients against independent rows are unique
    basis = A.row_basis()
    if basis.nrows:
        X = data.draw(exact_matrix(field, cols=basis.nrows))
        M = _from_domain(field, _to_domain(X) * _to_domain(basis))
        assert M.express_rows(basis) == X
    if A.nrows == A.ncols:
        if dA.rank() == A.nrows:
            assert A.inverse() == _from_domain(field, dA.inv())
        else:
            with pytest.raises(ValueError):
                A.inverse()


# -- the one-echelon left kernel against the two-echelon reference ----

def _left_kernel_two_echelons(A):
    """Reference: echelon A^T, build its null rows, then echelon those rows again."""
    R, pivots = A.transpose().echelon()
    n = A.nrows
    if len(pivots) == n:
        return Mat.zeros(A.field, 0, n).row_basis()
    free, K, _ = matrices._null_rows(R.data, pivots, n)
    return Mat(A.field, len(free), n, matrices._canon(A.field, K)).row_basis()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_left_kernel_matches_the_two_echelon_reference(data):
    field = data.draw(st.sampled_from((F2, F101, QQ)))
    rows, cols = data.draw(st.integers(0, 7)), data.draw(st.integers(0, 7))
    A = data.draw(exact_matrix(field, rows=rows, cols=cols))
    shape = data.draw(st.sampled_from(("random", "zero", "full", "dependent")))
    if shape == "zero":
        A = Mat.zeros(field, rows, cols)
    elif shape == "full":  # full row rank: the kernel is empty
        A = Mat.hstack([A, Mat.identity(field, rows)])
    elif shape == "dependent":
        A = Mat.vstack([A, A.scale(2), A])
    K, ref = A.left_kernel(), _left_kernel_two_echelons(A)
    assert K.shape == ref.shape == (A.nrows - A.rank(), A.nrows)
    assert K.data.dtype == ref.data.dtype
    assert K == ref
    assert [type(x) for x in K.data.flat] == [type(x) for x in ref.data.flat]
    assert K.pivots == ref.pivots
    assert (K @ A).is_zero()
    assert_storage(K)


def test_left_kernel_runs_one_echelon(monkeypatch):
    calls = []
    original = Mat.echelon

    def spy(self):
        calls.append(self.shape)
        return original(self)

    monkeypatch.setattr(Mat, "echelon", spy)
    for field in (F2, F101, QQ):
        A = Mat.from_rows(field, [[1, 2, 0], [2, 4, 0], [0, 1, 1], [1, 3, 1]])
        calls.clear()
        K = A.left_kernel()
        assert calls == [(3, 4)] and K.nrows == 2
        # the kernel is a canonical basis already and carries its pivots
        assert K.row_basis() is K and calls == [(3, 4)]
        assert K.pivots == _left_kernel_two_echelons(A).pivots


def test_identity_is_its_own_row_basis(monkeypatch):
    calls = []
    original = Mat.echelon
    monkeypatch.setattr(Mat, "echelon", lambda self: calls.append(self.shape) or original(self))
    for field in (F2, F101, QQ):
        I4 = Mat.identity(field, 4)
        assert I4.row_basis() is I4 and I4.pivots == (0, 1, 2, 3)
        assert I4.complement_rows().nrows == 0
        row = Mat.from_rows(field, [[1, 0, 1, 1]])
        assert row.express_rows(I4) == row
    assert calls == []


# -- express_rows solves against canonical bases only, and checks the ---
# -- product on the non-pivot columns ----------------------------------

@pytest.mark.parametrize("field", [F2, F101, QQ], ids=lambda f: f.name)
def test_express_rows_checks_every_non_pivot_column(field):
    rows = Mat.from_rows(field, [[1, 1, 1, 1], [0, 0, 1, 1]])
    basis = rows.row_basis()
    assert basis.rows() == [[1, 1, 0, 0], [0, 0, 1, 1]] and basis.pivots == (0, 2)
    inside = Mat.from_rows(field, [[1, 1, 1, 1]])
    assert inside.express_rows(basis) == Mat.from_rows(field, [[1, 1]])
    # each row agrees with a span element on the pivot columns and differs in one other column
    for bad in ([1, 0, 1, 1], [1, 1, 1, 0]):
        with pytest.raises(NotInSpan):
            Mat.from_rows(field, [bad]).express_rows(basis)
    # a basis that is not canonical, or canonical rows not made by
    # row_basis, carries no pivots and is refused
    for other in (rows, Mat.from_rows(field, basis.rows(), 4)):
        for M in (inside, Mat.zeros(field, 0, 4)):
            with pytest.raises(ValueError, match="canonical basis"):
                M.express_rows(other)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_reduced_product_check_agrees_with_the_full_product(data):
    A = data.draw(exact_matrix())
    field = A.field
    basis = A.row_basis()
    X = data.draw(exact_matrix(field, cols=basis.nrows))
    M = X @ basis
    assert matrices._product_equals(X, basis, M)
    if data.draw(st.booleans()):  # move one entry, perhaps off the span
        i, j = data.draw(st.integers(0, M.nrows - 1)), data.draw(st.integers(0, M.ncols - 1))
        bump = [[0] * M.ncols for _ in range(M.nrows)]
        bump[i][j] = data.draw(st.integers(1, 3))
        M = M + Mat.from_rows(field, bump, M.ncols)
    # the solution read off the pivot columns, as express_rows reads it; a
    # second check against the same basis reads the block kept on it
    pivots = list(basis.pivots)
    pv = basis.data[np.arange(basis.nrows), pivots]
    Y = Mat(field, M.nrows, basis.nrows, matrices._divide(M.data[:, pivots], pv[None, :]))
    holds = (Y @ basis) == M
    assert matrices._product_equals(Y, basis, M) == holds
    if holds:
        assert M.express_rows(basis) == Y
    else:
        with pytest.raises(NotInSpan):
            M.express_rows(basis)


def _independent_rows(S):
    """A basis of the row space of S picked from its own rows (not canonical)."""
    keep = []
    for i in range(S.nrows):
        if S.take_rows(keep + [i]).rank() == len(keep) + 1:
            keep.append(i)
    return S.take_rows(keep)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_quotient_projection_matches_inverse(data):
    # oracle: the last columns of [B; C]^-1 for a basis B of the row space
    # and C the standard vectors completing it
    field = data.draw(st.sampled_from((QQ, F101, F2)))
    n = data.draw(st.integers(1, 5))
    pool = data.draw(st.sampled_from(Q_POOLS)) if field is QQ else st.integers(0, field.p - 1)
    shape = data.draw(st.sampled_from(("random", "zero", "full", "dependent")))
    rows = data.draw(st.lists(st.lists(pool, min_size=n, max_size=n), max_size=5))
    S = Mat.from_rows(field, rows, n)
    if shape == "zero":
        S = Mat.zeros(field, data.draw(st.integers(0, 2)), n)
    elif shape == "full":
        S = Mat.vstack([S, Mat.identity(field, n)])
    elif shape == "dependent" and S.nrows:
        # repeats and combinations of the drawn rows
        picks = data.draw(st.lists(st.integers(0, S.nrows - 1), min_size=1, max_size=4))
        S = Mat.vstack([S, S.take_rows(picks).scale(2), S.take_rows(picks[:1]) - S.take_rows(picks[-1:])])
    free, P = S.quotient_projection()
    B = _independent_rows(S)
    C = B.complement_rows()
    expected = Mat.vstack([B, C]).inverse().take_cols(range(B.nrows, n))
    assert P == expected
    assert C == Mat.identity(field, n).take_rows(free)
    assert (S @ P).is_zero()
    assert_storage(P)


def test_int64_elimination_restarts_on_python_ints(monkeypatch):
    # entries below 2^30 start on int64; the first updates outgrow the bound
    calls = []
    original = matrices._gauss_jordan

    def spy(work):
        out = original(work)
        calls.append((work.dtype == object, out is None))
        return out

    monkeypatch.setattr(matrices, "_gauss_jordan", spy)
    big = (1 << 29) - 3
    A = Mat.from_rows(QQ, [[big, 7, 1, 2], [5, big, 2, -big], [3, 1, big, 0]])
    R, pivots = A.rref()
    assert calls == [(False, True), (True, False)]
    pytest.importorskip("sympy")
    dR, dpivots = _to_domain(A).rref()
    assert (R, pivots) == (_from_domain(QQ, dR), tuple(dpivots))
    calls.clear()
    B = Mat.from_rows(QQ, [[big, 2 * big, 1], [3, 6, 2], [big - 1, 2 * big - 2, 5]])
    assert B.left_kernel() == _from_domain(QQ, _to_domain(B).transpose().nullspace()).row_basis()
    assert (False, True) in calls and (True, False) in calls


# -- exact F_p products: float64 BLAS, int64 and a pure-Python oracle --

F_BIG = PrimeField(1048573)  # the largest prime below 2^20


def _python_product(A, B):
    p = A.field.p
    cols = B.transpose().rows()
    return [[sum(x * y for x, y in zip(row, col)) % p for col in cols] for row in A.rows()]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_fp_product_paths_agree(data):
    field = data.draw(st.sampled_from((F2, F101, F_BIG)))
    m, k, n = (data.draw(st.integers(0, 6)) for _ in range(3))
    # p - 1 everywhere makes the longest dot products
    pool = st.one_of(st.integers(0, field.p - 1), st.just(field.p - 1))
    A, B = (Mat.from_rows(field, data.draw(st.lists(st.lists(pool, min_size=c, max_size=c),
                                                    min_size=r, max_size=r)), c)
            for r, c in ((m, k), (k, n)))
    blas = matrices._float_product(A.data, B.data, field.p)
    int64 = matrices._int64_product(A.data, B.data, field.p)
    assert blas.dtype == int64.dtype == np.int64
    assert blas.tolist() == int64.tolist() == _python_product(A, B)
    assert (A @ B).rows() == _python_product(A, B)


def test_fp_product_past_the_float_bound_takes_int64(monkeypatch):
    p = F_BIG.p
    assert 8192 * (p - 1) ** 2 < 1 << 53 <= 8193 * (p - 1) ** 2
    calls = []
    for name in ("_float_product", "_int64_product"):
        def spy(x, y, q, name=name, original=getattr(matrices, name)):
            calls.append((name, x.shape[1]))
            return original(x, y, q)
        monkeypatch.setattr(matrices, name, spy)
    rng = np.random.default_rng(5)
    for k in (8192, 8193):
        # entries at p - 1 and p - 2 put the float sums right at the bound
        A = Mat.from_rows(F_BIG, rng.integers(p - 2, p, (2, k)).tolist(), k)
        B = Mat.from_rows(F_BIG, rng.integers(p - 2, p, (k, 3)).tolist(), 3)
        assert (A @ B).rows() == _python_product(A, B)
    assert calls == [("_float_product", 8192), ("_int64_product", 8193)]


def test_fp_product_past_the_int64_bound_is_refused():
    k = 1 << 24  # k (p-1)^2 >= 2^63; empty operands, so nothing is allocated
    with pytest.raises(ValueError, match=r"F_1048573 product \(0, 16777216\) @ \(16777216, 0\)"):
        Mat.zeros(F_BIG, 0, k) @ Mat.zeros(F_BIG, k, 0)


# -- basis maps: tags set at construction, the dense product as the oracle --


def _untagged(m):
    """A dense, untagged copy of m: its products take the multiplying path."""
    return Mat(m.field, m.nrows, m.ncols, m.data.copy())


def _same(a, b):
    """Equal data, dtype and entry types."""
    return (a.shape == b.shape and a.data.dtype == b.data.dtype and np.array_equal(a.data, b.data)
            and [type(x) for x in a.data.flat] == [type(x) for x in b.data.flat])


def _unit_oracle(field, cols, ncols):
    return Mat.from_rows(field, [[int(j == c) for j in range(ncols)] for c in cols], ncols)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_basis_map_paths_match_the_dense_product(data):
    field = data.draw(st.sampled_from((F2, F101, QQ)))
    # A: m x k and B: k x n basis maps, m <= k <= n; 0 rows and 0 columns drawn too
    k = data.draw(st.integers(0, 4))
    m = data.draw(st.integers(0, k))
    n = k + data.draw(st.integers(0, 2))
    a_cols = data.draw(st.permutations(range(k)))[:m]
    b_cols = data.draw(st.permutations(range(n)))[:k]
    A, B = Mat.unit_rows(field, a_cols, k), Mat.unit_rows(field, b_cols, n)
    assert A.unit_cols is not None and B.unit_cols is not None
    # composition: an index array, and no dense data built on either side
    AB = A @ B
    assert AB.unit_cols.tolist() == [b_cols[c] for c in a_cols]
    assert A._data is None and B._data is None and AB._data is None
    # lazy data: built on first read, in storage form
    assert _same(A, _unit_oracle(field, a_cols, k)) and _same(B, _unit_oracle(field, b_cols, n))
    assert _same(AB, _untagged(A) @ _untagged(B))
    right = data.draw(exact_matrix(field, rows=k, cols=data.draw(st.integers(0, 3))))
    left = data.draw(exact_matrix(field, rows=data.draw(st.integers(0, 3)), cols=k))
    products = [
        (A, right),  # row gather
        (left, B),  # column scatter
        (Mat.identity(field, k), right),  # gather by the identity
        (left, Mat.identity(field, k)),  # scatter by the identity
    ]
    for x, y in products:
        got = x @ y
        assert got.unit_cols is None
        assert _same(got, _untagged(x) @ _untagged(y))
        assert_storage(got)
    # take_rows of a basis map stays one while its rows are distinct
    pick = data.draw(st.lists(st.integers(0, k - 1), max_size=4)) if k else []
    taken = B.take_rows(pick)
    assert (taken.unit_cols is not None) == (len(set(pick)) == len(pick))
    assert _same(taken, _untagged(B).take_rows(pick))
    below = data.draw(exact_matrix(field, rows=n, cols=2))
    assert _same(taken @ below, _untagged(taken) @ below)
    # non-injective unit rows stay dense, and multiply as they are
    if k:
        cols = data.draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=4).filter(
            lambda c: len(set(c)) < len(c)))
        D = Mat.unit_rows(field, cols, k)
        assert D.unit_cols is None and D._data is not None
        assert _same(D, _unit_oracle(field, cols, k))
        assert _same(D @ right, _untagged(D) @ right)
        assert _same(D @ right, Mat.identity(field, k).take_rows(cols) @ right)


@pytest.mark.parametrize("field", [F2, F101, QQ], ids=lambda f: f.name)
def test_quotient_by_nothing_projects_by_the_identity(field):
    for rows in (Mat.zeros(field, 0, 3), Mat.zeros(field, 2, 3), Mat.zeros(field, 0, 0)):
        free, P = rows.quotient_projection()
        assert free == list(range(rows.ncols))
        assert P.unit_cols is not None and P.pivots == tuple(free)
        assert _same(P, _unit_oracle(field, free, rows.ncols))
