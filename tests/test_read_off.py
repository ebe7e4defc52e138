"""F_p read-offs against the pivot loop.

A stack whose rows each hold at most one nonzero entry has the unit rows at
its nonzero columns as its canonical basis, and a matrix whose columns each
hold at most one has the unit rows at its zero rows as its left kernel.
matrices.py reads both off instead of eliminating.  The oracle is the plain
pivot loop plus the null rows of the transposed echelon, the route every
such matrix took before; the route guard runs CLI commands on corpus files
and checks that no such matrix reaches the unit-row pass or the loop.
"""

import contextlib
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from catrep import cli, matrices
from catrep.category import make_category
from catrep.corpus import FUZZ_PROFILE, sample_presentation
from catrep.fields import parse_field
from catrep.matrices import Mat
from catrep.presentations import emit_presentation_text

FIELDS = tuple(parse_field(f"fp:{p}") for p in (2, 3, 101))
PIVOT_LOOP = matrices._pivot_loop
NULL_ROWS = matrices._null_rows


@st.composite
def one_nonzero_per_line(draw):
    """(Mat, per_row): at most one nonzero entry in each row (per_row) or in
    each column, of any value, at columns (rows) that may repeat, with zero
    lines and empty shapes among them."""
    field = draw(st.sampled_from(FIELDS))
    nr, nc = draw(st.integers(0, 10)), draw(st.integers(0, 10))
    per_row = draw(st.booleans())
    lines, width = (nr, nc) if per_row else (nc, nr)
    A = np.zeros((lines, width), dtype=np.int64)
    if width:
        # a narrow pool of positions makes repeats common
        pool = draw(st.integers(1, width))
        for i in range(lines):
            if draw(st.booleans()):
                A[i, draw(st.integers(0, pool - 1))] = draw(st.integers(1, field.p - 1))
    if not per_row:
        A = A.T
    return Mat.from_rows(field, A.tolist(), nc), per_row


def _loop_echelon(m):
    A = m.data.copy()
    return A, PIVOT_LOOP(A, m.field.p)


def _loop_left_kernel(m):
    """The left kernel from the pivot loop on the reversed transpose and its
    null rows, reversed back: (rows, pivots)."""
    n = m.nrows
    R = m.data.T[:, ::-1].copy()
    pivots = PIVOT_LOOP(R, m.field.p)
    free, K, _ = NULL_ROWS(R, pivots, n)
    return K[::-1, ::-1] % m.field.p, tuple(n - 1 - f for f in reversed(free))


@contextlib.contextmanager
def _routes(on_pass, on_loop):
    """Patch the F_p elimination so that on_pass(A) hears of every _rref_fp
    input A that takes the unit-row pass (a second level is entered under
    it) and on_loop(A) of every pivot loop input."""
    rref, loop, inputs = matrices._rref_fp, matrices._pivot_loop, []

    def level(A, p):
        if inputs:
            on_pass(inputs[-1])
        inputs.append(A)
        try:
            return rref(A, p)
        finally:
            inputs.pop()

    def pivot_loop(A, p):
        on_loop(A)
        return loop(A, p)

    with mock.patch.object(matrices, "_rref_fp", level), mock.patch.object(matrices, "_pivot_loop", pivot_loop):
        yield


@contextlib.contextmanager
def _no_elimination():
    """Fail on the unit-row pass, the pivot loop or the null rows."""
    with _routes(mock.Mock(side_effect=AssertionError("unit-row pass")),
                 mock.Mock(side_effect=AssertionError("_pivot_loop"))):
        with mock.patch.object(matrices, "_null_rows", side_effect=AssertionError("_null_rows")):
            yield


def _same(got, data, pivots):
    assert got.data.dtype == data.dtype == np.int64
    assert got.nrows == len(data) and got.data.tolist() == data.tolist()
    assert got.pivots == pivots and all(type(c) is int for c in got.pivots)


@settings(max_examples=400, deadline=None)
@given(one_nonzero_per_line())
def test_read_offs_match_the_pivot_loop(case):
    m, per_row = case
    R, pivots = _loop_echelon(m)
    K, kernel_pivots = _loop_left_kernel(m)
    with _no_elimination() if per_row else contextlib.nullcontext():
        basis = Mat(m.field, *m.shape, m.data).row_basis()
        E, echelon_pivots = Mat(m.field, *m.shape, m.data).echelon()
    with contextlib.nullcontext() if per_row else _no_elimination():
        kernel = Mat(m.field, *m.shape, m.data).left_kernel()
    _same(basis, R[:len(pivots)], pivots)
    assert E.data.tolist() == R.tolist() and E.data.dtype == np.int64
    assert echelon_pivots == pivots and all(type(c) is int for c in echelon_pivots)
    _same(kernel, K, kernel_pivots)
    if per_row and m.nrows:
        assert basis.unit_cols is not None  # born a basis map
    if not per_row:
        assert kernel.unit_cols is not None


@pytest.mark.parametrize("spec", ["fp:2", "fp:101", "q"])
def test_basis_maps_are_read_off_their_columns(spec):
    # over every field a basis map's row basis and left kernel come from
    # its column array, with no elimination; the untagged copy eliminates
    field = parse_field(spec)
    rng = np.random.default_rng(7)
    for nr, nc in [(0, 0), (0, 4), (3, 3), (4, 9), (6, 6)]:
        U = Mat.unit_rows(field, rng.permutation(nc)[:nr], nc)
        assert U.unit_cols is not None
        with _no_elimination(), mock.patch.object(matrices, "_echelon_q", side_effect=AssertionError("Q")):
            got = U.row_basis(), U.left_kernel()
        D = Mat(field, nr, nc, U.data.copy())
        for g, ref in zip(got, (D.row_basis(), D.left_kernel())):
            assert g.unit_cols is not None and g.pivots == ref.pivots and g.shape == ref.shape
            assert g.data.dtype == ref.data.dtype and g.data.tolist() == ref.data.tolist()
            assert [type(x) for x in g.data.flat] == [type(x) for x in ref.data.flat]


def test_read_off_covers_the_residual_of_the_unit_row_pass():
    # eight unit rows at columns 0..7 beside rows that, once those columns
    # are dropped, hold one nonzero each: the residual is read off too
    p = 101
    A = np.zeros((12, 10), dtype=np.int64)
    A[np.arange(8), np.arange(8)] = np.arange(1, 9)
    A[8, [0, 8]] = (3, 5)
    A[9, [1, 8]] = (4, 7)
    A[10, [2, 9]] = (1, 1)
    calls = []
    loop = matrices._pivot_loop

    def spy(A, p):
        calls.append(A.shape)
        return loop(A, p)

    with mock.patch.object(matrices, "_pivot_loop", spy):
        got, pivots = matrices._rref_fp(A, p)
    assert calls == []
    ref = A.copy()
    assert pivots == PIVOT_LOOP(ref, p) == tuple(range(10))
    assert got.tolist() == ref.tolist()


def _one_per_row(A):
    return not A.size or bool((np.count_nonzero(A, axis=1) <= 1).all())


@pytest.mark.parametrize("spec", ["fp:2", "fp:101"])
def test_cli_routes_no_one_nonzero_stack_to_the_pivot_loop(tmp_path, spec):
    # the cli-oi recipe: OI corpus presentations at horizon 9, in-process
    # cli.main; every stack with one nonzero per row is read off first
    cat, field = make_category("oi"), parse_field(spec)
    seen = {"unit-row pass": [], "_pivot_loop": []}
    with _routes(lambda A: seen["unit-row pass"].append(_one_per_row(A)),
                 lambda A: seen["_pivot_loop"].append(_one_per_row(A))):
        for seed in range(1, 7):
            path = tmp_path / f"s{seed}.pres"
            pres = sample_presentation(cat, field, seed, FUZZ_PROFILE)
            path.write_text(emit_presentation_text(cat, field, 9, pres))
            for command in (["shift"], ["oracle", "--max-n", "3"]):
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.main(["--format", "json", command[0], str(path), *command[1:]]) in (0, 2)
    assert seen["_pivot_loop"]  # the guard watched something
    assert True not in seen["unit-row pass"] and True not in seen["_pivot_loop"]
