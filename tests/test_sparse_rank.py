"""The sparse rank (matrices.sparse_rank) against the canonical echelon.

Its oracle is the echelon rank of the densified matrix: on the Koszul rows
tor_groups builds for every kind over F_2, F_3, F_101 and Q, on modules with
a random change of basis in every degree (dense actions, which drive the
dense core over F_p), on edge shapes and on random sparse matrices.  Over Q each
pivot row is checked against the rational bit limit, as the dense
fraction-free elimination checks it.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from catrep import fields, matrices
from catrep.category import make_category
from catrep.fields import RationalOverflowError, parse_field
from catrep.homology import tor_groups
from catrep.matrices import Mat, sparse_rank
from catrep.trunc import TruncatedModule, free_module
from seams import densify, direct_sum, spy_koszul_rows

KINDS = tuple(make_category(*k) for k in (("oi",), ("fi",), ("fi_g", 2), ("oi_g", 3)))
FIELDS = tuple(parse_field(spec) for spec in ("fp:2", "fp:3", "fp:101", "q"))


def _random_entry(field, rng):
    return rng.randrange(field.p) if field.kind == "fp" else rng.randint(-3, 3)


def _changed_basis(V, rng):
    """V with a random invertible change of basis B_t in every degree t: the
    action of g: s -> t becomes B_s act(g) B_t^-1, an isomorphic module
    whose actions are dense."""
    B, inv = [], []
    for d in V.dims:
        while True:
            M = Mat.from_rows(V.field, [[_random_entry(V.field, rng) for _ in range(d)]
                                        for _ in range(d)], d)
            try:
                inv.append(M.inverse())
            except ValueError:
                continue
            B.append(M)
            break
    gens = {g: B[g.src] @ m @ inv[g.dst] for g, m in V.gens.items()}
    return TruncatedModule(V.cat, V.field, V.horizon, V.dims, gens)


def _spy_core(monkeypatch):
    """Record the number of active rows at each hand-off of sparse_rank to
    the dense echelon."""
    calls, core = [], matrices._core_rank

    def spy(field, rows, cols):
        calls.append(sum(1 for row in rows if row))
        return core(field, rows, cols)

    monkeypatch.setattr(matrices, "_core_rank", spy)
    return calls


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("cat", KINDS, ids=lambda c: c.name)
def test_sparse_rank_is_the_echelon_rank_of_the_koszul_differentials(monkeypatch, cat, field):
    built, core = spy_koszul_rows(monkeypatch), _spy_core(monkeypatch)
    h = 5 if cat.group is None else 4
    V = direct_sum(free_module(cat, field, 1, h), free_module(cat, field, 2, h))
    for W, dense in ((V, False), (_changed_basis(V, random.Random(f"{cat.name} {field.name}")), True)):
        built.clear()
        core.clear()
        dims = tor_groups(W, 3).dims
        assert built
        for n, i, rows, d in built:
            assert sparse_rank(field, rows) == len(d.echelon()[1]), (dense, n, i)
        # free actions never reach the core; dense ones do over F_p only
        assert bool(core) == (dense and field.kind == "fp")
        if dense:
            assert dims == tor_groups(V, 3).dims


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_sparse_rank_of_edge_shapes(field):
    one = field.from_int(1)
    two = field.from_int(2) if field.kind == "q" or field.p > 2 else one
    assert sparse_rank(field, []) == 0
    assert sparse_rank(field, [{}, {}, {}]) == 0
    assert sparse_rank(field, [{4: two}]) == 1
    assert sparse_rank(field, [{0: one, 3: two, 7: one}]) == 1
    assert sparse_rank(field, [{0: one}, {}, {0: two}, {0: one}]) == 1
    assert sparse_rank(field, [{0: one}, {1: one}, {0: one, 1: one}]) == 2
    if field.kind == "q":
        assert sparse_rank(field, [{0: Fraction(1, 2), 1: Fraction(1, 3)}, {0: 3, 1: 2}]) == 1


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_cheap_pivots_go_first_and_a_dense_rest_goes_to_the_core(monkeypatch, field):
    # 40 unit rows and a dense 12 x 12 block on later columns: sparse overall,
    # so the 40 unit columns are pivoted in the loop, then the block's first
    # pivot would update 121 entries and over F_p the 12 rows left go to the
    # core; over Q the loop finishes the block
    core = _spy_core(monkeypatch)
    rng = random.Random(field.name)
    block = [[_random_entry(field, rng) or 1 for _ in range(12)] for _ in range(12)]
    rows = [{k: field.from_int(1)} for k in range(40)]
    rows += [{40 + c: v for c, v in enumerate(row)} for row in block]
    assert sparse_rank(field, rows) == 40 + Mat.from_rows(field, block).rank()
    assert core == ([12] if field.kind == "fp" else [])


def _q(x):
    """A rational in storage form: an int when integral."""
    return int(x) if x.denominator == 1 else x


@st.composite
def sparse_matrices(draw):
    """(field, rows, ncols): a random matrix as sparse rows, from nearly
    empty to dense, with repeated and rescaled rows."""
    field = parse_field(draw(st.sampled_from(("fp:2", "fp:3", "fp:101", "q"))))
    nr, nc = draw(st.integers(0, 24)), draw(st.integers(1, 24))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from((0.05, 0.2, 0.5, 0.9)))
    rows = []
    for _ in range(nr):
        if rows and rng.random() < 0.2:
            c = _random_entry(field, rng) or 1
            rows.append({k: field.from_int(v * c) if field.kind == "fp" else _q(Fraction(v * c, 2))
                         for k, v in rng.choice(rows).items()})
            continue
        row = {k: _random_entry(field, rng) for k in range(nc) if rng.random() < density}
        rows.append({k: v for k, v in row.items() if v})
    return field, rows, nc


@settings(max_examples=300, deadline=None)
@given(sparse_matrices())
def test_sparse_rank_matches_the_echelon_rank(case):
    field, rows, ncols = case
    want = len(densify(field, rows, ncols).echelon()[1])
    assert sparse_rank(field, [dict(row) for row in rows]) == want


def test_q_pivot_rows_are_checked_against_the_bit_limit(monkeypatch):
    # both rows are within 16 bits, but the second pivot row, +-(10^6 - 1,
    # 997) after the first elimination (gcd 1), is not; no dense core runs
    monkeypatch.setenv("CATREP_MAX_RATIONAL_BITS", "16")
    core = _spy_core(monkeypatch)
    QQ = parse_field("q")
    with pytest.raises(RationalOverflowError):
        sparse_rank(QQ, [{0: 1 << 20}])
    with pytest.raises(RationalOverflowError):
        sparse_rank(QQ, [{0: 1, 1: 1000, 2: 1}, {0: 1000, 1: 1, 2: 3}])
    assert sparse_rank(QQ, [{0: 1, 1: 100, 2: 1}, {0: 100, 1: 1, 2: 3}]) == 2  # 10^4 - 1 fits
    assert not core


def test_bit_limit_is_read_once_per_elimination(monkeypatch):
    # the sparse rank and the dense Q echelon each read the limit once, at
    # their start; a value set between two calls applies to the second
    reads = []
    original = fields.rational_bit_limit

    def spy():
        reads.append(1)
        return original()

    monkeypatch.setattr(fields, "rational_bit_limit", spy)
    monkeypatch.setattr(matrices, "rational_bit_limit", spy)
    QQ = parse_field("q")
    rows = [[1, 1000, 1], [1000, 1, 3], [7, 5, 11]]  # three pivot rows
    monkeypatch.setenv("CATREP_MAX_RATIONAL_BITS", "30")  # below 31: Python ints, checked
    assert sparse_rank(QQ, [dict(enumerate(r)) for r in rows]) == 3
    assert len(reads) == 1
    assert len(Mat.from_rows(QQ, rows).echelon()[1]) == 3
    assert len(reads) == 2
    assert sparse_rank(parse_field("fp:101"), [dict(enumerate(r)) for r in rows]) == 3
    assert len(reads) == 2  # F_p reads no limit
    monkeypatch.setenv("CATREP_MAX_RATIONAL_BITS", "16")
    with pytest.raises(RationalOverflowError):
        sparse_rank(QQ, [dict(enumerate(r)) for r in rows])
    with pytest.raises(RationalOverflowError):
        Mat.from_rows(QQ, rows).echelon()
    assert len(reads) == 4
