"""Module constructions act one (src, dst) group of generators at a time.

FreeModule reads one step table per skip-map group, module_closure_of_rows
pushes a degree through all its skip maps in one scatter, and
submodule_from_rows runs one express_rows per (src, dst) group.  The
per-generator constructions in seams are their oracles, quotient_by's
included: every result must be identical to theirs, basis-map tags, dtypes
and Python entry types included, and an unstable family must be refused
naming the same generator.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import seams
from catrep import presentations, trunc
from catrep.category import make_category
from catrep.corpus import FUZZ_PROFILE, sample_presentation
from catrep.fields import QQ, parse_field
from catrep.matrices import Mat, NotInSpan
from catrep.presentations import from_presentation
from catrep.shift import mu_map, shift_module
from catrep.trunc import FreeModule, InvariantViolation, m_span

OI = make_category("oi")
CATS = [OI, make_category("fi"), make_category("fi_g", "cyclic:2"), make_category("oi_g", "cyclic:3")]
FIELDS = [parse_field("fp:2"), parse_field("fp:101"), QQ]


def _same(a: Mat, b: Mat) -> bool:
    """Equal entries, shape, dtype, Python entry types, pivots and basis-map tag."""
    if (a.unit_cols is None) != (b.unit_cols is None) or a.pivots != b.pivots:
        return False
    if a.unit_cols is not None and a.unit_cols.tolist() != b.unit_cols.tolist():
        return False
    return (a.field == b.field and a.shape == b.shape and a.data.dtype == b.data.dtype
            and np.array_equal(a.data, b.data)
            and list(map(type, a.data.flat)) == list(map(type, b.data.flat)))


def _same_module(U, W) -> bool:
    return (U.horizon == W.horizon and U.dims == W.dims and list(U.gens) == list(W.gens)
            and all(_same(U.gens[g], W.gens[g]) for g in U.gens))


def _same_pair(got, want) -> bool:
    (U, f), (W, k) = got, want
    return _same_module(U, W) and all(_same(a, b) for a, b in zip(f.mats, k.mats))


def _loads(cat, field, horizon, seeds):
    """(F, relation seed rows, closure rows) of each presentation's load."""
    calls = []
    closure = trunc.module_closure_of_rows
    with pytest.MonkeyPatch.context() as m:
        m.setattr(presentations, "module_closure_of_rows", lambda F, rows: calls.append((F, rows)) or closure(F, rows))
        for seed in seeds:
            from_presentation(cat, field, sample_presentation(cat, field, seed), horizon)
    return [(F, rows, closure(F, rows)) for F, rows in calls]


def _cut(rows):
    """Families cut from the stable family rows: U_t dropped where U_{t-1}
    maps into it, which a skip map into t refuses, and U_t cut to its first
    row where nothing maps into it, which only an end generator of t can refuse."""
    nonzero = [t for t, m in enumerate(rows) if m.nrows]
    for t in nonzero:
        keep = 0 if t - 1 in nonzero else 1
        yield rows[:t] + [rows[t].take_rows(range(keep))] + rows[t + 1:]


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("cat", CATS, ids=lambda c: c.name)
def test_grouped_constructions_match_per_generator_oracles(cat, field):
    h = 4
    refused = set()
    for F, seeds, closed in _loads(cat, field, h, range(1, 9)):
        # the free cover: one group table row per generator
        assert all(_same(F.gens[g], m) for g, m in seams.free_gens(F).items())
        assert list(F.gens) == list(F.cat.generators(h))
        # the relation closure: one push per degree
        assert all(_same(a, b) for a, b in zip(closed, seams.module_closure_of_rows(F, seeds)))
        # the quotient by it, and by a spanning family that is not canonical
        V, proj = trunc.quotient_by(F, closed)
        assert _same_pair((V, proj), seams.quotient_by(F, closed))
        family = [m.push([Mat.identity(field, m.ncols)] * 2) for m in closed]
        assert _same_pair(trunc.quotient_by(F, family), seams.quotient_by(F, family))
        # kernels, over the free cover and over the quotient, whose actions are dense
        rows = [m.left_kernel() for m in proj.mats]
        assert _same_pair(trunc.submodule_from_rows(F, rows), seams.submodule_from_rows(F, rows))
        if V.horizon >= 1:
            mu = mu_map(V)
            rows = [m.left_kernel() for m in mu.mats]
            got = trunc.submodule_from_rows(V, rows, horizon=mu.horizon)
            assert _same_pair(got, seams.submodule_from_rows(V, rows, horizon=mu.horizon))
            SV = shift_module(V)
            assert _same_pair(trunc.quotient_by(SV, mu.mats), seams.quotient_by(SV, mu.mats))
        # a family that is not action-stable is refused at the same generator
        for cut in _cut(closed):
            try:
                want = seams.quotient_by(F, cut)
            except InvariantViolation as exc:
                with pytest.raises(InvariantViolation) as got:
                    trunc.quotient_by(F, cut)
                assert str(got.value) == str(exc)
                src, dst = str(exc).split()[3].split(":")[0].split("->")
                refused.add("end" if src == dst else "step")
                with pytest.raises(NotInSpan):
                    seams.submodule_from_rows(F, cut)
                with pytest.raises(NotInSpan):
                    trunc.submodule_from_rows(F, cut)
            else:
                assert _same_pair(trunc.quotient_by(F, cut), want)
    assert "step" in refused and ("end" in refused or not cat.end_generators(h))


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("cat", CATS, ids=lambda c: c.name)
def test_m_span_reads_basis_maps_without_elimination(monkeypatch, cat, field):
    # on a free module every step action is a basis map: the span of their
    # rows is the unit rows at their columns, as the dense echelon finds
    h = 5 if cat.group is None else 4
    V = FreeModule(cat, field, (0, 1, 1, 3), h)
    want = [Mat.vstack([V.gens[g] for g in cat.step_generators(t - 1)]).row_basis()
            for t in range(1, h + 1)]
    calls = []
    echelon = Mat.echelon
    monkeypatch.setattr(Mat, "echelon", lambda m: calls.append(m.shape) or echelon(m))
    spans = m_span(V)
    assert calls == []
    assert all(m.unit_cols is not None and m._data is None for m in spans[1:])
    assert all(got == w and got.pivots == w.pivots for got, w in zip(spans[1:], want))
    monkeypatch.undo()
    # relations make actions dense; m_span then matches the echelon as well
    for F, _, closed in _loads(cat, field, h, range(1, 9)):
        V, _ = trunc.quotient_by(F, closed)
        for t, got in enumerate(m_span(V)[1:], 1):
            w = Mat.vstack([V.gens[g] for g in cat.step_generators(t - 1)]).row_basis()
            assert got == w and got.pivots == w.pivots


def test_one_express_per_group_and_one_push_per_degree(monkeypatch):
    # the in-process CLI benchmark's kind of file: OI, the fuzz profile, horizon 9
    field, h = parse_field("fp:101"), 9
    counts = {"express_rows": 0, "push": 0}
    for name in counts:
        method = getattr(Mat, name)

        def spy(*args, _name=name, _method=method):
            counts[_name] += 1
            return _method(*args)

        monkeypatch.setattr(Mat, name, spy)
    for seed in range(1, 9):
        pres = sample_presentation(OI, field, seed, FUZZ_PROFILE)
        counts.update(express_rows=0, push=0)
        V, proj = from_presentation(OI, field, pres, h)
        assert counts == {"express_rows": 0, "push": h}
        rows = [m.left_kernel() for m in proj.mats]
        trunc.submodule_from_rows(proj.domain, rows)
        groups = len(OI.generator_groups(h))
        assert counts == {"express_rows": groups, "push": h + groups}


MAT_FIELDS = [parse_field("fp:7"), QQ]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(MAT_FIELDS), st.integers(0, 4), st.integers(1, 5), st.integers(1, 3),
       st.booleans(), st.integers(0, 10**6))
def test_push_matches_its_products(field, n, d, k, dense, seed):
    # the column scatter when every map is a basis map, the products otherwise
    rng = np.random.default_rng(seed)
    m = d + int(rng.integers(0, 3))
    maps = [Mat.unit_rows(field, rng.permutation(m)[:d], m) for _ in range(k)]
    if dense:
        maps[-1] = Mat.from_rows(field, rng.integers(-3, 4, (d, m)).tolist(), m)
    left = Mat.from_rows(field, rng.integers(-3, 4, (n, d)).tolist(), d)
    pushed = left.push(maps)
    assert pushed.shape == (n * k, m)
    for j, a in enumerate(maps):
        assert _same(pushed.take_rows(range(j, n * k, k)), left @ a)
