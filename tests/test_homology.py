"""Resolutions, Tor, regularity, Hilbert fits, and the verification suite.

Tor from the Koszul complex (tor_groups) is compared with Tor read off a
resolution (seams.resolution_tor), both the greedy one and a padded one
(seams.padded: a redundant generator at every step), and each Koszul
differential it builds with the one seams.koszul_differential builds block
by block.  Its d o d = 0 check, on the step generators' identities, is
compared with the product of whole differentials (seams.koszul_failures) on
modules with one action entry perturbed.
"""

import random
import tracemalloc
from fractions import Fraction
from math import factorial

import pytest

from catrep import homology, trunc
from catrep.category import Morphism, make_category
from catrep.corpus import FUZZ_PROFILE, sample_presentation
from catrep.fields import QQ, parse_field
from catrep.homology import (
    hilbert_fit,
    resolve,
    tor_groups,
    verify_theorems,
)
from catrep.matrices import Mat
from catrep.presentations import Presentation, Relation, from_presentation
from catrep.reports import overall_status
from catrep.trunc import (
    InvariantViolation,
    TruncatedModule,
    free_module,
    generating_degree,
    h0_dims,
    quotient_by,
    top_degree,
    zero_module,
)
from seams import (
    direct_sum,
    koszul_differential,
    koszul_failures,
    non_functorial,
    padded,
    resolution_tor,
    spy_koszul_rows,
)

F101 = parse_field("fp:101")
FI = make_category("fi")
OI = make_category("oi")


def oi_torsion(horizon=6, field=F101):
    pres = Presentation((("u", 1),), (Relation(2, ((1, Morphism(1, 2, (2,)), 0),)),))
    return from_presentation(OI, field, pres, horizon)[0]


def test_h0_of_projectives():
    for cat, end_size in [(OI, lambda s: 1), (FI, factorial)]:
        for s in range(4):
            M = free_module(cat, F101, s, 5)
            dims = h0_dims(M)
            expected = [0] * 6
            expected[s] = end_size(s)
            assert dims == expected, (cat.kind, s)
            assert top_degree(dims) == s


def test_h0_torsion_and_zero():
    dims = h0_dims(oi_torsion())
    assert dims == [0, 1, 0, 0, 0, 0, 0] and top_degree(dims) == 1
    dims = h0_dims(zero_module(OI, F101, 4))
    assert dims == [0] * 5 and top_degree(dims) == -1


def test_resolve_spans_each_step_once(monkeypatch):
    calls = []
    m_span = trunc.m_span

    def counted(V):
        calls.append(V)
        return m_span(V)

    monkeypatch.setattr(trunc, "m_span", counted)
    monkeypatch.setattr(homology, "m_span", counted)
    V, _ = from_presentation(FI, F101, sample_presentation(FI, F101, 1), 4)
    for d in range(3):
        calls.clear()
        resolve(V, d)
        assert len(calls) == d + 1


def test_resolve_projective_terminates():
    for cat in (OI, FI):
        M = free_module(cat, F101, 2, 5)
        res = resolve(M, 2)
        assert res.steps[0].free.dims == M.dims
        assert res.steps[0].syzygy.dims == [0] * 6
        assert res.steps[1].free.dims == [0] * 6


def test_resolve_torsion_adaptable():
    V = oi_torsion()
    res = resolve(V, 1)
    # P^0 = M(1), Z^1 = IM(1) generated at degree 2, P^1 = M(2)
    assert res.steps[0].free.summands == (1,)
    assert res.steps[0].syzygy.dims == [0, 0, 1, 2, 3, 4, 5]
    assert max(res.steps[0].gen_degrees) == generating_degree(V) == 1
    assert res.steps[1].free.summands == (2,)
    assert max(res.steps[1].gen_degrees) == generating_degree(res.steps[0].syzygy) == 2


def test_resolution_complex_condition():
    V = oi_torsion()
    res = resolve(V, 2)
    for i in range(1, len(res.steps)):
        dcur = res.steps[i].diff
        incl = res.steps[i - 1].syzygy_incl
        prev_diff = res.steps[i - 1].diff
        for t in range(V.horizon + 1):
            realized = dcur.mats[t] @ incl.mats[t]
            assert (realized @ prev_diff.mats[t]).is_zero()


def test_tor_projective_vanishes():
    for cat in (OI, FI):
        for s in range(3):
            rep = tor_groups(free_module(cat, F101, s, 5), 2)
            assert rep.hd[0] == s
            assert rep.hd[1] == -1 and rep.hd[2] == -1
            assert rep.reg == s  # reg(M(s)) = s in this convention


def test_tor_torsion_module():
    V = oi_torsion()
    rep = tor_groups(V, 2)
    assert rep.dims[0] == [0, 1, 0, 0, 0, 0, 0]
    assert rep.dims[1] == [0, 0, 1, 0, 0, 0, 0]
    assert rep.hd[0] == 1 and rep.hd[1] == 2
    assert rep.gd == generating_degree(V)
    assert rep.reg == 1


KINDS = (OI, FI, make_category("fi_g", 2), make_category("oi_g", 3))
FIELDS = tuple(parse_field(spec) for spec in ("fp:101", "q", "fp:2", "fp:3"))


def _tor_modules(cat, field, h):
    """A free module, corpus quotients for seeds 1-3 and, on OI, oi_torsion."""
    mods = [free_module(cat, field, 1, h)]
    mods += [from_presentation(cat, field, sample_presentation(cat, field, seed), h)[0]
             for seed in (1, 2, 3)]
    if cat == OI:
        mods.append(oi_torsion(h, field))
    return mods


def test_tor_resolution_independence():
    # Koszul Tor against Tor of greedy and padded resolutions, on every kind
    # and field; the _G kinds stop at horizon 4, where resolving stays cheap
    for cat in KINDS:
        h = 5 if cat.group is None else 4
        for field in FIELDS:
            for V in _tor_modules(cat, field, h):
                dims = tor_groups(V, 2).dims
                assert dims == resolution_tor(V, 2), (cat.name, field.name, V)
                with padded() as repeated:
                    assert dims == resolution_tor(V, 2), (cat.name, field.name, V)
                assert len(repeated) == 3  # every step, syzygy covers included


def _nonzero_pairs(V, depth):
    """(n, i) of every d_i tor_groups needs whose two terms are nonzero."""
    return {(n, i) for n in range(V.horizon + 1) for i in range(1, min(depth + 1, n) + 1)
            if V.dims[n - i] and V.dims[n - i + 1]}


@pytest.mark.parametrize("cat", KINDS, ids=lambda c: c.name)
def test_koszul_assembly_matches_the_per_block_oracle(monkeypatch, cat):
    # sparse rows from cached step generator entries, densified, against one
    # block copy per subset and face; empty differentials are never built
    built = spy_koszul_rows(monkeypatch)
    h = 5 if cat.group is None else 4
    for field in FIELDS:
        for V in _tor_modules(cat, field, h):
            built.clear()
            tor_groups(V, 3)
            assert {(n, i) for n, i, *_ in built} == _nonzero_pairs(V, 3), (field.name, V.dims)
            for n, i, _, d in built:
                assert d == koszul_differential(V, n, i), (field.name, V.dims, n, i)


def _perturbed(V, r, rng):
    """V with one entry of one step generator action out of degree r raised by 1."""
    g = rng.choice(V.cat.step_generators(r))
    rows = V.gens[g].data.tolist()
    rows[rng.randrange(V.dims[r])][rng.randrange(V.dims[r + 1])] += 1
    return TruncatedModule(V.cat, V.field, V.horizon, V.dims,
                           {**V.gens, g: Mat.from_rows(V.field, rows, V.dims[r + 1])})


def _bad_sources(V):
    """Source degrees r where homology._step_identities_hold fails."""
    signed = {r: [(V.gens[g].data, None) for g in reversed(V.cat.step_generators(r))]
              for r in range(V.horizon)}
    return {r for r in range(V.horizon - 1) if V.dims[r] and V.dims[r + 1] and V.dims[r + 2]
            and not homology._step_identities_hold(V, r, signed)}


@pytest.mark.parametrize("cat", KINDS, ids=lambda c: c.name)
def test_step_identities_flag_what_the_koszul_product_flags(cat):
    # one action entry raised at each degree in turn: the step generator
    # identities fail at exactly the source degrees of the (n, i) where the
    # product of whole differentials is nonzero, and tor_groups raises at
    # the first of them; unperturbed modules pass both
    rng = random.Random(cat.name)
    h, flagged = (5 if cat.group is None else 4), 0
    for field in map(parse_field, ("fp:3", "q")):
        for V in _tor_modules(cat, field, h) + [free_module(cat, field, 2, h)]:
            assert koszul_failures(V, 2) == [] and not _bad_sources(V), (field.name, V.dims)
            tor_groups(V, 2)
            for r in range(h):
                if not (V.dims[r] and V.dims[r + 1]):
                    continue
                W = _perturbed(V, r, rng)
                failures, bad, built = koszul_failures(W, 2), _bad_sources(W), _nonzero_pairs(W, 2)
                assert set(failures) == {(n, i) for n, i in built
                                         if (n, i - 1) in built and n - i in bad}, (field.name, V.dims, r)
                if not failures:
                    tor_groups(W, 2)
                    continue
                flagged += 1
                n, i = failures[0]
                with pytest.raises(InvariantViolation, match=f"^Koszul d_{i} d_{i - 1} is nonzero at degree {n}$"):
                    tor_groups(W, 2)
    assert flagged >= 10


def test_no_product_takes_a_koszul_differential(monkeypatch):
    # d o d = 0 is certified on the step generators and each d_i is built as
    # sparse rows: on an OI module at horizon 9, the only products tor_groups
    # takes are the step identity checks, one per source degree, and no array
    # it allocates is as large as the largest d_i would be dense
    V = from_presentation(OI, F101, sample_presentation(OI, F101, 43, FUZZ_PROFILE), 9)[0]
    tracemalloc.start()
    try:
        tor_groups(V, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    built, products, matmul = spy_koszul_rows(monkeypatch), [], Mat.__matmul__

    def spy(a, b):
        products.append((a.shape, b.shape))
        return matmul(a, b)

    monkeypatch.setattr(Mat, "__matmul__", spy)
    tor_groups(V, 3)
    pairs = {(n, i) for n, i, *_ in built}
    assert any((n, i - 1) in pairs for n, i in pairs)  # some d_i d_{i-1} needed a check
    dims = V.dims
    checked = sorted(n - 2 for n, i in pairs if i == 2 and dims[n])
    assert products == [(((r + 1) * dims[r], dims[r + 1]), (dims[r + 1], (r + 2) * dims[r + 2]))
                        for r in checked]
    assert peak < max(d.data.nbytes for *_, d in built)


def _gap_module(cat, field, gap, h=6):
    """M(0) cut down below the gap degree, plus M(gap + 1): zero at the gap only."""
    M0 = free_module(cat, field, 0, h)
    rows = [Mat.zeros(field, 0, 1) if t < gap else Mat.identity(field, M0.dims[t]) for t in range(h + 1)]
    S, _ = quotient_by(M0, rows)
    return direct_sum(S, free_module(cat, field, gap + 1, h))


@pytest.mark.parametrize("cat", (OI, FI), ids=lambda c: c.name)
@pytest.mark.parametrize("spec", ("fp:2", "fp:101", "q"))
def test_tor_across_a_zero_degree(monkeypatch, cat, spec):
    field = parse_field(spec)
    built = spy_koszul_rows(monkeypatch)
    V = _gap_module(cat, field, 1)
    assert V.dims[:4] == ([1, 0, 1, 3] if cat == OI else [1, 0, 2, 6])
    dims = tor_groups(V, 2).dims
    assert {(n, i) for n, i, *_ in built} == _nonzero_pairs(V, 2)
    # the degree-0 summand has Tor_i in degree i, read across the gap
    assert dims[1][1] == 1 and dims[2][2] == 1
    assert dims == resolution_tor(V, 2)
    # a gap at degree 2 skips d_2 and d_3 at degree 4 between built d_1 and d_4
    V = _gap_module(cat, field, 2)
    built.clear()
    assert tor_groups(V, 3).dims == resolution_tor(V, 3)
    assert {(4, 1), (4, 4)} <= {(n, i) for n, i, *_ in built} == _nonzero_pairs(V, 3)
    # every degree is a gap: nothing is built
    V = zero_module(cat, field, 5)
    built.clear()
    assert tor_groups(V, 2).dims == resolution_tor(V, 2) == [[0] * 6] * 3
    assert not built


# Tor dims of corpus modules (horizon 4, depth 2) by seed over fields that
# divide some |C(t, t)|, recorded from the free route of resolve
MODULAR = {
    ("fi", None, "fp:2"): {
        1: [[0, 1, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0]],
        2: [[0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0]],
        3: [[0, 0, 2, 0, 0], [0, 0, 0, 6, 0], [0, 0, 0, 0, 12]],
    },
    ("fi_g", 3, "fp:3"): {
        1: [[1, 0, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 2, 0]],
    },
}


def test_modular_tor_keeps_recorded_dims():
    for (kind, group, spec), by_seed in MODULAR.items():
        cat, field = make_category(kind, group), parse_field(spec)
        for seed, want in by_seed.items():
            V, _ = from_presentation(cat, field, sample_presentation(cat, field, seed), 4)
            assert tor_groups(V, 2).dims == want, (kind, spec, seed)


def test_koszul_check_catches_a_non_functorial_module():
    V = non_functorial()
    assert tor_groups(V, 0).dims == [[1, 0, 0]]  # depth 0 builds no d_2
    with pytest.raises(InvariantViolation, match="Koszul d_2 d_1 is nonzero at degree 2"):
        tor_groups(V, 1)


def test_hd0_equals_gd_across_modules():
    for kind in ("oi", "fi"):
        cat = make_category(kind)
        for seed in (4, 5, 6):
            V, _ = from_presentation(cat, F101, sample_presentation(cat, F101, seed), 5)
            rep = tor_groups(V, 1)
            assert rep.gd == generating_degree(V)


def test_hilbert_fit_projectives():
    fit = hilbert_fit(free_module(OI, QQ, 1, 6))
    assert fit.status == "ok" and fit.onset == 0
    assert fit.coeffs == [Fraction(0), Fraction(1)]
    assert fit.degree == 1 == fit.gd
    fit = hilbert_fit(free_module(FI, QQ, 2, 6))
    assert fit.coeffs == [Fraction(0), Fraction(-1), Fraction(1)]  # n^2 - n
    assert fit.degree == 2


def test_hilbert_fit_torsion_and_zero():
    fit = hilbert_fit(oi_torsion())
    assert fit.status == "ok" and fit.onset == 1
    assert fit.coeffs == [Fraction(1)] and fit.degree == 0 <= fit.gd
    fit = hilbert_fit(zero_module(OI, QQ, 5))
    assert fit.status == "ok" and fit.degree == -1


def test_hilbert_fit_inconclusive_when_horizon_too_small():
    # support ends inside the window but gd+1-differences never settle:
    # a degree-0 torsion class plus a free line needs onset past the horizon
    pres = Presentation(
        (("a", 0),),
        (Relation(2, ((1, Morphism(0, 2, ()), 0),)),),
    )
    V, _ = from_presentation(FI, F101, pres, 2)
    fit = hilbert_fit(V)
    assert fit.status == "inconclusive" and fit.coeffs is None


def test_verify_theorems_projective():
    rep = verify_theorems(free_module(OI, F101, 2, 6), 2, s_bound=2)
    names = {it.name: it.status for it in rep.items}
    assert names["gd-derivative-drop"] == "pass"
    assert names["reg-shift-window"] == "pass"
    assert overall_status(it.status for it in rep.items) in ("pass", "inconclusive")


def test_verify_theorems_skips_mu_bound_without_injectivity():
    rep = verify_theorems(oi_torsion(), 2, s_bound=1)
    items = {it.name: it for it in rep.items}
    item = items["hd-mu-injective-bound"]
    assert item.status == "skipped"
    assert "mu_V" in item.detail
    assert items["reg-derivative-bound"].status == "skipped"
    assert overall_status(it.status for it in rep.items) != "violation"


def test_verify_theorems_finite_support():
    pres = Presentation(
        (("v", 0),),
        (Relation(1, ((1, Morphism(0, 1, ()), 0),)),),
    )
    V, _ = from_presentation(FI, F101, pres, 6)
    rep = verify_theorems(V, 2, s_bound=1)
    item = {it.name: it for it in rep.items}["reg-finite-support"]
    assert item.status == "pass"
    assert item.data["support_top"] == 0


def test_verify_theorems_zero_module():
    rep = verify_theorems(zero_module(OI, F101, 5), 2, s_bound=0)
    assert {it.name: it.status for it in rep.items}["module-checks"] == "skipped"


def test_hypothesis_reg_sm_recorded():
    rep = verify_theorems(free_module(OI, F101, 1, 6), 1, s_bound=3)
    items = {it.name: it for it in rep.items}
    for s in range(4):
        item = items[f"hypothesis-reg-SM({s})"]
        assert item.status == "pass"
        assert item.data["reg"] == s
