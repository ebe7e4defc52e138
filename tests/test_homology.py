"""Resolutions, Tor, regularity, Hilbert fits, and the verification suite.

Resolution independence compares Tor of the minimal resolution with Tor of
a padded one, reached through seams.padded: the free route
(homology._semisimple_ends patched to False) with a redundant generator at
every step.
"""

from fractions import Fraction
from math import factorial

from catrep import homology, trunc
from catrep.category import Morphism, make_category
from catrep.corpus import sample_presentation
from catrep.fields import QQ, parse_field
from catrep.homology import (
    hilbert_fit,
    resolve,
    tor_groups,
    verify_theorems,
)
from catrep.presentations import Presentation, Relation, from_presentation
from catrep.trunc import free_module, generating_degree, h0_dims, top_degree, zero_module
from seams import padded

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


def test_tor_resolution_independence():
    # minimal versus padded resolutions give the same homology
    mods = []
    for field in (F101, QQ):
        mods += [oi_torsion(field=field), free_module(FI, field, 1, 5)]
        for kind in ("oi", "fi"):
            cat = make_category(kind)
            for seed in (1, 2, 3):
                pres = sample_presentation(cat, field, seed)
                mods.append(from_presentation(cat, field, pres, 5)[0])
    for V in mods:
        a = tor_groups(V, 2)
        with padded() as repeated:
            b = tor_groups(V, 2)
        assert len(repeated) == 3  # every step, syzygy covers included
        assert a.dims == b.dims


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
    assert rep.overall in ("pass", "inconclusive")


def test_verify_theorems_skips_mu_bound_without_injectivity():
    rep = verify_theorems(oi_torsion(), 2, s_bound=1)
    item = rep.by_name("hd-mu-injective-bound")
    assert item.status == "skipped"
    assert "mu_V" in item.detail
    assert rep.by_name("reg-derivative-bound").status == "skipped"
    assert rep.overall != "violation"


def test_verify_theorems_finite_support():
    pres = Presentation(
        (("v", 0),),
        (Relation(1, ((1, Morphism(0, 1, ()), 0),)),),
    )
    V, _ = from_presentation(FI, F101, pres, 6)
    rep = verify_theorems(V, 2, s_bound=1)
    item = rep.by_name("reg-finite-support")
    assert item.status == "pass"
    assert item.data["support_top"] == 0


def test_verify_theorems_zero_module():
    rep = verify_theorems(zero_module(OI, F101, 5), 2, s_bound=0)
    assert rep.by_name("module-checks").status == "skipped"


def test_hypothesis_reg_sm_recorded():
    rep = verify_theorems(free_module(OI, F101, 1, 6), 1, s_bound=3)
    for s in range(4):
        item = rep.by_name(f"hypothesis-reg-SM({s})")
        assert item.status == "pass"
        assert item.data["reg"] == s
