"""Shift, derivative, key sequence, the U^n chain and its oracles."""

from collections import Counter

import pytest

from catrep.category import Morphism, make_category
from catrep.corpus import sample_presentation
from catrep.fields import QQ, parse_field
from catrep.matrices import Mat
from catrep.presentations import Presentation, Relation, from_presentation
from catrep.shift import (
    HorizonExhausted,
    _oracle_morphisms,
    annihilator_oracle,
    derive,
    mu_map,
    sd_commutation_probe,
    shift_module,
    sin_reg,
    un_chain,
)
from catrep.trunc import (
    free_module,
    generating_degree,
    kernel_of_map,
    quotient_by,
    submodule_from_rows,
    truncate,
    zero_module,
)
from seams import commutation_defect, continued, direct_sum, spy_oracle

F2 = parse_field("fp:2")
F101 = parse_field("fp:101")
FI = make_category("fi")
OI = make_category("oi")
OIG = make_category("oi_g", 2)


def _injective(f):
    """Every degree of the map has full row rank."""
    return all(m.rank() == m.nrows for m in f.mats)


def oi_torsion(horizon=6, field=F101):
    pres = Presentation((("u", 1),), (Relation(2, ((1, Morphism(1, 2, (2,)), 0),)),))
    return from_presentation(OI, field, pres, horizon)[0]


def fi_degree0_torsion(horizon=5, field=F101):
    pres = Presentation((("v", 0),), (Relation(1, ((1, Morphism(0, 1, ()), 0),)),))
    return from_presentation(FI, field, pres, horizon)[0]


def test_shift_dims_projectives():
    M1 = free_module(OI, F101, 1, 5)
    assert shift_module(M1).dims == [1, 2, 3, 4, 5]  # M(1) + M(0)
    M2 = free_module(FI, F101, 2, 5)
    assert shift_module(M2).dims == [(n + 1) * n for n in range(5)]
    Z = zero_module(OI, F101, 4)
    assert shift_module(Z).dims == [0] * 4


def test_shift_projective_identity_with_multiplicity():
    # dim SM(s)_n = dim M(s)_n + mult * dim M(s-1)_n
    for cat, mult in [(OI, 1), (FI, None), (OIG, 2)]:
        for s in range(1, 4):
            m = s if cat is FI else mult
            M = free_module(cat, F101, s, 6)
            lower = free_module(cat, F101, s - 1, 6)
            SM = shift_module(M)
            for n in range(6):
                assert SM.dims[n] == M.dims[n] + m * lower.dims[n], (cat.kind, s, n)


def test_shift_action_is_pullback():
    # action of alpha on SV equals the action of embed(alpha) on V
    M = free_module(OI, F101, 1, 5)
    SM = shift_module(M)
    for r in range(4):
        for gamma in OI.step_generators(r):
            assert SM.gens[gamma] == M.act(OI.embed(gamma))


def test_mu_injective_on_projectives():
    for cat in (OI, FI):
        for s in range(4):
            M = free_module(cat, F101, s, 5)
            assert _injective(mu_map(M)), (cat.kind, s)


def test_mu_natural():
    V = oi_torsion()
    mu = mu_map(V)
    assert commutation_defect(mu) is None
    M = free_module(FI, F101, 2, 5)
    assert commutation_defect(mu_map(M)) is None


def test_derive_torsion_counterexample():
    V = oi_torsion()
    seq = derive(V)
    assert all(m.is_zero() for m in seq.mu.mats)
    assert seq.KV.dims == V.dims[:6]
    assert seq.SV.dims == [1] * 6
    assert seq.DV.dims == [1] * 6  # DV = SV isomorphic to M(0)
    assert seq.euler_defects() == [0] * 6


def test_derive_dm1_is_m0():
    seq = derive(free_module(OI, F101, 1, 5))
    assert seq.DV.dims == [1] * 5
    # all induced actions are the 1x1 identity, as in M(0)
    for r in range(4):
        for mat in [seq.DV.gens[g] for g in OI.step_generators(r)]:
            assert mat == Mat.identity(F101, 1)


def test_gd_lemmas_on_examples():
    for V in (free_module(OI, F101, 2, 6), free_module(FI, F101, 2, 6), oi_torsion()):
        seq = derive(V)
        gd_v = generating_degree(V)
        gd_dv = generating_degree(seq.DV)
        gd_sv = generating_degree(seq.SV)
        assert gd_dv == gd_v - 1
        assert gd_sv <= gd_v <= gd_sv + 1


def test_un_chain_free_module():
    M = free_module(OI, F101, 1, 5)
    chain = un_chain(M, 4)
    assert chain.status == "stabilized" and chain.stabilized_at == 0
    assert all(b.nrows == 0 for b in chain.bases[1])


def test_un_chain_torsion_examples():
    V = fi_degree0_torsion()
    chain = un_chain(V, 4)
    assert chain.status == "stabilized" and chain.stabilized_at == 1
    assert chain.dims(1) == [1, 0, 0, 0, 0]
    W = oi_torsion()
    chain = un_chain(W, 5)
    assert chain.stabilized_at == 1
    assert chain.dims(1) == [0, 1, 1, 1, 1, 1]


def test_un_chain_horizon_exhausted():
    V = oi_torsion(horizon=2)
    chain = un_chain(V, 5)
    assert chain.status == "horizon_exhausted"
    with pytest.raises(HorizonExhausted):
        sin_reg(chain)


def test_chain_matches_defining_recursion():
    # oracle: U^{n+1}/U^n = K(V/U^n), computed through quotients rather than
    # through the mu-preimage formula the implementation uses
    for V in (oi_torsion(), fi_degree0_torsion(), free_module(OI, F101, 1, 5)):
        chain = un_chain(V, 3)
        for n in range(1, len(chain.bases)):
            valid = chain.valid_horizons[n]
            if valid < 0:
                continue
            Vh = truncate(V, valid)
            prev = [chain.bases[n - 1][t] for t in range(valid + 1)]
            _, incl = submodule_from_rows(Vh, prev)
            Q, proj = quotient_by(incl.codomain, incl.mats)
            if Q.horizon < 0:
                continue
            K, kincl = kernel_of_map(mu_map(Q))
            for t in range(K.horizon + 1):
                expected = K.dims[t]
                got = chain.bases[n][t].nrows - chain.bases[n - 1][t].nrows
                assert got == expected, (n, t)
                # the projected chain step spans exactly the kernel inside V/U^{n-1}
                pushed = (chain.bases[n][t] @ proj.mats[t]).row_basis()
                assert pushed == kincl.mats[t].row_basis()


def _preimage_rows_by_inverse(A, target_rows):
    """Oracle for the mu-preimage step: a complement of the target, the
    inverse of [target; complement], then a left kernel."""
    C = target_rows.complement_rows()
    if C.nrows == 0:
        return Mat.identity(A.field, A.nrows).row_basis()
    full = Mat.vstack([target_rows, C]) if target_rows.nrows else C
    P = full.inverse().take_cols(range(target_rows.nrows, A.ncols))
    return (A @ P).left_kernel()


@pytest.mark.parametrize("field", [parse_field("fp:2"), F101, QQ], ids=lambda f: f.name)
@pytest.mark.parametrize("cat", [FI, OI, make_category("fi_g", 2), OIG], ids=lambda c: c.kind)
def test_un_chain_matches_inverse_preimages(cat, field):
    for seed in range(1, 6):
        V, _ = from_presentation(cat, field, sample_presentation(cat, field, seed), 4)
        # steps past stabilization check that U^{n0} is a fixed point
        bases, valid = continued(un_chain(V, 4), 4)
        mu = mu_map(V)
        for n in range(1, len(bases)):
            for t in range(valid[n] + 1):
                expected = _preimage_rows_by_inverse(mu.mats[t], bases[n - 1][t + 1])
                assert bases[n][t] == expected, (cat.kind, field.name, seed, n, t)


def test_sin_reg_examples():
    M = free_module(OI, F101, 1, 5)
    res = sin_reg(un_chain(M, M.horizon))
    assert res.sin.dims == [0] * (res.valid_to + 1)
    assert res.reg.dims == M.dims[: res.valid_to + 1]
    V = oi_torsion()
    res = sin_reg(un_chain(V, V.horizon))
    assert res.sin.dims == V.dims[: res.valid_to + 1]
    assert res.reg.dims == [0] * (res.valid_to + 1)


def test_sin_reg_mixed_direct_sum():
    # M(0) + a degree-0 torsion class over FI: sin is the torsion summand
    T = fi_degree0_torsion(horizon=5)
    M0 = free_module(FI, F101, 0, 5)
    V = direct_sum(M0, T)
    assert V.dims == [2, 1, 1, 1, 1, 1]
    res = sin_reg(un_chain(V, V.horizon))
    assert res.sin.dims == [1, 0, 0, 0, 0]
    assert res.reg.dims == [1] * 5


def test_annihilator_oracle_free_and_torsion():
    M = free_module(FI, F101, 1, 5)
    orc = annihilator_oracle(M, 2)
    assert all(b.nrows == 0 for b in orc.bases)
    T = fi_degree0_torsion()
    orc = annihilator_oracle(T, 1)
    assert [b.nrows for b in orc.bases] == [1, 0, 0, 0, 0]
    W = oi_torsion()
    orc = annihilator_oracle(W, 1)
    assert [b.nrows for b in orc.bases] == [0, 1, 1, 1, 1, 1]
    with pytest.raises(ValueError):
        annihilator_oracle(M, 0)


def test_oracle_equals_chain_on_seeded_modules():
    for kind in ("fi", "oi"):
        cat = make_category(kind)
        for seed in range(1, 9):
            pres = sample_presentation(cat, F101, seed)
            V, _ = from_presentation(cat, F101, pres, 6)
            chain = un_chain(V, 3)
            for n in range(1, len(chain.bases)):
                valid = chain.valid_horizons[n]
                if valid < 0:
                    continue
                orc = annihilator_oracle(V, n)
                assert orc.valid_to == valid
                for t in range(valid + 1):
                    assert chain.bases[n][t] == orc.bases[t], (kind, seed, n, t)


def _oracle_by_morphism(V, n):
    """Reference: one left kernel per morphism, zero or not."""
    bases = []
    for s in range(V.horizon - n + 1):
        J = Mat.identity(V.field, V.dims[s]).row_basis()
        for alpha in _oracle_morphisms(V.cat, s, n, V.horizon):
            if J.nrows == 0:
                break
            X = (J @ V.act(alpha)).left_kernel()
            J = (X @ J).row_basis()
        bases.append(J)
    return bases


@pytest.mark.parametrize("field", [F2, F101, QQ], ids=lambda f: f.name)
@pytest.mark.parametrize("cat", [FI, OI, make_category("fi_g", 2), make_category("oi_g", 3)],
                         ids=lambda c: c.kind)
def test_oracle_matches_the_per_morphism_loop(cat, field, monkeypatch):
    # and each left kernel it takes shrinks the joint kernel J, so degree s
    # takes at most dims[s] of them, and no more than J loses
    oracle, calls = spy_oracle(monkeypatch)
    for seed in range(1, 5):
        V, _ = from_presentation(cat, field, sample_presentation(cat, field, seed), 4)
        for n in range(1, 4):
            bases = oracle(V, n).bases
            assert bases == _oracle_by_morphism(V, n), (seed, n)
            kernels = calls[-1].kernels
            assert all(kernels[s] <= V.dims[s] - b.nrows for s, b in enumerate(bases)), (seed, n)
    assert any(call.kernels for call in calls)


def oi_all_torsion(horizon=5):
    """v in degree 0 and u in degree 1, each killed by the ideal I: U^1 is everything."""
    pres = Presentation((("v", 0), ("u", 1)), (Relation(1, ((1, Morphism(0, 1, ()), 0),)),
                                                Relation(2, ((1, Morphism(1, 2, (2,)), 1),))))
    return from_presentation(OI, F101, pres, horizon)[0]


@pytest.mark.parametrize("cat", [FI, OI], ids=lambda c: c.kind)
def test_torsion_free_m1_takes_one_left_kernel_per_nonzero_degree(cat, monkeypatch):
    # the first morphism acts injectively on J = V_s, which empties J; the
    # one product is X @ J of that step, and no J @ A runs on the identity
    oracle, calls = spy_oracle(monkeypatch)
    M = free_module(cat, F101, 1, 5)
    for n in (1, 2):
        bases = oracle(M, n).bases
        assert all(b.nrows == 0 for b in bases)
        nonzero = [s for s, d in enumerate(M.dims[: len(bases)]) if d]
        assert calls[-1].kernels == Counter(dict.fromkeys(nonzero, 1))
        assert calls[-1].products == len(nonzero)
        assert bases == _oracle_by_morphism(M, n)


def test_all_torsion_takes_no_left_kernel_and_no_product(monkeypatch):
    # the joint kernel stays all of V_s, so every action is read as it is
    oracle, calls = spy_oracle(monkeypatch)
    T = oi_all_torsion()
    assert T.dims == [1] * 6
    for n in (1, 2):
        bases = oracle(T, n).bases
        assert [b.nrows for b in bases] == T.dims[: len(bases)]
        assert (calls[-1].kernels, calls[-1].products) == (Counter(), 0)
        assert bases == _oracle_by_morphism(T, n)


def test_oracle_stops_acting_once_the_joint_kernel_is_empty(monkeypatch):
    # torsion-free M(2) over FI_G cyclic:2: one action s -> s+1 is injective,
    # so the first chunk (one morphism) of each hom set empties J, and the
    # rest go unacted, as in the per-morphism loop
    cat = make_category("fi_g", 2)
    M = free_module(cat, F101, 2, 5)
    acted, kernels = Counter(), []
    act, left_kernel = M.act, Mat.left_kernel
    monkeypatch.setattr(M, "act", lambda alpha: acted.update([alpha.src]) or act(alpha))
    monkeypatch.setattr(Mat, "left_kernel", lambda self: kernels.append(self.shape) or left_kernel(self))
    bases = annihilator_oracle(M, 1).bases
    assert all(b.nrows == 0 for b in bases)
    assert len(kernels) == sum(1 for d in M.dims[: len(bases)] if d)
    assert len(cat.hom(4, 5)) == 1920 and acted == Counter({2: 1, 3: 1, 4: 1})
    assert bases == _oracle_by_morphism(M, 1)


def test_sd_commutation_probe():
    V = oi_torsion()
    probe = sd_commutation_probe(V)
    assert probe.sd_dims == [1] * 5
    assert probe.ds_dims == [0] * 5
    assert not probe.agree
    M = free_module(FI, F101, 1, 5)
    probe = sd_commutation_probe(M)
    assert probe.agree
    Z = zero_module(OI, F101, 4)
    probe = sd_commutation_probe(Z)
    assert probe.agree and probe.sd_dims == [0] * 3


def test_chain_bounded_by_support():
    # finitely supported modules: the chain reaches V_sin = V within
    # (top support degree) + 1 steps
    cases = [
        (fi_degree0_torsion(horizon=6), 0),
    ]
    pres = Presentation(
        (("u", 1),),
        (
            Relation(2, ((1, Morphism(1, 2, (1,)), 0),)),
            Relation(2, ((1, Morphism(1, 2, (2,)), 0),)),
        ),
    )
    V, _ = from_presentation(OI, F101, pres, 6)
    assert V.dims == [0, 1, 0, 0, 0, 0, 0]
    cases.append((V, 1))
    for module, top in cases:
        chain = un_chain(module, max(module.horizon, 1))
        assert chain.status == "stabilized"
        assert chain.stabilized_at <= top + 1
        n = chain.stabilized_at
        assert chain.dims(n) == module.dims[: chain.valid_horizons[n] + 1]


def test_mu_injectivity_passes_to_submodules():
    # Lemma (1): mu_V injective forces mu_U injective on computed submodules
    from catrep.trunc import module_closure_of_rows

    rng_rows = {2: Mat.from_rows(F101, [[1, 2, 3]], 3)}
    for cat in (OI, FI):
        F = free_module(cat, F101, 1, 5)
        assert _injective(mu_map(F))
        seed = {2: Mat.from_rows(F101, [[1, 2] + [0] * (F.dims[2] - 2)], F.dims[2])}
        closure = module_closure_of_rows(F, seed)
        U, _ = submodule_from_rows(F, closure)
        if U.horizon >= 1 and not U.is_zero():
            assert _injective(mu_map(U)), cat.kind


def test_derivative_exactness_when_kw_vanishes():
    # Lemma (4): 0 -> U -> V -> W -> 0 with KW = 0 gives exact
    # 0 -> DU -> DV -> DW -> 0, checked by dimension count
    for V in (oi_torsion(), fi_degree0_torsion(horizon=6)):
        res = sin_reg(un_chain(V, V.horizon))
        U, W = res.sin, res.reg
        Vh = truncate(V, res.valid_to)
        if min(U.horizon, W.horizon, Vh.horizon) < 1:
            continue
        du = derive(U).DV
        dv = derive(Vh).DV
        dw = derive(W).DV
        kw = kernel_of_map(mu_map(W))[0]
        assert kw.is_zero()
        for t in range(min(du.horizon, dv.horizon, dw.horizon) + 1):
            assert du.dims[t] - dv.dims[t] + dw.dims[t] == 0, t


def test_key_sequence_euler_on_seeded_modules():
    for kind, gspec in (("oi", None), ("fi", None), ("oi_g", 2)):
        cat = make_category(kind, gspec)
        for seed in range(1, 6):
            pres = sample_presentation(cat, F101, seed)
            V, _ = from_presentation(cat, F101, pres, 5)
            seq = derive(V)  # raises if the alternating sum breaks
            assert seq.euler_defects() == [0] * (V.horizon)
