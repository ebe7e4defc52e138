"""Truncated modules: free modules, actions, kernels, quotients, closures."""

import random

import pytest

from catrep import homology, presentations, trunc
from catrep.category import Morphism, make_category
from catrep.corpus import sample_presentation
from catrep.fields import QQ, parse_field
from catrep.matrices import Mat
from catrep.presentations import Presentation, Relation, from_presentation
from catrep.trunc import (
    ModuleMap,
    TruncatedModule,
    end_closure,
    free_module,
    generating_degree,
    h0_dims,
    kernel_of_map,
    m_span,
    quotient_by,
    submodule_from_rows,
    truncate,
    zero_module,
)
from seams import commutation_defect, direct_sum

F101 = parse_field("fp:101")
FI = make_category("fi")
OI = make_category("oi")
OIG = make_category("oi_g", 2)
FIG = make_category("fi_g", 2)


def _injective(f):
    """Every degree of the map has full row rank."""
    return all(m.rank() == m.nrows for m in f.mats)


def oi_torsion(field=F101, horizon=6):
    """M(1)/IM(1): the torsion module on which the natural map to the shift vanishes."""
    pres = Presentation((("u", 1),), (Relation(2, ((1, Morphism(1, 2, (2,)), 0),)),))
    return from_presentation(OI, field, pres, horizon)


def fi_degree0_torsion(field=QQ, horizon=5):
    """M(0) with the degree-1 arrow killed: torsion concentrated at degree 0."""
    pres = Presentation((("v", 0),), (Relation(1, ((1, Morphism(0, 1, ()), 0),)),))
    return from_presentation(FI, field, pres, horizon)


def test_free_module_dims():
    assert free_module(OI, F101, 1, 4).dims == [0, 1, 2, 3, 4]
    assert free_module(FI, F101, 2, 4).dims == [0, 0, 2, 6, 12]
    assert free_module(OI, QQ, 0, 5).dims == [1] * 6
    assert free_module(FI, F101, 0, 5).dims == [1] * 6


def test_act_identity_and_composition_matrix():
    M = free_module(OI, F101, 1, 4)
    for s in range(5):
        assert M.act(OI.identity(s)) == Mat.identity(F101, M.dims[s])
    # left composition on the canonical basis: one 1 per row
    a = Morphism(1, 3, (2,))
    A = M.act(a)
    for i in range(A.nrows):
        assert sum(1 for j in range(A.ncols) if A.data.item(i, j) != 0) == 1


def test_act_factorization_independent():
    M = free_module(OI, QQ, 1, 4)
    a = Morphism(1, 4, (3,))
    # 1 -> 4 through degrees 2 and 3 along different routes gives one matrix
    routes = [
        (Morphism(1, 2, (2,)), Morphism(2, 3, (2, 3)), Morphism(3, 4, (1, 2, 3))),
        (Morphism(1, 2, (1,)), Morphism(2, 3, (2, 3)), Morphism(3, 4, (2, 3, 4))),
        (Morphism(1, 2, (2,)), Morphism(2, 3, (1, 2)), Morphism(3, 4, (1, 3, 4))),
    ]
    for f, g, h in routes:
        assert OI.compose(h, OI.compose(g, f)) == a
        assert (M.act(f) @ M.act(g)) @ M.act(h) == M.act(a)
        assert M.act(f) @ M.act(OI.compose(h, g)) == M.act(a)


def test_act_above_horizon_rejected():
    M = free_module(OI, F101, 1, 3)
    with pytest.raises(ValueError):
        M.act(Morphism(1, 4, (4,)))


def test_from_presentation_no_relations_is_free():
    pres = Presentation((("a", 2),), ())
    V, proj = from_presentation(FI, F101, pres, 5)
    assert V.dims == free_module(FI, F101, 2, 5).dims
    assert _injective(proj)


def test_from_presentation_oi_torsion_dims():
    V, _ = oi_torsion()
    assert V.dims == [0, 1, 1, 1, 1, 1, 1]


def test_from_presentation_fi_degree0_torsion():
    V, _ = fi_degree0_torsion()
    assert V.dims == [1, 0, 0, 0, 0, 0]


def _brute_force_submodule_span(F, seeds_by_degree):
    """Independent oracle: close seed rows under every morphism enumerated
    directly, with no one-step factorization."""
    cat, field, h = F.cat, F.field, F.horizon
    spans = []
    for t in range(h + 1):
        rows = []
        for r in range(t + 1):
            seed = seeds_by_degree.get(r)
            if seed is None or seed.nrows == 0:
                continue
            for alpha in cat.hom(r, t):
                pushed = seed @ F.act(alpha)
                rows.extend(pushed.data.tolist())
        if rows:
            spans.append(Mat.from_rows(field, rows, F.dims[t]).row_basis())
        else:
            spans.append(Mat.zeros(field, 0, F.dims[t]))
    return spans


def test_relation_closure_matches_brute_force():
    # the engine closes relations one step at a time; the oracle enumerates
    # every morphism directly
    rng = random.Random(7)
    for cat, field in [(OI, F101), (FI, F101), (OIG, F101), (FI, QQ)]:
        F = free_module(cat, field, 1, 4)
        row = [0] * F.dims[2]
        for j in range(F.dims[2]):
            if rng.random() < 0.6:
                row[j] = field.from_int(rng.randint(1, 5))
        seed = Mat.from_rows(field, [row], F.dims[2])
        from catrep.trunc import module_closure_of_rows

        closure = module_closure_of_rows(F, {2: seed})
        oracle = _brute_force_submodule_span(F, {2: seed})
        for t in range(F.horizon + 1):
            assert closure[t] == oracle[t], (cat.kind, t)


def _corpus(cat, field, horizon, count=2):
    """The first corpus presentations with relations, as modules."""
    pres = (sample_presentation(cat, field, seed) for seed in range(1, 50))
    return [from_presentation(cat, field, p, horizon)[0] for p in pres if p.relations][:count]


@pytest.mark.parametrize("field", [parse_field("fp:2"), F101, QQ], ids=lambda f: f.name)
@pytest.mark.parametrize("cat", [FI, OI, FIG, OIG], ids=lambda c: c.kind)
def test_m_span_matches_brute_force(cat, field):
    free, _ = from_presentation(cat, field, Presentation((("a", 0), ("b", 1)), ()), 4)
    for V in [free] + _corpus(cat, field, 4):
        spans = m_span(V)
        # oracle: images of every positive-degree morphism, enumerated directly
        for t in range(V.horizon + 1):
            rows = []
            for r in range(t):
                for alpha in cat.hom(r, t):
                    rows.extend(V.act(alpha).data.tolist())
            expected = (
                Mat.from_rows(field, rows, V.dims[t]).row_basis()
                if rows
                else Mat.zeros(field, 0, V.dims[t])
            )
            assert spans[t] == expected, (V, t)


@pytest.mark.parametrize("cat", [FI, FIG], ids=lambda c: c.kind)
def test_only_seed_rows_reach_end_closure(monkeypatch, cat):
    # one-step images of a stable family are end-stable, so m_span closes
    # nothing and the relation closure closes only the relation rows
    seeds, closed = [], []

    def closure(F, seed_rows_per_degree):
        seeds.append(seed_rows_per_degree)
        return trunc.module_closure_of_rows(F, seed_rows_per_degree)

    monkeypatch.setattr(presentations, "module_closure_of_rows", closure)
    monkeypatch.setattr(trunc, "end_closure",
                        lambda V, t, rows: closed.append((t, rows)) or end_closure(V, t, rows))
    modules = _corpus(cat, F101, 4, count=4)
    want = [(t, s[t]) for s in seeds for t in sorted(s)]
    assert want and len(closed) == len(want)
    assert all(t == u and rows is seed for (t, rows), (u, seed) in zip(closed, want))
    closed.clear()
    for V in modules:
        m_span(V)
    assert closed == []


def test_kernel_of_identity_and_zero():
    M = free_module(OI, F101, 1, 4)
    K, incl = kernel_of_map(ModuleMap(M, M, [Mat.identity(F101, d) for d in M.dims]))
    assert K.dims == [0] * 5
    K, incl = kernel_of_map(ModuleMap(M, M, [Mat.zeros(F101, d, d) for d in M.dims]))
    assert K.dims == M.dims
    assert _injective(incl)


def test_kernel_im1_dims():
    # IM(1) inside M(1) over OI: images >= 2, dimension t-1 at degree t
    V, proj = oi_torsion(horizon=4)
    M = free_module(OI, F101, 1, 4)
    K, incl = kernel_of_map(proj)
    assert K.dims == [0, 0, 1, 2, 3]
    inclusion = ModuleMap(K, M, incl.mats)
    assert commutation_defect(inclusion) is None
    assert inclusion.horizon == 4


def test_quotient_edges():
    M = free_module(OI, F101, 1, 4)
    zero_rows = [Mat.zeros(F101, 0, d) for d in M.dims]
    Z, incl = submodule_from_rows(M, zero_rows)
    Q, proj = quotient_by(incl.codomain, incl.mats)
    assert Q.dims == M.dims
    full_rows = [Mat.identity(F101, d) for d in M.dims]
    W, incl = submodule_from_rows(M, full_rows)
    Q, proj = quotient_by(incl.codomain, incl.mats)
    assert Q.dims == [0] * 5


def test_quotient_route_matches_presentation_route():
    # M(1)/IM(1) built as a quotient by the kernel submodule equals the
    # presentation cokernel
    V, proj = oi_torsion(horizon=5)
    M = free_module(OI, F101, 1, 5)
    K, incl = kernel_of_map(proj)
    Q, qproj = quotient_by(incl.codomain, incl.mats)
    assert Q.dims == V.dims[:6]
    assert commutation_defect(qproj) is None


def test_quotient_by_dependent_rows_matches_canonical_basis():
    # a spanning family with reordered and repeated rows gives the same
    # quotient and projection as the canonical basis of its span
    V, proj = oi_torsion(horizon=5)
    K, incl = kernel_of_map(proj)
    M = incl.codomain
    Q, qproj = quotient_by(M, incl.mats)
    family = [Mat.vstack([B.take_rows(range(B.nrows)[::-1]), B.scale(3), B]) for B in incl.mats]
    assert any(B.nrows > 1 for B in incl.mats)
    Q2, qproj2 = quotient_by(M, family)
    assert (Q2.dims, Q2.gens, qproj2.mats) == (Q.dims, Q.gens, qproj.mats)


def test_quotient_rejects_unstable_rows():
    # span{e_1} in degree 1 of M(1) over OI is not closed under 1 -> 2
    M = free_module(OI, F101, 1, 3)
    rows = [Mat.zeros(F101, 0, d) for d in M.dims]
    rows[1] = Mat.identity(F101, M.dims[1])
    with pytest.raises(ValueError, match="not well defined"):
        quotient_by(M, rows)


def test_direct_sum_dims_and_actions():
    A = free_module(OI, F101, 1, 3)
    B = free_module(OI, F101, 0, 3)
    S = direct_sum(A, B)
    assert S.dims == [1, 2, 3, 4]
    Z = zero_module(OI, F101, 3)
    assert direct_sum(A, Z).dims == A.dims
    assert commutation_defect(ModuleMap(S, S, [Mat.identity(F101, d) for d in S.dims])) is None


def test_induced_actions_commute():
    V, proj = oi_torsion()
    K, incl = kernel_of_map(proj)  # not meaningful; just exercises checks
    # commutation of the projection with all generators
    assert commutation_defect(proj) is None
    assert commutation_defect(incl) is None


def test_rank_nullity_degreewise():
    V, proj = oi_torsion(horizon=5)
    for t in range(6):
        mat = proj.mats[t]
        assert mat.rank() + mat.left_kernel().nrows == mat.nrows


def test_generating_degree_and_h0():
    V, _ = oi_torsion()
    dims = h0_dims(V)
    assert dims == [0, 1, 0, 0, 0, 0, 0]
    assert generating_degree(V) == 1
    assert generating_degree(zero_module(OI, F101, 3)) == -1


def test_truncate_consistency():
    M = free_module(FI, F101, 2, 5)
    T = truncate(M, 3)
    assert T.dims == M.dims[:4]
    a = Morphism(2, 3, (1, 2))
    assert T.act(a) == M.act(a)
    with pytest.raises(ValueError):
        truncate(T, 5)


def test_act_functoriality_on_presented_module():
    rng = random.Random(11)
    V, _ = oi_torsion()
    for _ in range(25):
        r = rng.randint(0, 3)
        s = rng.randint(r, 5)
        t = rng.randint(s, 6)
        homs_a, homs_b = OI.hom(r, s), OI.hom(s, t)
        if not homs_a or not homs_b:
            continue
        a = homs_a[rng.randrange(len(homs_a))]
        b = homs_b[rng.randrange(len(homs_b))]
        assert V.act(OI.compose(b, a)) == V.act(a) @ V.act(b)


@pytest.mark.parametrize("cat", [FI, OI, FIG, OIG], ids=lambda c: c.kind)
def test_generator_table_is_steps_and_ends_by_degree(cat):
    for h in range(-1, 5):
        want = []
        for t in range(h + 1):
            want += (cat.step_generators(t - 1) if t else ()) + cat.end_generators(t)
        assert cat.generators(h) == tuple(want)
        assert len(set(want)) == len(want)
    # every morphism off the table splits into two that compose back to it
    for s in range(4):
        table = set(cat.generators(s))
        for r in range(s + 1):
            for alpha in cat.hom(r, s):
                if alpha == cat.identity(r):
                    assert cat.split(alpha) is None
                elif alpha not in table:
                    a, b = cat.split(alpha)
                    assert (a.src, b.dst) == (r, s)
                    assert cat.compose(b, a) == alpha


@pytest.mark.parametrize("cat", [FI, OI, FIG, OIG], ids=lambda c: c.kind)
def test_act_costs_one_product_per_new_morphism(monkeypatch, cat):
    V = truncate(from_presentation(cat, F101, sample_presentation(cat, F101, 2), 4)[0], 3)
    products = []
    matmul = Mat.__matmul__
    monkeypatch.setattr(Mat, "__matmul__", lambda a, b: products.append(a.shape) or matmul(a, b))
    for g in cat.generators(3):
        assert V.act(g) is V.gens[g]
    for s in range(4):
        assert V.act(cat.identity(s)) == Mat.identity(F101, V.dims[s])
    assert products == []
    for s in range(4):
        for r in range(s + 1):
            for alpha in cat.hom(r, s):
                parts = cat.split(alpha)
                if parts is None or alpha in V.gens:
                    continue
                W = TruncatedModule(cat, F101, 3, V.dims, V.gens)
                a, b = (W.act(p) for p in parts)
                products.clear()
                out = W.act(alpha)
                assert len(products) == 1
                assert W.act(alpha) is out and len(products) == 1
                assert out == a @ b


def test_act_through_a_long_split_chain():
    # label 599 of cyclic:600 lies 599 generator steps deep in the end tree of 1,
    # past what a recursive walk of the splits could reach
    cat = make_category("fi_g", 600)
    M = free_module(cat, F101, 0, 1)
    assert M.act(Morphism(1, 1, (1,), (599,))) == Mat.identity(F101, 1)


def test_module_rejects_a_table_off_the_generators():
    M = free_module(FI, F101, 1, 3)  # dims [0, 1, 2, 6]
    step, swap = FI.step_generators(1)[0], FI.end_generators(2)[0]
    missing = {g: m for g, m in M.gens.items() if g != swap}
    extra = {**M.gens, FI.step_generators(3)[0]: Mat.zeros(F101, 6, 24)}
    wrong_shape = {**M.gens, step: Mat.zeros(F101, 1, 1)}
    for gens in (missing, extra, wrong_shape):
        with pytest.raises(ValueError):
            TruncatedModule(FI, F101, 3, M.dims, gens)
    assert TruncatedModule(FI, F101, 3, M.dims, dict(M.gens)).act(swap) == M.act(swap)


def _full_respin_closure(V, t, rows):
    """Oracle for end_closure: push the whole basis through every end
    generator each round, until the span stops growing."""
    current = rows.row_basis()
    gens = [V.gens[e] for e in V.cat.end_generators(t)]
    if not gens:
        return current
    while True:
        bigger = Mat.vstack([current] + [current @ g for g in gens]).row_basis()
        if bigger.nrows == current.nrows:
            return bigger
        current = bigger


@pytest.mark.parametrize("field", [parse_field("fp:2"), F101, QQ], ids=lambda f: f.name)
@pytest.mark.parametrize("cat", [FI, OI, FIG, OIG], ids=lambda c: c.kind)
def test_frontier_end_closure_matches_full_respin(monkeypatch, cat, field):
    # every end_closure call of building corpus modules (the relation rows)
    # and of minimal_generators (the W + v calls) is checked
    grown = []

    def checked(V, t, rows):
        out = end_closure(V, t, rows)
        assert out == _full_respin_closure(V, t, rows), (cat.kind, field.name, t)
        grown.append(out.nrows > rows.rank())
        return out

    monkeypatch.setattr(trunc, "end_closure", checked)
    monkeypatch.setattr(homology, "end_closure", checked)
    for seed in range(1, 7):
        V, _ = from_presentation(cat, field, sample_presentation(cat, field, seed), 4)
        homology.minimal_generators(V)
    assert any(grown) or not cat.end_generators(2)
