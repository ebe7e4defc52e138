"""Index tables of a category and the free modules and covers read off them.

The compose-based constructions they replaced are kept here as oracles:
generator tables and cover matrices must be identical to theirs, dtype and
Python entry types included.
"""

from functools import lru_cache
from itertools import permutations

import numpy as np
import pytest

from catrep import category, homology
from catrep.category import CategoryDescriptor, FiniteGroup, make_category
from catrep.corpus import sample_presentation
from catrep.fields import QQ, parse_field
from catrep.matrices import Mat
from catrep.presentations import from_presentation
from catrep.trunc import FreeModule, ModuleMap, kernel_of_map, submodule_from_rows, truncate
from seams import padded

CATS = [make_category("fi"), make_category("oi"), make_category("fi_g", 2), make_category("oi_g", 3)]
FIELDS = [parse_field("fp:2"), parse_field("fp:101"), QQ]
# a non-abelian group, so that label products in the wrong order show
_S3 = list(permutations(range(3)))
S3 = FiniteGroup.from_table([[_S3.index(tuple(a[i] for i in b)) for b in _S3] for a in _S3])
TABLE_CATS = CATS + [make_category("fi_g", S3), make_category("oi_g", S3)]


def _oracle_end_plan(cat, s):
    """end_plan(s) as its own breadth-first loop over the end generators."""
    count = cat.hom_count(s, s)
    position = np.full(count, -1, dtype=np.int64)
    position[0] = 0
    reached = 1
    frontier = np.zeros(1, dtype=np.int64)
    levels = []
    while True:
        level = []
        for g in cat.end_generators(s):
            children = cat.compose_table(s, g)[frontier]
            new = position[children] < 0
            if new.any():
                children = children[new]
                position[children] = np.arange(reached, reached + children.size)
                reached += children.size
                level.append((g, frontier[new], children))
        if not level:
            break
        levels.append(tuple(level))
        frontier = np.concatenate([c for _, _, c in level])
    assert reached == count
    return tuple(levels), position


def _oracle_coset_plan(cat, t):
    """coset_plan(t) grown one element at a time, with a set of seen cosets."""
    images, labels = cat.hom_arrays(t, t)
    fixed = images == np.arange(1, t + 1)
    key = images
    if cat.group:
        fixed &= labels == 0
        key = images * cat.group.order + labels
    levels = []
    for i in range(1, t + 1):
        gens = [g for g in cat.end_generators(t) if fixed[cat.hom_index(g), i:].all()]
        seen = {key[0, i - 1]}
        frontier, level = [0], []
        while frontier:
            grown = []
            for g in gens:
                parents, children = [], []
                for parent, child in zip(frontier, cat.compose_table(t, g)[frontier].tolist()):
                    if key[child, i - 1] not in seen:
                        seen.add(key[child, i - 1])
                        parents.append(parent)
                        children.append(child)
                if children:
                    level.append((g, np.array(parents), np.array(children)))
                    grown += children
            frontier = grown
        assert len(seen) * cat.hom_count(i - 1, i - 1) == cat.hom_count(i, i)
        levels.append(tuple(level))
    return tuple(levels)


def _identical(a: Mat, b: Mat) -> bool:
    return (a.field == b.field and a.shape == b.shape and a.data.dtype == b.data.dtype
            and np.array_equal(a.data, b.data)
            and list(map(type, a.data.flat)) == list(map(type, b.data.flat)))


def _unit_matrix(field, cols, ncols):
    """The dense matrix with row i the unit vector e_{cols[i]}, built entry by entry."""
    return Mat.from_rows(field, [[int(j == c) for j in range(ncols)] for c in cols], ncols)


def _tag_is_data(m: Mat) -> bool:
    """m is a basis map whose tag says what its materialized data hold."""
    cols = m.unit_cols
    return (cols is not None and len(set(cols.tolist())) == len(cols)
            and _identical(m, _unit_matrix(m.field, cols.tolist(), m.ncols)))


def _oracle_gen_matrix(P: FreeModule, g):
    """Basis map of g by composing and looking up every basis element."""
    cat = P.cat
    rows = []
    for k, s in enumerate(P.summands):
        for m in cat.hom(s, g.src):
            rows.append(P.offsets[g.dst][k] + cat.hom_index(cat.compose(g, m)))
    return _unit_matrix(P.field, rows, P.dims[g.dst])


@lru_cache(maxsize=None)
def _word_tree(cat, h):
    """Breadth-first tree, by compose alone, of every morphism with target <= h
    over cat.generators(h): alpha -> (parent, g) with alpha = g o parent, or
    None for an identity.  Insertion order puts each parent first."""
    tree = {cat.identity(r): None for r in range(h + 1)}
    frontier = list(tree)
    while frontier:
        found = []
        for m in frontier:
            for g in cat.generators(h):
                if g.src == m.dst:
                    y = cat.compose(g, m)
                    if y not in tree:
                        tree[y] = (m, g)
                        found.append(y)
        frontier = found
    return tree


def _word(cat, h, alpha):
    """The generators along the tree path to alpha, in application order."""
    tree, word = _word_tree(cat, h), []
    while tree[alpha] is not None:
        alpha, g = tree[alpha]
        word.append(g)
    return word[::-1]


def _oracle_act(Z, alpha):
    out = Mat.identity(Z.field, Z.dims[alpha.src])
    for g in _word(Z.cat, Z.horizon, alpha):
        out = out @ Z.gens[g]
    return out


def _oracle_act_vector(Z, row, alpha):
    return (Mat.from_rows(Z.field, [row], Z.dims[alpha.src]) @ _oracle_act(Z, alpha)).row(0)


def _oracle_cover(Z, gens):
    """Cover map by the orbit of each end morphism and a factorization per alpha."""
    cat, field, h = Z.cat, Z.field, Z.horizon
    P = FreeModule(cat, field, tuple(t for t, _ in gens), h)
    blocks = {}
    for k, (s, v) in enumerate(gens):
        blocks[(k, s)] = Mat.from_rows(field, [_oracle_act_vector(Z, v, e) for e in cat.hom(s, s)],
                                       Z.dims[s])
        for t in range(s + 1, h + 1):
            prev = blocks[(k, t - 1)]
            by_gamma = {}
            for i, alpha in enumerate(cat.hom(s, t)):
                beta, gamma = cat._factor_once(alpha)
                by_gamma.setdefault(gamma, []).append((i, cat.hom_index(beta)))
            order = [i for pairs in by_gamma.values() for i, _ in pairs]
            stacked = Mat.vstack([prev.take_rows([bi for _, bi in pairs]) @ _oracle_act(Z, gamma)
                                  for gamma, pairs in by_gamma.items()])
            position = {i: r for r, i in enumerate(order)}
            blocks[(k, t)] = stacked.take_rows([position[i] for i in range(len(order))])
    mats = []
    for t in range(h + 1):
        pieces = [blocks[(k, t)] if s <= t else Mat.zeros(field, 0, Z.dims[t])
                  for k, (s, _) in enumerate(gens)]
        mats.append(Mat.vstack(pieces) if pieces else Mat.zeros(field, 0, Z.dims[t]))
    return P, ModuleMap(P, Z, mats)


@pytest.mark.parametrize("cat", TABLE_CATS, ids=lambda c: c.name)
def test_compose_table_is_hom_index_of_compose(cat):
    h = 4 if cat.group is None else 3
    for g in cat.generators(h):
        for s in range(g.src + 1):
            want = [cat.hom_index(cat.compose(g, m)) for m in cat.hom(s, g.src)]
            assert cat.compose_table(s, g).tolist() == want, (s, g)


def test_ranks_at_larger_degrees():
    # OI hom sets stay small at high degrees, where the lex ranks are widest
    oi = make_category("oi")
    for s in range(9):
        images, labels = oi.hom_arrays(s, 12)
        assert oi._ranks(s, 12, images, labels).tolist() == list(range(oi.hom_count(s, 12)))
    fi = make_category("fi_g", 2)
    images, labels = fi.hom_arrays(3, 6)
    assert fi._ranks(3, 6, images, labels).tolist() == list(range(fi.hom_count(3, 6)))


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("cat", TABLE_CATS, ids=lambda c: c.name)
def test_act_matches_product_along_a_word(cat, field):
    # FI_G over S3 stops at degree 3: C(4, 4) alone has 31,104 morphisms there
    h = 3 if cat.kind == "fi_g" and cat.group.order == 6 else 4
    V, _ = from_presentation(cat, field, sample_presentation(cat, field, 2), 4)
    V = truncate(V, h)
    for Z in (FreeModule(cat, field, (1, 0, 1), h), V, homology.resolve(V, 0).steps[0].syzygy):
        # the product along each tree word, its prefix (the parent's word) shared
        along = {}
        for alpha, edge in _word_tree(cat, h).items():
            if edge is None:
                along[alpha] = Mat.identity(field, Z.dims[alpha.src])
            else:
                along[alpha] = along[edge[0]] @ Z.gens[edge[1]]
            assert Z.act(alpha) == along[alpha], (Z, alpha)


@pytest.mark.parametrize("cat", TABLE_CATS, ids=lambda c: c.name)
def test_end_plan_reaches_each_end_morphism_once(cat):
    for s in range(5 if cat.group is None else 4):
        homs = cat.hom(s, s)
        assert homs[0] == cat.identity(s)
        levels, position = cat.end_plan(s)
        reached = [0]
        for level in levels:
            earlier = set(reached)
            for g, parents, children in level:
                assert set(parents.tolist()) <= earlier
                for a, b in zip(parents.tolist(), children.tolist()):
                    assert homs[b] == cat.compose(g, homs[a])
                reached += children.tolist()
        assert sorted(reached) == list(range(len(homs)))
        assert position.tolist() == np.argsort(reached).tolist()


def _same_levels(got, want):
    assert len(got) == len(want)
    for level, old in zip(got, want):
        assert [g for g, _, _ in level] == [g for g, _, _ in old]
        for (_, parents, children), (_, old_parents, old_children) in zip(level, old):
            assert parents.dtype == old_parents.dtype and np.array_equal(parents, old_parents)
            assert children.dtype == old_children.dtype and np.array_equal(children, old_children)


@pytest.mark.parametrize("cat", TABLE_CATS, ids=lambda c: c.name)
def test_tree_builder_matches_the_plans_it_replaced(cat):
    # FI_G over S3 stops at degree 3: C(4, 4) alone has 31,104 morphisms there
    h = 3 if cat.kind == "fi_g" and cat.group.order == 6 else 4
    for t in range(h + 1):
        levels, position = cat.end_plan(t)
        old_levels, old_position = _oracle_end_plan(cat, t)
        _same_levels(levels, old_levels)
        assert np.array_equal(position, old_position)
        plan, old_plan = cat.coset_plan(t), _oracle_coset_plan(cat, t)
        assert len(plan) == len(old_plan) == t
        for level, old in zip(plan, old_plan):
            _same_levels((level,), (old,))


def test_memo_runs_each_body_once_per_descriptor(monkeypatch):
    memoised = {name: f for name, f in vars(CategoryDescriptor).items() if hasattr(f, "__wrapped__")}
    assert {"hom", "_hom_positions", "compose_table", "end_plan", "step_plan", "orbit_table",
            "end_inverse", "coset_plan"} <= set(memoised)
    runs = []

    def counted(name, body):
        def run(self, *args):
            runs.append((id(self), name, args))
            return body(self, *args)
        return run

    for name, f in memoised.items():
        monkeypatch.setattr(CategoryDescriptor, name, category._memo(counted(name, f.__wrapped__)))
    field = parse_field("fp:101")
    a, b = make_category("fi_g", 2), make_category("fi_g", 2)
    assert a == b
    for cat in (a, b, a):
        V, _ = from_presentation(cat, field, sample_presentation(cat, field, 1), 4)
        homology.tor_groups(V, 1)
        for t in range(4):
            cat.coset_plan(t), cat.end_inverse(t), cat.hom_index(cat.hom(t, t)[-1])
    assert len(runs) == len(set(runs)), "a memoised body ran twice for one argument tuple"
    assert {name for _, name, _ in runs} == set(memoised)
    tables = [{(name, args) for i, name, args in runs if i == id(cat)} for cat in (a, b)]
    assert tables[0] == tables[1], "equal descriptors share tables"
    assert a._cache is not b._cache and a.end_plan(3)[1] is not b.end_plan(3)[1]


@pytest.mark.parametrize("cat", TABLE_CATS, ids=lambda c: c.name)
def test_step_plan_partitions_each_hom_set(cat):
    for s in range(4):
        for t in range(s + 1, 5 if cat.group is None else 4):
            homs, lower = cat.hom(s, t), cat.hom(s, t - 1)
            order = []
            for gamma, betas, alphas in cat.step_plan(s, t):
                for b, a in zip(betas.tolist(), alphas.tolist()):
                    assert cat._factor_once(homs[a]) == (lower[b], gamma)
                order += alphas.tolist()
            assert sorted(order) == list(range(len(homs)))


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("cat", CATS, ids=lambda c: c.name)
def test_free_module_matches_compose_oracle(cat, field):
    h = 4 if cat.group is None else 3
    for summands in [(0,), (2,), (1, 0, 1, 2, 2), (3, 1, 1)]:
        P = FreeModule(cat, field, summands, h)
        for g, m in P.gens.items():
            # every generator is a basis map, tagged as built, and its tag
            # is what its materialized data hold
            assert m.unit_cols is not None and m._data is None, (summands, g)
            assert _identical(m, _oracle_gen_matrix(P, g)), (summands, g)
            assert _tag_is_data(m), (summands, g)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_unit_rows_tag_only_distinct_columns(field):
    A = Mat.from_rows(field, [[1, 2, 3], [4, 5, 6]], 3)
    for cols in ([2, 0, 1], [0, 0, 2], [1], []):
        B = Mat.unit_rows(field, cols, 4)
        assert _identical(B, _unit_matrix(field, cols, 4))
        # a repeated column leaves the matrix dense and untagged
        assert (B.unit_cols is not None) == (len(set(cols)) == len(cols))
        assert B.unit_cols is None or _tag_is_data(B)
        if len(cols) == 3:
            plain = Mat(field, B.nrows, B.ncols, B.data.copy())
            assert _identical(A @ B, A @ plain)
            assert _identical(A @ B, A @ Mat.identity(field, 4).take_rows(cols))


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("cat", CATS, ids=lambda c: c.name)
def test_cover_matches_orbit_oracle(monkeypatch, cat, field):
    # every cover of a padded depth-1 resolution (seams.padded), syzygy
    # covers included
    covers = []

    def checked(Z, gens):
        P, diff = homology_cover(Z, gens)
        P_old, diff_old = _oracle_cover(Z, gens)
        assert P.dims == P_old.dims and P.summands == P_old.summands
        for m, o in zip(diff.mats, diff_old.mats):
            assert _identical(m, o), (cat.name, field.name)
        covers.append(tuple(t for t, _ in gens))
        return P, diff

    homology_cover = homology._cover
    monkeypatch.setattr(homology, "_cover", checked)
    for seed in range(1, 7):
        V, _ = from_presentation(cat, field, sample_presentation(cat, field, seed), 4)
        with padded():
            res = homology.resolve(V, 1)
        for Z in (V, res.steps[0].syzygy):
            checked(Z, homology.minimal_generators(Z)[::-1])
    # runs of several generators of one degree, and degrees out of order
    assert any(len(d) > len(set(d)) for d in covers)
    assert any(list(d) != sorted(d) for d in covers)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_kernel_rows_are_not_echeloned_again(monkeypatch, field):
    cat = CATS[0]
    V, _ = from_presentation(cat, field, sample_presentation(cat, field, 3), 4)
    gens = homology.minimal_generators(V)
    _, diff = homology._cover(V, gens)
    rows = [m.left_kernel() for m in diff.mats]
    # untagged copies of the same canonical rows take the full route
    plain = [Mat(m.field, m.nrows, m.ncols, m.data.copy()) for m in rows]
    K_old, incl_old = submodule_from_rows(diff.domain, plain)

    calls = []
    echelon = Mat.echelon
    monkeypatch.setattr(Mat, "echelon", lambda m: calls.append(m.shape) or echelon(m))
    K, incl = submodule_from_rows(diff.domain, rows)
    assert calls == []
    assert K.dims == K_old.dims
    assert all(_identical(K.gens[g], K_old.gens[g]) for g in K.gens)
    assert all(_identical(a, b) for a, b in zip(incl.mats, incl_old.mats))
    assert kernel_of_map(diff)[0].dims == K.dims


@pytest.mark.parametrize("cat", TABLE_CATS, ids=lambda c: c.name)
def test_orbit_table_and_end_inverse_match_compose(cat):
    h = 4 if cat.group is None or cat.group.order < 3 else 3
    for t in range(h + 1):
        ends = cat.hom(t, t)
        inverse = cat.end_inverse(t)
        for i, sigma in enumerate(ends):
            assert cat.compose(ends[inverse[i]], sigma) == cat.identity(t) == cat.compose(sigma, ends[inverse[i]])
        for n in range(h + 1):
            rep, end = cat.orbit_table(t, n)
            homs = cat.hom(t, n)
            reps = np.flatnonzero(end == 0)
            assert len(rep) == len(homs) and rep[reps].tolist() == list(range(len(reps)))
            assert len(reps) * len(ends) == len(homs)
            for i, alpha in enumerate(homs):
                f = homs[reps[rep[i]]]
                assert list(f.images) == sorted(f.images) and not any(f.labels or ())
                assert cat.compose(f, ends[end[i]]) == alpha


@pytest.mark.parametrize("cat", TABLE_CATS, ids=lambda c: c.name)
def test_coset_plan_factors_every_end_once(cat):
    # the i-th transversal is a tree of children g o parent inside H_i, and
    # c_t o ... o c_1 over the transversals meets each end of t exactly once
    h = 4 if cat.group is None or cat.group.order < 3 else 3
    for t in range(h + 1):
        ends = cat.hom(t, t)
        plan = cat.coset_plan(t)
        assert len(plan) == t
        products = [cat.identity(t)]
        for i, level in enumerate(plan, start=1):
            reps = [0]
            for g, parents, children in level:
                assert [cat.hom_index(cat.compose(g, ends[p])) for p in parents] == children.tolist()
                reps += children.tolist()
            for c in reps:
                moved = ends[c]
                assert moved.images[i:] == tuple(range(i + 1, t + 1)) and not any((moved.labels or ())[i:])
            assert len(reps) * cat.hom_count(i - 1, i - 1) == cat.hom_count(i, i)
            products = [cat.compose(ends[c], p) for c in reps for p in products]
        assert sorted(cat.hom_index(m) for m in products) == list(range(len(ends)))
