"""Index tables of a category and the free modules and covers read off them.

The compose-based constructions they replaced are kept here as oracles:
generator tables and cover matrices must be identical to theirs, dtype and
Python entry types included.
"""

import random
from functools import lru_cache
from itertools import combinations, permutations, product

import numpy as np
import pytest

from catrep import category, homology
from catrep.category import CategoryDescriptor, FiniteGroup, make_category
from catrep.corpus import sample_presentation
from catrep.fields import QQ, parse_field
from catrep.matrices import Mat
from catrep.presentations import from_presentation
from catrep.trunc import FreeModule, ModuleMap, kernel_of_map, submodule_from_rows, truncate
from seams import free_gens, padded

CATS = [make_category("fi"), make_category("oi"), make_category("fi_g", 2), make_category("oi_g", 3)]
FIELDS = [parse_field("fp:2"), parse_field("fp:101"), QQ]
# a non-abelian group, so that label products in the wrong order show
_S3 = list(permutations(range(3)))
S3 = FiniteGroup.from_table([[_S3.index(tuple(a[i] for i in b)) for b in _S3] for a in _S3])
TABLE_CATS = CATS + [make_category("fi_g", S3), make_category("oi_g", S3)]


def _oracle_end_plan(cat, s):
    """The breadth-first levels of C(s, s) from the identity, as (g, parents,
    children) per end generator g, in a loop of their own."""
    reached = {0}
    frontier = np.zeros(1, dtype=np.int64)
    levels = []
    while True:
        level = []
        for g, row in zip(cat.end_generators(s), cat.group_table(s, s, s)):
            children = row[frontier]
            new = np.array([c not in reached for c in children.tolist()], dtype=bool)
            if new.any():
                reached.update(children[new].tolist())
                level.append((g, frontier[new], children[new]))
        if not level:
            break
        levels.append(tuple(level))
        frontier = np.concatenate([c for _, _, c in level])
    assert len(reached) == cat.hom_count(s, s)
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


def _oracle_orbit(Z, v, s):
    """v act(e) for every e in hom(s, s), in hom order: the products along the
    words of _word_tree, one product per tree depth and generator."""
    cat = Z.cat
    rows = {cat.identity(s): Mat.from_rows(Z.field, [v], Z.dims[s])}
    depth, steps = {cat.identity(s): 0}, {}
    for alpha, edge in _word_tree(cat, Z.horizon).items():
        if edge is not None and alpha.src == alpha.dst == s:
            depth[alpha] = depth[edge[0]] + 1
            steps.setdefault((depth[alpha], edge[1]), []).append((edge[0], alpha))
    for (_, g), pairs in sorted(steps.items(), key=lambda item: item[0][0]):
        block = Mat.vstack([rows[parent] for parent, _ in pairs]) @ Z.gens[g]
        rows.update((alpha, block.take_rows([i])) for i, (_, alpha) in enumerate(pairs))
    return Mat.from_rows(Z.field, [rows[e].row(0) for e in cat.hom(s, s)], Z.dims[s])


def _oracle_cover(Z, gens):
    """Cover map by the orbit of each end morphism and a factorization per alpha."""
    cat, field, h = Z.cat, Z.field, Z.horizon
    P = FreeModule(cat, field, tuple(t for t, _ in gens), h)
    blocks = {}
    for k, (s, v) in enumerate(gens):
        blocks[(k, s)] = _oracle_orbit(Z, v, s)
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


def _lex_hom(cat, r, s):
    """(images, labels) of every morphism r -> s, images lex, then labels lex,
    enumerated by itertools alone."""
    pick = combinations if cat.ordered else permutations
    labels = product(range(cat.group.order), repeat=r) if cat.group else [None]
    return list(product(pick(range(1, s + 1), r), labels))


@pytest.mark.parametrize("cat", TABLE_CATS, ids=lambda c: c.name)
def test_hom_is_lex_enumeration_and_hom_index_its_place(cat):
    for s in range(4 if cat.group is None or cat.group.order < 6 else 3):
        for r in range(s + 1):
            homs = cat.hom(r, s)
            assert [(m.images, m.labels) for m in homs] == _lex_hom(cat, r, s)
            assert [cat.hom_index(m) for m in homs] == list(range(len(homs)))
        assert cat.hom(s + 1, s) == ()
    # one batch over every hom set at once, interleaved, in input order
    homs = [m for s in range(4) for r in range(s + 1) for m in cat.hom(r, s)]
    random.Random(cat.name).shuffle(homs)
    assert cat.hom_indices(homs) == [cat.hom_index(m) for m in homs]
    assert cat.hom_indices([]) == []


def test_hom_index_refuses_what_is_not_a_morphism():
    fi, fig = make_category("fi"), make_category("fi_g", S3)
    for cat, m, reason in [(fi, category.Morphism(2, 2, (1, 1)), "not injective"),
                           (fig, category.Morphism(1, 2, (2,), (6,)), "label out of range"),
                           (fig, category.Morphism(1, 2, (2,)), "missing labels")]:
        with pytest.raises(ValueError, match=reason):
            cat.hom_index(m)
        with pytest.raises(ValueError, match=reason):
            cat.hom_indices([cat.identity(2), m, cat.identity(1)])


def test_ranks_at_larger_degrees():
    # OI hom sets stay small at high degrees, where the lex ranks are widest
    oi = make_category("oi")
    for s in range(9):
        images, labels = oi.hom_arrays(s, 12)
        assert oi._ranks(s, 12, images, labels).tolist() == list(range(oi.hom_count(s, 12)))
    fi = make_category("fi_g", 2)
    images, labels = fi.hom_arrays(3, 6)
    assert fi._ranks(3, 6, images, labels).tolist() == list(range(fi.hom_count(3, 6)))


@pytest.mark.parametrize("cat", TABLE_CATS, ids=lambda c: c.name)
def test_shift_and_mu_are_entries_of_the_action_table(cat):
    # shift_module and mu_map read V.gens with no act: the self-embedding
    # sends every stored generator to a stored one, and each mu witness is a
    # step generator
    for h in range(7):
        stored = set(cat.generators(h + 1))
        assert all(cat.embed(g) in stored for g in cat.generators(h))
        assert cat.mu_witness(h) in cat.step_generators(h)


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
    # the end tree lists its children breadth-first, each parent before them
    for s in range(5 if cat.group is None else 4):
        homs = cat.hom(s, s)
        assert homs[0] == cat.identity(s)
        reached = {0}
        for child, (parent, g) in cat._end_tree(s).items():
            assert cat.hom_index(parent) in reached and child not in reached
            assert homs[child] == cat.compose(g, parent)
            reached.add(child)
        assert reached == set(range(len(homs)))


@pytest.mark.parametrize("cat", TABLE_CATS, ids=lambda c: c.name)
def test_tree_builder_matches_the_plans_it_replaced(cat):
    # FI_G over S3 stops at degree 3: C(4, 4) alone has 31,104 morphisms there
    h = 3 if cat.kind == "fi_g" and cat.group.order == 6 else 4
    for t in range(h + 1):
        homs = cat.hom(t, t)
        want = [(c, (homs[p], g)) for level in _oracle_end_plan(cat, t) for g, parents, children in level
                for p, c in zip(parents.tolist(), children.tolist())]
        assert list(cat._end_tree(t).items()) == want


def test_memo_runs_each_body_once_per_descriptor(monkeypatch):
    memoised = {name: f for name, f in vars(CategoryDescriptor).items() if hasattr(f, "__wrapped__")}
    assert {"hom", "hom_arrays", "group_table", "_end_tree"} <= set(memoised)
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
        homology.resolve(V, 1)
        for t in range(4):
            V.act(cat.hom(t, t)[-1])  # split reads _end_tree
    assert len(runs) == len(set(runs)), "a memoised body ran twice for one argument tuple"
    assert {name for _, name, _ in runs} == set(memoised)
    tables = [{(name, args) for i, name, args in runs if i == id(cat)} for cat in (a, b)]
    assert tables[0] == tables[1], "equal descriptors share tables"
    assert a._cache is not b._cache and a._end_tree(3) is not b._end_tree(3)
    assert list(a._end_tree(3).items()) == list(b._end_tree(3).items())


@pytest.mark.parametrize("cat", TABLE_CATS, ids=lambda c: c.name)
def test_step_plan_partitions_each_hom_set(cat):
    # split factors each alpha in C(s, t), t > s, by _factor_once as gamma o beta,
    # gamma the plain one-step missing alpha's largest missed point; grouped by
    # gamma the betas are distinct and gamma's row of the step group's table
    # sends them back to the alphas
    for s in range(4):
        for t in range(s + 1, 5 if cat.group is None else 4):
            homs = cat.hom(s, t)
            plan = {}
            for a, alpha in enumerate(homs):
                beta, gamma = cat._factor_once(alpha)
                assert (gamma.src, gamma.dst) == (t - 1, t) and not any(gamma.labels or ())
                assert list(gamma.images) == sorted(gamma.images)
                missed = set(range(1, t + 1)) - set(alpha.images)
                assert set(range(1, t + 1)) - set(gamma.images) == {max(missed)}
                plan.setdefault(gamma, []).append((cat.hom_index(beta), a))
            order = []
            for gamma, pairs in plan.items():
                betas, alphas = (np.array(x, dtype=np.int64) for x in zip(*pairs))
                assert len(set(betas.tolist())) == len(betas)
                row = cat.group_table(s, t - 1, t)[cat.step_generators(t - 1).index(gamma)]
                assert row[betas].tolist() == alphas.tolist()
                order += alphas.tolist()
            assert sorted(order) == list(range(len(homs)))


def _skip_cols(cat, s, r):
    """hom_index(g o m) for the skip maps g out of r (rows) and every m in
    hom(s, r): the skip map missing p sends image point i to i + (i >= p) and
    keeps the labels, and each composite is looked up in the lex enumeration
    of C(s, r + 1)."""
    position = {key: i for i, key in enumerate(_lex_hom(cat, s, r + 1))}
    images, labels = zip(*_lex_hom(cat, s, r))
    images = np.array(images, dtype=np.int64).reshape(len(images), s)
    rows = []
    for g in cat.step_generators(r):
        (p,) = set(range(1, r + 2)) - set(g.images)
        assert g.labels is None or set(g.labels) <= {0}, g
        shifted = map(tuple, (images + (images >= p)).tolist())
        rows.append([position[key] for key in zip(shifted, labels)])
    return rows


def _end_cols(cat, s, gens):
    """hom_index(g o m) for the end generators g of C(r, r) (rows) and every m
    in hom(s, r): compose, then look the composite up in the lex enumeration
    of C(s, r)."""
    r = gens[0].src
    position = {key: i for i, key in enumerate(_lex_hom(cat, s, r))}
    homs = cat.hom(s, r)
    return [[position[c.images, c.labels] for c in (cat.compose(g, m) for m in homs)] for g in gens]


@pytest.mark.parametrize("cat", TABLE_CATS, ids=lambda c: c.name)
def test_group_tables_are_hom_index_of_compose(cat):
    # one gather and one _ranks call give the table of a whole group: the skip
    # maps out of r, or the end generators of C(r, r).  The references share
    # no code with _ranks.  Skip maps go to r = 6 (FI_G over S3: r = 4, where
    # C(6, 6) already has 720 * 6^6 ends), end groups to r = 6 on FI and OI
    # and r = 4 on the decorated kinds
    skip_top = 4 if cat.kind == "fi_g" and cat.group.order == 6 else 6
    end_top = 6 if cat.group is None else 4
    for (r, t), group in cat.generator_groups(skip_top + 1):
        if r > (skip_top if t > r else end_top):
            continue
        for s in range(r + 1):
            table = cat.group_table(s, r, t)
            assert table.shape == (len(group), cat.hom_count(s, r))
            want = _skip_cols(cat, s, r) if t > r else _end_cols(cat, s, group)
            assert table.tolist() == want, (s, r, t)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("cat", CATS, ids=lambda c: c.name)
def test_free_module_matches_compose_oracle(cat, field):
    h = 4 if cat.group is None else 3
    for summands in [(0,), (2,), (1, 0, 1, 2, 2), (3, 1, 1)]:
        P = FreeModule(cat, field, summands, h)
        want = free_gens(P)
        for g, m in P.gens.items():
            # every generator is a basis map, tagged as built, and its tag
            # is what its materialized data hold
            assert m.unit_cols is not None and m._data is None, (summands, g)
            assert _identical(m, want[g]), (summands, g)
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
def test_unit_row_maps_tag_as_unit_rows_does(field):
    # one check over the whole table, row by row the same tags and data
    table = [[2, 0, 1], [0, 0, 2], [3, 1, 3], [1, 2, 3]]
    got = Mat.unit_row_maps(field, table, 4)
    for m, cols in zip(got, table):
        want = Mat.unit_rows(field, cols, 4)
        assert (m.unit_cols is None) == (want.unit_cols is None) == (len(set(cols)) < 3)
        assert _identical(m, want)
    assert Mat.unit_row_maps(field, np.zeros((2, 0), dtype=np.intp), 3)[1].shape == (0, 3)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("cat", TABLE_CATS, ids=lambda c: c.name)
def test_cover_matches_orbit_oracle(monkeypatch, cat, field):
    # every cover of a padded depth-1 resolution (seams.padded), syzygy
    # covers included; over S3 a label product taken in the wrong order shows
    h = 3 if cat.group is not None and cat.group.order == 6 else 4
    covers = []

    def checked(Z, gens):
        P, diff = homology_cover(Z, gens)
        # the walk reads the free generators' column arrays, never their data
        assert all(m.unit_cols is not None and m._data is None for m in P.gens.values())
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
        V = truncate(V, h)
        with padded():
            res = homology.resolve(V, 1)
        for Z in (V, res.steps[0].syzygy):
            checked(Z, homology.minimal_generators(Z)[::-1])
    # runs of several generators of one degree, and degrees out of order
    assert any(len(d) > len(set(d)) for d in covers)
    assert any(list(d) != sorted(d) for d in covers)


def test_cover_refuses_rows_its_walk_cannot_reach(monkeypatch):
    # without the swap of C(2, 2) the walk reaches only half of FI's M(2)
    cat, field = make_category("fi"), FIELDS[1]
    Z = FreeModule(cat, field, (2,), 3)
    monkeypatch.setattr(cat, "end_generators", lambda s: ())
    with pytest.raises(AssertionError, match="reach 1 of 2 rows at degree 2"):
        homology._cover(Z, [(2, [1, 0])])


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
def test_orbit_table_matches_compose(cat):
    # C(t, t) acts freely on C(t, n) by precomposition, and each orbit holds one
    # increasing injection with identity labels: alpha = f o sigma, f with alpha's
    # images sorted, sigma sending i to the rank of alpha's i-th image with
    # alpha's labels.  The ranks _subset_ranks and _ranks give f and sigma over
    # whole hom arrays must agree with compose.
    h = 4 if cat.group is None or cat.group.order < 3 else 3
    for t in range(h + 1):
        ends = cat.hom(t, t)
        for n in range(h + 1):
            images, labels = cat.hom_arrays(t, n)
            order = np.argsort(images, axis=1)
            rep = category._subset_ranks(n, t, np.take_along_axis(images, order, axis=1))
            end = cat._ranks(t, t, np.argsort(order, axis=1) + 1, labels)
            homs = cat.hom(t, n)
            reps = np.flatnonzero(end == 0)
            assert len(rep) == len(homs) and rep[reps].tolist() == list(range(len(reps)))
            assert len(reps) * len(ends) == len(homs)
            for i, alpha in enumerate(homs):
                f = homs[reps[rep[i]]]
                assert list(f.images) == sorted(f.images) and not any(f.labels or ())
                assert cat.compose(f, ends[end[i]]) == alpha
