"""The minimal route of resolve: covers by M(W) where the end algebras are semisimple.

The free-cover route stays as the oracle, reached through seams.free_route
(homology._semisimple_ends patched to False).  On corpus modules of every
category kind over F_101 and Q the two give the same Tor dims, every
minimal cover is a module map, and the lift of H_0 is equivariant.  On the
modular fields, where the free route runs unpatched, a padded resolution
(seams.padded: a redundant generator at every step) gives the same Tor.
The route guard pins which route runs: a silent fallback to free covers
would fail here, not only show up as a slower benchmark.
"""

import numpy as np
import pytest

from catrep import homology
from catrep.category import make_category
from catrep.corpus import sample_presentation
from catrep.fields import QQ, parse_field
from catrep.matrices import Mat
from catrep.presentations import from_presentation
from catrep.trunc import FreeModule, ProjectiveModule, TruncatedModule, end_representation
from seams import free_route, padded, recorded

F101 = parse_field("fp:101")
CATS = [make_category("fi"), make_category("oi"), make_category("fi_g", 2), make_category("oi_g", 3)]


def _corpus(cat, field, seeds):
    h = 5 if cat.group is None else 4
    return [from_presentation(cat, field, sample_presentation(cat, field, s), h)[0] for s in seeds]


def _scrambled(V, seed):
    """V in the basis rows of B_t = I + u v, u and v on the even and the odd
    coordinates, so B_t^-1 = I - u v: an isomorphic module whose (mV)_t
    rarely has a C(t, t)-stable complement among the coordinate vectors."""
    rng = np.random.default_rng(seed)
    B, back = [], []
    for d in V.dims:
        u = Mat.from_rows(V.field, [[int(x) * (i % 2 == 0)] for i, x in enumerate(rng.integers(1, 9, d))], 1)
        v = Mat.from_rows(V.field, [[int(x) * (i % 2) for i, x in enumerate(rng.integers(1, 9, d))]], d)
        B.append(Mat.identity(V.field, d) + u @ v)
        back.append(Mat.identity(V.field, d) - u @ v)
    gens = {g: B[g.src] @ m @ back[g.dst] for g, m in V.gens.items()}
    return TruncatedModule(V.cat, V.field, V.horizon, V.dims, gens)


def _tor(V, depth):
    """(resolution, Tor dims) from one tor_groups call."""
    with recorded() as resolutions:
        dims = homology.tor_groups(V, depth).dims
    return resolutions[-1], dims


def _free_route_tor(V, depth):
    with free_route():
        res, dims = _tor(V, depth)
    assert not res.minimal
    return dims


@pytest.mark.parametrize("field", [F101, QQ], ids=lambda f: f.name)
@pytest.mark.parametrize("cat", CATS, ids=lambda c: c.name)
def test_minimal_route_matches_free_route(monkeypatch, cat, field):
    covers, counts = [], []
    minimal_cover, equivariant_lift = homology._minimal_cover, homology._equivariant_lift

    def checked(Z, spans):
        P, diff = minimal_cover(Z, spans)
        assert diff.commutation_defect() is None
        for k, t in enumerate(P.summands):
            S, W = diff.mats[t].take_rows(P.top_indices(t)), P.representations[k]
            for g in cat.end_generators(t):
                assert W.gens[g] @ S == S @ Z.gens[g], (t, g)
        covers.append(P.widths)
        return P, diff

    def counted(*args):
        S, c = equivariant_lift(*args)
        counts.append(c)
        return S, c

    monkeypatch.setattr(homology, "_minimal_cover", checked)
    monkeypatch.setattr(homology, "_equivariant_lift", counted)
    modules = _corpus(cat, field, (1, 2, 3)) + [FreeModule(cat, field, (1, 2), 4 if cat.group is None else 3)]
    for V in modules + [_scrambled(V, seed) for seed, V in enumerate(modules)]:
        res, dims = _tor(V, 2)
        assert res.minimal
        assert dims == _free_route_tor(V, 2)
        # Tor is read off the covers: H_i in degree t is dim W^i_t
        for i, step in enumerate(res.steps):
            for t in range(V.horizon + 1):
                assert dims[i][t] == sum(w for s, w in zip(step.free.summands, step.free.widths) if s == t)
    assert any(w for ws in covers for w in ws)
    # both ways to the lift ran: a stable complement (c = 1) and, where the
    # ends are nontrivial, the Reynolds sum along the coset plan
    assert 1 in counts and (cat.kind == "oi" or max(counts) > 1)


def test_minimal_route_runs_no_greedy_generators(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("minimal_generators ran on the minimal route")

    monkeypatch.setattr(homology, "minimal_generators", refused)
    cat = CATS[0]
    for V in _corpus(cat, F101, (1, 2, 3)):
        res = homology.resolve(V, 2)
        assert res.minimal and all(isinstance(step.free, ProjectiveModule) for step in res.steps)


# Tor dims of corpus modules (horizon 4, depth 2) by seed, from the free
# route before the minimal route existed
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


@pytest.mark.parametrize("key", list(MODULAR), ids=lambda k: f"{k[0]}-{k[2]}")
def test_modular_fields_take_the_free_route(monkeypatch, key):
    kind, group, spec = key
    cat, field = make_category(kind, group), parse_field(spec)
    calls = []
    minimal_generators = homology.minimal_generators
    monkeypatch.setattr(homology, "minimal_generators",
                        lambda *a, **k: calls.append(1) or minimal_generators(*a, **k))
    for seed, want in MODULAR[key].items():
        V, _ = from_presentation(cat, field, sample_presentation(cat, field, seed), 4)
        calls.clear()
        res, dims = _tor(V, 2)
        assert not res.minimal and len(calls) == 3
        assert all(type(step.free) is FreeModule for step in res.steps)
        assert dims == want


@pytest.mark.parametrize("key", list(MODULAR), ids=lambda k: f"{k[0]}-{k[2]}")
def test_padded_resolution_keeps_modular_tor(key):
    kind, group, spec = key
    cat, field = make_category(kind, group), parse_field(spec)
    for seed, want in MODULAR[key].items():
        V, _ = from_presentation(cat, field, sample_presentation(cat, field, seed), 4)
        with padded() as repeated:
            res, dims = _tor(V, 2)
        # a redundant generator at every step, syzygy covers included
        assert not res.minimal and len(repeated) == 3
        assert dims == want


def test_route_runs_exactly_when_the_end_count_is_a_unit():
    cases = [("fi", None, "fp:2", 1, True), ("fi", None, "fp:2", 2, False),
             ("fi", None, "fp:5", 4, True), ("fi", None, "fp:5", 5, False),
             ("fi", None, "q", 6, True), ("oi", None, "fp:2", 6, True),
             ("fi_g", 3, "fp:3", 1, False), ("fi_g", 3, "fp:101", 4, True),
             ("oi_g", 2, "fp:2", 1, False), ("oi_g", 3, "fp:2", 4, True)]
    for kind, group, spec, h, want in cases:
        cat, field = make_category(kind, group), parse_field(spec)
        V = FreeModule(cat, field, (0,), h)
        assert homology._semisimple_ends(V) is want, (kind, spec, h)
        assert homology.resolve(V, 0).minimal is want


@pytest.mark.parametrize("field", [parse_field("fp:7"), QQ], ids=lambda f: f.name)
@pytest.mark.parametrize("cat", CATS, ids=lambda c: c.name)
def test_projective_on_the_regular_representation_is_free(cat, field):
    # M(k[C(t, t)]) = M(t): basis (f, tau) <-> f o tau carries one module
    # structure onto the other, dense (non-identity sigma) blocks included;
    # only the end generators' matrices are given, the rest come from act
    h = 4 if cat.group is None else 3
    for t in range(3):
        ends = cat.hom(t, t)
        regular = {g: Mat.identity(field, len(ends)).take_cols(np.argsort(cat.compose_table(t, g)))
                   for g in cat.end_generators(t)}
        P = ProjectiveModule(cat, field, [(t, end_representation(cat, field, t, len(ends), regular))], h)
        F = FreeModule(cat, field, (t,), h)
        assert P.dims == F.dims and P.gen_degrees == (t,) * len(ends)
        perm = []
        for n in range(h + 1):
            reps = [cat.hom(t, n)[i] for i in np.flatnonzero(cat.orbit_table(t, n)[1] == 0)]
            perm.append(np.array([cat.compose_table(t, f)[tau] for f in reps for tau in range(len(ends))],
                                 dtype=np.intp))
        for g, m in P.gens.items():
            assert np.array_equal(m.data, F.gens[g].data[perm[g.src]][:, perm[g.dst]]), (t, g)
        assert P.top_indices(t) == list(range(len(ends)))


def test_projective_rejects_a_misplaced_representation():
    cat = CATS[0]
    W = end_representation(cat, F101, 2, 1, {g: Mat.identity(F101, 1) for g in cat.end_generators(2)})
    ProjectiveModule(cat, F101, [(2, W)], 3)
    with pytest.raises(ValueError):
        ProjectiveModule(cat, F101, [(1, W)], 3)
    with pytest.raises(ValueError):
        ProjectiveModule(cat, F101, [(2, FreeModule(cat, F101, (1,), 2))], 3)


@pytest.mark.parametrize("field", [F101, QQ], ids=lambda f: f.name)
def test_generator_at_the_horizon_stays_small(monkeypatch, field):
    # M(6) over FI at horizon 6: W_6 is the regular representation of S_6
    # (w = 720).  No matrix larger than the module itself may be built: an
    # orbit block over all of C(6, 6) would hold 720 * 720 rows.
    cat = CATS[0]
    V = FreeModule(cat, field, (6,), 6)
    largest = []
    matmul = Mat.__matmul__
    monkeypatch.setattr(Mat, "__matmul__", lambda a, b: largest.append(max(a.nrows, b.nrows)) or matmul(a, b))
    res, dims = _tor(V, 1)
    assert res.minimal and res.steps[0].free.widths == (720,)
    assert dims == [[0] * 6 + [720], [0] * 7]
    assert max(largest) <= 720
