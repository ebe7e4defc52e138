"""Seams that reach the behaviours the entry points do not select.

tor_groups reads Tor off the Koszul complex; resolution_tor reads it off
resolve instead, the reference that tests compare tor_groups against.
koszul_differential builds one Koszul differential block by block, the
reference for the sparse rows tor_groups builds, and koszul_failures
multiplies consecutive ones: the dense d o d = 0 check that tor_groups
certifies on the step generators' identities instead.  spy_koszul_rows()
records each differential tor_groups builds, as a copy of its sparse rows
(which the rank consumes) and as the Mat they densify to (densify).
padded() patches the name resolve looks up in catrep.homology so that the
first greedy generator is repeated at every step: a non-minimal resolution
that must give the same Tor.  It yields the list of repeated (degree, row)
generators, one per step.  non_functorial() is a module no presentation
can give, for the checks that guard against one.

un_chain stops where the chain stabilizes; continued() extends its steps.
commutation_defect() checks a ModuleMap against the actions; direct_sum() adds two modules.

The module constructions of trunc act one (src, dst) group of generators at
a time.  submodule_from_rows, quotient_by and module_closure_of_rows build
the same results one generator at a time, with one product or one scatter
per generator: the references the grouped constructions are compared
against.  free_gens builds a free module's generator table by composing
each generator with each basis element and looking the composite up
(hom_index): the reference for the free modules read off the category's
group tables.
"""

import contextlib
import itertools
from math import comb

import pytest

from catrep import homology
from catrep.category import make_category
from catrep.fields import parse_field
from catrep.matrices import Mat
from catrep.trunc import ModuleMap, TruncatedModule, end_closure, truncate


def resolution_tor(V, depth):
    """dims[i][t] = dim Tor_i(V)_t read off resolve(V, depth).

    Reducing P^i mod m keeps its top basis elements (sel[i][t]: (k, sigma)
    for the summands k generated in degree t and every sigma in C(t, t)),
    so a reduced differential is a row/column selection of a realized one,
    and the reduced image of d_{i+1} is that of Z^{i+1} = im d_{i+1} inside
    P^i.  H_i is the reduced kernel modulo the reduced image, which holds
    for non-minimal (padded) resolutions and over any field.
    """
    res = homology.resolve(V, depth)
    h = V.horizon
    dims = [[0] * (h + 1) for _ in range(depth + 1)]
    sel = [[[P.offsets[t][k] + j for k, s in enumerate(P.summands) if s == t
             for j in range(P.cat.hom_count(t, t))] for t in range(h + 1)]
           for P in (step.free for step in res.steps)]
    for t in range(h + 1):
        for i, step in enumerate(res.steps):
            if i == 0:
                kernel_rows = Mat.identity(V.field, len(sel[0][t]))
            else:
                realized = step.diff.mats[t] @ res.steps[i - 1].syzygy_incl.mats[t]
                kernel_rows = realized.take_rows(sel[i][t]).take_cols(sel[i - 1][t]).left_kernel()
            image_red = step.syzygy_incl.mats[t].take_cols(sel[i][t]).row_basis()
            assert Mat.vstack([kernel_rows, image_red]).rank() == kernel_rows.nrows, (i, t)
            dims[i][t] = kernel_rows.nrows - image_red.nrows
    return dims


def commutation_defect(f):
    """First (source degree, generator) square of the ModuleMap f that fails
    to commute, in generator table order, else None."""
    for g in f.domain.cat.generators(f.horizon):
        if f.domain.gens[g] @ f.mats[g.dst] != f.mats[g.src] @ f.codomain.gens[g]:
            return (g.src, g)
    return None


def direct_sum(V, W):
    """Block-diagonal direct sum truncated at the smaller horizon."""
    if V.cat != W.cat or V.field != W.field:
        raise ValueError("direct sum needs matching category and field")
    h = min(V.horizon, W.horizon)
    Vh, Wh = truncate(V, h), truncate(W, h)
    dims = [Vh.dims[t] + Wh.dims[t] for t in range(h + 1)]
    gens = {g: _block_diag(Vh.gens[g], Wh.gens[g]) for g in V.cat.generators(h)}
    return TruncatedModule(V.cat, V.field, h, dims, gens)


def _block_diag(a, b):
    return Mat.vstack([
        Mat.hstack([a, Mat.zeros(a.field, a.nrows, b.ncols)]),
        Mat.hstack([Mat.zeros(a.field, b.nrows, a.ncols), b]),
    ])


def koszul_differential(V, n, i):
    """d_i: K_i(V)_n -> K_{i-1}(V)_n, one block copy per subset and face.

    The block from copy S = {s_0 < ...} to copy S minus s_k is (-1)^k
    act(_skip_map(n-i, s_k - k)), read and negated afresh for each p.
    """
    a, b = V.dims[n - i], V.dims[n - i + 1]
    faces = {S: j for j, S in enumerate(itertools.combinations(range(1, n + 1), i - 1))}
    signed = []  # signed[p - 1] = (act, -act) of the skip map missing p
    for p in range(1, n - i + 2):
        m = V.act(V.cat._skip_map(n - i, p))
        signed.append((m.data, m.scale(-1).data))
    nrows, ncols = comb(n, i) * a, len(faces) * b
    data = Mat.zeros(V.field, nrows, ncols).data
    for r, S in enumerate(itertools.combinations(range(1, n + 1), i)):
        for k, s in enumerate(S):
            c = faces[S[:k] + S[k + 1:]]
            data[r * a:(r + 1) * a, c * b:(c + 1) * b] = signed[s - k - 1][k % 2]
    return Mat(V.field, nrows, ncols, data)


def densify(field, rows, ncols):
    """The Mat whose rows are the sparse rows, dicts column -> entry."""
    m = Mat.zeros(field, len(rows), ncols)
    for k, row in enumerate(rows):
        for c, v in row.items():
            m.data[k, c] = v
    return m


def spy_koszul_rows(monkeypatch):
    """Record (n, i, rows, d_i) for every Koszul differential tor_groups builds:
    a copy of its sparse rows and their densified Mat."""
    built, build = [], homology._koszul_rows

    def spy(V, n, i, signed):
        rows = build(V, n, i, signed)
        d = densify(V.field, rows, comb(n, i - 1) * V.dims[n - i + 1])
        built.append((n, i, [dict(row) for row in rows], d))
        return rows

    monkeypatch.setattr(homology, "_koszul_rows", spy)
    return built


def koszul_failures(V, depth):
    """(n, i), in the order tor_groups(V, depth) meets them, of every nonzero
    d_i d_{i-1} whose terms are all nonzero, each d built by koszul_differential."""
    return [(n, i) for n in range(V.horizon + 1) for i in range(2, min(depth + 1, n) + 1)
            if V.dims[n - i] and V.dims[n - i + 1] and V.dims[n - i + 2]
            and not (koszul_differential(V, n, i) @ koszul_differential(V, n, i - 1)).is_zero()]


def non_functorial():
    """OI/F_101 with dims [1, 1, 1]: 0 -> 1 acts by 1 and the two one-steps
    1 -> 2 by 2 and 3, so the two ways from 0 to 2 disagree."""
    oi, field = make_category("oi"), parse_field("fp:101")
    scalars = {oi._skip_map(0, 1): 1, oi._skip_map(1, 1): 2, oi._skip_map(1, 2): 3}
    gens = {g: Mat.from_rows(field, [[scalars[g]]]) for g in oi.generators(2)}
    return TruncatedModule(oi, field, 2, [1, 1, 1], gens)


@contextlib.contextmanager
def padded():
    greedy, repeated = homology.minimal_generators, []

    def with_redundant(Z, spans=None):
        gens = greedy(Z, spans=spans)
        repeated.extend(gens[:1])
        return gens + gens[:1]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(homology, "minimal_generators", with_redundant)
        yield repeated


def continued(chain, max_steps):
    """(bases, valid_horizons) of chain, continued to max_steps steps.

    Past stabilization at n0 every step is U^{n0} on its window h - n:
    U^{n+1} = mu^-1(S U^n) is a function of U^n, and U^{n0+1} = U^{n0}.
    Steps end, as in un_chain, once the window closes.
    """
    bases, valid = list(chain.bases), list(chain.valid_horizons)
    if chain.status == "stabilized":
        stable, h = chain.bases[chain.stabilized_at], chain.V.horizon
        for n in range(len(bases), max_steps + 1):
            if h - n < -1:
                break
            bases.append(stable[: h - n + 1])
            valid.append(h - n)
    return bases, valid


def free_gens(P):
    """The generator table of the free module P: basis element (k, m) goes to
    (k, g o m), composed and looked up one basis element at a time."""
    cat, gens = P.cat, {}
    for g in cat.generators(P.horizon):
        cols = [P.offsets[g.dst][k] + cat.hom_index(cat.compose(g, m))
                for k, s in enumerate(P.summands) for m in cat.hom(s, g.src)]
        gens[g] = Mat.unit_rows(P.field, cols, P.dims[g.dst])
    return gens


def submodule_from_rows(V, rows_per_degree, horizon=None):
    """trunc.submodule_from_rows with one product and one express_rows per generator."""
    h = V.horizon if horizon is None else horizon
    bases = [rows_per_degree[t].row_basis() for t in range(h + 1)]
    gens = {g: (bases[g.src] @ V.gens[g]).express_rows(bases[g.dst]) for g in V.cat.generators(h)}
    U = TruncatedModule(V.cat, V.field, h, [b.nrows for b in bases], gens)
    return U, ModuleMap(U, truncate(V, h), bases)


def quotient_by(V, rows_per_degree):
    """trunc.quotient_by with one product A @ P per generator A, checked
    against every given row (rows @ (A @ P) = 0)."""
    h = len(rows_per_degree) - 1
    pairs = [rows.quotient_projection() for rows in rows_per_degree]
    gens = {}
    for g in V.cat.generators(h):
        AP = V.gens[g] @ pairs[g.dst][1]
        if not (rows_per_degree[g.src] @ AP).is_zero():
            raise ValueError(f"induced action of {g} not well defined")
        gens[g] = AP.take_rows(pairs[g.src][0])
    Q = TruncatedModule(V.cat, V.field, h, [len(free) for free, _ in pairs], gens)
    return Q, ModuleMap(truncate(V, h), Q, [P for _, P in pairs])


def module_closure_of_rows(V, seed_rows_per_degree):
    """trunc.module_closure_of_rows with one product per step generator."""
    out = []
    for t in range(V.horizon + 1):
        pieces = [out[t - 1] @ V.gens[g] for g in V.cat.step_generators(t - 1)] if t else []
        seed = seed_rows_per_degree.get(t)
        if seed is not None and seed.nrows:
            pieces.append(end_closure(V, t, seed))
        out.append(Mat.vstack(pieces).row_basis() if pieces else Mat.zeros(V.field, 0, V.dims[t]))
    return out
