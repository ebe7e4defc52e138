"""Truncated modules over a category kind, with exact degreewise actions.

A TruncatedModule stores dimensions for degrees 0..horizon and one table
of action matrices, keyed by the generating morphisms cat.generators(horizon):
the plain one-steps r -> r+1 and the end generators of each C(t, t).  Every
other action matrix is built on demand as act(a) @ act(b) along the
category's split alpha = b o a (cat.split) and cached with its parts, so the
stored table stays linear in the horizon even for FI where hom sets grow
factorially.  Every module construction below is one loop over that table.
A free module's table holds basis maps (see matrices): the column array of
generator g is the category's composition table (cat.compose_table) for
each summand, shifted by the summand offsets, so the table costs one gather
per generator and no dense matrix until something reads one.  Products with
these maps are gathers, scatters or compositions of column arrays, and a
quotient of a free module by nothing keeps them (quotient_by).  A projective
M(W) = k[C(t, -)] (x)_{k[C(t, t)]} W places the blocks of W's representation
along the orbit tables (cat.orbit_table) instead; W itself is a module
concentrated in degree t (end_representation), so the matrix of any end is
built by act from those of the end generators.

Vectors are rows; act(V, alpha) for alpha: r -> s is a dims[r] x dims[s]
matrix applied on the right.  Degreewise truncation is exact below the
horizon because the categories are directed, so operations never fabricate
data above what they were given; operations that consume a degree (shift,
kernels of mu, ...) return modules with a strictly smaller horizon.

Submodules are families of row spaces.  A kernel carries its inclusion
(submodule_from_rows); a quotient takes any rows spanning an action-stable
family and is coordinatised by the non-pivot columns of its canonical
echelon basis (quotient_by), so neither a complement nor an inverse is built.
"""

from __future__ import annotations

import numpy as np

from .category import Morphism
from .matrices import Mat


class InvariantViolation(Exception):
    """A mathematical invariant the computation checks (exactness,
    surjectivity, adaptability, minimality, a polynomial fit) failed."""


class TruncatedModule:
    """A C-module known exactly up to its horizon (horizon -1 = no data)."""

    def __init__(self, cat, field, horizon, dims, gens):
        if horizon < -1 or len(dims) != horizon + 1:
            raise ValueError("horizon/dims mismatch")
        self.cat = cat
        self.field = field
        self.horizon = horizon
        self.dims = list(dims)
        # gens[g]: Mat dims[g.src] x dims[g.dst], for every g in cat.generators(horizon)
        self.gens = gens
        self._act_cache = dict(gens)
        self._check_shapes()

    def _check_shapes(self):
        if set(self.gens) != set(self.cat.generators(self.horizon)):
            raise ValueError("action table keys differ from the generators up to the horizon")
        for g, m in self.gens.items():
            if m.shape != (self.dims[g.src], self.dims[g.dst]):
                raise ValueError(f"action matrix shape mismatch at {g}")

    def is_zero(self) -> bool:
        return all(d == 0 for d in self.dims)

    def act(self, alpha: Morphism) -> Mat:
        """Action matrix of alpha (dims[src] x dims[dst]); dst must be inside.

        A generator's matrix is its table entry and an identity's the
        identity; any other alpha = b o a (cat.split) is act(a) @ act(b).
        Every part is cached, so each new morphism costs one product.
        """
        cache = self._act_cache
        if alpha in cache:
            return cache[alpha]
        if alpha.dst > self.horizon:
            raise ValueError(f"degree {alpha.dst} above horizon {self.horizon}")
        # an explicit stack: split chains through large end monoids run deep
        todo = [alpha]
        while todo:
            m = todo.pop()
            if m in cache:
                continue
            parts = self.cat.split(m)
            if parts is None:
                cache[m] = Mat.identity(self.field, self.dims[m.src])
            elif parts[0] in cache and parts[1] in cache:
                cache[m] = cache[parts[0]] @ cache[parts[1]]
            else:
                todo += [m, *parts]
        return cache[alpha]

    def __repr__(self):
        return f"TruncatedModule({self.cat.name}, {self.field.name}, h={self.horizon}, dims={self.dims})"


class FreeModule(TruncatedModule):
    """Direct sum of representables M(s) over the given summand degrees.

    The basis at degree t is summand-major: summand k contributes
    C(summands[k], t) in hom order, starting at offsets[t][k].  A generator
    g sends (k, m) to (k, g o m), so its matrix is a basis map whose columns
    are the category's composition table for (summands[k], g) shifted by
    the summand offsets: one gather per generator, no morphism composed.
    """

    def __init__(self, cat, field, summands, horizon):
        self.summands = tuple(summands)
        self.offsets = []
        dims = []
        for t in range(horizon + 1):
            offsets, n = [], 0
            for s in self.summands:
                offsets.append(n)
                n += cat.hom_count(s, t)
            self.offsets.append(tuple(offsets))
            dims.append(n)
        gens = {g: self._gen_matrix(cat, field, dims[g.dst], g) for g in cat.generators(horizon)}
        super().__init__(cat, field, horizon, dims, gens)

    def _gen_matrix(self, cat, field, ncols, g) -> Mat:
        """Basis map of g: basis element (k, m) goes to (k, g o m)."""
        offsets = self.offsets[g.dst]
        cols = [offsets[k] + cat.compose_table(s, g) for k, s in enumerate(self.summands) if s <= g.src]
        return Mat.unit_rows(field, np.concatenate(cols) if cols else [], ncols)

    def basis_index(self, t: int, k: int, m: Morphism) -> int:
        return self.offsets[t][k] + self.cat.hom_index(m)

    @property
    def gen_degrees(self) -> tuple:
        """Degree of each module generator: one per summand."""
        return self.summands

    def top_indices(self, t: int) -> list:
        """Basis positions of degree t outside (mP)_t: (k, sigma) for the
        degree-t summands k and every sigma in C(t, t)."""
        n = self.cat.hom_count(t, t)
        return [self.offsets[t][k] + i for k, s in enumerate(self.summands) if s == t for i in range(n)]


class ProjectiveModule(TruncatedModule):
    """Direct sum of the projectives M(W) = k[C(t, -)] (x)_{k[C(t, t)]} W.

    Each summand is (t, W): W a representation of C(t, t) on k^w, given as
    the module concentrated in degree t (end_representation), whose act
    gives the matrix of any end sigma on row vectors.  M(W)_n has the basis
    (f, j), f an orbit representative of C(t, n)/C(t, t) (cat.orbit_table)
    and j < w, representative-major; the summands follow each other from
    offsets[n][k].  A generator g sends (f, j) to row j of W.act(sigma)
    placed at f', where g o f = f' o sigma, so only the sigmas met there
    are ever multiplied out.  With the regular representation this is M(t);
    over a trivial end monoid it is M(t)^w.
    """

    def __init__(self, cat, field, summands, horizon):
        self.summands = tuple(t for t, _ in summands)
        self.representations = tuple(W for _, W in summands)
        self.widths = tuple(W.dims[-1] for W in self.representations)
        for t, W in summands:
            if W.cat != cat or W.field != field or W.horizon != t or any(W.dims[:t]):
                raise ValueError(f"not a representation of C({t}, {t}) concentrated in degree {t}")
        self.offsets = []
        dims = []
        for n in range(horizon + 1):
            offsets, size = [], 0
            for t, w in zip(self.summands, self.widths):
                offsets.append(size)
                size += w * (cat.hom_count(t, n) // cat.hom_count(t, t))
            self.offsets.append(tuple(offsets))
            dims.append(size)
        gens = {g: self._gen_matrix(cat, field, dims, g) for g in cat.generators(horizon)}
        super().__init__(cat, field, horizon, dims, gens)

    def _gen_matrix(self, cat, field, dims, g) -> Mat:
        """Block rows (f, .) of g: W.act(sigma) at (f', .), where g o f = f' o sigma.

        A basis map (Mat.unit_rows) when every sigma is the identity."""
        a, b = g.src, g.dst
        blocks = []  # (summand, rep numbers f' of the g o f, their sigmas)
        for k, t in enumerate(self.summands):
            if t <= a:
                rep, end = cat.orbit_table(t, b)
                composed = cat.compose_table(t, g)[np.flatnonzero(cat.orbit_table(t, a)[1] == 0)]
                blocks.append((k, rep[composed], end[composed]))
        if all(not ends.any() for _, _, ends in blocks):
            cols = [self.offsets[b][k] + _spread(reps, self.widths[k]) for k, reps, _ in blocks]
            return Mat.unit_rows(field, np.concatenate(cols) if cols else [], dims[b])
        data = Mat.zeros(field, dims[a], dims[b]).data
        for k, reps, ends in blocks:
            t, w = self.summands[k], self.widths[k]
            j = np.arange(w)
            for e in np.unique(ends).tolist():
                at = np.flatnonzero(ends == e)
                rows = self.offsets[a][k] + (at[:, None] * w + j)[:, :, None]
                cols = self.offsets[b][k] + (reps[at][:, None] * w + j)[:, None, :]
                data[rows, cols] = self.representations[k].act(cat.hom(t, t)[e]).data
        return Mat(field, dims[a], dims[b], data)

    @property
    def gen_degrees(self) -> tuple:
        """Degree of each module generator: w of them per summand (t, W)."""
        return tuple(t for t, w in zip(self.summands, self.widths) for _ in range(w))

    def top_indices(self, t: int) -> list:
        """Basis positions of degree t outside (mP)_t: (id, j) of the degree-t summands."""
        return [self.offsets[t][k] + j for k, s in enumerate(self.summands) if s == t
                for j in range(self.widths[k])]


def end_representation(cat, field, t: int, w: int, ends) -> TruncatedModule:
    """The representation of C(t, t) on k^w whose end generators act by ends[g].

    It is the module concentrated in degree t, truncated there: every
    other generator acts on zero spaces.  Its act(sigma) multiplies the
    generator matrices out along cat.split and caches what it builds.
    """
    dims = [0] * t + [w]
    gens = {g: ends[g] if g.src == g.dst == t else Mat.zeros(field, dims[g.src], dims[g.dst])
            for g in cat.generators(t)}
    return TruncatedModule(cat, field, t, dims, gens)


def _spread(positions, K):
    """Rows of a position-major block holding the given positions, each for all K entries."""
    return (np.asarray(positions)[:, None] * K + np.arange(K)).ravel()


class ModuleMap:
    """A degreewise linear map commuting with all stored category actions."""

    def __init__(self, domain, codomain, mats):
        self.domain = domain
        self.codomain = codomain
        self.mats = list(mats)
        h = min(domain.horizon, codomain.horizon)
        if len(self.mats) != h + 1:
            raise ValueError("map must cover degrees 0..min(horizons)")
        for t, m in enumerate(self.mats):
            if m.shape != (domain.dims[t], codomain.dims[t]):
                raise ValueError(f"map shape mismatch at degree {t}")

    @property
    def horizon(self) -> int:
        return len(self.mats) - 1

    def commutation_defect(self):
        """First (source degree, generator) square that fails to commute, in
        generator table order, else None."""
        for g in self.domain.cat.generators(self.horizon):
            if self.domain.gens[g] @ self.mats[g.dst] != self.mats[g.src] @ self.codomain.gens[g]:
                return (g.src, g)
        return None

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.mats)

    def __repr__(self):
        return f"ModuleMap(h={self.horizon}, {self.domain!r} -> {self.codomain!r})"


def truncate(V: TruncatedModule, horizon: int) -> TruncatedModule:
    """Forget data above a smaller horizon (exact by directedness)."""
    if horizon > V.horizon:
        raise ValueError("cannot extend a horizon")
    if horizon == V.horizon:
        return V
    gens = {g: V.gens[g] for g in V.cat.generators(horizon)}
    return TruncatedModule(V.cat, V.field, horizon, V.dims[: horizon + 1], gens)


def zero_module(cat, field, horizon: int) -> TruncatedModule:
    gens = {g: Mat.zeros(field, 0, 0) for g in cat.generators(horizon)}
    return TruncatedModule(cat, field, horizon, [0] * (horizon + 1), gens)


def free_module(cat, field, s: int, horizon: int) -> FreeModule:
    """The representable module M(s) truncated at the horizon."""
    if s < 0 or horizon < -1:
        raise ValueError("bad free module parameters")
    return FreeModule(cat, field, (s,), horizon)


def end_closure(V: TruncatedModule, t: int, rows: Mat) -> Mat:
    """Smallest C(t,t)-stable row space containing the given rows.

    Spins only the frontier: each round pushes through the end generators
    just the rows of the new canonical basis whose pivot column is new.  The
    pivots of a subspace are a subset of those of any larger space, so the
    frontier and the previous basis span the new space, and the previous
    space's images already lie in it.
    """
    current = frontier = rows.row_basis()
    gens = [V.gens[e] for e in V.cat.end_generators(t)]
    while gens and frontier.nrows:
        bigger = Mat.vstack([current] + [frontier @ g for g in gens]).row_basis()
        old = set(current.pivots)
        frontier = bigger.take_rows([i for i, c in enumerate(bigger.pivots) if c not in old])
        current = bigger
    return current


def submodule_from_rows(V: TruncatedModule, rows_per_degree, horizon=None):
    """Module structure on an action-stable family of row spaces of V.

    U_t is coordinatised by the canonical basis of rows_per_degree[t]
    (Mat.row_basis, which a canonical basis returns as it is); raises if
    the family is not stable under the stored generators.  Returns
    (U, inclusion).
    """
    h = V.horizon if horizon is None else horizon
    bases = [rows_per_degree[t].row_basis() for t in range(h + 1)]
    dims = [b.nrows for b in bases]
    gens = {}
    for g in V.cat.generators(h):
        gens[g] = (bases[g.src] @ V.gens[g]).express_rows(bases[g.dst])
    U = TruncatedModule(V.cat, V.field, h, dims, gens)
    incl = ModuleMap(U, truncate(V, h), bases)
    return U, incl


def kernel_of_map(f: ModuleMap):
    """Degreewise kernel with its induced actions; returns (K, inclusion)."""
    h = f.horizon
    rows = [f.mats[t].left_kernel() for t in range(h + 1)]
    return submodule_from_rows(f.domain, rows, horizon=h)


def quotient_by(V: TruncatedModule, rows_per_degree):
    """Quotient of V by the submodule U that the given rows span; returns (Q, proj).

    rows_per_degree[t], for t up to h = len(rows_per_degree) - 1, are rows of
    V_t spanning U_t; they need not be independent or in echelon form, but
    the family must be action-stable.  Q_t is coordinatised by the
    non-pivot columns of U_t's canonical basis and proj_t is read off that
    echelon form (Mat.quotient_projection), so no inverse is formed.  One
    product A @ P per generator A serves both the check that the induced
    action is well defined (rows @ (A @ P) = 0) and the induced action, its
    rows at the free columns.  When V is free and nothing is divided out at
    a degree, A and P are basis maps and so is A @ P.
    """
    h = len(rows_per_degree) - 1
    pairs = [rows.quotient_projection() for rows in rows_per_degree]
    frees = [free for free, _ in pairs]
    projs = [P for _, P in pairs]
    gens = {}
    for g in V.cat.generators(h):
        AP = V.gens[g] @ projs[g.dst]
        if not (rows_per_degree[g.src] @ AP).is_zero():
            raise ValueError(f"induced action of {g} not well defined")
        gens[g] = AP.take_rows(frees[g.src])
    Q = TruncatedModule(V.cat, V.field, h, [len(f) for f in frees], gens)
    proj = ModuleMap(truncate(V, h), Q, projs)
    return Q, proj


def direct_sum(V: TruncatedModule, W: TruncatedModule):
    """Block-diagonal direct sum truncated at the smaller horizon."""
    if V.cat != W.cat or V.field != W.field:
        raise ValueError("direct sum needs matching category and field")
    h = min(V.horizon, W.horizon)
    Vh, Wh = truncate(V, h), truncate(W, h)
    dims = [Vh.dims[t] + Wh.dims[t] for t in range(h + 1)]
    gens = {g: _block_diag(Vh.gens[g], Wh.gens[g]) for g in V.cat.generators(h)}
    return TruncatedModule(V.cat, V.field, h, dims, gens)


def _block_diag(a: Mat, b: Mat) -> Mat:
    return Mat.vstack([
        Mat.hstack([a, Mat.zeros(a.field, a.nrows, b.ncols)]),
        Mat.hstack([Mat.zeros(a.field, b.nrows, a.ncols), b]),
    ])


def m_span(V: TruncatedModule):
    """Row bases of (mV)_t: the span of all actions arriving from below."""
    out = []
    for t in range(V.horizon + 1):
        if t == 0:
            out.append(Mat.zeros(V.field, 0, V.dims[0]))
            continue
        pieces = [V.gens[g] for g in V.cat.step_generators(t - 1)]
        seed = Mat.vstack(pieces) if pieces else Mat.zeros(V.field, 0, V.dims[t])
        out.append(end_closure(V, t, seed))
    return out


def h0_dims(V: TruncatedModule, spans=None):
    """Dimensions of V/mV per degree (the minimal-generator counts by degree).

    spans, if given, must be m_span(V); it is computed otherwise.
    """
    spans = m_span(V) if spans is None else spans
    return [V.dims[t] - spans[t].nrows for t in range(V.horizon + 1)]


def top_degree(values) -> int:
    """Last index holding a nonzero entry, or -1 when every entry is zero."""
    return max((t for t, x in enumerate(values) if x), default=-1)


def generating_degree(V: TruncatedModule) -> int:
    """gd(V) within the horizon: top degree carrying a minimal generator, or -1."""
    return top_degree(h0_dims(V))


def module_closure_of_rows(V: TruncatedModule, seed_rows_per_degree):
    """Smallest action-stable row-space family containing the seeds, given
    as a dict {degree: rows} that leaves out degrees without seed rows."""
    h = V.horizon
    out = []
    for t in range(h + 1):
        pieces = []
        if t > 0 and out[t - 1].nrows:
            for g in V.cat.step_generators(t - 1):
                pieces.append(out[t - 1] @ V.gens[g])
        seed = seed_rows_per_degree.get(t)
        if seed is not None and seed.nrows:
            pieces.append(seed)
        if pieces:
            out.append(end_closure(V, t, Mat.vstack(pieces)))
        else:
            out.append(Mat.zeros(V.field, 0, V.dims[t]))
    return out
