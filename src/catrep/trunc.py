"""Truncated modules over a category kind, with exact degreewise actions.

A TruncatedModule stores dimensions for degrees 0..horizon and one table
of action matrices, keyed by the generating morphisms cat.generators(horizon):
the r+1 skip maps r -> r+1 (cat.step_generators) and the end generators of
each C(t, t).  Every other action matrix is built on demand as act(a) @ act(b)
along the category's split alpha = b o a (cat.split) and cached with its
parts, so the stored table holds O(t) generators per degree t even for FI,
where hom sets grow factorially.  Module constructions walk that table one
(src, dst) group at a time (cat.generator_groups): the r+1 skip maps out of
r, then the end generators of one degree.
A free module's table holds basis maps (see matrices): the column arrays
of a group's generators are the rows of the category's composition table
for each summand (cat.group_table, read off hom-set index arrays), shifted
by the summand offsets, and no dense matrix is built until something reads
one.  Products with these maps are gathers, scatters or compositions of column
arrays: the relation closure pushes a whole degree through every skip map
in one column scatter, a submodule expresses a group's images in one
express_rows (Mat.push), and the span of basis maps is read off their
columns (m_span).  A quotient of a free module by nothing keeps them
(quotient_by).

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
    surjectivity, adaptability, d d = 0 of the Koszul complex, a polynomial
    fit) failed."""


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
    are its row of the category's composition table for summands[k] and g's
    group, shifted by the summand offsets: no morphism is built or composed.
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
        gens = {}
        for (r, t), group in cat.generator_groups(horizon):
            # one row per generator of the group, summand tables side by side
            tables = [off + cat.group_table(s, r, t) for off, s in zip(self.offsets[t], self.summands) if s <= r]
            cols = np.concatenate(tables, axis=1) if tables else np.zeros((len(group), 0), dtype=np.intp)
            gens.update(zip(group, Mat.unit_row_maps(field, cols, dims[t])))
        super().__init__(cat, field, horizon, dims, gens)


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
    the family is not stable under the stored generators.  The images of
    the basis at src under a (src, dst) group of generators are one stack
    (Mat.push), expressed in the basis at dst by one express_rows; each
    generator's action is its rows of the result.  Returns (U, inclusion).
    """
    h = V.horizon if horizon is None else horizon
    bases = [rows_per_degree[t].row_basis() for t in range(h + 1)]
    dims = [b.nrows for b in bases]
    gens = {}
    for (r, t), group in V.cat.generator_groups(h):
        # row i k + j of the stack is row i of bases[r] @ V.gens[group[j]]
        k = len(group)
        X = bases[r].push([V.gens[g] for g in group]).express_rows(bases[t])
        gens.update((g, Mat(V.field, dims[r], dims[t], X.data[j::k])) for j, g in enumerate(group))
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
    rows at the free columns.  Where no rows are given at A's source,
    nothing is divided there: the check is skipped and A @ P is the induced
    action.  When V is free and nothing is divided out at a degree, A and P
    are basis maps and so is A @ P.
    """
    h = len(rows_per_degree) - 1
    pairs = [rows.quotient_projection() for rows in rows_per_degree]
    frees = [free for free, _ in pairs]
    projs = [P for _, P in pairs]
    gens = {}
    for g in V.cat.generators(h):
        AP = V.gens[g] @ projs[g.dst]
        rows = rows_per_degree[g.src]
        if rows.nrows:  # else nothing is divided at g.src and AP is the induced action
            if not (rows @ AP).is_zero():
                raise ValueError(f"induced action of {g} not well defined")
            AP = AP.take_rows(frees[g.src])
        gens[g] = AP
    Q = TruncatedModule(V.cat, V.field, h, [len(f) for f in frees], gens)
    proj = ModuleMap(truncate(V, h), Q, projs)
    return Q, proj


def m_span(V: TruncatedModule):
    """Row bases of (mV)_t: the span of all actions arriving from below,
    which is the span of the step generators' images (cat.step_generators)."""
    out = [Mat.zeros(V.field, 0, V.dims[0])] if V.horizon >= 0 else []
    for t in range(1, V.horizon + 1):
        out.append(Mat.stack_row_basis([V.gens[g] for g in V.cat.step_generators(t - 1)]))
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
    as a dict {degree: rows} that leaves out degrees without seed rows.

    The step generators' images of the stable family at t - 1 are already
    end-stable (cat.step_generators), so only the seed rows are closed.
    """
    out = []
    for t in range(V.horizon + 1):
        pieces = [out[t - 1].push([V.gens[g] for g in V.cat.step_generators(t - 1)])] if t else []
        seed = seed_rows_per_degree.get(t)
        if seed is not None and seed.nrows:
            pieces.append(end_closure(V, t, seed))
        out.append(Mat.vstack(pieces).row_basis() if pieces else Mat.zeros(V.field, 0, V.dims[t]))
    return out
