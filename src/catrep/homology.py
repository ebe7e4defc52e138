"""Homology of truncated modules: H_0, Tor, homological degrees, regularity.

Resolutions are built degreewise: each step covers the current syzygy module
Z by projectives generated exactly at the degrees where H_0(Z) is nonzero,
so gd(P^i) = gd(Z^i) holds at every step by construction.  There are two
routes:

* minimal, when |C(h, h)| is a unit in the field (h the horizon; it is a
  multiple of every |C(t, t)|, t <= h, so each end algebra k[C(t, t)] is
  semisimple): P = sum_t M(W_t), W_t = H_0(Z)_t, lifted into Z_t by an
  equivariant section (_minimal_cover): the coordinate complement when it
  is already stable, else a Reynolds sum taken along a chain of subgroups
  of C(t, t), so no step enumerates an end monoid.  Its reduced
  differentials vanish, so Tor_i is dim W^i, and the vanishing is checked.
* free, otherwise (modular fields): one representable M(t) per greedy
  end-orbit generator (minimal_generators, _cover).  Tor is then computed
  by reducing the realized differentials modulo the ideal of
  positive-degree morphisms, which stays correct for non-minimal (padded)
  resolutions and over any field; the tests compare it with the minimal
  route, and pad its generators to check resolution independence.

Cover maps are read through the category's index tables.  Both routes walk
the orbit representatives of C(s, t)/C(s, s) up from a generator degree s
along the step plan (_step_reps, one product per last one-step): the free
route from its generators' end orbits, grown along the end plan (a spanning
tree of C(s, s)), the minimal route from its lift of W_s.

Directedness makes degreewise truncation exact, so a resolution loses no
horizon: every homology number is valid up to the horizon of its module, and
reg is reported as computed within the built depth.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .fields import QQ
from .matrices import Mat
from .trunc import (
    FreeModule,
    InvariantViolation,
    ModuleMap,
    ProjectiveModule,
    TruncatedModule,
    _spread,
    end_closure,
    end_representation,
    free_module,
    generating_degree,
    h0_dims,
    kernel_of_map,
    m_span,
    top_degree,
    truncate,
)
from .shift import derive, shift_module


def minimal_generators(V: TruncatedModule, spans=None):
    """Greedy module generators: (degree, row) pairs whose orbits fill V.

    Each pick extends the span by the full end-orbit of one complement
    vector, so the generator count per degree can exceed dim H_0 only when
    the end algebra acts with non-cyclic quotients; gd is matched exactly
    either way.  spans, if given, must be m_span(V).
    """
    spans = m_span(V) if spans is None else spans
    gens = []
    for t in range(V.horizon + 1):
        W = spans[t]
        d = V.dims[t]
        while W.nrows < d:
            v = W.complement_rows().row(0)
            gens.append((t, v))
            W = end_closure(V, t, Mat.vstack([W, Mat.from_rows(V.field, [v], d)]))
    return gens


def _cover(Z: TruncatedModule, gens):
    """Free module on the given generators and the cover map onto Z.

    Row (k, alpha) of the map at degree t is v_k act(alpha) for alpha in
    C(s_k, t).  Each run of consecutive generators of one degree s is done
    at once: its orbit block (v_k act(sigma) for sigma in C(s, s), row
    position[sigma] * K + k) walks the end plan of C(s, s), one product per
    generator and tree level.  As v act(f o sigma) = v act(sigma) act(f),
    each degree t > s walks only the orbit representatives f (_step_reps),
    and orbit_table puts the rows summand-major in hom order.
    """
    cat, field, h = Z.cat, Z.field, Z.horizon
    P = FreeModule(cat, field, tuple(t for t, _ in gens), h)
    pieces = [[] for _ in range(h + 1)]
    for s, run in itertools.groupby(gens, key=lambda gen: gen[0]):
        block = Mat.from_rows(field, [v for _, v in run], Z.dims[s])
        K = block.nrows
        levels, position = cat.end_plan(s)
        for level in levels:
            block = Mat.vstack([block] + [block.take_rows(_spread(position[parents], K)) @ Z.gens[g]
                                          for g, parents, _ in level])
        for t, rows in _step_reps(Z, s, block):
            rep, end = cat.orbit_table(s, t)
            first = rep * block.nrows + position[end] * K  # the row of (0, alpha)
            pieces[t].append(rows.take_rows((np.arange(K)[:, None] + first).ravel()))
    mats = [Mat.vstack(p) if p else Mat.zeros(field, 0, Z.dims[t]) for t, p in enumerate(pieces)]
    return P, ModuleMap(P, Z, mats)


def _semisimple_ends(V: TruncatedModule) -> bool:
    """Whether resolve(V) takes the minimal route: |C(h, h)| is a unit in
    the field, so every k[C(t, t)] with t <= h is semisimple (Maschke)."""
    return V.field.from_int(V.cat.hom_count(V.horizon, V.horizon)) != 0


def _minimal_cover(Z: TruncatedModule, spans):
    """The minimal cover sum_t M(W_t) -> Z with W_t = Z_t/(mZ)_t.

    spans must be m_span(Z), and every |C(t, t)| a unit in the field.  The
    quotient projection Q of (mZ)_t coordinatises W_t, and its free columns
    give complement rows C with C Q = I, so rho(g) = C act(g) Q is the
    matrix of the end generator g on W_t (kept as end_representation).
    _equivariant_lift gives S with S act(tau) = rho(tau) S and S Q = c I
    for a unit c; both are checked on the end generators, and the second
    says the cover is an isomorphism on H_0, hence minimal.  The cover row
    (f, j) is row j of S act(f) for each orbit representative f of
    C(t, n)/C(t, t), walked up from S (_step_reps).
    """
    cat, field, h = Z.cat, Z.field, Z.horizon
    summands = []
    pieces = [[] for _ in range(h + 1)]
    for t in range(h + 1):
        span = spans[t].row_basis()
        free, Q = span.quotient_projection()
        w = len(free)
        if not w:
            continue
        moved = {g: Z.gens[g].take_rows(free) for g in cat.end_generators(t)}
        W = end_representation(cat, field, t, w, {g: m @ Q for g, m in moved.items()})
        S, c = _equivariant_lift(Z, t, span, free, W, moved)
        for g in cat.end_generators(t):
            if W.gens[g] @ S != S @ Z.gens[g]:
                raise InvariantViolation(f"lift of H_0 at degree {t} is not equivariant under {g}")
        if S @ Q != Mat.identity(field, w).scale(c):
            raise InvariantViolation(f"cover is not minimal at degree {t}: S Q != {c} I")
        summands.append((t, W))
        for n, block in _step_reps(Z, t, S):
            pieces[n].append(block)
    P = ProjectiveModule(cat, field, summands, h)
    mats = [Mat.vstack(p) if p else Mat.zeros(field, 0, Z.dims[n]) for n, p in enumerate(pieces)]
    return P, ModuleMap(P, Z, mats)


def _equivariant_lift(Z: TruncatedModule, t: int, span, free, W: TruncatedModule, moved):
    """(S, c): rows S lifting W_t into Z_t equivariantly, with S Q = c I.

    span is the canonical basis of (mZ)_t and free its non-pivot columns.
    The complement rows C = unit rows at free already span a stable
    complement of (mZ)_t when no C act(g) (moved[g]) reaches a pivot
    column of span; then S = C and c = 1.  Otherwise S is the unnormalised
    Reynolds sum over C(t, t) of T(sigma) C, T(sigma) X = rho(sigma^-1) X
    act(sigma), and c = |C(t, t)|.  It is taken along cat.coset_plan(t):
    X_i is the sum of T(c_i) X_{i-1} over the i-th transversal, each term
    T(g) of its parent's, so C(t, t) costs one product pair per transversal
    element instead of one row block per end.
    """
    cat = Z.cat
    X = Mat.unit_rows(Z.field, free, Z.dims[t])
    if all(m.take_cols(span.pivots).is_zero() for m in moved.values()):
        return X, 1
    ends, inverse = cat.hom(t, t), cat.end_inverse(t)
    for level in cat.coset_plan(t):
        terms = {0: X}
        for g, parents, children in level:
            back = W.act(ends[inverse[cat.hom_index(g)]])
            for parent, child in zip(parents.tolist(), children.tolist()):
                terms[child] = back @ terms[parent] @ Z.gens[g]
        X = sum(terms.values(), Mat.zeros(Z.field, *X.shape))
    return X, cat.hom_count(t, t)


def _step_reps(Z: TruncatedModule, s: int, block: Mat):
    """(t, rows) for the orbit representatives of C(s, t), t = s..horizon.

    block holds the K rows of the identity, the one representative of
    C(s, s).  Each yielded block holds K rows per representative f of
    C(s, t), position-major in representative order.  A representative's
    last one-step gamma leaves a representative beta of C(s, t - 1)
    (increasing images, identity labels), so its rows are beta's rows times
    act(gamma): one product per gamma.
    """
    cat, K = Z.cat, block.nrows
    yield s, block
    for t in range(s + 1, Z.horizon + 1):
        prev = cat.orbit_table(s, t - 1)[0]
        rep, end = cat.orbit_table(s, t)
        parts, order = [], []
        for gamma, betas, alphas in cat.step_plan(s, t):
            keep = end[alphas] == 0
            if keep.any():
                parts.append(block.take_rows(_spread(prev[betas[keep]], K)) @ Z.act(gamma))
                order.append(rep[alphas[keep]])
        block = Mat.vstack(parts).take_rows(_spread(np.argsort(np.concatenate(order)), K))
        yield t, block


@dataclass
class ResolutionStep:
    free: FreeModule | ProjectiveModule
    gen_degrees: tuple
    diff: ModuleMap  # P^i -> Z^i (abstract syzygy coordinates)
    syzygy: TruncatedModule  # Z^{i+1}
    syzygy_incl: ModuleMap  # Z^{i+1} -> P^i


@dataclass
class Resolution:
    """An adaptable degreewise projective resolution built to the requested depth."""

    steps: list

    @property
    def minimal(self) -> bool:
        """Built by _minimal_cover, so every reduced differential must vanish."""
        return all(isinstance(step.free, ProjectiveModule) for step in self.steps)


def resolve(V: TruncatedModule, depth: int) -> Resolution:
    """Resolve V by projectives generated at its minimal generator degrees.

    The minimal route (sum_t M(W_t), _minimal_cover) runs when the end
    algebras are semisimple (_semisimple_ends); otherwise the free route
    covers each syzygy by one M(t) per greedy generator.  Every step checks
    surjectivity of the cover and the adaptability equality
    gd(P^i) = gd(Z^i), and raises InvariantViolation when one fails.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    minimal = _semisimple_ends(V)
    steps = []
    Z = V
    for i in range(depth + 1):
        spans = m_span(Z)
        if minimal:
            P, diff = _minimal_cover(Z, spans)
        else:
            P, diff = _cover(Z, minimal_generators(Z, spans=spans))
        gd_z = top_degree(h0_dims(Z, spans))
        gd_p = max(P.gen_degrees, default=-1)
        if gd_p != gd_z:
            raise InvariantViolation(f"adaptability broken at step {i}: gd(P)={gd_p}, gd(Z)={gd_z}")
        syz, syz_incl = kernel_of_map(diff)
        for t in range(Z.horizon + 1):
            if P.dims[t] - syz.dims[t] != Z.dims[t]:
                raise InvariantViolation(f"cover not surjective at step {i}, degree {t}")
        steps.append(ResolutionStep(P, P.gen_degrees, diff, syz, syz_incl))
        Z = syz
    return Resolution(steps)


@dataclass
class HomologyReport:
    """Tor dims per index and degree, with hd/gd/reg and validity bounds."""

    dims: list  # dims[i][t] = dim H_i(V)_t for 0 <= i <= depth, 0 <= t <= horizon
    hd: list  # hd[i] within the horizon (-1 when H_i vanishes there)
    gd: int
    reg: int
    depth: int
    valid_to: int

    def hd_within(self, i: int, w: int) -> int:
        """Top degree <= w where H_i is nonzero, or -1."""
        return top_degree(self.dims[i][t] for t in range(min(w, self.valid_to) + 1))

    def reg_within(self, w: int) -> int:
        return max((self.hd_within(i, w) - i for i in range(self.depth + 1)), default=-1)


def tor_groups(V: TruncatedModule, depth: int) -> HomologyReport:
    """H_i(V) = Tor_i(C/m, V) for i <= depth from the resolution resolve(V, depth).

    Reducing P^i mod m keeps its top basis elements (P.top_indices(t): the
    ones of the summands generated in degree t), so a reduced differential
    is a row/column selection of a realized one; the reduced image of
    d_{i+1} is that of Z^{i+1} = im d_{i+1} inside P^i.  On a minimal
    resolution every reduced differential must vanish (InvariantViolation
    otherwise), and H_i is the top part of P^i, dim W^i.
    """
    res = resolve(V, depth)
    h = V.horizon
    dims = [[0] * (h + 1) for _ in range(depth + 1)]
    sel = [[step.free.top_indices(t) for t in range(h + 1)] for step in res.steps]
    for t in range(h + 1):
        for i in range(depth + 1):
            step = res.steps[i]
            image_red = step.syzygy_incl.mats[t].take_cols(sel[i][t])
            if res.minimal:
                if not image_red.is_zero():
                    raise InvariantViolation(f"reduced differential d_{i + 1} is nonzero at degree {t}")
                dims[i][t] = len(sel[i][t])
                continue
            if i == 0:
                kernel_rows = Mat.identity(V.field, len(sel[0][t]))
            else:
                realized = step.diff.mats[t] @ res.steps[i - 1].syzygy_incl.mats[t]
                reduced = realized.take_rows(sel[i][t]).take_cols(sel[i - 1][t])
                kernel_rows = reduced.left_kernel()
            image_red = image_red.row_basis()
            if Mat.vstack([kernel_rows, image_red]).rank() != kernel_rows.nrows:
                raise InvariantViolation(f"reduced image escapes reduced kernel at i={i}, t={t}")
            dims[i][t] = kernel_rows.nrows - image_red.nrows
    hd = [top_degree(row) for row in dims]
    reg = max((hd[i] - i for i in range(depth + 1)), default=-1)
    return HomologyReport(dims, hd, hd[0], reg, depth, h)


@dataclass
class HilbertFit:
    """Exact finite-difference fit of the dimension sequence by a polynomial."""

    raw_dims: list
    gd: int
    status: str  # "ok" | "inconclusive"
    onset: int | None
    coeffs: list | None  # rational coefficients, low degree first
    degree: int | None
    valid_to: int

    def evaluate(self, n: int):
        if self.coeffs is None:
            raise ValueError("no fit available")
        acc = Fraction(0)
        for k, c in enumerate(reversed(self.coeffs)):
            acc = acc * n + c
        return acc


def hilbert_fit(V: TruncatedModule) -> HilbertFit:
    """Fit dims by a polynomial of degree <= gd(V).

    The onset is found by forward differences: it is the least degree from
    which all differences of order gd(V)+1 vanish up to the horizon.  The
    coefficients solve the Vandermonde system through the gd(V)+1 points
    from the onset, and the fit is checked at every degree up to the
    horizon.  Reports inconclusive when the horizon leaves no checkable
    window.
    """
    h = V.horizon
    dims = list(V.dims)
    g = generating_degree(V)
    if g == -1:
        return HilbertFit(dims, g, "ok", 0, [], -1, h)
    top = dims  # after the loop, entry j = (g+1)-st difference at degree j
    for _ in range(g + 1):
        top = [b - a for a, b in zip(top, top[1:])]
    onset = None
    for o in range(h - g):
        if all(x == 0 for x in top[o:]):
            onset = o
            break
    if onset is None or not top[onset:]:
        return HilbertFit(dims, g, "inconclusive", None, None, None, h)
    # [V | y] for the invertible Vandermonde matrix V reduces to [I | coeffs]
    system = Mat.from_rows(QQ, [[n ** k for k in range(g + 1)] + [dims[n]]
                                for n in range(onset, onset + g + 1)])
    coeffs = system.rref()[0].data[:, -1].tolist()
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    fit = HilbertFit(dims, g, "ok", onset, coeffs, top_degree(coeffs), h)
    for n in range(onset, h + 1):
        if fit.evaluate(n) != dims[n]:
            raise InvariantViolation(f"hilbert fit mismatch at degree {n}")
    if fit.degree is not None and fit.degree > g:
        raise InvariantViolation("fitted degree exceeds gd")
    return fit


class VerificationViolation(Exception):
    """An instantiated lemma inequality failed with conclusive values."""


@dataclass
class VerifyItem:
    name: str
    status: str  # "pass" | "violation" | "skipped" | "inconclusive"
    detail: str
    data: dict = dc_field(default_factory=dict)


@dataclass
class VerifyReport:
    items: list
    overall: str

    def by_name(self, name: str) -> VerifyItem:
        for item in self.items:
            if item.name == name:
                return item
        raise KeyError(name)


@dataclass(frozen=True)
class Lemma:
    """One inequality of the verify battery, judged by judge().

    ``needs`` lists the hypothesis gates checked first, in order;
    ``window`` gives the values that must sit strictly inside the window w
    for a conclusive check, and ``censored`` the detail of the inconclusive
    item when one does not; ``check`` returns (holds, detail, data).  Both
    callables read the battery's values from one namespace (see
    verify_theorems for its fields).
    """

    name: str
    needs: tuple
    window: Callable
    censored: str
    check: Callable


# hypothesis gates: (flag in the values, status and detail of the item when
# the flag is false); status None leaves the lemma out of the report, which
# is what happens to reg-finite-support when reg(SM(s)) fails
_REG_SM = ("reg_sm", "skipped", "reg(SM(s)) hypothesis failed")
_REG_SM_OR_DROP = ("reg_sm", None, None)
_MU_INJECTIVE = ("mu_injective", "skipped",
                "mu_V is not injective within the window, hypothesis of the bound fails")
_FINITE_SUPPORT = ("finite_support", "inconclusive",
                  "support reaches the horizon {h}; finite support not certifiable")

_GD_CENSORED = "window {w} too small for gd values"
_HD_CENSORED = "an hd value reached window {w}"


def _each_index(v, values, bound, witness):
    """values[i] <= bound(i) for every i <= depth; the first failure is the witness."""
    for i in range(v.depth + 1):
        b = bound(i)
        if values[i] > b:
            return (False, *witness(i, b))
    return True, f"holds for i <= {v.depth} within window {v.w}", {}


def _verdict(holds, if_holds, if_not, data):
    return holds, if_holds if holds else if_not, data


LEMMAS = (
    # gd(DV) = gd(V) - 1 for nonzero V
    Lemma("gd-derivative-drop", (), lambda v: [v.gd_v, v.gd_dv], _GD_CENSORED,
          lambda v: (v.gd_dv == v.gd_v - 1, f"gd(DV) = {v.gd_dv}, gd(V) = {v.gd_v}",
                     {"gd_v": v.gd_v, "gd_dv": v.gd_dv})),
    # gd(SV) <= gd(V) <= gd(SV) + 1
    Lemma("gd-shift-window", (), lambda v: [v.gd_v, v.gd_sv], _GD_CENSORED,
          lambda v: (v.gd_sv <= v.gd_v <= v.gd_sv + 1, f"gd(SV) = {v.gd_sv}, gd(V) = {v.gd_v}",
                     {"gd_v": v.gd_v, "gd_sv": v.gd_sv})),
    # hd_i(SV) <= max over j <= i of hd_j(V) + i - j
    Lemma("hd-shift-upper", (_REG_SM,), lambda v: v.hd_v + v.hd_sv, _HD_CENSORED,
          lambda v: _each_index(
              v, v.hd_sv, lambda i: max(v.hd_v[j] + i - j for j in range(i + 1)),
              lambda i, b: (f"hd_{i}(SV) = {v.hd_sv[i]} > {b} (witness degree {v.hd_sv[i]}, index {i})",
                            {"i": i, "hd_sv": v.hd_sv[i], "bound": b}))),
    # hd_i(V) <= max({hd_j(V) + i - j : j < i} U {hd_i(SV) + 1})
    Lemma("hd-unshift-upper", (_REG_SM,), lambda v: v.hd_v + v.hd_sv, _HD_CENSORED,
          lambda v: _each_index(
              v, v.hd_v, lambda i: max([v.hd_v[j] + i - j for j in range(i)] + [v.hd_sv[i] + 1]),
              lambda i, b: (f"hd_{i}(V) = {v.hd_v[i]} > {b} (witness index {i})",
                            {"i": i, "hd_v": v.hd_v[i], "bound": b}))),
    # mu_V injective: hd_i(V) <= reg(DV) + (N+1) i + 1
    Lemma("hd-mu-injective-bound", (_REG_SM, _MU_INJECTIVE), lambda v: v.hd_v + v.hd_dv, _HD_CENSORED,
          lambda v: _each_index(
              v, v.hd_v, lambda i: v.reg_dv + (v.big_n + 1) * i + 1,
              lambda i, b: (f"hd_{i}(V) = {v.hd_v[i]} > reg(DV) + {v.big_n + 1}*{i} + 1 = {b}",
                            {"i": i, "hd_v": v.hd_v[i], "reg_dv": v.reg_dv}))),
    # mu_V injective: reg(V) <= reg(DV) + 1
    Lemma("reg-derivative-bound", (_REG_SM, _MU_INJECTIVE), lambda v: v.hd_v + v.hd_dv, _HD_CENSORED,
          lambda v: _verdict(v.reg_v <= v.reg_dv + 1,
                             f"reg(V) = {v.reg_v} <= reg(DV) + 1 = {v.reg_dv + 1} (depth {v.depth})",
                             f"reg(V) = {v.reg_v} > reg(DV) + 1 = {v.reg_dv + 1}",
                             {"reg_v": v.reg_v, "reg_dv": v.reg_dv})),
    # reg(SV) <= reg(V) <= reg(SV) + 1
    Lemma("reg-shift-window", (_REG_SM,), lambda v: v.hd_v + v.hd_sv, _HD_CENSORED,
          lambda v: _verdict(v.reg_sv <= v.reg_v <= v.reg_sv + 1,
                             f"reg(SV) = {v.reg_sv} <= reg(V) = {v.reg_v} <= reg(SV) + 1 (depth {v.depth})",
                             f"reg(SV) = {v.reg_sv}, reg(V) = {v.reg_v} breaks the window",
                             {"reg_v": v.reg_v, "reg_sv": v.reg_sv})),
    # V supported in degrees <= N0 < horizon implies reg(V) <= N0
    Lemma("reg-finite-support", (_REG_SM_OR_DROP, _FINITE_SUPPORT), lambda v: v.hd_v, _HD_CENSORED,
          lambda v: (v.reg_v <= v.support_top,
                     f"support ends at {v.support_top}, reg(V) = {v.reg_v} (depth {v.depth})",
                     {"support_top": v.support_top, "reg_v": v.reg_v})),
)


def judge(lemma: Lemma, v):
    """(status, detail, data) of one lemma, or None when a gate drops it."""
    for flag, status, detail in lemma.needs:
        if not getattr(v, flag):
            return None if status is None else (status, detail.format(h=v.h), {})
    if not all(x < v.w for x in lemma.window(v)):
        return "inconclusive", lemma.censored.format(w=v.w), {}
    holds, detail, data = lemma.check(v)
    return "pass" if holds else "violation", detail, data


def verify_theorems(V: TruncatedModule, depth: int, s_bound: int = 3,
                    big_n: int = 0, halt_on_violation: bool = True,
                    check_hypothesis: bool = True) -> VerifyReport:
    """Instantiate the shift/derivative lemma inequalities (LEMMAS) on V.

    Every quantity is computed within an explicit window; an inequality is
    conclusive only when all its homological degrees sit strictly inside
    their windows, otherwise the item reports inconclusive.  The hypothesis
    reg(S M(s)) <= s + N is checked first for s <= s_bound; regularity items
    are skipped if it fails.  check_hypothesis=False records nothing and
    assumes the caller validated it for this category and field.  A
    conclusive violated inequality either surfaces a bug or a genuine
    counterexample and stops the run.
    """
    items = []
    h = V.horizon

    def emit(name, status, detail, data=None):
        items.append(VerifyItem(name, status, detail, data or {}))
        if status == "violation" and halt_on_violation:
            raise VerificationViolation(f"{name}: {detail}")

    hypothesis_ok = True
    for s in range(s_bound + 1 if check_hypothesis else 0):
        rep = tor_groups(shift_module(free_module(V.cat, V.field, s, h)), depth)
        ok = rep.reg <= s + big_n
        hypothesis_ok = hypothesis_ok and ok
        emit(f"hypothesis-reg-SM({s})", "pass" if ok else "violation",
             f"reg(SM({s})) = {rep.reg} {'<=' if ok else '>'} {s + big_n} "
             f"within horizon {rep.valid_to}",
             {"s": s, "reg": rep.reg})

    if V.horizon < 1 or V.is_zero():
        emit("module-checks", "skipped", "module is zero or horizon too small")
        return _finish(items)

    seq = derive(V)
    w = h - 1  # common window for quantities involving SV/DV
    # truncating to the window before resolving is exact (directedness) and
    # keeps the free covers desk-sized; every value below is windowed to w
    rep_v, rep_sv, rep_dv = (tor_groups(M, depth) for M in (truncate(V, w), seq.SV, seq.DV))
    hd_v, hd_sv, hd_dv = ([rep.hd_within(i, w) for i in range(depth + 1)]
                          for rep in (rep_v, rep_sv, rep_dv))
    support_top = top_degree(V.dims)
    values = SimpleNamespace(
        h=h, w=w, depth=depth, big_n=big_n, support_top=support_top,
        reg_sm=hypothesis_ok, mu_injective=not any(seq.KV.dims), finite_support=support_top < h,
        gd_v=hd_v[0], gd_sv=hd_sv[0], gd_dv=hd_dv[0], hd_v=hd_v, hd_sv=hd_sv, hd_dv=hd_dv,
        reg_v=rep_v.reg_within(w), reg_sv=rep_sv.reg_within(w), reg_dv=rep_dv.reg_within(w),
    )
    for lemma in LEMMAS:
        outcome = judge(lemma, values)
        if outcome is not None:
            emit(lemma.name, *outcome)
    return _finish(items)


def _finish(items) -> VerifyReport:
    overall = "pass"
    if any(it.status == "violation" for it in items):
        overall = "violation"
    elif any(it.status == "inconclusive" for it in items):
        overall = "inconclusive"
    return VerifyReport(items, overall)
