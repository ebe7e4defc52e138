"""Homology of truncated modules: H_0, Tor, homological degrees, regularity.

Tor comes from the Koszul complex (tor_groups).  K_i(V)_n holds one copy of
V_{n-i} per i-subset S of {1..n}, the copy sitting on the increasing map
n-i -> n that misses S (identity labels for the _G kinds), and d_i sends
copy S = {s_0 < s_1 < ...} to copy S minus s_k by (-1)^k times the action
of the step generator n-i -> n-i+1 missing s_k - k.  Then dim Tor_i(V)_n =
dim K_i - rank d_i - rank d_{i+1}, so a degree reads only V_{n-i-1..n} and
no free module is built.  A d_i with an empty term has rank 0 and is not
built.  No d_i is built dense: a row of it has only i nonzero blocks, so
it is built as sparse rows (_koszul_rows) from its face pattern, which
depends only on (n, i) (_faces), and the nonzeros of the step generator
actions of its source degree and of their negatives, read once per call
(_row_entries).  matrices.sparse_rank ranks it by elimination in
ascending column order, which suits rows that arrive copy-major in lex face
order, and over F_p hands a dense rest to the dense echelon.  Every block of
d_i d_{i-1} is +-(act(s_p) act(s_{q+1}) - act(s_q) act(s_p)) for step
generators s out of n-i and n-i+1, so d o d = 0 is checked on those
cosimplicial identities, once per source degree (_step_identities_hold).
For FI this is the complex of Church and Ellenberg ("Homology of
FI-modules"); for every kind and field, its agreement with a resolution is
what the tests check.

Resolutions (resolve) are built degreewise: each step covers the current
syzygy module Z by one representable M(t) per greedy end-orbit generator
(minimal_generators, _cover), generated exactly at the degrees where H_0(Z)
is nonzero, so gd(P^i) = gd(Z^i) holds at every step by construction.
A cover map M(s) -> Z is fixed by the image v of id_s, its row alpha being
v act(alpha); _cover fills these rows in one walk along the free module's
generator table, one product per generator and batch of new rows.

Directedness makes degreewise truncation exact, so a resolution loses no
horizon: every homology number is valid up to the horizon of its module, and
reg is reported as computed within the built depth.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import comb
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .fields import QQ
from .matrices import Mat, sparse_rank
from .trunc import (
    FreeModule,
    InvariantViolation,
    ModuleMap,
    TruncatedModule,
    end_closure,
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
    """Free module P on the given generators and the cover map P -> Z.

    Row (k, alpha) of the map at degree t is v_k act(alpha) for alpha in
    C(s_k, t).  A generator g sends row (k, m) to row (k, g o m), whose
    place is the column P.gens[g].unit_cols gives, and whose value is
    row @ Z.gens[g].  Degree t starts from the rows (k, id) = v_k and the
    rows of degree t - 1 pushed along the step generators, then pushes each
    round's new rows along the end generators.  A push keeps only the rows
    that land on unfilled places, so each row is computed once.
    """
    cat, field = Z.cat, Z.field
    P = FreeModule(cat, field, tuple(t for t, _ in gens), Z.horizon)
    mats = []
    for t in range(Z.horizon + 1):
        filled = np.zeros(P.dims[t], dtype=bool)

        def push(cols, rows, g):
            """(new columns, their rows) of the given rows, at distinct columns, sent along g."""
            cols = P.gens[g].unit_cols[cols]  # distinct, as g acts injectively
            fresh = np.flatnonzero(~filled[cols])
            filled[cols[fresh]] = True
            return cols[fresh], rows.take_rows(fresh) @ Z.gens[g]

        ids = [k for k, (s, _) in enumerate(gens) if s == t]
        seeds = np.array([P.offsets[t][k] for k in ids], dtype=np.intp)  # the rows (k, id)
        filled[seeds] = True
        frontier = [(seeds, Mat.from_rows(field, [gens[k][1] for k in ids], Z.dims[t]))]
        for g in cat.step_generators(t - 1) if t else ():
            frontier.append(push(np.arange(P.dims[t - 1]), mats[t - 1], g))
        parts = []
        while frontier:
            parts += frontier
            cols = np.concatenate([c for c, _ in frontier])
            rows = Mat.vstack([r for _, r in frontier])
            frontier = [push(cols, rows, g) for g in cat.end_generators(t)] if len(cols) else []
        if not filled.all():
            raise AssertionError(f"generators reach {filled.sum()} of {P.dims[t]} rows at degree {t}")
        order = np.argsort(np.concatenate([c for c, _ in parts]))
        mats.append(Mat.vstack([r for _, r in parts]).take_rows(order))
    return P, ModuleMap(P, Z, mats)


@dataclass
class ResolutionStep:
    free: FreeModule
    gen_degrees: tuple
    diff: ModuleMap  # P^i -> Z^i (abstract syzygy coordinates)
    syzygy: TruncatedModule  # Z^{i+1}
    syzygy_incl: ModuleMap  # Z^{i+1} -> P^i


@dataclass
class Resolution:
    """An adaptable degreewise free resolution built to the requested depth."""

    steps: list


def resolve(V: TruncatedModule, depth: int) -> Resolution:
    """Resolve V by free modules generated at its minimal generator degrees.

    Each step covers the syzygy by one M(t) per greedy generator.  Every
    step checks surjectivity of the cover and the adaptability equality
    gd(P^i) = gd(Z^i), and raises InvariantViolation when one fails.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    steps = []
    Z = V
    for i in range(depth + 1):
        spans = m_span(Z)
        P, diff = _cover(Z, minimal_generators(Z, spans=spans))
        gd_z = top_degree(h0_dims(Z, spans))
        gd_p = max(P.summands, default=-1)
        if gd_p != gd_z:
            raise InvariantViolation(f"adaptability broken at step {i}: gd(P)={gd_p}, gd(Z)={gd_z}")
        syz, syz_incl = kernel_of_map(diff)
        for t in range(Z.horizon + 1):
            if P.dims[t] - syz.dims[t] != Z.dims[t]:
                raise InvariantViolation(f"cover not surjective at step {i}, degree {t}")
        steps.append(ResolutionStep(P, P.summands, diff, syz, syz_incl))
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


@functools.lru_cache(maxsize=None)
def _faces(n: int, i: int):
    """Face pattern of d_i at degree n: one tuple per i-subset S of {1..n},
    in lex order, of one (p, k % 2, f) per point s_k of S.

    Copy S = {s_0 < ...} meets copy f, the place of S minus s_k among the
    (i-1)-subsets in lex order, through the step generator missing
    p = s_k - k with sign (-1)^k: s_k is the (s_k - k)-th point outside S
    minus s_k, so the map n-i -> n missing S is the one missing S minus s_k
    after that step.
    """
    place = {S: j for j, S in enumerate(itertools.combinations(range(1, n + 1), i - 1))}
    return tuple(tuple((s - k, k % 2, place[S[:k] + S[k + 1:]]) for k, s in enumerate(S))
                 for S in itertools.combinations(range(1, n + 1), i))


def _row_entries(m: Mat):
    """(rows of m, rows of -m), each row the list of (column, value) of its nonzeros."""
    rr, cc = np.nonzero(m.data)
    pos, neg = [[] for _ in range(m.nrows)], [[] for _ in range(m.nrows)]
    for r, c, v, w in zip(rr.tolist(), cc.tolist(), m.data[rr, cc].tolist(), m.scale(-1).data[rr, cc].tolist()):
        pos[r].append((c, v))
        neg[r].append((c, w))
    return pos, neg


def _koszul_rows(V: TruncatedModule, n: int, i: int, signed) -> list:
    """d_i: K_i(V)_n -> K_{i-1}(V)_n as sparse rows, column -> entry, copies
    in lex order of their subsets.

    signed[p - 1][1][sign][j] lists the nonzeros of row j of (-1)^sign times
    the action of the step generator n-i -> n-i+1 missing p.  Row j of copy
    S holds, for each face f of S (_faces), that row of its signed block at
    the columns of copy f.
    """
    a, b = V.dims[n - i], V.dims[n - i + 1]
    rows = []
    for faces in _faces(n, i):
        blocks = [(f * b, signed[p - 1][1][sign]) for p, sign, f in faces]
        for j in range(a):
            row = {}
            for off, block in blocks:
                for col, v in block[j]:
                    row[off + col] = v
            rows.append(row)
    return rows


def _step_identities_hold(V: TruncatedModule, r: int, signed) -> bool:
    """s_{q+1} o s_p = s_p o s_q on V for 1 <= p <= q <= r+1.

    s_p is the step generator missing p, out of r on the right of o and out
    of r+1 on the left; signed is tor_groups' cache of their actions.
    Counting from 0, block M[p, :, q, :] of the product of the actions out
    of r stacked by rows and those out of r+1 stacked by columns is
    act(s_{p+1}) act(s_{q+1}), so the identities compare the views
    M[p, :, p+1:, :] and M[p:, :, p, :], block by block.
    """
    a, c = V.dims[r], V.dims[r + 2]
    first = np.concatenate([act for act, _ in signed[r]])
    second = np.concatenate([act for act, _ in signed[r + 1]], axis=1)
    M = (Mat(V.field, *first.shape, first) @ Mat(V.field, *second.shape, second)).data
    M = M.reshape(r + 1, a, r + 2, c)
    return all(np.array_equal(M[p, :, p + 1:].swapaxes(0, 1), M[p:, :, p]) for p in range(r + 1))


def tor_groups(V: TruncatedModule, depth: int) -> HomologyReport:
    """H_i(V) = Tor_i(C/m, V) for i <= depth, from the Koszul complex.

    At each degree n, dim H_i = dim K_i - rank d_i - rank d_{i+1}, with d_0
    and every d_i with i > n zero; each rank is taken once and serves both
    H_{i-1} and H_i, and each d_i is dropped once its rank is read.  A d_i
    with V_{n-i} or V_{n-i+1} zero has rank 0 and is not built.  Each other
    d_i is built as sparse rows from the nonzeros of the step generator
    actions out of r = n - i (and of their negatives), read once per r, and
    ranked sparse (matrices.sparse_rank), over F_p with a dense core once
    pivots stop being cheap.  d_i d_{i-1} = 0 is certified wherever both
    differentials are built, which is every pair whose terms are all
    nonzero (one with an empty term composes to zero): the product vanishes
    exactly when the step generators' identities hold at r = n - i
    (_step_identities_hold).
    A pair of source degree r is built only if the pair (n, i) = (r + 2, 2)
    is, so the identities are checked there, once per r.  Where they fail,
    InvariantViolation is raised: the actions of V then do not compose as
    the morphisms do.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    h = V.horizon
    signed = {}  # r -> (act data, _row_entries) of the step generators out of r, missing 1, ..., r+1
    dims = [[0] * (h + 1) for _ in range(depth + 1)]
    for n in range(h + 1):
        ranks = [0] * (depth + 2)  # ranks[i] = rank d_i at degree n
        for i in range(1, min(depth + 1, n) + 1):
            r = n - i
            if not (V.dims[r] and V.dims[r + 1]):
                continue  # rank 0; d_i d_{i-1} and d_{i+1} d_i have an empty side
            if r not in signed:
                acts = [V.gens[g] for g in reversed(V.cat.step_generators(r))]
                signed[r] = [(m.data, _row_entries(m)) for m in acts]
            if i == 2 and V.dims[n] and not _step_identities_hold(V, r, signed):  # d_1 is built too
                raise InvariantViolation(f"Koszul d_2 d_1 is nonzero at degree {n}")
            ranks[i] = sparse_rank(V.field, _koszul_rows(V, n, i, signed[r]))
        for i in range(min(depth, n) + 1):
            dims[i][n] = comb(n, i) * V.dims[n - i] - ranks[i] - ranks[i + 1]
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
        return VerifyReport(items)

    seq = derive(V)
    w = h - 1  # common window for quantities involving SV/DV
    # truncating to the window is exact (directedness) and skips degree h,
    # which no value below reads: every one is windowed to w, where all
    # three reports end (SV and DV have horizon h - 1)
    rep_v, rep_sv, rep_dv = (tor_groups(M, depth) for M in (truncate(V, w), seq.SV, seq.DV))
    hd_v, hd_sv, hd_dv = (rep.hd for rep in (rep_v, rep_sv, rep_dv))
    support_top = top_degree(V.dims)
    values = SimpleNamespace(
        h=h, w=w, depth=depth, big_n=big_n, support_top=support_top,
        reg_sm=hypothesis_ok, mu_injective=not any(seq.KV.dims), finite_support=support_top < h,
        gd_v=hd_v[0], gd_sv=hd_sv[0], gd_dv=hd_dv[0], hd_v=hd_v, hd_sv=hd_sv, hd_dv=hd_dv,
        reg_v=rep_v.reg, reg_sv=rep_sv.reg, reg_dv=rep_dv.reg,
    )
    for lemma in LEMMAS:
        outcome = judge(lemma, values)
        if outcome is not None:
            emit(lemma.name, *outcome)
    return VerifyReport(items)
