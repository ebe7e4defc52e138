"""Acceptance suite: one test per criterion, printing a pass/fail line each.

The corpus is 50 seeded random presentations per configuration
(OI/F_101, OI/F_2, FI/F_101, FI/Q) at horizon 6, built once per session.
Every check is exact arithmetic with zero tolerance; inconclusive-within-
horizon outcomes are counted, never silently passed.
"""

import time

import pytest

from catrep.category import Morphism, make_category
from catrep.corpus import profile_for, sample_presentation
from catrep.fields import parse_field
from catrep.homology import hilbert_fit, tor_groups, verify_theorems
from catrep.presentations import Presentation, Relation, from_presentation
from catrep.shift import annihilator_oracle, derive, sd_commutation_probe, shift_module, sin_reg, un_chain
from catrep.trunc import free_module, generating_degree, truncate
from seams import continued, padded

HORIZON = 6
COUNT = 50
CONFIGS = [("oi", "fp:101"), ("oi", "fp:2"), ("fi", "fp:101"), ("fi", "q")]


def _report(n, name, ok, detail):
    line = f"ACCEPTANCE {n:02d} {name}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


_TIMINGS = {}


@pytest.fixture(scope="session")
def corpus():
    t0 = time.monotonic()
    out = {}
    for kind, spec in CONFIGS:
        cat = make_category(kind)
        field = parse_field(spec)
        mods = []
        for seed in range(1, COUNT + 1):
            pres = sample_presentation(cat, field, seed, profile_for(field))
            module, _ = from_presentation(cat, field, pres, HORIZON)
            mods.append((seed, pres, module))
        out[(kind, spec)] = (cat, field, mods)
    _TIMINGS["corpus"] = time.monotonic() - t0
    return out


@pytest.fixture(scope="session")
def derived(corpus):
    t0 = time.monotonic()
    out = {}
    for key, (cat, field, mods) in corpus.items():
        out[key] = [(seed, module, derive(module)) for seed, _, module in mods]
    _TIMINGS["derive"] = time.monotonic() - t0
    return out


def test_criterion_01_key_sequence_exactness(derived):
    t0 = time.monotonic()
    checked = 0
    for key, rows in derived.items():
        for seed, module, seq in rows:
            defects = seq.euler_defects()
            assert defects == [0] * len(defects), (key, seed)
            checked += 1
    # charge corpus construction and all 200 derives against the budget
    elapsed = time.monotonic() - t0 + _TIMINGS["corpus"] + _TIMINGS["derive"]
    _report(
        1,
        "key-sequence exactness",
        checked == 4 * COUNT and elapsed < 120.0,
        f"{checked} modules incl. build time, alternating sums all zero, "
        f"{elapsed:.1f}s (< 120s)",
    )


def test_criterion_02_gd_lemmas(derived):
    violations = 0
    conclusive = 0
    for key, rows in derived.items():
        for seed, module, seq in rows:
            w = module.horizon - 1
            gd_v = generating_degree(module)
            if gd_v < 0:
                continue  # zero module (the sampler never produces one)
            gd_dv = generating_degree(seq.DV)
            gd_sv = generating_degree(seq.SV)
            if not (gd_v < w and gd_dv < w and gd_sv < w):
                continue
            conclusive += 1
            if gd_dv != gd_v - 1:
                violations += 1
            if not (gd_sv <= gd_v <= gd_sv + 1):
                violations += 1
    _report(
        2,
        "gd(DV) = gd(V)-1 and shift window",
        violations == 0 and conclusive >= 4 * COUNT * 0.9,
        f"{conclusive} conclusive instances, {violations} violations",
    )


def test_criterion_03_shift_of_projectives():
    fp = parse_field("fp:101")
    configs = [
        (make_category("oi"), lambda s: 1),
        (make_category("fi"), lambda s: s),
        (make_category("oi_g", 2), lambda s: 2),
    ]
    checked = 0
    for cat, mult in configs:
        for s in range(1, 5):
            m = mult(s)
            for n in range(9):
                lhs = cat.hom_count(s, n + 1)
                rhs = cat.hom_count(s, n) + m * cat.hom_count(s - 1, n)
                assert len(cat.hom(s, n + 1)) == lhs  # enumeration backs the count
                assert lhs == rhs, (cat.kind, s, n)
                checked += 1
        # construction-level check where the modules stay small
        for s in range(1, 4 if cat.kind != "fi" else 4):
            M = free_module(cat, fp, s, 9)
            SM = shift_module(M)
            low = free_module(cat, fp, s - 1, 8)
            for n in range(9):
                assert SM.dims[n] == M.dims[n] + mult(s) * low.dims[n]
    _report(3, "shift of projectives", True, f"{checked} exact dimension identities (s <= 4, n <= 8)")


def test_criterion_04_reg_of_shifted_projectives():
    t0 = time.monotonic()
    fp = parse_field("fp:101")
    values = {}
    for kind in ("oi", "fi"):
        cat = make_category(kind)
        for s in range(4):
            M = free_module(cat, fp, s, 8)
            SM = shift_module(M)  # horizon 7
            rep = tor_groups(SM, 3)
            values[(kind, s)] = rep.reg
            assert rep.reg == s, (kind, s, rep.reg)
    elapsed = time.monotonic() - t0
    _report(
        4,
        "reg(SM(s)) = s",
        elapsed < 300.0,
        f"OI and FI, s <= 3, depth 3, horizon 7: {values}, {elapsed:.1f}s (< 300s)",
    )


def test_criterion_05_counterexample_reproduction():
    fp = parse_field("fp:101")
    oi = make_category("oi")
    pres = Presentation((("u", 1),), (Relation(2, ((1, Morphism(1, 2, (2,)), 0),)),))
    V, _ = from_presentation(oi, fp, pres, 6)
    assert V.dims[:6] == [0, 1, 1, 1, 1, 1]
    seq = derive(V)
    assert seq.mu.is_zero()
    assert seq.KV.dims == V.dims[:6]
    M0 = free_module(oi, fp, 0, seq.DV.horizon)
    assert seq.DV.dims == M0.dims
    probe = sd_commutation_probe(V)
    assert probe.ds_dims == [0] * 5
    assert probe.sd_dims == [1] * 5
    _report(
        5,
        "M(1)/IM(1) counterexample",
        True,
        "dims [0,1,1,1,1,1], mu = 0, KV = V, DV = M(0) dims, DSV = 0, SDV = M(0) dims",
    )


def test_criterion_06_oracle_equivalence():
    fp = parse_field("fp:101")
    compared = 0
    for kind in ("fi", "oi"):
        cat = make_category(kind)
        for seed in range(1, 26):
            pres = sample_presentation(cat, fp, seed, profile_for(fp))
            V, _ = from_presentation(cat, fp, pres, HORIZON)
            bases, valids = continued(un_chain(V, 3), 3)
            for n in range(1, len(bases)):
                valid = valids[n]
                if valid < 0:
                    continue
                oracle = annihilator_oracle(V, n)
                assert oracle.valid_to == valid
                for t in range(valid + 1):
                    assert bases[n][t] == oracle.bases[t], (kind, seed, n, t)
                compared += 1
    _report(6, "un_chain vs annihilator oracle", True,
            f"25 FI + 25 OI presentations, {compared} chain steps agree (n <= 3)")


def test_criterion_07_hilbert_polynomiality(corpus):
    conclusive = 0
    total = 0
    for (kind, spec), (cat, field, mods) in corpus.items():
        for seed, pres, _ in mods:
            V, _ = from_presentation(cat, field, pres, 7)
            total += 1
            fit = hilbert_fit(V)  # raises if a found fit mismatches any dim
            if fit.status == "ok":
                conclusive += 1
                assert fit.degree <= fit.gd
    rate = conclusive / total
    _report(
        7,
        "Hilbert polynomiality",
        rate >= 0.8,
        f"{conclusive}/{total} conclusive at horizon 7 ({100 * rate:.0f}% >= 80%), exact fits only",
    )


@pytest.fixture(scope="session")
def hypothesis_by_config(corpus):
    """reg(SM(s)) <= s for s <= 3, once per category/field configuration."""
    out = {}
    for (kind, spec), (cat, field, mods) in corpus.items():
        regs = []
        for s in range(4):
            M = free_module(cat, field, s, HORIZON)
            rep = tor_groups(shift_module(M), 3)
            assert rep.reg <= s, (kind, spec, s)
            regs.append(rep.reg)
        out[(kind, spec)] = regs
    return out


def test_criterion_08_inequality_battery(corpus, hypothesis_by_config):
    t0 = time.monotonic()
    violations = []
    inconclusive = 0
    passed = 0
    for (kind, spec), (cat, field, mods) in corpus.items():
        for seed, _, module in mods:
            report = verify_theorems(module, 3, halt_on_violation=False,
                                     check_hypothesis=False)
            for item in report.items:
                if item.status == "violation":
                    violations.append((kind, spec, seed, item.name, item.detail))
                elif item.status == "inconclusive":
                    inconclusive += 1
                elif item.status == "pass":
                    passed += 1
    elapsed = time.monotonic() - t0
    _report(
        8,
        "shift/derivative inequality battery",
        not violations,
        f"{passed} conclusive passes, {inconclusive} window-censored, "
        f"0 violations required, got {len(violations)} ({elapsed:.0f}s)",
    )
    assert not violations, violations


# the paper's group categories: (kind, group, horizon, expected pass,
# inconclusive and skipped counts) over F_101, corpus seeds 1-10; each horizon
# is the smallest at which items are conclusive
GROUP_LANES = [("fi_g", "cyclic:2", 5, (33, 31, 16)), ("oi_g", "cyclic:3", 6, (49, 21, 10))]


@pytest.mark.parametrize("kind, group, horizon, counts", GROUP_LANES,
                         ids=[f"{kind}-{group}" for kind, group, _, _ in GROUP_LANES])
def test_group_lane_inequality_battery(kind, group, horizon, counts):
    cat, field = make_category(kind, group), parse_field("fp:101")
    t0 = time.monotonic()
    statuses = []
    violations = []
    for seed in range(1, 11):
        module, _ = from_presentation(cat, field, sample_presentation(cat, field, seed, profile_for(field)),
                                      horizon)
        report = verify_theorems(module, 3, halt_on_violation=False, check_hypothesis=False)
        statuses += [item.status for item in report.items]
        violations += [(seed, item.name, item.detail) for item in report.items if item.status == "violation"]
    got = tuple(statuses.count(status) for status in ("pass", "inconclusive", "skipped"))
    print(f"ACCEPTANCE {cat.name}/{field.name} horizon {horizon}: {got[0]} pass, {got[1]} inconclusive, "
          f"{got[2]} skipped, {len(violations)} violations ({time.monotonic() - t0:.1f}s)")
    assert not violations, violations
    assert got == counts


def test_criterion_09_k_of_regular_part_vanishes(corpus):
    stabilized = 0
    skipped = 0
    for (kind, spec), (cat, field, mods) in corpus.items():
        for seed, _, module in mods:
            chain = un_chain(module, max(module.horizon, 1))
            if chain.status != "stabilized":
                skipped += 1
                continue
            sin_reg(chain)  # raises if K(V_reg) != 0 degreewise
            stabilized += 1
    _report(
        9,
        "K(V_reg) = 0 on stabilized modules",
        stabilized > 0,
        f"{stabilized} stabilized corpus modules verified, {skipped} inconclusive chains",
    )


def test_criterion_10_resolution_independence(corpus):
    picks = []
    for (kind, spec), (cat, field, mods) in corpus.items():
        picks.extend(mods[:3])
        if len(picks) >= 10:
            break
    picks = picks[:10]
    agreed = 0
    for seed, _, module in picks:
        small = truncate(module, 5)
        a = tor_groups(small, 2)
        with padded():
            b = tor_groups(small, 2)
        assert a.dims == b.dims, seed
        agreed += 1
    _report(10, "resolution independence", agreed == 10,
            f"minimal vs padded Tor dims agree on {agreed} corpus modules")
