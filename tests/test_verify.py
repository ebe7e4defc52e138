"""Every outcome of the verify lemma table, pinned on crafted Tor reports.

``homology.tor_groups`` is replaced by a queue of reports whose hd values
are chosen by hand, so each lemma reaches pass, violation, inconclusive and
skipped; derive, mu_V and the support still come from a real module.
"""

import pytest

from catrep import homology
from catrep.category import Morphism, make_category
from catrep.fields import parse_field
from catrep.homology import HomologyReport, VerificationViolation, verify_theorems
from catrep.presentations import Presentation, Relation, from_presentation
from catrep.trunc import free_module, zero_module

F101 = parse_field("fp:101")
OI = make_category("oi")
FI = make_category("fi")
HORIZON = 6
W = HORIZON - 1


def crafted(hd, valid_to=W, reg=None):
    """A report whose H_i is one-dimensional exactly in degree hd[i]."""
    dims = [[int(t == top) for t in range(valid_to + 1)] for top in hd]
    if reg is None:
        reg = max(top - i for i, top in enumerate(hd))
    return HomologyReport(dims, list(hd), hd[0], reg, len(hd) - 1, valid_to)


def projective():
    """M(1) over OI: mu_V injective, support up to the horizon."""
    return free_module(OI, F101, 1, HORIZON)


def finite_support():
    """k in degree 0 over FI: mu_V not injective, support ends at 0."""
    pres = Presentation((("v", 0),), (Relation(1, ((1, Morphism(0, 1, ()), 0),)),))
    return from_presentation(FI, F101, pres, HORIZON)[0]


def run_verify(monkeypatch, module, hyp_regs, hd_v, hd_sv, hd_dv, **kwargs):
    queue = [crafted([0], HORIZON, reg=r) for r in hyp_regs]
    queue += [crafted(hd_v), crafted(hd_sv), crafted(hd_dv)]
    monkeypatch.setattr(homology, "tor_groups", lambda M, depth, **kw: queue.pop(0))
    args = {"halt_on_violation": False, "check_hypothesis": False}
    args.update(kwargs)
    report = verify_theorems(module, 1, **args)
    assert not queue
    return report


HOLDS = "holds for i <= 1 within window 5"
CENSORED_GD = "window 5 too small for gd values"
CENSORED_HD = "an hd value reached window 5"
NO_MU = "mu_V is not injective within the window, hypothesis of the bound fails"
NO_HYP = "reg(SM(s)) hypothesis failed"
UNBOUNDED = "support reaches the horizon 6; finite support not certifiable"

PASSING = [
    ("gd-derivative-drop", "pass", "gd(DV) = 0, gd(V) = 1", {"gd_v": 1, "gd_dv": 0}),
    ("gd-shift-window", "pass", "gd(SV) = 1, gd(V) = 1", {"gd_v": 1, "gd_sv": 1}),
    ("hd-shift-upper", "pass", HOLDS, {}),
    ("hd-unshift-upper", "pass", HOLDS, {}),
    ("hd-mu-injective-bound", "pass", HOLDS, {}),
    ("reg-derivative-bound", "pass", "reg(V) = 1 <= reg(DV) + 1 = 1 (depth 1)",
     {"reg_v": 1, "reg_dv": 0}),
    ("reg-shift-window", "pass", "reg(SV) = 1 <= reg(V) = 1 <= reg(SV) + 1 (depth 1)",
     {"reg_v": 1, "reg_sv": 1}),
    ("reg-finite-support", "inconclusive", UNBOUNDED, {}),
]

CASES = {
    "pass": (projective, [], [1, -1], [1, -1], [0, -1], {}, "inconclusive", PASSING),
    "violation": (projective, [], [0, 4], [1, 1], [0, -1], {}, "violation", [
        ("gd-derivative-drop", "violation", "gd(DV) = 0, gd(V) = 0", {"gd_v": 0, "gd_dv": 0}),
        ("gd-shift-window", "violation", "gd(SV) = 1, gd(V) = 0", {"gd_v": 0, "gd_sv": 1}),
        ("hd-shift-upper", "violation", "hd_0(SV) = 1 > 0 (witness degree 1, index 0)",
         {"i": 0, "hd_sv": 1, "bound": 0}),
        ("hd-unshift-upper", "violation", "hd_1(V) = 4 > 2 (witness index 1)",
         {"i": 1, "hd_v": 4, "bound": 2}),
        ("hd-mu-injective-bound", "violation", "hd_1(V) = 4 > reg(DV) + 1*1 + 1 = 2",
         {"i": 1, "hd_v": 4, "reg_dv": 0}),
        ("reg-derivative-bound", "violation", "reg(V) = 3 > reg(DV) + 1 = 1",
         {"reg_v": 3, "reg_dv": 0}),
        ("reg-shift-window", "violation", "reg(SV) = 1, reg(V) = 3 breaks the window",
         {"reg_v": 3, "reg_sv": 1}),
        ("reg-finite-support", "inconclusive", UNBOUNDED, {}),
    ]),
    "censored": (projective, [], [5, -1], [1, 5], [0, -1], {}, "inconclusive", [
        ("gd-derivative-drop", "inconclusive", CENSORED_GD, {}),
        ("gd-shift-window", "inconclusive", CENSORED_GD, {}),
        ("hd-shift-upper", "inconclusive", CENSORED_HD, {}),
        ("hd-unshift-upper", "inconclusive", CENSORED_HD, {}),
        ("hd-mu-injective-bound", "inconclusive", CENSORED_HD, {}),
        ("reg-derivative-bound", "inconclusive", CENSORED_HD, {}),
        ("reg-shift-window", "inconclusive", CENSORED_HD, {}),
        ("reg-finite-support", "inconclusive", UNBOUNDED, {}),
    ]),
    # only hd(DV) reaches the window: just the two mu_V lemmas read it
    "censored-dv": (projective, [], [1, -1], [1, -1], [0, 5], {}, "inconclusive",
                    PASSING[:4] + [
                        ("hd-mu-injective-bound", "inconclusive", CENSORED_HD, {}),
                        ("reg-derivative-bound", "inconclusive", CENSORED_HD, {}),
                    ] + PASSING[6:]),
    "support-pass": (finite_support, [], [0, -1], [-1, -1], [-1, -1], {}, "pass", [
        ("gd-derivative-drop", "pass", "gd(DV) = -1, gd(V) = 0", {"gd_v": 0, "gd_dv": -1}),
        ("gd-shift-window", "pass", "gd(SV) = -1, gd(V) = 0", {"gd_v": 0, "gd_sv": -1}),
        ("hd-shift-upper", "pass", HOLDS, {}),
        ("hd-unshift-upper", "pass", HOLDS, {}),
        ("hd-mu-injective-bound", "skipped", NO_MU, {}),
        ("reg-derivative-bound", "skipped", NO_MU, {}),
        ("reg-shift-window", "pass", "reg(SV) = -1 <= reg(V) = 0 <= reg(SV) + 1 (depth 1)",
         {"reg_v": 0, "reg_sv": -1}),
        ("reg-finite-support", "pass", "support ends at 0, reg(V) = 0 (depth 1)",
         {"support_top": 0, "reg_v": 0}),
    ]),
    "support-violation": (finite_support, [], [0, 2], [-1, -1], [-1, -1], {}, "violation", [
        ("gd-derivative-drop", "pass", "gd(DV) = -1, gd(V) = 0", {"gd_v": 0, "gd_dv": -1}),
        ("gd-shift-window", "pass", "gd(SV) = -1, gd(V) = 0", {"gd_v": 0, "gd_sv": -1}),
        ("hd-shift-upper", "pass", HOLDS, {}),
        ("hd-unshift-upper", "violation", "hd_1(V) = 2 > 1 (witness index 1)",
         {"i": 1, "hd_v": 2, "bound": 1}),
        ("hd-mu-injective-bound", "skipped", NO_MU, {}),
        ("reg-derivative-bound", "skipped", NO_MU, {}),
        ("reg-shift-window", "violation", "reg(SV) = -1, reg(V) = 1 breaks the window",
         {"reg_v": 1, "reg_sv": -1}),
        ("reg-finite-support", "violation", "support ends at 0, reg(V) = 1 (depth 1)",
         {"support_top": 0, "reg_v": 1}),
    ]),
    "support-censored": (finite_support, [], [0, 5], [-1, -1], [-1, -1], {}, "inconclusive", [
        ("gd-derivative-drop", "pass", "gd(DV) = -1, gd(V) = 0", {"gd_v": 0, "gd_dv": -1}),
        ("gd-shift-window", "pass", "gd(SV) = -1, gd(V) = 0", {"gd_v": 0, "gd_sv": -1}),
        ("hd-shift-upper", "inconclusive", CENSORED_HD, {}),
        ("hd-unshift-upper", "inconclusive", CENSORED_HD, {}),
        ("hd-mu-injective-bound", "skipped", NO_MU, {}),
        ("reg-derivative-bound", "skipped", NO_MU, {}),
        ("reg-shift-window", "inconclusive", CENSORED_HD, {}),
        ("reg-finite-support", "inconclusive", CENSORED_HD, {}),
    ]),
    "hypothesis-pass": (projective, [0, 0], [1, -1], [1, -1], [0, -1],
                        {"check_hypothesis": True, "s_bound": 1}, "inconclusive", [
        ("hypothesis-reg-SM(0)", "pass", "reg(SM(0)) = 0 <= 0 within horizon 6", {"s": 0, "reg": 0}),
        ("hypothesis-reg-SM(1)", "pass", "reg(SM(1)) = 0 <= 1 within horizon 6", {"s": 1, "reg": 0}),
    ] + PASSING),
    # reachable as `verify --bign -1`; reg-finite-support is left out, not skipped
    "hypothesis-fails": (projective, [1], [1, -1], [1, -1], [0, -1],
                         {"check_hypothesis": True, "s_bound": 0, "big_n": -1}, "violation", [
        ("hypothesis-reg-SM(0)", "violation", "reg(SM(0)) = 1 > -1 within horizon 6",
         {"s": 0, "reg": 1}),
    ] + PASSING[:2] + [
        ("hd-shift-upper", "skipped", NO_HYP, {}),
        ("hd-unshift-upper", "skipped", NO_HYP, {}),
        ("hd-mu-injective-bound", "skipped", NO_HYP, {}),
        ("reg-derivative-bound", "skipped", NO_HYP, {}),
        ("reg-shift-window", "skipped", NO_HYP, {}),
    ]),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_verify_outcomes_pinned(monkeypatch, case):
    make, hyp_regs, hd_v, hd_sv, hd_dv, kwargs, overall, expected = CASES[case]
    report = run_verify(monkeypatch, make(), hyp_regs, hd_v, hd_sv, hd_dv, **kwargs)
    assert [(it.name, it.status, it.detail, it.data) for it in report.items] == expected
    assert report.overall == overall


@pytest.mark.parametrize("case, message", [
    ("violation", "gd-derivative-drop: gd(DV) = 0, gd(V) = 0"),
    ("support-violation", "hd-unshift-upper: hd_1(V) = 2 > 1 (witness index 1)"),
    ("hypothesis-fails", "hypothesis-reg-SM(0): reg(SM(0)) = 1 > -1 within horizon 6"),
])
def test_verify_halts_on_first_violation(monkeypatch, case, message):
    make, hyp_regs, hd_v, hd_sv, hd_dv, kwargs, _, _ = CASES[case]
    with pytest.raises(VerificationViolation) as exc:
        run_verify(monkeypatch, make(), hyp_regs, hd_v, hd_sv, hd_dv,
                   halt_on_violation=True, **kwargs)
    assert str(exc.value) == message


def test_verify_zero_module_pinned():
    report = verify_theorems(zero_module(OI, F101, 5), 2, check_hypothesis=False)
    assert [(it.name, it.status, it.detail, it.data) for it in report.items] == [
        ("module-checks", "skipped", "module is zero or horizon too small", {}),
    ]
    assert report.overall == "pass"
