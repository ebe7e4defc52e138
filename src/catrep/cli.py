"""Command-line front end.

Exit codes: 0 = computation done / all checks passed, 1 = parse or config
error, 2 = inconclusive within the horizon, 3 = violation (a lemma
inequality or a checked mathematical invariant failed; witness printed),
4 = internal error (a bare assertion failed: a bug, not a counterexample).  All numeric output carries its validity horizon; JSON output is
versioned and byte-stable for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import replace
from types import SimpleNamespace

from .category import make_category
from .fields import RationalOverflowError, parse_field
from .homology import (
    LEMMAS,
    VerificationViolation,
    hilbert_fit,
    judge,
    tor_groups,
    verify_theorems,
)
from .presentations import (
    PresentationError,
    build_module,
    emit_presentation_text,
    load_presentation,
    normalize_presentation,
    resolve_coefficients,
)
from .corpus import FUZZ_PROFILE, sample_presentation
from .presentations import from_presentation
from .reports import check_item, dims_item, emit, make_report, value_item
from .shift import (
    HorizonExhausted,
    annihilator_oracle,
    derive,
    sd_commutation_probe,
    sin_reg,
    un_chain,
)
from .trunc import InvariantViolation, generating_degree

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INCONCLUSIVE = 2
EXIT_VIOLATION = 3
EXIT_INTERNAL = 4

# the verify rows the fuzz battery runs: they need no resolution
GD_LEMMAS = [lemma for lemma in LEMMAS if lemma.name in ("gd-derivative-drop", "gd-shift-window")]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="catrep",
        description="Exact computations with truncated FI/OI/FI_G/OI_G modules",
    )
    ap.add_argument("--cat", help="category kind: fi | oi | fi_g | oi_g")
    ap.add_argument("--group", help="group spec for decorated kinds: cyclic:<m> or table:<n>:<entries>")
    ap.add_argument("--field", help="field spec: q or fp:<prime>")
    ap.add_argument("--horizon", type=int, help="truncation horizon")
    ap.add_argument("--format", choices=("text", "json"), default="text")
    sub = ap.add_subparsers(dest="command", required=True)

    def with_file(p):
        p.add_argument("file", help="presentation file")
        return p

    info = with_file(sub.add_parser("info", help="dimensions and generating degree"))
    info.add_argument("--emit-normalized", action="store_true",
                      help="print the normalized presentation file instead")
    with_file(sub.add_parser("hilbert", help="polynomial fit of the dimension sequence"))
    hom = with_file(sub.add_parser("homology", help="Tor groups, hd_i and regularity"))
    hom.add_argument("--depth", type=int, default=2)
    dec = with_file(sub.add_parser("decompose", help="U^n chain and singular/regular parts"))
    dec.add_argument("--max-steps", type=int, default=None)
    with_file(sub.add_parser("shift", help="S/K/D dimensions and key-sequence check"))
    with_file(sub.add_parser("probe-sd", help="compare S(DV) against D(SV)"))
    ver = with_file(sub.add_parser("verify", help="lemma and corollary instance checks"))
    ver.add_argument("--depth", type=int, default=2)
    ver.add_argument("--smax", type=int, default=3)
    ver.add_argument("--bign", type=int, default=0)
    fuzz = sub.add_parser("fuzz", help="random presentations through the invariant battery")
    fuzz.add_argument("--count", type=int, default=5)
    fuzz.add_argument("--seed", type=int, required=True)
    orc = with_file(sub.add_parser("oracle", help="compare un_chain with the annihilator oracle"))
    orc.add_argument("--max-n", type=int, default=3)
    return ap


def _load(args):
    header, pres = load_presentation(args.file)
    # each flag overrides only its own header line
    if args.cat:
        header["category"] = args.cat
    if args.group:
        header["group"] = args.group
    field = parse_field(args.field) if args.field else None
    return build_module(header, pres, field=field, horizon=args.horizon), pres


def _config(cat, field, horizon, **extra) -> dict:
    cfg = {"category": cat.name, "field": field.name, "horizon": horizon}
    cfg.update(extra)
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except PresentationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError, RationalOverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # numpy's _ArrayMemoryError included
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except HorizonExhausted as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (VerificationViolation, InvariantViolation) as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "fuzz":
        return _cmd_fuzz(args)
    (cat, field, horizon, module), pres = _load(args)
    cfg = _config(cat, field, horizon, file=args.file)
    if cmd == "info":
        return _cmd_info(args, cat, field, horizon, module, pres, cfg)
    if cmd == "hilbert":
        return _cmd_hilbert(args, module, cfg)
    if cmd == "homology":
        return _cmd_homology(args, module, cfg)
    if cmd == "decompose":
        return _cmd_decompose(args, module, cfg)
    if cmd == "shift":
        return _cmd_shift(args, module, cfg)
    if cmd == "probe-sd":
        return _cmd_probe_sd(args, module, cfg)
    if cmd == "verify":
        return _cmd_verify(args, module, cfg)
    if cmd == "oracle":
        return _cmd_oracle(args, module, cfg)
    raise ValueError(f"unknown command {cmd}")


def _cmd_info(args, cat, field, horizon, module, pres, cfg) -> int:
    if args.emit_normalized:
        pres = normalize_presentation(cat, resolve_coefficients(pres, field))
        sys.stdout.write(emit_presentation_text(cat, field, horizon, pres))
        return EXIT_OK
    items = [
        dims_item("dims", module.dims, module.horizon),
        value_item("gd", generating_degree(module), module.horizon),
    ]
    print(emit(make_report("info", cfg, items), args.format), end="")
    return EXIT_OK


def _cmd_hilbert(args, module, cfg) -> int:
    fit = hilbert_fit(module)
    items = [dims_item("dims", fit.raw_dims, fit.valid_to)]
    if fit.status == "ok":
        items.append(value_item("onset", fit.onset))
        items.append(value_item("coefficients", [str(c) for c in fit.coeffs]))
        items.append(value_item("degree", fit.degree))
        items.append(value_item("gd", fit.gd, module.horizon))
        items.append(check_item("degree-le-gd", "pass",
                                f"degree {fit.degree} <= gd {fit.gd}"))
    else:
        items.append(check_item("fit", "inconclusive",
                                "no onset with vanishing differences within the horizon"))
    print(emit(make_report("hilbert", cfg, items), args.format), end="")
    return EXIT_OK if fit.status == "ok" else EXIT_INCONCLUSIVE


def _cmd_homology(args, module, cfg) -> int:
    rep = tor_groups(module, args.depth)
    items = []
    for i in range(args.depth + 1):
        items.append(dims_item(f"H_{i}", rep.dims[i], rep.valid_to, hd=rep.hd[i]))
    items.append(value_item("gd", rep.gd, rep.valid_to))
    items.append(value_item("reg", rep.reg, rep.valid_to,
                            note=f"lower bound within depth {rep.depth}"))
    print(emit(make_report("homology", {**cfg, "depth": args.depth}, items), args.format), end="")
    return EXIT_OK


def _cmd_decompose(args, module, cfg) -> int:
    max_steps = args.max_steps if args.max_steps is not None else max(module.horizon, 1)
    chain = un_chain(module, max_steps)
    items = []
    for n in range(1, len(chain.bases)):
        items.append(dims_item(f"U^{n}", chain.dims(n), chain.valid_horizons[n]))
    if chain.status != "stabilized":
        items.append(check_item("stabilization", "inconclusive",
                                f"undecidable within horizon {module.horizon}"))
        print(emit(make_report("decompose", cfg, items), args.format), end="")
        return EXIT_INCONCLUSIVE
    result = sin_reg(chain)
    items.append(value_item("stabilized_at", chain.stabilized_at))
    items.append(dims_item("V_sin", result.sin.dims, result.valid_to))
    items.append(dims_item("V_reg", result.reg.dims, result.valid_to))
    items.append(check_item("K(V_reg)=0", "pass",
                            f"verified degreewise to {result.valid_to - 1}"))
    print(emit(make_report("decompose", cfg, items), args.format), end="")
    return EXIT_OK


def _cmd_shift(args, module, cfg) -> int:
    seq = derive(module)
    items = [
        dims_item("V", module.dims, module.horizon),
        dims_item("SV", seq.SV.dims, seq.SV.horizon),
        dims_item("KV", seq.KV.dims, seq.KV.horizon),
        dims_item("DV", seq.DV.dims, seq.DV.horizon),
        check_item("key-sequence-exact", "pass",
                   "alternating dim sum vanishes at every valid degree"),
        value_item("mu-injective", not any(seq.KV.dims), seq.KV.horizon),
    ]
    print(emit(make_report("shift", cfg, items), args.format), end="")
    return EXIT_OK


def _cmd_probe_sd(args, module, cfg) -> int:
    probe = sd_commutation_probe(module)
    items = [
        dims_item("SDV", probe.sd_dims, probe.valid_to),
        dims_item("DSV", probe.ds_dims, probe.valid_to),
        value_item("agree", probe.agree, probe.valid_to),
    ]
    print(emit(make_report("probe-sd", cfg, items), args.format), end="")
    return EXIT_OK


def _cmd_verify(args, module, cfg) -> int:
    report = verify_theorems(module, args.depth, s_bound=args.smax,
                             big_n=args.bign, halt_on_violation=False)
    items = [check_item(it.name, it.status, it.detail) for it in report.items]
    cfg = {**cfg, "depth": args.depth, "smax": args.smax, "bign": args.bign}
    print(emit(make_report("verify", cfg, items), args.format), end="")
    if report.overall == "violation":
        return EXIT_VIOLATION
    if report.overall == "inconclusive":
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _cmd_oracle(args, module, cfg) -> int:
    max_n = args.max_n
    chain = un_chain(module, max_n)
    items = []
    status = EXIT_OK
    for n in range(1, min(max_n, len(chain.bases) - 1) + 1):
        valid = chain.valid_horizons[n]
        if valid < 0:
            items.append(check_item(f"U^{n}", "inconclusive", "window empty"))
            status = max(status, EXIT_INCONCLUSIVE)
            continue
        witness = _oracle_mismatch(module, chain, n)
        if witness is None:
            items.append(check_item(f"U^{n}", "pass",
                                    f"chain equals annihilator oracle to degree {valid}"))
        else:
            items.append(check_item(f"U^{n}", "violation",
                                    f"mismatch at degree {witness}"))
            status = EXIT_VIOLATION
    print(emit(make_report("oracle", {**cfg, "max_n": max_n}, items), args.format), end="")
    return status


def _oracle_mismatch(module, chain, n):
    """First degree up to chain.valid_horizons[n] where U^n differs from the
    annihilator oracle, else None."""
    oracle = annihilator_oracle(module, n)
    return next((t for t in range(chain.valid_horizons[n] + 1)
                 if chain.bases[n][t] != oracle.bases[t]), None)


def _cmd_fuzz(args) -> int:
    if not args.cat or not args.field or args.horizon is None:
        raise ValueError("fuzz needs --cat, --field and --horizon")
    cat = make_category(args.cat, args.group)
    field = parse_field(args.field)
    horizon = args.horizon
    items = []
    worst = EXIT_OK
    for seed in range(args.seed, args.seed + args.count):
        status, detail = _fuzz_one(cat, field, horizon, seed)
        items.append(check_item(f"seed-{seed}", status, detail, seed=seed))
        if status == "violation":
            worst = EXIT_VIOLATION
        elif status == "inconclusive" and worst == EXIT_OK:
            worst = EXIT_INCONCLUSIVE
    cfg = _config(cat, field, horizon, seed=args.seed, count=args.count)
    print(emit(make_report("fuzz", cfg, items), args.format), end="")
    return worst


def _fuzz_one(cat, field, horizon, seed):
    pres = sample_presentation(cat, field, seed, FUZZ_PROFILE)
    # a relation in degree d changes nothing below d, so the ones above the
    # horizon leave the truncated module as it is
    pres = replace(pres, relations=tuple(r for r in pres.relations if r.target <= horizon))
    module, _ = from_presentation(cat, field, pres, horizon)
    if module.is_zero():  # every generator sits above the horizon
        return "skipped", "module is zero below the horizon"
    notes = []
    seq = derive(module)  # raises on an inexact key sequence
    values = SimpleNamespace(gd_v=generating_degree(module), gd_dv=generating_degree(seq.DV),
                             gd_sv=generating_degree(seq.SV), w=horizon - 1)
    outcomes = [judge(lemma, values) for lemma in GD_LEMMAS]
    violations = [detail for status, detail, _ in outcomes if status == "violation"]
    if any(status == "inconclusive" for status, _, _ in outcomes):
        notes.append("gd windows censored")
    elif violations:
        return "violation", f"{violations[0]} (seed {seed})"
    fit = hilbert_fit(module)
    if fit.status != "ok":
        notes.append("hilbert inconclusive")
    chain = un_chain(module, max(horizon, 1))
    if chain.status == "stabilized":
        sin_reg(chain)  # raises unless K(V_reg) = 0
        notes.append(f"stabilized at {chain.stabilized_at}")
        top_n = min(3, len(chain.bases) - 1)
        for n in range(1, top_n + 1):
            if chain.valid_horizons[n] < 0:
                continue
            witness = _oracle_mismatch(module, chain, n)
            if witness is not None:
                return "violation", f"oracle mismatch at n={n}, degree {witness} (seed {seed})"
    else:
        notes.append("chain inconclusive")
    rng = random.Random(seed)
    for _ in range(4 if horizon > 0 else 0):  # horizon 0 has no morphism to compose
        r = rng.randint(0, max(horizon - 2, 0))
        s = rng.randint(r, horizon - 1)
        t = rng.randint(s, horizon - 1)
        homs_a, homs_b = cat.hom(r, s), cat.hom(s, t)
        if not homs_a or not homs_b:
            continue
        a = homs_a[rng.randrange(len(homs_a))]
        b = homs_b[rng.randrange(len(homs_b))]
        if module.act(cat.compose(b, a)) != module.act(a) @ module.act(b):
            return "violation", f"act not functorial on {b} o {a} (seed {seed})"
    if any("inconclusive" in n for n in notes):
        return "inconclusive", "; ".join(notes)
    return "pass", "; ".join(notes) if notes else "all checks passed"


if __name__ == "__main__":
    sys.exit(main())
