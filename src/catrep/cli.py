"""Command-line front end.

Each subcommand is declared once in build_parser, with its options, their
lower bounds and its handler, which returns one report's config and items.
Exit codes: 0 = done / all checks passed, 1 = usage, parse or config error,
2 = inconclusive within the horizon, 3 = violation (a lemma inequality or a
checked mathematical invariant failed; witness printed), 4 = internal error
(a bare assertion failed: a bug, not a counterexample).  A report's worst
check status gives 0, 2 or 3 (reports.overall_status).  All numeric output
carries its validity horizon; JSON output is versioned and byte-stable for
a fixed config and seed.
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import replace
from types import SimpleNamespace

from .category import make_category
from .fields import RationalOverflowError, parse_field, rational_bit_limit
from .homology import (
    LEMMAS,
    VerificationViolation,
    hilbert_fit,
    judge,
    tor_groups,
    verify_theorems,
)
from .matrices import NotInSpan
from .presentations import (
    PresentationError,
    build_module,
    emit_presentation_text,
    from_presentation,
    load_presentation,
    normalize_presentation,
    resolve_coefficients,
)
from .corpus import FUZZ_PROFILE, sample_presentation
from .reports import check_item, dims_item, emit, make_report, overall_status, value_item
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

EXIT_FOR_STATUS = {"pass": EXIT_OK, "inconclusive": EXIT_INCONCLUSIVE, "violation": EXIT_VIOLATION}

# the verify rows the fuzz battery runs: they need no resolution
GD_LEMMAS = [lemma for lemma in LEMMAS if lemma.name in ("gd-derivative-drop", "gd-shift-window")]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="catrep",
        description="Exact computations with truncated FI/OI/FI_G/OI_G modules",
    )
    bounds = {}  # option dest -> (flag, least value), checked by _dispatch

    def number(p, flag, least, **kw):
        bounds[p.add_argument(flag, type=int, **kw).dest] = (flag, least)

    def command(name, run, help, file=True):
        p = sub.add_parser(name, help=help)
        if file:
            p.add_argument("file", help="presentation file")
        p.set_defaults(run=run)
        return p

    ap.add_argument("--cat", help="category kind: fi | oi | fi_g | oi_g")
    ap.add_argument("--group", help="group spec for decorated kinds: cyclic:<m> or table:<n>:<entries>")
    ap.add_argument("--field", help="field spec: q or fp:<prime>")
    number(ap, "--horizon", 0, help="truncation horizon")
    ap.add_argument("--format", choices=("text", "json"), default="text")
    ap.set_defaults(bounds=bounds)
    sub = ap.add_subparsers(dest="command", required=True)

    info = command("info", _cmd_info, "dimensions and generating degree")
    info.add_argument("--emit-normalized", action="store_true",
                      help="print the normalized presentation file instead")
    command("hilbert", _cmd_hilbert, "polynomial fit of the dimension sequence")
    number(command("homology", _cmd_homology, "Tor groups, hd_i and regularity"),
           "--depth", 0, default=2)
    number(command("decompose", _cmd_decompose, "U^n chain and singular/regular parts"),
           "--max-steps", 1, default=None)
    command("shift", _cmd_shift, "S/K/D dimensions and key-sequence check")
    command("probe-sd", _cmd_probe_sd, "compare S(DV) against D(SV)")
    ver = command("verify", _cmd_verify, "lemma and corollary instance checks")
    number(ver, "--depth", 0, default=2)
    number(ver, "--smax", 0, default=3)
    number(ver, "--bign", 0, default=0)
    fuzz = command("fuzz", _cmd_fuzz, "random presentations through the invariant battery",
                   file=False)
    number(fuzz, "--count", 1, default=5)
    number(fuzz, "--seed", 0, required=True)
    number(command("oracle", _cmd_oracle, "compare un_chain with the annihilator oracle"),
           "--max-n", 1, default=3)
    return ap


def _load(args):
    """(module, presentation, report config) of the presentation file."""
    header, pres = load_presentation(args.file)
    # each flag overrides only its own header line
    if args.cat:
        header["category"] = args.cat
    if args.group:
        header["group"] = args.group
    field = parse_field(args.field) if args.field else None
    cat, field, horizon, module = build_module(header, pres, field=field, horizon=args.horizon)
    return module, pres, _config(cat, field, horizon, file=args.file)


def _config(cat, field, horizon, **extra) -> dict:
    return {"category": cat.name, "field": field.name, "horizon": horizon, **extra}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse printed a usage error, or --help
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return _dispatch(args)
    except (PresentationError, ValueError, OSError, RationalOverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # numpy's _ArrayMemoryError included
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except HorizonExhausted as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (VerificationViolation, InvariantViolation, NotInSpan) as exc:  # NotInSpan: a family is not stable
        print(f"violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def _dispatch(args) -> int:
    """Check CATREP_MAX_RATIONAL_BITS and the option bounds, run the
    command, print its report and read the exit code off the report."""
    rational_bit_limit()  # raises on a malformed value, whatever the field
    for dest, (flag, least) in args.bounds.items():
        if (value := getattr(args, dest, None)) is not None and value < least:
            raise ValueError(f"{flag} must be >= {least}")
    report = args.run(args)
    if report is None:  # info --emit-normalized printed a presentation file
        return EXIT_OK
    cfg, items = report
    print(emit(make_report(args.command, cfg, items), args.format), end="")
    return EXIT_FOR_STATUS[overall_status(it["status"] for it in items if it["type"] == "check")]


def _cmd_info(args):
    module, pres, cfg = _load(args)
    if args.emit_normalized:
        cat, field = module.cat, module.field
        pres = normalize_presentation(cat, resolve_coefficients(pres, field))
        sys.stdout.write(emit_presentation_text(cat, field, module.horizon, pres))
        return None
    return cfg, [
        dims_item("dims", module.dims, module.horizon),
        value_item("gd", generating_degree(module), module.horizon),
    ]


def _cmd_hilbert(args):
    module, _, cfg = _load(args)
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
    return cfg, items


def _cmd_homology(args):
    module, _, cfg = _load(args)
    rep = tor_groups(module, args.depth)
    items = [dims_item(f"H_{i}", rep.dims[i], rep.valid_to, hd=rep.hd[i])
             for i in range(args.depth + 1)]
    items.append(value_item("gd", rep.gd, rep.valid_to))
    items.append(value_item("reg", rep.reg, rep.valid_to,
                            note=f"lower bound within depth {rep.depth}"))
    return {**cfg, "depth": args.depth}, items


def _cmd_decompose(args):
    module, _, cfg = _load(args)
    chain = un_chain(module, args.max_steps or max(module.horizon, 1))
    items = [dims_item(f"U^{n}", chain.dims(n), chain.valid_horizons[n])
             for n in range(1, len(chain.bases))]
    if chain.status != "stabilized":
        items.append(check_item("stabilization", "inconclusive",
                                f"undecidable within horizon {module.horizon}"))
        return cfg, items
    result = sin_reg(chain)
    items.append(value_item("stabilized_at", chain.stabilized_at))
    items.append(dims_item("V_sin", result.sin.dims, result.valid_to))
    items.append(dims_item("V_reg", result.reg.dims, result.valid_to))
    items.append(check_item("K(V_reg)=0", "pass",
                            f"verified degreewise to {result.valid_to - 1}"))
    return cfg, items


def _cmd_shift(args):
    module, _, cfg = _load(args)
    seq = derive(module)
    return cfg, [
        dims_item("V", module.dims, module.horizon),
        dims_item("SV", seq.SV.dims, seq.SV.horizon),
        dims_item("KV", seq.kv_dims, seq.SV.horizon),
        dims_item("DV", seq.DV.dims, seq.DV.horizon),
        check_item("key-sequence-exact", "pass",
                   "alternating dim sum vanishes at every valid degree"),
        value_item("mu-injective", not any(seq.kv_dims), seq.SV.horizon),
    ]


def _cmd_probe_sd(args):
    module, _, cfg = _load(args)
    probe = sd_commutation_probe(module)
    return cfg, [
        dims_item("SDV", probe.sd_dims, probe.valid_to),
        dims_item("DSV", probe.ds_dims, probe.valid_to),
        value_item("agree", probe.agree, probe.valid_to),
    ]


def _cmd_verify(args):
    module, _, cfg = _load(args)
    report = verify_theorems(module, args.depth, s_bound=args.smax,
                             big_n=args.bign, halt_on_violation=False)
    items = [check_item(it.name, it.status, it.detail) for it in report.items]
    return {**cfg, "depth": args.depth, "smax": args.smax, "bign": args.bign}, items


def _cmd_oracle(args):
    module, _, cfg = _load(args)
    chain = un_chain(module, args.max_n)
    items = []
    for n in range(1, min(args.max_n, len(chain.bases) - 1) + 1):
        valid = chain.valid_horizons[n]
        if valid < 0:
            items.append(check_item(f"U^{n}", "inconclusive", "window empty"))
            continue
        witness = _oracle_mismatch(module, chain, n)
        if witness is None:
            items.append(check_item(f"U^{n}", "pass",
                                    f"chain equals annihilator oracle to degree {valid}"))
        else:
            items.append(check_item(f"U^{n}", "violation",
                                    f"mismatch at degree {witness}"))
    return {**cfg, "max_n": args.max_n}, items


def _oracle_mismatch(module, chain, n):
    """First degree up to chain.valid_horizons[n] where U^n differs from the
    annihilator oracle, else None."""
    oracle = annihilator_oracle(module, n)
    return next((t for t in range(chain.valid_horizons[n] + 1)
                 if chain.bases[n][t] != oracle.bases[t]), None)


def _cmd_fuzz(args):
    if not args.cat or not args.field or args.horizon is None:
        raise ValueError("fuzz needs --cat, --field and --horizon")
    cat = make_category(args.cat, args.group)
    field = parse_field(args.field)
    horizon = args.horizon
    items = []
    for seed in range(args.seed, args.seed + args.count):
        status, detail = _fuzz_one(cat, field, horizon, seed)
        items.append(check_item(f"seed-{seed}", status, detail, seed=seed))
    return _config(cat, field, horizon, seed=args.seed, count=args.count), items


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
