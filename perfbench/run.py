#!/usr/bin/env python3
"""catrep benchmark: end-to-end timing with an output-digest gate, plus a
separately traced run for per-layer numbers.

    python3 perfbench/run.py --workload verify-fi-fp --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one fresh process each
    python3 -m pytest -q perfbench                   # the harness self-tests

Run from the repository root; the program is imported from ``src/``.  The
last line of standard output is one JSON object: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``.  Lines before it give the
same figures as a table, plus run metadata and the output digest.  Exit code
0 means every output matched; 1 means a mismatch, a violation or an item
that raised; 2 means the program could not be found.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(HERE, "golden.json")
DEFAULT_SEED = 1  # the acceptance corpus; golden digests exist for it
SETUP_REPEATS = 3
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
TAIL_BEYOND = 10
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# fail_ratio is printed with the others but stays out of the result line: on
# a healthy run it is 0, and "failed"/"attempted" carry it there
E2E_UNITS = {"wall_s": "s", "item_ms.p50": "ms", "item_ms.tail": "ms",
             "peak_rss_mb": "MB", "setup_s": "s", "fail_ratio": "ratio"}
RESULT_E2E = ("wall_s", "item_ms.p50", "item_ms.tail", "peak_rss_mb", "setup_s")
CHILD_TIMEOUT_S = 170
# seconds the calibration kernel takes at the reference speed; see Calibrator
REF_NOMINAL_S = 0.003


def tail_percentile(values):
    """(p, value): the highest ladder percentile with >= 10 values above it.

    The value is the nearest-rank percentile, so exactly
    ``n - ceil(p * n / 100)`` values lie beyond it.
    """
    n = len(values)
    ranked = sorted(values)
    best = None
    for p in TAIL_LADDER:
        rank = math.ceil(p * n / 100)
        if n - rank >= TAIL_BEYOND:
            best = (p, ranked[rank - 1])
    if best is None:
        raise ValueError(f"{n} values leave fewer than {TAIL_BEYOND} beyond the median")
    return best


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def compare_digests(got, want):
    """Item names whose digest differs from ``want`` (missing ones included)."""
    return sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))


def output_digest(digests):
    return sha256("".join(f"{k} {v}\n" for k, v in digests.items()).encode())


class Calibrator:
    """Host-speed adjustment from a fixed kernel timed beside the work.

    The CPU of a shared host drifts in speed by tens of percent over seconds,
    and a 30 s run cannot average that out.  So every measured interval is
    bracketed by two runs of a small fixed kernel (a Python loop and a 120^3
    int64 matmul, the same mix as catrep's work) and scaled by
    ``REF_NOMINAL_S / mean(kernel times)``: adjusted times read as seconds at
    a fixed reference speed.  A change to catrep moves them as it moves raw
    time; raw times are reported beside them.
    """

    def __init__(self):
        import numpy
        self.a = numpy.random.RandomState(0).randint(0, 101, (120, 120)).astype(numpy.int64)
        self.samples = []
        self.last = self.sample()

    def sample(self):
        t0 = time.perf_counter()
        acc = 0
        for i in range(20000):
            acc += i * i % 7
        (self.a @ self.a) % 101
        self.samples.append(time.perf_counter() - t0)
        return self.samples[-1]

    def adjust(self, raw_s):
        """Scale an interval that ended just now by the kernel times around it."""
        before, self.last = self.last, self.sample()
        return raw_s * REF_NOMINAL_S * 2 / (before + self.last)


def run_passes(wl, seconds, cal):
    """Closed loop over the slice: whole passes while another one fits.

    Each pass records adjusted (``times``) and raw (``raw``) item times.
    """
    passes = []
    start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        times, raw, digests, problems = [], [], [], []
        for i, item in enumerate(wl.items):
            arg = wl.prepare(i)
            gc.collect()  # each item pays for its own garbage, not its predecessor's
            t0 = time.perf_counter()
            try:
                result = wl.run(arg)
            except Exception as exc:  # an item that raises is a failed item
                raw.append(time.perf_counter() - t0)
                times.append(cal.adjust(raw[-1]))
                digests.append("raised")
                problems.append((item, f"raised {exc!r}"))
                continue
            raw.append(time.perf_counter() - t0)
            times.append(cal.adjust(raw[-1]))
            data, problem = wl.check(result)
            digests.append(sha256(data))
            if problem:
                problems.append((item, problem))
        passes.append({"times": times, "raw": raw, "digests": digests, "problems": problems})
        now = time.perf_counter()
        if now - start + (now - t_pass) > seconds:
            return passes


def summarize(wl, passes, golden):
    """End-to-end figures and the output gate over the timed passes.

    An item run fails when it raised, its check found a problem, or its
    digest differs from the first pass or from the golden one.
    """
    first = dict(zip(wl.items, passes[0]["digests"]))
    problems = []
    failed = 0
    if golden is not None and set(golden) != set(wl.items):
        problems.append(("slice", "items differ from the golden slice"))
    for p in passes:
        got = dict(zip(wl.items, p["digests"]))
        bad = set(compare_digests(got, first))
        if golden is not None:
            bad |= {k for k in wl.items if got[k] != golden.get(k)}
        problems += p["problems"] + [(k, "digest mismatch") for k in sorted(bad)]
        failed += len(bad | {item for item, _ in p["problems"]})
    out = {}
    for key, prefix in (("times", ""), ("raw", "raw.")):
        per_item = [statistics.median(p[key][i] for p in passes) * 1e3
                    for i in range(len(wl.items))]
        tail_p, out[prefix + "item_ms.tail"] = tail_percentile(per_item)
        out[prefix + "item_ms.p50"] = statistics.median(per_item)
        out[prefix + "wall_s"] = statistics.median(sum(p[key]) for p in passes)
    attempted = len(wl.items) * len(passes)
    return {
        **out,
        "passes": len(passes),
        "tail": {"percentile": tail_p, "n": len(wl.items), "of": "per-item medians over passes"},
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "problems": [f"{item}: {msg}" for item, msg in problems[:20]],
        "digests": first,
        "output_digest": output_digest(first),
        "golden": "none" if golden is None else ("match" if not failed else "mismatch"),
    }


def metadata():
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or "unknown"
    import numpy
    src_lines = 0
    pkg = os.path.join(SRC, "catrep")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                src_lines += sum(1 for _ in fh)
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "src_lines": src_lines,
    }


def import_time(cal):
    """Time to import catrep (and numpy) in a fresh interpreter, adjusted."""
    probe = (f"import sys, time; sys.path.insert(0, {SRC!r}); t = time.perf_counter(); "
             "import catrep.cli; print(time.perf_counter() - t)")
    cal.adjust(0.0)
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=60, check=True)
    return cal.adjust(float(proc.stdout))


def measure(args, traced, cal):
    """Select, set up and time one workload in this process."""
    import workloads
    t0 = time.perf_counter()
    wl = workloads.make(args.workload, args.seed)
    select_s = time.perf_counter() - t0
    golden = None
    if args.seed == DEFAULT_SEED and not args.record_golden and os.path.exists(GOLDEN):
        with open(GOLDEN, encoding="utf-8") as fh:
            golden = json.load(fh).get(args.workload)
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        setups, raw_setups, imports = [], [], []
        for _ in range(1 if traced else SETUP_REPEATS):
            if not traced:
                imports.append(import_time(cal))
            cal.adjust(0.0)
            t0 = time.perf_counter()
            wl.setup(workdir)
            raw_setups.append(time.perf_counter() - t0)
            setups.append(cal.adjust(raw_setups[-1]))
        tracer = uninstall = None
        if traced:
            import spans
            tracer = spans.Tracer()
            uninstall = spans.install(tracer)
        try:
            passes = run_passes(wl, args.seconds, cal)
        finally:
            if uninstall:
                uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    res = summarize(wl, passes, golden)
    res.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "setup_s": statistics.median(imports or [0]) + statistics.median(setups),
        "setup": {"import_s": imports, "runs_s": setups, "raw_runs_s": raw_setups,
                  "select_s": select_s},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "calibration_ms": statistics.median(cal.samples) * 1e3,
        "input": wl.input_size(),
    })
    if tracer is not None:
        res["layers"] = spans.layer_metrics(tracer.agg, res["passes"])
        res["input"]["largest_matmul"] = tracer.largest_matmul[1]
    return res


def traced_child(args):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--traced-pass"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"traced pass exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def print_table(res):
    print(f"catrep benchmark  workload={res['workload']} seed={res['seed']} "
          f"seconds={res['seconds']} passes={res['passes']}")
    print(f"  times at reference speed (calibration kernel {REF_NOMINAL_S * 1e3:g} ms; "
          f"measured median {res['calibration_ms']:.3f} ms); raw times in brackets")
    notes = {
        "wall_s": f"median over {res['passes']} pass(es) of the summed item times",
        "item_ms.tail": f"p{res['tail']['percentile']} of n={res['tail']['n']} per-item medians",
        "setup_s": f"median of {len(res['setup']['runs_s'])} imports + median of as many set-ups",
        "fail_ratio": f"{res['failed']} of {res['attempted']} items",
    }
    for name, unit in E2E_UNITS.items():
        raw = f"[{res['raw.' + name]:.4f}]" if "raw." + name in res else ""
        print(f"  {name:<14} {res[name]:>12.4f} {unit:<6} {raw:<12} {notes.get(name, '')}")
    print(f"  output_digest  {res['output_digest']}  golden={res['golden']}")
    if "trace_overhead" in res:
        print(f"  trace_overhead {res['trace_overhead']:.3f}x  traced digests "
              f"{'match' if res['trace_digests_match'] else 'DIFFER'}")
    for line in res["problems"]:
        print(f"  problem: {line}")


def run_one(args, cal):
    res = measure(args, False, cal)
    meta = metadata()
    if args.trace:
        child = traced_child(args)
        res["trace_overhead"] = child["wall_s"] / res["wall_s"]
        res["trace_digests_match"] = not compare_digests(child["digests"], res["digests"])
        if not res["trace_digests_match"]:
            res["failed"] += 1
            res["problems"].append("traced run produced different outputs")
        res["input"]["largest_matmul"] = child["input"]["largest_matmul"]
        res["layers"] = child["layers"]
        res["layers"]["trace_overhead"]["value"] = res["trace_overhead"]
    correct = res["failed"] == 0
    if args.record_golden and correct:
        _record_golden(args.workload, res["digests"])
    print_table(res)
    report = {k: v for k, v in res.items() if k not in ("digests", "layers")}
    print("REPORT " + json.dumps({"meta": meta, **report}, sort_keys=True))
    if args.trace:
        metrics = res["layers"]
    else:
        metrics = {k: {"value": res[k], "unit": E2E_UNITS[k]} for k in RESULT_E2E}
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


def _record_golden(workload, digests):
    data = {}
    if os.path.exists(GOLDEN):
        with open(GOLDEN, encoding="utf-8") as fh:
            data = json.load(fh)
    data[workload] = digests
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def run_all(args):
    from workloads import NAMES
    worst = 0
    summary = {}
    for name in NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 60)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        worst = max(worst, proc.returncode)
        summary[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
    print(json.dumps({"workloads": summary}))
    return worst


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="verify-fi-fp | verify-fi-q | cli-oi | all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--traced-pass", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--record-golden", action="store_true",
                    help=f"store this run's digests as the golden ones (seed {DEFAULT_SEED} only)")
    args = ap.parse_args(argv)
    if not os.path.exists(os.path.join(SRC, "catrep", "__init__.py")):
        print(f"error: no catrep sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.record_golden and args.seed != DEFAULT_SEED:
        ap.error(f"--record-golden needs --seed {DEFAULT_SEED}")
    sys.path.insert(0, SRC)
    from workloads import NAMES
    if args.workload == "all":
        return run_all(args)
    if args.workload not in NAMES:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(NAMES)} or all")
    if args.traced_pass:
        res = measure(args, True, Calibrator())
        print(json.dumps({k: res[k] for k in ("wall_s", "digests", "layers", "input")}))
        return 0
    return run_one(args, Calibrator())


if __name__ == "__main__":
    sys.exit(main())
