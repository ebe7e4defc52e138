"""The three workloads: input slices, set-up and one timed item each.

Every workload is a closed loop with one client: the next item starts when
the previous one returns.  Inputs come from ``corpus.sample_presentation``
starting at the seed; the benchmark hands the program only the generated
presentations (or files written from them).
"""

from __future__ import annotations

import contextlib
import io
import json
import operator
import os

from catrep import cli, homology, reports
from catrep.category import make_category
from catrep.corpus import FUZZ_PROFILE, profile_for, sample_presentation
from catrep.fields import parse_field
from catrep.presentations import emit_presentation_text, from_presentation
from catrep.trunc import truncate

# Verify slices are stratified by the module's Betti shape on the window the
# battery works in: (dims of Tor_0, dims of Tor_1) in degrees <= horizon - 1,
# trailing zeros dropped, None = any Tor_0.  The shape is an invariant of the
# module, so every correct implementation picks the same slice, and it fixes
# the size of the free covers the battery builds: the seed changes the
# instance, not the amount of work.  Quotas are filled in seed order.  They
# are sized so that the median item and the p75 item each fall inside one
# shape's cost band rather than on the edge between two.
VERIFY = {
    "verify-fi-fp": dict(kind="fi", field="fp:101", shapes=[
        (("0,0,2", "0,0,0,0,12"), 1),  # first syzygy generated in degree 4: ~10 s
        (("0,0,2", "0,0,0,6"), 15),  # ~0.9 s each; holds the p75 item
        (("0,1", "0,0,2"), 9),  # ~0.17 s, these two hold the median item
        (("1", "0,0,1"), 9),
        (("1", "0,1"), 2),
        ((None, ""), 12),  # Tor_1 = 0 on the window
    ]),
    "verify-fi-q": dict(kind="fi", field="q", shapes=[
        (("0,1", "0,0,0,3"), 2),  # the heavy Q shapes, ~3.7 s and ~2.5 s each
        (("2", "0,0,2"), 3),
        (("0,1", "0,0,2"), 15),  # ~0.4 s; holds the p75 item
        (("1", "0,1"), 20),  # ~0.1 s; holds the median item
        ((None, ""), 20),
    ]),
}
VERIFY_HORIZON = 6
VERIFY_DEPTH = 3
MAX_SCAN = 2000

# CLI files are stratified by their generator degrees, which fix the free
# cover that every command parses and builds first; each field gets the same
# 40-file mix, heaviest shapes last
CLI_FIELDS = ("fp:2", "fp:101")
CLI_SHAPES = [((0,), 6), ((1,), 6), ((2,), 6), ((3,), 6), ((0, 1), 2), ((0, 3), 4),
              ((1, 3), 3), ((2, 3), 3), ((1, 2, 3), 2), ((3, 3), 2)]
CLI_HORIZON = 9
# homology is left out on purpose: at OI horizon 9 it builds matrices wider
# than 512, which would hide the small-matrix overhead this workload tracks
CLI_COMMANDS = (("decompose",), ("oracle", "--max-n", "3"), ("hilbert",), ("shift",), ("probe-sd",))

NAMES = ("verify-fi-fp", "verify-fi-q", "cli-oi")


def stratified(seed, quotas, key_of, matches):
    """Seeds from ``seed`` on, in order, until every (spec, count) quota is full."""
    left = [n for _, n in quotas]
    chosen = []
    for s in range(seed, seed + MAX_SCAN):
        key = key_of(s)
        k = next((k for k, (spec, _) in enumerate(quotas) if left[k] and matches(spec, key)), None)
        if k is not None:
            left[k] -= 1
            chosen.append(s)
            if not any(left):
                return chosen
    raise RuntimeError(f"shape quotas unfilled after {MAX_SCAN} seeds from {seed}")


def _trim(dims) -> str:
    dims = list(dims)
    while dims and not dims[-1]:
        dims.pop()
    return ",".join(map(str, dims))


class VerifyWorkload:
    """``verify_theorems(V, 3)`` on FI corpus modules at horizon 6."""

    def __init__(self, name, seed):
        spec = VERIFY[name]
        self.name = name
        self.cat = make_category(spec["kind"])
        self.field = parse_field(spec["field"])
        self.seeds = stratified(seed, spec["shapes"], self.shape,
                                lambda want, got: want[1] == got[1] and want[0] in (None, got[0]))
        self.items = [f"{spec['field']}-s{s}" for s in self.seeds]
        self.fresh = []
        self.largest_dim = 0

    def _present(self, seed):
        return sample_presentation(self.cat, self.field, seed, profile_for(self.field))

    def _build(self, seed):
        return from_presentation(self.cat, self.field, self._present(seed), VERIFY_HORIZON)[0]

    def shape(self, seed):
        V = self._build(seed)
        rep = homology.tor_groups(truncate(V, VERIFY_HORIZON - 1), 1)
        return _trim(rep.dims[0]), _trim(rep.dims[1])

    def setup(self, workdir):
        self.fresh = [self._build(s) for s in self.seeds]
        self.largest_dim = max(max(V.dims) for V in self.fresh)

    def input_size(self):
        return {"items": len(self.items), "largest_module_dim": self.largest_dim}

    def prepare(self, i):
        # every run gets a module no earlier run touched (modules cache action
        # matrices): the one set-up built, then rebuilt ones on later passes;
        # the category and its hom-set caches are shared, as in one lane
        V, self.fresh[i] = self.fresh[i], None
        return V if V is not None else self._build(self.seeds[i])

    def run(self, V):
        return homology.verify_theorems(V, VERIFY_DEPTH, halt_on_violation=False,
                                        check_hypothesis=False)

    def check(self, report):
        """(output bytes, problem or None) for one verify report."""
        items = [reports.check_item(it.name, it.status, it.detail, data=it.data)
                 for it in report.items]
        data = reports.to_json(reports.make_report("verify", {}, items)).encode()
        bad = [it.name for it in report.items if it.status == "violation"]
        return data, (f"violation: {bad}" if bad else None)


class CliWorkload:
    """In-process ``cli.main`` on OI presentation files written in set-up."""

    def __init__(self, name, seed):
        self.name = name
        self.cat = make_category("oi")
        self.files = []
        for spec in CLI_FIELDS:
            field = parse_field(spec)
            gens = lambda s: tuple(sorted(d for _, d in self._present(field, s).generators))
            self.files += [(spec, s, f"oi-{spec.replace(':', '')}-s{s}.pres")
                           for s in stratified(seed, CLI_SHAPES, gens, operator.eq)]
        self.argvs, self.items = [], []
        for _, _, fname in self.files:
            for cmd in CLI_COMMANDS:
                self.argvs.append(["--format", "json", cmd[0], fname, *cmd[1:]])
                self.items.append(f"{fname[:-len('.pres')]}:{cmd[0]}")
        self.workdir = None
        self.largest_dim = 0

    def _present(self, field, seed):
        return sample_presentation(self.cat, field, seed, FUZZ_PROFILE)

    def setup(self, workdir):
        self.workdir = workdir
        for spec, s, fname in self.files:
            field = parse_field(spec)
            pres = self._present(field, s)
            with open(os.path.join(workdir, fname), "w", encoding="utf-8") as fh:
                fh.write(emit_presentation_text(self.cat, field, CLI_HORIZON, pres))

    def input_size(self):
        return {"items": len(self.items), "files": len(self.files),
                "largest_module_dim": self.largest_dim}

    def prepare(self, i):
        return self.argvs[i]

    def run(self, argv):
        out = io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.workdir)  # file names, not paths, go into the JSON config
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
        finally:
            os.chdir(cwd)
        return out.getvalue(), code

    def check(self, result):
        text, code = result
        data = text.encode() + f"\nexit={code}".encode()
        if code not in (0, 2):  # 2 = inconclusive within the horizon, a valid answer
            return data, f"exit code {code}"
        try:
            doc = json.loads(text)
        except ValueError:
            return data, "output is not JSON"
        if doc.get("version") != 1:
            return data, "unversioned output"
        if doc["command"] == "shift":
            self.largest_dim = max([self.largest_dim] + next(
                it["dims"] for it in doc["items"] if it["name"] == "V"))
        return data, None


def make(name, seed):
    if name == "cli-oi":
        return CliWorkload(name, seed)
    return VerifyWorkload(name, seed)
