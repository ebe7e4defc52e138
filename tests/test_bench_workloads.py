"""The frozen benchmark's calls still work: perfbench/workloads.py at seed 1.

Each workload is built as perfbench/run.py builds it, with its files under
tmp_path, and its first items must reproduce the golden digests in
perfbench/golden.json.  One more item runs under the layer-tracing shim of
perfbench/spans.py and must give the same output.  verify no longer
resolves, so on the verify workloads the shim is also installed around a
direct resolve call: its resolve wrapper reads every step's free.dims and
gen_degrees.  A broken frozen call would otherwise show up only as a failed
benchmark run.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from catrep import homology

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
FIRST_ITEMS = 5


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS, SPANS = _load("workloads"), _load("spans")
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))


def _matches_golden(wl, i):
    data, problem = wl.check(wl.run(wl.prepare(i)))
    assert problem is None, (wl.items[i], problem)
    return hashlib.sha256(data).hexdigest() == GOLDEN[wl.name][wl.items[i]]


@pytest.mark.parametrize("name", WORKLOADS.NAMES)
def test_first_items_match_the_golden_digests(name, tmp_path):
    wl = WORKLOADS.make(name, 1)
    wl.setup(str(tmp_path))
    for i in range(FIRST_ITEMS):
        assert _matches_golden(wl, i), wl.items[i]
    tracer = SPANS.Tracer()
    uninstall = SPANS.install(tracer)
    try:
        assert _matches_golden(wl, FIRST_ITEMS), wl.items[FIRST_ITEMS]
        if name in WORKLOADS.VERIFY:
            homology.resolve(wl.prepare(FIRST_ITEMS + 1), 1)
    finally:
        uninstall()
    assert tracer.stack == []
    if name in WORKLOADS.VERIFY:
        assert tracer.agg["homology.resolve.free_rank"] > 0
        assert tracer.agg["homology.resolve.gens"] > 0
