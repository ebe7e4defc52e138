"""Self-tests of the benchmark harness: python3 -m pytest -q perfbench"""

import json
import math
import os
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import run  # noqa: E402
import spans  # noqa: E402


@pytest.mark.parametrize("n, p", [(20, 50), (39, 50), (40, 75), (99, 75), (100, 90),
                                  (200, 95), (1000, 99), (10000, 99.9)])
def test_tail_percentile_keeps_ten_beyond(n, p):
    values = [float(v) for v in range(n, 0, -1)]
    got_p, value = run.tail_percentile(values)
    assert got_p == p
    assert sum(v > value for v in values) >= run.TAIL_BEYOND
    # the next rung up would leave fewer than ten beyond
    higher = [q for q in run.TAIL_LADDER if q > p]
    if higher:
        assert n - math.ceil(higher[0] * n / 100) < run.TAIL_BEYOND


def test_tail_percentile_needs_twenty_values():
    with pytest.raises(ValueError):
        run.tail_percentile([1.0] * 19)


class _Stub:
    """A workload whose outputs are fixed byte strings."""

    def __init__(self, outputs):
        self.outputs = outputs
        self.items = [f"item{i}" for i in range(len(outputs))]

    def prepare(self, i):
        return i

    def run(self, i):
        return self.outputs[i]

    def check(self, data):
        return data, None


def _gate(outputs, golden):
    wl = _Stub(outputs)
    return run.summarize(wl, run.run_passes(wl, 0, run.Calibrator()), golden)


def test_digest_gate_flags_one_changed_byte():
    outputs = [bytes([i]) * 64 for i in range(25)]
    golden = _gate(outputs, None)["digests"]
    assert _gate(outputs, golden)["failed"] == 0
    changed = list(outputs)
    changed[7] = changed[7][:30] + b"\xff" + changed[7][31:]
    res = _gate(changed, golden)
    assert res["failed"] == 1 and res["golden"] == "mismatch"
    assert res["problems"] == ["item7: digest mismatch"]
    assert res["output_digest"] != _gate(outputs, golden)["output_digest"]


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_calibration_scales_by_the_kernel_times_around_an_interval():
    cal = run.Calibrator()
    cal.last = 2 * run.REF_NOMINAL_S
    cal.sample = lambda: 4 * run.REF_NOMINAL_S  # a host at a third of reference speed
    assert cal.adjust(6.0) == 2.0
    assert cal.last == 4 * run.REF_NOMINAL_S


def test_self_time_on_nested_spans():
    clock = _Clock()
    tr = spans.Tracer(clock)
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds a matmul [6, 7]
    a = tr.push("a")
    clock.now = 1
    b = tr.push("b")
    clock.now = 4
    tr.pop(b)
    clock.now = 5
    c = tr.push("trunc.end_closure")
    clock.now = 6

    def product(x, y):
        clock.now = 7

    mat = SimpleNamespace(field=SimpleNamespace(kind="fp"), nrows=2, ncols=3)
    tr.matmul(product)(mat, SimpleNamespace(ncols=4))
    clock.now = 9
    tr.pop(c)
    clock.now = 10
    tr.pop(a)
    assert tr.agg["a.self_s"] == 10 - 3 - 4
    assert tr.agg["b.self_s"] == 3
    assert tr.agg["trunc.end_closure.self_s"] == 4 - 1
    assert tr.agg["matrices.matmul.fp.self_s"] == 1
    assert tr.agg["matrices.matmul.fp.self_s.from.trunc.end_closure"] == 1
    assert tr.agg["matrices.matmul.fp.mac"] == 2 * 3 * 4
    assert c.pushed == 2
    assert tr.stack == []


def test_shim_rebinds_every_namespace_and_undoes():
    import catrep.cli
    import catrep.homology
    import catrep.shift
    import catrep.trunc
    from catrep import free_module, make_category, parse_field
    originals = (catrep.trunc.end_closure, catrep.shift.kernel_of_map, catrep.cli.derive)
    tr = spans.Tracer()
    uninstall = spans.install(tr)
    try:
        assert catrep.homology.end_closure is catrep.trunc.end_closure
        for wrapped, orig in zip((catrep.homology.end_closure, catrep.shift.kernel_of_map,
                                  catrep.cli.derive), originals):
            assert wrapped is not orig and wrapped.__wrapped__ is orig
        catrep.shift.derive(free_module(make_category("fi"), parse_field("fp:2"), 1, 3))
    finally:
        uninstall()
    assert (catrep.trunc.end_closure, catrep.shift.kernel_of_map, catrep.cli.derive) == originals
    assert tr.agg["shift.derive.calls"] == 1
    assert tr.agg["matrices.matmul.fp.calls"] > 0
    assert tr.agg["trunc.FreeModule.calls"] > 0
    assert tr.stack == []


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == spans.metric_units()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (k, run.E2E_UNITS[k]) for k in run.RESULT_E2E]
    from workloads import NAMES
    assert [w["name"] for w in spec["workloads"]] == list(NAMES)
