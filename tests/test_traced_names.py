"""Every entry point the layer-tracing shim wraps still exists under its name.

perfbench/spans.py looks each one up with ``vars(owner)[attr]``; a deleted
or renamed function would break only ``perfbench/run.py --trace 1``.  Its
SPECIAL wrappers also call their targets with fixed positional arguments,
so those signatures are pinned too.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_SHIM = _spans()
TRACED = ([(mod, owner, attr) for _, mod, owner, attr in _SHIM.FUNCTIONS]
          + [tuple(entry) for entry in _SHIM.SPECIAL])


@pytest.mark.parametrize("mod, owner, attr", TRACED,
                         ids=[".".join(filter(None, entry)) for entry in TRACED])
def test_traced_name_is_present(mod, owner, attr):
    target = importlib.import_module(f"catrep.{mod}")
    if owner is not None:
        target = vars(target)[owner]
    assert attr in vars(target), f"{attr} is traced but missing from {target!r}"


# the SPECIAL wrappers are wrapper(a, b), wrapper(m) and wrapper(V, t, rows)
PINNED = [
    ("matrices", "Mat", "__matmul__", ["self", "other"]),
    ("matrices", "Mat", "echelon", ["self"]),
    ("trunc", None, "end_closure", ["V", "t", "rows"]),
]


@pytest.mark.parametrize("mod, owner, attr, names", PINNED, ids=[entry[2] for entry in PINNED])
def test_special_wrapper_signature_is_pinned(mod, owner, attr, names):
    assert (mod, owner, attr) in TRACED
    target = importlib.import_module(f"catrep.{mod}")
    if owner is not None:
        target = vars(target)[owner]
    params = list(inspect.signature(vars(target)[attr]).parameters.values())
    assert [p.name for p in params] == names
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD and p.default is p.empty for p in params)
