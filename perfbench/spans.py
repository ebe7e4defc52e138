"""Outside-in layer tracing: spans around the public functions of catrep.

The shim wraps each layer's entry points from outside the package: module
functions are rebound in every ``catrep`` namespace that holds them (the
package uses ``from .x import f`` freely), and methods are patched on their
class.  Spans are aggregated on the fly per metric name, so memory stays
flat however many calls a pass makes.  Self time is a span's duration minus
the durations of its direct child spans (one thread, so children never
overlap).
"""

from __future__ import annotations

import functools
import sys
import time

# parents that the matmul / echelon self time is split by; the nearest
# enclosing span from the set wins, anything else is "other"
MATMUL_PARENTS = ("trunc.end_closure", "matrices.express_rows",
                  "homology.resolve", "homology.tor_groups")
ECHELON_PARENTS = MATMUL_PARENTS + ("matrices.left_kernel", "trunc.submodule_from_rows")

# (span name, module, owner class or None, attribute)
FUNCTIONS = [
    ("trunc.m_span", "trunc", None, "m_span"),
    ("trunc.kernel_of_map", "trunc", None, "kernel_of_map"),
    ("trunc.quotient_by", "trunc", None, "quotient_by"),
    ("trunc.submodule_from_rows", "trunc", None, "submodule_from_rows"),
    ("trunc.module_closure_of_rows", "trunc", None, "module_closure_of_rows"),
    ("shift.shift_module", "shift", None, "shift_module"),
    ("shift.derive", "shift", None, "derive"),
    ("shift.un_chain", "shift", None, "un_chain"),
    ("shift.sin_reg", "shift", None, "sin_reg"),
    ("shift.annihilator_oracle", "shift", None, "annihilator_oracle"),
    ("shift.sd_commutation_probe", "shift", None, "sd_commutation_probe"),
    ("homology.verify_theorems", "homology", None, "verify_theorems"),
    ("homology.tor_groups", "homology", None, "tor_groups"),
    ("homology.minimal_generators", "homology", None, "minimal_generators"),
    ("homology.hilbert_fit", "homology", None, "hilbert_fit"),
    ("presentations.parse_presentation_text", "presentations", None, "parse_presentation_text"),
    ("presentations.from_presentation", "presentations", None, "from_presentation"),
    ("reports.emit", "reports", None, "emit"),
    ("cli.main", "cli", None, "main"),
    ("matrices.left_kernel", "matrices", "Mat", "left_kernel"),
    ("matrices.express_rows", "matrices", "Mat", "express_rows"),
    ("matrices.inverse", "matrices", "Mat", "inverse"),
    ("matrices.complement_rows", "matrices", "Mat", "complement_rows"),
    ("trunc.FreeModule", "trunc", "FreeModule", "__init__"),
    ("category.hom", "category", "CategoryDescriptor", "hom"),
    ("category.compose", "category", "CategoryDescriptor", "compose"),
]
# wrapped with their own bookkeeping below
SPECIAL = [
    ("matrices", "Mat", "__matmul__"),
    ("matrices", "Mat", "echelon"),
    ("trunc", None, "end_closure"),
    ("homology", None, "resolve"),
]


class _Frame:
    __slots__ = ("name", "start", "child", "mm_parent", "ech_parent", "pushed", "rank0")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.child = 0.0
        if parent is None:
            self.mm_parent = self.ech_parent = "other"
        else:
            self.mm_parent = name if name in MATMUL_PARENTS else parent.mm_parent
            self.ech_parent = name if name in ECHELON_PARENTS else parent.ech_parent
        self.pushed = 0
        self.rank0 = None


class Tracer:
    """Span stack plus per-name aggregates (``calls``, ``self_s`` and counts)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []
        self.agg = {}
        self.largest_matmul = (0, None)  # (m*k*n, (m, k, n))

    def add(self, key, value):
        self.agg[key] = self.agg.get(key, 0) + value

    def peak(self, key, value):
        if value > self.agg.get(key, 0):
            self.agg[key] = value

    def push(self, name):
        frame = _Frame(name, self.clock(), self.stack[-1] if self.stack else None)
        self.stack.append(frame)
        return frame

    def pop(self, frame):
        """Close the top span, charge its self time and return it."""
        end = self.clock()
        top = self.stack.pop()
        assert top is frame, "span stack out of order"
        duration = end - frame.start
        if self.stack:
            self.stack[-1].child += duration
        self_s = duration - frame.child
        self.add(frame.name + ".calls", 1)
        self.add(frame.name + ".self_s", self_s)
        return self_s

    def parent(self):
        return self.stack[-2] if len(self.stack) > 1 else None

    def span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self.push(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.pop(frame)
        return wrapper

    # -- spans with layer-specific counts ------------------------------

    def matmul(self, fn):
        @functools.wraps(fn)
        def wrapper(a, b):
            name = "matrices.matmul." + a.field.kind
            frame = self.push(name)
            try:
                return fn(a, b)
            finally:
                parent = self.parent()
                from_key = f"{name}.self_s.from.{parent.mm_parent if parent else 'other'}"
                self.add(from_key, self.pop(frame))
                mac = a.nrows * a.ncols * b.ncols
                self.add(name + ".mac", mac)
                self.peak(name + ".max_dim", max(a.nrows, a.ncols, b.ncols))
                if mac > self.largest_matmul[0]:
                    self.largest_matmul = (mac, (a.nrows, a.ncols, b.ncols))
                if parent is not None and parent.name == "trunc.end_closure":
                    parent.pushed += a.nrows
        return wrapper

    def echelon(self, fn):
        @functools.wraps(fn)
        def wrapper(m):
            name = "matrices.echelon." + m.field.kind
            frame = self.push(name)
            result = None
            try:
                result = fn(m)
                return result
            finally:
                parent = self.parent()
                from_key = f"{name}.self_s.from.{parent.ech_parent if parent else 'other'}"
                self.add(from_key, self.pop(frame))
                self.add(name + ".cells", m.nrows * m.ncols)
                if (parent is not None and parent.name == "trunc.end_closure"
                        and parent.rank0 is None and result is not None):
                    parent.rank0 = len(result[1])
        return wrapper

    def end_closure(self, fn):
        @functools.wraps(fn)
        def wrapper(V, t, rows):
            frame = self.push("trunc.end_closure")
            out = None
            try:
                out = fn(V, t, rows)
                return out
            finally:
                self.pop(frame)
                self.add("trunc.end_closure.rows_pushed", frame.pushed)
                if out is not None and frame.rank0 is not None:
                    self.add("trunc.end_closure.rows_gained", out.nrows - frame.rank0)
        return wrapper

    def resolve(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self.push("homology.resolve")
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                self.pop(frame)
                if out is not None:
                    self.add("homology.resolve.free_rank",
                             sum(sum(step.free.dims) for step in out.steps))
                    self.add("homology.resolve.gens",
                             sum(len(step.gen_degrees) for step in out.steps))
        return wrapper


def _catrep_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "catrep" or name.startswith("catrep."))]


def install(tracer: Tracer):
    """Wrap every traced entry point; returns a function that undoes it.

    Module functions are rebound wherever a ``catrep`` module holds them;
    afterwards no catrep namespace may still hold an unwrapped original.
    """
    import catrep.cli  # noqa: F401  (loads every catrep module)

    mods = {m.__name__.split(".")[-1]: m for m in _catrep_modules()}
    special = {"__matmul__": tracer.matmul, "echelon": tracer.echelon,
               "end_closure": tracer.end_closure, "resolve": tracer.resolve}
    plan = [(mod, owner, attr, functools.partial(tracer.span, name))
            for name, mod, owner, attr in FUNCTIONS]
    plan += [(mod, owner, attr, special[attr]) for mod, owner, attr in SPECIAL]

    undo = []
    originals = set()
    for mod, owner, attr, make_wrapper in plan:
        target = getattr(mods[mod], owner) if owner else mods[mod]
        orig = vars(target)[attr]
        originals.add(id(orig))
        wrapper = make_wrapper(orig)
        if owner is not None:
            undo.append((target, attr, orig))
            setattr(target, attr, wrapper)
            continue
        for m in _catrep_modules():
            for key, value in list(vars(m).items()):
                if value is orig:
                    undo.append((m, key, orig))
                    setattr(m, key, wrapper)

    def uninstall():
        for target, key, orig in reversed(undo):
            setattr(target, key, orig)

    leftover = _unwrapped_references(originals)
    if leftover:
        uninstall()
        raise RuntimeError(f"tracing shim incomplete, originals still bound at: {leftover}")
    return uninstall


def _unwrapped_references(original_ids):
    """Places in catrep namespaces and classes still holding an original."""
    found = []
    for m in _catrep_modules():
        for key, value in vars(m).items():
            if id(value) in original_ids:
                found.append(f"{m.__name__}.{key}")
            if isinstance(value, type) and value.__module__ == m.__name__:
                for ckey, cval in vars(value).items():
                    if id(cval) in original_ids:
                        found.append(f"{m.__name__}.{key}.{ckey}")
    return found


def metric_units():
    """Every per-layer metric the traced run reports, with its unit."""
    out = []
    for backend in ("fp", "q"):
        mm = f"matrices.matmul.{backend}"
        out += [(mm + ".calls", "count"), (mm + ".self_s", "s"),
                (mm + ".mac", "computed-mac"), (mm + ".max_dim", "dim")]
        out += [(f"{mm}.self_s.from.{p}", "s") for p in MATMUL_PARENTS + ("other",)]
        ech = f"matrices.echelon.{backend}"
        out += [(ech + ".calls", "count"), (ech + ".self_s", "s"), (ech + ".cells", "computed-cells")]
        out += [(f"{ech}.self_s.from.{p}", "s") for p in ECHELON_PARENTS + ("other",)]
    for name in ([n for n, *_ in FUNCTIONS] + ["trunc.end_closure", "homology.resolve"]):
        out += [(name + ".calls", "count"), (name + ".self_s", "s")]
    out += [("trunc.end_closure.rows_pushed", "rows"), ("trunc.end_closure.rows_gained", "rows"),
            ("trunc.end_closure.useful_ratio", "ratio"),
            ("homology.resolve.free_rank", "count"), ("homology.resolve.gens", "count"),
            ("trace_overhead", "ratio")]
    return out


def layer_metrics(agg, passes):
    """Aggregates of ``passes`` identical passes, as per-pass figures."""
    out = {}
    for name, unit in metric_units():
        value = agg.get(name, 0)
        if not name.endswith(".max_dim"):
            value /= passes
        out[name] = {"value": value, "unit": unit}
    pushed = agg.get("trunc.end_closure.rows_pushed", 0)
    gained = agg.get("trunc.end_closure.rows_gained", 0)
    out["trunc.end_closure.useful_ratio"]["value"] = gained / pushed if pushed else 0.0
    return out
