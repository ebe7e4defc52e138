"""Layering rules, read off the source text of src/catrep.

Arithmetic that depends on the field lives in matrices.py, one kernel per
backend, so no other module branches on field.kind.  Factorisation of
morphisms lives in category.py: other modules reach skip maps through
step_generators and split, not through its private helpers, and only
category.py builds a Morphism: module constructions and Tor read hom sets
as index arrays, so neither trunc.py nor homology.py enumerates one.  The
free resolution route (resolve, minimal_generators, _cover) is the tests'
Tor oracle: nothing in the program calls it, and it calls itself only inside
homology.resolve.  The F_p elimination has one entry, matrices._rref_fp:
nothing else calls its pivot loop, so the unit-row gate before it cannot be
bypassed or dropped.  The one scan it routes on, _unit_row_scan, is called
only there and by Mat.row_basis and Mat.left_kernel for their read-offs,
and the Q elimination reaches neither the scan nor the loop.
homology.py ranks its Koszul differentials with the sparse rank and imports
no private name of matrices.py: the hand-off to a dense echelon stays there.
Basis maps are routed in matrices.py alone: no other module reads a
matrix's column array or builds one unchecked, except the free-cover walk
homology._cover of the tests' Tor oracle, which reads the free generators'
columns to place its rows.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "catrep"

FIELD_KIND = re.compile(r"\bfield\.kind\b")
# corpus.py picks sampling profiles and coefficient pools by field kind; it
# does no arithmetic
FIELD_KIND_ALLOWED = {"matrices.py", "corpus.py"}

PRIVATE_FACTORING = re.compile(r"\._(skip_map|factor_once)\(")
PRIVATE_FACTORING_OWNER = "category.py"

MORPHISM_BUILD = re.compile(r"\bMorphism\(")
MORPHISM_OWNER = "category.py"
HOM_SET = re.compile(r"\.hom\(")
INDEX_ARRAYS_ONLY = {"trunc.py", "homology.py"}

# a call, not a definition; resolve_coefficients( does not match
ORACLE_ROUTE = re.compile(r"(?<!def )\b(resolve|minimal_generators|_cover)\(")

BASIS_MAP_PARTS = re.compile(r"\b(unit_cols|_basis_map)\b")

FP_KERNEL_PARTS = ("_pivot_loop",)
DENSE_KERNELS = ("_rref_fp", "_echelon_q", "_pivot_loop", "_gauss_jordan")
FP_KERNEL = re.compile(r"(?<!def )\b(%s)\(" % "|".join(FP_KERNEL_PARTS))
UNIT_ROW_SCAN = re.compile(r"(?<!def )\b_unit_row_scan\(")
UNIT_ROW_SCAN_CALLERS = ("_rref_fp", "Mat.row_basis", "Mat.left_kernel")


def _offences(pattern, allowed):
    """'file:line: text' of every match of pattern outside the allowed files
    and (file, line) places."""
    return [f"{path.name}:{k}: {line.strip()}"
            for path in sorted(SRC.glob("*.py")) if path.name not in allowed
            for k, line in enumerate(path.read_text().splitlines(), 1)
            if pattern.search(line) and (path.name, k) not in allowed]


def _lines_of(name, function):
    """The (file, line) places of a function of src/catrep/name: a top-level
    one, or a method named Class.method."""
    body = ast.parse((SRC / name).read_text()).body
    for part in function.split("."):
        node = next(n for n in body if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == part)
        body = node.body
    return {(name, k) for k in range(node.lineno, node.end_lineno + 1)}


def test_patterns_match_where_they_are_allowed():
    # a pattern that matches nothing anywhere would pass every file
    assert FIELD_KIND.search((SRC / "matrices.py").read_text())
    assert PRIVATE_FACTORING.search((SRC / PRIVATE_FACTORING_OWNER).read_text())
    assert MORPHISM_BUILD.search((SRC / MORPHISM_OWNER).read_text())
    assert not MORPHISM_BUILD.search("isinstance(m, Morphism)")
    assert HOM_SET.search((SRC / "shift.py").read_text())
    assert not HOM_SET.search("cat.hom_count(s, t) + cat.hom_arrays(s, t)")
    assert ORACLE_ROUTE.search((SRC / "homology.py").read_text())
    assert not ORACLE_ROUTE.search("resolve_coefficients(pres, field)")
    assert set(FP_KERNEL.findall((SRC / "matrices.py").read_text())) == set(FP_KERNEL_PARTS)
    lines = (SRC / "matrices.py").read_text().splitlines()
    for caller in UNIT_ROW_SCAN_CALLERS:
        assert any(UNIT_ROW_SCAN.search(lines[k - 1]) for _, k in _lines_of("matrices.py", caller))
    assert set(BASIS_MAP_PARTS.findall((SRC / "matrices.py").read_text())) == {"unit_cols", "_basis_map"}


def test_field_kind_only_in_matrices():
    assert _offences(FIELD_KIND, FIELD_KIND_ALLOWED) == []


def test_private_factoring_only_in_category():
    assert _offences(PRIVATE_FACTORING, {PRIVATE_FACTORING_OWNER}) == []


def test_morphisms_built_only_in_category():
    assert _offences(MORPHISM_BUILD, {MORPHISM_OWNER}) == []


def test_module_constructions_and_tor_enumerate_no_hom_set():
    others = {path.name for path in SRC.glob("*.py")} - INDEX_ARRAYS_ONLY
    assert _offences(HOM_SET, others) == []


def test_resolution_route_only_inside_resolve():
    assert _offences(ORACLE_ROUTE, _lines_of("homology.py", "resolve")) == []


def test_basis_map_parts_only_in_matrices():
    assert _offences(BASIS_MAP_PARTS, {"matrices.py", *_lines_of("homology.py", "_cover")}) == []


def test_fp_kernel_parts_only_inside_rref_fp():
    assert _offences(FP_KERNEL, _lines_of("matrices.py", "_rref_fp")) == []


def test_unit_row_scan_only_where_it_routes_or_reads_off():
    allowed = set().union(*(_lines_of("matrices.py", caller) for caller in UNIT_ROW_SCAN_CALLERS))
    assert _offences(UNIT_ROW_SCAN, allowed) == []


def test_homology_imports_no_private_matrices_name():
    text = (SRC / "homology.py").read_text()
    imported = {alias.name for node in ast.walk(ast.parse(text))
                if isinstance(node, ast.ImportFrom) and node.module == "matrices" for alias in node.names}
    assert "sparse_rank" in imported  # the walk sees the import itself
    assert [name for name in imported if name.startswith("_")] == []
    assert re.findall(r"\b(%s)\b" % "|".join(DENSE_KERNELS), text) == []
    defined = {node.name for node in ast.parse((SRC / "matrices.py").read_text()).body
               if isinstance(node, ast.FunctionDef)}
    assert set(DENSE_KERNELS) <= defined


def _reachable(name, function):
    """Top-level functions of src/catrep/name that function calls, directly
    or through others of them, by plain name."""
    tree = ast.parse((SRC / name).read_text())
    calls = {n.name: {c.func.id for c in ast.walk(n)
                      if isinstance(c, ast.Call) and isinstance(c.func, ast.Name)}
             for n in tree.body if isinstance(n, ast.FunctionDef)}
    seen, todo = set(), [function]
    while todo:
        for callee in calls.get(todo.pop(), ()):
            if callee in calls and callee not in seen:
                seen.add(callee)
                todo.append(callee)
    return seen


def test_q_elimination_reaches_no_fp_kernel_part():
    q_path = _reachable("matrices.py", "_echelon_q")
    assert "_gauss_jordan" in q_path  # the walk sees the Q kernel itself
    assert q_path.isdisjoint({"_rref_fp", "_unit_row_scan", *FP_KERNEL_PARTS})
    assert {"_unit_row_scan", *FP_KERNEL_PARTS} <= _reachable("matrices.py", "_rref_fp")
