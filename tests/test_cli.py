"""CLI behavior: subcommands, exit codes, formats, determinism."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from catrep import category, cli, matrices, shift
from catrep.category import make_category
from catrep.cli import main
from catrep.corpus import FUZZ_PROFILE, sample_presentation
from catrep.fields import QQ, parse_field
from catrep.homology import VerificationViolation
from catrep.matrices import Mat, NotInSpan
from catrep.presentations import emit_presentation_text
from catrep.reports import make_report, to_json
from catrep.shift import un_chain
from seams import non_functorial

TORSION = """catrep-presentation v1
category oi
group none
field fp:101
horizon 6
gen u deg 1
rel 2: 1*1->2:[2]@u
"""

M1 = """catrep-presentation v1
category oi
group none
field q
horizon 6
gen u deg 1
"""

TORSION0 = """catrep-presentation v1
category fi
group none
field q
horizon 5
gen v deg 0
rel 1: 1*0->1:[]@v
"""


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [("torsion", TORSION), ("M1", M1), ("torsion0", TORSION0)]:
        p = tmp_path / f"{name}.pres"
        p.write_text(text)
        paths[name] = str(p)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_info(files, capsys):
    code, out, _ = run(capsys, "info", files["torsion"])
    assert code == 0
    assert "dims=[0, 1, 1, 1, 1, 1, 1]" in out
    assert "valid to degree 6" in out


@pytest.mark.parametrize("group_line", ["", "group cyclic:3\n"], ids=["no-group", "cyclic-3"])
def test_group_flag_overrides_only_the_group_line(tmp_path, capsys, group_line):
    # M(1) over FI_G has dims n*m for the cyclic group of order m
    path = tmp_path / "fig.pres"
    path.write_text("catrep-presentation v1\ncategory fi_g\n" + group_line
                    + "field fp:101\nhorizon 3\ngen u deg 1\n")
    code, out, err = run(capsys, "--format", "json", "info", str(path))
    if group_line:
        assert code == 0 and json.loads(out)["items"][0]["dims"] == [0, 3, 6, 9]
    else:
        assert code == 1 and err == "error: fi_g requires a group spec\n"
    code, out, _ = run(capsys, "--format", "json", "--group", "cyclic:2", "info", str(path))
    assert code == 0 and json.loads(out)["items"][0]["dims"] == [0, 2, 4, 6]


def test_oversized_cyclic_group_exits_1_before_building(tmp_path, capsys, monkeypatch):
    # in a header or via --group; range is unusable in category, so a table
    # that was started would fail the test instead of filling memory
    monkeypatch.setattr(category, "range", None, raising=False)
    path = tmp_path / "big.pres"
    path.write_text("catrep-presentation v1\ncategory oi_g\ngroup cyclic:1000000\n"
                    "field fp:3\nhorizon 3\ngen u deg 1\n")
    too_large = "cyclic group order 1000000 too large: its table would have m^2 = 1000000000000 entries"
    code, out, err = run(capsys, "info", str(path))
    assert (code, out) == (1, "") and err == f"error: line 3, col 7: {too_large} (must be m <= 1024)\n"
    path.write_text(path.read_text().replace("group cyclic:1000000\n", ""))
    code, out, err = run(capsys, "--group", "cyclic:1000000", "info", str(path))
    assert (code, out) == (1, "") and too_large in err


def test_info_emit_normalized_round_trip(files, capsys, tmp_path):
    code, out, _ = run(capsys, "info", files["torsion"], "--emit-normalized")
    assert code == 0
    p = tmp_path / "normalized.pres"
    p.write_text(out)
    code2, out2, _ = run(capsys, "info", str(p), "--emit-normalized")
    assert code2 == 0 and out2 == out  # normalization is idempotent


def test_hilbert_m1(files, capsys):
    code, out, _ = run(capsys, "hilbert", files["M1"])
    assert code == 0
    assert "['0', '1']" in out and "onset" in out
    assert "degree-le-gd" in out


def test_probe_sd(files, capsys):
    code, out, _ = run(capsys, "probe-sd", files["torsion"])
    assert code == 0
    assert "SDV" in out and "dims=[1, 1, 1, 1, 1]" in out
    assert "DSV" in out and "dims=[0, 0, 0, 0, 0]" in out


def test_decompose_torsion0(files, capsys):
    code, out, _ = run(capsys, "decompose", files["torsion0"])
    assert code == 0
    assert "stabilized_at  1" in out
    assert "V_sin          dims=[1, 0, 0, 0, 0]" in out


def test_decompose_builds_the_chain_once(files, capsys, monkeypatch):
    # sin_reg splits the chain decompose already built instead of building it again
    calls = []

    def spy(V, max_steps, **kwargs):
        calls.append(max_steps)
        return un_chain(V, max_steps, **kwargs)

    monkeypatch.setattr(cli, "un_chain", spy)
    monkeypatch.setattr(shift, "un_chain", spy)
    code, out, _ = run(capsys, "decompose", files["torsion0"])
    assert code == 0 and "V_reg" in out
    assert calls == [5]


def test_decompose_inconclusive_exit_2(files, capsys):
    code, out, _ = run(capsys, "--horizon", "2", "decompose", files["torsion"])
    assert code == 2


def test_hilbert_inconclusive_exit_2(files, capsys):
    code, out, _ = run(capsys, "--horizon", "2", "hilbert", files["torsion"])
    assert code == 2
    assert "inconclusive" in out


def test_negative_horizon_rejected(files, capsys):
    code, _, err = run(capsys, "--horizon", "-1", "info", files["torsion"])
    assert code == 1
    assert err == "error: --horizon must be >= 0\n"


@pytest.mark.parametrize("command", ["homology", "verify"])
def test_negative_depth_rejected(files, capsys, command):
    code, _, err = run(capsys, command, files["torsion"], "--depth", "-1")
    assert code == 1
    assert err == "error: --depth must be >= 0\n"


BELOW_BOUND = [  # (command, flag, value, least value)
    ("oracle", "--max-n", "0", 1),
    ("decompose", "--max-steps", "0", 1),
    # below 0 the hypothesis reg(SM(s)) <= s + N would go unchecked
    ("verify", "--smax", "-2", 0),
    # and no module has reg(SM(0)) = 0 <= -3
    ("verify", "--bign", "-3", 0),
    ("fuzz", "--count", "-2", 1),
    ("fuzz", "--seed", "-1", 0),
]


@pytest.mark.parametrize("command, flag, value, least", BELOW_BOUND,
                         ids=[f"{command}-{flag}" for command, flag, _, _ in BELOW_BOUND])
def test_step_count_below_one_rejected(files, capsys, command, flag, value, least):
    # each numeric option's lower bound is checked before anything runs
    head = (["--cat", "oi", "--field", "fp:2", "--horizon", "3", "fuzz", "--seed", "1"]
            if command == "fuzz" else [command, files["torsion"]])
    code, out, err = run(capsys, *head, flag, value)
    assert (code, out) == (1, "")
    assert err == f"error: {flag} must be >= {least}\n"


def test_shift_and_homology(files, capsys):
    code, out, _ = run(capsys, "shift", files["torsion"])
    assert code == 0 and "key-sequence-exact" in out
    code, out, _ = run(capsys, "homology", files["torsion"], "--depth", "2")
    assert code == 0
    # the text form shows what the JSON holds: hd of each H_i and the note on reg
    assert "H_1  dims=[0, 0, 1, 0, 0, 0, 0]  hd=2  (valid to degree 6)" in out
    assert "reg  1  note=lower bound within depth 2  (valid to degree 6)" in out


def test_verify_exit_codes(files, capsys):
    code, out, _ = run(capsys, "verify", files["torsion"], "--depth", "2", "--smax", "1")
    assert code == 2  # finite-support check inconclusive at this horizon
    assert "SKIPPED" in out  # mu-injective bound skipped with reason


def test_oracle(files, capsys):
    code, out, _ = run(capsys, "oracle", files["torsion"])
    assert code == 0
    assert "[PASS]" in out


def test_oracle_takes_one_left_kernel_per_target_degree(files, capsys, monkeypatch):
    # counts the left kernels taken inside the oracle, not those of the chain
    targets, kernels, inside = [], [], []
    oracle, left_kernel = shift.annihilator_oracle, Mat.left_kernel

    def oracle_spy(V, n):
        targets.append(len({(s, alpha.dst) for s in range(V.horizon - n + 1)
                            for alpha in shift._oracle_morphisms(V.cat, s, n, V.horizon)}))
        inside.append(n)
        try:
            return oracle(V, n)
        finally:
            inside.pop()

    def kernel_spy(self):
        if inside:
            kernels.append(self.shape)
        return left_kernel(self)

    monkeypatch.setattr(cli, "annihilator_oracle", oracle_spy)
    monkeypatch.setattr(Mat, "left_kernel", kernel_spy)
    code, out, _ = run(capsys, "oracle", files["torsion"])
    assert code == 0 and "[PASS]" in out
    assert targets and 0 < len(kernels) <= sum(targets)


def test_oracle_and_fuzz_name_the_first_mismatching_degree(files, capsys, monkeypatch):
    # an oracle that is wrong from degree 2 up: a basis never holds a zero row
    oracle = shift.annihilator_oracle

    def wrong_from_2(V, n):
        out = oracle(V, n)
        return replace(out, bases=out.bases[:2] + [Mat.zeros(V.field, 1, V.dims[t])
                                                    for t in range(2, len(out.bases))])

    monkeypatch.setattr(cli, "annihilator_oracle", wrong_from_2)
    code, out, _ = run(capsys, "oracle", files["torsion"])
    lines = [line for line in out.splitlines() if line.startswith("U^")]
    assert code == 3 and lines and all(line.endswith("[VIOLATION]  mismatch at degree 2") for line in lines)
    code, out, _ = run(capsys, "--format", "json", "--cat", "oi", "--field", "fp:101",
                       "--horizon", "5", "fuzz", "--seed", "3", "--count", "1")
    item = json.loads(out)["items"][0]  # seed 3 stabilizes, so the oracle runs
    assert (item["status"], item["detail"], code) == (
        "violation", "oracle mismatch at n=1, degree 2 (seed 3)", 3)


def test_json_byte_stable(files, capsys):
    code, out1, _ = run(capsys, "--format", "json", "homology", files["torsion"])
    code2, out2, _ = run(capsys, "--format", "json", "homology", files["torsion"])
    assert code == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["version"] == 1
    assert all("valid_to" in item for item in doc["items"] if item["type"] == "dims")


def test_empty_report_shape():
    assert json.loads(to_json(make_report("", {}, []))) == {"version": 1, "items": []}


def test_parse_error_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.pres"
    bad.write_text("hello\n")
    code, _, err = run(capsys, "info", str(bad))
    assert code == 1
    assert "line 1" in err


@pytest.mark.parametrize("field, coeff, where", [
    ("q", "1/0", "line 7, col 8: zero denominator"),
    ("q", "x", "line 7, col 8: bad coefficient 'x'"),
    ("fp:7", "1/7", "'1/7' has a zero denominator in fp:7"),
])
def test_bad_coefficient_exit_1(tmp_path, capsys, field, coeff, where):
    p = tmp_path / "bad.pres"
    p.write_text(TORSION.replace("fp:101", field).replace("rel 2: 1*", f"rel 2: {coeff}*"))
    code, _, err = run(capsys, "info", str(p))
    assert code == 1
    assert err.startswith("error: ") and where in err


@pytest.mark.parametrize("edit, where", [
    (("rel 2: 1*1->2:[2]@u", "rel 2: 1*1->3:[2]@u"), "line 7, col 8: term 1->3:[2]"),
    (("rel 2: 1*1->2:[2]@u", "rel 2: 1*1->2:[3]@u"), "line 7, col 8: image out of range"),
    (("rel 2: 1*1->2:[2]@u", "rel 2: 1*1->2:[2]@u + 1*0->2:[]@u"), "line 7, col 23: morphism 0->2"),
    (("horizon 6", "horizon 1"), "line 7, col 5: relation degree 2 above horizon 1"),
    (("fp:101\nhorizon 6\ngen u deg 1\nrel 2: 1*", "fp:7\nhorizon 6\ngen u deg 1\nrel 2: 1/7*"),
     "line 7, col 8: coefficient '1/7' has a zero denominator in fp:7"),
    (("category oi\ngroup none", "category oi_g\ngroup cyclic:x"), "line 3, col 7: invalid literal"),
    (("category oi\ngroup none", "category oi_g\ngroup none"), "line 3, col 7: oi_g requires"),
    (("category oi", "category io"), "line 2, col 10: unknown category kind 'io'"),
    (("field fp:101", "field fp:100"), "line 4, col 7: field modulus must be prime"),
    (("horizon 6", "horizon -1"), "line 5, col 9: horizon must be >= 0"),
    (("gen u deg 1", "gen u deg -1"), "line 6, col 11: negative generator degree"),
])
def test_later_errors_carry_line_and_column(tmp_path, capsys, edit, where):
    p = tmp_path / "bad.pres"
    p.write_text(TORSION.replace(*edit))
    code, _, err = run(capsys, "info", str(p))
    assert code == 1
    assert err.startswith("error: ") and where in err


# characters the file format is made of, and a few that it is not
MUTATION_CHARS = "0123456789 :*@+-/>[](),#_\nabdfgilnoqux"


@st.composite
def mutated_file(draw):
    """Emitted FI/OI presentation text with one to three characters inserted,
    deleted or replaced."""
    cat = make_category(draw(st.sampled_from(["fi", "oi"])))
    field = draw(st.sampled_from([QQ, parse_field("fp:2"), parse_field("fp:101")]))
    pres = sample_presentation(cat, field, draw(st.integers(0, 10**6)), FUZZ_PROFILE)
    pres = replace(pres, relations=tuple(r for r in pres.relations if r.target <= 4))
    text = emit_presentation_text(cat, field, 4, pres)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        c = draw(st.sampled_from(MUTATION_CHARS))
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        text = text[:i] + (c if op != "delete" else "") + text[i + (op != "insert"):]
    return cat, field, text


@settings(max_examples=150, deadline=None)
@given(mutated_file())
def test_malformed_file_exits_1_at_a_line(tmp_path_factory, case):
    cat, field, text = case
    path = tmp_path_factory.mktemp("mutated") / "m.pres"
    path.write_text(text)
    err = io.StringIO()
    # flags supply the configuration (a horizon line mutated to 44 would
    # ask for FI at degree 44), so only the file text is judged
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["--cat", cat.kind, "--field", field.name, "--horizon", "4", "info", str(path)])
    if code != 0:
        assert code == 1 and re.match(r"error: line \d+, col \d+: ", err.getvalue()), err.getvalue()


def test_inexact_product_exits_1(monkeypatch, files, capsys):
    # with both exactness bounds at 1 every F_p product is refused; that is
    # a usage error (exit 1), never a violation.  info on this file takes no
    # dense product, so shift, which does, runs here
    monkeypatch.setattr(matrices, "_FLOAT_EXACT", 1)
    monkeypatch.setattr(matrices, "_INT64_EXACT", 1)
    code, _, err = run(capsys, "shift", files["torsion"])
    assert code == 1 and "is not exact in int64" in err


def test_malformed_rational_bit_limit_exits_1(monkeypatch, files, capsys):
    monkeypatch.setenv("CATREP_MAX_RATIONAL_BITS", "abc")
    code, _, err = run(capsys, "info", files["M1"])
    assert (code, err) == (1, "error: CATREP_MAX_RATIONAL_BITS must be an integer, got 'abc'\n")


@pytest.mark.parametrize("value, message", [
    ("abc", "must be an integer, got 'abc'"),
    ("0", "must be >= 1, got '0'"),
    ("-3", "must be >= 1, got '-3'"),
])
@pytest.mark.parametrize("name", ["torsion", "M1"])
def test_bad_rational_bit_limit_exits_1_before_any_command(monkeypatch, files, capsys, name, value, message):
    # checked up front, so an F_p file that never eliminates over Q is
    # refused too, and a limit below 1 never reaches an elimination
    monkeypatch.setenv("CATREP_MAX_RATIONAL_BITS", value)
    for command in (["info"], ["hilbert"], ["homology", "--depth", "1"]):
        code, out, err = run(capsys, *command, files[name])
        assert (code, out, err) == (1, "", f"error: CATREP_MAX_RATIONAL_BITS {message}\n")


def test_flag_overrides_field(files, capsys):
    code, out, _ = run(capsys, "--field", "fp:7", "info", files["M1"])
    assert code == 0 and "dims=[0, 1, 2, 3, 4, 5, 6]" in out


def test_fuzz_deterministic(capsys):
    args = ["--cat", "oi", "--field", "fp:101", "--horizon", "5", "fuzz", "--seed", "3", "--count", "4"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert out1 == out2
    assert code1 == code2
    assert code1 in (0, 2)
    assert "seed-3" in out1


@pytest.mark.parametrize("horizon", [4, 2, 0])
def test_fuzz_below_sampled_relation_degrees(capsys, horizon):
    # the fuzz profile samples relations up to degree 5; the ones above the
    # horizon are dropped, and modules zero below the horizon are skipped
    code, out, err = run(capsys, "--format", "json", "--cat", "fi", "--field", "fp:2",
                         "--horizon", str(horizon), "fuzz", "--seed", "1", "--count", "6")
    items = json.loads(out)["items"]
    assert [it["seed"] for it in items] == [1, 2, 3, 4, 5, 6]
    assert code == 2 and err == ""
    assert all(it["status"] in ("pass", "inconclusive", "skipped") for it in items)
    assert any(it["status"] == "skipped" for it in items) == (horizon < 3)


@pytest.mark.parametrize("gds, violation", [
    ((2, 0, 2), "gd(DV) = 0, gd(V) = 2 (seed 1)"),
    ((2, 1, 0), "gd(SV) = 0, gd(V) = 2 (seed 1)"),
    ((4, 0, 0), None),  # gd(V) reaches the window 4: censored, not checked
])
def test_fuzz_gd_checks_come_from_verify_table(monkeypatch, capsys, gds, violation):
    # _fuzz_one asks for gd(V), gd(DV), gd(SV) in this order
    answers = iter(gds)
    monkeypatch.setattr(cli, "generating_degree", lambda module: next(answers))
    code, out, _ = run(capsys, "--format", "json", "--cat", "oi", "--field", "fp:101",
                       "--horizon", "5", "fuzz", "--seed", "1", "--count", "1")
    item = json.loads(out)["items"][0]
    if violation is None:
        assert item["status"] != "violation" and "gd windows censored" in item["detail"]
        assert code != 3
    else:
        assert (item["status"], item["detail"], code) == ("violation", violation, 3)


def test_fuzz_requires_config(capsys):
    code, _, err = run(capsys, "fuzz", "--seed", "1")
    assert code == 1


def _raises(exc):
    def command(*args, **kwargs):
        raise exc
    return command


def test_process_exit_status(files):
    # the status of a real ``python -m catrep.cli`` process, not only main's return
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def status(*argv):
        return subprocess.run([sys.executable, "-m", "catrep.cli", *argv], env=env,
                              capture_output=True).returncode

    assert status("info") == cli.EXIT_USAGE == 1
    assert status("--help") == cli.EXIT_OK == 0
    assert status("--horizon", "2", "decompose", files["torsion"]) == cli.EXIT_INCONCLUSIVE == 2


def test_exit_codes(files, capsys, monkeypatch, tmp_path):
    # 0 done, 1 usage, 2 inconclusive: each on a real input
    assert run(capsys, "homology", files["torsion"])[0] == cli.EXIT_OK == 0
    missing = str(tmp_path / "missing.pres")
    assert run(capsys, "homology", missing)[0] == cli.EXIT_USAGE == 1
    assert run(capsys, "--horizon", "2", "decompose", files["torsion"])[0] == cli.EXIT_INCONCLUSIVE == 2
    # an argparse usage error is 1 as well, and --help is 0
    for argv in (["--format", "xml", "info", files["torsion"]],
                 ["homology", files["torsion"], "--depth", "two"], ["info"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (cli.EXIT_USAGE, "") and "usage: catrep" in err
    code, out, _ = run(capsys, "--help")
    assert code == cli.EXIT_OK and out.startswith("usage: catrep")
    # 3: a checked invariant fails.  On a module whose actions do not
    # compose, the Koszul differentials do not square to zero
    V = non_functorial()
    with monkeypatch.context() as m:
        m.setattr(cli, "build_module", lambda *a, **k: (V.cat, V.field, V.horizon, V))
        code, _, err = run(capsys, "homology", files["torsion"])
    assert code == cli.EXIT_VIOLATION == 3
    assert err.startswith("violation: Koszul d_2 d_1 is nonzero")
    # 3 also for a lemma violation raised out of a command
    with monkeypatch.context() as m:
        m.setattr(cli, "tor_groups", _raises(VerificationViolation("lemma")))
        assert run(capsys, "homology", files["torsion"])[0] == 3
    # 3 also when a family the program built is not action-stable: a row
    # falls outside the span it is expressed in
    with monkeypatch.context() as m:
        m.setattr(Mat, "express_rows", _raises(NotInSpan("row outside the span of the basis")))
        code, _, err = run(capsys, "shift", files["torsion"])
    assert code == cli.EXIT_VIOLATION
    assert err == "violation: row outside the span of the basis\n"
    # 4: a bare assertion is a bug in the program, not a counterexample
    with monkeypatch.context() as m:
        m.setattr(cli, "tor_groups", _raises(AssertionError("broken")))
        code, _, err = run(capsys, "homology", files["torsion"])
    assert code == cli.EXIT_INTERNAL == 4
    assert err.startswith("internal error: broken")
    # 1 also when memory runs out: a typed error, not a traceback.  The
    # errors are raised, not provoked, so nothing is allocated; numpy's
    # carries the size it asked for
    array_error = pytest.importorskip("numpy._core._exceptions")._ArrayMemoryError
    for exc in (MemoryError(), array_error((5040, 40320), np.dtype(np.int64))):
        with monkeypatch.context() as m:
            m.setattr(cli, "tor_groups", _raises(exc))
            code, _, err = run(capsys, "homology", files["torsion"])
        assert code == cli.EXIT_USAGE
        assert err == f"error: out of memory: {exc}\n"
    assert "1.51 GiB" in err
