"""Presentation files: parsing, validation, emission, round trips."""

import pytest
from hypothesis import given, settings, strategies as st

from catrep.category import Morphism, make_category
from catrep.corpus import FUZZ_PROFILE, sample_presentation
from catrep.fields import QQ, parse_field
from catrep.presentations import (
    Presentation,
    PresentationError,
    Relation,
    build_module,
    emit_presentation_text,
    from_presentation,
    parse_presentation_text,
    resolve_coefficients,
)
from catrep.trunc import FreeModule

OI = make_category("oi")
F101 = parse_field("fp:101")

TORSION = """catrep-presentation v1
category oi
group none
field fp:101
horizon 6
gen u deg 1
rel 2: 1*1->2:[2]@u
"""


def test_parse_basic():
    header, pres = parse_presentation_text(TORSION)
    assert header == {"category": "oi", "group": "none", "field": "fp:101", "horizon": 6}
    assert pres.generators == (("u", 1),)
    rel = pres.relations[0]
    assert rel.target == 2 and rel.terms[0][1] == Morphism(1, 2, (2,))


def test_round_trip_identical_module():
    header, pres = parse_presentation_text(TORSION)
    cat, field, horizon, module = build_module(header, pres)
    text = emit_presentation_text(cat, field, horizon, resolve_coefficients(pres, field))
    header2, pres2 = parse_presentation_text(text)
    cat2, field2, horizon2, module2 = build_module(header2, pres2)
    assert module2.dims == module.dims
    for r in range(min(module.horizon, module2.horizon)):
        for g in cat.step_generators(r):
            assert module.gens[g] == module2.gens[g]
    # emission is idempotent
    assert emit_presentation_text(cat2, field2, horizon2, resolve_coefficients(pres2, field2)) == text


def test_flags_override_header():
    header, pres = parse_presentation_text(TORSION)
    cat, field, horizon, module = build_module(header, pres, field=QQ, horizon=4)
    assert field is QQ and horizon == 4
    assert module.dims == [0, 1, 1, 1, 1]


def test_missing_config_rejected():
    text = "catrep-presentation v1\ngen u deg 1\n"
    header, pres = parse_presentation_text(text)
    with pytest.raises(PresentationError):
        build_module(header, pres)


def test_parse_errors_carry_position():
    with pytest.raises(PresentationError) as exc:
        parse_presentation_text("not a presentation\n")
    assert exc.value.line == 1
    bad_gen = "catrep-presentation v1\ngen u degree 1\n"
    with pytest.raises(PresentationError) as exc:
        parse_presentation_text(bad_gen)
    assert exc.value.line == 2
    bad_rel = TORSION + "rel 3: 1*1->3:[2]@nope\n"
    with pytest.raises(PresentationError) as exc:
        parse_presentation_text(bad_rel)
    assert exc.value.line == 8
    # the column is the bad term's own, though its text also occurs in the term before
    twin = "catrep-presentation v1\ncategory oi\nfield fp:101\nhorizon 3\ngen uv deg 1\n"
    with pytest.raises(PresentationError, match="unknown generator 'u'") as exc:
        parse_presentation_text(twin + "rel 2: 21*1->2:[1]@uv + 1*1->2:[1]@u\n")
    assert (exc.value.line, exc.value.col) == (6, 25)
    dup = "catrep-presentation v1\ngen u deg 1\ngen u deg 2\n"
    with pytest.raises(PresentationError):
        parse_presentation_text(dup)
    # coefficients: <int> or <int>/<int>, the denominator nonzero
    for coeff in ("1/0", "x", "1/x", "1/2/3", ""):
        with pytest.raises(PresentationError) as exc:
            parse_presentation_text(TORSION.replace("rel 2: 1*", f"rel 2: {coeff}*"))
        assert (exc.value.line, exc.value.col) == (7, 8)
    # a denominator that is zero only in the field fails when coefficients resolve
    _, pres = parse_presentation_text(TORSION.replace("rel 2: 1*", "rel 2: 1/7*"))
    with pytest.raises(PresentationError, match="'1/7'.*fp:7"):
        resolve_coefficients(pres, parse_field("fp:7"))


def test_validation_rejects_mismatched_terms():
    pres = Presentation((("u", 1),), (Relation(2, ((1, Morphism(0, 2, ()), 0),)),))
    with pytest.raises(PresentationError):
        from_presentation(OI, F101, pres, 5)
    pres = Presentation((("u", 1),), (Relation(3, ((1, Morphism(1, 2, (2,)), 0),)),))
    with pytest.raises(PresentationError):
        from_presentation(OI, F101, pres, 5)
    pres = Presentation((("u", 1),), (Relation(9, ((1, Morphism(1, 9, (2,)), 0),)),))
    with pytest.raises(PresentationError):
        from_presentation(OI, F101, pres, 5)


def test_rational_coefficients():
    text = """catrep-presentation v1
category oi
group none
field q
horizon 4
gen a deg 0
gen b deg 0
rel 1: 1/2*0->1:[]@a + -1*0->1:[]@b
"""
    header, pres = parse_presentation_text(text)
    _, _, _, module = build_module(header, pres)
    # one relation identifies the two generator lines above degree 0
    assert module.dims == [2, 1, 1, 1, 1]


def test_group_header_round_trip():
    text = """catrep-presentation v1
category oi_g
group cyclic:2
field fp:101
horizon 3
gen u deg 0
"""
    header, pres = parse_presentation_text(text)
    cat, field, horizon, module = build_module(header, pres)
    assert cat.kind == "oi_g" and cat.group.order == 2
    # labels decorate source points, so M(0) stays one-dimensional everywhere
    assert module.dims == [1, 1, 1, 1]
    out = emit_presentation_text(cat, field, horizon, pres)
    assert "group cyclic:2" in out


def test_empty_source_terms_in_decorated_kinds():
    # "0->2:[]" carries no label group in the text encoding; the category
    # normalizes it to the canonical empty label tuple
    text = """catrep-presentation v1
category fi_g
group cyclic:2
field q
horizon 4
gen a deg 0
gen b deg 1
rel 2: 1*1->2:[2](1)@b + -1/2*0->2:[]@a
"""
    header, pres = parse_presentation_text(text)
    cat, field, horizon, module = build_module(header, pres)
    assert module.dims[0] == 1 and module.dims[1] == 3
    from catrep.presentations import normalize_presentation

    out = emit_presentation_text(cat, field, horizon,
                                 normalize_presentation(cat, resolve_coefficients(pres, field)))
    assert "0->2:[]()@a" in out
    header2, pres2 = parse_presentation_text(out)
    _, _, _, module2 = build_module(header2, pres2)
    assert module2.dims == module.dims


def test_multi_term_relations_and_comments():
    text = """catrep-presentation v1
# full header
category oi
group none
field fp:101
horizon 4
gen a deg 1   # generator line with trailing comment
rel 2: 1*1->2:[1]@a + 100*1->2:[2]@a
"""
    header, pres = parse_presentation_text(text)
    _, _, _, module = build_module(header, pres)
    # relation identifies the two degree-2 basis lines up to sign
    assert module.dims == [0, 1, 1, 1, 1]


def test_relation_terms_split_with_or_without_spaces():
    head = """catrep-presentation v1
category oi
group none
field q
horizon 4
gen u deg 1
gen v deg 1
"""
    spaced = head + "rel 2: 1*1->2:[2]@u + -1/2*1->2:[1]@v + +3*1->2:[1]@u\n"
    tight = head + "rel 2: 1*1->2:[2]@u+-1/2*1->2:[1]@v++3*1->2:[1]@u\n"
    header, pres = parse_presentation_text(spaced)
    assert parse_presentation_text(tight) == (header, pres)
    assert [c for c, _, _ in pres.relations[0].terms] == ["1", "-1/2", "+3"]
    cat, field, horizon, _ = build_module(header, pres)
    text = emit_presentation_text(cat, field, horizon, resolve_coefficients(pres, field))
    assert parse_presentation_text(text.replace(" + ", "+")) == parse_presentation_text(text)
    with pytest.raises(PresentationError) as exc:
        parse_presentation_text(head + "rel 2: 1*1->2:[2]@u+1*1->2:[1]\n")
    assert exc.value.line == 8


ROUND_TRIP_CATS = [make_category("fi"), OI, make_category("fi_g", "cyclic:2"),
                   make_category("oi_g", "cyclic:3")]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ROUND_TRIP_CATS), st.sampled_from([QQ, parse_field("fp:2"), F101]),
       st.integers(0, 10**6), st.sampled_from([None, FUZZ_PROFILE]))
def test_emit_parse_emit_is_identity(cat, field, seed, profile):
    pres = sample_presentation(cat, field, seed, profile)
    text = emit_presentation_text(cat, field, 6, pres)
    header, parsed = parse_presentation_text(text)
    assert header == {"category": cat.kind, "group": cat.group.spec if cat.group else "none",
                      "field": field.name, "horizon": 6}
    resolved = resolve_coefficients(parsed, field)
    assert resolved == pres
    assert emit_presentation_text(cat, field, 6, resolved) == text


@pytest.mark.parametrize("spec", ["fp:2", "fp:101"])
def test_free_cover_generators_are_never_materialized(monkeypatch, spec):
    # OI files of the in-process CLI benchmark's kind: the fuzz profile at
    # horizon 9.  Every product with a free generator gathers, scatters or
    # composes its column array, so no dense copy of one is ever built.
    field = parse_field(spec)
    built = []
    init = FreeModule.__init__
    monkeypatch.setattr(FreeModule, "__init__", lambda P, *a: built.append(P) or init(P, *a))
    for seed in range(1, 9):
        V, proj = from_presentation(OI, field, sample_presentation(OI, field, seed, FUZZ_PROFILE), 9)
        assert V.dims == [m.ncols for m in proj.mats]
    gens = [m for P in built for m in P.gens.values()]
    assert gens and all(m.unit_cols is not None and m._data is None for m in gens)


@pytest.mark.parametrize("cat", [OI, make_category("fi"), make_category("fi_g", 2)], ids=lambda c: c.name)
def test_relation_free_presentation_keeps_basis_maps(cat):
    pres = Presentation((("u", 1), ("v", 2)), ())
    V, proj = from_presentation(cat, F101, pres, 4)
    assert all(m.unit_cols is not None for m in V.gens.values())
    assert all(m.unit_cols is not None for m in proj.mats)
    F = FreeModule(cat, F101, (1, 2), 4)
    assert V.dims == F.dims and V.gens == F.gens
