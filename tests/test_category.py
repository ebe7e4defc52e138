"""Category kernels: hom enumeration, composition, embedding, generators."""

import itertools
from math import comb, perm

import pytest
from hypothesis import given, settings, strategies as st

from catrep import category
from catrep.category import FiniteGroup, Morphism, make_category, parse_morphism

FI = make_category("fi")
OI = make_category("oi")
FIG = make_category("fi_g", 2)
OIG = make_category("oi_g", 2)
ALL = [FI, OI, FIG, OIG]


def test_hom_counts_closed_forms():
    for cat in ALL:
        gsize = cat.group.order if cat.group else 1
        for r in range(7):
            for s in range(7):
                homs = cat.hom(r, s)
                if r > s:
                    assert homs == ()
                    continue
                base = comb(s, r) if cat.ordered else perm(s, r)
                assert len(homs) == base * gsize ** r == cat.hom_count(r, s)
                assert len(set(homs)) == len(homs)


def test_hom_examples():
    assert [str(m) for m in FI.hom(1, 2)] == ["1->2:[1]", "1->2:[2]"]
    assert len(OI.hom(2, 4)) == 6
    assert FI.hom(3, 1) == ()
    assert len(OIG.hom(1, 2)) == 4


def test_canonical_order_is_lex():
    images = [m.images for m in OI.hom(2, 4)]
    assert images == sorted(images)
    pairs = [(m.images, m.labels) for m in OIG.hom(2, 3)]
    assert pairs == sorted(pairs)


def test_compose_identity_and_example():
    a = parse_morphism("1->2:[2]")
    assert OI.compose(OI.identity(2), a) == a
    assert OI.compose(a, OI.identity(1)) == a
    b = Morphism(2, 3, (1, 3))
    assert OI.compose(b, a) == Morphism(1, 3, (3,))


def test_compose_paper_group_rule():
    # Z/2 decoration: labels multiply as g3(i) = g2(f1(i)) * g1(i)
    alpha = Morphism(1, 1, (1,), (1,))
    beta = Morphism(1, 2, (2,), (1,))
    out = OIG.compose(beta, alpha)
    assert out == Morphism(1, 2, (2,), (0,))


def test_compose_associative_exhaustive_small():
    for cat, lim in [(FI, 3), (OI, 4), (FIG, 2), (OIG, 2)]:
        degs = range(lim + 1)
        for r in degs:
            for s in degs:
                for t in degs:
                    for u in degs:
                        if not (r <= s <= t <= u):
                            continue
                        for a in cat.hom(r, s):
                            for b in cat.hom(s, t):
                                for c in cat.hom(t, u):
                                    assert cat.compose(cat.compose(c, b), a) == cat.compose(
                                        c, cat.compose(b, a)
                                    )


def test_embed_examples():
    a = parse_morphism("1->2:[2]")
    assert OI.embed(a) == Morphism(2, 3, (1, 3))
    assert FI.embed(a) == Morphism(2, 3, (2, 3))
    assert FI.embed(FI.identity(2)) == FI.identity(3)
    assert OI.embed(OI.identity(2)) == OI.identity(3)


def test_embed_functorial_and_faithful():
    for cat, lim in [(FI, 4), (OI, 4), (FIG, 3), (OIG, 3)]:
        for r in range(lim + 1):
            for s in range(r, lim + 1):
                homs = cat.hom(r, s)
                embedded = [cat.embed(a) for a in homs]
                assert len(set(embedded)) == len(embedded)  # faithful
                for t in range(s, lim + 1):
                    for b in cat.hom(s, t):
                        for a in homs:
                            assert cat.embed(cat.compose(b, a)) == cat.compose(
                                cat.embed(b), cat.embed(a)
                            )


def test_mu_witness_values():
    assert OI.mu_witness(1) == Morphism(1, 2, (2,))
    assert FI.mu_witness(1) == Morphism(1, 2, (1,))
    assert OIG.mu_witness(2).labels == (0, 0)
    assert FIG.mu_witness(2).labels == (0, 0)


def test_mu_naturality_exhaustive():
    for cat, lim in [(FI, 4), (OI, 4), (FIG, 3), (OIG, 3)]:
        for r in range(lim + 1):
            for s in range(r, lim + 1):
                for a in cat.hom(r, s):
                    lhs = cat.compose(cat.embed(a), cat.mu_witness(r))
                    rhs = cat.compose(cat.mu_witness(s), a)
                    assert lhs == rhs


def test_split_above_the_diagonal():
    # every off-table alpha: r -> s is a: r -> s-1, then a step generator of s-1
    for cat, lim in [(FI, 4), (OI, 5), (FIG, 3), (OIG, 3)]:
        table = set(cat.generators(lim))
        for r in range(lim):
            for s in range(r + 1, lim + 1):
                for alpha in cat.hom(r, s):
                    if alpha in table:
                        continue
                    a, b = cat.split(alpha)
                    assert cat.compose(b, a) == alpha
                    assert (a.src, a.dst) == (r, s - 1) and b in cat.step_generators(s - 1)


def _end_closure_size(cat, s):
    seen = {cat.identity(s)}
    frontier = list(seen)
    while frontier:
        x = frontier.pop()
        for g in cat.end_generators(s):
            y = cat.compose(g, x)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return len(seen)


def test_end_generators_generate():
    assert OI.end_generators(3) == ()
    assert len(FI.end_generators(3)) == 2  # adjacent transpositions
    assert _end_closure_size(FI, 3) == 6
    assert _end_closure_size(FIG, 2) == 8  # spec example: one swap + one label flip
    for cat in ALL:
        for s in range(5 if not cat.group else 4):
            assert _end_closure_size(cat, s) == cat.hom_count(s, s)


def test_morphism_encoding_round_trip():
    for cat, lim in [(FI, 3), (OIG, 2)]:
        for r in range(lim + 1):
            for s in range(r, lim + 1):
                for m in cat.hom(r, s):
                    assert parse_morphism(m.encode()) == m
    with pytest.raises(ValueError):
        parse_morphism("nonsense")


def test_validate_rejects_bad_morphisms():
    with pytest.raises(ValueError):
        OI.validate(Morphism(2, 3, (2, 1)))  # not increasing
    with pytest.raises(ValueError):
        FI.validate(Morphism(2, 3, (1, 1)))  # not injective
    with pytest.raises(ValueError):
        FI.validate(Morphism(2, 1, (1, 1)))  # violates directedness
    with pytest.raises(ValueError):
        OIG.validate(Morphism(1, 2, (1,)))  # missing labels
    with pytest.raises(ValueError):
        OI.validate(Morphism(1, 2, (1,), (0,)))  # unexpected labels


def test_finite_group_cyclic_and_table():
    g = FiniteGroup.cyclic(4)
    assert g.order == 4 and g.generators == (1,)
    # Klein four group needs two generators
    k4 = FiniteGroup.from_table([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
    assert len(k4.generators) >= 2
    with pytest.raises(ValueError):
        FiniteGroup.from_table([[0, 1], [1, 1]])


_S3 = list(itertools.permutations(range(3)))
S3 = FiniteGroup.from_table([[_S3.index(tuple(a[i] for i in b)) for b in _S3] for a in _S3])
K4 = FiniteGroup.from_table([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
# Z/6 listed so that element 1 has order 2: the single generator is 2
Z6 = FiniteGroup.from_table([[[0, 3, 1, 4, 2, 5].index((a + b) % 6) for b in [0, 3, 1, 4, 2, 5]]
                             for a in [0, 3, 1, 4, 2, 5]])


@pytest.mark.parametrize("group, count", [(FiniteGroup.cyclic(1), 0), (FiniteGroup.cyclic(7), 1),
                                          (Z6, 1), (K4, 2), (S3, 2)], ids=repr)
def test_generating_set_is_greedy_and_generates(group, count):
    gens = group.generators
    assert len(gens) == count
    assert group._closure(gens) == set(range(group.order))
    # each generator lies outside the closure of the ones before it
    assert all(g not in group._closure(gens[:i]) for i, g in enumerate(gens))


def test_label_generator_counts_over_s3():
    assert S3.generators == (1, 2)
    assert len(make_category("oi_g", S3).end_generators(3)) == 6  # two per slot
    assert len(make_category("fi_g", S3).end_generators(3)) == 4  # two swaps, two labels at slot 1
    assert len(make_category("oi_g", 5).end_generators(3)) == 3


LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


def test_associativity_scan_only_for_given_tables(monkeypatch):
    # Z/m is associative by construction, so cyclic() skips the order^3
    # scan; tables from the user still get it
    scanned = []
    original = FiniteGroup._check_associative

    def spy(self):
        scanned.append(self.order)
        original(self)

    monkeypatch.setattr(FiniteGroup, "_check_associative", spy)
    g = FiniteGroup.cyclic(300)
    assert g.order == 300 and g.generators == (1,) and scanned == []
    # an order-5 loop: identity and inverses, but (1*1)*2 = 2 != 1*(1*2) = 4
    with pytest.raises(ValueError, match="not associative"):
        FiniteGroup.from_table(LOOP5)
    flat = ",".join(str(x) for row in LOOP5 for x in row)
    with pytest.raises(ValueError, match="not associative"):
        make_category("oi_g", f"table:5:{flat}")
    assert scanned == [5, 5]


def test_cyclic_order_is_bounded_before_the_table_is_built(monkeypatch):
    # with range unusable in the module, an order past the bound is refused
    # at once, and the bound itself reaches the table: nothing is allocated
    def no_table(*args):
        raise AssertionError("the table was started")

    monkeypatch.setattr(category, "range", no_table, raising=False)
    with pytest.raises(ValueError, match=r"^cyclic group order 1000000000 too large: "
                                         r"its table would have m\^2 = 1000000000000000000 entries"):
        FiniteGroup.cyclic(10 ** 9)
    with pytest.raises(ValueError, match=r"order 1025 too large: .* = 1050625 entries \(must be m <= 1024\)"):
        make_category("oi_g", "cyclic:1025")
    with pytest.raises(AssertionError, match="the table was started"):
        FiniteGroup.cyclic(1024)


def test_table_order_is_bounded_before_entries_are_read_or_scanned(monkeypatch):
    # entries that are not numbers show whether they were parsed, and the spy
    # whether the m^3 associativity scan started
    scanned = []
    monkeypatch.setattr(FiniteGroup, "_check_associative", lambda self: scanned.append(self.order))
    too_large = r"^group table order 1100 too large: its table would have m\^2 = 1210000 entries \(must be m <= 1024\)$"
    with pytest.raises(ValueError, match=too_large):
        category.parse_group_spec("table:1100:not,numbers")
    with pytest.raises(ValueError, match=too_large):
        make_category("oi_g", "table:1100:not,numbers")
    with pytest.raises(ValueError, match=r"^group table order 1025 too large: .*m <= 1024"):
        FiniteGroup.from_table([[0] * 1025] * 1025)
    assert scanned == []
    FiniteGroup.from_table([[(a + b) % 4 for b in range(4)] for a in range(4)])
    assert scanned == [4]


def test_make_category_validation():
    with pytest.raises(ValueError):
        make_category("fi_g")
    with pytest.raises(ValueError):
        make_category("fi", 2)
    with pytest.raises(ValueError):
        make_category("xx")
    cat = make_category("oi_g", "table:2:0,1,1,0")
    assert cat.group.order == 2


@st.composite
def composable_pair(draw):
    cat = draw(st.sampled_from(ALL))
    r = draw(st.integers(0, 3))
    s = draw(st.integers(r, 4))
    t = draw(st.integers(s, 5))
    homs_a, homs_b = cat.hom(r, s), cat.hom(s, t)
    if not homs_a or not homs_b:
        return None
    a = draw(st.sampled_from(homs_a))
    b = draw(st.sampled_from(homs_b))
    return cat, a, b


@settings(max_examples=80, deadline=None)
@given(composable_pair())
def test_compose_stays_valid(pair):
    if pair is None:
        return
    cat, a, b = pair
    out = cat.compose(b, a)
    cat.validate(out)
    assert out.src == a.src and out.dst == b.dst
