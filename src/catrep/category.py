"""Combinatorial kernels for the categories FI, OI, FI_G and OI_G.

Objects are the nonnegative integers.  A morphism r -> s is an injection
{1..r} -> {1..s} (strictly increasing for the OI kinds), optionally decorated
with a group element per source point.  Composition multiplies decorations
along the way: (f2,g2) o (f1,g1) = (f2 o f1, i |-> g2(f1(i)) * g1(i)).

The degree-1 self-embedding used for the shift functor is fixed as:
  * FI kinds: extend by the new top point (r+1 |-> s+1), new label identity;
  * OI kinds: prepend the new bottom point (1 |-> 1, i+1 |-> f(i)+1).
The matching witness family m_s: s -> s+1 is the standard inclusion for FI
kinds and i |-> i+1 for OI kinds, with identity labels.  Naturality and
functoriality of these choices are enforced by the test suite rather than
assumed.

A hom set is held as int arrays first (hom_arrays): its images and labels
in canonical order, images lex and then labels lex, so that a morphism's
index there has a closed form (_ranks).  The Morphism tuple of hom, the
index of one morphism (hom_index) and the composition table of a generator
group (group_table) are all read off these arrays.  Every one of them is
memoised in one cache per descriptor (_memo).
"""

from __future__ import annotations

import functools
import itertools
import re
from math import comb, perm
from typing import NamedTuple

import numpy as np

KINDS = ("fi", "oi", "fi_g", "oi_g")
MAX_CYCLIC_ORDER = 1 << 10  # a 2^20-entry table, the budget of the prime bound p < 2^20


def _check_order(m: int, what: str):
    """Refuse a group order above MAX_CYCLIC_ORDER before its m x m table is built or scanned."""
    if m > MAX_CYCLIC_ORDER:
        raise ValueError(f"{what} order {m} too large: its table would have m^2 = {m * m} "
                         f"entries (must be m <= {MAX_CYCLIC_ORDER})")


class FiniteGroup:
    """A finite group given by a multiplication table; identity is element 0.

    Construction checks the table's shape, the identity and inverses;
    from_table also checks associativity, which cyclic() has by construction.
    """

    def __init__(self, table, spec: str):
        self.table = tuple(tuple(row) for row in table)
        self.order = len(self.table)
        self.spec = spec
        self._validate()
        self.generators = self._generating_set()

    @staticmethod
    def cyclic(m: int) -> "FiniteGroup":
        """Z/m; an order above MAX_CYCLIC_ORDER is refused before its m x m table is built."""
        if m < 1:
            raise ValueError("cyclic group order must be >= 1")
        _check_order(m, "cyclic group")
        table = [[(a + b) % m for b in range(m)] for a in range(m)]
        return FiniteGroup(table, f"cyclic:{m}")

    @staticmethod
    def from_table(table) -> "FiniteGroup":
        """The group of a multiplication table; an order above MAX_CYCLIC_ORDER
        is refused before the m^3 associativity scan."""
        _check_order(len(table), "group table")
        flat = ",".join(str(x) for row in table for x in row)
        group = FiniteGroup(table, f"table:{len(table)}:{flat}")
        group._check_associative()
        return group

    def _validate(self):
        """Check the shape, the identity and inverses."""
        n = self.order
        for row in self.table:
            if len(row) != n or any(not (0 <= x < n) for x in row):
                raise ValueError("malformed multiplication table")
        T = np.array(self.table, dtype=np.intp).reshape(n, n)
        elements = np.arange(n)
        if not n or not (np.array_equal(T[:, 0], elements) and np.array_equal(T[0], elements)):
            raise ValueError("element 0 is not an identity")
        no_inverse = np.flatnonzero(~(T == 0).any(axis=1))
        if len(no_inverse):
            raise ValueError(f"element {no_inverse[0]} has no inverse")

    def _check_associative(self):
        # the narrowest dtype that holds every element: the scan is bound by memory
        T = np.array(self.table, dtype=np.min_scalar_type(self.order))
        for a in range(self.order):
            # (a b) c against a (b c), for every b and c at once
            if not np.array_equal(T[T[a]], T[a][T]):
                raise ValueError("multiplication table is not associative")

    def _generating_set(self):
        """A single generator when one exists, else a greedy set: each
        element joins only when it lies outside the closure of those before."""
        for a in range(1, self.order):
            if len(self._closure([a])) == self.order:
                return (a,)
        gens, seen = [], {0}
        for a in range(1, self.order):
            if a not in seen:
                gens.append(a)
                seen = self._closure(gens)
        return tuple(gens)

    def _closure(self, gens):
        seen = {0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = self.table[x][g]
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return seen

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def __eq__(self, other):
        return isinstance(other, FiniteGroup) and other.table == self.table

    def __hash__(self):
        return hash(self.table)

    def __repr__(self):
        return f"FiniteGroup({self.spec})"


class Morphism(NamedTuple):
    """A combinatorial arrow src -> dst with 1-based image points."""

    src: int
    dst: int
    images: tuple
    labels: tuple | None = None

    def encode(self) -> str:
        text = f"{self.src}->{self.dst}:[{','.join(str(i) for i in self.images)}]"
        if self.labels is not None:
            text += f"({','.join(str(g) for g in self.labels)})"
        return text

    def __str__(self):
        return self.encode()


_MOR_RE = re.compile(r"^(\d+)->(\d+):\[([0-9,]*)\](?:\(([0-9,]*)\))?$")


def _memo(method):
    """Memoise a CategoryDescriptor method in the descriptor's cache, keyed by
    the method and its arguments; every memoised result is not None."""

    @functools.wraps(method)
    def memoised(self, *args):
        key = (method, args)
        out = self._cache.get(key)
        if out is None:
            out = self._cache[key] = method(self, *args)
        return out

    return memoised


def parse_morphism(text: str) -> Morphism:
    m = _MOR_RE.match(text.strip())
    if not m:
        raise ValueError(f"bad morphism encoding {text!r}")
    src, dst = int(m.group(1)), int(m.group(2))
    images = tuple(int(x) for x in m.group(3).split(",") if x != "")
    labels = None
    if m.group(4) is not None:
        labels = tuple(int(x) for x in m.group(4).split(",") if x != "")
    return Morphism(src, dst, images, labels)


class CategoryDescriptor:
    """One of the four category kinds, with its group decoration if any.

    Immutable; hom-set arrays and what is read off them, generator data,
    the composition table of each generator group (group_table) and the
    end-monoid tree split reads off (_end_tree) are pure and memoised in
    this descriptor's one cache (_memo), safe under concurrent use.
    """

    def __init__(self, kind: str, group: FiniteGroup | None = None):
        kind = kind.lower()
        if kind not in KINDS:
            raise ValueError(f"unknown category kind {kind!r}")
        if kind.endswith("_g"):
            if group is None:
                raise ValueError(f"{kind} requires a group")
        elif group is not None:
            raise ValueError(f"{kind} does not carry a group")
        self.kind = kind
        self.group = group
        self.ordered = kind.startswith("oi")
        self._mul = np.array(group.table, dtype=np.int64) if group else None
        self._cache = {}

    def __eq__(self, other):
        return (
            isinstance(other, CategoryDescriptor)
            and other.kind == self.kind
            and other.group == self.group
        )

    def __hash__(self):
        return hash((self.kind, self.group))

    def __repr__(self):
        g = f", {self.group.spec}" if self.group else ""
        return f"CategoryDescriptor({self.kind}{g})"

    @property
    def name(self) -> str:
        return self.kind + (f"[{self.group.spec}]" if self.group else "")

    # -- morphism structure --------------------------------------------

    def _identity_labels(self, r: int):
        return (0,) * r if self.group else None

    def identity(self, s: int) -> Morphism:
        return Morphism(s, s, tuple(range(1, s + 1)), self._identity_labels(s))

    def normalize(self, m: Morphism) -> Morphism:
        """Canonical labels for empty-source morphisms, where the text
        encoding cannot distinguish decorated from plain."""
        if m.src == 0:
            if self.group and m.labels is None:
                return Morphism(m.src, m.dst, m.images, ())
            if not self.group and m.labels == ():
                return Morphism(m.src, m.dst, m.images, None)
        return m

    def validate(self, m: Morphism) -> None:
        if m.src < 0 or m.dst < 0 or m.src > m.dst:
            raise ValueError(f"invalid endpoints in {m}")
        if len(m.images) != m.src:
            raise ValueError(f"wrong image count in {m}")
        if any(not (1 <= i <= m.dst) for i in m.images):
            raise ValueError(f"image out of range in {m}")
        if self.ordered:
            if any(a >= b for a, b in zip(m.images, m.images[1:])):
                raise ValueError(f"images not strictly increasing in {m}")
        elif len(set(m.images)) != m.src:
            raise ValueError(f"images not injective in {m}")
        if self.group:
            if m.labels is None or len(m.labels) != m.src:
                raise ValueError(f"missing labels in {m}")
            if any(not (0 <= g < self.group.order) for g in m.labels):
                raise ValueError(f"label out of range in {m}")
        elif m.labels is not None:
            raise ValueError(f"unexpected labels in {m}")

    @_memo
    def hom(self, r: int, s: int):
        """All morphisms r -> s in canonical order, read off hom_arrays(r, s)."""
        images, labels = self.hom_arrays(r, s)
        label_rows = itertools.repeat(None) if labels is None else map(tuple, labels.tolist())
        return tuple(Morphism(r, s, im, lab) for im, lab in zip(map(tuple, images.tolist()), label_rows))

    def hom_count(self, r: int, s: int) -> int:
        if r > s or r < 0 or s < 0:
            return 0
        base = comb(s, r) if self.ordered else perm(s, r)
        return base * (self.group.order ** r if self.group else 1)

    def hom_index(self, m: Morphism) -> int:
        """The place of m in hom(m.src, m.dst); ValueError if m is not a morphism here."""
        return self.hom_indices([m])[0]

    def hom_indices(self, ms) -> list:
        """[hom_index(m) for m in ms], with one _ranks call per (src, dst) among them.

        Every m is validated first, so a list holding one bad morphism raises
        ValueError and indexes none.
        """
        ends = {}
        for j, m in enumerate(ms):
            self.validate(m)
            ends.setdefault((m.src, m.dst), []).append(j)
        out = [0] * len(ms)
        for (r, s), js in ends.items():
            images = np.array([ms[j].images for j in js], dtype=np.int64).reshape(len(js), r)
            labels = None
            if self.group:
                labels = np.array([ms[j].labels for j in js], dtype=np.int64).reshape(len(js), r)
            for j, k in zip(js, self._ranks(r, s, images, labels).tolist()):
                out[j] = k
        return out

    def compose(self, beta: Morphism, alpha: Morphism) -> Morphism:
        """beta o alpha for alpha: r -> s, beta: s -> t."""
        if alpha.dst != beta.src:
            raise ValueError(f"cannot compose {beta} o {alpha}: endpoint mismatch")
        images = tuple(beta.images[i - 1] for i in alpha.images)
        labels = None
        if self.group:
            labels = tuple(
                self.group.mul(beta.labels[alpha.images[k] - 1], alpha.labels[k])
                for k in range(alpha.src)
            )
        return Morphism(alpha.src, beta.dst, images, labels)

    def embed(self, alpha: Morphism) -> Morphism:
        """The degree-1 self-embedding applied to a morphism."""
        r, s = alpha.src, alpha.dst
        if self.ordered:
            images = (1,) + tuple(i + 1 for i in alpha.images)
            labels = (0,) + alpha.labels if self.group else None
            return Morphism(r + 1, s + 1, images, labels)
        images = alpha.images + (s + 1,)
        labels = alpha.labels + (0,) if self.group else None
        return Morphism(r + 1, s + 1, images, labels)

    def mu_witness(self, s: int) -> Morphism:
        """The natural-transformation witness m_s: s -> s+1."""
        return self._skip_map(s, 1 if self.ordered else s + 1)

    # -- factorization and generators ----------------------------------

    def _skip_map(self, t: int, p: int) -> Morphism:
        """The increasing one-step t -> t+1 whose image misses p."""
        images = tuple(range(1, p)) + tuple(range(p + 1, t + 2))
        return Morphism(t, t + 1, images, self._identity_labels(t))

    def _factor_once(self, alpha: Morphism):
        """Write alpha: r -> s (s > r) as gamma o beta with gamma a plain one-step."""
        r, s = alpha.src, alpha.dst
        missing = set(range(1, s + 1)) - set(alpha.images)
        p = max(missing)
        beta = Morphism(
            r,
            s - 1,
            tuple(i if i < p else i - 1 for i in alpha.images),
            alpha.labels,
        )
        return beta, self._skip_map(s - 1, p)

    def split(self, alpha: Morphism):
        """alpha = b o a as (a, b), each part nearer the generator table; None for identities.

        Above the diagonal, b is alpha's last one-step, a skip map and so a
        step generator, and a the rest (_factor_once).  An end morphism is
        its parent in the breadth-first tree _end_tree(s) followed by one end
        generator.  Repeated splitting reaches generators() from every
        morphism, so a module's action is a product along these splits.
        """
        if alpha.src == alpha.dst:
            return self._end_tree(alpha.dst).get(self.hom_index(alpha))
        return self._factor_once(alpha)

    @_memo
    def step_generators(self, r: int):
        """The r+1 skip maps r -> r+1, missing p = r+1, ..., 1 in turn.

        Every morphism r -> r+1 is one of them after an end of r, so the
        images of an end-stable row space of degree r under these span its
        images under every one-step, and that span is end-stable: e o s_p is
        again some s_q after an end.  So (mV)_{r+1} needs no end closure.
        """
        return tuple(self._skip_map(r, p) for p in range(r + 1, 0, -1))

    @_memo
    def end_generators(self, s: int):
        """Generators of the end monoid C(s, s) under composition."""
        gens = []
        ident = tuple(range(1, s + 1))
        if not self.ordered:
            for j in range(1, s):
                images = list(ident)
                images[j - 1], images[j] = images[j], images[j - 1]
                gens.append(Morphism(s, s, tuple(images), self._identity_labels(s)))
        if self.group:
            slots = range(1, s + 1) if self.ordered else ([1] if s >= 1 else [])
            for j in slots:
                for g in self.group.generators:
                    gens.append(self._label_generator(s, j, g))
        return tuple(gens)

    def _group(self, r: int, t: int):
        """The stored generators r -> t: the skip maps out of r when t = r + 1,
        the end generators of C(t, t) when t = r."""
        return self.step_generators(r) if r < t else self.end_generators(t)

    @_memo
    def generator_groups(self, h: int):
        """The stored generators with target <= h as ((src, dst), generators)
        pairs in table order: for each degree t, the skip maps into t, then the
        end generators of C(t, t) if it has any.  Module constructions act one
        group at a time."""
        groups = (((r, t), self._group(r, t)) for t in range(h + 1) for r in (t - 1, t) if r >= 0)
        return tuple((key, gens) for key, gens in groups if gens)

    @_memo
    def generators(self, h: int):
        """Every stored generator with target <= h, group by group."""
        return tuple(g for _, group in self.generator_groups(h) for g in group)

    def _label_generator(self, s: int, j: int, g: int) -> Morphism:
        """The end generator of C(s, s) carrying label g at slot j, identity elsewhere."""
        labels = [0] * s
        labels[j - 1] = g
        return Morphism(s, s, tuple(range(1, s + 1)), tuple(labels))

    # -- hom arrays and index tables -----------------------------------
    #
    # Free modules act on whole hom sets at once.  hom_arrays enumerates a
    # hom set as int arrays, and the tables read off them give the hom index
    # of every composite a free module needs, so that no Morphism is built,
    # composed or looked up per basis element.  split factors single
    # morphisms through the end-monoid tree (_end_tree).

    @_memo
    def hom_arrays(self, r: int, s: int):
        """hom(r, s) as int arrays (images, labels) of shape (count, r), in
        canonical order: images lex (increasing rows for the OI kinds), then
        labels lex; labels is None for the plain kinds."""
        if not self.hom_count(r, s):
            empty = np.zeros((0, max(r, 0)), dtype=np.int64)
            return empty, (empty if self.group else None)
        pick = itertools.combinations if self.ordered else itertools.permutations
        images = np.array(list(pick(range(1, s + 1), r)), dtype=np.int64)
        if not self.group:
            return images, None
        n = self.group.order
        # label row k holds the r base-n digits of k, most significant first
        labels = np.arange(n ** r)[:, None] // n ** np.arange(r - 1, -1, -1) % n
        return np.repeat(images, n ** r, axis=0), np.tile(labels, (len(images), 1))

    def _ranks(self, r: int, s: int, images, labels):
        """hom_index of the morphisms r -> s with these image and label rows.

        hom(r, s) lists images in lex order, then labels in lex order, so the
        index is the lex rank of the images (a combination for OI kinds, an
        arrangement for FI kinds) times |G|^r plus the labels read in base |G|.
        """
        if self.ordered:
            out = _subset_ranks(s, r, images)
        else:
            out = np.zeros(len(images), dtype=np.int64)
            for i in range(r):
                a = images[:, i]
                # arrangements with a smaller unused value at slot i come first
                out += (a - 1 - (images[:, :i] < a[:, None]).sum(axis=1)) * perm(s - i - 1, r - i - 1)
        if self.group:
            n = self.group.order
            out *= n ** r
            for i in range(r):
                out += labels[:, i] * n ** (r - 1 - i)
        return out

    @_memo
    def group_table(self, s: int, r: int, t: int):
        """hom_index(compose(g, m)) for the generators g: r -> t of one group
        (_group) and every m in hom(s, r), as the rows of one
        len(group) x |hom(s, r)| int array.

        The generators' image and label rows are gathered at every m's image
        points at once, and one _ranks call indexes all the composites.
        """
        gens = self._group(r, t)
        images, labels = self.hom_arrays(s, r)
        k, count = len(gens), len(images)
        # a 0 in front of each generator's row, so that image point i reads column i
        g_images = np.array([(0,) + g.images for g in gens], dtype=np.int64).reshape(k, r + 1)
        out_images = g_images[:, images].reshape(k * count, s)
        out_labels = None
        if self.group:
            g_labels = np.array([(0,) + g.labels for g in gens], dtype=np.int64).reshape(k, r + 1)
            out_labels = self._mul[g_labels[:, images], labels].reshape(k * count, s)
        return self._ranks(s, t, out_images, out_labels).reshape(k, count)

    @_memo
    def _end_tree(self, s: int):
        """Breadth-first spanning tree of C(s, s) from the identity over end_generators(s):
        hom index -> (parent, g) with child = g o parent, for every end but the
        identity (index 0), in the order reached, so each parent precedes its children."""
        homs = self.hom(s, s)
        table = self.group_table(s, s, s)
        seen = np.zeros(len(homs), dtype=bool)
        seen[0] = True
        tree, frontier = {}, np.zeros(1, dtype=np.int64)
        while len(frontier):
            reached = [frontier[:0]]
            for g, row in zip(self.end_generators(s), table):
                # an end generator permutes C(s, s), so the children are distinct
                children = row[frontier]
                new = ~seen[children]
                parents, children = frontier[new], children[new]
                seen[children] = True
                tree.update(zip(children.tolist(), [(homs[p], g) for p in parents.tolist()]))
                reached.append(children)
            frontier = np.concatenate(reached)
        if not seen.all():
            raise AssertionError(f"end generators of {s} reach {seen.sum()} of {len(homs)} morphisms")
        return tree


def _subset_ranks(s: int, r: int, images):
    """Lex rank of each increasing row a_0 < ... < a_{r-1} among the r-subsets of 1..s:
    C(s, r) - 1 - sum_i C(s - a_i, r - i)."""
    out = np.full(len(images), comb(s, r) - 1, dtype=np.int64)
    for i in range(r):
        out -= _pascal(max(s, r))[s - images[:, i], r - i]
    return out


@functools.lru_cache(maxsize=None)
def _pascal(n: int):
    """Read-only table of C(a, b) for 0 <= a, b <= n."""
    table = np.array([[comb(a, b) for b in range(n + 1)] for a in range(n + 1)], dtype=np.int64)
    table.flags.writeable = False
    return table


def make_category(kind: str, group_spec=None) -> CategoryDescriptor:
    """Build a descriptor from a kind and a group spec (int order or table)."""
    kind = kind.lower()
    group = None
    if kind.endswith("_g"):
        if group_spec is None:
            raise ValueError(f"{kind} requires a group spec")
        if isinstance(group_spec, FiniteGroup):
            group = group_spec
        elif isinstance(group_spec, int):
            group = FiniteGroup.cyclic(group_spec)
        else:
            group = parse_group_spec(str(group_spec))
    elif group_spec not in (None, "none"):
        raise ValueError(f"{kind} does not take a group")
    return CategoryDescriptor(kind, group)


def parse_group_spec(spec: str) -> FiniteGroup:
    spec = spec.strip().lower()
    if spec.startswith("cyclic:"):
        return FiniteGroup.cyclic(int(spec.split(":", 1)[1]))
    if spec.startswith("table:"):
        parts = spec.split(":", 2)
        if len(parts) != 3:
            raise ValueError(f"bad group table spec {spec!r}")
        n = int(parts[1])
        _check_order(n, "group table")
        flat = [int(x) for x in parts[2].split(",")]
        if len(flat) != n * n:
            raise ValueError(f"group table needs {n * n} entries, got {len(flat)}")
        table = [flat[i * n : (i + 1) * n] for i in range(n)]
        return FiniteGroup.from_table(table)
    raise ValueError(f"unknown group spec {spec!r}")
