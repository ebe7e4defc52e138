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

Hom sets, generator lists and index tables are memoised in one cache per
descriptor (_memo); end_plan and each transversal of coset_plan are grown
by one breadth-first builder (_tree).
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass
from math import comb, perm

import numpy as np

KINDS = ("fi", "oi", "fi_g", "oi_g")


class FiniteGroup:
    """A finite group given by a multiplication table; identity is element 0.

    Construction checks the table's shape, the identity and inverses;
    from_table also checks associativity, which cyclic() has by construction.
    """

    def __init__(self, table, spec: str):
        self.table = tuple(tuple(row) for row in table)
        self.order = len(self.table)
        self.spec = spec
        # the inverse of a is the b with a b = 0: the first zero of row a
        self.inverse = tuple(np.argmax(self._validate() == 0, axis=1).tolist())
        self.generators = self._generating_set()

    @staticmethod
    def cyclic(m: int) -> "FiniteGroup":
        if m < 1:
            raise ValueError("cyclic group order must be >= 1")
        table = [[(a + b) % m for b in range(m)] for a in range(m)]
        return FiniteGroup(table, f"cyclic:{m}")

    @staticmethod
    def from_table(table) -> "FiniteGroup":
        flat = ",".join(str(x) for row in table for x in row)
        group = FiniteGroup(table, f"table:{len(table)}:{flat}")
        group._check_associative()
        return group

    def _validate(self) -> np.ndarray:
        """Check the shape, the identity and inverses; the table as an array."""
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
        return T

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


@dataclass(frozen=True)
class Morphism:
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

    Immutable; hom-set enumeration, generator data and the index tables
    (compose_table, end_plan and the parent tree split reads off it,
    step_plan, orbit_table, end_inverse, coset_plan) are pure and memoised
    in this descriptor's one cache (_memo), safe under concurrent use.
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
        """All morphisms r -> s in canonical order (lex on images then labels)."""
        if r > s or r < 0 or s < 0:
            return ()
        if self.ordered:
            image_iter = itertools.combinations(range(1, s + 1), r)
        else:
            image_iter = itertools.permutations(range(1, s + 1), r)
        if self.group:
            n = self.group.order
            return tuple(
                Morphism(r, s, images, labels)
                for images in image_iter
                for labels in itertools.product(range(n), repeat=r)
            )
        return tuple(Morphism(r, s, images) for images in image_iter)

    def hom_count(self, r: int, s: int) -> int:
        if r > s or r < 0 or s < 0:
            return 0
        base = comb(s, r) if self.ordered else perm(s, r)
        return base * (self.group.order ** r if self.group else 1)

    def hom_index(self, m: Morphism) -> int:
        return self._hom_positions(m.src, m.dst)[m]

    @_memo
    def _hom_positions(self, r: int, s: int):
        """Each morphism of hom(r, s) to its place there."""
        return {m: i for i, m in enumerate(self.hom(r, s))}

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
        if self.ordered:
            images = tuple(range(2, s + 2))
        else:
            images = tuple(range(1, s + 1))
        return Morphism(s, s + 1, images, self._identity_labels(s))

    # -- factorization and generators ----------------------------------

    def _skip_map(self, t: int, p: int) -> Morphism:
        """The increasing one-step t -> t+1 whose image misses p."""
        images = tuple(j if j < p else j + 1 for j in range(1, t + 1))
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

        Above the diagonal, b is alpha's last one-step and a the rest
        (_factor_once).  A plain FI-kind one-step r -> r+1 other than m_r is
        m_r followed by the end morphism sending r+1 to the missed point.  An
        end morphism is its parent in end_plan(s) followed by one end
        generator.  Repeated splitting reaches generators() from every
        morphism, so a module's action is a product along these splits.
        """
        r, s = alpha.src, alpha.dst
        if s == r:
            return self._end_tree(s).get(self.hom_index(alpha))
        beta, gamma = self._factor_once(alpha)
        if self.ordered or beta != self.identity(r):
            return beta, gamma
        missed = next(iter(set(range(1, s + 1)) - set(alpha.images)))
        return self.mu_witness(r), Morphism(s, s, alpha.images + (missed,), self._identity_labels(s))

    @_memo
    def step_generators(self, r: int):
        """Plain one-step morphisms r -> r+1 stored on every module.

        FI kinds store only m_r (ends act transitively on one-steps); OI kinds
        store all r+1 strictly increasing one-steps.
        """
        if self.ordered:
            return tuple(self._skip_map(r, p) for p in range(r + 1, 0, -1))
        return (self.mu_witness(r),)

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

    @_memo
    def generators(self, h: int):
        """Every stored generator with target <= h: for each degree t, the
        one-steps into t, then the end generators of C(t, t)."""
        return tuple(
            g for t in range(h + 1)
            for g in (self.step_generators(t - 1) if t else ()) + self.end_generators(t)
        )

    def _label_generator(self, s: int, j: int, g: int) -> Morphism:
        """The end generator of C(s, s) carrying label g at slot j, identity elsewhere."""
        labels = [0] * s
        labels[j - 1] = g
        return Morphism(s, s, tuple(range(1, s + 1)), tuple(labels))

    # -- index tables --------------------------------------------------
    #
    # Free modules and covers act on whole hom sets at once.  These tables
    # give, as int arrays, the hom index of every composite or factor they
    # need, so that no Morphism is built, composed or looked up per basis
    # element.  Each is built once per descriptor with numpy and memoised.
    # split factors single morphisms through the same end plan (_end_tree).

    @_memo
    def hom_arrays(self, r: int, s: int):
        """hom(r, s) as int arrays (images, labels) of shape (count, r), in
        hom order; labels is None for the plain kinds."""
        homs = self.hom(r, s)
        images = np.array([m.images for m in homs], dtype=np.int64).reshape(len(homs), r)
        labels = None
        if self.group:
            labels = np.array([m.labels for m in homs], dtype=np.int64).reshape(len(homs), r)
        return images, labels

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
    def compose_table(self, s: int, g: Morphism):
        """hom_index(compose(g, m)) for every m in hom(s, g.src), as an int array."""
        images, labels = self.hom_arrays(s, g.src)
        # one-based lookups: image point i goes to g.images[i - 1]
        out_images = np.array((0,) + g.images)[images]
        out_labels = None
        if self.group:
            out_labels = self._mul[np.array((0,) + g.labels)[images], labels]
        return self._ranks(s, g.dst, out_images, out_labels)

    def _tree(self, t: int, gens, classes):
        """Breadth-first tree in C(t, t) from the identity over gens, keeping
        the first end met in each class not met before.

        classes gives a small nonnegative class number per hom index of
        C(t, t).  Returns the levels: each lists (g, parents, children) as hom
        indices with children[j] = g o parents[j], every parent the identity
        (index 0) or a child of an earlier level, and each reachable class
        but the identity's met once as a child.
        """
        seen = np.zeros(classes.max() + 1, dtype=bool)
        seen[classes[0]] = True
        frontier = np.zeros(1, dtype=np.int64)
        levels = []
        while True:
            level = []
            for g in gens:
                children = self.compose_table(t, g)[frontier]
                fresh = np.flatnonzero(~seen[classes[children]])
                # frontier order decides which child stands for a class
                first = np.unique(classes[children[fresh]], return_index=True)[1]
                fresh = fresh[np.sort(first)]
                if fresh.size:
                    seen[classes[children[fresh]]] = True
                    level.append((g, frontier[fresh], children[fresh]))
            if not level:
                return tuple(levels)
            levels.append(tuple(level))
            frontier = np.concatenate([c for _, _, c in level])

    @_memo
    def end_plan(self, s: int):
        """Breadth-first spanning tree of C(s, s) from the identity, over end_generators(s).

        Returns (levels, position).  Each level lists (g, parents, children)
        as hom indices, with children[i] = g o parents[i]; every parent lies
        in an earlier level, and every element of C(s, s) but the identity
        (index 0) is a child exactly once (_tree with each end its own
        class).  position[i] is the place of hom element i in the order
        identity, then each entry's children in turn.
        """
        count = self.hom_count(s, s)
        levels = self._tree(s, self.end_generators(s), np.arange(count))
        order = np.concatenate([[0]] + [c for level in levels for _, _, c in level])
        if order.size != count:
            raise AssertionError(f"end generators of {s} reach {order.size} of {count} morphisms")
        return levels, np.argsort(order)

    @_memo
    def _end_tree(self, s: int):
        """end_plan(s) keyed by child: hom index -> (parent, g) with child = g o parent."""
        homs = self.hom(s, s)
        return {
            child: (homs[parent], g)
            for level in self.end_plan(s)[0]
            for g, parents, children in level
            for parent, child in zip(parents.tolist(), children.tolist())
        }

    @_memo
    def step_plan(self, s: int, t: int):
        """Each alpha in C(s, t), t > s, factored as gamma o beta as in _factor_once.

        gamma is the plain one-step t-1 -> t that misses alpha's largest
        missed point.  Returns the entries (gamma, betas, alphas): hom
        indices into C(s, t-1) and C(s, t) of the alphas with that gamma.
        """
        images, labels = self.hom_arrays(s, t)
        count = len(images)
        present = np.zeros((count, t + 1), dtype=bool)
        present[np.arange(count)[:, None], images] = True
        # the first missing point scanning down from t
        missed = t - np.argmin(present[:, :0:-1], axis=1)
        betas = self._ranks(s, t - 1, images - (images > missed[:, None]), labels)
        entries = []
        for p in np.unique(missed).tolist():
            alphas = np.flatnonzero(missed == p)
            entries.append((self._skip_map(t - 1, p), betas[alphas], alphas))
        return tuple(entries)

    @_memo
    def orbit_table(self, t: int, n: int):
        """Each alpha in C(t, n) as f o sigma, with sigma in C(t, t) and f an
        orbit representative of C(t, n)/C(t, t).

        C(t, t) acts freely on C(t, n) by precomposition, and each orbit holds
        one increasing injection with identity labels: f has alpha's images
        sorted, sigma sends i to the rank of alpha's i-th image and carries
        alpha's labels.  Representatives are numbered in lex order of their
        images, which is their hom order.  Returns (rep, end): int arrays over
        hom(t, n) of f's number and sigma's hom index, so the representatives
        are the alphas with end == 0.
        """
        images, labels = self.hom_arrays(t, n)
        order = np.argsort(images, axis=1)
        rep = _subset_ranks(n, t, np.take_along_axis(images, order, axis=1))
        end = self._ranks(t, t, np.argsort(order, axis=1) + 1, labels)
        return rep, end

    @_memo
    def end_inverse(self, t: int):
        """hom_index of sigma^-1 for every sigma in C(t, t), as an int array.

        sigma = (pi, g) sends i to pi(i) with label g_i, so sigma^-1 sends
        pi(i) back to i with label g_i^-1.
        """
        images, labels = self.hom_arrays(t, t)
        back = np.argsort(images, axis=1)
        inv_labels = None
        if self.group:
            inv_labels = np.take_along_axis(np.array(self.group.inverse)[labels], back, axis=1)
        return self._ranks(t, t, back + 1, inv_labels)

    @_memo
    def coset_plan(self, t: int):
        """Left transversals along the chain H_0 < H_1 < ... < H_t = C(t, t).

        H_i is the subgroup of ends fixing every point above i with the
        identity label, a copy of C(i, i).  The left coset c H_{i-1} of c in
        H_i is fixed by the image and label of point i, so every sigma in
        C(t, t) is c_t o ... o c_1 in exactly one way with c_i in the i-th
        transversal, and a sum over C(t, t) is t nested sums of sizes
        |C(i, i)|/|C(i-1, i-1)|.  Each transversal is a _tree grown by the
        end generators lying in H_i, classed by the image and label of
        point i: level i - 1 lists (g, parents, children) as hom indices
        with children[j] = g o parents[j], every coset but H_{i-1} met once
        as a child.
        """
        images, labels = self.hom_arrays(t, t)
        fixed = images == np.arange(1, t + 1)
        key = images
        if self.group:
            fixed &= labels == 0
            key = images * self.group.order + labels
        levels = []
        for i in range(1, t + 1):
            gens = [g for g in self.end_generators(t) if fixed[self.hom_index(g), i:].all()]
            level = tuple(entry for grown in self._tree(t, gens, key[:, i - 1]) for entry in grown)
            cosets = 1 + sum(children.size for _, _, children in level)
            if cosets * self.hom_count(i - 1, i - 1) != self.hom_count(i, i):
                raise AssertionError(f"end generators reach {cosets} cosets of C({i - 1}, {i - 1}) in C({i}, {i})")
            levels.append(level)
        return tuple(levels)


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
        flat = [int(x) for x in parts[2].split(",")]
        if len(flat) != n * n:
            raise ValueError(f"group table needs {n * n} entries, got {len(flat)}")
        table = [flat[i * n : (i + 1) * n] for i in range(n)]
        return FiniteGroup.from_table(table)
    raise ValueError(f"unknown group spec {spec!r}")
