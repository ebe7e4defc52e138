"""Finite presentations and their versioned text file format.

A presentation lists generators with degrees and relations as formal sums of
(morphism, generator) pairs sharing one target degree.  The file format:

    catrep-presentation v1
    category oi
    group none
    field q
    horizon 6
    gen u deg 1
    rel 2: 1*1->2:[2]@u + -1*1->2:[1]@u

Morphisms use the category encoding r->s:[i1,...,ir](g1,...,gr), labels
omitted for FI/OI.  Header lines other than the magic line are optional in
files driven from the CLI (flags supply the missing values); emitted
normalized files always carry the full header.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .category import KINDS, CategoryDescriptor, make_category, parse_group_spec, parse_morphism
from .fields import parse_field
from .matrices import Mat
from .trunc import FreeModule, module_closure_of_rows, quotient_by

FORMAT_MAGIC = "catrep-presentation v1"


class PresentationError(Exception):
    """Parse or validation failure, carrying line/column diagnostics."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"line {line}, col {col}: {message}" if line else message)
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Relation:
    target: int
    terms: tuple  # (coeff, Morphism, generator index)
    # where the relation was read: its line and the column of each term
    # (0 and () when built in code); not part of the value
    line: int = dataclasses.field(default=0, compare=False)
    cols: tuple = dataclasses.field(default=(), compare=False)

    def error(self, message: str, term=None) -> PresentationError:
        """An error at one term of the relation, or at its degree for term=None."""
        col = self.cols[term] if term is not None and self.cols else 5
        return PresentationError(message, self.line, col)


@dataclass(frozen=True)
class Presentation:
    generators: tuple  # (name, degree)
    relations: tuple  # Relation

    def validate(self, cat: CategoryDescriptor) -> None:
        names = [n for n, _ in self.generators]
        if len(set(names)) != len(names):
            raise PresentationError("duplicate generator names")
        for _, d in self.generators:
            if d < 0:
                raise PresentationError("negative generator degree")
        for rel in self.relations:
            for i, (_, alpha, k) in enumerate(rel.terms):
                if not (0 <= k < len(self.generators)):
                    raise rel.error("relation references unknown generator", i)
                if alpha.src != self.generators[k][1]:
                    raise rel.error(
                        f"morphism {alpha} does not start at generator degree "
                        f"{self.generators[k][1]}", i)
                if alpha.dst != rel.target:
                    raise rel.error(
                        f"term {alpha} does not land in the relation degree {rel.target}", i)
                try:
                    cat.validate(alpha)
                except ValueError as exc:
                    raise rel.error(str(exc), i) from None


def normalize_presentation(cat: CategoryDescriptor, pres: Presentation) -> Presentation:
    """Normalize every relation morphism for the category (empty labels)."""
    rels = []
    for rel in pres.relations:
        terms = tuple((c, cat.normalize(alpha), k) for c, alpha, k in rel.terms)
        rels.append(dataclasses.replace(rel, terms=terms))
    return Presentation(pres.generators, tuple(rels))


def from_presentation(cat: CategoryDescriptor, field, pres: Presentation, horizon: int):
    """Cokernel of the relation submodule inside the covering free module.

    Returns (module, projection from the free module).  The relation
    submodule is the action closure of the relation rows, computed one
    degree at a time.
    """
    pres = normalize_presentation(cat, pres)
    pres.validate(cat)
    for rel in pres.relations:
        if rel.target > horizon:
            raise rel.error(f"relation degree {rel.target} above horizon {horizon}")
    F = FreeModule(cat, field, tuple(d for _, d in pres.generators), horizon)
    seeds = {}
    by_degree = {}
    for rel in pres.relations:
        by_degree.setdefault(rel.target, []).append(rel)
    for t, rels in by_degree.items():
        places = iter(cat.hom_indices([alpha for rel in rels for _, alpha, _ in rel.terms]))
        rows = []
        for rel in rels:
            row = [0] * F.dims[t]
            for (coeff, _, k), place in zip(rel.terms, places):
                row[F.offsets[t][k] + place] += coeff
            rows.append(row)
        seeds[t] = Mat.from_rows(field, rows, F.dims[t])  # reduces the sums into the field
    return quotient_by(F, module_closure_of_rows(F, seeds))


# -- text format ------------------------------------------------------


def parse_presentation_text(text: str):
    """Parse a presentation file; returns (header dict, Presentation).

    The header dict may contain 'category', 'group', 'field', 'horizon';
    only the magic line is mandatory.
    """
    lines = text.splitlines()
    if not lines or lines[0].strip() != FORMAT_MAGIC:
        raise PresentationError(f"missing magic line {FORMAT_MAGIC!r}", 1, 1)
    header = {}
    where = {}  # header key -> (line, column) of its value
    generators = []
    gen_index = {}
    relations = []
    pending_relations = []  # parsed after generators are known
    for ln, raw in enumerate(lines[1:], start=2):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(" ")
        if key in ("category", "group", "field", "horizon") and rest:
            value = rest.strip()
            where[key] = (ln, len(line) - len(value) + 1)
            if key == "group":
                value = value.replace(" ", ":")
            elif key == "horizon":
                try:
                    value = int(value)
                except ValueError:
                    raise PresentationError("bad horizon value", *where[key]) from None
                if value < 0:
                    raise PresentationError(f"horizon must be >= 0, got {value}", *where[key])
            header[key] = value
        elif line.startswith("gen "):
            parts = line.split()
            if len(parts) != 4 or parts[2] != "deg":
                raise PresentationError("expected 'gen <name> deg <d>'", ln, 1)
            name = parts[1]
            if name in gen_index:
                raise PresentationError(f"duplicate generator {name!r}", ln, 5)
            col = len(line) - len(parts[3]) + 1
            try:
                deg = int(parts[3])
            except ValueError:
                raise PresentationError("bad generator degree", ln, col) from None
            if deg < 0:
                raise PresentationError("negative generator degree", ln, col)
            gen_index[name] = len(generators)
            generators.append((name, deg))
        elif line.startswith("rel "):
            pending_relations.append((ln, line))
        else:
            raise PresentationError(f"unrecognized line {line!r}", ln, 1)
    _check_header(header, where)
    for ln, line in pending_relations:
        relations.append(_parse_relation(line, ln, gen_index))
    return header, Presentation(tuple(generators), tuple(relations))


def _check_header(header: dict, where: dict) -> None:
    """Reject header values that configure no category or field, at their line.

    A value missing from the file is not checked: command-line flags may
    supply it.
    """
    def check(key, build):
        try:
            build()
        except ValueError as exc:
            raise PresentationError(str(exc), *where[key]) from None

    if "field" in header:
        check("field", lambda: parse_field(header["field"]))
    group = header.get("group", "none")
    if "category" in header:
        kind = header["category"]
        if kind.lower() not in KINDS:
            raise PresentationError(f"unknown category kind {kind!r}", *where["category"])
        if "group" in header:
            check("group", lambda: make_category(kind, None if group == "none" else group))
    elif group != "none":
        check("group", lambda: parse_group_spec(group))


def _parse_relation(line: str, ln: int, gen_index: dict) -> Relation:
    body = line[4:]
    if ":" not in body:
        raise PresentationError("expected 'rel <degree>: <terms>'", ln, 5)
    head, terms_text = body.split(":", 1)
    try:
        target = int(head.strip())
    except ValueError:
        raise PresentationError("bad relation degree", ln, 5)
    terms = []
    cols = []
    start = len(line) - len(terms_text)  # terms_text is the tail of line
    for offset, chunk in _split_terms(terms_text):
        col = start + offset + 1
        if "*" not in chunk or "@" not in chunk:
            raise PresentationError(
                "expected '<coeff>*<morphism>@<gen>'", ln, col
            )
        coeff_text, rest = chunk.split("*", 1)
        mor_text, gen_name = rest.rsplit("@", 1)
        gen_name = gen_name.strip()
        if gen_name not in gen_index:
            raise PresentationError(f"unknown generator {gen_name!r}", ln, col)
        try:
            alpha = parse_morphism(mor_text.strip())
        except ValueError as exc:
            raise PresentationError(str(exc), ln, col)
        terms.append((_check_coefficient(coeff_text.strip(), ln, col), alpha, gen_index[gen_name]))
        cols.append(col)
    if not terms:
        raise PresentationError("empty relation", ln, 5)
    return Relation(target, tuple(terms), ln, tuple(cols))


def _check_coefficient(text: str, ln: int, col: int) -> str:
    """The coefficient text, if it reads <int> or <int>/<nonzero int>."""
    num, slash, den = text.partition("/")
    try:
        int(num)
        if slash and int(den) == 0:
            raise PresentationError(f"zero denominator in coefficient {text!r}", ln, col)
    except ValueError:
        raise PresentationError(
            f"bad coefficient {text!r} (expected <int> or <int>/<int>)", ln, col) from None
    return text


def _split_terms(text: str):
    """Split at each '+' that closes a '...@<gen>' term, spaced or not, into
    (offset of the term in text, term) pairs.

    A '+' before the '@' of its term is a sign ('+1*...'), so it stays with
    the term; a tail without '@' is kept for the caller to reject.
    """
    def term(a, b):
        chunk = text[a:b]
        return a + len(chunk) - len(chunk.lstrip()), chunk.strip()

    out = []
    start = end = 0
    for piece in text.split("+"):
        end += len(piece) + 1  # past the '+' that ends this piece
        if "@" in piece:
            out.append(term(start, end - 1))
            start = end
    if text[start:].strip():
        out.append(term(start, len(text)))
    return out


def resolve_coefficients(pres: Presentation, field) -> Presentation:
    """Parse textual coefficients into field elements (idempotent)."""
    rels = []
    for rel in pres.relations:
        terms = []
        for i, (coeff, alpha, k) in enumerate(rel.terms):
            try:
                value = field.parse(coeff) if isinstance(coeff, str) else coeff
            except ZeroDivisionError:
                raise rel.error(
                    f"coefficient {coeff!r} has a zero denominator in {field.name}", i) from None
            terms.append((value, alpha, k))
        rels.append(dataclasses.replace(rel, terms=tuple(terms)))
    return Presentation(pres.generators, tuple(rels))


def emit_presentation_text(cat: CategoryDescriptor, field, horizon: int,
                           pres: Presentation) -> str:
    """Serialize with a full header; output re-parses to an identical module."""
    lines = [FORMAT_MAGIC]
    lines.append(f"category {cat.kind}")
    lines.append(f"group {cat.group.spec if cat.group else 'none'}")
    lines.append(f"field {field.name}")
    lines.append(f"horizon {horizon}")
    for name, deg in pres.generators:
        lines.append(f"gen {name} deg {deg}")
    for rel in pres.relations:
        terms = []
        for coeff, alpha, k in rel.terms:
            coeff_text = coeff if isinstance(coeff, str) else field.format(coeff)
            terms.append(f"{coeff_text}*{alpha.encode()}@{pres.generators[k][0]}")
        lines.append(f"rel {rel.target}: " + " + ".join(terms))
    return "\n".join(lines) + "\n"


def load_presentation(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_presentation_text(fh.read())


def build_module(header: dict, pres: Presentation, field=None, horizon=None):
    """Instantiate (cat, field, horizon, module) from file + overrides."""
    kind = header.get("category")
    if kind is None:
        raise PresentationError("category missing from both file and flags")
    group = header.get("group", "none")
    cat = make_category(kind, None if group == "none" else group)
    if field is None:
        spec = header.get("field")
        if spec is None:
            raise PresentationError("field missing from both file and flags")
        field = parse_field(spec)
    if horizon is None:
        horizon = header.get("horizon")
        if horizon is None:
            raise PresentationError("horizon missing from both file and flags")
    if horizon < 0:
        raise PresentationError(f"horizon must be >= 0, got {horizon}")
    pres = resolve_coefficients(pres, field)
    module, _ = from_presentation(cat, field, pres, horizon)
    return cat, field, horizon, module
