"""Seeded random presentations for fuzzing and the acceptance corpus.

Sampling is deterministic in (seed, category, field): replaying a seed
reproduces the presentation bit for bit.  Profiles keep desk-scale sizes:
the rational lane uses lower generator degrees than the prime-field lanes so
depth-3 resolutions stay cheap in exact arithmetic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .category import CategoryDescriptor
from .presentations import Presentation, Relation


@dataclass(frozen=True)
class SampleProfile:
    max_gens: int = 2
    max_gen_degree: int = 2
    max_rels: int = 3
    max_rel_shift: int = 2
    max_terms: int = 3


FP_PROFILE = SampleProfile()
Q_PROFILE = SampleProfile(max_gens=2, max_gen_degree=1, max_rels=2, max_rel_shift=2, max_terms=3)

# the CLI fuzz battery runs no deep resolutions, so it can afford the wider
# shapes; the acceptance corpus uses the tighter profiles above
FUZZ_PROFILE = SampleProfile(max_gens=3, max_gen_degree=3, max_rels=4, max_terms=3)

_Q_COEFF_POOL = (1, -1, 2, -2, 3, "1/2", "-1/2")


def profile_for(field) -> SampleProfile:
    return Q_PROFILE if field.kind == "q" else FP_PROFILE


def sample_presentation(cat: CategoryDescriptor, field, seed: int,
                        profile: SampleProfile | None = None) -> Presentation:
    """A random presentation; nonzero by construction (relations sit above
    the lowest generator degree)."""
    prof = profile or profile_for(field)
    rng = random.Random(("catrep", cat.kind, field.name, seed).__repr__())
    n_gens = rng.randint(1, prof.max_gens)
    gens = tuple((f"g{i}", rng.randint(0, prof.max_gen_degree)) for i in range(n_gens))
    rels = []
    for _ in range(rng.randint(0, prof.max_rels)):
        k0 = rng.randrange(n_gens)
        target = gens[k0][1] + rng.randint(1, prof.max_rel_shift)
        eligible = [k for k in range(n_gens) if gens[k][1] <= target]
        terms = []
        seen = set()
        for _ in range(rng.randint(1, prof.max_terms)):
            k = rng.choice(eligible)
            homs = cat.hom(gens[k][1], target)
            if not homs:
                continue
            alpha = homs[rng.randrange(len(homs))]
            if (alpha, k) in seen:
                continue
            seen.add((alpha, k))
            terms.append((_sample_coeff(field, rng), alpha, k))
        if terms:
            rels.append(Relation(target, tuple(terms)))
    return Presentation(gens, tuple(rels))


def _sample_coeff(field, rng: random.Random):
    if field.kind == "fp":
        return rng.randint(1, field.p - 1)
    return field.parse(str(rng.choice(_Q_COEFF_POOL)))
