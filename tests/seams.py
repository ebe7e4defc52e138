"""Seams that reach the behaviours the entry points do not select.

resolve takes the minimal route wherever the end algebras are semisimple,
and tor_groups always resolves its module itself.  The context managers
below patch the names resolve looks up in catrep.homology:

* free_route(): _semisimple_ends answers False, so every step covers by one
  M(t) per greedy generator, the route the minimal one is checked against;
* padded(): the free route with the first greedy generator repeated at
  every step, a non-minimal resolution that must give the same Tor; it
  yields the list of repeated (degree, row) generators, one per step;
* recorded(): collects each Resolution that resolve returns, so a test can
  inspect the one tor_groups read.

un_chain stops where the chain stabilizes; continued() extends its steps.
"""

import contextlib

import pytest

from catrep import homology


@contextlib.contextmanager
def free_route():
    with pytest.MonkeyPatch.context() as m:
        m.setattr(homology, "_semisimple_ends", lambda V: False)
        yield


@contextlib.contextmanager
def padded():
    greedy, repeated = homology.minimal_generators, []

    def with_redundant(Z, spans=None):
        gens = greedy(Z, spans=spans)
        repeated.extend(gens[:1])
        return gens + gens[:1]

    with free_route(), pytest.MonkeyPatch.context() as m:
        m.setattr(homology, "minimal_generators", with_redundant)
        yield repeated


@contextlib.contextmanager
def recorded():
    resolutions = []
    resolve = homology.resolve

    def recording(V, depth):
        resolutions.append(resolve(V, depth))
        return resolutions[-1]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(homology, "resolve", recording)
        yield resolutions


def continued(chain, max_steps):
    """(bases, valid_horizons) of chain, continued to max_steps steps.

    Past stabilization at n0 every step is U^{n0} on its window h - n:
    U^{n+1} = mu^-1(S U^n) is a function of U^n, and U^{n0+1} = U^{n0}.
    Steps end, as in un_chain, once the window closes.
    """
    bases, valid = list(chain.bases), list(chain.valid_horizons)
    if chain.status == "stabilized":
        stable, h = chain.bases[chain.stabilized_at], chain.V.horizon
        for n in range(len(bases), max_steps + 1):
            if h - n < -1:
                break
            bases.append(stable[: h - n + 1])
            valid.append(h - n)
    return bases, valid
