"""Shift and derivative functors, the key sequence, and the U^n chain.

For a module V with horizon h, the shift SV has (SV)_t = V_{t+1} with the
action pulled back along the degree-1 self-embedding, so SV lives at horizon
h-1.  The natural map mu_V: V -> SV acts degreewise by the witness morphism
m_t; its kernel KV and cokernel DV complete the exact sequence

    0 -> KV -> V -> SV -> DV -> 0

checked degreewise by dimension count on every derive() call.  DV is the
quotient of SV by the rows of mu itself, with no image submodule built first.
Iterating the kernel construction on successive quotients yields the
increasing chain U^0 = 0 <= U^1 <= ... whose union is the singular part of V;
step n+1 is the mu-preimage of S U^n, the left kernel of mu followed by the
projection onto SV / S U^n.  Each chain step consumes one degree of horizon,
and all results carry explicit validity bounds instead of silently
truncating.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .matrices import Mat
from .trunc import (
    InvariantViolation,
    ModuleMap,
    TruncatedModule,
    generating_degree,
    kernel_of_map,
    quotient_by,
    submodule_from_rows,
    truncate,
)


class HorizonExhausted(Exception):
    """The chain did not provably stabilize within the truncation horizon."""


def shift_module(V: TruncatedModule) -> TruncatedModule:
    """SV with (SV)_t = V_{t+1}; horizon drops by one.

    The self-embedding sends every stored generator to a stored generator,
    so SV's action table is V's table re-indexed: no product is formed."""
    if V.horizon < 0:
        raise ValueError("shift needs horizon >= 0")
    cat = V.cat
    h = V.horizon - 1
    dims = [V.dims[t + 1] for t in range(h + 1)]
    gens = {g: V.gens[cat.embed(g)] for g in cat.generators(h)}
    return TruncatedModule(cat, V.field, h, dims, gens)


def mu_map(V: TruncatedModule, SV: TruncatedModule | None = None) -> ModuleMap:
    """The natural map V -> SV acting by the witness family m_t, each a step
    generator and so an entry of V's action table."""
    if V.horizon < 0:
        raise ValueError("mu needs horizon >= 0")
    if SV is None:
        SV = shift_module(V)
    mats = [V.gens[V.cat.mu_witness(t)] for t in range(V.horizon)]
    return ModuleMap(V, SV, mats)


@dataclass
class KeySequence:
    """The exact sequence 0 -> KV -> V -> SV -> DV -> 0 at horizon h-1."""

    V: TruncatedModule
    KV: TruncatedModule
    SV: TruncatedModule
    DV: TruncatedModule
    mu: ModuleMap

    def euler_defects(self):
        """Per-degree alternating dim sums; all zero iff exact."""
        out = []
        for t in range(self.KV.horizon + 1):
            out.append(
                self.KV.dims[t] - self.V.dims[t] + self.SV.dims[t] - self.DV.dims[t]
            )
        return out


def derive(V: TruncatedModule) -> KeySequence:
    """Compute the key sequence of V; KV and DV live at horizon h-1."""
    SV = shift_module(V)
    mu = mu_map(V, SV)
    KV, _ = kernel_of_map(mu)
    DV, _ = quotient_by(SV, mu.mats)
    seq = KeySequence(V, KV, SV, DV, mu)
    defects = seq.euler_defects()
    if any(defects):
        raise InvariantViolation(f"key sequence inexact: defects {defects}")
    return seq


@dataclass
class ChainState:
    """The chain 0 = U^0 <= U^1 <= ... of mu-kernels on successive quotients.

    bases[n][t] is the canonical row basis of (U^n)_t inside V_t, recorded
    for t <= valid_horizons[n] = horizon - n.  stabilized_at is the least n
    with U^n = U^{n+1} on the overlap window, or None if undecidable.
    """

    V: TruncatedModule
    bases: list = dc_field(default_factory=list)
    valid_horizons: list = dc_field(default_factory=list)
    stabilized_at: int | None = None
    status: str = "horizon_exhausted"
    gd: int = -1

    def dims(self, n: int):
        return [self.bases[n][t].nrows for t in range(self.valid_horizons[n] + 1)]


def _preimage_rows(A: Mat, target_rows: Mat) -> Mat:
    """Canonical basis of {v : v @ A in rowspace(target_rows)}: the left
    kernel of A followed by the projection onto the quotient by the target."""
    _, P = target_rows.quotient_projection()
    return (A @ P).left_kernel()


def un_chain(V: TruncatedModule, max_steps: int) -> ChainState:
    """Build the U^n chain by mu-preimages; honest about horizon loss.

    (U^{n+1})_s = { v in V_s : mu_V(v) in (S U^n)_s }, so step n is valid
    only up to horizon - n.  Stabilization is declared when consecutive
    steps agree on the overlap window and that window still sees degree
    gd(V) + 1, and the chain stops there; otherwise it builds to max_steps
    (or until the window closes) and reports horizon_exhausted.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    h = V.horizon
    state = ChainState(V=V, gd=generating_degree(V))
    mu = mu_map(V)
    state.bases.append([Mat.zeros(V.field, 0, V.dims[t]) for t in range(h + 1)])
    state.valid_horizons.append(h)
    for n in range(1, max_steps + 1):
        valid = h - n
        if valid < -1:
            break
        prev = state.bases[n - 1]
        rows = [
            _preimage_rows(mu.mats[t], prev[t + 1]) for t in range(valid + 1)
        ]
        state.bases.append(rows)
        state.valid_horizons.append(valid)
        same = all(rows[t] == prev[t] for t in range(valid + 1))
        if same and valid >= state.gd + 1:
            state.stabilized_at = n - 1
            state.status = "stabilized"
            break
    return state


@dataclass
class SinRegResult:
    """Singular and regular part, both valid to valid_to."""

    sin: TruncatedModule
    reg: TruncatedModule
    valid_to: int


def sin_reg(chain: ChainState) -> SinRegResult:
    """Split V = chain.V into V_sin = U^n and V_reg = V / V_sin, n where the
    chain (un_chain(V, ...)) stabilized; HorizonExhausted if it did not."""
    V = chain.V
    if chain.status != "stabilized":
        raise HorizonExhausted(
            f"chain did not stabilize within horizon {V.horizon} "
            f"(built {len(chain.bases) - 1} steps)"
        )
    n = chain.stabilized_at
    valid = V.horizon - n
    Vh = truncate(V, valid)
    rows = chain.bases[n][: valid + 1]
    sin, _ = submodule_from_rows(Vh, rows)
    reg, _ = quotient_by(Vh, rows)
    k_dims = kernel_of_map(mu_map(reg))[0].dims if reg.horizon >= 0 else []
    if any(k_dims):
        raise InvariantViolation(
            f"K(V_reg) != 0: dims {k_dims} (singular-regular decomposition failed)"
        )
    return SinRegResult(sin, reg, valid)


@dataclass
class OracleResult:
    """Degreewise joint-kernel submodule from the closed-form U^n description."""

    bases: list
    valid_to: int


def annihilator_oracle(V: TruncatedModule, n: int) -> OracleResult:
    """Closed-form U^n: FI kinds kill all n-step morphisms, OI kinds ann(I^n).

    For FI/FI_G the degree-s part is the joint kernel of every alpha in
    C(s, s+n).  For OI/OI_G it is the joint kernel of the n-th power of the
    ideal generated by the witnesses: all alpha: s -> t (t <= horizon) with
    first image point > n, every label; for s = 0 all maps with t >= n.

    One morphism at a time, a left kernel only when alpha acts nonzero on
    the joint kernel J so far: each shrinks J, so degree s takes at most
    dims[s] of them, and no alpha is acted on once J is empty.
    """
    if n < 1:
        raise ValueError("oracle needs n >= 1")
    valid = V.horizon - n
    bases = []
    for s in range(valid + 1):
        J = Mat.identity(V.field, V.dims[s])  # a canonical basis already
        for alpha in _oracle_morphisms(V.cat, s, n, V.horizon) if J.nrows else ():
            A = V.act(alpha)
            JA = A if J.nrows == V.dims[s] else J @ A  # J is still the identity
            if not JA.is_zero():
                J = (JA.left_kernel() @ J).row_basis()
                if not J.nrows:  # draw nothing more: a hom set is built when drawn
                    break
        bases.append(J)
    return OracleResult(bases, valid)


def _oracle_morphisms(cat, s: int, n: int, h: int):
    if not cat.ordered:
        yield from cat.hom(s, s + n)
        return
    if s == 0:
        for t in range(n, h + 1):
            yield from cat.hom(0, t)
        return
    for t in range(s + 1, h + 1):
        for alpha in cat.hom(s, t):
            if alpha.images[0] >= n + 1:
                yield alpha


@dataclass
class SDProbe:
    """Degreewise dims of S(DV) and D(SV), and whether they agree."""

    sd_dims: list
    ds_dims: list
    agree: bool
    valid_to: int


def sd_commutation_probe(V: TruncatedModule) -> SDProbe:
    """Compare S(DV) against D(SV); FI kinds commute, OI kinds need not."""
    if V.horizon < 2:
        raise ValueError("probe needs horizon >= 2")
    seq = derive(V)
    sd = shift_module(seq.DV)
    ds = derive(seq.SV).DV
    return SDProbe(list(sd.dims), list(ds.dims), sd.dims == ds.dims, V.horizon - 2)
