"""catrep: exact computations with truncated FI/OI/FI_G/OI_G modules."""

from .category import CategoryDescriptor, FiniteGroup, Morphism, make_category, parse_morphism
from .fields import PrimeField, QQ, RationalField, RationalOverflowError, parse_field
from .homology import (
    HilbertFit,
    HomologyReport,
    Resolution,
    VerificationViolation,
    hilbert_fit,
    resolve,
    tor_groups,
    verify_theorems,
)
from .matrices import Mat, NotInSpan
from .presentations import (
    Presentation,
    PresentationError,
    Relation,
    emit_presentation_text,
    from_presentation,
    parse_presentation_text,
)
from .shift import (
    ChainState,
    HorizonExhausted,
    KeySequence,
    annihilator_oracle,
    derive,
    mu_map,
    sd_commutation_probe,
    shift_module,
    sin_reg,
    un_chain,
)
from .trunc import (
    FreeModule,
    InvariantViolation,
    ModuleMap,
    TruncatedModule,
    free_module,
    generating_degree,
    kernel_of_map,
    quotient_by,
    truncate,
    zero_module,
)

__version__ = "0.1.0"
