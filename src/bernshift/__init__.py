"""bernshift: computable factor maps between Bernoulli shifts over the
rank-2 free group, with exact and statistical verification at desk scale.
"""

from .coinduce import (
    CosetConfiguration,
    NotInSubgroup,
    cocycle,
    coinduced_act,
    coset_of,
    from_coset_config,
    to_coset_config,
)
from .config import (
    Alphabet,
    Configuration,
    Distribution,
    EnumerationTooLarge,
    alphabet_by_name,
    bit_alphabet,
    restrict,
    sample,
    star_alphabet,
    star_base,
    star_image,
    translate,
    uniform,
)
from .entropy import (
    LOG2,
    EntropyRecursion,
    OutOfRange,
    boost_step,
    run_recursion,
    shannon,
    solve_p,
    star_base_entropy,
)
from .factormaps import (
    AlphabetMismatch,
    BlockMap,
    ComposedMap,
    FactorMap,
    InsufficientRadius,
    StarMap,
    identity_map,
    ow,
    parse_map_spec,
    plane_projection,
    relabel,
    star,
    swap_bits,
    timar,
    timar_stage,
)
from .freegroup import (
    IDENTITY,
    RadiusTooLarge,
    SiteSet,
    Word,
    ball,
    gen_power,
    inv,
    mul,
)
from .pipeline import (
    ChainPlan,
    ChainRun,
    CoinducedCellMap,
    ExternalStageUnresolved,
    PlanStage,
    coinduce_chain_step,
    coinduced_map,
    plan_boost_chain,
    run_chain,
    validate_plan,
)
from .verify import (
    PropertyReport,
    PushforwardReport,
    WindowTooSmall,
    check_cocycle,
    check_coset_roundtrip,
    check_equivariance,
    exact_coset_pushforward,
    exact_pushforward,
    mc_pushforward,
)

__version__ = "0.1.0"
