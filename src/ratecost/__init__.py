"""Rate-cost tradeoffs for quantized control of linear stochastic systems:
converse bounds, lattice DPCM coding, and seeded closed-loop simulation."""

from .bounds import (
    InfimumBound,
    alpha_n,
    causal_slb,
    causal_slb_lowrank,
    entropy_cost_upper,
    lower_bound_full,
    lower_bound_lowrank,
    lower_bound_partial,
    lower_bound_partial_lowrank,
    lower_bound_partial_projected,
    lower_bound_projected,
    make_projection,
    nats_to_bits,
    rho_covering,
    unstable_floor,
)
from .quantizer import (
    DpcmCodec,
    EntropyEstimate,
    Lattice,
    a_star_lattice,
    empirical_entropy,
    integer_lattice,
    lattice_for_dimension,
)
from .riccati import (
    ControlRiccati,
    FilterRiccati,
    RiccatiError,
    b_min,
    solve_control,
    solve_filter,
)
from .simloop import (
    SimConfig,
    SimResult,
    TradeoffPoint,
    run,
    sweep,
    tradeoff_point,
)
from .sysmodel import LinearPlant, NoiseModel, ValidationReport, validate

__version__ = "0.1.0"

__all__ = [
    "ControlRiccati",
    "DpcmCodec",
    "EntropyEstimate",
    "FilterRiccati",
    "InfimumBound",
    "Lattice",
    "LinearPlant",
    "NoiseModel",
    "RiccatiError",
    "SimConfig",
    "SimResult",
    "TradeoffPoint",
    "ValidationReport",
    "a_star_lattice",
    "alpha_n",
    "b_min",
    "causal_slb",
    "causal_slb_lowrank",
    "empirical_entropy",
    "entropy_cost_upper",
    "integer_lattice",
    "lattice_for_dimension",
    "lower_bound_full",
    "lower_bound_lowrank",
    "lower_bound_partial",
    "lower_bound_partial_lowrank",
    "lower_bound_partial_projected",
    "lower_bound_projected",
    "make_projection",
    "nats_to_bits",
    "rho_covering",
    "run",
    "solve_control",
    "solve_filter",
    "sweep",
    "tradeoff_point",
    "unstable_floor",
    "validate",
]
