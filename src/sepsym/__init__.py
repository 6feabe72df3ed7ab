"""sepsym: a numerical laboratory for separating hierarchies of
non-linear Schrodinger-type evolutions and their symmetries."""

__version__ = "0.1.0"

from .errors import (
    BadRange,
    BadTuple,
    DomainError,
    IndexMismatch,
    NotDerivation,
    ScenarioError,
    SepsymError,
    SizeCapExceeded,
    SpaceMismatch,
    StepMismatch,
    ZeroAmplitude,
    ZeroBase,
)
from .mixedpow import (
    B,
    E,
    I,
    IndexPair,
    J,
    ZERO_PAIR,
    mixed_power,
    pair_action,
    pair_bracket,
    pair_product,
)
from .space import ConfigSpace, random_state
from .opcalc import (
    NonlinearOperator,
    check_permutation_property,
    estimate_log_indices,
    euler_log_residual,
    euler_power_residual,
    lie_bracket,
)
from .hierarchy import (
    Generator,
    Hierarchy,
    canonical_decompose,
    canonical_lift,
    lift_J,
    natural_part,
    tensor_derivation_residual,
)
from .obstruction import (
    corollary1_obstruction,
    corollary2_obstruction,
    obstruction_lhs,
    obstruction_rhs,
)
from .evolution import (
    EvolutionConfig,
    IndexTrajectory,
    extract_indices,
    index_ode_solve,
    scaling_test,
    separation_test,
)
from .symmetry import (
    AffineMap,
    FiniteSymmetry,
    InfinitesimalSymmetry,
    PointSymmetrySpec,
    inf_symmetry_bracket,
    inf_symmetry_residual,
    symmetry_residual,
)
