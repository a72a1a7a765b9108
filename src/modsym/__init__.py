"""Coset-decorated continued-fraction dynamics for Gamma_0(N).

Exact PSL2(Z) and coset arithmetic, the twisted Gauss shift with its
finite transition graph, rational homology symbols, transfer-operator
thermodynamics, and the multifractal spectrum of limiting modular
symbols.
"""

from .contfrac import (
    CFInput,
    OutOfDomain,
    SignedWord,
    SymbolSequence,
    encode_orbit,
    expand,
    gauss_step,
    periodic_point_quadratic,
    twisted_gauss,
)
from .cosets import (
    CosetTable,
    LevelZero,
    SubgroupInvariants,
    ZeroDigit,
    subgroup_invariants,
)
from .homology import (
    DimensionMismatch,
    HomologyData,
    build_homology,
    symbol_class,
)
from .psl2 import (
    IDENTITY,
    S,
    T,
    ExtendedRational,
    MoebiusMatrix,
    convergents,
    st_power,
    word_to_matrix,
)
from .shiftspace import (
    IrreducibilityReport,
    TransitionGraph,
    build_graph,
    check_finitely_irreducible,
    is_admissible,
)
from .spectrum import (
    AlphaOutOfRange,
    NotCyclic,
    OddPeriod,
    PeriodicSymbolValue,
    SpectrumPoint,
    birkhoff_partial,
    coset_cycle_word,
    legendre,
    limiting_symbol_periodic,
    spectrum_curve,
    spectrum_point,
)
from .thermo import (
    BetaOutOfDomain,
    BracketFailure,
    GibbsMoments,
    LevelData,
    MomentCheckError,
    NoConvergence,
    NonHyperbolic,
    NumericsConfig,
    OperatorTooLarge,
    PressureEstimate,
    beta_hessian,
    build_level_data,
    gibbs_moments,
    potential_I_on_cylinder,
    pressure_collocation,
    pressure_cylinder,
    solve_beta,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
