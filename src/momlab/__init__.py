"""momlab: momentum and accelerated-gradient methods on convex quadratics,
with closed-form 2x2 block spectral analysis and explicit iteration budgets.

The library side is pure and immutable: build a problem, pick parameters
(by hand or from the worst-case rules), run, and inspect the trajectory.
The analysis side gives eigenvalues, spectral radii, Schur factors, exact
matrix powers and transient norm bounds for the per-coordinate iteration
blocks, against which everything is verifiable by brute force via
:mod:`momlab.oracle`.
"""

from .complexity import (
    ChainReport,
    ComplexityReport,
    RateComparison,
    asymptotic_rates,
    sufficient_condition_chain,
    theorem1_budget,
    theorem2_budget,
)
from .errors import (
    ConfigError,
    DimensionMismatchError,
    DomainError,
    InternalConsistencyError,
    InvalidSpectrumError,
    NotPositiveDefiniteError,
    PreconditionError,
    SingularMatrixError,
)
from .methods import (
    MethodKind,
    MethodParams,
    Trajectory,
    run,
    theorem1_params,
    theorem2_params,
)
from .problems import (
    EigenBounds,
    QuadraticProblem,
    Rotation,
    make_diagonal_problem,
    make_rotated_problem,
    random_orthogonal,
)
from .spectral import (
    BlockSpectrum,
    SchurFactors,
    analyze_hbm,
    analyze_nag,
    block_power,
    double_root_beta,
    eigvec_condition,
    hbm_block,
    nag_block,
    parameter_grid,
    power_norm_bound,
    r_power,
    schur_factors,
    spectral_norm_2x2,
)

__version__ = "0.1.0"
