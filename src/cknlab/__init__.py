"""Numerical laboratory for symmetry and symmetry breaking in weighted
interpolation inequalities.

The package is organized around one pipeline: closed-form parameter
records and thresholds (:mod:`cknlab.params`), explicit extremal
profiles (:mod:`cknlab.profiles`), quadrature and differentiation grids
(:mod:`cknlab.grids`), entropy/Fisher functionals and the curvature
remainder (:mod:`cknlab.functionals`), diffusion flows on the sphere
(:mod:`cknlab.sphere_flows`), the cylinder eigenproblem with branch
continuation (:mod:`cknlab.cylinder_solver`), reparametrized curves and
breaking criteria (:mod:`cknlab.branch_analysis`), and the command-line
front end (:mod:`cknlab.cli_io`).
"""

from .branch_analysis import (
    Classification,
    CriterionReport,
    CurveB,
    ProbeReport,
    ProbeRow,
    TurningPoint,
    classify_bifurcation,
    conjecture_probe,
    gn_constant,
    gn_ground_state,
    lemma_criterion,
    mu_star_theta_line,
    reparametrize,
)
from .cylinder_solver import (
    Branch,
    BranchPoint,
    ContinuationConfig,
    CylinderGrid,
    angular_amplitude,
    continue_branch,
    cylinder_grid,
    default_grid,
    linearized_spectrum,
    solve_symmetric,
    symmetric_quotient,
)
from .errors import (
    AdmissibilityError,
    CknlabError,
    ConfigError,
    ContinuationStalled,
    DegenerateInput,
    DomainError,
    EigFailed,
    GroundStateFailed,
    InsufficientSamples,
    InversionError,
    NewtonDiverged,
    PositivityLoss,
    SearchFailed,
    SingularSystem,
    StepRejected,
)
from .functionals import (
    PressureField,
    cylinder_quotient,
    gaussian_h,
    k_functional,
    sphere_observables,
)
from .grids import (
    CylinderField,
    FVZonalGrid,
    GridFunction1D,
    TensorGrid,
    fv_zonal_grid,
    tensor_grid,
    zonal_gegenbauer_basis,
    zonal_laplacian,
    zonal_quadrature,
)
from .params import (
    CKNParams,
    Thresholds,
    b_fs_value,
    check_equivalence,
    derive_params,
    lambda_fs_theta,
    lambda_fs_value,
    mu_star,
    optimal_constant_star,
    sphere_area,
    thresholds,
    two_sharp_value,
)
from .profiles import phi_star
from .sphere_flows import (
    CounterexampleReport,
    FlowSpec,
    FlowState,
    FlowTrajectory,
    counterexample_search,
    integrate,
    random_smooth_density,
    tilted_density,
)

__version__ = "0.1.0"
