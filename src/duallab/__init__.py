"""duallab: a Monte Carlo laboratory for primal, dual and robust portfolio choice
in jump-diffusion markets, with adjoint-equation cross-checks."""

from .bridge import (
    BridgeViolationError,
    bridged_fraction,
    dual_to_primal,
    primal_to_dual,
    robust_dual_to_primal,
    robust_primal_to_dual,
    verify_product_identity,
)
from .bsde import (
    AdjointTriple,
    DriverSpec,
    RegressionBasis,
    solve_linear_bsde,
)
from .dual import (
    DualSolution,
    ScenarioControl,
    dual_adjoints,
    evaluate_dual_scenario,
    replicating_portfolio,
    replication_check,
    scenario_from_theta1,
    solve_dual_search,
    unique_scenario_no_jumps,
)
from .market import (
    AdmissibilityError,
    MarketModel,
    PathBlocks,
    PathEnsemble,
    Strategy,
    TimeGrid,
    density_paths,
    elmm_residual,
    ensemble_summary,
    ensemble_to_csv,
    price_paths,
    simulate_drivers,
    wealth_paths,
)
from .preferences import (
    Penalty,
    UtilityPair,
    make_log_utility,
    make_power_utility,
    make_quadratic_penalty,
)
from .primal import (
    PrimalSolution,
    hamiltonian_derivative_check,
    merton_log_closed_form,
    primal_adjoints,
    solve_primal_search,
)
from .robust import (
    mu_from_foc,
    robust_log_closed_form,
    solve_robust_dual,
    solve_robust_saddle,
)

__version__ = "0.1.0"
