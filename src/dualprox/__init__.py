"""Dual proximal gradient solvers for coupled composite optimization."""

from .convex import (
    BoxSet,
    PiecewiseQuadraticUtility,
    ProxFriendlyFunction,
    QuadraticFunction,
    SmoothConjugable,
    conjugate_argmax,
    conjugate_value,
    prox_conjugate_via_moreau,
    prox_l1,
    project_box,
)
from .engine import (
    DelaySchedule,
    IterationTrace,
    RateBoundReport,
    StepSizes,
    delayed_bound_constant,
    dual_objective,
    grad_P_block,
    local_maximizers,
    recover_primal,
    run,
    step_size_async,
    step_size_sync,
    verify_rate_bounds,
)
from .model import (
    AgentSpec,
    ConstraintBlock,
    ProblemInstance,
    Topology,
    apply_C,
    instance_from_json,
    instance_to_json,
    lipschitz_constant,
    load_instance,
    save_instance,
    validate_instance,
)
from .scenarios import (
    MarketParams,
    TransformSpec,
    apply_transform,
    build_consensus,
    build_market,
    build_scenario,
    quadratic_local,
)

__version__ = "0.1.0"
