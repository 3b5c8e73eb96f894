"""ramibound: exact arithmetic for nilpotency indices in truncated
polynomial quotients, ramification-bound constants, Herbrand-function
calculus, Frobenius-module height witnesses, tame lifts, and finite
Frobenius solution sets over local-field models."""

from .bounds import (
    BoundConstants,
    BoundReport,
    alpha_beta,
    bound_constants,
    closed_form_N_bounds,
    different_valuation,
    exact_nilpotency_index,
    nilpotency_summary,
    ramification_report,
)
from .errors import (
    CapExceededError,
    InputError,
    NonConvergenceError,
    NotHeightError,
    PrecisionError,
    RamiboundError,
    UndecidableError,
    ValuationTieError,
)
from .herbrand import (
    PLF,
    LowerFiltration,
    compose,
    fontaine_mu_bound,
    identity_plf,
    kummer_different,
    last_breaks,
    mu_transitivity,
    phi_from_filtration,
    psi,
    thm12_assembly,
)
from .kisin import (
    EtalePhiModule,
    KisinModule,
    Laurent,
    TameLiftSpec,
    etale_new,
    etale_to_kisin,
    finite_field,
    height_witness,
    kisin_new,
    tame_character_oracle,
    tame_lift_build,
    u_power_witness,
    witnesses,
)
from .padic import (
    EisensteinPoly,
    LocalElement,
    LocalFieldModel,
    LowerBound,
    QuotRing,
    Rat,
    eisenstein_validate,
    min_integer_strictly_above,
)
from .solver import (
    JSetProblem,
    JSolutionSet,
    LiftResult,
    build_jset_problem,
    exact_solution_set,
    injectivity_gap,
    jset_enumerate,
    lift_solution,
    rho_reduce,
    splitting_test,
)
from .witt import (
    ghost_components,
    ghost_solve_valuations,
    ideal_membership_gt,
    int_to_witt,
    power_frobenius,
    teichmuller,
    teichmuller_scale,
    universal_polys,
    witt_add,
    witt_mul,
    witt_neg,
    witt_sub,
)

__version__ = "0.1.0"
