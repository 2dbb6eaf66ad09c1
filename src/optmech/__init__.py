"""Exact-arithmetic optimal menus for an additive bidder with two-point
item values: closed-form construction via lattice flows, exact LP oracles,
and the counting-hardness reduction chain."""

from .budgeted import (
    BudgetedInstance,
    BudgetedMenu,
    best_affordable_bundle,
    budgeted_oracle_lp,
    menu_is_bic_ir,
    optimal_budgeted_mechanism,
)
from .core import (
    LP2Params,
    OMDInstance,
    Subset,
    check_subset,
    format_rational,
    from_lp2_params,
    instance_from_json,
    instance_to_json,
    parse_rational,
    subset_label,
    subset_probs,
    subset_sums,
    subset_to_list,
    to_lp2_params,
    type_vectors,
)
from .errors import InputError, OptmechError, PreconditionError, VerificationError
from .exactlp import (
    Constraint,
    LPProblem,
    LPSolution,
    build_lp1,
    build_lp2,
    build_lp3,
    dump_problem,
    edge_var,
    q_var,
    solve_lp,
    solve_lp1,
    u_var,
    unique_optimum,
)
from .lattice import (
    FlowSolution,
    canonical_solution,
    check_single_positive,
    dump_lattice,
    node_balances,
    node_costs,
)
from .mechanism import (
    BicIrReport,
    Mechanism,
    certify_bic_ir,
    closed_form_mechanism,
    expected_revenue,
    is_monotone_supermodular,
    mechanism_from_json_dict,
    mechanism_to_json,
    price_menu,
    sample_allocation,
    verify_bic_ir,
)
from .reduction import (
    ReductionOutput,
    count_subsetsum,
    decide_lexrank,
    eval_f,
    find_parameter,
    lexrank_oracle,
    lexrank_to_omd,
    subsetsum_gadget,
)

__version__ = "0.1.0"
