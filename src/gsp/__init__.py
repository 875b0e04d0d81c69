"""Sparsity-promoting edge-addition design for undirected consensus networks.

The package designs which edges to add to a network, and with what weights,
by minimizing an l1-regularized H2 performance objective with customized
proximal gradient and proximal Newton solvers, certified by dual bounds.
"""

from . import errors
from .duality import (
    DualCertificate,
    certify,
    dual_objective,
    duality_gap,
    make_dual_feasible,
    multipliers,
    primal_to_Y,
    residuals,
)
from .graphs import (
    PRNG_ID,
    ClosedLoop,
    EdgeList,
    IncidenceMatrix,
    PlantGraph,
    Problem,
    closed_loop,
    complement_candidates,
    controller_laplacian,
    default_problem,
    generate,
    incidence_from_edges,
    random_geometric,
    read_edge_list,
    strengthened,
    write_edge_list,
)
from .objective import (
    Objective,
    QpMatrix,
    build_qp,
    eval_J,
    grad_J,
    hessian,
    hessian_column,
    hessian_diag,
    lyapunov_h2_oracle,
)
from .pipeline import (
    TradeoffPoint,
    default_gamma_grid,
    gamma_max,
    polish,
    reweighted_path,
    solve_centralized,
    sweep,
)
from .proxgrad import (
    ProxGradOptions,
    SolveReport,
    bb_step,
    soft_threshold,
    solve_ista,
    solve_projected,
)
from .proxnewton import NewtonOptions, active_set, cd_direction, line_search, solve_newton

__version__ = "0.1.0"

#: version string of the report/CSV serialization format
REPORT_FORMAT = "gsp-report-2"
