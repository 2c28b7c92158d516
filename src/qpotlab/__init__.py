"""qpotlab: a laboratory for generalized quantum-potential models.

The classic quantum potential is the order-2 member of a family of
higher-Laplacian terms Q_2n = a_2n (-1)^n eps0 (hbar/mc)^2n lap^n(R)/R
whose exact-rational coefficients reproduce, order by order, the expansion
of the relativistic energy sqrt((pc)^2 + eps0^2).  The package provides:

- ``expr``/``elcheck`` — jet-space symbolic expressions and randomized
  certification that a candidate potential is a stationary point of the
  density-weighted Euler-Lagrange expression;
- ``coeffs`` — the exact coefficient family and the truncated energy series;
- ``grid``/``qpotential`` — grid functions, Laplacian series sum c_n lap^n
  (the grid picks the transform or finite-difference backend), and
  evaluation of the potential hierarchy as one such series, with floor
  regularization;
- ``spectra`` — box and hydrogen stationary states, perturbative energy
  shifts with an independent cross-check path, and a nonperturbative
  modified eigensolver;
- ``dynamics`` — integration of the modified (nonlinear) wave equation,
  split-step on periodic grids and Crank-Nicolson on Dirichlet ones, plus
  guidance-velocity trajectories;
- ``cli`` — reproducible command-line scenarios with manifest output.
"""

__version__ = "1.0.0"

from .coeffs import (  # noqa: F401
    CoefficientTable,
    SeriesDivergenceWarning,
    a2n,
    coefficient_table,
    sqrt_binomial_coeff,
    truncated_energy,
)
from .dynamics import (  # noqa: F401
    EvolutionConfig,
    EvolutionResult,
    TrajectorySet,
    WaveField,
    bohmian_velocity,
    energy_functional,
    evolve,
    integrate_trajectories,
    norm,
    quantum_force,
    sample_from_density,
)
from .elcheck import (  # noqa: F401
    ResidualReport,
    build_el_residual,
    certify,
    el_residual_terms,
)
from .expr import (  # noqa: F401
    EvaluationError,
    ExprError,
    ExprSyntaxError,
    JetPoint,
    JetVariable,
    canonical,
    evaluate,
    evaluate_exact,
    laplacian_expr,
    parse_q_expression,
    to_text,
    total_derivative,
)
from .grid import (  # noqa: F401
    Grid,
    GridError,
    GridFunction,
    gradient,
    inner,
    integrate,
    laplacian_series,
    laplacian_symbol,
    power_laplacian,
    read_gridfunction,
    write_gridfunction,
)
from .qpotential import (  # noqa: F401
    FINE_STRUCTURE,
    PhysicalParams,
    QTerm,
    QuantumPotentialSpec,
    electron_params,
    eval_complete_q,
    eval_q2n,
    expectation,
    load_spec,
    natural_params,
    params_by_name,
    proton_params,
    scale_ratio,
    term_ratio,
    term_ratio_on_grid,
)
from .spectra import (  # noqa: F401
    ShiftResult,
    StationaryState,
    bohr_radius,
    box_eigenstate,
    box_shift_closed_form,
    compare_shifts,
    hydrogen_radial_state,
    hydrogen_shift_closed_form,
    perturbative_shift,
    relativistic_reference_shift,
    solve_modified_eigenproblem,
)
