"""qpotlab: a laboratory for generalized quantum-potential models.

The classic quantum potential is the order-2 member of a family of
higher-Laplacian terms Q_2n = a_2n (-1)^n eps0 (hbar/mc)^2n lap^n(R)/R
whose exact-rational coefficients reproduce, order by order, the expansion
of the relativistic energy sqrt((pc)^2 + eps0^2).  The package provides:

- ``expr``/``elcheck`` — candidate potentials as N/D, quotients of
  Laurent polynomials in jet variables, and exact certification that a
  candidate is a stationary point of the density-weighted Euler-Lagrange
  expression;
- ``coeffs`` — the exact coefficient family and the truncated energy series;
- ``grid``/``qpotential`` — uniform grid functions, a symbol applied or
  taken as a quadratic form on the grid's own transform (the boundary
  picks the Fourier or sine transform), potential terms (each an even
  order and one coefficient), and the hierarchy of a spec's terms as
  one symbol sum A_2n (-k^2)^n, projected onto its convergence band
  |k| <= m c / hbar, with floor regularization;
- ``spectra`` — box and hydrogen stationary states (hydrogen as its
  reduced radial field on a Dirichlet grid), the perturbative energy
  shift of one term with an independent cross-check path for order 4,
  and a nonperturbative modified eigensolver;
- ``dynamics`` — integration of the modified (nonlinear) wave equation
  for node-free states, split-step with the exact kinetic exponential on
  the grid's Fourier or sine modes, plus guidance-velocity trajectories;
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
    energy_operator,
    evolve,
    integrate_trajectories,
    norm,
    sample_from_density,
)
from .elcheck import (  # noqa: F401
    Residual,
    ResidualReport,
    certify,
    euler_lagrange,
)
from .expr import (  # noqa: F401
    EvaluationError,
    ExprError,
    ExprSyntaxError,
    JetVariable,
    RationalFunction,
    parse_q_expression,
    to_text,
    value_at,
)
from .grid import (  # noqa: F401
    Grid,
    GridError,
    GridFunction,
    gradient,
    inner,
    integrate,
    quadratic_form,
    read_gridfunction,
    series_operator,
    write_gridfunction,
)
from .qpotential import (  # noqa: F401
    FINE_STRUCTURE,
    PhysicalParams,
    QTerm,
    QuantumPotentialSpec,
    complete_q_operator,
    electron_params,
    expectation_operator,
    hierarchy_symbol,
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
    hydrogen_band_fraction,
    hydrogen_radial_state,
    hydrogen_shift_closed_form,
    perturbative_shift,
    relativistic_reference_shift,
    solve_modified_eigenproblem,
)
