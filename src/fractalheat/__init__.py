"""Numerical laboratory for the stochastic heat equation on nested fractals.

Subpackages by role:

* geometry  -- iterated function systems, cell addressing, vertex graphs,
               Hausdorff-measure weights (Vicsek and gasket presets).
* kernel    -- graph-walk heat semigroups, spectral-dimension and Hoelder
               diagnostics, sub-Gaussian envelope fits.
* measure   -- stochastic measures transported from (0, 1] through the cell
               tree; Gaussian, symmetric-stable, and atomic bases.
* paramint  -- the parameter integral eta(z) = int h(z, y) dmu(y) by multiscale
               cell sums, with convergence and Hoelder diagnostics.
* solver    -- Picard iteration for the mild heat equation with additive
               measure noise, assumption gate, uniqueness and residual checks.
* verify    -- named acceptance checks (quick and full suites).
* cli       -- `fractalheat` command-line entry point.

Built objects (models, vertex sets, kernels, realizations, solutions) are
immutable after construction and safe for concurrent readers; construction
itself is single-threaded.
"""

from .geometry import (
    CellAddress,
    FractalModel,
    VertexSet,
    apply_word,
    build_preset,
    check_assumption1,
    vertex_set,
)
# NOTE: the table constructor fractalheat.kernel.kernel is not re-exported
# here; binding it at package level would shadow the submodule of the same name
from .kernel import (
    HeatKernel,
    HeatKernelTable,
    build_generator,
    estimate_spectral_dimension,
    fit_subgaussian,
    verify_holder,
)
from .measure import BaseSM, MeasureRealization, address_to_interval, integrate, realize
from .paramint import HFunction, eval_eta, eval_h, sigma_preset
from .solver import (
    ProblemSpec,
    assumption_gate,
    f_preset,
    picard_solve,
    prepare,
    u0_preset,
    uniqueness_check,
)

__version__ = "0.1.0"
