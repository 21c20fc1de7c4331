"""Transient acoustic-elastic scattering above an unbounded rough
surface, truncated by a real-stretched absorbing layer.

Library layout: model (parameters/geometry/sources), symbols (the exact
and layer boundary symbols and their audit), layer_bvp (per-mode layer
problem), mesh and fem (strip triangulation and frequency-domain
solver), timedomain (Newmark integration and contour synthesis), xform
(Laplace-transform utilities), config/cli (harness).  The package holds
what the subcommands and the benchmark run; the reference oracles the
tests compare against live in tests/oracles.py.
"""

__version__ = "0.1.0"

from .model import (Geometry, GeometryError, MediaParams, OutOfLayerError,
                    PmlProfile, Pulse, Rectangle, SourceSpec,
                    SurfaceProfile, check_source, sigma_profile,
                    stretched_coordinate, validate_media)
from .symbols import (BranchError, SymbolAudit, beta_grid, cu_bound,
                      default_xi_grid, dtn_symbol_grid, principal_sqrt,
                      symbol_gap_sup)
from .layer_bvp import (LayerMode, LayerSolution, analytic_layer_solution,
                        fd_layer_solve, numeric_dtn_at_h)
from .mesh import StripMesh, build_mesh, export_mesh
from .fem import (AssemblyError, FemBlocks, FrequencySolution,
                  FrequencySystem, SingularSystemError, assemble,
                  build_blocks, dofs_to_nodal, dtn_block, h_norm_sq,
                  load_vector, shared_dofs, solve_frequency,
                  source_l2_norm, stability_ratios, term_weights)
from .timedomain import (ContourConfig, ProbeSet, TimeTrajectory,
                         contour_synthesize, energy_trace, locate_probes,
                         newmark_run)
from .xform import (SampledSignal, TruncationWarning, inverse_laplace_grid,
                    laplace_grid, laplace_numeric, parseval_residual,
                    transform_property_check)
from .config import ConfigError, RunConfig, load_config
