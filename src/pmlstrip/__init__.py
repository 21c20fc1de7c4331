"""Transient acoustic-elastic scattering above an unbounded rough
surface, truncated by a real-stretched absorbing layer.

Library layout: model (parameters/geometry/sources), symbols (modal
boundary-map calculus), layer_bvp (per-mode layer problem), mesh and
fem (strip triangulation and frequency-domain solver), timedomain
(Newmark integration and contour synthesis), xform (Laplace-transform
utilities), config/cli (harness).
"""

__version__ = "0.1.0"

from .model import (Geometry, GeometryError, MediaParams, OutOfLayerError,
                    PmlProfile, Pulse, Rectangle, SourceSpec,
                    SurfaceProfile, check_source, effective_thickness,
                    sigma_profile, stretched_coordinate, validate_media)
from .symbols import (BoundaryTrace, BranchError, SymbolAudit, apply_dtn,
                      beta, beta_grid, cu_bound, default_xi_grid,
                      dtn_symbol, dtn_symbol_grid, pml_dtn_symbol,
                      principal_sqrt, symbol_gap, symbol_gap_sup,
                      trace_sobolev_norm, weighted_gap)
from .layer_bvp import (LayerMode, LayerSolution, analytic_layer_solution,
                        fd_layer_solve, numeric_dtn_at_h)
from .mesh import StripMesh, build_mesh, export_mesh
from .fem import (AssemblyError, FemBlocks, FrequencySolution,
                  FrequencySystem, SingularSystemError, assemble,
                  build_blocks, coercivity_probe, dofs_to_nodal, dtn_block,
                  fluid_error_norms, free_dofs, frequency_matrix,
                  h_norm_sq, load_vector, manufactured_residual,
                  nodal_to_dofs, solve_frequency, source_l2_norm,
                  stability_ratios, term_weights)
from .timedomain import (ContourConfig, ProbeSet, TimeTrajectory,
                         causality_margin, contour_synthesize,
                         energy_trace, locate_probes, newmark_run,
                         probe_values, reconstruct_signal, synthesize,
                         time_matrices)
from .xform import (SampledSignal, TruncationWarning, inverse_laplace_grid,
                    laplace_grid, laplace_numeric, parseval_residual,
                    transform_property_check)
from .config import ConfigError, RunConfig, load_config
