"""First-order finite elements for the coupled fluid-solid strip problem.

One continuous P1 space for the pressure on the fluid (and layer)
region, two P1 components for the displacement on the inclusion.  The
assembly produces s-independent real blocks (K, M, K_div, K_eps,
M_solid, C_pu, C_up).  One weight table (term_weights) gives each block
a mass and a stiffness weight in the real transient system
M d'' + K d = f; the frequency-domain form is its Laplace transform,
with weights theta(s) = r(s) (w_K + s^2 w_M), r = 1/s on pressure test
rows and rho0 conj(s) on displacement test rows, plus -B(s)/s on
Gamma_h x Gamma_h for the truncated Fourier-mode multiplier B(s) on
x3 = h.  On first use per variant family the blocks are laid out as one
term table (AffineForm), which the contour solves and Newmark both
combine with their weights.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import FLUID, MARKER_GAMMA, MARKER_GAMMA_F, MARKER_GAMMA_HL, \
    PML, SOLID, StripMesh
from .model import MediaParams, PmlProfile, sigma_profile
from .symbols import dtn_symbol_grid

VARIANTS = ("exact_dtn", "pml_dtn", "pml_layer")

# edge-midpoint quadrature on the reference triangle (degree 2)
_PHI_MID = np.array([[0.5, 0.5, 0.0],
                     [0.0, 0.5, 0.5],
                     [0.5, 0.0, 0.5]])


class AssemblyError(ValueError):
    pass


class SingularSystemError(RuntimeError):
    pass


# SuperLU column ordering of every factorization: minimum degree on the
# pattern of A + A^T, which suits the structurally symmetric FEM systems
# (the default COLAMD ignores that symmetry and fills about 1.6x more)
LU_ORDERING = "MMD_AT_PLUS_A"
# Relative size at which a diagonal entry is kept as the pivot.  With
# SuperLU's default 1.0 the row interchanges of the indefinite
# frequency systems at large |s| undo the order (3,553 dofs, s = 0.5 +
# 200i: 3.4M LU nonzeros against 0.35M); solve_frequency's residual
# check and refinement guard the weaker pivoting.
DIAG_PIVOT_THRESH = 0.01


def factorize(A: sp.spmatrix) -> spla.SuperLU:
    """Sparse LU of a square matrix (CSC preferred) with LU_ORDERING and
    DIAG_PIVOT_THRESH; the one sparse factorization of the package."""
    try:
        return spla.splu(A, permc_spec=LU_ORDERING,
                         diag_pivot_thresh=DIAG_PIVOT_THRESH)
    except RuntimeError as exc:
        raise SingularSystemError(str(exc)) from exc


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask (which `taskset`
    narrows), or the machine's count where the platform has no mask."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def map_solves(solve, items) -> list:
    """[solve(item) for item in items], side by side on one thread per
    CPU (_cpu_count): SuperLU and the sparse kernels release the GIL.

    The first item runs in the calling thread, so whatever the solves
    build lazily (FemBlocks cache entries and blocks assembled on first
    read) is built there, before the rest fan out and only read it.
    Results come back in input order; the exception of the first
    failing item is re-raised and the items not yet started are
    dropped.  Each result equals the serial loop's bit for bit, as long
    as solve(item) depends on its item alone.
    """
    items = list(items)
    if not items:
        return []
    first = solve(items[0])
    with ThreadPoolExecutor(max_workers=_cpu_count()) as pool:
        return [first] + list(pool.map(solve, items[1:]))


# ---------------------------------------------------------------------------
# degrees of freedom
# ---------------------------------------------------------------------------

@dataclass
class DofMap:
    """Global unknown numbering: pressure dofs first, then interleaved
    displacement components, all on periodic master nodes.

    node_dof[v] = (pressure, u1, u2) dofs of vertex v, which a periodic
    slave shares with its master; ``size`` (one past the last dof) marks
    a vertex without that dof.
    """

    p_nodes: np.ndarray        # master node ids carrying a pressure dof
    u_nodes: np.ndarray        # master node ids carrying displacement dofs
    node_dof: np.ndarray       # (n_vertices, 3)

    @property
    def n_p(self) -> int:
        return self.p_nodes.size

    @property
    def n_u(self) -> int:
        return self.u_nodes.size

    @property
    def size(self) -> int:
        return self.n_p + 2 * self.n_u

    def pdof(self, nodes) -> np.ndarray:
        return self._lookup(nodes, 0)

    def udof(self, nodes, comp) -> np.ndarray:
        return self._lookup(nodes, 1 + comp)

    def _lookup(self, nodes, col) -> np.ndarray:
        dofs = self.node_dof[np.atleast_1d(nodes), col]
        if np.any(dofs == self.size):
            raise KeyError("vertex without the requested dof")
        return dofs


def build_dofmap(mesh: StripMesh) -> DofMap:
    p_nodes = mesh.masters(mesh.nodes_of_region(FLUID, PML))
    u_nodes = mesh.masters(mesh.nodes_of_region(SOLID))
    n_p, size = p_nodes.size, p_nodes.size + 2 * u_nodes.size
    node_dof = np.full((mesh.n_vertices, 3), size, dtype=np.int64)
    node_dof[p_nodes, 0] = np.arange(n_p)
    node_dof[u_nodes, 1] = n_p + 2 * np.arange(u_nodes.size)
    node_dof[u_nodes, 2] = node_dof[u_nodes, 1] + 1
    return DofMap(p_nodes=p_nodes, u_nodes=u_nodes,
                  node_dof=node_dof[mesh.node_master])


# ---------------------------------------------------------------------------
# element geometry
# ---------------------------------------------------------------------------

def _tri_geometry(mesh: StripMesh, which: np.ndarray):
    """Areas, constant basis gradients and edge midpoints of a subset of
    triangles."""
    tris = mesh.triangles[which]
    c = mesh.vertices[tris]                     # (nt, 3, 2)
    d1 = c[:, 1] - c[:, 0]
    d2 = c[:, 2] - c[:, 0]
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    area = 0.5 * np.abs(det)
    # gradients of barycentric coordinates
    g = np.empty((tris.shape[0], 3, 2))
    g[:, 1, 0] = d2[:, 1] / det
    g[:, 1, 1] = -d2[:, 0] / det
    g[:, 2, 0] = -d1[:, 1] / det
    g[:, 2, 1] = d1[:, 0] / det
    g[:, 0] = -g[:, 1] - g[:, 2]
    mid = 0.5 * (c[:, [0, 1, 2]] + c[:, [1, 2, 0]])   # (nt, 3, 2)
    return tris, c, area, g, mid


def _scatter(dofr, dofc, vals, shape):
    return sp.coo_matrix(
        (vals.ravel(), (dofr.ravel(), dofc.ravel())), shape=shape).tocsr()


# ---------------------------------------------------------------------------
# assembled blocks
# ---------------------------------------------------------------------------

@dataclass
class FemBlocks:
    """All s-independent matrices of the strip problem on one mesh.

    ``cache`` holds what is derived from the blocks on first use: the
    midpoint load operators and one AffineForm per variant family.  The
    blocks are not to be modified once either exists.  The fluid pair
    (which the boundary-map family reads too), the isotropic pair and
    K_solid_h1 are assembled on their first read: on a layer mesh only
    the H-norms read them.
    """

    mesh: StripMesh
    dof: DofMap
    n_modes: int

    K_all: sp.csr_matrix = None          # sigma-stretched grad-grad, fluid+pml
    M_all: sp.csr_matrix = None          # sigma-weighted mass, fluid+pml
    K_div: sp.csr_matrix = None          # div-div, solid
    K_eps: sp.csr_matrix = None          # 2 eps:eps, solid
    M_solid: sp.csr_matrix = None        # vector mass, solid
    C_pu: sp.csr_matrix = None           # rows: pressure tests, cols: u dofs
    C_up: sp.csr_matrix = None           # rows: u tests, cols: pressure dofs
    # modal analysis operator on the x3=h node row
    gamma_h_dofs: np.ndarray = None
    modal_E: np.ndarray = None           # (2N+1, n_h) analysis matrix
    modal_xi: np.ndarray = None
    n_modes_effective: int = 0           # n_modes clamped to (n_h - 1) // 2
    dirichlet_f: np.ndarray = None       # pressure dofs on the bottom surface
    dirichlet_hl: np.ndarray = None      # pressure dofs on the layer top
    above_h_pdofs: np.ndarray = None     # pressure dofs strictly above x3=h
    cache: dict = field(default_factory=dict, repr=False)

    @cached_property
    def _fluid_pair(self):
        fluid = np.flatnonzero(self.mesh.tri_region == FLUID)
        return _assemble_scalar(self.mesh, self.dof, fluid)

    @cached_property
    def _iso_pair(self):
        if self.mesh.pml is None:    # no layer triangles: the fluid pair
            return self._fluid_pair
        return _assemble_scalar(self.mesh, self.dof,
                                _fluid_and_layer(self.mesh))

    K_fluid = property(lambda self: self._fluid_pair[0],
                       doc="grad-grad, fluid region only")
    M_fluid = property(lambda self: self._fluid_pair[1],
                       doc="mass, fluid region only")
    K_all_iso = property(lambda self: self._iso_pair[0],
                         doc="unweighted grad-grad, fluid+pml")
    M_all_iso = property(lambda self: self._iso_pair[1],
                         doc="unweighted mass, fluid+pml")

    @cached_property
    def K_solid_h1(self):
        """Componentwise grad-grad, solid."""
        return _assemble_solid(self.mesh, self.dof, h1=True)


def _assemble_scalar(mesh, dof, which, anisotropic=False, pml=None,
                     h=None):
    """Stiffness and mass over a triangle subset, optionally weighted by
    the layer profile (midpoint quadrature)."""
    tris, c, area, g, mid = _tri_geometry(mesh, which)
    nt = tris.shape[0]
    ndof = dof.size
    dofs = dof.node_dof[tris, 0]

    if pml is not None:
        sig = sigma_profile(mid[:, :, 1], pml, h)       # (nt, 3)
        int_sig = area * sig.mean(axis=1)
        int_inv = area * (1.0 / sig).mean(axis=1)
    else:
        sig = np.ones((nt, 3))
        int_sig = area
        int_inv = area

    if anisotropic:
        K = int_sig[:, None, None] * np.einsum("tia,tja->tij",
                                               g[:, :, :1], g[:, :, :1]) \
            + int_inv[:, None, None] * np.einsum("tia,tja->tij",
                                                 g[:, :, 1:], g[:, :, 1:])
    else:
        K = area[:, None, None] * np.einsum("tia,tja->tij", g, g)

    Mel = np.einsum("tq,qi,qj->tij", (area / 3.0)[:, None] * sig,
                    _PHI_MID, _PHI_MID)

    rows = np.repeat(dofs, 3, axis=1)
    cols = np.tile(dofs, (1, 3))
    Km = _scatter(rows, cols, K.reshape(nt, 9), (ndof, ndof))
    Mm = _scatter(rows, cols, Mel.reshape(nt, 9), (ndof, ndof))
    return Km, Mm


def _assemble_solid(mesh, dof, h1=False):
    """Solid blocks (K_div, K_eps, M_solid), or with h1 the
    componentwise H1 stiffness K_solid_h1 alone."""
    which = np.flatnonzero(mesh.tri_region == SOLID)
    ndof = dof.size
    if which.size == 0:
        z = sp.csr_matrix((ndof, ndof))
        return z if h1 else (z, z, z)
    tris, c, area, g, mid = _tri_geometry(mesh, which)
    nt = tris.shape[0]
    # interleaved (node, comp) dofs
    dcomp = dof.node_dof[tris][:, :, 1:].reshape(nt, 6)
    rows = np.repeat(dcomp, 6, axis=1)
    cols = np.tile(dcomp, (1, 6))

    def scatter(X):
        return _scatter(rows, cols, X.reshape(nt, 36), (ndof, ndof))

    def per_component(X):
        """Scalar element blocks, one copy per displacement component."""
        return np.einsum("tij,ab->tiajb", X, np.eye(2))

    gdot = np.einsum("tia,tja->tij", g, g)
    if h1:
        return scatter(per_component(area[:, None, None] * gdot))
    # div-div: A * g_i[a] * g_j[b]
    ga = g.reshape(nt, 6)                        # (i,a) flattened
    Kdiv = area[:, None, None] * np.einsum("ti,tj->tij", ga, ga)
    # 2 eps:eps: A * (delta_ab g_i.g_j + g_i[b] g_j[a])
    Keps = (per_component(gdot)
            + np.einsum("tib,tja->tiajb", g, g)).reshape(nt, 6, 6)
    Keps *= area[:, None, None]
    Mvec = per_component(np.einsum("t,qi,qj->tij", area / 3.0, _PHI_MID,
                                   _PHI_MID))
    return scatter(Kdiv), scatter(Keps), scatter(Mvec)


def _assemble_coupling(mesh, dof):
    """Interface blocks: C_pu[q_i, u_(j,k)] = int_Gamma n_k phi_j phi_i
    and its transpose-structured partner C_up."""
    edges = mesh.boundary_edges[MARKER_GAMMA]
    n = mesh.gamma_normals
    d = mesh.vertices[edges[:, 1]] - mesh.vertices[edges[:, 0]]
    ell = np.hypot(d[:, 0], d[:, 1])
    # entries indexed (edge, component k, test node i, trial node j)
    vals = (n * ell[:, None] / 6.0)[:, :, None, None] \
        * np.array([[2.0, 1.0], [1.0, 2.0]])
    rows = np.broadcast_to(dof.node_dof[edges, 0][:, None, :, None],
                           vals.shape)
    cols = np.broadcast_to(
        dof.node_dof[edges][:, :, 1:].transpose(0, 2, 1)[:, :, None, :],
        vals.shape)
    keep = np.broadcast_to((n != 0.0)[:, :, None, None], vals.shape)
    C_pu = sp.coo_matrix((vals[keep], (rows[keep], cols[keep])),
                         shape=(dof.size, dof.size)).tocsr()
    return C_pu, C_pu.T.tocsr()


def _modal_operator(mesh, dof, n_modes):
    """Quadrature analysis matrix mapping top-row nodal values to the
    2N+1 lowest Fourier coefficients on x3 = h."""
    nodes = mesh.gamma_h_nodes
    x = mesh.vertices[nodes, 0]
    period = mesh.geometry.period
    nh = nodes.size
    N = min(n_modes, (nh - 1) // 2)
    xp = np.concatenate([[x[-1] - period], x, [x[0] + period]])
    w = 0.5 * (xp[2:] - xp[:-2])
    n = np.arange(-N, N + 1)
    xi = 2.0 * np.pi * n / period
    E = (w / period) * np.exp(-1j * np.outer(xi, x))
    return dof.pdof(nodes), E, xi, N


def build_blocks(mesh: StripMesh, n_modes: int = 64) -> FemBlocks:
    dof = build_dofmap(mesh)
    blk = FemBlocks(mesh=mesh, dof=dof, n_modes=n_modes)

    if mesh.pml is None:    # no layer triangles: the fluid pair
        blk.K_all, blk.M_all = blk.K_fluid, blk.M_fluid
    else:
        blk.K_all, blk.M_all = _assemble_scalar(
            mesh, dof, _fluid_and_layer(mesh), anisotropic=True,
            pml=mesh.pml, h=mesh.geometry.h)
    blk.K_div, blk.K_eps, blk.M_solid = _assemble_solid(mesh, dof)
    blk.C_pu, blk.C_up = _assemble_coupling(mesh, dof)
    blk.gamma_h_dofs, blk.modal_E, blk.modal_xi, blk.n_modes_effective = \
        _modal_operator(mesh, dof, n_modes)

    gf = mesh.masters(np.unique(mesh.boundary_edges[MARKER_GAMMA_F]))
    blk.dirichlet_f = dof.pdof(gf)
    ghl = mesh.boundary_edges.get(MARKER_GAMMA_HL,
                                  np.zeros(0, dtype=np.int64))
    blk.dirichlet_hl = dof.pdof(mesh.masters(np.unique(ghl)))
    h = mesh.geometry.h
    blk.above_h_pdofs = dof.pdof(
        dof.p_nodes[mesh.vertices[dof.p_nodes, 1] > h + 1e-12])
    return blk


def _fluid_and_layer(mesh):
    return np.flatnonzero(np.isin(mesh.tri_region, (FLUID, PML)))


# ---------------------------------------------------------------------------
# frequency-domain system
# ---------------------------------------------------------------------------

@dataclass
class FrequencySystem:
    matrix: sp.csc_matrix           # reduced to free dofs
    rhs: np.ndarray
    free: np.ndarray                # free dof indices in the global space
    blocks: FemBlocks
    media: MediaParams
    s: complex
    variant: str


@dataclass
class FrequencySolution:
    p_hat: np.ndarray               # per mesh vertex (complex)
    u_hat: np.ndarray               # (n_vertices, 2) complex
    x: np.ndarray                   # global dof vector
    system: FrequencySystem
    residual: float = 0.0
    ordering: str = LU_ORDERING     # column ordering of the factorization
    lu_nnz: int = 0                 # nonzeros of its L and U factors

    @property
    def s(self) -> complex:
        return self.system.s


def dtn_block(blk: FemBlocks, media: MediaParams, s: complex,
              variant: str, pml: PmlProfile | None = None) -> np.ndarray:
    """Dense Gamma_h block representing int_{Gamma_h} B[p] conj(q):
    period * E^H diag(symbol) E via the trace Parseval identity."""
    if variant not in ("exact_dtn", "pml_dtn"):
        raise AssemblyError("no boundary operator for variant "
                            f"{variant!r}")
    profile = pml if pml is not None else blk.mesh.pml
    if variant == "pml_dtn" and profile is None:
        raise AssemblyError("pml_dtn variant needs a layer profile")
    sym = dtn_symbol_grid(blk.modal_xi, s, media.c, profile.L_tilde
                          if variant == "pml_dtn" else None)
    E = blk.modal_E
    return blk.mesh.geometry.period * (E.conj().T * sym) @ E


def free_dofs(blk: FemBlocks, variant: str) -> np.ndarray:
    """Active unknowns for the chosen formulation."""
    keep = np.ones(blk.dof.size, dtype=bool)
    keep[blk.dirichlet_f] = False
    if variant == "pml_layer":
        if blk.mesh.pml is None:
            raise AssemblyError("pml_layer variant needs a mesh with an "
                                "absorbing layer")
        keep[blk.dirichlet_hl] = False
    else:
        keep[blk.above_h_pdofs] = False
    return np.flatnonzero(keep)


@dataclass
class AffineForm:
    """The s-independent part of one variant family's form.

    terms[q] holds the block weighted by theta_q (module docstring) on
    the sparsity pattern of ``pattern``: the union of the blocks'
    nonzeros and, for the boundary-map family, every Gamma_h x Gamma_h
    pair, at positions gamma_slots (row-major).  ``gather`` picks the
    values of the free-dof submatrix in the order of ``reduced``.
    """

    pattern: sp.csr_matrix
    terms: np.ndarray               # (7, nnz) real
    gamma_slots: np.ndarray
    free: np.ndarray
    gather: np.ndarray
    reduced: sp.csc_matrix


def _affine_form(blk: FemBlocks, variant: str) -> AffineForm:
    """Term table of the variant's family, built on its first use."""
    if variant not in VARIANTS:
        raise AssemblyError(f"unknown variant {variant!r}")
    layer = variant == "pml_layer"
    if ("affine", layer) in blk.cache:
        return blk.cache["affine", layer]
    free = free_dofs(blk, variant)
    n = blk.dof.size
    blocks = [blk.K_all, blk.M_all] if layer else [blk.K_fluid, blk.M_fluid]
    blocks += [blk.K_div, blk.K_eps, blk.M_solid, blk.C_pu, blk.C_up]
    gh = np.zeros(0, dtype=np.int64) if layer else blk.gamma_h_dofs
    gh_rows, gh_cols = np.repeat(gh, gh.size), np.tile(gh, gh.size)
    # sparse sums drop exact zeros: the pattern keeps the positions where
    # some term is nonzero, as the sum of the weighted blocks would
    pattern = sum((abs(A) for A in blocks), sp.csr_matrix(
        (np.ones(gh_rows.size), (gh_rows, gh_cols)), shape=(n, n)))
    pattern.sort_indices()
    rows = np.repeat(np.arange(n), np.diff(pattern.indptr))
    keys = rows * n + pattern.indices
    terms = np.zeros((len(blocks), keys.size))
    for q, A in enumerate(blocks):
        A = A.tocoo()
        nz = A.data != 0.0
        np.add.at(terms[q], np.searchsorted(
            keys, A.row[nz].astype(np.int64) * n + A.col[nz]), A.data[nz])
    rank = np.full(n, -1)
    rank[free] = np.arange(free.size)
    r, c = rank[rows], rank[pattern.indices]
    gather = np.flatnonzero((r >= 0) & (c >= 0))
    gather = gather[np.lexsort((r[gather], c[gather]))]
    reduced = sp.csc_matrix(
        (np.zeros(gather.size), r[gather],
         np.searchsorted(c[gather], np.arange(free.size + 1))),
        shape=(free.size, free.size))
    form = AffineForm(pattern=pattern, terms=terms,
                      gamma_slots=np.searchsorted(keys, gh_rows * n + gh_cols),
                      free=free, gather=gather, reduced=reduced)
    blk.cache["affine", layer] = form
    return form


# test rows of each term: pressure (True) or displacement
_PRESSURE_ROWS = np.array([True, True, False, False, False, True, False])


def term_weights(media: MediaParams) -> tuple[np.ndarray, np.ndarray]:
    """(w_M, w_K): mass and stiffness weight of each term in the real
    layer system.  Fluid rows: (sigma/c^2) p'' + stretched stiffness with
    the kinematic coupling -rho0 n.u''; solid rows: rho_e u'' + elastic
    stiffness with the traction coupling +p n."""
    return (np.array([0.0, 1.0 / media.c ** 2, 0.0, 0.0, media.rho_e,
                      -media.rho0, 0.0]),
            np.array([1.0, 0.0, media.lam, media.mu, 0.0, 0.0, 1.0]))


def _form_data(blk, media, s, variant, pml):
    """(AffineForm, complex values on its pattern) of the form at s."""
    form = _affine_form(blk, variant)
    w_M, w_K = term_weights(media)
    theta = np.where(_PRESSURE_ROWS, 1.0 / s, media.rho0 * np.conj(s)) \
        * (w_K + s * s * w_M)
    data = theta.real @ form.terms + 1j * (theta.imag @ form.terms)
    if form.gamma_slots.size:
        data[form.gamma_slots] -= \
            (dtn_block(blk, media, s, variant, pml) / s).ravel()
    return form, data


def _with_data(template, data):
    """A sparse matrix with the template's pattern and the given values."""
    return type(template)((data, template.indices, template.indptr),
                          shape=template.shape)


def frequency_matrix(blk: FemBlocks, media: MediaParams,
                     s: complex, variant: str,
                     pml: PmlProfile | None = None) -> sp.csr_matrix:
    """Global (unreduced) matrix of the chosen sesquilinear form, with
    rows = test dofs and columns = trial dofs: the family's term table
    (built on first use, then shared with assemble) combined at s."""
    form, data = _form_data(blk, media, s, variant, pml)
    return _with_data(form.pattern, data)


def load_vector(blk: FemBlocks, spatial):
    """Nodal load int_{Omega_h} chi(x) phi_i dx (fluid region only; the
    source is supported below x3 = h)."""
    return _midpoint_load(blk, spatial)


def source_l2_norm(blk: FemBlocks, spatial) -> float:
    """||chi||_{L2(Omega_h)}: the load of chi^2 summed over the nodal
    basis, which is a partition of unity."""
    chi_sq = load_vector(blk, lambda x, z: spatial(x, z) ** 2)
    return float(np.sqrt(max(chi_sq.sum(), 0.0)))


def _midpoint_load(blk: FemBlocks, func, region=FLUID, col=0) -> np.ndarray:
    """int_region func phi_i by edge-midpoint quadrature, onto the dofs
    in column col of node_dof: one sparse product with the region's
    load operator, built on first use."""
    if ("load", region, col) not in blk.cache:
        which = np.flatnonzero(blk.mesh.tri_region == region)
        tris, c, area, g, mid = _tri_geometry(blk.mesh, which)
        w = (area / 3.0)[:, None, None] * _PHI_MID        # (t, q, i)
        rows = np.broadcast_to(blk.dof.node_dof[tris, col][:, None, :],
                               w.shape)
        cols = np.broadcast_to(
            np.arange(w.shape[0] * 3).reshape(-1, 3, 1), w.shape)
        op = sp.csr_matrix((w.ravel(), (rows.ravel(), cols.ravel())),
                           shape=(blk.dof.size, w.shape[0] * 3))
        blk.cache["load", region, col] = (mid[:, :, 0], mid[:, :, 1], op)
    x1, x3, op = blk.cache["load", region, col]
    return op @ np.broadcast_to(func(x1, x3), x1.shape).ravel()


def assemble(blk: FemBlocks, media: MediaParams, s: complex,
             g_hat_spatial, g_hat_scale: complex, variant: str,
             pml: PmlProfile | None = None) -> FrequencySystem:
    """Assemble the reduced linear system for one Laplace frequency.

    The transformed source is g_hat(x, s) = g_hat_scale * chi(x); the
    right-hand side of the variational problem is int g_hat / c^2 * q.
    """
    form, data = _form_data(blk, media, s, variant, pml)
    free = form.free
    rhs = np.zeros(free.size, dtype=complex)
    if g_hat_spatial is not None:
        rhs = (g_hat_scale / media.c ** 2) \
            * load_vector(blk, g_hat_spatial)[free].astype(complex)
    return FrequencySystem(matrix=_with_data(form.reduced,
                                             data[form.gather]),
                           rhs=rhs, free=free, blocks=blk, media=media, s=s,
                           variant=variant)


def solve_frequency(system: FrequencySystem,
                    rhs: np.ndarray | None = None) -> FrequencySolution:
    """Sparse direct solve with a residual check and one step of
    iterative refinement if needed."""
    b = system.rhs if rhs is None else rhs
    lu = factorize(system.matrix)
    x = lu.solve(b)
    norm_b = np.linalg.norm(b)
    if norm_b > 0:
        r = b - system.matrix @ x
        if np.linalg.norm(r) > 1e-10 * norm_b:
            x = x + lu.solve(r)
            r = b - system.matrix @ x
            if np.linalg.norm(r) > 1e-8 * norm_b:
                raise SingularSystemError(
                    f"relative residual {np.linalg.norm(r)/norm_b:.2e}")
        res = float(np.linalg.norm(b - system.matrix @ x) / norm_b)
    else:
        res = 0.0
    x_all = np.zeros(system.blocks.dof.size, dtype=complex)
    x_all[system.free] = x
    p_hat, u_hat = dofs_to_nodal(system.blocks, x_all)
    return FrequencySolution(p_hat=p_hat, u_hat=u_hat, x=x_all,
                             system=system, residual=res, lu_nnz=lu.nnz)


# ---------------------------------------------------------------------------
# norms and probes
# ---------------------------------------------------------------------------

def nodal_to_dofs(blk: FemBlocks, p_nodal: np.ndarray,
                  u_nodal: np.ndarray | None = None) -> np.ndarray:
    """Pack per-vertex fields, p (n_vertices, ...) and u (n_vertices, 2,
    ...), into global dof vectors (n_dofs, ...) of their common dtype;
    trailing axes such as time steps are carried along."""
    p = np.asarray(p_nodal)
    u = np.zeros(0) if u_nodal is None else np.asarray(u_nodal)
    x = np.zeros((blk.dof.size,) + p.shape[1:],
                 dtype=np.result_type(p, u, 0.0))
    x[:blk.dof.n_p] = p[blk.dof.p_nodes]
    if u_nodal is not None and blk.dof.n_u:
        x[blk.dof.n_p::2] = u[blk.dof.u_nodes, 0]
        x[blk.dof.n_p + 1::2] = u[blk.dof.u_nodes, 1]
    return x


def dofs_to_nodal(blk: FemBlocks, x: np.ndarray):
    """Per-vertex (p, u) of a global dof vector, the inverse of
    nodal_to_dofs: periodic slaves repeat their master and a vertex
    without a dof reads 0."""
    padded = np.append(x, np.zeros(1, dtype=x.dtype))
    return padded[blk.dof.node_dof[:, 0]], padded[blk.dof.node_dof[:, 1:]]


def h_norm_sq(blk: FemBlocks, x: np.ndarray, layer: bool = False):
    """Squared norm of the product space: fluid H1 plus solid
    (L2 + componentwise H1) of global dof vectors x (n_dofs, ...); a
    float for one vector, else an array over the trailing axes."""
    Kf = blk.K_all_iso if layer else blk.K_fluid
    Mf = blk.M_all_iso if layer else blk.M_fluid
    G = Kf + Mf + blk.M_solid + blk.K_solid_h1
    q = np.einsum("i...,i...->...", x.conj(), G @ x).real
    return float(q) if q.ndim == 0 else q


def quadratic_form(A: sp.spmatrix, x: np.ndarray) -> complex:
    return complex(np.vdot(x, A @ x))


def coercivity_probe(blk: FemBlocks, media: MediaParams, s: complex,
                     omega: np.ndarray, variant: str = "exact_dtn",
                     pml: PmlProfile | None = None, matrix=None):
    """Return (Re a(omega, omega), ||omega||_H^2) for a global dof
    vector omega supported on the free dofs.

    Pass a precomputed form matrix to amortize assembly over many
    probes.
    """
    A = matrix if matrix is not None \
        else frequency_matrix(blk, media, s, variant, pml)
    w = np.where(np.isin(np.arange(blk.dof.size), free_dofs(blk, variant)),
                 omega, 0.0)
    re_a = float(np.real(quadratic_form(A, w)))
    return re_a, h_norm_sq(blk, w, layer=(variant == "pml_layer"))


def _sqrt_form(A: sp.spmatrix, x: np.ndarray) -> float:
    return float(np.sqrt(max(quadratic_form(A, x).real, 0.0)))


def stability_ratios(sol: FrequencySolution, g_norm: float) -> dict:
    """Solution norms against the right-hand sides of the frequency
    stability estimates."""
    sys_ = sol.system
    blk, media, s = sys_.blocks, sys_.media, sys_.s
    s1 = s.real
    layer = sys_.variant == "pml_layer"
    x = sol.x
    Kf = blk.K_all_iso if layer else blk.K_fluid
    Mf = blk.M_all_iso if layer else blk.M_fluid
    lhs = {"fluid_lhs": _sqrt_form(Kf, x) + abs(s) * _sqrt_form(Mf, x),
           "solid_lhs": _sqrt_form(blk.K_solid_h1, x)
           + _sqrt_form(blk.K_div, x) + abs(s) * _sqrt_form(blk.M_solid, x)}
    if g_norm == 0.0:
        ratio = 0.0 if lhs["fluid_lhs"] + lhs["solid_lhs"] == 0 else np.inf
        return {"fluid_ratio": ratio, "solid_ratio": ratio, **lhs}
    if sys_.variant in ("exact_dtn", "pml_dtn"):
        env_f = abs(s) / s1 * g_norm
        env_s = g_norm / (s1 * min(1.0, s1))
    else:
        pml = blk.mesh.pml
        factor = 1.0 + pml.sigma0 / s1
        env_f = factor * abs(s) / s1 * g_norm
        env_s = np.sqrt(factor) / (s1 * min(1.0, s1)) * g_norm
    return {"fluid_ratio": lhs["fluid_lhs"] / env_f,
            "solid_ratio": lhs["solid_lhs"] / env_s, **lhs}


# ---------------------------------------------------------------------------
# manufactured solutions
# ---------------------------------------------------------------------------

def manufactured_residual(blk: FemBlocks, media: MediaParams, s: complex,
                          p_expr, u_expr=None):
    """Turn closed-form fields into consistent data for the strip
    problem.

    p_expr is a sympy expression in (x1, x3) vanishing on the bottom
    surface with zero value and zero x3-slope on x3 = h; u_expr is an
    optional pair of sympy expressions on the inclusion.  Returns
    (rhs_vector, p_exact_nodal, u_exact_nodal).
    """
    import sympy as sym

    x1, x3 = sym.symbols("x1 x3", real=True)
    c, rho0, rho_e = media.c, media.rho0, media.rho_e

    trace = sym.simplify(p_expr.subs(x3, blk.mesh.geometry.h))
    if trace != 0:
        raise AssemblyError("manufactured pressure must vanish on x3 = h")

    F_f = -sym.diff(p_expr, x1, 2) / s - sym.diff(p_expr, x3, 2) / s \
        + s / c ** 2 * p_expr
    f_fluid = sym.lambdify((x1, x3), F_f, "numpy")

    mesh, dof = blk.mesh, blk.dof
    rhs = _midpoint_load(blk, f_fluid).astype(complex)

    grad_p = [sym.lambdify((x1, x3), sym.diff(p_expr, v), "numpy")
              for v in (x1, x3)]
    p_num = sym.lambdify((x1, x3), p_expr, "numpy")

    u_num = None
    if u_expr is not None:
        lam, mu = media.lam, media.mu
        u1e, u2e = u_expr
        div_u = sym.diff(u1e, x1) + sym.diff(u2e, x3)
        # Lame operator: div sigma(u)
        sig11 = lam * div_u + 2 * mu * sym.diff(u1e, x1)
        sig22 = lam * div_u + 2 * mu * sym.diff(u2e, x3)
        sig12 = mu * (sym.diff(u1e, x3) + sym.diff(u2e, x1))
        lame1 = sym.diff(sig11, x1) + sym.diff(sig12, x3)
        lame2 = sym.diff(sig12, x1) + sym.diff(sig22, x3)
        # solid volume residual of the rho0*conj(s)-scaled weak form
        Fs1 = rho0 * np.conj(s) * (-lame1 + rho_e * s ** 2 * u1e)
        Fs2 = rho0 * np.conj(s) * (-lame2 + rho_e * s ** 2 * u2e)
        fs = [sym.lambdify((x1, x3), e, "numpy") for e in (Fs1, Fs2)]

        for comp in (0, 1):
            rhs += _midpoint_load(blk, fs[comp], SOLID, 1 + comp)

        sig_num = [sym.lambdify((x1, x3), e, "numpy")
                   for e in (sig11, sig12, sig22)]
        u_num = [sym.lambdify((x1, x3), e, "numpy") for e in (u1e, u2e)]

        # interface corrections: the weak form imposed
        #   dn p = -rho0 s^2 n.u   and   sigma(u) n = -p n
        # exactly; add the manufactured imbalances as extra data.
        edges, n = mesh.boundary_edges[MARKER_GAMMA], mesh.gamma_normals
        va, vb = mesh.vertices[edges[:, 0]], mesh.vertices[edges[:, 1]]
        half = 0.5 * np.hypot(*(vb - va).T)
        for t in (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)):
            # one point of the 2-point Gauss rule on every edge
            xq = (1 - t) * va + t * vb
            f = [np.broadcast_to(g(xq[:, 0], xq[:, 1]), half.shape)
                 for g in grad_p + u_num + sig_num + [p_num]]
            dpdx1, dpdx3, u1, u2, s11, s12, s22, pq = f
            r1 = n[:, 0] * dpdx1 + n[:, 1] * dpdx3 \
                + rho0 * s ** 2 * (n[:, 0] * u1 + n[:, 1] * u2)
            shp = np.outer(half, [1 - t, t])        # shape x weight
            np.add.at(rhs, dof.node_dof[edges, 0],
                      -(1.0 / s) * r1[:, None] * shp)
            r2 = (s11 * n[:, 0] + s12 * n[:, 1] + pq * n[:, 0],
                  s12 * n[:, 0] + s22 * n[:, 1] + pq * n[:, 1])
            for comp in (0, 1):
                np.add.at(rhs, dof.node_dof[edges, 1 + comp],
                          rho0 * np.conj(s) * r2[comp][:, None] * shp)

    # exact nodal fields for error measurement
    p_exact = np.asarray(p_num(mesh.vertices[:, 0], mesh.vertices[:, 1]),
                         dtype=complex)
    p_exact = np.broadcast_to(p_exact, (mesh.n_vertices,)).copy()
    gf = np.unique(mesh.boundary_edges[MARKER_GAMMA_F])
    scale = max(1.0, float(np.max(np.abs(p_exact))))
    if np.max(np.abs(p_exact[gf])) > 1e-9 * scale:
        raise AssemblyError("manufactured pressure must vanish on the "
                            "bottom surface")
    u_exact = np.zeros((mesh.n_vertices, 2), dtype=complex)
    if u_num is not None:
        for comp in (0, 1):
            u_exact[:, comp] = u_num[comp](*mesh.vertices.T)
    return rhs, p_exact, u_exact


def fluid_error_norms(blk: FemBlocks, p_num: np.ndarray,
                      p_ref: np.ndarray) -> tuple[float, float]:
    """(L2, H1) norms of a nodal pressure difference over the fluid
    region below x3 = h."""
    e = nodal_to_dofs(blk, p_num - p_ref)
    return _sqrt_form(blk.M_fluid, e), \
        _sqrt_form(blk.M_fluid + blk.K_fluid, e)
