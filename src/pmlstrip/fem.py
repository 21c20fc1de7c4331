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
x3 = h.  The pressure vanishes on the bottom surface and on the layer
top, so their nodes carry no dof.  On first use the blocks are laid out
as the mesh's one term table (FemBlocks.form), which the contour solves
and Newmark both combine with their weights: a layer mesh serves
pml_layer, a mesh without the layer exact_dtn and pml_dtn, and assemble
alone checks that pairing.

scipy.sparse is imported on first use, by _scatter (every assembled
matrix) and AffineForm.matrix, and scipy.sparse.linalg by factorize:
importing the package loads only numpy, and symbol-audit and parseval,
which build no mesh, never load them.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .mesh import FLUID, MARKER_GAMMA, MARKER_GAMMA_F, MARKER_GAMMA_HL, \
    PML, SOLID, StripMesh
from .model import MediaParams, PmlProfile, sigma_profile
from .symbols import dtn_symbol_grid

if TYPE_CHECKING:
    import scipy.sparse as sp
    from scipy.sparse.linalg import SuperLU

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


def factorize(A: sp.spmatrix) -> SuperLU:
    """Sparse LU of a square matrix (CSC preferred) with LU_ORDERING,
    DIAG_PIVOT_THRESH and SuperLU's relax=1; the one sparse
    factorization of the package.

    relax=1 turns off SuperLU's relaxed supernodes, whose explicit zeros
    cost more than their dense kernels save on these factors (contour
    workload, 161 factors of 913 dofs: 26% less fill).  panel_size stays
    at SuperLU's default.
    """
    # imported here: symbol-audit and parseval never factor
    from scipy.sparse.linalg import splu
    try:
        return splu(A, permc_spec=LU_ORDERING,
                    diag_pivot_thresh=DIAG_PIVOT_THRESH, relax=1)
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
    build lazily (the FemBlocks term table, load rule and blocks) is
    built there, before the rest fan out and only read it.
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
    """Numbering of the unknowns: pressure dofs first, then interleaved
    displacement components, all on periodic master nodes.  The nodes of
    the Dirichlet walls (bottom surface, layer top) carry no pressure
    dof.

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
        dofs = self.node_dof[np.atleast_1d(nodes), 0]
        if np.any(dofs == self.size):
            raise KeyError("vertex without a pressure dof")
        return dofs


def build_dofmap(mesh: StripMesh) -> DofMap:
    walls = [mesh.boundary_edges[m].ravel()
             for m in (MARKER_GAMMA_F, MARKER_GAMMA_HL)
             if m in mesh.boundary_edges]
    p_nodes = np.setdiff1d(mesh.masters(mesh.nodes_of_region(FLUID, PML)),
                           mesh.masters(np.concatenate(walls)))
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


def _scatter(rows, cols, vals, shape) -> sp.csr_matrix:
    """CSR matrix of the given shape that sums vals at (rows, cols).  An
    index equal to its dimension (the sentinel of a vertex without that
    dof) lands in one more row or column, which is then dropped (slicing
    copies the summed nonzeros, fewer than a mask of the entries
    would)."""
    import scipy.sparse as sp      # on first use: see the module docstring
    n, m = shape
    return sp.coo_matrix((vals.ravel(), (rows.ravel(), cols.ravel())),
                         shape=(n + 1, m + 1)).tocsr()[:n, :m]


# ---------------------------------------------------------------------------
# assembled blocks
# ---------------------------------------------------------------------------

@dataclass
class FemBlocks:
    """All s-independent matrices of the strip problem on one mesh.

    The term table (form), the fluid load rule, the fluid pair and the
    isotropic pair are built on their first read: on a layer mesh only
    the norms read the pairs.  The blocks are not to be modified once
    the table or the rule exists.
    """

    mesh: StripMesh
    dof: DofMap

    K_all: sp.csr_matrix = None          # sigma-stretched grad-grad, fluid+pml
    M_all: sp.csr_matrix = None          # sigma-weighted mass, fluid+pml
    K_div: sp.csr_matrix = None          # div-div, solid
    K_eps: sp.csr_matrix = None          # 2 eps:eps, solid
    M_solid: sp.csr_matrix = None        # vector mass, solid
    K_solid_h1: sp.csr_matrix = None     # componentwise grad-grad, solid
    C_pu: sp.csr_matrix = None           # rows: pressure tests, cols: u dofs
    C_up: sp.csr_matrix = None           # rows: u tests, cols: pressure dofs
    # modal analysis operator on the x3=h node row
    gamma_h_dofs: np.ndarray = None
    modal_E: np.ndarray = None           # (2N+1, n_h) analysis matrix
    modal_xi: np.ndarray = None
    n_modes_effective: int = 0           # n_modes clamped to (n_h - 1) // 2

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
    def form(self) -> AffineForm:
        """The mesh's term table."""
        return _affine_form(self)

    @cached_property
    def fluid_rule(self):
        """The fluid region's load rule (_load_rule)."""
        return _load_rule(self, FLUID, 0)


def _assemble_scalar(mesh, dof, which, pml=None):
    """Stiffness and mass over a triangle subset, or with pml the
    layer-stretched pair, weighted by the profile (midpoint quadrature)."""
    tris, c, area, g, mid = _tri_geometry(mesh, which)
    nt = tris.shape[0]
    ndof = dof.size
    dofs = dof.node_dof[tris, 0]

    if pml is not None:
        sig = sigma_profile(mid[:, :, 1], pml, mesh.geometry.h)   # (nt, 3)
        int_sig = area * sig.mean(axis=1)
        int_inv = area * (1.0 / sig).mean(axis=1)
        K = int_sig[:, None, None] * np.einsum("tia,tja->tij",
                                               g[:, :, :1], g[:, :, :1]) \
            + int_inv[:, None, None] * np.einsum("tia,tja->tij",
                                                 g[:, :, 1:], g[:, :, 1:])
    else:
        sig = np.ones((nt, 3))
        K = area[:, None, None] * np.einsum("tia,tja->tij", g, g)

    Mel = np.einsum("tq,qi,qj->tij", (area / 3.0)[:, None] * sig,
                    _PHI_MID, _PHI_MID)

    rows = np.repeat(dofs, 3, axis=1)
    cols = np.tile(dofs, (1, 3))
    Km = _scatter(rows, cols, K.reshape(nt, 9), (ndof, ndof))
    Mm = _scatter(rows, cols, Mel.reshape(nt, 9), (ndof, ndof))
    return Km, Mm


def _assemble_solid(mesh, dof):
    """Solid blocks (K_div, K_eps, M_solid, K_solid_h1)."""
    ndof = dof.size
    tris, c, area, g, mid = _tri_geometry(
        mesh, np.flatnonzero(mesh.tri_region == SOLID))
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
    # div-div: A * g_i[a] * g_j[b]
    ga = g.reshape(nt, 6)                        # (i,a) flattened
    Kdiv = area[:, None, None] * np.einsum("ti,tj->tij", ga, ga)
    # 2 eps:eps: A * (delta_ab g_i.g_j + g_i[b] g_j[a])
    Keps = (per_component(gdot)
            + np.einsum("tib,tja->tiajb", g, g)).reshape(nt, 6, 6)
    Keps *= area[:, None, None]
    Mvec = per_component(np.einsum("t,qi,qj->tij", area / 3.0, _PHI_MID,
                                   _PHI_MID))
    Kh1 = per_component(area[:, None, None] * gdot)
    return scatter(Kdiv), scatter(Keps), scatter(Mvec), scatter(Kh1)


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
    C_pu = _scatter(rows[keep], cols[keep], vals[keep], (dof.size,) * 2)
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
    blk = FemBlocks(mesh=mesh, dof=dof)

    if mesh.pml is None:    # no layer triangles: the fluid pair
        blk.K_all, blk.M_all = blk.K_fluid, blk.M_fluid
    else:
        blk.K_all, blk.M_all = _assemble_scalar(
            mesh, dof, _fluid_and_layer(mesh), mesh.pml)
    blk.K_div, blk.K_eps, blk.M_solid, blk.K_solid_h1 = \
        _assemble_solid(mesh, dof)
    blk.C_pu, blk.C_up = _assemble_coupling(mesh, dof)
    blk.gamma_h_dofs, blk.modal_E, blk.modal_xi, blk.n_modes_effective = \
        _modal_operator(mesh, dof, n_modes)
    return blk


def _fluid_and_layer(mesh):
    return np.flatnonzero(np.isin(mesh.tri_region, (FLUID, PML)))


# ---------------------------------------------------------------------------
# frequency-domain system
# ---------------------------------------------------------------------------

@dataclass
class FrequencySystem:
    matrix: sp.csc_matrix
    rhs: np.ndarray


@dataclass
class FrequencySolution:
    x: np.ndarray                   # dof vector
    residual: float
    lu_nnz: int                     # nonzeros of its L and U factors


def dtn_block(blk: FemBlocks, c: float, s: complex,
              L_tilde: float | None = None) -> np.ndarray:
    """Dense Gamma_h block representing int_{Gamma_h} B[p] conj(q):
    period * E^H diag(symbol) E via the trace Parseval identity, for the
    exact symbol or, with L_tilde, the layer one."""
    sym = dtn_symbol_grid(blk.modal_xi, s, c, L_tilde)
    E = blk.modal_E
    return blk.mesh.geometry.period * (E.conj().T * sym) @ E


@dataclass
class AffineForm:
    """The s-independent part of the form on one mesh.

    terms[q] holds the block weighted by theta_q (module docstring) on
    the sparsity pattern, in row-major order: the union of the blocks'
    nonzeros and, on a mesh without the layer, every Gamma_h x Gamma_h
    pair, at positions gamma_slots (row-major).  matrix() moves values
    in that order into the CSC pattern SuperLU factors (``order``,
    ``indices``, ``indptr``).
    """

    terms: np.ndarray               # (7, nnz) real
    gamma_slots: np.ndarray
    order: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray

    def matrix(self, values: np.ndarray) -> sp.csc_matrix:
        """The matrix with the given row-major values."""
        import scipy.sparse as sp      # on first use, as in _scatter
        n = self.indptr.size - 1
        return sp.csc_matrix((values[self.order], self.indices, self.indptr),
                             shape=(n, n))


def _affine_form(blk: FemBlocks) -> AffineForm:
    """The term table of blk's mesh (FemBlocks.form)."""
    n = blk.dof.size
    gh = blk.gamma_h_dofs if blk.mesh.pml is None \
        else np.zeros(0, dtype=np.int64)
    # row-major keys of the nonzeros, int64 (n^2 overflows the int32
    # indices of tocoo); sparse sums drop exact zeros, so the pattern
    # keeps the positions where some term is nonzero, as the sum of the
    # weighted blocks would
    entries = []
    for A in (blk.K_all, blk.M_all, blk.K_div, blk.K_eps, blk.M_solid,
              blk.C_pu, blk.C_up):
        A = A.tocoo()
        keep = A.data != 0.0
        entries.append((A.row[keep].astype(np.int64) * n + A.col[keep],
                        A.data[keep]))
    gh_keys = np.repeat(gh, gh.size) * n + np.tile(gh, gh.size)
    # their union, sorted, as the pattern of a sparse sum of ones
    keys = np.concatenate([k for k, _ in entries] + [gh_keys])
    union = _scatter(keys // n, keys % n, np.ones(keys.size), (n, n))
    rows, cols = np.repeat(np.arange(n), np.diff(union.indptr)), union.indices
    pattern = rows * n + cols
    terms = np.zeros((len(entries), pattern.size))
    for q, (k, data) in enumerate(entries):
        np.add.at(terms[q], np.searchsorted(pattern, k), data)
    order = np.lexsort((rows, cols))
    return AffineForm(terms=terms,
                      gamma_slots=np.searchsorted(pattern, gh_keys),
                      order=order, indices=rows[order],
                      indptr=np.searchsorted(cols[order], np.arange(n + 1)))


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


def frequency_weights(media: MediaParams, s: complex) -> np.ndarray:
    """Each term's theta(s) = r(s) (w_K + s^2 w_M) (module docstring)."""
    w_M, w_K = term_weights(media)
    return np.where(_PRESSURE_ROWS, 1.0 / s, media.rho0 * np.conj(s)) \
        * (w_K + s * s * w_M)


def load_vector(blk: FemBlocks, spatial):
    """Nodal load int_{Omega_h} chi(x) phi_i dx (fluid region only; the
    source is supported below x3 = h), by the fluid load rule."""
    x1, x3, _, op = blk.fluid_rule
    return op @ np.broadcast_to(spatial(x1, x3), x1.shape).ravel()


def source_l2_norm(blk: FemBlocks, spatial) -> float:
    """||chi||_{L2(Omega_h)} by the load rule's edge-midpoint quadrature
    (a wall node's basis function has no load row, so the load of chi^2
    does not sum to its integral)."""
    x1, x3, weights, _ = blk.fluid_rule
    chi = np.broadcast_to(spatial(x1, x3), x1.shape)
    return float(np.sqrt(np.sum(weights * chi ** 2)))


def _load_rule(blk: FemBlocks, region, col):
    """Edge-midpoint quadrature of a region: the points (x1, x3), their
    weights, and the load operator onto the dofs in column col of
    node_dof, one column per point."""
    which = np.flatnonzero(blk.mesh.tri_region == region)
    tris, c, area, g, mid = _tri_geometry(blk.mesh, which)
    w = (area / 3.0)[:, None, None] * _PHI_MID        # (t, q, i)
    rows = np.broadcast_to(blk.dof.node_dof[tris, col][:, None, :], w.shape)
    cols = np.broadcast_to(np.arange(w.shape[0] * 3).reshape(-1, 3, 1),
                           w.shape)
    op = _scatter(rows, cols, w, (blk.dof.size, w.shape[0] * 3))
    return (mid[:, :, 0], mid[:, :, 1],
            np.broadcast_to((area / 3.0)[:, None], mid.shape[:2]), op)


def assemble(blk: FemBlocks, media: MediaParams, s: complex,
             g_hat_spatial, g_hat_scale: complex, variant: str,
             pml: PmlProfile | None = None) -> FrequencySystem:
    """Assemble the linear system for one Laplace frequency.

    The transformed source is g_hat(x, s) = g_hat_scale * chi(x); the
    right-hand side of the variational problem is int g_hat / c^2 * q.
    The variant must suit the mesh (pml_layer a layer mesh, exact_dtn
    and pml_dtn a mesh without the layer), and pml_dtn needs the
    profile pml; anything else raises AssemblyError before any work.
    """
    if variant not in VARIANTS:
        raise AssemblyError(f"unknown variant {variant!r}")
    if (variant == "pml_layer") != (blk.mesh.pml is not None):
        raise AssemblyError(f"{variant} variant needs a mesh "
                            f"{'with' if blk.mesh.pml is None else 'without'}"
                            " an absorbing layer")
    if variant == "pml_dtn" and pml is None:
        raise AssemblyError("pml_dtn variant needs a layer profile")
    form = blk.form
    theta = frequency_weights(media, s)
    data = theta.real @ form.terms + 1j * (theta.imag @ form.terms)
    if form.gamma_slots.size:
        L_tilde = pml.L_tilde if variant == "pml_dtn" else None
        data[form.gamma_slots] -= \
            (dtn_block(blk, media.c, s, L_tilde) / s).ravel()
    rhs = np.zeros(blk.dof.size, dtype=complex)
    if g_hat_spatial is not None:
        rhs = (g_hat_scale / media.c ** 2) \
            * load_vector(blk, g_hat_spatial).astype(complex)
    return FrequencySystem(matrix=form.matrix(data), rhs=rhs)


def _ldexp(v: np.ndarray, e: int) -> np.ndarray:
    """v times 2^e, real and imaginary parts apart: exact while they
    stay normal doubles."""
    v = np.ascontiguousarray(v)
    return np.ldexp(v.view(float), e).view(v.dtype)


def solve_frequency(system: FrequencySystem) -> FrequencySolution:
    """Sparse direct solve of the system's load with a residual check
    and one step of iterative refinement if needed, on the load scaled
    by the power of two 2^-e that puts max|b| in [0.5, 1), where neither
    norm underflows nor overflows; x is scaled back by 2^e.  A residual
    that is not finite fails the check as one above the bound does."""
    b = system.rhs
    e = int(np.frexp(np.max(np.abs(b), initial=0.0))[1])
    b = _ldexp(b, -e)
    lu = factorize(system.matrix)
    x = lu.solve(b)
    norm_b = np.linalg.norm(b)
    if norm_b > 0:
        r = b - system.matrix @ x
        if not np.linalg.norm(r) <= 1e-10 * norm_b:
            x = x + lu.solve(r)
            r = b - system.matrix @ x
            if not np.linalg.norm(r) <= 1e-8 * norm_b:
                raise SingularSystemError(
                    f"relative residual {np.linalg.norm(r)/norm_b:.2e}")
        res = float(np.linalg.norm(r) / norm_b)
    else:
        res = 0.0
    return FrequencySolution(x=_ldexp(x, e), residual=res, lu_nnz=lu.nnz)


# ---------------------------------------------------------------------------
# the nodal frame and norms
# ---------------------------------------------------------------------------

def pad_dofs(x: np.ndarray) -> np.ndarray:
    """Dof vectors x (n_dofs, ...) with one zero row appended, read by
    the sentinel dof.size."""
    return np.concatenate([x, np.zeros((1,) + x.shape[1:], x.dtype)])


def dofs_to_nodal(blk: FemBlocks, x: np.ndarray):
    """Per-vertex (p, u) of dof vectors x (n_dofs, ...), shaped
    (n_vertices, ...) and (n_vertices, 2, ...): periodic slaves repeat
    their master and a vertex without a dof (a wall vertex for p) reads 0."""
    padded = pad_dofs(x)
    return padded[blk.dof.node_dof[:, 0]], padded[blk.dof.node_dof[:, 1:]]


def shared_dofs(blk_sub: FemBlocks, blk: FemBlocks) -> np.ndarray:
    """For each dof of blk_sub, the dof of blk at its vertex and field,
    blk's mesh extending blk_sub's vertex by vertex (as a layer mesh the
    mesh without it): x[shared_dofs(blk_sub, blk)] restricts x to blk_sub.
    A vertex without a field writes the dropped sentinel entry."""
    nv = blk_sub.mesh.n_vertices
    if not np.array_equal(blk.mesh.vertices[:nv], blk_sub.mesh.vertices):
        raise AssemblyError("the mesh does not extend the sub-mesh")
    shared = np.empty(blk_sub.dof.size + 1, dtype=np.int64)
    shared[blk_sub.dof.node_dof] = blk.dof.node_dof[:nv]
    return shared[:-1]


def h_norm_sq(blk: FemBlocks, x: np.ndarray):
    """Squared norm of the product space: fluid and layer H1 plus solid
    (L2 + componentwise H1) of dof vectors x (n_dofs, ...); a
    float for one vector, else an array over the trailing axes."""
    G = blk.K_all_iso + blk.M_all_iso + blk.M_solid + blk.K_solid_h1
    q = np.einsum("i...,i...->...", x.conj(), G @ x).real
    return float(q) if q.ndim == 0 else q


def _sqrt_form(A: sp.spmatrix, x: np.ndarray) -> float:
    return float(np.sqrt(max(np.vdot(x, A @ x).real, 0.0)))


def stability_ratios(blk: FemBlocks, s: complex, x: np.ndarray,
                     g_norm: float) -> dict:
    """Norms of the solution x at s against the right-hand sides of the
    frequency stability estimates, whose envelopes for a layer mesh
    carry the layer factor."""
    s1 = s.real
    lhs = {"fluid_lhs": _sqrt_form(blk.K_all_iso, x)
           + abs(s) * _sqrt_form(blk.M_all_iso, x),
           "solid_lhs": _sqrt_form(blk.K_solid_h1, x)
           + _sqrt_form(blk.K_div, x) + abs(s) * _sqrt_form(blk.M_solid, x)}
    # an envelope beyond the double range (s1 near the smallest one the
    # config accepts) is inf, and its ratio 0; one that is 0 (no load,
    # or an underflow at s1 near the largest) gives 0 for a zero lhs
    # and an infinite ratio otherwise
    env_f = env_s = 0.0
    if g_norm:
        with np.errstate(over="ignore"):
            if blk.mesh.pml is None:
                env_f = abs(s) / s1 * g_norm
                env_s = g_norm / (s1 * min(1.0, s1))
            else:
                factor = 1.0 + blk.mesh.pml.sigma0 / s1
                env_f = factor * abs(s) / s1 * g_norm
                env_s = np.sqrt(factor) / (s1 * min(1.0, s1)) * g_norm

    def ratio(value, envelope):
        if envelope:
            return value / envelope
        return 0.0 if value == 0 else np.inf
    return {"fluid_ratio": ratio(lhs["fluid_lhs"], env_f),
            "solid_ratio": ratio(lhs["solid_lhs"], env_s), **lhs}
