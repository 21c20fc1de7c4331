"""Finite element assembly and the frequency-domain solver."""

import os
import select
import time
import warnings
from dataclasses import replace
from functools import cached_property

import numpy as np
import pytest
import scipy.sparse as sp
import sympy as sym
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import norm as sparse_norm

from pmlstrip import (Geometry, MediaParams, PmlProfile, Rectangle,
                      SourceSpec, SurfaceProfile, assemble, build_blocks,
                      build_mesh, dofs_to_nodal, dtn_block,
                      dtn_symbol_grid, h_norm_sq, load_vector, shared_dofs,
                      solve_frequency, source_l2_norm, stability_ratios)
from pmlstrip.fem import AffineForm, AssemblyError, DofMap, FemBlocks, \
    FrequencySystem, SingularSystemError, _assemble_scalar, _cpu_count, \
    _tri_geometry, map_solves
from pmlstrip.timedomain import newmark_run
from pmlstrip.mesh import FLUID, PML, SOLID

from oracles import fluid_error_norms, manufactured_residual


MEDIA = MediaParams()


def make_blocks(obstacle=False, pml=None, target=0.08, n_modes=16,
                surface=None):
    geom = Geometry(
        period=1.0,
        surface=surface or SurfaceProfile.flat(0.0), h=0.5,
        obstacle=Rectangle(0.4, 0.6, 0.15, 0.35) if obstacle else None)
    mesh = build_mesh(geom, pml, target)
    return build_blocks(mesh, n_modes=n_modes)


def nodal_to_dofs(blk, p_nodal, u_nodal=None):
    """Per-vertex fields, p (n_vertices, ...) and u (n_vertices, 2, ...),
    packed into dof vectors (n_dofs, ...) of their common dtype:
    the nodal reference for the dof frame, dofs_to_nodal's inverse."""
    p = np.asarray(p_nodal)
    u = np.zeros(0) if u_nodal is None else np.asarray(u_nodal)
    x = np.zeros((blk.dof.size,) + p.shape[1:],
                 dtype=np.result_type(p, u, 0.0))
    x[:blk.dof.n_p] = p[blk.dof.p_nodes]
    if u_nodal is not None and blk.dof.n_u:
        x[blk.dof.n_p::2] = u[blk.dof.u_nodes, 0]
        x[blk.dof.n_p + 1::2] = u[blk.dof.u_nodes, 1]
    return x


def former_blocks(blk):
    """The blocks of blk's mesh under the former numbering, in which every
    fluid and layer master node, the wall nodes included, keeps a pressure
    dof, and blk's dofs in that numbering: the reference of the Dirichlet
    elimination."""
    mesh, u_nodes = blk.mesh, blk.dof.u_nodes
    p_nodes = mesh.masters(mesh.nodes_of_region(FLUID, PML))
    size = p_nodes.size + 2 * u_nodes.size
    node_dof = np.full((mesh.n_vertices, 3), size, dtype=np.int64)
    node_dof[p_nodes, 0] = np.arange(p_nodes.size)
    node_dof[u_nodes, 1] = p_nodes.size + 2 * np.arange(u_nodes.size)
    node_dof[u_nodes, 2] = node_dof[u_nodes, 1] + 1
    ref = FemBlocks(mesh=mesh, dof=DofMap(p_nodes, u_nodes,
                                          node_dof[mesh.node_master]))
    ref.K_all, ref.M_all = (ref.K_fluid, ref.M_fluid) if mesh.pml is None \
        else _assemble_scalar(mesh, ref.dof, np.flatnonzero(np.isin(
            mesh.tri_region, (FLUID, PML))), mesh.pml)
    return ref, shared_dofs(blk, ref)


def reference_matrix(blk, s, variant, pml=None):
    """Per-frequency assembly as sparse sums of the weighted blocks, the
    Gamma_h block inserted through LIL: the construction the term table
    replaces."""
    rho0, rho_e, c = MEDIA.rho0, MEDIA.rho_e, MEDIA.c
    if variant == "pml_layer":
        Kf, Mf = blk.K_all, blk.M_all
    else:
        Kf, Mf = blk.K_fluid, blk.M_fluid
    A = (1.0 / s) * Kf + (s / c ** 2) * Mf
    A = A + rho0 * np.conj(s) * (MEDIA.lam * blk.K_div + MEDIA.mu * blk.K_eps)
    A = A + rho0 * rho_e * (abs(s) ** 2 * s) * blk.M_solid
    A = A - rho0 * s * blk.C_pu + rho0 * np.conj(s) * blk.C_up
    A = sp.csr_matrix(A, dtype=complex)
    if variant != "pml_layer":
        B = dtn_block(blk, MEDIA.c, s,
                      pml.L_tilde if variant == "pml_dtn" else None)
        gh = blk.gamma_h_dofs
        A = A.tolil()
        A[np.ix_(gh, gh)] = A[np.ix_(gh, gh)].toarray() - B / s
        A = A.tocsr()
    return A


class TestAssembly:
    def test_mass_total_is_area(self):
        blk, _ = former_blocks(make_blocks())
        ones = np.ones(blk.dof.size)
        # flat strip of height 0.5, period 1
        assert np.vdot(ones, blk.M_fluid @ ones).real \
            == pytest.approx(0.5, rel=1e-12)
        # constants are in the stiffness kernel
        assert abs(np.vdot(ones, blk.K_fluid @ ones)) < 1e-12

    def test_no_layer_pairs_equal_fluid_pair(self):
        # without a layer the fluid + layer triangles are the fluid ones,
        # so the isotropic and stretched pairs equal the fluid pair
        blk = make_blocks(obstacle=True)
        region = blk.mesh.tri_region
        both = np.flatnonzero(np.isin(region, (FLUID, PML)))
        assert np.array_equal(both, np.flatnonzero(region == FLUID))
        K, M = _assemble_scalar(blk.mesh, blk.dof, both)
        for A, B in ((blk.K_fluid, K), (blk.K_all_iso, K), (blk.K_all, K),
                     (blk.M_fluid, M), (blk.M_all_iso, M), (blk.M_all, M)):
            assert A.shape == B.shape and (A != B).nnz == 0

    def test_layer_blocks(self):
        pml = PmlProfile(sigma0=2.0, m=1, L=0.4, s1=1.0)
        blk, _ = former_blocks(make_blocks(pml=pml))
        ones = np.ones(blk.dof.size)
        # sigma-weighted mass = fluid area + int_layer sigma
        ramp_int = 0.4 + 2.0 * 0.4 / 2.0   # L + sigma0 L/(m+1)
        assert np.vdot(ones, blk.M_all @ ones).real \
            == pytest.approx(0.5 + ramp_int, rel=1e-6)
        assert np.vdot(ones, blk.M_all_iso @ ones).real \
            == pytest.approx(0.9, rel=1e-12)

    def test_solid_blocks_rigid_motions(self):
        blk = make_blocks(obstacle=True)
        x = np.zeros(blk.dof.size)
        # uniform translation is strain free
        x[blk.dof.n_p::2] = 1.0
        assert abs(np.vdot(x, blk.K_div @ x)) < 1e-12
        assert abs(np.vdot(x, blk.K_eps @ x)) < 1e-12
        # solid mass = obstacle area per component
        assert np.vdot(x, blk.M_solid @ x).real \
            == pytest.approx(0.04, rel=1e-10)
        # infinitesimal rotation u = (-x3, x1) has zero symmetric strain
        verts = blk.mesh.vertices[blk.dof.u_nodes]
        x[:] = 0.0
        x[blk.dof.n_p::2] = -verts[:, 1]
        x[blk.dof.n_p + 1::2] = verts[:, 0]
        assert abs(np.vdot(x, blk.K_eps @ x)) < 1e-10
        assert abs(np.vdot(x, blk.K_div @ x)) < 1e-10

    def test_load_vector_total(self):
        blk = make_blocks()
        # with the wall nodes' rows the nodal basis sums to one
        v = load_vector(former_blocks(blk)[0], lambda x, z: np.ones_like(x))
        assert v.sum() == pytest.approx(0.5, rel=1e-12)
        # the edge-midpoint rule integrates the quadratic chi^2 exactly,
        # though the wall nodes have no load row
        assert source_l2_norm(blk, lambda x, z: x) \
            == pytest.approx(np.sqrt(1.0 / 6.0), rel=1e-12)

    def test_solid_and_coupling_blocks_match_loops(self):
        blk = make_blocks(obstacle=True, target=0.05)
        mesh, dof = blk.mesh, blk.dof
        # 2 eps:eps element matrices entry by entry
        tris = mesh.triangles[mesh.tri_region == SOLID]
        c = mesh.vertices[tris]
        d1, d2 = c[:, 1] - c[:, 0], c[:, 2] - c[:, 0]
        det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        g = np.empty((tris.shape[0], 3, 2))
        g[:, 1] = np.stack([d2[:, 1], -d2[:, 0]], 1) / det[:, None]
        g[:, 2] = np.stack([-d1[:, 1], d1[:, 0]], 1) / det[:, None]
        g[:, 0] = -g[:, 1] - g[:, 2]
        rows, cols, vals = [], [], []
        for t, tri in enumerate(tris):
            for i in range(3):
                for a in range(2):
                    for j in range(3):
                        for b in range(2):
                            rows.append(dof.node_dof[tri[i], 1 + a])
                            cols.append(dof.node_dof[tri[j], 1 + b])
                            vals.append(0.5 * abs(det[t]) * (
                                (g[t, i] @ g[t, j] if a == b else 0.0)
                                + g[t, i, b] * g[t, j, a]))
        K_eps = sp.coo_matrix((vals, (rows, cols)), shape=blk.K_eps.shape)
        assert sparse_norm(blk.K_eps - K_eps) \
            <= 1e-14 * sparse_norm(K_eps)
        # interface coupling edge by edge
        rows, cols, vals = [], [], []
        for (a, b), n in zip(mesh.boundary_edges["Gamma"],
                             mesh.gamma_normals):
            ell = np.hypot(*(mesh.vertices[b] - mesh.vertices[a]))
            for k in range(2):
                for i, p in enumerate((a, b)):
                    for j, u in enumerate((a, b)):
                        rows.append(dof.pdof(p)[0])
                        cols.append(dof.node_dof[u, 1 + k])
                        vals.append(n[k] * ell / 6.0 * (1.0 + (i == j)))
        C_pu = sp.coo_matrix((vals, (rows, cols)), shape=blk.C_pu.shape)
        assert sparse_norm(blk.C_pu - C_pu) <= 1e-14 * sparse_norm(C_pu)

    def test_coupling_blocks_transpose(self):
        blk = make_blocks(obstacle=True)
        assert (blk.C_pu - blk.C_up.T).nnz == 0
        # int_Gamma n ds = 0 over the closed interface
        ones_p = np.ones(blk.dof.size)
        ones_u = np.zeros(blk.dof.size)
        ones_u[blk.dof.n_p::2] = 1.0
        assert abs(ones_p @ (blk.C_pu @ ones_u)) < 1e-12


class TestDirichletElimination:
    """The wall nodes (bottom surface, layer top) carry no pressure dof;
    the blocks equal the former numbering's restricted to the others."""

    @pytest.mark.parametrize("layer", [False, True])
    def test_blocks_restrict_former_numbering(self, layer):
        blk = make_blocks(obstacle=not layer, surface=SurfaceProfile.cosine(
            0.1, 1.0), pml=PmlProfile(sigma0=2.0, m=1, L=0.4, s1=1.0)
            if layer else None)
        edges = blk.mesh.boundary_edges
        assert ("GammaHL" in edges) == layer
        walls = np.concatenate([edges[m].ravel() for m in
                                ("GammaF", "GammaHL") if m in edges])
        assert np.all(blk.dof.node_dof[walls, 0] == blk.dof.size)
        ref, kept = former_blocks(blk)
        assert ref.dof.size - blk.dof.size == np.unique(
            blk.mesh.node_master[walls]).size
        for name in ("K_fluid", "M_fluid", "K_all", "M_all"):
            R = getattr(ref, name)[np.ix_(kept, kept)]
            assert sparse_norm(getattr(blk, name) - R) \
                <= 1e-15 * sparse_norm(R)


class TestDtnBlock:
    def test_variants_differ_only_on_gamma_h(self):
        blk = make_blocks()
        s = 1.0 + 3.0j
        pml = PmlProfile(sigma0=2.0, m=1, L=1.0, s1=1.0)
        A_ex = assemble(blk, MEDIA, s, None, 0.0, "exact_dtn").matrix
        A_pml = assemble(blk, MEDIA, s, None, 0.0, "pml_dtn", pml).matrix
        D = (A_ex - A_pml).tocoo()
        gh = set(blk.gamma_h_dofs.tolist())
        for r, c in zip(D.row[np.abs(D.data) > 1e-14],
                        D.col[np.abs(D.data) > 1e-14]):
            assert r in gh and c in gh

    def test_pml_dtn_needs_profile(self):
        # assemble rejects pml_dtn without a profile before it builds
        # anything: no term table, no load rule
        blk = make_blocks()
        src = SourceSpec(center=(0.2, 0.25), radius=0.08, T=2.0)
        with pytest.raises(AssemblyError, match="layer profile"):
            assemble(blk, MEDIA, 1.0 + 0.0j, src.spatial, 1.0, "pml_dtn")
        assert "form" not in vars(blk) and "fluid_rule" not in vars(blk)

    def test_boundary_term_passive(self):
        blk = make_blocks()
        rng = np.random.default_rng(11)
        for s in (1.0 + 0.0j, 0.3 + 9.0j, 2.0 - 4.0j):
            B = dtn_block(blk, MEDIA.c, s)
            for _ in range(10):
                y = rng.normal(size=B.shape[0]) \
                    + 1j * rng.normal(size=B.shape[0])
                val = np.vdot(y, B @ y) / s
                assert val.real <= 1e-12 * np.linalg.norm(y) ** 2


class TestAffineForm:
    PML = PmlProfile(sigma0=2.0, m=1, L=0.4, s1=1.0)

    @pytest.mark.parametrize("obstacle", [False, True])
    @pytest.mark.parametrize("variant", ["exact_dtn", "pml_dtn",
                                         "pml_layer"])
    def test_matches_per_frequency_assembly(self, variant, obstacle):
        blk = make_blocks(obstacle=obstacle, target=0.05,
                          pml=self.PML if variant == "pml_layer" else None,
                          surface=SurfaceProfile.cosine(0.1, 1.0))
        for s in (0.5, 0.5 + 7.0j, 2.0 - 3.0j):
            ref = reference_matrix(blk, s, variant, self.PML).tocsc()
            system = assemble(blk, MEDIA, s, None, 0.0, variant, self.PML)
            assert system.matrix.nnz == ref.nnz
            assert sparse_norm(system.matrix - ref) \
                <= 1e-13 * sparse_norm(ref)

    def test_one_table_per_mesh(self):
        # a mesh without the layer serves exact_dtn and pml_dtn from one
        # table built on first use, a layer mesh serves pml_layer alone
        blk = make_blocks()
        assert "form" not in vars(blk)
        assemble(blk, MEDIA, 1.0 + 1.0j, None, 0.0, "exact_dtn")
        form = vars(blk)["form"]
        assemble(blk, MEDIA, 2.0 + 0.0j, None, 0.0, "pml_dtn", self.PML)
        assert blk.form is form
        with pytest.raises(AssemblyError, match="with an absorbing"):
            assemble(blk, MEDIA, 2.0 + 0.0j, None, 0.0, "pml_layer")
        layer = make_blocks(pml=self.PML)
        with pytest.raises(AssemblyError, match="without an absorbing"):
            assemble(layer, MEDIA, 2.0 + 0.0j, None, 0.0, "exact_dtn")
        # rejected before the table is built
        assert "form" not in vars(layer)
        assemble(layer, MEDIA, 2.0 + 0.0j, None, 0.0, "pml_layer")
        form = layer.form
        assert form.gamma_slots.size == 0
        with pytest.raises(AssemblyError, match="without an absorbing"):
            assemble(layer, MEDIA, 2.0 + 0.0j, None, 0.0, "pml_dtn",
                     self.PML)
        assert layer.form is form
        # no load was asked for, so the load rule is not built
        assert "fluid_rule" not in vars(layer)

    def test_unknown_variant(self):
        blk = make_blocks()
        with pytest.raises(AssemblyError, match="unknown variant"):
            assemble(blk, MEDIA, 1.0 + 0.0j, None, 0.0, "nope")
        assert "form" not in vars(blk)

    @pytest.mark.parametrize("variant", ["exact_dtn", "pml_dtn",
                                         "pml_layer"])
    def test_conjugate_symmetry(self, variant):
        # p(conj s) = conj p(s) for real data: contour_synthesize solves
        # only the upper half of the contour
        blk = make_blocks(obstacle=True, target=0.05,
                          pml=self.PML if variant == "pml_layer" else None)
        src = SourceSpec(center=(0.2, 0.25), radius=0.08, T=2.0)
        s = 0.7 + 6.0j
        up, down = (solve_frequency(assemble(blk, MEDIA, z, src.spatial,
                                             1.0, variant, self.PML))
                    for z in (s, np.conj(s)))
        for a, b in zip(dofs_to_nodal(blk, up.x),
                        dofs_to_nodal(blk, down.x)):
            assert np.max(np.abs(a)) > 0.0
            assert np.max(np.abs(b - np.conj(a))) \
                <= 1e-12 * np.max(np.abs(a))


class TestSharedDofs:
    PML = PmlProfile(sigma0=2.0, m=1, L=0.3, s1=1.0)

    @pytest.mark.parametrize("obstacle", [False, True])
    def test_restricts_layer_vectors(self, obstacle):
        blk_sub = make_blocks(obstacle=obstacle)
        blk = make_blocks(obstacle=obstacle, pml=self.PML)
        nv = blk_sub.mesh.n_vertices
        rng = np.random.default_rng(3)
        p = rng.normal(size=blk.mesh.n_vertices)
        u = rng.normal(size=(blk.mesh.n_vertices, 2))
        shared = shared_dofs(blk_sub, blk)
        assert shared.shape == (blk_sub.dof.size,)
        assert np.array_equal(nodal_to_dofs(blk, p, u)[shared],
                              nodal_to_dofs(blk_sub, p[:nv], u[:nv]))
        assert np.array_equal(shared_dofs(blk_sub, blk_sub),
                              np.arange(blk_sub.dof.size))

    def test_rejects_a_mesh_that_does_not_extend(self):
        with pytest.raises(AssemblyError, match="does not extend"):
            shared_dofs(make_blocks(), make_blocks(target=0.05,
                                                   pml=self.PML))


class TestFrequencySolve:
    def test_zero_source_zero_solution(self):
        blk = make_blocks()
        system = assemble(blk, MEDIA, 1.0 + 2.0j, None, 0.0, "exact_dtn")
        sol = solve_frequency(system)
        assert np.max(np.abs(sol.x)) == 0.0

    def test_residual_small(self):
        blk = make_blocks(obstacle=True)
        src = SourceSpec(center=(0.2, 0.25), radius=0.08, T=2.0)
        system = assemble(blk, MEDIA, 1.0 + 5.0j, src.spatial, 1.0,
                          "exact_dtn")
        sol = solve_frequency(system)
        assert sol.residual <= 1e-10
        p_hat = dofs_to_nodal(blk, sol.x)[0]
        assert np.max(np.abs(p_hat)) > 0.0
        # Dirichlet wall on the bottom surface
        gf = np.unique(blk.mesh.boundary_edges["GammaF"])
        assert np.max(np.abs(p_hat[gf])) == 0.0

    def test_periodic_solution(self):
        blk = make_blocks()
        src = SourceSpec(center=(0.2, 0.25), radius=0.08, T=2.0)
        sol = solve_frequency(assemble(blk, MEDIA, 1.0 + 1.0j, src.spatial,
                                       1.0, "exact_dtn"))
        left = np.flatnonzero(np.isclose(blk.mesh.vertices[:, 0], 0.0))
        right = np.flatnonzero(np.isclose(blk.mesh.vertices[:, 0], 1.0))
        left = left[np.argsort(blk.mesh.vertices[left, 1])]
        right = right[np.argsort(blk.mesh.vertices[right, 1])]
        p_hat = dofs_to_nodal(blk, sol.x)[0]
        assert np.allclose(p_hat[left], p_hat[right])

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_load_scaled_by_a_power_of_two(self, data):
        # the solve works on the load scaled to max|b| in [0.5, 1), so a
        # load 2^k b gives 2^k x bitwise and the same residual for every k
        # that keeps the entries of b and x normal, down to the k where
        # norm(2^k b) underflows to 0 (the residual check was skipped and
        # read 0 there)
        blk = make_blocks(target=0.125, n_modes=4)
        src = SourceSpec(center=(0.2, 0.25), radius=0.08, T=2.0)
        system = assemble(blk, MEDIA, 2.0 + 3.0j, src.spatial, 1.0,
                          "exact_dtn")
        base = solve_frequency(system)
        b, x = system.rhs.view(float), base.x.view(float)
        e = np.frexp(np.abs(np.concatenate([b[b != 0], x[x != 0]])))[1]
        lo, hi = -1021 - e.min(), 1024 - e.max()
        assert np.linalg.norm(np.ldexp(b, lo)) == 0.0
        k = data.draw(st.one_of(st.just(lo), st.integers(lo, hi)))
        sol = solve_frequency(replace(system,
                                      rhs=np.ldexp(b, k).view(complex)))
        assert np.array_equal(sol.x.view(float), np.ldexp(x, k))
        assert sol.residual == base.residual > 0.0

    def test_nan_residual_is_an_error(self):
        # a subnormal pivot: x overflows and the residual is NaN, which
        # compares false with every bound (it was written as residual nan)
        A = sp.csc_matrix(np.array([[1e-310, 0.0], [1.0, 1.0]],
                                   dtype=complex))
        with pytest.raises(SingularSystemError, match="residual nan"):
            solve_frequency(FrequencySystem(A, np.ones(2, dtype=complex)))

    def test_pml_layer_matches_exact_dtn(self):
        # generous layer: the two routes agree in the physical region
        pml = PmlProfile(sigma0=3.0, m=1, L=1.0, s1=1.0)
        blk_ex = make_blocks(target=0.05)
        blk_pml = make_blocks(pml=pml, target=0.05)
        src = SourceSpec(center=(0.3, 0.25), radius=0.08, T=2.0)
        s = 1.0 + 4.0j
        sol_ex = solve_frequency(assemble(blk_ex, MEDIA, s, src.spatial,
                                          1.0, "exact_dtn"))
        sol_pml = solve_frequency(assemble(blk_pml, MEDIA, s, src.spatial,
                                           1.0, "pml_layer"))
        nv = blk_ex.mesh.n_vertices
        p_ex = dofs_to_nodal(blk_ex, sol_ex.x)[0]
        num = np.max(np.abs(dofs_to_nodal(blk_pml, sol_pml.x)[0][:nv] - p_ex))
        den = np.max(np.abs(p_ex))
        assert num / den < 0.02

    def test_single_mode_oracle(self):
        # Dirichlet data replaced by a volume load that excites mainly
        # the constant lateral mode; compare against the 1D two-point
        # solution of -p''/s + s p/c^2 = f/c^2, p(0)=0, p'(h)=dtn*p(h)
        blk = make_blocks(target=0.02, n_modes=8)
        s = 1.0 + 2.0j
        lam = dtn_symbol_grid(0.0, s, MEDIA.c)
        # manufactured 1D check via dense solve on the vertical line
        # instead: verified indirectly by the manufactured-solution
        # convergence test below
        assert lam == pytest.approx(-np.sqrt(s * s))


class TestNormsAndProbes:
    def test_h_norm_positive(self):
        blk = make_blocks(obstacle=True)
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.normal(size=blk.dof.size) \
                + 1j * rng.normal(size=blk.dof.size)
            assert h_norm_sq(blk, x) > 0.0

    def test_nodal_round_trip(self):
        blk = make_blocks(obstacle=True)
        rng = np.random.default_rng(1)
        p = rng.normal(size=blk.mesh.n_vertices)
        u = rng.normal(size=(blk.mesh.n_vertices, 2))
        x = nodal_to_dofs(blk, p, u)
        assert x[blk.dof.pdof(blk.dof.p_nodes)] \
            == pytest.approx(p[blk.dof.p_nodes])
        assert x[blk.dof.node_dof[blk.dof.u_nodes, 2]] \
            == pytest.approx(u[blk.dof.u_nodes, 1])

    @settings(max_examples=20, deadline=None)
    @given(target=st.floats(0.04, 0.1), obstacle=st.booleans(),
           layer=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_dof_map_round_trip(self, target, obstacle, layer, seed):
        pml = PmlProfile(sigma0=2.0, m=1, L=0.3, s1=1.0) if layer else None
        blk = make_blocks(obstacle=obstacle, pml=pml, target=target)
        dof, master = blk.dof, blk.mesh.node_master
        rng = np.random.default_rng(seed)
        x = rng.normal(size=dof.size) + 1j * rng.normal(size=dof.size)
        p, u = dofs_to_nodal(blk, x)
        assert np.array_equal(nodal_to_dofs(blk, p, u), x)
        # periodic slaves repeat their master; no dof reads zero
        assert np.array_equal(p, p[master])
        assert np.array_equal(u, u[master])
        has_p = np.isin(master, dof.p_nodes)
        has_u = np.isin(master, dof.u_nodes)
        assert not np.any(p[~has_p]) and not np.any(u[~has_u])
        assert np.array_equal(dof.pdof(dof.p_nodes), np.arange(dof.n_p))
        assert np.array_equal(dof.node_dof[dof.u_nodes, 2],
                              dof.n_p + 1 + 2 * np.arange(dof.n_u))
        # nodal fields that respect the map come back unchanged
        nv = blk.mesh.n_vertices
        p_in = np.where(has_p, rng.normal(size=nv), 0.0)[master]
        u_in = np.where(has_u[:, None], rng.normal(size=(nv, 2)),
                        0.0)[master]
        p_out, u_out = dofs_to_nodal(blk, nodal_to_dofs(blk, p_in, u_in))
        assert np.array_equal(p_out, p_in)
        assert np.array_equal(u_out, u_in)

    def test_dof_lookup_rejects_vertex_without_dof(self):
        blk = make_blocks(obstacle=True)
        solid_only = np.setdiff1d(blk.dof.u_nodes, blk.dof.p_nodes)
        with pytest.raises(KeyError):
            blk.dof.pdof(solid_only[:1])

    def test_stacked_fields_match_per_column(self):
        # trailing axes (time steps) ride along; real input stays real
        blk = make_blocks(obstacle=True)
        rng = np.random.default_rng(3)
        nv = blk.mesh.n_vertices
        p, u = rng.normal(size=(nv, 4)), rng.normal(size=(nv, 2, 4))
        x = nodal_to_dofs(blk, p, u)
        assert x.shape == (blk.dof.size, 4) and x.dtype == np.float64
        assert nodal_to_dofs(blk, p[:, 0]).dtype == np.float64
        assert nodal_to_dofs(blk, p, 1j * u).dtype == np.complex128
        norms = h_norm_sq(blk, x)
        assert norms.shape == (4,)
        G = blk.K_fluid + blk.M_fluid + blk.M_solid + blk.K_solid_h1
        for k in range(4):
            xk = nodal_to_dofs(blk, p[:, k], u[:, :, k])
            assert np.array_equal(x[:, k], xk)
            assert norms[k] == pytest.approx(xk @ (G @ xk), rel=1e-13)
            assert h_norm_sq(blk, xk) == pytest.approx(norms[k], rel=1e-13)

    def test_dofs_to_nodal_stacked(self):
        # dof vectors stacked on trailing axes (a Newmark history) expand
        # column by column, and a vertex without a dof reads 0
        pml = PmlProfile(sigma0=2.0, m=1, L=0.3, s1=1.0)
        blk = make_blocks(obstacle=True, pml=pml)
        dof, master = blk.dof, blk.mesh.node_master
        x = np.random.default_rng(4).normal(size=(dof.size, 3))
        p, u = dofs_to_nodal(blk, x)
        nv = blk.mesh.n_vertices
        assert p.shape == (nv, 3) and u.shape == (nv, 2, 3)
        for k in range(3):
            pk, uk = dofs_to_nodal(blk, x[:, k])
            assert np.array_equal(p[:, k], pk)
            assert np.array_equal(u[..., k], uk)
        walls = ~np.isin(master, dof.p_nodes)
        assert walls.any() and not np.any(p[walls])

    def test_fluid_error_norms_zero_on_equal(self):
        blk = make_blocks()
        x = np.random.default_rng(2).normal(size=blk.dof.size)
        l2, h1 = fluid_error_norms(blk, x, x)
        assert l2 == 0.0 and h1 == 0.0

    def test_stability_ratios_finite(self):
        blk = make_blocks(obstacle=True)
        src = SourceSpec(center=(0.2, 0.25), radius=0.08, T=2.0)
        s = 1.0 + 5.0j
        sol = solve_frequency(assemble(blk, MEDIA, s, src.spatial, 1.0,
                                       "exact_dtn"))
        ratios = stability_ratios(blk, s, sol.x, 1.0)
        assert 0.0 < ratios["fluid_ratio"] < np.inf
        assert 0.0 < ratios["solid_ratio"] < np.inf


class TestCoercivity:
    @pytest.mark.parametrize("variant", ["exact_dtn", "pml_dtn",
                                         "pml_layer"])
    def test_positive_on_random_fields(self, variant):
        pml = PmlProfile(sigma0=2.0, m=1, L=0.5, s1=1.0)
        blk = make_blocks(obstacle=True,
                          pml=pml if variant == "pml_layer" else None)
        s = 1.0 + 10.0j
        A = assemble(blk, MEDIA, s, None, 0.0, variant, pml).matrix
        rng = np.random.default_rng(5)
        for _ in range(25):
            w = rng.normal(size=blk.dof.size) \
                + 1j * rng.normal(size=blk.dof.size)
            re_a, nsq = np.vdot(w, A @ w).real, h_norm_sq(blk, w)
            assert nsq > 0
            assert re_a > 0


class TestManufactured:
    def test_trace_condition_enforced(self):
        blk = make_blocks()
        x1, x3 = sym.symbols("x1 x3", real=True)
        with pytest.raises(AssemblyError):
            manufactured_residual(blk, MEDIA, 1.0 + 0.0j, x3)

    def test_l2_convergence_flat(self):
        x1, x3 = sym.symbols("x1 x3", real=True)
        h = sym.Rational(1, 2)
        p_expr = sym.sin(2 * sym.pi * x1) * x3 * (h - x3) ** 2
        errs, sizes = [], []
        for target in (0.1, 0.05, 0.025):
            blk = make_blocks(target=target)
            rhs, x_ex = manufactured_residual(blk, MEDIA, 1.0 + 2.0j,
                                              p_expr)
            system = assemble(blk, MEDIA, 1.0 + 2.0j, None, 0.0,
                              "exact_dtn")
            sol = solve_frequency(FrequencySystem(system.matrix, rhs))
            l2, _ = fluid_error_norms(blk, sol.x, x_ex)
            errs.append(l2)
            sizes.append(target)
        order = np.polyfit(np.log(sizes), np.log(errs), 1)[0]
        assert 1.7 <= order <= 2.3

    def test_exact_fields_equal_nodal_packing(self):
        # the exact fields evaluated on the dof nodes equal the former
        # per-vertex evaluation packed into dofs, and so do the error
        # norms of a solve against them
        x1, x3 = sym.symbols("x1 x3", real=True)
        p_expr = (x3 - sym.Rational(1, 20) * sym.cos(2 * sym.pi * x1)) \
            * (sym.Rational(1, 2) - x3) ** 2 * sym.cos(2 * sym.pi * x1)
        u_expr = (sym.sin(sym.pi * x1) * x3, sym.cos(sym.pi * x1) * x3 ** 2)
        blk = make_blocks(obstacle=True,
                          surface=SurfaceProfile.cosine(0.05, 1.0))
        s = 1.0 + 2.0j
        rhs, x_ex = manufactured_residual(blk, MEDIA, s, p_expr, u_expr)
        v = blk.mesh.vertices.T
        p_nodal = sym.lambdify((x1, x3), p_expr, "numpy")(*v)
        u_nodal = np.stack([sym.lambdify((x1, x3), e, "numpy")(*v)
                            for e in u_expr], axis=1)
        ref = nodal_to_dofs(blk, p_nodal.astype(complex),
                            u_nodal.astype(complex))
        assert np.abs(ref[blk.dof.n_p:]).max() > 0
        assert np.array_equal(x_ex, ref)
        system = assemble(blk, MEDIA, s, None, 0.0, "exact_dtn")
        sol = solve_frequency(FrequencySystem(system.matrix, rhs))
        e_ref = nodal_to_dofs(blk, dofs_to_nodal(blk, sol.x)[0] - p_nodal)
        assert fluid_error_norms(blk, sol.x, x_ex) == \
            (np.sqrt(np.vdot(e_ref, blk.M_fluid @ e_ref).real),
             np.sqrt(np.vdot(e_ref, (blk.M_fluid + blk.K_fluid)
                             @ e_ref).real))

    def test_bottom_condition_enforced(self):
        blk = make_blocks()
        x1, x3 = sym.symbols("x1 x3", real=True)
        with pytest.raises(AssemblyError, match="bottom surface"):
            manufactured_residual(blk, MEDIA, 1.0 + 0.0j,
                                  (sym.Rational(1, 2) - x3) ** 2)


def eager_norm_blocks(mesh, dof):
    """The blocks build_blocks used to assemble up front: the fluid pair,
    the isotropic fluid + layer pair and the componentwise H1 stiffness
    of the solid, as that code assembled them."""
    region = mesh.tri_region
    K_fluid, M_fluid = _assemble_scalar(mesh, dof,
                                        np.flatnonzero(region == FLUID))
    K_iso, M_iso = _assemble_scalar(
        mesh, dof, np.flatnonzero(np.isin(region, (FLUID, PML))))
    tris, c, area, g, mid = _tri_geometry(mesh, np.flatnonzero(
        region == SOLID))
    nt = tris.shape[0]
    dcomp = dof.node_dof[tris][:, :, 1:].reshape(nt, 6)
    Kh1 = np.einsum("tij,ab->tiajb", area[:, None, None]
                    * np.einsum("tia,tja->tij", g, g),
                    np.eye(2)).reshape(nt, 6, 6)
    K_h1 = sp.coo_matrix((Kh1.reshape(nt, 36).ravel(),
                          (np.repeat(dcomp, 6, axis=1).ravel(),
                           np.tile(dcomp, (1, 6)).ravel())),
                         shape=(dof.size, dof.size)).tocsr()
    return {"K_fluid": K_fluid, "M_fluid": M_fluid, "K_all_iso": K_iso,
            "M_all_iso": M_iso, "K_solid_h1": K_h1}


class TestBlocksOnRead:
    PML = PmlProfile(sigma0=2.0, m=1, L=0.4, s1=1.0)

    @pytest.mark.parametrize("layer", [False, True])
    def test_equal_to_eager_assembly_bitwise(self, layer):
        blk = make_blocks(obstacle=True, pml=self.PML if layer else None,
                          surface=SurfaceProfile.cosine(0.1, 1.0))
        for name, ref in eager_norm_blocks(blk.mesh, blk.dof).items():
            A = getattr(blk, name)
            assert A.shape == ref.shape and A.dtype == ref.dtype
            for part in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(A, part), getattr(ref, part))
            # kept: a second read returns the same matrix
            assert getattr(blk, name) is A
        # without a layer the isotropic pair is the fluid pair, built once
        assert (blk.K_all_iso is blk.K_fluid) == (not layer)

    def test_newmark_without_norms_builds_none(self):
        blk = make_blocks(obstacle=True, pml=self.PML)
        src = SourceSpec(center=(0.2, 0.25), radius=0.08, T=0.5)
        on_read = {"_fluid_pair", "_iso_pair"}
        newmark_run(blk, MEDIA, src, 0.5, 5)
        assert not on_read & set(vars(blk))
        # the norms read the fluid pair only (K_solid_h1 is built with
        # the other solid blocks)
        newmark_run(blk, MEDIA, src, 0.5, 5, record_norms=True)
        assert on_read & set(vars(blk)) == {"_fluid_pair"}


class Unloadable(Exception):
    """An exception that pickles but does not unpickle: its class needs
    two arguments, and unpickling passes one."""

    def __init__(self, message, detail):
        super().__init__(message)


def no_child_left():
    """Whether this process has no child, exited or running."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


class TestMapSolves:
    def test_results_in_input_order(self, cpus):
        # on two processes the worker's item 2 finishes before the
        # caller's item 1 returns; the results keep the input order
        r, w = os.pipe()
        try:
            def solve(k):
                if k == 1 and cpus == 2:
                    assert select.select([r], [], [], 10)[0]
                if k == 2:
                    os.write(w, b"2")
                return k * k
            assert map_solves(solve, range(7)) == [k * k for k in range(7)]
            assert map_solves(solve, []) == []
        finally:
            os.close(r)
            os.close(w)
        assert no_child_left()

    def test_one_process_per_cpu(self, cpus):
        # the caller runs the first item and then every cpus-th, from
        # item 1; a worker process each of the other shares
        pids = map_solves(lambda k: os.getpid(), range(40))
        assert [k for k, pid in enumerate(pids) if pid == os.getpid()] \
            == [0] + list(range(1, 40, cpus))
        assert len(set(pids)) == cpus
        assert no_child_left()

    def test_first_failure_raised(self, cpus):
        # on two processes the caller's share is 1, 3, 5, 7 and the
        # worker's 2, 4, 6: the lowest failing item wins, in either share
        for failing in ((3, 5), (2, 3), (3, 4), (4, 6)):
            def solve(k):
                if k in failing:
                    raise SingularSystemError(f"item {k}")
                return k
            with pytest.raises(SingularSystemError,
                               match=f"item {min(failing)}"):
                map_solves(solve, range(8))
            assert no_child_left()

    @pytest.mark.parametrize("fault", ["exit", "local class", "unloadable",
                                       "result"])
    def test_worker_faults_raise(self, fault, monkeypatch):
        # item 2 is the worker's on two processes; it dies, or raises an
        # exception that does not survive pickling, or returns a result
        # that cannot be pickled
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)

        class Local(Exception):
            pass

        def solve(k):
            if k != 2:
                return k
            if fault == "exit":
                os._exit(3)
            if fault == "local class":
                raise Local("no module path")
            if fault == "unloadable":
                raise Unloadable("one argument", "of two")
            return lambda: k
        message = {"exit": "exit code 3", "local class": "item 2: Local: no "
                   "module path", "unloadable": "item 2: Unloadable: one "
                   "argument", "result": "item 2: .*pickle"}[fault]
        with pytest.raises(RuntimeError, match=message):
            map_solves(solve, range(6))
        assert no_child_left()

    def test_workers_killed_when_the_caller_is_interrupted(self, cpus):
        # an exception that is not an Exception (here in the caller's
        # item 1) kills the workers, which sleep, rather than waiting
        class Interrupt(BaseException):
            pass
        caller = os.getpid()

        def solve(k):
            if k == 1:
                raise Interrupt
            if os.getpid() != caller:
                time.sleep(60)
            return k
        start = time.perf_counter()
        with pytest.raises(Interrupt):
            map_solves(solve, range(6))
        assert time.perf_counter() - start < 30
        assert no_child_left()

    def test_fork_warning_is_not_an_error(self, monkeypatch):
        # Python >= 3.12 warns in the parent, after the fork, when the
        # process has other threads; under the suite's warnings-as-errors
        # the pool still runs and reaps its worker
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        fork = os.fork

        def warning_fork():
            pid = fork()
            if pid:
                warnings.warn("This process is multi-threaded, use of "
                              "fork() may lead to deadlocks in the child.",
                              DeprecationWarning, stacklevel=2)
            return pid
        monkeypatch.setattr(os, "fork", warning_fork)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert map_solves(lambda k: k + 1, range(5)) == [1, 2, 3, 4, 5]
        assert no_child_left()

    def test_solves_equal_serial_loop_bitwise(self, cpus):
        blk = make_blocks(obstacle=True)
        src = SourceSpec(center=(0.2, 0.25), radius=0.08, T=2.0)
        load = load_vector(blk, src.spatial)

        def solve(s):
            return solve_frequency(assemble(blk, MEDIA, s, load, 1.0,
                                            "exact_dtn"))
        s_list = [0.5 + 1j * w for w in range(9)]
        for sol, ref in zip(map_solves(solve, s_list),
                            [solve(s) for s in s_list]):
            assert np.array_equal(sol.x, ref.x)
            assert sol.residual == ref.residual
            assert sol.lu_nnz == ref.lu_nnz

    @pytest.mark.parametrize("variant", ["exact_dtn", "pml_layer"])
    def test_order_once_per_form(self, cpus, variant, monkeypatch):
        # every process factors in the order the caller computed once,
        # before the fork; the reordered solve matches the solve in the
        # dof frame under LU_ORDERING, with the same fill
        pml = PmlProfile(sigma0=2.0, m=1, L=0.4, s1=1.0)
        blk = make_blocks(obstacle=True, target=0.05,
                          pml=pml if variant == "pml_layer" else None)
        src = SourceSpec(center=(0.2, 0.25), radius=0.08, T=2.0)
        reorder, builders = vars(AffineForm)["reordered"].func, []

        def counted(form):
            builders.append(os.getpid())
            return reorder(form)
        prop = cached_property(counted)
        prop.__set_name__(AffineForm, "reordered")
        monkeypatch.setattr(AffineForm, "reordered", prop)

        def solve(s):
            system = assemble(blk, MEDIA, s, src.spatial, 1.0, variant)
            ref = solve_frequency(FrequencySystem(system.matrix, system.rhs))
            return solve_frequency(system), ref, list(builders)
        for sol, ref, seen in map_solves(solve, [0.5 + 1j * w
                                                 for w in range(0, 60, 6)]):
            assert seen == [os.getpid()]
            assert sol.lu_nnz == ref.lu_nnz
            assert np.abs(sol.x - ref.x).max() <= 1e-12 * np.abs(ref.x).max()

    def test_cpu_count_from_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5},
                            raising=False)
        assert _cpu_count() == 3
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert _cpu_count() == 4
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _cpu_count() == 1
