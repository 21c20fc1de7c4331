"""Structured boundary-fitted triangulation of the periodic strip."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmlstrip import (Geometry, GeometryError, PmlProfile, Rectangle,
                      StripMesh, SurfaceProfile, build_mesh, export_mesh)
from pmlstrip.mesh import FLUID, PML, SOLID, check_grid


def flat_geometry(obstacle=None):
    return Geometry(period=1.0, surface=SurfaceProfile.flat(0.0), h=0.5,
                    obstacle=obstacle)


class TestBasic:
    def test_flat_no_layer(self):
        mesh = build_mesh(flat_geometry(), None, 0.1)
        assert np.all(mesh.tri_region == FLUID)
        assert "GammaHL" not in mesh.boundary_edges
        # surface and top rows sit exactly on their planes
        gf = np.unique(mesh.boundary_edges["GammaF"])
        assert np.allclose(mesh.vertices[gf, 1], 0.0)
        gh = np.unique(mesh.boundary_edges["GammaH"])
        assert np.allclose(mesh.vertices[gh, 1], 0.5)

    def test_with_layer(self):
        pml = PmlProfile(sigma0=2.0, m=1, L=0.4, s1=1.0)
        mesh = build_mesh(flat_geometry(), pml, 0.1)
        assert np.any(mesh.tri_region == PML)
        ghl = np.unique(mesh.boundary_edges["GammaHL"])
        assert np.allclose(mesh.vertices[ghl, 1], 0.9)
        # layer triangles all above h
        for t in np.flatnonzero(mesh.tri_region == PML):
            assert np.all(mesh.vertices[mesh.triangles[t], 1] >= 0.5 - 1e-12)

    def test_periodic_master_map(self):
        mesh = build_mesh(flat_geometry(), None, 0.1)
        right = np.flatnonzero(
            np.isclose(mesh.vertices[:, 0], 1.0))
        for node in right:
            m = mesh.node_master[node]
            assert np.isclose(mesh.vertices[m, 0], 0.0)
            assert np.isclose(mesh.vertices[m, 1], mesh.vertices[node, 1])
        interior = np.flatnonzero(mesh.vertices[:, 0] < 1.0 - 1e-12)
        assert np.all(mesh.node_master[interior] == interior)

    def test_positive_areas_and_cover(self):
        geom = Geometry(period=1.0,
                        surface=SurfaceProfile.cosine(0.1, 1.0), h=0.5)
        mesh = build_mesh(geom, None, 0.05)
        v = mesh.vertices[mesh.triangles]
        d1 = v[:, 1] - v[:, 0]
        d2 = v[:, 2] - v[:, 0]
        areas = 0.5 * np.abs(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        assert np.all(areas > 0)
        # total area = int (h - f) dx = 0.5 (cosine integrates to zero)
        assert areas.sum() == pytest.approx(0.5, rel=1e-10)

    def test_cosine_surface_fitted(self):
        geom = Geometry(period=1.0,
                        surface=SurfaceProfile.cosine(0.1, 2.0), h=0.5)
        mesh = build_mesh(geom, None, 0.05)
        gf = np.unique(mesh.boundary_edges["GammaF"])
        assert np.allclose(mesh.vertices[gf, 1],
                           geom.surface(mesh.vertices[gf, 0]))


class TestObstacle:
    def test_solid_region_and_interface(self):
        ob = Rectangle(0.4, 0.6, 0.15, 0.35)
        mesh = build_mesh(flat_geometry(ob), None, 0.05)
        solid = np.flatnonzero(mesh.tri_region == SOLID)
        assert solid.size > 0
        # solid triangle centroids inside the rectangle
        cent = mesh.vertices[mesh.triangles[solid]].mean(axis=1)
        assert np.all(ob.contains(cent[:, 0], cent[:, 1]))
        # interface edges on the rectangle boundary, normals outward
        edges = mesh.boundary_edges["Gamma"]
        assert edges.size > 0
        for (a, b), n in zip(edges, mesh.gamma_normals):
            mid = 0.5 * (mesh.vertices[a] + mesh.vertices[b])
            onb = (np.isclose(mid[0], ob.x1a) or np.isclose(mid[0], ob.x1b)
                   or np.isclose(mid[1], ob.x3a)
                   or np.isclose(mid[1], ob.x3b))
            assert onb
            cx, cz = 0.5, 0.25
            assert n[0] * (mid[0] - cx) + n[1] * (mid[1] - cz) > 0

    def test_obstacle_sides_snapped(self):
        ob = Rectangle(0.33, 0.61, 0.17, 0.34)
        mesh = build_mesh(flat_geometry(ob), None, 0.04)
        xs = mesh.vertices[:, 0]
        assert np.any(np.isclose(xs, 0.33))
        assert np.any(np.isclose(xs, 0.61))


def looped_connectivity(mesh):
    """Triangles, regions and inclusion edges/normals cell by cell, as
    the mesh was first built."""
    meta = mesh.meta
    n1, row_h, rows_b, cols_ob = (meta["n1"], meta["row_h"],
                                  meta["rows_b"], meta["cols_ob"])

    def vid(r, c):
        return r * (n1 + 1) + c

    tris, regions = [], []
    for r in range(meta["n_rows"] - 1):
        for c in range(n1):
            if rows_b is not None and rows_b[0] <= r < rows_b[1] \
                    and cols_ob[0] <= c < cols_ob[1]:
                reg = SOLID
            elif r >= row_h:
                reg = PML
            else:
                reg = FLUID
            a, b = vid(r, c), vid(r, c + 1)
            d, e = vid(r + 1, c), vid(r + 1, c + 1)
            tris += [(a, b, e), (a, e, d)]
            regions += [reg, reg]
    edges, normals = [], []
    if rows_b is not None:
        (ia, ib), (rb1, rb2) = cols_ob, rows_b
        for c in range(ia, ib):
            edges += [(vid(rb1, c), vid(rb1, c + 1)),
                      (vid(rb2, c), vid(rb2, c + 1))]
            normals += [(0.0, -1.0), (0.0, 1.0)]
        for r in range(rb1, rb2):
            edges += [(vid(r, ia), vid(r + 1, ia)),
                      (vid(r, ib), vid(r + 1, ib))]
            normals += [(-1.0, 0.0), (1.0, 0.0)]
    return (np.array(tris).reshape(-1, 3), np.array(regions),
            np.array(edges).reshape(-1, 2), np.array(normals).reshape(-1, 2))


class TestConnectivity:
    @pytest.mark.parametrize("obstacle", [None, Rectangle(0.4, 0.6, 0.2,
                                                          0.4)])
    @pytest.mark.parametrize("layer", [False, True])
    def test_matches_cell_loop(self, obstacle, layer):
        pml = PmlProfile(sigma0=2.0, m=1, L=0.4, s1=1.0) if layer else None
        mesh = build_mesh(flat_geometry(obstacle), pml, 0.05)
        tris, regions, edges, normals = looped_connectivity(mesh)
        assert np.array_equal(mesh.triangles, tris)
        assert np.array_equal(mesh.tri_region, regions)
        assert np.array_equal(mesh.boundary_edges["Gamma"], edges)
        assert np.array_equal(mesh.gamma_normals, normals)
        assert list(mesh.boundary_edges) == \
            ["GammaF", "GammaH"] + ["GammaHL"] * layer + ["Gamma"]


class TestLayerPrefix:
    """A layer mesh extends the mesh without a layer: both convergence
    routes compare fields on the shared leading vertices."""

    @pytest.mark.parametrize("surface", [SurfaceProfile.flat(0.0),
                                         SurfaceProfile.cosine(0.1, 1.0)])
    @pytest.mark.parametrize("obstacle", [None, Rectangle(0.4, 0.6, 0.2,
                                                          0.4)])
    def test_no_layer_mesh_is_prefix(self, surface, obstacle):
        geom = Geometry(period=1.0, surface=surface, h=0.5,
                        obstacle=obstacle)
        base = build_mesh(geom, None, 0.05)
        nv, nt = base.n_vertices, base.n_triangles
        for L in (0.1, 0.25, 0.4, 3.0):
            mesh = build_mesh(geom, PmlProfile(sigma0=2.0, m=1, L=L,
                                               s1=1.0), 0.05)
            assert mesh.n_vertices > nv and mesh.n_triangles > nt
            assert np.array_equal(mesh.vertices[:nv], base.vertices)
            assert np.array_equal(mesh.node_master[:nv], base.node_master)
            assert np.array_equal(mesh.triangles[:nt], base.triangles)
            assert np.array_equal(mesh.tri_region[:nt], base.tri_region)


def looped_rows(geom, pml, target):
    """The grid rows as one closure x1 -> x3 per row, with the surface
    row of the layer and the inclusion's bottom and top rows, as the mesh
    was first built: the reference for its row arrays."""
    f, h, ob = geom.surface, geom.h, geom.obstacle
    levels, rows_b = [], None

    def blend(hi, n):
        for j in range(n + 1):
            levels.append(lambda x, t=j / n: (1.0 - t) * f(x) + t * hi)

    def flat(lo, width, n):
        for j in range(1, n + 1):
            z = lo + j / n * width
            levels.append(lambda x, z=z: np.full_like(x, z, dtype=float))

    mid = 0.5 * (f.f_minus + f.f_plus)
    if ob is None:
        blend(h, max(2, round((h - mid) / target)))
    else:
        blend(ob.x3a, max(2, round((ob.x3a - mid) / target)))
        rb1 = len(levels) - 1
        flat(ob.x3a, ob.x3b - ob.x3a, max(1, round((ob.x3b - ob.x3a)
                                                   / target)))
        rows_b = (rb1, len(levels) - 1)
        flat(ob.x3b, h - ob.x3b, max(1, round((h - ob.x3b) / target)))
    row_h = len(levels) - 1
    if pml is not None:
        flat(h, pml.L, max(2, round(pml.L / target)))
    return levels, row_h, rows_b


class TestRows:
    @pytest.mark.parametrize("surface", [SurfaceProfile.flat(-0.05),
                                         SurfaceProfile.cosine(0.1, 1.0)])
    @pytest.mark.parametrize("obstacle", [None, Rectangle(0.4, 0.6, 0.3 - 0.1,
                                                          0.4)])
    @pytest.mark.parametrize("L", [None, 0.4, 1.0 / 3.0])
    def test_matches_row_closures(self, surface, obstacle, L):
        # the row arrays place every vertex bit for bit where the
        # closures did
        geom = Geometry(period=1.0, surface=surface, h=0.5,
                        obstacle=obstacle)
        pml = None if L is None else PmlProfile(sigma0=2.0, m=1, L=L,
                                                 s1=1.0)
        mesh = build_mesh(geom, pml, 0.07)
        levels, row_h, rows_b = looped_rows(geom, pml, 0.07)
        x1 = mesh.vertices[:mesh.meta["n1"] + 1, 0]
        ref = np.concatenate([np.column_stack((x1, lv(x1)))
                              for lv in levels])
        assert mesh.vertices.tobytes() == ref.tobytes()
        assert (mesh.meta["row_h"], mesh.meta["rows_b"]) == (row_h, rows_b)


@st.composite
def decimal_geometries(draw):
    """Values as written in a config (two decimals; the mesh size a
    multiple of 0.005): period, h, cosine amplitude, inclusion corners,
    layer thickness and mesh size, each nudged by up to 3 ulps or not."""
    def cents(lo, hi):
        return draw(st.integers(lo, hi)) / 100

    period, h, amp = cents(50, 200), cents(30, 80), cents(0, 10)
    x1a = cents(1, int(period * 100) - 30)
    x1b = cents(int(x1a * 100) + 20, int(period * 100) - 1)
    x3a = cents(int(amp * 100) + 1, int(h * 100) - 15)
    x3b = cents(int(x3a * 100) + 5, int(h * 100) - 1)
    values = [period, h, amp, x1a, x1b, x3a, x3b, cents(15, 100),
              draw(st.integers(4, 20)) / 200]

    def nudge(v):
        k = draw(st.integers(-3, 3))
        for _ in range(abs(k)):
            v = np.nextafter(v, np.copysign(np.inf, k))
        return float(v)
    return values, [nudge(v) for v in values]


def decimal_mesh(period, h, amp, x1a, x1b, x3a, x3b, L, mesh_size):
    geom = Geometry(period=period,
                    surface=SurfaceProfile.cosine(amp, 1.0, period),
                    h=h, obstacle=Rectangle(x1a, x1b, x3a, x3b))
    return build_mesh(geom, PmlProfile(sigma0=2.0, m=1, L=L, s1=1.0),
                      mesh_size)


class TestRowCounts:
    def test_inclusion_bottom_a_few_ulps_apart(self):
        # with round() a bottom of 0.2 meshed to 78 vertices, one of
        # 0.3 - 0.1 = 0.19999999999999998 to 91
        meshes = [build_mesh(flat_geometry(Rectangle(0.4, 0.6, x3a, 0.4)),
                             None, 0.08) for x3a in (0.2, 0.3 - 0.1)]
        assert [m.n_vertices for m in meshes] == [78, 78]

    @settings(max_examples=60, deadline=None)
    @given(case=decimal_geometries())
    def test_few_ulps_leave_the_grid(self, case):
        # every row and column count goes through mesh._count: nudging
        # any geometry value or the mesh size by a few ulps leaves the
        # vertex count and the topology (triangles, regions, boundary
        # edges, rows and columns of the layer and the inclusion)
        # unchanged
        try:
            base = decimal_mesh(*case[0])
        except GeometryError:
            with pytest.raises(GeometryError):
                decimal_mesh(*case[1])
            return
        mesh = decimal_mesh(*case[1])
        assert mesh.n_vertices == base.n_vertices
        assert np.array_equal(mesh.triangles, base.triangles)
        assert np.array_equal(mesh.tri_region, base.tri_region)
        assert mesh.boundary_edges.keys() == base.boundary_edges.keys()
        assert all(np.array_equal(mesh.boundary_edges[k], edges)
                   for k, edges in base.boundary_edges.items())
        assert {k: v for k, v in mesh.meta.items() if k != "target_h"} \
            == {k: v for k, v in base.meta.items() if k != "target_h"}


class TestValidation:
    def test_target_size_limits(self):
        with pytest.raises(GeometryError):
            build_mesh(flat_geometry(), None, 0.6)
        with pytest.raises(GeometryError):
            build_mesh(flat_geometry(),
                       PmlProfile(sigma0=1.0, m=1, L=0.05, s1=1.0), 0.1)

    def test_nonperiodic_surface_rejected(self):
        bad = SurfaceProfile(lambda x: 0.1 * x, 0.0, 0.1)
        with pytest.raises(GeometryError, match="not periodic"):
            Geometry(period=1.0, surface=bad, h=0.5)

    @pytest.mark.parametrize("period, L, mesh_size", [
        (1e200, None, 0.05), (1.0, 1e155, 0.125), (1e6, None, 0.05),
        (1.0, 1e308, 1e-300)])
    def test_grid_above_the_vertex_cap_rejected(self, period, L, mesh_size):
        geom = Geometry(period=period, surface=SurfaceProfile.flat(0.0),
                        h=0.5)
        with pytest.raises(GeometryError, match="vertices"):
            check_grid(geom, L, mesh_size)

    @settings(max_examples=60, deadline=None)
    @given(cosine=st.one_of(st.none(), st.tuples(st.floats(-0.1, 0.1),
                                                 st.integers(1, 3))),
           inclusion=st.booleans(),
           L=st.one_of(st.none(), st.floats(0.31, 2.0)),
           mesh_size=st.floats(0.05, 0.3))
    def test_vertex_bound_holds(self, cosine, inclusion, L, mesh_size):
        # check_grid caps (period / mesh_size + 5) (depth / mesh_size + 10),
        # depth = h - f_minus + L, which must bound build_mesh's count
        surface = SurfaceProfile.flat(0.0) if cosine is None \
            else SurfaceProfile.cosine(*cosine)
        geom = Geometry(period=1.0, surface=surface, h=0.5,
                        obstacle=Rectangle(0.4, 0.6, 0.15, 0.35)
                        if inclusion else None)
        pml = None if L is None else PmlProfile(L=L)
        depth = geom.h - surface.f_minus + (0.0 if L is None else L)
        bound = (geom.period / mesh_size + 5.0) * (depth / mesh_size + 10.0)
        assert build_mesh(geom, pml, mesh_size).n_vertices <= bound


class TestExport:
    def test_round_trip_counts(self, tmp_path):
        mesh = build_mesh(flat_geometry(Rectangle(0.4, 0.6, 0.15, 0.35)),
                          PmlProfile(sigma0=2.0, m=1, L=0.3, s1=1.0), 0.06)
        path = tmp_path / "mesh.txt"
        export_mesh(mesh, str(path))
        text = path.read_text().splitlines()
        assert text[0] == "$nodes"
        assert int(text[1]) == mesh.n_vertices
        i_el = text.index("$elements")
        assert int(text[i_el + 1]) == mesh.n_triangles
        i_mk = text.index("$markers")
        names = set()
        k = i_mk + 1
        while k < len(text):
            name, count = text[k].split()
            names.add(name)
            k += int(count) + 1
        assert names == set(mesh.boundary_edges)
