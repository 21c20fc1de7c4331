"""Boundary-fitted triangulation of the periodic strip.

The mesh is built from a mapped structured grid: vertical grid curves
blend from the rough bottom profile to flat levels, so the bottom
surface, the plane x3 = h, the top of the absorbing layer and the
(axis-aligned rectangular) inclusion boundary are all exact unions of
mesh edges.  Lateral periodicity is realized by keeping a duplicated
right column of vertices together with a master-node map used by the
assembly routines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import Geometry, GeometryError, PmlProfile

FLUID, SOLID, PML = 0, 1, 2

MARKER_GAMMA_F = "GammaF"
MARKER_GAMMA = "Gamma"
MARKER_GAMMA_H = "GammaH"
MARKER_GAMMA_HL = "GammaHL"

# the most vertices build_mesh is asked for: about 100 times the 41,409
# of the finest acceptance mesh
MAX_VERTICES = 2 ** 22
# _count's relative margin: a ratio this close to a half counts as that
# half, so values a few ulps apart (0.2 and 0.3 - 0.1) give one grid
COUNT_EPS = 1e-9


@dataclass
class StripMesh:
    """Conforming triangulation of one period of the strip."""

    vertices: np.ndarray          # (nv, 2) coordinates
    triangles: np.ndarray         # (nt, 3) vertex indices
    tri_region: np.ndarray        # (nt,) FLUID / SOLID / PML
    node_master: np.ndarray       # (nv,) periodic master of each node
    boundary_edges: dict          # marker -> (ne, 2) vertex index pairs
    gamma_normals: np.ndarray     # (ne_gamma, 2) outward normals (from solid)
    gamma_h_nodes: np.ndarray     # master nodes on x3 = h, ordered by x1
    geometry: Geometry = None
    pml: PmlProfile | None = None
    meta: dict = field(default_factory=dict)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    def nodes_of_region(self, *regions) -> np.ndarray:
        mask = np.isin(self.tri_region, regions)
        return np.unique(self.triangles[mask])

    def masters(self, nodes) -> np.ndarray:
        return np.unique(self.node_master[np.asarray(nodes)])


def _count(ratio: float) -> int:
    """round(ratio), halves to even, where a ratio within COUNT_EPS
    (relative) of a half is that half.  Every row and column count of
    the grid goes through it."""
    half = math.floor(ratio) + 0.5
    return round(half if abs(ratio - half) <= COUNT_EPS * half else ratio)


def _level_rows(geom: Geometry, pml: PmlProfile | None, target: float):
    """Return (t, z, row_h, rows_b): grid row r lies at
    x3 = (1 - t[r]) f(x1) + t[r] z[r] over the bottom profile f, so rows
    with t = 1 are flat; rows_b are the row indices of the obstacle
    bottom/top (or None)."""
    f, h, ob = geom.surface, geom.h, geom.obstacle
    # rows blending from the bottom to the first flat level
    top = h if ob is None else ob.x3a
    n = max(2, _count((top - 0.5 * (f.f_minus + f.f_plus)) / target))
    t, z = [np.arange(n + 1) / n], [np.full(n + 1, top)]
    rows_b = None

    def flat(lo, width, n):
        """Flat rows at lo + j/n width, j = 1..n."""
        t.append(np.ones(n))
        z.append(lo + np.arange(1, n + 1) / n * width)

    if ob is not None:
        nB = max(1, _count((ob.x3b - ob.x3a) / target))
        flat(ob.x3a, ob.x3b - ob.x3a, nB)
        flat(ob.x3b, h - ob.x3b, max(1, _count((h - ob.x3b) / target)))
        rows_b = (n, n + nB)
    row_h = sum(map(len, t)) - 1
    if pml is not None:
        flat(h, pml.L, max(2, _count(pml.L / target)))
    return np.concatenate(t), np.concatenate(z), row_h, rows_b


def check_grid(geom: Geometry, L: float | None, mesh_size: float) -> None:
    """Reject a mesh size build_mesh cannot grid the strip with, topped
    by a layer of thickness L (None: no layer): it must lie in
    (0, h - f_plus) and below L, and the grid must have at most
    MAX_VERTICES vertices.  The count is bounded without building
    anything, by (period / mesh_size + 5) (depth / mesh_size + 10) with
    depth = h - f_minus + L; an inf or nan bound fails too."""
    if not 0 < mesh_size < geom.h - geom.surface.f_plus:
        raise GeometryError(f"mesh_size = {mesh_size:g} must lie in "
                            "(0, h - f_plus)")
    if L is not None and not mesh_size < L:
        raise GeometryError(f"mesh_size = {mesh_size:g} must be below the "
                            f"layer thickness {L:g}")
    depth = geom.h - float(geom.surface.f_minus) + (0.0 if L is None else L)
    if not (geom.period / mesh_size + 5.0) \
            * (depth / mesh_size + 10.0) <= MAX_VERTICES:
        raise GeometryError(f"the grid at mesh_size = {mesh_size:g} would "
                            f"have more than {MAX_VERTICES} vertices")


def build_mesh(geom: Geometry, pml: PmlProfile | None,
               target_h: float) -> StripMesh:
    """Triangulate one period of the strip (plus the absorbing layer if
    a profile is given) at roughly the requested edge length."""
    check_grid(geom, None if pml is None else pml.L, target_h)
    f = geom.surface

    # lateral grid, snapped to the obstacle's vertical sides
    n1 = max(4, _count(geom.period / target_h))
    x1 = np.linspace(0.0, geom.period, n1 + 1)
    cols_ob = None
    if geom.obstacle is not None:
        ob = geom.obstacle
        ia = int(np.clip(_count(ob.x1a / geom.period * n1), 1, n1 - 2))
        ib = int(np.clip(_count(ob.x1b / geom.period * n1), ia + 1, n1 - 1))
        x1 = x1.copy()
        x1[ia], x1[ib] = ob.x1a, ob.x1b
        if not (np.all(np.diff(x1) > 0)):
            raise GeometryError("obstacle too small for the requested mesh "
                                "size")
        cols_ob = (ia, ib)

    t, z, row_h, rows_b = _level_rows(geom, pml, target_h)
    n_rows = t.size

    verts = np.empty((n_rows, n1 + 1, 2))
    verts[..., 0] = x1
    verts[..., 1] = (1.0 - t)[:, None] * f(x1) + t[:, None] * z[:, None]
    verts = verts.reshape(-1, 2)

    def vid(r, c):
        return r * (n1 + 1) + c

    node_master = np.arange(verts.shape[0])
    node_master[vid(np.arange(n_rows), n1)] = vid(np.arange(n_rows), 0)

    # cells (r, c) row by row, two triangles each
    r, c = np.divmod(np.arange((n_rows - 1) * n1, dtype=np.int64), n1)
    a, b, d, e = vid(r, c), vid(r, c + 1), vid(r + 1, c), vid(r + 1, c + 1)
    triangles = np.stack([a, b, e, a, e, d], axis=1).reshape(-1, 3)
    reg = np.where(r >= row_h, PML, FLUID)
    if rows_b is not None:
        reg[(rows_b[0] <= r) & (r < rows_b[1])
            & (cols_ob[0] <= c) & (c < cols_ob[1])] = SOLID
    tri_region = np.repeat(reg, 2).astype(np.int64)

    cols = np.arange(n1, dtype=np.int64)
    marker_rows = {MARKER_GAMMA_F: 0, MARKER_GAMMA_H: row_h}
    if pml is not None:
        marker_rows[MARKER_GAMMA_HL] = n_rows - 1
    boundary = {marker: np.stack([vid(row, cols), vid(row, cols + 1)], 1)
                for marker, row in marker_rows.items()}
    # inclusion sides: bottom/top edge pairs by column, then left/right
    # pairs by row, with outward (from the solid) normals
    gamma_edges, gamma_normals = np.zeros((0, 2), np.int64), np.zeros((0, 2))
    if geom.obstacle is not None:
        (ia, ib), (rb1, rb2) = cols_ob, rows_b
        c, r = np.arange(ia, ib), np.arange(rb1, rb2)
        gamma_edges = np.concatenate([
            np.stack([vid(rb1, c), vid(rb1, c + 1), vid(rb2, c),
                      vid(rb2, c + 1)], 1).reshape(-1, 2),
            np.stack([vid(r, ia), vid(r + 1, ia), vid(r, ib),
                      vid(r + 1, ib)], 1).reshape(-1, 2)])
        gamma_normals = np.concatenate([
            np.tile([[0.0, -1.0], [0.0, 1.0]], (c.size, 1)),
            np.tile([[-1.0, 0.0], [1.0, 0.0]], (r.size, 1))])
    boundary[MARKER_GAMMA] = gamma_edges

    gamma_h_nodes = vid(row_h, cols)

    return StripMesh(
        vertices=verts, triangles=triangles, tri_region=tri_region,
        node_master=node_master, boundary_edges=boundary,
        gamma_normals=gamma_normals,
        gamma_h_nodes=gamma_h_nodes, geometry=geom, pml=pml,
        meta={"n1": n1, "row_h": row_h, "rows_b": rows_b,
              "cols_ob": cols_ob, "n_rows": n_rows, "target_h": target_h},
    )


def export_mesh(mesh: StripMesh, path: str) -> None:
    """Write the mesh in the plain-text format documented in the README:
    $nodes / $elements / $markers sections, each formatted as one table."""
    def table(pattern, columns):
        rows = np.column_stack(columns)
        return (pattern + "\n") * len(rows) % tuple(rows.ravel().tolist())

    nv, nt = mesh.n_vertices, mesh.n_triangles
    with open(path, "w") as fh:
        fh.write(f"$nodes\n{nv}\n")
        fh.write(table("%d %.17g %.17g %d", (np.arange(nv), mesh.vertices,
                                             mesh.node_master)))
        fh.write(f"$elements\n{nt}\n")
        fh.write(table("%d %d %d %d %d", (np.arange(nt), mesh.triangles,
                                          mesh.tri_region)))
        fh.write("$markers\n")
        for name, edges in mesh.boundary_edges.items():
            fh.write(f"{name} {len(edges)}\n" + table("%d %d", (edges,)))
