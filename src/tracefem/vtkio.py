"""Legacy-VTK text export of meshes, interfaces and lifted points."""

from __future__ import annotations

import os

import numpy as np

from .assembly import SurfaceData
from .cutquad import corners
from .mesh import element_chunks


def _write_points(fh, points):
    fh.write(f"POINTS {len(points)} double\n")
    np.savetxt(fh, points, fmt="%.16g")


def _write_cells(fh, cells):
    """One row per cell: its vertex count, then its vertex indices."""
    np.savetxt(fh, np.column_stack([np.full(len(cells), cells.shape[1]), cells]), fmt="%d")


def write_unstructured_tets(path, points, tets):
    """Tetrahedral mesh as an ASCII legacy UNSTRUCTURED_GRID file."""
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\ntracefem mesh\nASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        _write_points(fh, points)
        fh.write(f"CELLS {len(tets)} {5 * len(tets)}\n")
        _write_cells(fh, tets)
        fh.write(f"CELL_TYPES {len(tets)}\n")
        fh.write("\n".join(["10"] * len(tets)) + "\n")


def write_triangles(path, points, tris):
    """Triangle soup as an ASCII legacy POLYDATA file."""
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\ntracefem interface\nASCII\n")
        fh.write("DATASET POLYDATA\n")
        _write_points(fh, points)
        fh.write(f"POLYGONS {len(tris)} {4 * len(tris)}\n")
        _write_cells(fh, tris)


def write_point_cloud(path, points):
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\ntracefem points\nASCII\n")
        fh.write("DATASET POLYDATA\n")
        _write_points(fh, points)
        fh.write(f"VERTICES {len(points)} {2 * len(points)}\n")
        _write_cells(fh, np.arange(len(points))[:, None])


def _mesh_vertex_arrays(mesh):
    uniq, inv = np.unique(mesh.vertex_ids(slice(None)).ravel(), return_inverse=True)
    pos = np.empty((len(uniq), 3))
    pos[inv] = mesh.verts_phys(slice(None)).reshape(-1, 3)
    return pos, inv.reshape(-1, 4)


def export_level(outdir, tag, mapping):
    """Write the standard bundle for one refinement level, the level of mapping's mesh."""
    mesh = mapping.mesh
    os.makedirs(outdir, exist_ok=True)
    pos, cells = _mesh_vertex_arrays(mesh)
    write_unstructured_tets(os.path.join(outdir, f"active_mesh_{tag}.vtk"), pos, cells)

    # the interface triangles of the mesh's own cut, which the assembly has
    # already made, their corners rebuilt one chunk of triangles at a time
    surf = SurfaceData.build(mapping)
    pts = np.empty((len(surf.cells), 3, 3))
    for s in element_chunks(len(surf.cells), 4 * 3 * 4):
        pts[s] = np.einsum("tcm,tmi->tci", corners(surf.tri_edges[s], surf.tri_fracs[s]), mesh.verts_phys(surf.cells[s]))
    pts = pts.reshape(-1, 3)
    tris = np.arange(len(pts)).reshape(-1, 3)
    write_triangles(os.path.join(outdir, f"interface_lin_{tag}.vtk"), pts, tris)

    if mesh.k > 1:
        # Theta fixes the mesh vertices, so its nodal values show the deformation
        write_point_cloud(os.path.join(outdir, f"deformed_nodes_{tag}.vtk"), mapping.nodes)

    # the lifted points, written chunk by chunk into one array; nothing else
    # of a chunk is alive when the next one is lifted
    y, at = np.empty((len(surf.cells) * surf.q, 3)), 0
    for _, lift, w in surf.chunks():
        y[at:at + w.size] = lift.y.reshape(-1, 3)
        at += w.size
        del lift, w
    write_point_cloud(os.path.join(outdir, f"interface_lifted_{tag}.vtk"), y)
