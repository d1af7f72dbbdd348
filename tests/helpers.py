"""Shared fixtures-by-function and independent oracles for the test suite.

Everything here is deliberately implemented from first principles (brute
force, finite differences, closed forms) so that library results can be
checked against code that shares none of the library's shortcuts.
"""

from __future__ import annotations

import itertools
import sys
import tracemalloc

import numpy as np
import scipy.linalg
from scipy.optimize import brentq

from tracefem import backends
from tracefem.assembly import LiftedRule, SurfaceData
from tracefem.cutquad import triangle_rule
from tracefem.levelset import SingularPointError, Sphere, Torus, TorusBenchmark
from tracefem.mapping import _flat_rows, _search, adjugate_and_det, build_theta
from tracefem.mesh import _FACE_LOCAL, KUHN_VERTS, SHAPE_BARY_A, ActiveMesh, MeshParams, element_chunks
from tracefem.reference import interpolate

_CASE_CACHE: dict = {}


def torus_mesh(n: int, k: int):
    """Cached (levelset, mesh) for the default torus; no mapping built."""
    key = ("torus-mesh", n, k)
    if key not in _CASE_CACHE:
        ls = Torus()
        _CASE_CACHE[key] = (ls, ActiveMesh.build(MeshParams(n), ls, k))
    return _CASE_CACHE[key]


def torus_case(n: int, k: int):
    """Cached (levelset, mesh, dls, mapping) for the default torus."""
    key = ("torus", n, k)
    if key not in _CASE_CACHE:
        ls, mesh = torus_mesh(n, k)
        dls = interpolate(ls, mesh)
        mapping = build_theta(dls)
        _CASE_CACHE[key] = (ls, mesh, dls, mapping)
    return _CASE_CACHE[key]


def sphere_case(n: int, k: int):
    """Cached (levelset, mesh, dls, mapping) for the unit sphere."""
    key = ("sphere", n, k)
    if key not in _CASE_CACHE:
        ls = Sphere()
        mesh = ActiveMesh.build(MeshParams(n), ls, k)
        dls = interpolate(ls, mesh)
        _CASE_CACHE[key] = (ls, mesh, dls, build_theta(dls))
    return _CASE_CACHE[key]


def plane_case(levelset, n: int, k: int):
    """Uncached pipeline for a plane level set."""
    mesh = ActiveMesh.build(MeshParams(n), levelset, k)
    dls = interpolate(levelset, mesh)
    mapping = build_theta(dls)
    return mesh, dls, mapping


def torus_point(phi_ang, theta, R=1.0, r=0.6):
    """Surface point of the torus at the given angles."""
    phi_ang = np.asarray(phi_ang, dtype=np.float64)
    theta = np.asarray(theta, dtype=np.float64)
    rt = R + r * np.cos(theta)
    return np.stack(
        [rt * np.cos(phi_ang), rt * np.sin(phi_ang), r * np.sin(theta)], axis=-1
    )


def torus_u(phi_ang, theta):
    return np.sin(3.0 * phi_ang) * np.cos(3.0 * theta + phi_ang)


def _fd2(f, x, step):
    """Central second difference with one Richardson sweep."""

    def d2(s):
        return (f(x + s) - 2.0 * f(x) + f(x - s)) / s**2

    return (4.0 * d2(step) - d2(2.0 * step)) / 3.0


def _fd1(f, x, step):
    """Central first difference with one Richardson sweep."""

    def d1(s):
        return (f(x + s) - f(x - s)) / (2.0 * s)

    return (4.0 * d1(step) - d1(2.0 * step)) / 3.0


def fd_laplace_beltrami_torus(phi_ang, theta, R=1.0, r=0.6, step=1e-3):
    """Central-difference surface Laplacian of torus_u in the angle chart."""
    u_pp = _fd2(lambda p: torus_u(p, theta), phi_ang, step)
    u_tt = _fd2(lambda t: torus_u(phi_ang, t), theta, step)
    u_t = _fd1(lambda t: torus_u(phi_ang, t), theta, step)
    rt = R + r * np.cos(theta)
    return u_pp / rt**2 + u_tt / r**2 - np.sin(theta) * u_t / (r * rt)


def sphere_u(theta, phi_ang):
    """x*y*z on the unit sphere in polar coordinates (theta from the z-axis)."""
    st, ct = np.sin(theta), np.cos(theta)
    return st * np.cos(phi_ang) * st * np.sin(phi_ang) * ct


def fd_laplace_beltrami_sphere(theta, phi_ang, step=1e-3):
    """Central-difference Laplace-Beltrami of sphere_u on the unit sphere."""
    u_tt = _fd2(lambda t: sphere_u(t, phi_ang), theta, step)
    u_t = _fd1(lambda t: sphere_u(t, phi_ang), theta, step)
    u_pp = _fd2(lambda p: sphere_u(theta, p), phi_ang, step)
    return u_tt + u_t * np.cos(theta) / np.sin(theta) + u_pp / np.sin(theta) ** 2


def torus_surface_integral(fn, R=1.0, r=0.6, m=512):
    """Periodic trapezoid rule of fn(phi_ang, theta) over the torus."""
    phi_ang = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
    theta = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
    P, T = np.meshgrid(phi_ang, theta, indexing="ij")
    rt = R + r * np.cos(T)
    vals = fn(P, T) * rt * r
    return vals.mean() * (2.0 * np.pi) ** 2


def kuhn_tets_of_cube():
    """Independent Freudenthal subdivision: vertex paths along axis permutations."""
    tets = []
    for p in itertools.permutations(range(3)):
        v = np.zeros((4, 3), dtype=np.int64)
        v[1][p[0]] = 1
        v[2][p[0]] = 1
        v[2][p[1]] = 1
        v[3] = 1
        tets.append(v)
    return tets


def brute_force_active(params: MeshParams, grid: np.ndarray):
    """Mixed-sign tets over the full grid, as a set of vertex-tuple frozensets."""
    n = params.n
    v = np.array(grid, dtype=np.float64)
    v[v == 0.0] = 1e-14 * params.h
    tets = kuhn_tets_of_cube()
    active = set()
    for i in range(n):
        for j in range(n):
            for kz in range(n):
                base = np.array([i, j, kz], dtype=np.int64)
                for t in tets:
                    verts = base + t
                    vals = v[verts[:, 0], verts[:, 1], verts[:, 2]]
                    if vals.min() < 0.0 and vals.max() > 0.0:
                        active.add(frozenset(map(tuple, verts)))
    return active


def mesh_active_sets(mesh: ActiveMesh):
    """Library active elements in the same vertex-set encoding."""
    return {frozenset(map(tuple, verts)) for verts in mesh.verts_lattice(slice(None)).tolist()}


def clip_polygon_oracle(vphi, verts):
    """Zero-level polygon of the linear interpolant on one tet.

    Walks all six edges, collects sign-change intersection points, and
    orders them around their centroid inside the cut plane.  Returns the
    ordered (m, 3) polygon vertices (m in {3, 4}).
    """
    vphi = np.asarray(vphi, dtype=np.float64)
    verts = np.asarray(verts, dtype=np.float64)
    pts = []
    for a, b in itertools.combinations(range(4), 2):
        va, vb = vphi[a], vphi[b]
        if va * vb < 0.0:
            t = va / (va - vb)
            pts.append((1.0 - t) * verts[a] + t * verts[b])
    pts = np.array(pts)
    if len(pts) <= 3:
        return pts
    cen = pts.mean(axis=0)
    normal = np.cross(pts[1] - pts[0], pts[2] - pts[0])
    normal /= np.linalg.norm(normal)
    b1 = pts[0] - cen
    b1 /= np.linalg.norm(b1)
    b2 = np.cross(normal, b1)
    ang = np.arctan2((pts - cen) @ b2, (pts - cen) @ b1)
    return pts[np.argsort(ang)]


def polygon_area(poly):
    """Area of a planar convex polygon given ordered 3D vertices."""
    if len(poly) < 3:
        return 0.0
    cen = poly.mean(axis=0)
    area = 0.0
    m = len(poly)
    for i in range(m):
        area += 0.5 * np.linalg.norm(
            np.cross(poly[i] - cen, poly[(i + 1) % m] - cen)
        )
    return area


def polygon_integral_linear(poly, coef, const=0.0):
    """Exact integral of coef.x + const over a planar polygon (vertex fan,
    midpoint rule per triangle, exact for affine integrands)."""
    cen = poly.mean(axis=0)
    total = 0.0
    m = len(poly)
    for i in range(m):
        a, b = poly[i], poly[(i + 1) % m]
        area = 0.5 * np.linalg.norm(np.cross(a - cen, b - cen))
        mids = [(a + b) / 2.0, (b + cen) / 2.0, (cen + a) / 2.0]
        total += area * np.mean([np.dot(coef, mm) + const for mm in mids])
    return total


def plane_box_section_area(normal, offset, lo, hi):
    """Area of the cross-section of the plane n.x = offset with a box."""
    normal = np.asarray(normal, dtype=np.float64)
    normal = normal / np.linalg.norm(normal)
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    corners = np.array(list(itertools.product(*zip(lo, hi))))
    edges = [
        (a, b)
        for a, b in itertools.combinations(range(8), 2)
        if np.sum(corners[a] != corners[b]) == 1
    ]
    pts = []
    for a, b in edges:
        fa = corners[a] @ normal - offset
        fb = corners[b] @ normal - offset
        if fa * fb < 0.0:
            t = fa / (fa - fb)
            pts.append((1.0 - t) * corners[a] + t * corners[b])
    pts = np.unique(np.round(np.array(pts), 12), axis=0)
    if len(pts) < 3:
        return 0.0
    cen = pts.mean(axis=0)
    b1 = pts[0] - cen
    b1 /= np.linalg.norm(b1)
    b2 = np.cross(normal, b1)
    ang = np.arctan2((pts - cen) @ b2, (pts - cen) @ b1)
    return polygon_area(pts[np.argsort(ang)])


def smallest_root_bisection(g, delta, samples=4096):
    """Smallest-|d| root of the scalar function g on [-delta, delta]."""
    ts = np.linspace(-delta, delta, samples + 1)
    vals = np.array([g(t) for t in ts])
    roots = []
    for i in range(samples):
        if vals[i] == 0.0:
            roots.append(ts[i])
        elif vals[i] * vals[i + 1] < 0.0:
            roots.append(brentq(g, ts[i], ts[i + 1], xtol=1e-15, rtol=1e-15))
    if vals[-1] == 0.0:
        roots.append(ts[-1])
    if not roots:
        raise ValueError("oracle found no root in the bracket")
    return min(roots, key=abs)


def tri_monomial_integral(a, b):
    """Integral of x^a y^b over the reference triangle {x,y>=0, x+y<=1}."""
    from math import factorial

    return factorial(a) * factorial(b) / factorial(a + b + 2)


def tet_monomial_integral(a, b, c):
    """Integral of x^a y^b z^c over the reference tetrahedron."""
    from math import factorial

    return factorial(a) * factorial(b) * factorial(c) / factorial(a + b + c + 3)


def benchmark_interpolant(mesh, problem) -> np.ndarray:
    """Nodal values of the exact (extended) solution on the active dofs."""
    return np.asarray(problem.exact_solution(mesh.dof_points), dtype=np.float64)


def torus_benchmark() -> TorusBenchmark:
    return TorusBenchmark()


def errors_oracle(mesh, mapping, u, problem, degree=None):
    """(e_dist, e_L2, e_H1t, e_H1n) from whole-surface arrays: one lift of every interface triangle.

    The error formulas on arrays of every point at once, as compute_errors
    applied them before it reduced chunk by chunk.
    """
    if degree is None:
        degree = 2 * mesh.k
    tri_elem, tri_bary, tri_area = cut_corners_oracle(mesh.vertex_phi, mesh.verts_phys(slice(None)))
    lam, wq = triangle_rule(degree)
    lift = mapping.lift(tri_elem, np.einsum("qc,tcm->tqm", lam, tri_bary))
    P = lift.det.size
    w = (tri_area[:, None] * wq * lift.det * lift.nn).ravel()
    y, nh, invJ = lift.y.reshape(P, 3), lift.nh.reshape(P, 3), lift.invJ.reshape(P, 3, 3)
    ul = u[mesh.elem_dofs[np.repeat(tri_elem, len(wq))]]

    e_dist = float(np.abs(problem.levelset.phi(y)).max())
    uh = np.einsum("pb,pb->p", lift.vals.reshape(P, -1), ul)
    e_l2 = float(np.sqrt(np.sum(w * (problem.exact_solution(y) - uh) ** 2)))
    gh = (np.einsum("pbi,pb->pi", lift.gref.reshape(P, -1, 3), ul)[:, None] @ invJ)[:, 0]
    diff = problem.exact_solution_gradient(y) - gh
    tang = diff - np.einsum("pi,pi->p", diff, nh)[:, None] * nh
    e_h1t = float(np.sqrt(np.sum(w * np.einsum("pi,pi->p", tang, tang))))
    n_exact = problem.levelset.grad_phi(y)
    n_exact = n_exact / np.linalg.norm(n_exact, axis=-1, keepdims=True)
    e_h1n = float(np.sqrt(np.sum(w * np.einsum("pi,pi->p", n_exact, gh) ** 2)))
    return e_dist, e_l2, e_h1t, e_h1n


def stabilization_matrix(mapping, stab):
    """The facet or volume stabilization of stab alone: assemble_s added into a Pattern of the blocks it adds to."""
    from tracefem.assembly import Pattern, _ghost_dofs, assemble_s

    mesh = mapping.mesh
    blocks, columns = {}, None
    if stab.variant == "ghost_penalty":
        blocks["facets"], columns = _ghost_dofs(mesh)
    elif stab.variant in ("full_gradient_volume", "normal_volume"):
        blocks["elements"] = mesh.elem_dofs
    out = Pattern(mesh.ndofs, **blocks)
    assemble_s(mapping, stab, out, columns)
    return out.matrix


def facet_pairs_unique_rows(mesh):
    """Interior facets paired by np.unique over the rows of sorted vertex keys: (elems (F, 2), tri_lattice (F, 3, 3)).

    Facets come in lexicographic order of their keys; each pair's lower
    element is the one whose face comes first in element-major face order.
    """
    tris = mesh.verts_lattice(slice(None))[:, [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]], :]  # (E, 4, 3, 3)
    m = mesh.params.n + 1
    flat = tris.reshape(-1, 3, 3)
    keys = np.sort((flat[:, :, 0] * m + flat[:, :, 1]) * m + flat[:, :, 2], axis=1)
    _, inv, counts = np.unique(keys, axis=0, return_inverse=True, return_counts=True)
    order = np.argsort(inv, kind="stable")
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])[counts == 2]
    first, second = order[starts], order[starts + 1]
    elems = np.stack([first // 4, second // 4], axis=-1)
    return elems, flat[first]


def geometry_oracle(mesh):
    """Per-element geometry of every element at once, as ActiveMesh stored it: verts_phys and bary_grad (E, 4, 3)."""
    h = mesh.params.h
    verts_lattice = mesh.cube[:, None, :] + KUHN_VERTS[mesh.tet]
    return {
        "verts_phys": mesh.params.lo + h * verts_lattice,
        "bary_grad": SHAPE_BARY_A[mesh.tet] / h,
    }


def pattern_unique_keys(n, **blocks):
    """Slots, CSR indices and indptr of the union of dof blocks from int64 keys row * n + col and one searchsorted per family."""
    keys = {name: d.astype(np.int64)[:, :, None] * n + d.astype(np.int64)[:, None, :] for name, d in blocks.items()}
    uniq = np.unique(np.concatenate([k.ravel() for k in keys.values()]))
    slots = {name: np.searchsorted(uniq, k) for name, k in keys.items()}
    indptr = np.concatenate([[0], np.cumsum(np.bincount(uniq // n, minlength=n))])
    return slots, uniq % n, indptr


def kept_and_peak(run):
    """Run run() under tracemalloc: (bytes it keeps, with its result, and its peak bytes above those), counted from what was live before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = run()
        kept, peak = (m - before for m in tracemalloc.get_traced_memory())
        del result
    finally:
        tracemalloc.stop()
    return kept, peak - kept


def stream_peaks(run, module):
    """Run run() under tracemalloc: (caller, cells, charge per cell, peak bytes) of every chunk that module's element_chunks hands out.

    The caller is the qualified name of the function that asked for the
    chunks.  A chunk's peak is the most that tracemalloc saw above what
    was live when its loop asked for it, until the loop asked for the next
    one (or ran out), as chunk_peaks measures a lifted chunk.
    """
    records, original = [], module.element_chunks

    def measured(ncells, per_cell):
        caller = sys._getframe(1).f_code.co_qualname
        for s in original(ncells, per_cell):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            yield s
            records.append((caller, s.stop - s.start, per_cell, tracemalloc.get_traced_memory()[1] - start))

    module.element_chunks = measured
    tracemalloc.start()
    try:
        run()
    finally:
        tracemalloc.stop()
        module.element_chunks = original
    return records


def chunk_peaks(run):
    """Run run() under tracemalloc: (rule class name, points, peak bytes, loop peak bytes) of every lifted chunk that it uses.

    A chunk's peak is the most that tracemalloc saw above what was live
    when the chunk's lift started, until its caller asked for the next
    chunk (or the rule ran out); its loop peak is the same most above what
    was live when the first chunk of its loop started.  A loop that keeps
    a chunk while it lifts the next has loop peaks above its chunk peaks.
    The footprint table in LiftedRule's docstring is chunk_footprints of
    these records.
    """
    records, original = [], LiftedRule.chunks

    def measured(rule):
        chunks, loop_start = original(rule), tracemalloc.get_traced_memory()[0]
        while True:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                item = [next(chunks)]
            except StopIteration:
                return
            points = len(item[0][0]) * rule.q
            yield item.pop()  # keeps no reference: the caller may free the chunk's parts while it runs
            peak = tracemalloc.get_traced_memory()[1]
            records.append((type(rule).__name__, points, peak - start, peak - loop_start))

    LiftedRule.chunks = measured
    tracemalloc.start()
    try:
        run()
    finally:
        tracemalloc.stop()
        LiftedRule.chunks = original
    return records


def chunk_footprints(records):
    """{rule class name: (largest chunk peak in MiB, doubles per point of the rule's fullest chunks)} of chunk_peaks records."""
    out = {}
    for name in dict.fromkeys(r[0] for r in records):
        mine = [r for r in records if r[0] == name]
        most = max(r[1] for r in mine)
        per_point = max(peak / 8 / points for _, points, peak, _ in mine if points == most)
        out[name] = (max(r[2] for r in mine) / 2**20, per_point)
    return out


def pcg_textbook(apply_A, b, diag, tol=1e-9, maxiter=None, true_check=None):
    """Jacobi PCG from a zero start as the textbook writes it: fresh vectors every step, pairwise-sum inner products.

    The oracle of solver.pcg, which must give its iterates to the bit.
    Returns (x, iterations, converged, relres).
    """
    def dot(a, b):
        return float((a * b).sum())

    b = np.asarray(b, dtype=np.float64)
    if maxiter is None:
        maxiter = int(50 * np.sqrt(len(b)) + 1000)
    invd = 1.0 / np.asarray(diag, dtype=np.float64)
    x = np.zeros(len(b))
    r = b.copy()
    z = invd * r
    rz = rz0 = dot(r, z)
    if rz0 == 0.0:
        return x, 0, True, 0.0
    p = z.copy()
    relres = 1.0
    for it in range(1, maxiter + 1):
        Ap = apply_A(p)
        alpha = rz / dot(p, Ap)
        x = x + alpha * p
        r = r - alpha * Ap
        z = invd * r
        rz_new = dot(r, z)
        relres = np.sqrt(max(rz_new, 0.0) / rz0)
        if relres <= tol and (true_check is None or true_check(r)):
            return x, it, True, relres
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p
    return x, maxiter, False, relres


def solve_constrained_textbook(S, c, f, tol=1e-9, maxiter=None):
    """solver.solve_constrained's u, iteration count and convergence flag, through pcg_textbook on S, u then shifted by the constant that puts it on c.u = 0."""
    nf = np.sqrt(float((f * f).sum()))

    def true_check(r):
        return np.sqrt(float((r * r).sum())) <= 1.05 * tol * nf if nf > 0.0 else True

    u, its, ok, _ = pcg_textbook(lambda v: S @ v, f, S.diagonal(), tol, maxiter, true_check)
    return u - float((c * u).sum()) / float(c.sum()), its, ok


def lin_gradient(vphi, verts):
    """Gradient of the linear interpolant on each tet (B, 4) x (B, 4, 3): e^-1 (phi_i - phi_0) for the edges e_i = v_i - v_0."""
    adj, det = adjugate_and_det(verts[:, 1:] - verts[:, :1])
    return np.einsum("bij,bj->bi", adj, vphi[:, 1:] - vphi[:, :1]) / det[:, None]


def cut_corners_oracle(vertex_phi, verts_phys, gradient=lin_gradient):
    """The interface triangles of cut tetrahedra as (tri_elem (T,), tri_bary (T, 3, 4), tri_area (T,)), sorted by element.

    extract_cuts as it formed and returned the (T, 3, 4) barycentric
    corners before it kept edge codes and fractions: each corner written
    into a zero array, 1 - t at the edge's first vertex and t at its
    second, the quadrilateral's corners (Q, 4, 4) split along the shorter
    diagonal, the corners' columns 1 and 2 swapped where the normal points
    against the gradient of the linear interpolant, as gradient(vphi,
    verts) computes it for each triangle's tet.
    """
    vphi = np.asarray(vertex_phi, dtype=np.float64)
    neg = vphi < 0.0
    nneg = neg.sum(axis=1)
    order = np.argsort(np.where(neg, 0, 1), axis=1, kind="stable")
    tri_elem, tri_bary = [], []

    lone = nneg != 2
    if np.any(lone):
        idx = np.flatnonzero(lone)
        lone_is_neg = nneg[idx] == 1
        m = np.where(lone_is_neg, order[idx, 0], order[idx, 3])
        others = np.sort(np.where(lone_is_neg[:, None], order[idx, 1:], order[idx, :3]), axis=1)
        va = vphi[idx, m]
        vb = np.take_along_axis(vphi[idx], others, axis=1)
        t = va[:, None] / (va[:, None] - vb)
        bary = np.zeros((len(idx), 3, 4))
        rows = np.arange(len(idx))[:, None]
        cols = np.arange(3)[None, :]
        bary[rows, cols, m[:, None]] = 1.0 - t
        bary[rows, cols, others] = t
        tri_elem.append(idx)
        tri_bary.append(bary)

    quad = nneg == 2
    if np.any(quad):
        idx = np.flatnonzero(quad)
        mm = np.sort(order[idx, :2], axis=1)
        pp = np.sort(order[idx, 2:], axis=1)
        pairs_m = np.stack([mm[:, 0], mm[:, 0], mm[:, 1], mm[:, 1]], axis=1)
        pairs_p = np.stack([pp[:, 0], pp[:, 1], pp[:, 1], pp[:, 0]], axis=1)
        va = np.take_along_axis(vphi[idx], pairs_m, axis=1)
        vb = np.take_along_axis(vphi[idx], pairs_p, axis=1)
        t = va / (va - vb)
        qbary = np.zeros((len(idx), 4, 4))
        rows = np.arange(len(idx))[:, None]
        cols = np.arange(4)[None, :]
        qbary[rows, cols, pairs_m] = 1.0 - t
        qbary[rows, cols, pairs_p] += t
        qpts = np.einsum("qcm,qmi->qci", qbary, verts_phys[idx])
        short1 = np.linalg.norm(qpts[:, 2] - qpts[:, 0], axis=-1) <= np.linalg.norm(qpts[:, 3] - qpts[:, 1], axis=-1)
        tris = np.where(
            short1[:, None, None, None],
            np.stack([qbary[:, [0, 1, 2]], qbary[:, [0, 2, 3]]], axis=1),
            np.stack([qbary[:, [1, 2, 3]], qbary[:, [1, 3, 0]]], axis=1),
        )
        tri_elem.append(np.repeat(idx, 2))
        tri_bary.append(tris.reshape(-1, 3, 4))

    tri_elem = np.concatenate(tri_elem)
    srt = np.argsort(tri_elem, kind="stable")
    tri_elem = tri_elem[srt]
    tri_bary = np.concatenate(tri_bary)[srt]
    pts = np.einsum("tcm,tmi->tci", tri_bary, verts_phys[tri_elem])
    nvec = np.cross(pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0])
    tri_area = 0.5 * np.linalg.norm(nvec, axis=-1)
    flip = np.einsum("ti,ti->t", nvec, gradient(vphi[tri_elem], verts_phys[tri_elem])) < 0.0
    tri_bary[flip] = tri_bary[flip][:, [0, 2, 1]]
    return tri_elem, tri_bary, tri_area


def facet_geometry_oracle(mesh):
    """Areas (F,) and unit normals (F, 3) of every interior facet, formed chunk by chunk as FacetSet stored them.

    The cross product of two face edges, its norm, the flip of normals
    that point against the lower-to-upper centroid difference.  The face
    is the lower element's, opposite its vertex that the upper one lacks.
    """
    fs = mesh.facets
    area, normal = np.empty(len(fs)), np.empty((len(fs), 3))
    for s in element_chunks(len(fs), 4 * 2 * 4 * 3):
        lo, hi = fs.elems[s].T.astype(np.int64)
        alone = (mesh.vertex_ids(lo)[:, :, None] != mesh.vertex_ids(hi)[:, None, :]).all(axis=2)
        verts = mesh.verts_phys(lo)
        p = verts[np.arange(len(lo))[:, None], _FACE_LOCAL[alone.argmax(axis=1)]]
        nvec = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
        nn = np.linalg.norm(nvec, axis=-1)
        area[s] = 0.5 * nn
        n = nvec / nn[:, None]
        d = mesh.verts_phys(hi).mean(axis=1) - verts.mean(axis=1)
        n[np.einsum("fi,fi->f", n, d) < 0.0] *= -1.0
        normal[s] = n
    return area, normal


def null_space_bounds(S, c):
    """Reference (lambda_max, lambda_min): S on an orthonormal basis of c-perp from scipy.linalg.null_space."""
    Q = scipy.linalg.null_space(c[None, :])
    w = scipy.linalg.eigvalsh(Q.T @ (S @ Q))
    return w[-1], w[0]


def mesh_from_vertex_values(params: MeshParams, vertex_values, k: int) -> ActiveMesh:
    """ActiveMesh.build on a level set that reads its values off a full (n+1)^3 vertex grid."""
    v = np.asarray(vertex_values, dtype=np.float64)
    if v.shape != (params.n + 1,) * 3:
        raise ValueError("vertex value grid must have shape (n+1,)*3")

    class GridLevelSet:
        def phi(self, x):
            i = np.rint((np.atleast_2d(x) - params.lo) / params.h).astype(np.int64)
            return v[i[:, 0], i[:, 1], i[:, 2]]

    return ActiveMesh.build(params, GridLevelSet(), k)


def points_of_bary(mesh: ActiveMesh, elems, lam) -> np.ndarray:
    """Physical points of barycentric coordinates lam in the given elements."""
    return np.einsum("pm,pmi->pi", lam, mesh.verts_phys(elems))


def mapping_eval(mapping, elems, lam):
    """Deformed points (P, 3) and Jacobians DTheta (P, 3, 3) of mapping at barycentric points lam (P, 4) of elements (P,), from Theta's nodal values."""
    mesh = mapping.mesh
    elems = np.asarray(elems, dtype=np.int64)
    vals, dlam = backends.eval_basis(mesh.k, np.asarray(lam, dtype=np.float64))
    gref = np.einsum("pbm,pmi->pbi", dlam, mesh.bary_grad(elems))
    nodes = mapping.nodes[mesh.elem_dofs[elems]]  # (P, NB, 3)
    return np.einsum("pb,pbi->pi", vals, nodes), np.einsum("pbi,pbj->pij", nodes, gref)


def lattice_keys(lattice, m):
    """Keys (x * m + y) * m + z (P,) of fine-lattice points (P, 3)."""
    return (lattice[:, 0] * m + lattice[:, 1]) * m + lattice[:, 2]


def dof_lattice(mesh: ActiveMesh) -> np.ndarray:
    """(ndofs, 3) fine-lattice points of the dofs, decoded from their points as rint((x - lo) k / h)."""
    return np.rint((mesh.dof_points - mesh.params.lo) * mesh.k / mesh.h).astype(np.int64)


def dof_index_of(mesh: ActiveMesh, lattice) -> np.ndarray:
    """Dof indices of fine-lattice points; KeyError for a point that is not an active dof."""
    lattice = np.asarray(lattice, dtype=np.int64)
    m = mesh.k * mesh.params.n + 1
    dof_keys = lattice_keys(dof_lattice(mesh), m)  # ascending: the dofs are numbered lexicographically
    keys = lattice_keys(lattice, m)
    idx = np.searchsorted(dof_keys, keys)
    bad = (idx >= mesh.ndofs) | (dof_keys[np.minimum(idx, mesh.ndofs - 1)] != keys)
    if np.any(bad):
        raise KeyError(f"lattice point {lattice[np.argmax(bad)]} is not an active dof")
    return idx


def node_patch(mesh: ActiveMesh, dof: int) -> np.ndarray:
    """Active elements whose closure contains the dof node."""
    if not 0 <= dof < mesh.ndofs:
        raise KeyError(f"unknown dof index {dof}")
    return np.flatnonzero((mesh.elem_dofs == dof).any(axis=1))


def max_displacement(mapping) -> float:
    """Largest nodal displacement |Theta(x) - x| of a mapping."""
    return float(np.linalg.norm(mapping.displacement, axis=-1).max(initial=0.0))


def torus_solution_l2_norm(levelset: Torus) -> float:
    """||u||_{L2} of the torus benchmark's exact solution over the exact surface, closed form."""
    return float(np.sqrt(np.pi**2 * levelset.R * levelset.r))


def closest_point(levelset, x):
    """Closest points (P, 3) on the zero set of a Torus, Sphere or Plane to points x (P, 3), in closed form."""
    if isinstance(levelset, Torus):
        rho, q = levelset._rho_q(x)
        if np.any(rho <= 1e-12) or np.any(q <= 1e-12):
            raise SingularPointError("closest point undefined on the torus axis or core circle")
        cx = levelset.R * x[:, 0] / rho
        cy = levelset.R * x[:, 1] / rho
        t = levelset.r / q
        return np.stack([cx + t * (x[:, 0] - cx), cy + t * (x[:, 1] - cy), t * x[:, 2]], axis=-1)
    if isinstance(levelset, Sphere):
        n = np.linalg.norm(x, axis=-1)
        if np.any(n <= 1e-12):
            raise SingularPointError("closest point undefined at the sphere center")
        return levelset.radius * x / n[:, None]
    d = x @ levelset.normal - levelset.offset
    return x - d[:, None] * levelset.normal


# the barycentric coordinates (6, 4) of the unit cube's origin in each Kuhn shape: its vertex 0
SHAPE_BARY_B = np.tile(np.eye(4)[0], (6, 1))


def bary_of_points(mesh: ActiveMesh, elems, x) -> np.ndarray:
    """Barycentric coordinates (P, 4) of physical points x (P, 3) wrt the elements elems (P,): lam = bary_grad . x + lam(origin)."""
    h, tet = mesh.params.h, mesh.tet[elems]
    origin = mesh.params.lo + h * mesh.cube[elems]
    off = SHAPE_BARY_B[tet] - np.einsum("emi,ei->em", SHAPE_BARY_A[tet], origin) / h
    return np.einsum("pmi,pi->pm", mesh.bary_grad(elems), x) + off


def facet_triangles(fs, facets=slice(None)) -> np.ndarray:
    """(F', 3, 3) physical vertices of the given facets of a FacetSet, in the lower element's local order."""
    lo = fs.elems[facets, 0]
    return fs._mesh().verts_phys(lo)[np.arange(len(lo))[:, None], _FACE_LOCAL[fs.face[facets]]]


def dls_eval(dls, elems, lam, grad: bool = False):
    """phi_h (P,), and with grad its physical gradient (P, 3), on the elements elems (P,) at barycentric points lam (P, 4)."""
    mesh = dls.mesh
    c = dls.values[mesh.elem_dofs[elems]]
    vals, dlam = backends.eval_basis(mesh.k, lam)
    phi = np.einsum("pb,pb->p", vals, c)
    if not grad:
        return phi
    return phi, np.einsum("pbm,pb,pmi->pi", dlam, c, mesh.bary_grad(elems))


def solve_points(dls, elems, x):
    """Deformation distances (P,) and search directions (P, 3) at physical points x (P, 3) of the elements elems (P,), one per point."""
    mesh = dls.mesh
    elems = np.asarray(elems, dtype=np.int64)
    lam_x = bary_of_points(mesh, elems, np.asarray(x, dtype=np.float64))
    _, G = dls_eval(dls, elems, lam_x, grad=True)
    return _search(mesh, elems, dls.values[mesh.elem_dofs[elems]], lam_x, G), G


def psi_h(dls, elems, x):
    """Per-element deformation images of physical points (batch form; build_theta's oracle)."""
    d, G = solve_points(dls, elems, x)
    return np.asarray(x, dtype=np.float64) + d[:, None] * G


def project_average(mesh: ActiveMesh, values: np.ndarray) -> np.ndarray:
    """Unweighted nodal patch average of per-element nodal vectors (E, NB, 3)."""
    values = np.asarray(values, dtype=np.float64)
    m = values.shape[-1]
    sums = np.zeros((mesh.ndofs, m))
    np.add.at(sums.reshape(-1), _flat_rows(mesh.elem_dofs, m), values.ravel())
    return sums / mesh.patch_counts()[:, None]


def facet_jump_psi(dls, degree: int = 4) -> float:
    """Max two-sided mismatch of the element deformations across interior facets.

    The facets are streamed in chunks of element_chunks, as the elements
    of build_theta are: a chunk's q quadrature points per facet are
    root-solved from both sides, charged 16 q NB doubles per facet, and
    the result is the max of the chunks' maxima.
    """
    mesh = dls.mesh
    fs = mesh.facets
    lam, _ = triangle_rule(degree)
    q = len(lam)
    jump = 0.0
    for s in element_chunks(len(fs), 16 * q * mesh.nb):
        pts = np.einsum("qm,fmi->fqi", lam, facet_triangles(fs, s)).reshape(-1, 3)
        lo, hi = (psi_h(dls, np.repeat(e, q), pts) for e in fs.elems[s].T)
        jump = np.maximum(jump, np.linalg.norm(lo - hi, axis=-1).max())  # keeps a nan
    return float(jump)


def normal_deviation(mapping, levelset, degree=None) -> float:
    """Max deviation of the discrete unit normal from the exact surface normal, reduced chunk by chunk.

    Nothing of a chunk is alive when the next one is lifted.
    """

    def chunk_max(lift):
        n_exact = levelset.grad_phi(lift.y.reshape(-1, 3))
        n_exact = n_exact / np.linalg.norm(n_exact, axis=-1, keepdims=True)
        return np.linalg.norm(lift.nh.reshape(-1, 3) - n_exact, axis=-1).max(initial=0.0)

    dev = 0.0
    for _, lift, w in SurfaceData.build(mapping, degree if degree is not None else 2 * mapping.mesh.k).chunks():
        dev = np.maximum(dev, chunk_max(lift))
        del lift, w  # freed before the next chunk's lift
    return float(dev)
