"""Cut-element geometry and simplex quadrature.

The piecewise-linear interface inside a cut tetrahedron is a triangle
(one vertex separated) or a planar quadrilateral (two-two sign split),
extracted marching-tetrahedra style from the vertex values of the
linear interpolant.  Quadrature on triangles and tetrahedra uses
conical-product Gauss-Jacobi rules: a single positive-weight
construction exact at any requested degree.
"""

from __future__ import annotations

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

MAX_SURFACE_DEGREE = 10
MAX_VOLUME_DEGREE = 10

_RULE_CACHE: dict = {}


def _gauss01(n):
    x, w = roots_legendre(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _jacobi01(n, alpha):
    x, w = roots_jacobi(n, alpha, 0.0)
    return 0.5 * (x + 1.0), w / 2.0 ** (alpha + 1)


def _points_needed(degree):
    return max(1, (int(degree) + 2) // 2)


def triangle_rule(degree: int):
    """Barycentric points and weights (summing to 1) exact to total degree."""
    if degree < 0 or degree > MAX_SURFACE_DEGREE:
        raise ValueError(f"unsupported degree {degree} for triangle rules")
    key = ("tri", degree)
    if key not in _RULE_CACHE:
        n = _points_needed(degree)
        xi, wx = _gauss01(n)
        eta, we = _jacobi01(n, 1.0)
        X = np.outer(xi, 1.0 - eta).ravel()
        Y = np.tile(eta, n)
        W = np.outer(wx, we).ravel()
        lam = np.stack([1.0 - X - Y, X, Y], axis=-1)
        _RULE_CACHE[key] = (lam, W / 0.5)
    return _RULE_CACHE[key]


def tet_rule(degree: int):
    """Barycentric points and weights (summing to 1) exact to total degree."""
    if degree < 0 or degree > MAX_VOLUME_DEGREE:
        raise ValueError(f"unsupported degree {degree} for tetrahedron rules")
    key = ("tet", degree)
    if key not in _RULE_CACHE:
        n = _points_needed(degree)
        xi, wx = _gauss01(n)
        eta, we = _jacobi01(n, 1.0)
        zeta, wz = _jacobi01(n, 2.0)
        XI, ETA, ZETA = np.meshgrid(xi, eta, zeta, indexing="ij")
        X = (XI * (1.0 - ETA) * (1.0 - ZETA)).ravel()
        Y = (ETA * (1.0 - ZETA)).ravel()
        Z = ZETA.ravel()
        W = (wx[:, None, None] * we[None, :, None] * wz[None, None, :]).ravel()
        lam = np.stack([1.0 - X - Y - Z, X, Y, Z], axis=-1)
        _RULE_CACHE[key] = (lam, W / (1.0 / 6.0))
    return _RULE_CACHE[key]


def extract_cuts(vertex_phi: np.ndarray, verts_phys: np.ndarray):
    """Interface triangles of a batch of cut tetrahedra.

    vertex_phi: (E, 4) signed vertex values, no exact zeros; verts_phys:
    (E, 4, 3).  Returns (tri_elem (T,), tri_bary (T, 3, 4), tri_area (T,))
    sorted by element, triangles oriented so their physical normal points
    with the gradient of the linear interpolant (negative to positive).
    Elements with a two-two sign split yield a planar quadrilateral that
    is split along its shorter diagonal.
    """
    vphi = np.asarray(vertex_phi, dtype=np.float64)
    E = vphi.shape[0]
    if np.any(vphi == 0.0):
        raise ValueError("vertex values must be nonzero (perturb exact zeros)")
    neg = vphi < 0.0
    nneg = neg.sum(axis=1)
    if np.any((nneg == 0) | (nneg == 4)):
        raise ValueError("an element without a sign change has no interface")

    order = np.argsort(np.where(neg, 0, 1), axis=1, kind="stable")
    tri_elem, tri_bary = [], []

    lone = nneg != 2
    if np.any(lone):
        idx = np.flatnonzero(lone)
        # the separated vertex: the single negative one, or the single positive
        lone_is_neg = nneg[idx] == 1
        m = np.where(lone_is_neg, order[idx, 0], order[idx, 3])
        others = np.where(
            lone_is_neg[:, None], order[idx, 1:], order[idx, :3]
        )
        others = np.sort(others, axis=1)
        va = vphi[idx, m]
        vb = np.take_along_axis(vphi[idx], others, axis=1)
        t = va[:, None] / (va[:, None] - vb)  # (L, 3) edge fractions
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
        mm = order[idx, :2]
        pp = order[idx, 2:]
        mm = np.sort(mm, axis=1)
        pp = np.sort(pp, axis=1)
        # cycle m0-p0, m0-p1, m1-p1, m1-p0
        pairs_m = np.stack([mm[:, 0], mm[:, 0], mm[:, 1], mm[:, 1]], axis=1)
        pairs_p = np.stack([pp[:, 0], pp[:, 1], pp[:, 1], pp[:, 0]], axis=1)
        va = np.take_along_axis(vphi[idx], pairs_m, axis=1)
        vb = np.take_along_axis(vphi[idx], pairs_p, axis=1)
        t = va / (va - vb)  # (Q, 4)
        qbary = np.zeros((len(idx), 4, 4))
        rows = np.arange(len(idx))[:, None]
        cols = np.arange(4)[None, :]
        qbary[rows, cols, pairs_m] = 1.0 - t
        qbary[rows, cols, pairs_p] += t
        qpts = np.einsum("qcm,qmi->qci", qbary, verts_phys[idx])
        d1 = np.linalg.norm(qpts[:, 2] - qpts[:, 0], axis=-1)
        d2 = np.linalg.norm(qpts[:, 3] - qpts[:, 1], axis=-1)
        short1 = d1 <= d2
        tris = np.where(
            short1[:, None, None, None],
            np.stack([qbary[:, [0, 1, 2]], qbary[:, [0, 2, 3]]], axis=1),
            np.stack([qbary[:, [1, 2, 3]], qbary[:, [1, 3, 0]]], axis=1),
        )  # (Q, 2, 3, 4)
        tri_elem.append(np.repeat(idx, 2))
        tri_bary.append(tris.reshape(-1, 3, 4))

    tri_elem = np.concatenate(tri_elem)
    tri_bary = np.concatenate(tri_bary)
    srt = np.argsort(tri_elem, kind="stable")
    tri_elem = tri_elem[srt]
    tri_bary = tri_bary[srt]

    pts = np.einsum("tcm,tmi->tci", tri_bary, verts_phys[tri_elem])
    nvec = np.cross(pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0])
    tri_area = 0.5 * np.linalg.norm(nvec, axis=-1)
    # orient along grad of the linear interpolant (from negative to positive)
    gphi = _lin_gradient(vphi[tri_elem], verts_phys[tri_elem])
    flip = np.einsum("ti,ti->t", nvec, gphi) < 0.0
    tri_bary[flip] = tri_bary[flip][:, [0, 2, 1]]
    return tri_elem, tri_bary, tri_area


def _lin_gradient(vphi, verts):
    """Gradient of the linear interpolant on each tet (B, 4) x (B, 4, 3)."""
    e = verts[:, 1:] - verts[:, :1]
    dv = vphi[:, 1:] - vphi[:, :1]
    return np.linalg.solve(e, dv[:, :, None])[:, :, 0]
