"""Cut-element geometry and simplex quadrature.

The piecewise-linear interface inside a cut tetrahedron is a triangle
(one vertex separated) or a planar quadrilateral (two-two sign split),
read with its orientation off a marching-tetrahedra case table by the
sign pattern of the linear interpolant's vertex values.  Quadrature on
triangles and tetrahedra uses conical-product Gauss-Jacobi rules: one
positive-weight construction, exact here to degree MAX_RULE_DEGREE.  Its
1-D rules are tabulated, bit for bit, from scipy.special's roots, so
building a rule imports nothing beyond numpy.
"""

from __future__ import annotations

import math

import numpy as np

MAX_RULE_DEGREE = 10

_RULE_CACHE: dict = {}

# (alpha, n) -> (nodes, weights) on [0, 1] of the n-point Gauss rule for
# the weight (1 - x)^alpha, exact to degree 2n - 1: the roots x of
# scipy.special.roots_legendre(n) (alpha = 0) or roots_jacobi(n, alpha, 0)
# mapped to 0.5 * (x + 1), their weights divided by 2^(alpha + 1).  n = 1..6
# covers degree 10; tests/test_cutquad.py checks every rule against scipy.
_GAUSS_JACOBI01 = {
    (0, 1): (
        (0.5,),
        (1.0,),
    ),
    (0, 2): (
        (0.21132486540518713, 0.7886751345948129),
        (0.5, 0.5),
    ),
    (0, 3): (
        (0.1127016653792583, 0.5, 0.8872983346207417),
        (0.2777777777777779, 0.44444444444444414, 0.2777777777777779),
    ),
    (0, 4): (
        (0.06943184420297371, 0.33000947820757187, 0.6699905217924281, 0.9305681557970262),
        (0.1739274225687269, 0.3260725774312731, 0.3260725774312731, 0.1739274225687269),
    ),
    (0, 5): (
        (0.04691007703066802, 0.23076534494715845, 0.5, 0.7692346550528415, 0.9530899229693319),
        (0.11846344252809449, 0.23931433524968326, 0.2844444444444445, 0.23931433524968326, 0.11846344252809449),
    ),
    (0, 6): (
        (0.033765242898423975, 0.16939530676686776, 0.3806904069584015, 0.6193095930415985, 0.8306046932331322, 0.966234757101576),
        (0.08566224618958508, 0.18038078652406928, 0.2339569672863456, 0.2339569672863456, 0.18038078652406928, 0.08566224618958508),
    ),
    (1, 1): (
        (0.33333333333333337,),
        (0.5,),
    ),
    (1, 2): (
        (0.15505102572168217, 0.6449489742783179),
        (0.31804138174397717, 0.18195861825602283),
    ),
    (1, 3): (
        (0.08858795951270393, 0.40946686444073477, 0.787659461760847),
        (0.2009319137389596, 0.2292411063595862, 0.06982697990145417),
    ),
    (1, 4): (
        (0.057104196114517725, 0.2768430136381238, 0.5835904323689168, 0.8602401356562195),
        (0.13550691343148852, 0.2034645680102711, 0.12984754760823233, 0.031180970950008085),
    ),
    (1, 5): (
        (0.03980985705146872, 0.1980134178736082, 0.43797481024738616, 0.6954642733536361, 0.9014649142011736),
        (0.09678159022665148, 0.1671746380943697, 0.14638698708466985, 0.07390887007261668, 0.0157479145216923),
    ),
    (1, 6): (
        (0.02931642715978494, 0.1480785996684843, 0.3369846902811543, 0.5586715187715502, 0.7692338620300545, 0.926945671319741),
        (0.0723103307255089, 0.13554249723151868, 0.14079255378819883, 0.0986611508906552, 0.04395516555050896, 0.008738301813609529),
    ),
    (2, 1): (
        (0.25,),
        (0.3333333333333333,),
    ),
    (2, 2): (
        (0.1225148226554415, 0.5441518440112253),
        (0.232547451253508, 0.10078588207982532),
    ),
    (2, 3): (
        (0.0729940240731497, 0.3470037660383518, 0.7050022098884984),
        (0.15713636106488646, 0.1462462692598661, 0.029950703008580715),
    ),
    (2, 4): (
        (0.048500549446997276, 0.23860073755186234, 0.5170472951043674, 0.7958514178967728),
        (0.11088841561127774, 0.14345878979921445, 0.0686338871729231, 0.010352240749918081),
    ),
    (2, 5): (
        (0.03457893991821509, 0.17348032077169567, 0.3898863870655193, 0.6343334726308868, 0.8510542129470164),
        (0.08176478428577101, 0.12619896189991137, 0.08920016122159007, 0.032055600722961895, 0.0041138252030990035),
    ),
    (2, 6): (
        (0.025904555093667347, 0.13156394165798502, 0.30243691802289124, 0.509036413164752, 0.7156811273117138, 0.8868056161775619),
        (0.06253870272658223, 0.1073764997367799, 0.09457718674854086, 0.05128957112961604, 0.01572029718494501, 0.0018310758068692911),
    ),
}


def _points_needed(degree):
    return max(1, (int(degree) + 2) // 2)


def _conical_rule(dim: int, degree: int):
    """Barycentric points (q, dim + 1) and weights (summing to 1) on the dim-simplex, exact to total degree.

    The Duffy map of the tensor product of the 1-D rules for the weights
    (1 - x)^a, a = 0..dim - 1: coordinate i is x_i (1 - x_i+1) ... (1 - x_dim-1).
    """
    if degree < 0 or degree > MAX_RULE_DEGREE:
        raise ValueError(f"unsupported degree {degree} for {dim}-simplex rules")
    key = (dim, degree)
    if key not in _RULE_CACHE:
        n = _points_needed(degree)
        nodes, weights = zip(*(map(np.array, _GAUSS_JACOBI01[a, n]) for a in range(dim)))
        grid = np.meshgrid(*nodes, indexing="ij")
        lam, W = [1.0], 1.0
        for i in range(dim):
            c = grid[i]
            for g in grid[i + 1:]:
                c = c * (1.0 - g)
            lam.append(c.ravel())
            lam[0] = lam[0] - lam[-1]
        for w in np.meshgrid(*weights, indexing="ij"):
            W = W * w
        _RULE_CACHE[key] = (np.stack(lam, axis=-1), W.ravel() / (1.0 / math.factorial(dim)))
    return _RULE_CACHE[key]


def triangle_rule(degree: int):
    """Barycentric points (q, 3) and weights (summing to 1) exact to total degree."""
    return _conical_rule(2, degree)


def tet_rule(degree: int):
    """Barycentric points (q, 4) and weights (summing to 1) exact to total degree."""
    return _conical_rule(3, degree)


def _cut_tables():
    """The marching-tetrahedra case table by sign pattern p, bit i set where vertex i is negative.

    Edges (16, 4) uint8: the corners' codes m * 4 + o in cycle order, from
    the separated vertex m (a lone triangle repeats its third corner) or,
    for a two-two split, m0-p0, m0-p1, m1-p1, m1-p0 (m0 < m1, p0 < p1).
    Triangles (16, 2, 2, 3): the two on diagonal 0-2 and on 1-3 (a lone
    triangle on either), ordered so the normal points with the gradient
    on the unit tetrahedron, whose corners are edge midpoints for values
    -1 and 1.  Counts (16,): a pattern's triangles, 0 if no sign changes.
    """
    edges, counts, grad, tris = np.zeros((16, 4), dtype=np.uint8), np.zeros(16, dtype=np.intp), np.zeros((16, 3)), np.tile(np.arange(3), (16, 2, 2, 1))
    for p in range(1, 15):
        neg, pos = ([v for v in range(4) if (p >> v & 1) == s] for s in (1, 0))
        if len(neg) == 2:
            pairs = [(neg[0], pos[0]), (neg[0], pos[1]), (neg[1], pos[1]), (neg[1], pos[0])]
            tris[p] = [[[0, 1, 2], [0, 2, 3]], [[1, 2, 3], [1, 3, 0]]]
        else:
            m, *others = neg + pos if len(neg) == 1 else pos + neg
            pairs = [(m, o) for o in others + others[-1:]]
        edges[p], counts[p] = [m * 4 + o for m, o in pairs], len(neg) * len(pos) - 2
        grad[p] = [(p & 1) - (p >> v & 1) for v in (1, 2, 3)]  # half the gradient of values -1 and 1
    tri = ((np.eye(4)[edges >> 2] + np.eye(4)[edges & 3])[..., 1:] / 2)[np.arange(16)[:, None, None, None], tris]  # (16, 2, 2, 3, 3)
    flip = np.einsum("pdti,pi->pdt", np.cross(tri[..., 1, :] - tri[..., 0, :], tri[..., 2, :] - tri[..., 0, :]), grad) < 0.0
    tris[flip] = tris[flip][:, [0, 2, 1]]
    return edges, tris, counts


_CUT_EDGES, _CUT_TRIS, CUT_COUNT = _cut_tables()


def sign_pattern(vertex_phi):
    """The cut tables' rows (E,) for vertex values (E, 4): bit i set where vertex i is negative."""
    return (vertex_phi < 0.0) @ (1, 2, 4, 8)


def extract_cuts(vertex_phi: np.ndarray, verts_phys: np.ndarray):
    """Interface triangles of a batch of cut tetrahedra, as edge fractions.

    vertex_phi: (E, 4) signed vertex values, no exact zeros; verts_phys:
    (E, 4, 3).  Returns (tri_elem (T,), tri_edges (T, 3) uint8,
    tri_fracs (T, 3), tri_area (T,)) sorted by element: corner c of
    triangle t lies on the edge from vertex m to vertex o, tri_edges[t, c]
    = m * 4 + o, at the fraction tri_fracs[t, c] from m, and corners()
    rebuilds its barycentric coordinates (1 - t) e_m + t e_o.  m and o are
    kept, not read off the nonzero coordinates: a fraction can round to
    1.0.  The sign pattern's case-table row (_cut_tables) gives corners
    and triangles, a quadrilateral split on its shorter diagonal, ordered
    so the normal points with the gradient (negative to positive), and
    mirrored in a tetrahedron of negative volume, even at zero area.
    """
    vphi = np.asarray(vertex_phi, dtype=np.float64)
    if np.any(vphi == 0.0):
        raise ValueError("vertex values must be nonzero (perturb exact zeros)")
    pattern = sign_pattern(vphi)
    count = CUT_COUNT[pattern]
    if np.any(count == 0):
        raise ValueError("an element without a sign change has no interface")
    edges = _CUT_EDGES[pattern]  # (E, 4)
    fracs = np.take_along_axis(vphi, edges >> 2, axis=1)
    fracs /= fracs - np.take_along_axis(vphi, edges & 3, axis=1)
    q = np.einsum("ecm,emi->eci", corners(edges, fracs), verts_phys)  # (E, 4, 3) the corners' physical points
    d = np.linalg.norm(q[:, 2:] - q[:, :2], axis=-1)  # the diagonals 0-2 and 1-3
    edge = verts_phys[:, 1:] - verts_phys[:, :1]
    mirror = np.einsum("ei,ei->e", np.cross(edge[:, 0], edge[:, 1]), edge[:, 2]) < 0.0  # negative volume
    del edge
    tris = _CUT_TRIS[pattern, (d[:, 0] > d[:, 1]) * 1]  # (E, 2, 3)
    tris[mirror] = tris[mirror][..., [0, 2, 1]]
    tri_elem = np.repeat(np.arange(len(vphi)), count)
    pick = tris[np.arange(2) < count[:, None]]  # (T, 3), in element order
    tri_edges = np.take_along_axis(edges[tri_elem], pick, axis=1)
    tri_fracs = np.take_along_axis(fracs[tri_elem], pick, axis=1)
    pts = q[tri_elem[:, None], pick]  # (T, 3, 3)
    tri_area = 0.5 * np.linalg.norm(np.cross(pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0]), axis=-1)
    return tri_elem, tri_edges, tri_fracs, tri_area


def corners(edges, fracs):
    """Barycentric points (..., 4) of edge codes m * 4 + o (...) and fractions t (...): (1 - t) e_m + t e_o.

    The coordinates extract_cuts forms for its corners, bit for bit.
    """
    bary = np.zeros((*np.shape(fracs), 4))
    flat, edges, fracs = bary.reshape(-1, 4), np.ravel(edges), np.ravel(fracs)
    rows = np.arange(len(flat))
    flat[rows, edges >> 2] = 1.0 - fracs
    flat[rows, edges & 3] = fracs
    return bary

