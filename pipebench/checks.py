"""Output checks against properties the method must have.

Every function returns a list of failure messages (empty when the check
holds), so a caller can report all of them before it exits non-zero.
The thresholds and the values measured against them are listed in
README.md.  Nothing here compares with a stored copy of earlier output.
"""

from __future__ import annotations

import math

import numpy as np

# worst values measured are in README.md: the residual bound leaves 2x,
# the round-off bounds 100x or more
RESIDUAL_FACTOR = 2.0       # |S u - f| / |f| <= RESIDUAL_FACTOR * tol
CONSTRAINT_REL = 1e-11      # |c.u| <= CONSTRAINT_REL * |c| |u|
SYMMETRY_REL = 1e-14        # max |S - S'| <= SYMMETRY_REL * max |S|
KERNEL_REL = 1e-13          # max |S 1| <= KERNEL_REL * max row sum of |S|
EIG_REL = 1e-10             # own extreme eigenvalues vs the program's, relative to lambda_max
NV_COND_SPREAD = 10.0       # max/min normal_volume condition number over the shifts
NONE_OVER_NV = 1e3          # cond(none) / cond(normal_volume) at the smallest shift


def data_rows(csv_text: str) -> list:
    """CSV lines other than the '#' header comments (which echo the output path)."""
    return [ln for ln in csv_text.splitlines() if ln and not ln.startswith("#")]


def parse_rows(csv_text: str) -> list:
    lines = data_rows(csv_text)
    cols = lines[0].split(",")
    return [dict(zip(cols, ln.split(","))) for ln in lines[1:]]


def convergence_failures(rows: list, gates: dict, levels: int) -> list:
    """Error columns must fall at their orders: gates maps column -> least order."""
    if len(rows) != levels:
        return [f"expected {levels} levels, the CSV has {len(rows)}"]
    out = []
    for r in rows:
        for col in ("e_dist", "e_l2", "e_h1t", "e_h1n"):
            v = float(r[col])
            if not (math.isfinite(v) and v > 0.0):
                out.append(f"level {r['level']}: {col} = {r[col]} is not a positive number")
        if int(r["n_its"]) <= 0:
            out.append(f"level {r['level']}: solver reported n_its = {r['n_its']}")
    if out:
        return out
    for a, b in zip(rows[:-1], rows[1:]):
        growth = int(b["ndofs"]) / int(a["ndofs"])
        if not 3.0 <= growth <= 5.0:
            out.append(f"ndofs grew {growth:.2f}x from n={a['n']} to n={b['n']}; a surface space grows ~4x")
        for col, least in gates.items():
            order = math.log2(float(a[col]) / float(b[col]))
            if order < least:
                out.append(f"{col} order {order:.2f} from n={a['n']} to n={b['n']} is below {least}")
    return out


def conditioning_failures(rows: list, shifts: list) -> list:
    """Sweep rows: normal_volume stays conditioned, none is singular on c-perp."""
    table = {(float(r["eps"]), r["variant"]): r for r in rows}
    need = [(s, v) for s in shifts for v in ("none", "normal_volume")]
    missing = [key for key in need if key not in table]
    if missing:
        return [f"sweep rows missing: {missing}"]
    out = []
    for (eps, variant), r in table.items():
        lmax, lmin, its = float(r["lambda_max"]), float(r["lambda_min"]), int(r["n_its"])
        if not lmax > 0.0:
            out.append(f"eps={eps} {variant}: lambda_max = {r['lambda_max']}")
        if variant in ("normal_volume", "full_gradient_volume") and not (lmin > 0.0 and its > 0):
            out.append(f"eps={eps} {variant}: not definite on c-perp or PCG capped ({r['lambda_min']}, {its})")
        if variant == "none" and (its != -1 or abs(lmin) > 1e-8 * lmax):
            out.append(f"eps={eps} none: expected a singular operator and a capped PCG ({r['lambda_min']}, {its})")
    nv = [float(table[(s, "normal_volume")]["cond"]) for s in shifts]
    if not all(math.isfinite(c) for c in nv) or max(nv) > NV_COND_SPREAD * min(nv):
        out.append(f"normal_volume condition numbers {nv} vary by more than {NV_COND_SPREAD}x")
    smallest = min(shifts)
    none = float(table[(smallest, "none")]["cond"])
    if not none >= NONE_OVER_NV * nv[shifts.index(smallest)]:
        out.append(f"eps={smallest}: cond(none) = {none} is not {NONE_OVER_NV}x cond(normal_volume)")
    return out


def system_failures(S, c, f, u, tol: float, converged: bool) -> list:
    """Recompute the solve's residual and the operator's properties from triplets."""
    n = S.shape[0]
    coo = S.tocoo()
    row, col, val = coo.row, coo.col, coo.data
    out = []
    smax = float(np.abs(val).max())
    asym = float(abs(S - S.T).max())
    if asym > SYMMETRY_REL * smax:
        out.append(f"S is not symmetric: max |S - S'| = {asym:.3e} (max |S| = {smax:.3e})")
    ones = np.bincount(row, weights=val, minlength=n)
    rowabs = float(np.bincount(row, weights=np.abs(val), minlength=n).max())
    if float(np.abs(ones).max()) > KERNEL_REL * rowabs:
        out.append(f"constants are not in the kernel of S: max |S 1| = {np.abs(ones).max():.3e}")
    if not converged:
        return out
    Su = np.bincount(row, weights=val * u[col], minlength=n)
    res = math.sqrt(float(np.sum((Su - f) ** 2)) / float(np.sum(f * f)))
    if res > RESIDUAL_FACTOR * tol:
        out.append(f"|S u - f| / |f| = {res:.3e} exceeds {RESIDUAL_FACTOR} x tol = {RESIDUAL_FACTOR * tol:.1e}")
    cu = abs(float(np.sum(c * u)))
    scale = math.sqrt(float(np.sum(c * c)) * float(np.sum(u * u)))
    if cu > CONSTRAINT_REL * scale:
        out.append(f"|c.u| = {cu:.3e} is not ~0 (|c| |u| = {scale:.3e})")
    return out


def eigen_failures(S, c, lmax: float, lmin: float) -> list:
    """Extreme eigenvalues of S on c-perp from a dense eigh of P S P, P = I - c^ c^'."""
    chat = np.asarray(c, dtype=np.float64) / np.linalg.norm(c)
    P = np.eye(len(chat)) - np.outer(chat, chat)
    w = np.linalg.eigvalsh(P @ S.toarray() @ P)
    # P S P has one extra zero eigenvalue, along c^ itself
    zero = int(np.argmin(np.abs(w)))
    own = np.delete(w, zero)
    out = []
    if abs(w[zero]) > EIG_REL * w[-1]:
        out.append(f"P S P has no zero eigenvalue along c (closest {w[zero]:.3e})")
    for label, mine, theirs in (("max", own[-1], lmax), ("min", own[0], lmin)):
        if abs(mine - theirs) > EIG_REL * own[-1]:
            out.append(f"lambda_{label}: own {mine:.10e} vs program {theirs:.10e}")
    return out
