"""The benchmark's own checks must reject wrong outputs.

Run with ``python3 -m pytest pipebench`` from the repository root.
"""

import numpy as np
import pytest
import scipy.sparse as sp

import checks
from run import WORKLOADS

TOL = 1e-9


@pytest.fixture()
def system():
    """Neumann path Laplacian (constants in its kernel), mean constraint, solved densely."""
    n = 40
    rng = np.random.default_rng(3)
    w = rng.uniform(0.5, 2.0, n - 1)
    S = sp.diags([np.r_[w, 0] + np.r_[0, w], -w, -w], [0, 1, -1]).tocsr()
    c = rng.uniform(0.5, 1.5, n)
    f = rng.standard_normal(n)
    f -= f.sum() / c.sum() * c
    bordered = np.block([[S.toarray(), c[:, None]], [c[None, :], np.zeros((1, 1))]])
    u = np.linalg.solve(bordered, np.r_[f, 0.0])[:n]
    return S, c, f, u


def test_exact_solution_passes(system):
    assert checks.system_failures(*system, TOL, True) == []


def test_perturbed_solution_fails(system):
    S, c, f, u = system
    u = u + 1e-6 * np.random.default_rng(4).standard_normal(len(u))
    assert any("S u - f" in m for m in checks.system_failures(S, c, f, u, TOL, True))


def test_solution_off_the_constraint_fails(system):
    S, c, f, u = system
    assert any("c.u" in m for m in checks.system_failures(S, c, f, u + 1e-3, TOL, True))


def test_operator_properties_fail(system):
    S, c, f, u = system
    skew = S + sp.csr_matrix(([1e-3], ([0], [1])), shape=S.shape)
    assert any("symmetric" in m for m in checks.system_failures(skew, c, f, u, TOL, False))
    shifted = S + 1e-3 * sp.eye(S.shape[0])
    assert any("kernel" in m for m in checks.system_failures(shifted, c, f, u, TOL, False))


def test_eigenvalues_compare_with_the_dense_route(system):
    S, c, _, _ = system
    Q = np.linalg.svd(c[None, :])[2][1:].T          # orthonormal basis of c-perp
    w = np.linalg.eigvalsh(Q.T @ S.toarray() @ Q)
    assert checks.eigen_failures(S, c, w[-1], w[0]) == []
    assert len(checks.eigen_failures(S, c, w[-1], 1.01 * w[0])) == 1


def _convergence_csv(errors, ndofs=(1000, 4000)):
    head = "level,n,h,ndofs,e_dist,eoc_dist,e_l2,eoc_l2,e_h1t,eoc_h1t,e_h1n,eoc_h1n,n_its"
    lines = ["# tracefem convergence study", head]
    for lvl, e in enumerate(errors):
        vals = [f"{e[key]:.5e}" for key in ("e_dist", "e_l2", "e_h1t", "e_h1n")]
        lines.append(f"{lvl},{10 * 2**lvl},0.4,{ndofs[lvl]},{vals[0]},,{vals[1]},,{vals[2]},,{vals[3]},,500")
    return "\n".join(lines) + "\n"


def _study(orders):
    coarse = {"e_dist": 1e-2, "e_l2": 1e-1, "e_h1t": 1.0, "e_h1n": 1.0}
    return [coarse, {k: v / 2.0 ** orders.get(k, 0.0) for k, v in coarse.items()}]


@pytest.mark.parametrize("name,k", [("torus-k3-nv", 3), ("torus-k1-ghost", 1)])
def test_orders_of_the_paper_pass_and_low_orders_fail(name, k):
    gates = WORKLOADS[name]["gates"]
    paper = {"e_dist": k + 1, "e_l2": k + 1, "e_h1t": k}
    rows = checks.parse_rows(_convergence_csv(_study(paper)))
    assert checks.convergence_failures(rows, gates, 2) == []
    for col in gates:
        low = dict(paper, **{col: paper[col] - 1})
        rows = checks.parse_rows(_convergence_csv(_study(low)))
        assert any(col in m for m in checks.convergence_failures(rows, gates, 2))


def test_missing_level_and_capped_solve_fail():
    text = _convergence_csv(_study({"e_dist": 4, "e_l2": 4, "e_h1t": 3}))
    rows = checks.parse_rows(text)
    assert checks.convergence_failures(rows[:1], {}, 2)
    rows[1]["n_its"] = "-1"
    assert checks.convergence_failures(rows, {}, 2)


def _sweep(nv_conds, none_its=-1):
    rows = []
    for eps, cond in zip((0.5, 1e-1, 1e-3, 1e-5), nv_conds):
        rows.append({"eps": str(eps), "variant": "none", "lambda_max": "10", "lambda_min": "-1e-15",
                     "cond": "inf", "n_its": str(none_its)})
        rows.append({"eps": str(eps), "variant": "normal_volume", "lambda_max": "10",
                     "lambda_min": str(10 / cond), "cond": str(cond), "n_its": "200"})
    return rows


def test_conditioning_sweep():
    shifts = [0.5, 1e-1, 1e-3, 1e-5]
    assert checks.conditioning_failures(_sweep([600, 800, 1100, 1100]), shifts) == []
    assert checks.conditioning_failures(_sweep([600, 800, 1100, 60000]), shifts)
    assert checks.conditioning_failures(_sweep([600, 800, 1100, 1100], none_its=300), shifts)
    assert checks.conditioning_failures(_sweep([600, 800, 1100, 1100])[2:], shifts)
