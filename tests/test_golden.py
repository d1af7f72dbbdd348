"""Golden digests: S, c, f, Theta, u, iteration counts and CSV rows of small studies, to the bit.

Each case is a one-level study (or the conditioning sweep) run through
study.run_study in a fresh process with one BLAS thread.  Every array the
study makes is hashed with SHA-256 over its dtype, shape and bytes, and a
norm is kept next to each digest, so a failure names the array that
moved and by how much.  The digests hold for one numpy, scipy and
OpenBLAS build; another may round differently.  A change that moves a
digest on purpose, or a new build, regenerates the table with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest

CASES = {
    "torus-k1-ghost": dict(benchmark="torus", k=1, base_n=12, stab="ghost"),
    "sphere-k2-fgs": dict(benchmark="sphere", k=2, base_n=8, stab="fgs"),
    "torus-k3-nv-export": dict(benchmark="torus", k=3, base_n=10, stab="nv", export_vtk=True, export_matrix=True),
    "sphere-k4-fgv": dict(benchmark="sphere", k=4, base_n=8, stab="fgv"),
    "sphere-k5-none": dict(benchmark="sphere", k=5, base_n=8, stab="none"),
    "plane-k5-none": dict(benchmark="plane", k=5, base_n=4, stab="none"),
    "sweep-k2": dict(conditioning=True, k=2, base_n=8, shifts=[0.5, 1e-3]),
}


class _Digest:
    """SHA-256 and Euclidean norm over a sequence of arrays (every call of a stage, in order)."""

    def __init__(self):
        self.sha, self.sq = hashlib.sha256(), 0.0

    def add(self, a):
        a = np.ascontiguousarray(a)
        self.sha.update(f"{a.dtype.str}{a.shape}".encode())
        self.sha.update(a.tobytes())
        self.sq += float(np.sum(np.square(a, dtype=np.float64)))


def digests(config):
    """{name: [sha256, norm]} of one study's arrays, and its iteration counts and CSV data rows."""
    from tracefem import study

    seen = {}

    def record(name, a):
        seen.setdefault(name, _Digest()).add(a)

    def wrap(fn, each):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            each(out)
            return out

        return wrapped

    def system(s):
        for name in ("data", "indices", "indptr"):
            record(f"S.{name}", getattr(s.S, name))
        record("c", s.c)
        record("f", s.f)

    its = []

    def report(rep):
        record("u", rep.u)
        its.append(rep.iterations)

    originals = {name: getattr(study, name) for name in ("build_theta", "assemble_system", "solve_constrained")}
    study.build_theta = wrap(originals["build_theta"], lambda m: record("theta", m.displacement))
    study.assemble_system = wrap(originals["assemble_system"], system)
    study.solve_constrained = wrap(originals["solve_constrained"], report)
    try:
        with tempfile.TemporaryDirectory() as out:
            result, _, _, _ = study.run_study(study.StudyConfig(**dict(config, levels=1, out=out)))
            for name in sorted(os.listdir(out)):
                if not name.startswith(("convergence", "conditioning")):  # the exports
                    with open(os.path.join(out, name), "rb") as fh:
                        record(f"file:{name}", np.frombuffer(fh.read(), dtype=np.uint8))
    finally:
        for name, fn in originals.items():
            setattr(study, name, fn)
    table = {name: [d.sha.hexdigest(), float(np.sqrt(d.sq))] for name, d in seen.items()}
    table["iterations"] = its
    table["csv_rows"] = [",".join(row) for row in result.rows]
    return table


# the output of this file as a script (see the module docstring)
GOLDEN = {
    "plane-k5-none": {
        "S.data": ["dd841d9cd202440b3771952b586586282fb515999785daa7e4739306e5c1716c", 377.3584338030036],
        "S.indices": ["f4f16983217ea1cad04ebd52a5a4d7d094b3fe04e6efb10fa3ae3686d0cc8008", 742657.4356794659],
        "S.indptr": ["c3498d361fa8b3d3551e12ace0e4a322f146d442b26fdef7adc3c6642ef2dee9", 7152631.144535275],
        "c": ["5baf9ef4e96be89449c7f58ac995d11e8757fb7c25d5b01e1c16ae52ec885c8f", 1.0397140145028767],
        "csv_rows": [
            "0,4,1.00000e+00,2646,1.00000e-14,,0.00000e+00,,0.00000e+00,,0.00000e+00,,0",
        ],
        "f": ["e299735c0f7815a3f617799282c3af2cc2ce1d141d61068da043267501d0e0db", 0.0],
        "iterations": [0],
        "theta": ["a4ffcdb438db486f0dae75f66472a3c9be67b6cfcbf0b46f3246cc3c6bff52fd", 2.2452871135843694e-15],
        "u": ["e299735c0f7815a3f617799282c3af2cc2ce1d141d61068da043267501d0e0db", 0.0],
    },
    "sphere-k2-fgs": {
        "S.data": ["754428f3b450c581596f2cea7bf1b7cf40072e7142427d64f006a80b9373f7b8", 83.24327155575953],
        "S.indices": ["1bf23e8cf63b4020347a0ae26081d7433277d4f094036203e8a4bf671c5e1c8a", 37036.59642839769],
        "S.indptr": ["ddefe0614232d547490437c054f376394adc49c7784d9b21134b09c1e35d39a0", 177833.9035757805],
        "c": ["fda3109050db8a9359d09598f48ca7611d3aa947ba414f341eb60be9277c92f6", 1.021556210431239],
        "csv_rows": [
            "0,8,5.00000e-01,570,5.74492e-03,,1.00616e-02,,1.16748e-01,,6.55244e-02,,171",
        ],
        "f": ["6cc811148f82fe10d14e648aca004d6663c4f94bace1e1a4310989a6e4f1dabc", 0.9921820473576519],
        "iterations": [171],
        "theta": ["35ba69fa06b4131577e93adb52403d83f651036e2782f00a736764e7cdad2398", 0.9603003373001365],
        "u": ["dda38c797a4c758630d7500d1b231d7e10996ea9dc6f9906ee11777ca00143bd", 874953152303.2701],
    },
    "sphere-k4-fgv": {
        "S.data": ["43bd89c2829bb79f630fb9d264c7088d75d08c85cb59856678cbdf27e5e05dbd", 258.69951093829343],
        "S.indices": ["2356867f41ad48b78f2f26f96b3830830901a09fbc51ace9888e2311fd3b02e8", 1052009.308164619],
        "S.indptr": ["cae639a3ddc3c67dfe1104eefe3ea3b55af7534169b613ff0177a32e0c0336f2", 8489881.978751237],
        "c": ["cde797116cf5c13cb12b2346e9b6dd5528fc7c12bc6b08478c0f6358b861cee1", 0.6043389569676176],
        "csv_rows": [
            "0,8,5.00000e-01,3730,6.24998e-04,,6.03804e-02,,2.08468e-01,,1.71316e-01,,208",
        ],
        "f": ["e803ea4f760969157f07805483883a02f482e72eed0e6effc80ef60956a177d6", 0.6867103872593432],
        "iterations": [208],
        "theta": ["0d9257c24ee82415ce2d7cf2faca9fcb7c2093721d3046df497ec642db15ff65", 2.7431411013690905],
        "u": ["a619ef18578da668d4ff466be9e928e6f287cad647b0f107df94b8c877bf87d0", 4.583615546681636],
    },
    "sphere-k5-none": {
        "S.data": ["843004b1a1f4ecec74dc0500b0ccc427f38b8c5e6f4e1578795d8a8cdb1be70c", 422.49692427740723],
        "S.indices": ["464b6aa03417c5abb568afe4b2d23d96a1d02c3a574865ffc3a208595fa6821a", 3289337.0187282423],
        "S.indptr": ["15a12f8373c3806365c56cf0a288094f464b64c748550a00a82e0e4ede62d995", 32426889.431869503],
        "c": ["9d25ee34a9560b0562570fb4e21f16709a1dd0d4d27cf81f7d24ec850a8f492e", 0.5357210898400787],
        "csv_rows": [
            "0,8,5.00000e-01,6972,1.59613e-04,,3.95239e-05,,9.17770e-04,,3.24596e+00,,405",
        ],
        "f": ["46908442b9b3efbc1ccced609cc081a8adbef0f58d9bebee3508ac9832f38706", 0.601300246811228],
        "iterations": [405],
        "theta": ["8b6c5ce4522a41c3ce23462229a18ec9b9bf7a07510dce3fbeb87a5ecdc3a019", 3.8023374256046063],
        "u": ["ecdac01b780527ea4a846b3a726ad5f5f317833eba7164a40307e8ec4fa621c9", 4.079346073454647e+27],
    },
    "sweep-k2": {
        "S.data": ["26c13281c35f2b76908e200ddf4aa2577de4403c663e91bf6149a2487884b78a", 258.3137116469975],
        "S.indices": ["3d31efdd9165545e8176edb0de4d9762db7b0bf5c044f84432eed0721fb73a9a", 191212.64826365435],
        "S.indptr": ["4a3b6227d53800890eb612cc86158693bfeee950517991d0fc458f51f4cddb33", 898556.0526533667],
        "c": ["63d497e8c636c6fcbd6d81963cfa80aa2e05c52f086579ef6a17fa838fb6bc41", 3.131009045972409],
        "csv_rows": [
            "5.00000e-01,none,5.53253e+00,-6.78112e-17,inf,-1",
            "5.00000e-01,normal_volume,6.56727e+00,1.04580e-02,6.27965e+02,126",
            "5.00000e-01,full_gradient_surface,6.82179e+00,-1.15392e-16,inf,-1",
            "5.00000e-01,full_gradient_volume,6.57676e+00,1.24982e-02,5.26215e+02,113",
            "1.00000e-03,none,1.03449e+01,5.73141e-14,inf,-1",
            "1.00000e-03,normal_volume,1.08283e+01,9.82602e-03,1.10200e+03,130",
            "1.00000e-03,full_gradient_surface,1.16639e+01,1.57315e-12,inf,-1",
            "1.00000e-03,full_gradient_volume,1.11111e+01,1.14914e-02,9.66908e+02,102",
        ],
        "f": ["97a5b63d8b97627ab3c311977d6f507fdf3f7fe4602cba9e11577e4f37b5c41f", 0.0],
        "iterations": [126, 113, 130, 102],
        "theta": ["94098715a300230d6874696beed8cc23b5f419ea50f62e237b1fc2adfbf31010", 0.0],
        "u": ["2862c6876a0328bd593f9b37b2abe4627f1aefec445c01f05b86d5a12cca7bbb", 346.0820687887522],
    },
    "torus-k1-ghost": {
        "S.data": ["d8e5cf6fa940088d2fa261403eded3ce1ca76acf86b7dc0ae5b73919008485fb", 651.2233753871614],
        "S.indices": ["5d8337d00c7065c862c49a6e6bf2a36df70f630c125d97e2a1999eeb794b2250", 23231.501393581948],
        "S.indptr": ["e0aaf71440f05c26edf328235654c0f77de31929cf6307d87527d1b9791d71cd", 96804.41916565587],
        "c": ["43525a6b5e2ea21deb77a85c855d6e8e58a302b0651c4b79cdcac89a5bce364d", 1.3365638991142],
        "csv_rows": [
            "0,12,3.33333e-01,459,6.08990e-02,,2.02384e+00,,1.27684e+01,,1.46162e+00,,248",
        ],
        "f": ["4d4ca65466b6b2e32fff87a899ae226598284b9c6e96611e72c9d48abe11e3fd", 16.134750919324706],
        "iterations": [248],
        "theta": ["da1582d2116a5e538134b44b6b54e3a13ab3e471785d289b786f9884901c2f56", 0.0],
        "u": ["d050cbe671d8edcfd7f48b1a55b21348a4b98349ad45e49396215d8653ed5e51", 3.417816729810695],
    },
    "torus-k3-nv-export": {
        "S.data": ["fb1823c267f3f7060326e4dc615bfcaf54bfbef6d0a947b6817c8fb5241b65c3", 269.92732659755416],
        "S.indices": ["b6c1ab4b52e1e77b9ab66e6c18104bb949e6d4050d2cdbe2a8b80b3f7687e298", 1689871.0886680083],
        "S.indptr": ["77a18ec5de65588dd557379e8cddb10d45ad25789260a7d5d34cdea3bf21619a", 10818487.117291447],
        "c": ["65e3289435525ce9f5caa50e26716e9110572ade9ff7dfdefdfc3b816421749e", 0.778922757993015],
        "csv_rows": [
            "0,10,4.00000e-01,5961,2.29769e-02,,1.01946e-01,,1.54656e+00,,1.53097e+00,,312",
        ],
        "f": ["5bcf2c56973e3940c52f1bcf9ce5684d37b6bae213c668dfe5d8273cc691e482", 14.628008599551993],
        "file:active_mesh_l0.vtk": ["f91e92d3740d27571fd9e4b8c44661a14aad7a274468e7edf93d44ac8413b1b7", 8602.992618850722],
        "file:constraint_l0.mtx": ["ada9145cd97e1c8ba1ff3483a1f2069a73a2516c320cc0170808f91ec3ace7b1", 18556.66255014624],
        "file:deformed_nodes_l0.vtk": ["d2a0367f6e91bff0a0e29c22c6fb5106931212a2df4146d5b5bb67a31f66040e", 30890.505175538972],
        "file:interface_lifted_l0.vtk": ["2520c226c719e2f2b5d0c00fff2a99a7d4c4e323cdc2819e0357c3de8ad55ac0", 44044.75321760811],
        "file:interface_lin_l0.vtk": ["dbbac3a1fa4056bede6ff72ac70011d8810dc1f421e01a937595c1ee4d95e395", 23745.134996457695],
        "file:system_l0.mtx": ["b72f208e2947675e57e76a3125b701a2e2a02101e084de3a28a7e0ade0cc7ebd", 139375.73135592867],
        "iterations": [312],
        "theta": ["579400a0b5c4f61777f05a63357ca66f3d898463713dda225004a836e40bb8f4", 2.17913385870973],
        "u": ["079471dfafb83d55fbdb9ddb1fb63909ccd0b7d7ab61589d3d9e412c57942f69", 38.052845684802755],
    },
}


@pytest.fixture(scope="module")
def measured():
    """Every case's digests, from one fresh process with one BLAS thread."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, os.path.abspath(__file__)], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digests(measured, case):
    want, got = GOLDEN[case], measured[case]
    moved = []
    for name in sorted(set(want) | set(got)):
        w, g = want.get(name), got.get(name)
        if name in ("iterations", "csv_rows") or w is None or g is None:
            if w != g:
                moved.append(f"{name}: {w} -> {g}")
        elif w[0] != g[0]:
            moved.append(f"{name}: norm {w[1]!r} -> {g[1]!r} (relative change {abs(g[1] - w[1]) / max(abs(w[1]), 1e-300):.3e})")
    assert not moved, f"{case} moved:\n" + "\n".join(moved)


if __name__ == "__main__":
    print(json.dumps({case: digests(config) for case, config in CASES.items()}, indent=1, sort_keys=True))
