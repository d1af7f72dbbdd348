"""Study harness determinism, file outputs, and command-line behaviour."""

import gc
import json
import os
import weakref
from pathlib import Path

import numpy as np
import pytest

from tracefem import assembly, cutquad, study, vtkio
from tracefem.cli import build_parser, main
from tracefem.levelset import Sphere
from tracefem.mapping import build_theta
from tracefem.mesh import ActiveMesh, MeshParams
from tracefem.reference import interpolate
from tracefem.study import (
    StageError,
    StudyConfig,
    run_conditioning,
    run_convergence,
    run_study,
)

from helpers import cut_corners_oracle


def small_config(**kw):
    base = dict(benchmark="torus", k=1, levels=2, base_n=8, stab="nv", tol=1e-9)
    base.update(kw)
    return StudyConfig(**base)


def whole_cut(mesh):
    """The interface triangles of a mesh, cut in one call: (tri_elem, tri_bary (T, 3, 4), tri_area)."""
    return cut_corners_oracle(mesh.vertex_phi, mesh.verts_phys(slice(None)))


def count_cuts(monkeypatch):
    """Count the triangles that go through the assembly's cut, and those of every mesh built."""
    cut, meshes, original = [], [], ActiveMesh.build

    def build(params, levelset, k):
        mesh = original(params, levelset, k)
        meshes.append(len(whole_cut(mesh)[0]))
        return mesh

    def extract(*args):
        tris = cutquad.extract_cuts(*args)
        cut.append(len(tris[0]))
        return tris

    monkeypatch.setattr(ActiveMesh, "build", build)
    monkeypatch.setattr(assembly, "extract_cuts", extract)
    return cut, meshes


def track_alive(monkeypatch):
    """For every ActiveMesh.build, whether each mesh built before it is still alive."""
    original, built, alive = ActiveMesh.build, [], []

    def build(params, levelset, k):
        alive.append([ref() is not None for ref in built])
        mesh = original(params, levelset, k)
        built.append(weakref.ref(mesh))
        return mesh

    monkeypatch.setattr(ActiveMesh, "build", build)
    return alive


class TestStudyConfig:
    def test_aliases_resolve(self):
        assert small_config(stab="nv").stab == "normal_volume"
        assert small_config(stab="fgs").stab == "full_gradient_surface"
        assert small_config(stab="fgv").stab == "full_gradient_volume"
        assert small_config(stab="ghost").stab == "ghost_penalty"
        assert small_config(stab="none").stab == "none"

    def test_level_caps_per_degree(self):
        StudyConfig(k=3, levels=3, base_n=8)
        with pytest.raises(ValueError, match="levels"):
            StudyConfig(k=3, levels=4)
        with pytest.raises(ValueError, match="levels"):
            StudyConfig(k=1, levels=5)
        with pytest.raises(ValueError, match="degree"):
            StudyConfig(k=6)

    def test_dict_round_trip(self):
        cfg = small_config(rho=("custom", 2.0, -1.0), shifts=(0.5, 0.25))
        again = StudyConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            StudyConfig.from_dict({"benchmark": "torus", "mode": "fast"})

    def test_ghost_penalty_needs_k_one_outside_the_sweep(self):
        with pytest.raises(ValueError, match="ghost_penalty"):
            StudyConfig(k=2, levels=1, stab="ghost")
        # the conditioning sweep skips the variant for k > 1
        assert StudyConfig(k=2, stab="ghost", conditioning=True).stab == "ghost_penalty"

    def test_shift_fractions_validated(self):
        with pytest.raises(ValueError, match="shift"):
            StudyConfig(conditioning=True, shifts=(0.5, 1.5))


class TestConvergenceStudy:
    def test_zero_benchmark_is_solved_exactly(self):
        """The trivial problem reaches machine-size errors in few iterations."""
        result, reports = run_convergence(small_config(benchmark="torus-zero", levels=1))
        r = reports[0]
        assert r["e_l2"] <= 1e-10 and r["e_h1t"] <= 1e-10 and r["e_h1n"] <= 1e-10
        assert r["n_its"] <= 2
        assert r["e_dist"] > 0  # geometry error is independent of the solution

    def test_report_fields_and_rows_align(self):
        result, reports = run_convergence(small_config())
        assert [r["n"] for r in reports] == [8, 16]
        assert result.kind == "convergence"
        assert len(result.rows) == 2
        for row in result.rows:
            assert len(row) == len(result.columns)
        # the level columns echo the reports
        assert result.rows[0][0] == "0" and result.rows[1][0] == "1"
        assert result.rows[1][1] == "16"
        assert result.rows[0][3] == str(reports[0]["ndofs"])

    def test_errors_decrease_under_refinement(self):
        _, reports = run_convergence(small_config())
        assert reports[1]["e_l2"] < reports[0]["e_l2"]
        assert reports[1]["e_dist"] < reports[0]["e_dist"]

    @pytest.mark.parametrize("stab, k, base_n", [("ghost", 1, 8), ("nv", 2, 12)])
    def test_one_level_is_alive_at_a_time(self, stab, k, base_n, monkeypatch):
        """Every earlier level's mesh, which its mapping, system and facets hold, is freed when a level's build starts.

        The garbage collector is off, so a level kept alive by a reference
        cycle fails the test as one kept alive by a name.
        """
        alive = track_alive(monkeypatch)
        gc.disable()
        try:
            run_convergence(small_config(stab=stab, k=k, base_n=base_n, levels=3 if k == 1 else 2))
        finally:
            gc.enable()
        assert alive == ([[], [False], [False, False]] if k == 1 else [[], [False]])

    def test_system_is_freed_before_the_errors(self, monkeypatch):
        """No level's S, c and f are alive while its errors are measured; the collector is off, as above."""
        systems, alive = [], []
        assemble, errors = study.assemble_system, study.compute_errors

        def assembled(*args):
            system = assemble(*args)
            systems.append(weakref.ref(system))
            return system

        def measured(*args):
            alive.append([ref() is not None for ref in systems])
            return errors(*args)

        monkeypatch.setattr(study, "assemble_system", assembled)
        monkeypatch.setattr(study, "compute_errors", measured)
        gc.disable()
        try:
            run_convergence(small_config())
        finally:
            gc.enable()
        assert alive == [[False], [False, False]]

    def test_each_level_is_cut_once(self, monkeypatch, tmp_path):
        """The assembly, the errors and the VTK export share one cut of each level's interface."""
        cut, meshes = count_cuts(monkeypatch)
        run_convergence(small_config(stab="ghost", export_vtk=True, out=str(tmp_path)))
        assert len(meshes) == 2 and sum(cut) == sum(meshes)

    def test_a_level_leaves_no_cut_behind(self, monkeypatch):
        """The cut dies with its mesh: after a level returns, the cache holds no entry for it."""
        original, held = study._convergence_level, []

        def level(*args):
            before = len(assembly._CUTS)
            report = original(*args)
            held.append(len(assembly._CUTS) - before)
            return report

        monkeypatch.setattr(study, "_convergence_level", level)
        gc.disable()
        try:
            run_convergence(small_config(k=2, base_n=12))
        finally:
            gc.enable()
        assert held == [0, 0]

    def test_csv_output_is_reproducible(self, tmp_path):
        cfg = small_config(out=str(tmp_path / "a"))
        result, _, paths, _ = run_study(cfg)
        text_a = Path(paths[0]).read_text()
        cfg_b = small_config(out=str(tmp_path / "a"))
        result_b, _, paths_b, _ = run_study(cfg_b)
        assert Path(paths_b[0]).read_text() == text_a
        assert "# config:" in text_a
        assert "# rho_s per level:" in text_a

    def test_csv_echoes_the_configuration(self, tmp_path):
        cfg = small_config(out=str(tmp_path / "out"), rho="h_inv")
        result, _, paths, _ = run_study(cfg)
        header = [l for l in Path(paths[0]).read_text().splitlines() if l.startswith("# config:")][0]
        echoed = json.loads(header.split("# config:", 1)[1])
        assert echoed == cfg.to_dict()
        assert echoed["rho"] == "h_inv"

    def test_pipeline_failures_carry_the_stage_tag(self):
        with pytest.raises(StageError, match=r"\[mapping\]"):
            run_convergence(StudyConfig(benchmark="torus", k=2, levels=1, base_n=8))
        # an unknown benchmark is a configuration error, refused before any stage runs
        with pytest.raises(ValueError, match="unknown benchmark 'moebius'"):
            small_config(benchmark="moebius")

    def test_vtk_and_matrix_exports_written(self, tmp_path):
        out = str(tmp_path / "exp")
        cfg = StudyConfig(benchmark="sphere", k=2, levels=1, base_n=8, out=out, export_vtk=True, export_matrix=True)
        run_study(cfg)
        names = set(os.listdir(out))
        assert {
            "active_mesh_l0.vtk",
            "interface_lin_l0.vtk",
            "interface_lifted_l0.vtk",
            "deformed_nodes_l0.vtk",
            "system_l0.mtx",
            "constraint_l0.mtx",
            "convergence.csv",
            "convergence.md",
        } <= names

    def test_vtk_interface_is_the_whole_mesh_cut(self, tmp_path):
        """The exported linear interface, from the assembly's chunked cut, matches the bytes of one whole-mesh cut."""
        out = tmp_path / "vtk"
        run_study(StudyConfig(benchmark="sphere", k=2, levels=1, base_n=8, out=str(out), export_vtk=True))
        mesh = ActiveMesh.build(MeshParams(8), Sphere(), 2)
        tri_elem, tri_bary, _ = whole_cut(mesh)
        pts = np.einsum("tcm,tmi->tci", tri_bary, mesh.verts_phys(tri_elem)).reshape(-1, 3)
        vtkio.write_triangles(tmp_path / "oracle.vtk", pts, np.arange(len(pts)).reshape(-1, 3))
        assert (out / "interface_lin_l0.vtk").read_bytes() == (tmp_path / "oracle.vtk").read_bytes()

    def test_vtk_deformed_nodes_are_theta_at_the_dofs(self, tmp_path):
        """The deformed file is Theta's nodal values, one point per dof, and they move off the dof points.

        Theta fixes every mesh vertex, where phi_h and the linear
        interpolant agree, so Theta at the vertices wrote the undeformed
        mesh: at torus k=3 n=10 they moved by at most 8.7e-15.
        """
        out = tmp_path / "vtk"
        run_study(StudyConfig(benchmark="sphere", k=2, levels=1, base_n=8, out=str(out), export_vtk=True))
        mesh = ActiveMesh.build(MeshParams(8), Sphere(), 2)
        mapping = build_theta(interpolate(Sphere(), mesh))
        text = (out / "deformed_nodes_l0.vtk").read_text().splitlines()
        assert text[4] == f"POINTS {mesh.ndofs} double"
        np.testing.assert_allclose(np.loadtxt(text[5:5 + mesh.ndofs]), mapping.nodes, rtol=1e-15, atol=0.0)
        assert np.abs(mapping.displacement).max() > 0.01 * mesh.h
        vtkio.write_point_cloud(tmp_path / "oracle.vtk", mapping.nodes)
        assert (out / "deformed_nodes_l0.vtk").read_bytes() == (tmp_path / "oracle.vtk").read_bytes()

    def test_vtk_text_matches_a_row_by_row_writer(self, tmp_path):
        """The VTK writers give the text of formatting one row at a time, signed zeros, extremes and wide indices included."""
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((50, 3))
        pts[0] = [-0.0, 1e-300, -1e300]
        tets = rng.integers(0, 2**40, (20, 4))
        vtkio.write_unstructured_tets(tmp_path / "t.vtk", pts, tets)
        vtkio.write_triangles(tmp_path / "s.vtk", pts, tets[:, :3])
        vtkio.write_point_cloud(tmp_path / "p.vtk", pts)
        points = "POINTS 50 double\n" + "".join(f"{x:.16g} {y:.16g} {z:.16g}\n" for x, y, z in pts)

        def cells(c):
            return "".join(" ".join(str(v) for v in [len(row), *row]) + "\n" for row in c.tolist())

        assert (tmp_path / "t.vtk").read_text().endswith(
            points + "CELLS 20 100\n" + cells(tets) + "CELL_TYPES 20\n" + "10\n" * 20
        )
        assert (tmp_path / "s.vtk").read_text().endswith(points + "POLYGONS 20 80\n" + cells(tets[:, :3]))
        assert (tmp_path / "p.vtk").read_text().endswith(points + "VERTICES 50 100\n" + cells(np.arange(50)[:, None]))

    def test_markdown_table_shape(self):
        result, _ = run_convergence(small_config(levels=1))
        md = result.markdown_text()
        lines = md.strip().splitlines()
        assert lines[0].startswith("| level | n | h |")
        assert set(lines[1].replace("|", "").strip()) <= {"-", " "}
        assert len(lines) == 3


class TestConditioningStudy:
    def test_one_shift_is_alive_at_a_time(self, monkeypatch):
        """The previous shift's mesh, which its mapping and systems hold, is freed when the next shift's build starts."""
        alive = track_alive(monkeypatch)
        gc.disable()
        try:
            run_conditioning(StudyConfig(k=2, base_n=8, conditioning=True, shifts=(0.5, 1e-1, 1e-3)))
        finally:
            gc.enable()
        assert alive == [[], [False], [False, False]]

    def test_each_shift_is_cut_once(self, monkeypatch):
        """The four variants at a shift share one cut of its mesh."""
        cut, meshes = count_cuts(monkeypatch)
        _, reports = run_conditioning(StudyConfig(k=2, base_n=8, conditioning=True, shifts=(0.5,)))
        assert len(reports) == 4 and len(meshes) == 1 and sum(cut) == meshes[0]

    def test_sweep_covers_all_variants_and_shifts(self):
        cfg = StudyConfig(
            benchmark="plane", k=1, base_n=8, conditioning=True, shifts=(0.5, 1e-2)
        )
        result, reports = run_conditioning(cfg)
        variants = {r["variant"] for r in reports}
        assert variants == {
            "none",
            "normal_volume",
            "full_gradient_surface",
            "full_gradient_volume",
            "ghost_penalty",
        }
        assert {r["eps"] for r in reports} == {0.5, 1e-2}
        assert result.kind == "conditioning"
        for r in reports:
            assert r["cond"] >= 1.0 or np.isnan(r["cond"])

    def test_degree_two_drops_ghost_penalty(self):
        """Also when ghost_penalty is the configured variant."""
        for stab in ("nv", "ghost"):
            cfg = StudyConfig(benchmark="plane", k=2, base_n=8, stab=stab, conditioning=True, shifts=(0.5,))
            _, reports = run_conditioning(cfg)
            assert "ghost_penalty" not in {r["variant"] for r in reports}, stab

    def test_stabilized_conditioning_is_shift_robust(self):
        cfg = StudyConfig(benchmark="plane", k=1, base_n=8, conditioning=True, shifts=(0.5, 1e-4))
        _, reports = run_conditioning(cfg)
        nv = {r["eps"]: r["cond"] for r in reports if r["variant"] == "normal_volume"}
        assert max(nv.values()) / min(nv.values()) < 10.0

    def test_singular_variants_are_not_solved(self, monkeypatch):
        """A variant singular on c-perp reports cond inf and n_its = -1 without a PCG solve.

        Singular means lambda_min at or below ndofs * eps * lambda_max; at n=4
        the ghost penalty's lambda_min is round-off of either sign.
        """
        import tracefem.study as study

        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        original = study.solve_constrained
        monkeypatch.setattr(study, "solve_constrained", counting)
        cfg = StudyConfig(k=1, base_n=4, conditioning=True, shifts=(0.5,))
        _, reports = run_conditioning(cfg)
        singular = [r for r in reports if r["cond"] == float("inf")]
        assert "ghost_penalty" in [r["variant"] for r in singular]
        assert all(r["n_its"] == -1 for r in singular)
        assert len(calls) == len(reports) - len(singular)

    def test_singular_row_past_three_thousand_dofs_prints_inf(self, monkeypatch):
        """Plane k=2 n=24 (7,203 dofs), shift 0.5: full_gradient_surface is singular on c-perp, so inf and -1, not nan.

        Past 3,000 dofs the estimate once ran LOBPCG, which took this row
        to its 5,000-iteration cap and printed nan.
        """
        monkeypatch.setattr(study, "_conditioning_variants", lambda k: ["full_gradient_surface"])
        result, reports = run_conditioning(StudyConfig(k=2, base_n=24, conditioning=True, shifts=(0.5,)))
        (row,) = result.rows
        assert row[1] == "full_gradient_surface" and row[4:] == ["inf", "-1"]
        lmax, lmin = reports[0]["lambda_max"], reports[0]["lambda_min"]
        assert lmax > 0.0 and abs(lmin) <= 7203 * np.finfo(float).eps * lmax

    def test_failed_estimates_print_nan_and_are_solved(self, monkeypatch):
        """cond inf is kept for singular rows; a failed estimate, here SuperLU's "exactly singular", is nan and its row still solved."""
        import scipy.sparse.linalg

        def failing(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(scipy.sparse.linalg, "splu", failing)
        cfg = StudyConfig(k=1, base_n=4, conditioning=True, shifts=(0.5,))
        result, reports = run_conditioning(cfg)
        assert all(np.isnan(r["cond"]) for r in reports)
        assert all(row[2:5] == ["nan", "nan", "nan"] for row in result.rows)
        nv = [r for r in reports if r["variant"] == "normal_volume"]
        assert nv and all(r["n_its"] >= 0 for r in nv)

    def test_estimate_errors_carry_the_condition_tag(self, monkeypatch, tmp_path, capsys):
        """A LinAlgError of the estimate, as a non-finite S raises, ends the sweep in StageError [condition]; the CLI exits 2."""

        def failing(S, c):
            raise np.linalg.LinAlgError("S is not finite")

        monkeypatch.setattr(study, "estimate_condition", failing)
        with pytest.raises(StageError, match=r"\[condition\] S is not finite") as caught:
            run_conditioning(StudyConfig(k=1, base_n=4, conditioning=True, shifts=(0.5,)))
        assert caught.value.stage == "condition"
        code = main(["--k", "1", "--base-n", "4", "--conditioning", "--shifts", "0.5", "--out", str(tmp_path / "c")])
        assert code == 2 and "error: [condition]" in capsys.readouterr().err

    def test_solve_errors_carry_the_solve_tag(self, monkeypatch):
        def failing(*args, **kwargs):
            raise ValueError("S's diagonal must be positive")

        monkeypatch.setattr(study, "solve_constrained", failing)
        with pytest.raises(StageError, match=r"\[solve\] S's diagonal") as caught:
            run_conditioning(StudyConfig(k=1, base_n=4, conditioning=True, shifts=(0.5,)))
        assert caught.value.stage == "solve"

    def test_unstabilized_conditioning_degrades(self):
        cfg = StudyConfig(benchmark="plane", k=1, base_n=8, conditioning=True, shifts=(0.5, 1e-4))
        _, reports = run_conditioning(cfg)
        by = {(r["variant"], r["eps"]): r["cond"] for r in reports}
        assert by[("none", 1e-4)] > 100.0 * by[("normal_volume", 1e-4)]


class TestCli:
    def test_full_run_exits_zero(self, tmp_path, capsys):
        out = str(tmp_path / "cli")
        code = main(
            [
                "--benchmark",
                "torus",
                "--k",
                "1",
                "--levels",
                "1",
                "--base-n",
                "8",
                "--stab",
                "nv",
                "--out",
                out,
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert os.path.exists(os.path.join(out, "convergence.csv"))
        assert "| level |" in captured.out
        assert "wrote" in captured.out

    def test_every_registered_benchmark_runs_from_the_command_line(self, tmp_path, capsys):
        """torus-zero, a registered benchmark, is a valid --benchmark choice; its one level is solved exactly."""
        out = tmp_path / "zero"
        argv = ["--benchmark", "torus-zero", "--k", "1", "--levels", "1", "--base-n", "8", "--out", str(out)]
        assert main(argv) == 0
        assert (out / "convergence.csv").exists()

    def test_every_flag_sets_a_config_field(self):
        """The flags after --config are copied into the StudyConfig by their dests."""
        dests = set(vars(build_parser().parse_args([]))) - {"config"}
        assert dests == set(StudyConfig.__dataclass_fields__)

    def test_config_file_with_flag_overrides(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "benchmark": "torus",
                    "k": 1,
                    "levels": 2,
                    "base_n": 8,
                    "out": str(tmp_path / "from_file"),
                }
            )
        )
        out = str(tmp_path / "override")
        code = main(["--config", str(cfg_path), "--levels", "1", "--out", out])
        assert code == 0
        text = Path(out, "convergence.csv").read_text()
        echoed = json.loads(
            [l for l in text.splitlines() if l.startswith("# config:")][0].split(": ", 1)[1]
        )
        assert echoed["levels"] == 1
        assert not os.path.exists(str(tmp_path / "from_file"))

    def test_configuration_errors_exit_one(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        for argv in (
            ["--out", str(tmp_path / "file")],
            ["--k", "9"],
            ["--tol", "0"],
            ["--tol", "2"],
            ["--k", "2", "--stab", "ghost"],
            ["--conditioning", "--seed", "-1"],
            ["--rho", "custom:nan,0"],
            ["--rho", "custom:-1,0"],
            ["--conditioning", "--k", "1", "--base-n", "4", "--shifts", "0.5", "--rho", "custom:nan,0"],
            ["--conditioning", "--export-vtk", "--export-matrix"],
            ["--conditioning", "--export-matrix"],
        ):
            assert main(argv) == 1
            assert "error: [config]" in capsys.readouterr().err
        assert main(["--config", "/nonexistent/cfg.json"]) == 1
        for i, bad in enumerate(
            (
                {"base_n": "16"},
                {"levels": "2"},
                {"seed": "x"},
                {"seed": -1},
                {"base_n": 16.5},
                {"k": True},
                {"export_vtk": "no"},
                {"conditioning": 1},
                {"tol": [1]},
                {"stab": ["nv"]},
                [["k", 2]],
                {"rho": 5},
                {"rho": ["custom", "1", 0]},
                {"out": 5},
                {"out": ""},
                {"benchmark": "cube"},
                {"benchmark": ["torus"]},
            )
        ):
            path = tmp_path / f"bad{i}.json"
            path.write_text(json.dumps(bad))
            assert main(["--config", str(path)]) == 1, bad
            assert "error: [config]" in capsys.readouterr().err
        for i, shifts in enumerate(([], "0.5")):
            path = tmp_path / f"bad_shifts{i}.json"
            path.write_text(json.dumps({"conditioning": True, "shifts": shifts}))
            assert main(["--config", str(path)]) == 1, shifts
            err = capsys.readouterr().err
            assert "error: [config]" in err and "shifts" in err

    def test_pipeline_errors_exit_two_with_stage_tag(self, tmp_path, capsys):
        code = main(
            ["--benchmark", "torus", "--k", "2", "--levels", "1", "--base-n", "8", "--out", str(tmp_path / "x")]
        )
        assert code == 2
        assert "error: [mapping]" in capsys.readouterr().err
        # output that cannot be written: a directory below a file
        (tmp_path / "file").write_text("")
        small = ["--k", "1", "--levels", "1", "--base-n", "8", "--out", str(tmp_path / "file" / "sub")]
        for argv, tag in ((small, "write"), (small + ["--export-vtk"], "export"), (small + ["--export-matrix"], "export")):
            assert main(argv) == 2, argv
            assert f"error: [{tag}]" in capsys.readouterr().err

    def test_conditioning_run_writes_its_table(self, tmp_path):
        out = str(tmp_path / "cond")
        code = main(
            [
                "--k",
                "1",
                "--base-n",
                "8",
                "--conditioning",
                "--shifts",
                "0.5,0.01",
                "--out",
                out,
            ]
        )
        assert code == 0
        text = Path(out, "conditioning.csv").read_text()
        assert text.splitlines()[-1].count(",") == 5  # eps,variant,lmax,lmin,cond,n_its
        assert "ghost_penalty" in text
        # the sweep always runs on a shifted plane, whatever --benchmark says
        echoed = json.loads(
            [l for l in text.splitlines() if l.startswith("# config:")][0].split(": ", 1)[1]
        )
        assert echoed["benchmark"] == "plane"

    def test_rho_argument_parsing(self, tmp_path):
        out = str(tmp_path / "rho")
        code = main(
            [
                "--benchmark",
                "torus",
                "--k",
                "1",
                "--levels",
                "1",
                "--base-n",
                "8",
                "--stab",
                "nv",
                "--rho",
                "custom:2.0,-1.0",
                "--out",
                out,
            ]
        )
        assert code == 0
        text = Path(out, "convergence.csv").read_text()
        echoed = json.loads(
            [l for l in text.splitlines() if l.startswith("# config:")][0].split(": ", 1)[1]
        )
        assert echoed["rho"] == ["custom", 2.0, -1.0]

    def test_bad_rho_syntax_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--rho", "quadratic"])
        assert exc.value.code == 2  # argparse usage failure
        assert "custom:PRE,EXP" in capsys.readouterr().err
