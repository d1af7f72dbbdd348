"""Study harness determinism, file outputs, and command-line behaviour."""

import json
import os

import numpy as np
import pytest

from tracefem.cli import main
from tracefem.study import (
    StageError,
    StudyConfig,
    run_conditioning,
    run_convergence,
    run_study,
)


def small_config(**kw):
    base = dict(benchmark="torus", k=1, levels=2, base_n=8, stab="nv", tol=1e-9)
    base.update(kw)
    return StudyConfig(**base)


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

    def test_csv_output_is_reproducible(self, tmp_path):
        cfg = small_config(out=str(tmp_path / "a"))
        result, _, paths, _ = run_study(cfg)
        text_a = open(paths[0]).read()
        cfg_b = small_config(out=str(tmp_path / "a"))
        result_b, _, paths_b, _ = run_study(cfg_b)
        assert open(paths_b[0]).read() == text_a
        assert "# config:" in text_a
        assert "# rho_s per level:" in text_a

    def test_csv_echoes_the_configuration(self, tmp_path):
        cfg = small_config(out=str(tmp_path / "out"), rho="h_inv")
        result, _, paths, _ = run_study(cfg)
        header = [l for l in open(paths[0]) if l.startswith("# config:")][0]
        echoed = json.loads(header.split("# config:", 1)[1])
        assert echoed["benchmark"] == "torus"
        assert echoed["rho"] == "h_inv"
        assert echoed["backend_active"] in ("python", "cython")

    def test_pipeline_failures_carry_the_stage_tag(self):
        with pytest.raises(StageError, match=r"\[mapping\]"):
            run_convergence(StudyConfig(benchmark="torus", k=2, levels=1, base_n=8))
        with pytest.raises(StageError, match=r"\[config\]"):
            run_convergence(small_config(benchmark="moebius"))

    def test_vtk_and_matrix_exports_written(self, tmp_path):
        out = str(tmp_path / "exp")
        cfg = small_config(levels=1, out=out, export_vtk=True, export_matrix=True)
        run_study(cfg)
        names = set(os.listdir(out))
        assert {
            "active_mesh_l0.vtk",
            "interface_lin_l0.vtk",
            "interface_lifted_l0.vtk",
            "system_l0.mtx",
            "constraint_l0.mtx",
            "convergence.csv",
            "convergence.md",
        } <= names

    def test_markdown_table_shape(self):
        result, _ = run_convergence(small_config(levels=1))
        md = result.markdown_text()
        lines = md.strip().splitlines()
        assert lines[0].startswith("| level | n | h |")
        assert set(lines[1].replace("|", "").strip()) <= {"-", " "}
        assert len(lines) == 3


class TestConditioningStudy:
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
        cfg = StudyConfig(benchmark="plane", k=2, base_n=8, conditioning=True, shifts=(0.5,))
        _, reports = run_conditioning(cfg)
        assert "ghost_penalty" not in {r["variant"] for r in reports}

    def test_stabilized_conditioning_is_shift_robust(self):
        cfg = StudyConfig(benchmark="plane", k=1, base_n=8, conditioning=True, shifts=(0.5, 1e-4))
        _, reports = run_conditioning(cfg)
        nv = {r["eps"]: r["cond"] for r in reports if r["variant"] == "normal_volume"}
        assert max(nv.values()) / min(nv.values()) < 10.0

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
        text = open(os.path.join(out, "convergence.csv")).read()
        echoed = json.loads(
            [l for l in text.splitlines() if l.startswith("# config:")][0].split(": ", 1)[1]
        )
        assert echoed["levels"] == 1
        assert not os.path.exists(str(tmp_path / "from_file"))

    def test_configuration_errors_exit_one(self, capsys):
        assert main(["--k", "9"]) == 1
        assert "error: [config]" in capsys.readouterr().err
        assert main(["--config", "/nonexistent/cfg.json"]) == 1

    def test_pipeline_errors_exit_two_with_stage_tag(self, tmp_path, capsys):
        code = main(
            ["--benchmark", "torus", "--k", "2", "--levels", "1", "--base-n", "8", "--out", str(tmp_path / "x")]
        )
        assert code == 2
        assert "error: [mapping]" in capsys.readouterr().err

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
        text = open(os.path.join(out, "conditioning.csv")).read()
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
        text = open(os.path.join(out, "convergence.csv")).read()
        echoed = json.loads(
            [l for l in text.splitlines() if l.startswith("# config:")][0].split(": ", 1)[1]
        )
        assert echoed["rho"] == ["custom", 2.0, -1.0]

    def test_bad_rho_syntax_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--rho", "quadratic"])
        assert exc.value.code == 2  # argparse usage failure
        assert "custom:PRE,EXP" in capsys.readouterr().err
