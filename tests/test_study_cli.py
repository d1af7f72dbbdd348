"""Study harness determinism, file outputs, and command-line behaviour."""

import json
import os
from pathlib import Path

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

    def test_failed_estimates_print_nan_and_are_solved(self, monkeypatch):
        """cond inf is kept for singular rows; a failed estimate is nan and its row still solved."""
        import tracefem.study as study

        def failing(S, c):
            raise study.EigenEstimateError("no estimate")

        monkeypatch.setattr(study, "estimate_condition", failing)
        cfg = StudyConfig(k=1, base_n=4, conditioning=True, shifts=(0.5,))
        result, reports = run_conditioning(cfg)
        assert all(np.isnan(r["cond"]) for r in reports)
        assert all(row[2:5] == ["nan", "nan", "nan"] for row in result.rows)
        nv = [r for r in reports if r["variant"] == "normal_volume"]
        assert nv and all(r["n_its"] >= 0 for r in nv)

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
        text = Path(out, "convergence.csv").read_text()
        echoed = json.loads(
            [l for l in text.splitlines() if l.startswith("# config:")][0].split(": ", 1)[1]
        )
        assert echoed["levels"] == 1
        assert not os.path.exists(str(tmp_path / "from_file"))

    def test_configuration_errors_exit_one(self, tmp_path, capsys):
        for argv in (
            ["--k", "9"],
            ["--tol", "0"],
            ["--tol", "2"],
            ["--k", "2", "--stab", "ghost"],
            ["--conditioning", "--seed", "-1"],
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
