import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qrf
from qrf import experiments
from qrf.cli import main
from qrf.errors import ConfigError, UnknownFigure
from qrf.experiments import (
    ExperimentConfig,
    FIGURE_PRESETS,
    _schema,
    _write_csv,
    _write_wigner_csv,
    emit_figure_data,
    figure_config,
    load_config,
    parse_config_text,
    run_experiment,
)
from qrf.wigner import WignerGrid


class TestConfigParsing:
    def test_key_value_lines(self):
        values = parse_config_text(
            """
            # a comment
            kind = classical-trajectory
            omega_a = 1.5   # trailing comment
            steps = 100
            flag = true
            name = demo
            """
        )
        assert values == {
            "kind": "classical-trajectory",
            "omega_a": 1.5,
            "steps": 100,
            "flag": True,
            "name": "demo",
        }

    def test_rejects_malformed_lines(self):
        with pytest.raises(ConfigError):
            parse_config_text("just some words\n")
        with pytest.raises(ConfigError):
            parse_config_text("key =\n")

    def test_load_config_requires_kind(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("omega_a = 1.0\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.cfg")

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            ExperimentConfig(kind="mystery", output_dir=tmp_path)


class TestFigurePresets:
    def test_every_preset_known(self):
        assert set(FIGURE_PRESETS) == {"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9"}

    def test_unknown_figure(self, tmp_path):
        with pytest.raises(UnknownFigure):
            figure_config("fig99", tmp_path)

    def test_trajectory_figure_columns(self, tmp_path):
        manifest = emit_figure_data("fig3", tmp_path)
        entry = manifest["files"][0]
        assert entry["columns"] == ["t", "x_A", "x_B", "q_B", "q_C"]
        data = np.loadtxt(tmp_path / "fig3.csv", delimiter=",", skiprows=1)
        assert data.shape == (entry["rows"], 5)
        # the switched coordinates are exact recombinations of the original ones
        assert np.max(np.abs(data[:, 3] - (data[:, 2] - data[:, 1]))) <= 1e-10
        assert np.max(np.abs(data[:, 4] + data[:, 1])) <= 1e-10

    def test_eigenstate_figure(self, tmp_path):
        manifest = emit_figure_data("fig5", tmp_path)
        names = {entry["name"] for entry in manifest["files"]}
        assert names == {"fig5_ground.csv", "fig5_excited.csv"}
        data = np.loadtxt(tmp_path / "fig5_excited.csv", delimiter=",", skiprows=1)
        # minimum of the excited Wigner function is -1/pi at the origin
        assert abs(data[:, 2].min() + 1 / math.pi) <= 1e-9

    def test_marginal_figure(self, tmp_path):
        manifest = emit_figure_data("fig8", tmp_path)
        names = {entry["name"] for entry in manifest["files"]}
        assert names == {"fig8_marginal_B.csv", "fig8_marginal_C.csv"}

    def test_presets_use_accepted_keys(self, tmp_path):
        # ExperimentConfig rejects a key its kind does not read, "name" included
        for name in FIGURE_PRESETS:
            figure_config(name, tmp_path)

    @pytest.mark.parametrize("name", ["fig3", "fig5", "fig6"])
    def test_every_value_is_its_own_17_digit_form(self, tmp_path, name):
        # %.17g round-trips a double, so re-formatting each parsed value must
        # give back the file's bytes, whatever the writer's implementation
        for entry in emit_figure_data(name, tmp_path)["files"]:
            data = (tmp_path / entry["name"]).read_bytes()
            header, *rows = data.decode().splitlines()
            lines = [header] + [",".join(f"{float(v):.17g}" for v in row.split(",")) for row in rows]
            assert ("\n".join(lines) + "\n").encode() == data


def per_value_csv(columns, rows) -> bytes:
    """Reference: the value-by-value formatting the row template replaces."""
    lines = [",".join(columns)] + [",".join(f"{v:.17g}" for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


class TestCsvWriter:
    SPECIAL = (0.0, -0.0, 5e-324, 1e300, -1.5, math.pi)
    # a small pool, so most chunks repeat their values; two NaN bit patterns
    POOL = SPECIAL + (math.nan, -math.nan, math.inf, -math.inf)

    @pytest.mark.parametrize("rows", [1, 1024, 1025, 2049])
    def test_bytes_match_per_value_formatting(self, tmp_path, rows):
        # wide exponents and signs in every column; the specials lead each column
        rng = np.random.default_rng(rows)
        columns = ["a", "b", "c", "d", "e", "f"]
        data = rng.standard_normal((len(columns), rows)) * 10.0 ** rng.integers(-300, 300, (len(columns), rows))
        for k, value in enumerate(self.SPECIAL):
            data[k, 0] = value
            data[-1 - k, -1] = value
        entry = _write_csv(tmp_path / "t.csv", columns, tuple(data))
        assert (tmp_path / "t.csv").read_bytes() == per_value_csv(columns, zip(*data))
        assert entry == {"name": "t.csv", "rows": rows, "columns": columns}

    @pytest.mark.parametrize("rows", [1, 1024, 1025, 2049])
    def test_repeated_values_match_per_value_formatting(self, tmp_path, rows):
        # the row template over 1024-row chunks must not depend on the
        # values: pool values (signed zeros, both NaN bit patterns, the
        # infinities) repeat within and across chunks, except in rows
        # 1024..2047, whose values are all distinct, and the row counts sit
        # on either side of each chunk boundary
        rng = np.random.default_rng(rows)
        columns = ["a", "b", "c", "d", "e", "f"]
        data = rng.choice(np.array(self.POOL), (len(columns), rows))
        second = data[:, 1024:2048]
        second[...] = rng.standard_normal(second.shape)
        chunks = [data[:, start : start + 1024] for start in range(0, rows, 1024)]
        if rows >= 1024:
            assert 2 * np.unique(chunks[0].view(np.int64)).size <= chunks[0].size
        if rows > 1024:
            assert np.unique(chunks[1].view(np.int64)).size == chunks[1].size
        _write_csv(tmp_path / "t.csv", columns, tuple(data))
        assert (tmp_path / "t.csv").read_bytes() == per_value_csv(columns, zip(*data))

    def test_signed_zeros_in_one_chunk(self, tmp_path):
        _write_csv(tmp_path / "t.csv", ["a", "b"], (np.zeros(4), -np.zeros(4)))
        assert (tmp_path / "t.csv").read_text() == "a,b\n" + "0,-0\n" * 4

    @pytest.mark.parametrize(
        "arrays", [(np.zeros(1025), np.zeros(1024)), (np.zeros(3),)], ids=["lengths", "count"]
    )
    def test_mismatched_columns_rejected(self, tmp_path, arrays):
        with pytest.raises(ValueError):
            _write_csv(tmp_path / "t.csv", ["a", "b"], arrays)

    @pytest.mark.parametrize("shape", [(2, 2), (40, 31)], ids=["2x2", "40x31"])
    def test_wigner_writer_matches_per_value_formatting(self, tmp_path, shape):
        # exponents from -300 to 300 everywhere; the specials lead both axes,
        # half of w comes from the pool, w holds both NaN bit patterns, and
        # its first and last rows hold the same values
        rng = np.random.default_rng(shape[0])

        def wide(*size):
            return rng.standard_normal(size) * 10.0 ** rng.integers(-300, 301, size)

        pool = np.array(self.POOL)
        x, xi, w = wide(shape[0]), wide(shape[1]), wide(*shape)
        x[: len(pool)] = pool[: shape[0]]
        xi[: len(pool)] = pool[::-1][: shape[1]]
        repeated = rng.random(shape) < 0.5
        w[repeated] = rng.choice(pool, np.count_nonzero(repeated))
        w.flat[:2] = math.nan, -math.nan
        w[-1] = w[0]
        assert np.unique(w[0, :2].view(np.int64)).size == 2
        entry = _write_wigner_csv(tmp_path / "t.csv", WignerGrid(x, xi, w))
        rows = [(x[i], xi[j], w[i, j]) for i in range(shape[0]) for j in range(shape[1])]
        assert (tmp_path / "t.csv").read_bytes() == per_value_csv(["x", "xi", "w"], rows)
        assert entry == {"name": "t.csv", "rows": w.size, "columns": ["x", "xi", "w"]}


class TestRunExperiment:
    def test_deterministic_outputs(self, tmp_path):
        first = tmp_path / "one"
        second = tmp_path / "two"
        emit_figure_data("fig4", first)
        emit_figure_data("fig4", second)
        assert (first / "fig4.csv").read_bytes() == (second / "fig4.csv").read_bytes()
        m1 = json.loads((first / "manifest.json").read_text())
        m2 = json.loads((second / "manifest.json").read_text())
        m1.pop("wall_time_s")
        m2.pop("wall_time_s")
        assert m1 == m2

    def test_manifest_schema_matches_files(self, tmp_path):
        manifest = emit_figure_data("fig5", tmp_path)
        assert manifest["version"]
        for entry in manifest["files"]:
            lines = (tmp_path / entry["name"]).read_text().splitlines()
            assert lines[0].split(",") == entry["columns"]
            assert len(lines) - 1 == entry["rows"]
            assert len(entry["sha256"]) == 64

    def test_custom_config_run(self, tmp_path):
        config_path = tmp_path / "experiment.cfg"
        config_path.write_text(
            "kind = classical-trajectory\n"
            "a0 = 1.0\nb0 = 1.0\nomega_a = 1.0\nomega_b = 1.0\n"
            "t_final = 2.0\ndt = 0.01\n"
            f"output_dir = {tmp_path / 'out'}\n"
        )
        manifest = run_experiment(load_config(config_path))
        assert (tmp_path / "out" / "trajectory.csv").exists()
        assert manifest["kind"] == "classical-trajectory"

    def test_missing_parameter_raises(self, tmp_path):
        config = ExperimentConfig(
            kind="classical-trajectory", parameters={"a0": 1.0}, output_dir=tmp_path
        )
        with pytest.raises(ConfigError):
            run_experiment(config)

    def test_invariant_suite_report(self, tmp_path):
        config = ExperimentConfig(kind="invariant-suite", output_dir=tmp_path, seed=5)
        manifest = run_experiment(config)
        assert manifest["all_passed"] is True
        report = json.loads((tmp_path / "suite_report.json").read_text())
        assert report["all_passed"] is True
        assert all("value" in entry for entry in report["results"].values())


MARGINALS = (
    "kind = wigner-study\nmode = marginals\nlevel_a = {level_a}\nlevel_b = {level_b}\n"
    "alpha_a = 1\nalpha_b = 1\n"
)


def trajectory_config(**values) -> str:
    """A valid classical-trajectory config body with some values replaced."""
    values = {"omega_a": "1", "omega_b": "1", "a0": "1", "b0": "1", **values}
    return "kind = classical-trajectory\n" + "".join(f"{k} = {v}\n" for k, v in values.items())


class TestCommandLine:
    def test_figure_command(self, tmp_path, capsys):
        code = main(["figure", "fig3", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "fig3.csv").exists()
        assert "fig3.csv" in capsys.readouterr().err

    def test_unknown_figure_exits_2(self, tmp_path, capsys):
        assert main(["figure", "fig99", "--out", str(tmp_path)]) == 2
        assert "fig99" in capsys.readouterr().err

    def test_bad_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("kind = wigner-study\n")  # missing mode
        assert main(["run", str(path)]) == 2

    @pytest.mark.parametrize(
        "body",
        [
            "kind = classical-trajectory\nomega_a = 1\nomega_b = 1\na0 = 1\nb0 = 1\nt_final = nan\n",
            "kind = invariant-suite\ngrid_n = 100\n",
            "kind = wigner-study\nmode = marginals\nlevel_a = 2\nlevel_b = 0\n"
            "alpha_a = 1\nalpha_b = 1\n",
            "kind = wigner-study\nmode = eigenstates\npoints = 1\n",
            "kind = classical-trajectory\nomega_a = 1\nomega_b = 1\na0 = 1\nb0 = 1\nm_c = -1.0\n",
            "kind = wigner-study\nmode = marginals\nlevel_a = 0\nlevel_b = 0\n"
            "alpha_a = nan\nalpha_b = 1\n",
            "kind = wigner-study\nmode = eigenstates\nalpha = nan\n",
            trajectory_config(omega_a="nan"),
            trajectory_config(a0="nan"),
            trajectory_config(b0="inf"),
            trajectory_config(phi_a="nan"),
            trajectory_config(m_a="nan"),
            "kind = invariant-suite\ngrid_length = nan\n",
            "kind = invariant-suite\ngrid_length = inf\n",
            "kind = wigner-study\nmode = eigenstates\nhalf_width = nan\n",
            trajectory_config(t_final="1e300", dt="1e-300"),
            trajectory_config(t_final="1e4", dt="1e-5"),
            # integer keys: a fraction or a boolean is rejected, not truncated
            MARGINALS.format(level_a="0.9", level_b="0"),
            MARGINALS.format(level_a="0", level_b="true"),
            "kind = wigner-study\nmode = eigenstates\npoints = 41.5\n",
            "kind = wigner-study\nmode = eigenstates\npoints = true\n",
            "kind = invariant-suite\ngrid_n = 16.5\n",
            "kind = invariant-suite\ngrid_n = true\n",
            "kind = invariant-suite\nseed = -2\n",
            "kind = invariant-suite\nseed = true\n",
            # a key no runner reads, such as a misspelt dt
            trajectory_config(dtt="0.5"),
            "kind = wigner-study\nmode = eigenstates\nhalfwidth = 3\n",
            "kind = invariant-suite\ngrid = 64\n",
            # a key of the other wigner-study mode: each mode reads only its own
            MARGINALS.format(level_a="0", level_b="0") + "alpha = 2\n",
            MARGINALS.format(level_a="0", level_b="0") + "half_width = 3\n",
            "kind = wigner-study\nmode = eigenstates\nlevel_a = 1\n",
            "kind = wigner-study\nmode = eigenstates\nalpha_a = 1\n",
            "kind = wigner-study\nmode = spectra\n",
            # a float key takes no boolean, as an integer key takes none
            trajectory_config(a0="true"),
            trajectory_config(t_final="true"),
            MARGINALS.replace("alpha_a = 1", "alpha_a = true").format(level_a="0", level_b="0"),
            "kind = invariant-suite\ngrid_length = true\n",
            # name is the stem of the output files, not a path
            trajectory_config(name="sub/x"),
            trajectory_config(name=".."),
            # omega_a ** 2 overflows the float range
            trajectory_config(omega_a="1e300"),
            # a +-6e154 position (1e-308) or momentum (1e308) marginal window
            # overflows when squared; it used to exit 3 on a NaN node gap
            MARGINALS.replace("alpha_a = 1", "alpha_a = 1e-308").format(level_a="1", level_b="1"),
            MARGINALS.replace("alpha_a = 1", "alpha_a = 1e308").format(level_a="1", level_b="1"),
            # sizes whose n^2 arrays would not fit in memory
            "kind = invariant-suite\ngrid_n = 1048576\n",
            "kind = wigner-study\nmode = eigenstates\npoints = 1000000\n",
        ],
        ids=[
            "t_final-nan", "grid_n-100", "level_a-2", "points-1", "m_c-negative",
            "alpha_a-nan", "alpha-nan", "omega_a-nan", "a0-nan", "b0-inf", "phi_a-nan",
            "m_a-nan", "grid_length-nan", "grid_length-inf", "half_width-nan",
            "rows-overflow", "rows-over-cap", "level_a-fraction", "level_b-bool",
            "points-fraction", "points-bool", "grid_n-fraction", "grid_n-bool",
            "seed-negative", "seed-bool", "dtt-unknown", "halfwidth-unknown",
            "grid-unknown", "marginals-alpha", "marginals-half_width",
            "eigenstates-level_a", "eigenstates-alpha_a", "mode-unknown",
            "a0-bool", "t_final-bool", "alpha_a-bool", "grid_length-bool",
            "name-slash", "name-dotdot", "omega_a-overflow",
            "alpha_a-tiny-overflow", "alpha_a-huge-overflow",
            "grid_n-over-cap", "points-over-cap",
        ],
    )
    def test_invalid_config_value_exits_2(self, tmp_path, capsys, body):
        path = tmp_path / "bad.cfg"
        path.write_text(body + f"output_dir = {tmp_path / 'new' / 'out'}\n")
        assert main(["run", str(path)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("qrf: ")
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize(
        "values, keys",
        [
            ({"omega_a": "1e200"}, ("omega_a", "m_a")),  # the square overflows
            ({"omega_a": "1e10", "m_a": "1e300"}, ("omega_a", "m_a")),  # the product does
            ({"omega_b": "1e-200"}, ("omega_b", "m_b")),  # the square underflows to 0
        ],
        ids=["omega_a-square", "m_a-product", "omega_b-underflow"],
    )
    def test_spring_constant_error_names_its_keys(self, tmp_path, capsys, values, keys):
        path = tmp_path / "spring.cfg"
        path.write_text(trajectory_config(**values) + f"output_dir = {tmp_path / 'out'}\n")
        assert main(["run", str(path)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and all(key in lines[0] for key in keys)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("t_final, code", [("0.104", 0), ("0.116", 2)])
    def test_row_cap_counts_the_rounded_steps(self, tmp_path, capsys, monkeypatch, t_final, code):
        # t_final / dt = 10.4 rounds to 10 steps, 11 rows, within a cap of 11;
        # 11.6 rounds to 12 steps, 13 rows
        monkeypatch.setattr(experiments, "MAX_TRAJECTORY_ROWS", 11)
        path = tmp_path / "cap.cfg"
        path.write_text(trajectory_config(t_final=t_final, dt="0.01") + f"output_dir = {tmp_path / 'out'}\n")
        assert main(["run", str(path)]) == code
        if code == 0:
            rows = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()[1:]
            assert len(rows) == 11
        else:
            assert not (tmp_path / "out").exists()

    def test_too_coarse_suite_grid_exits_2_before_any_random_draw(
        self, tmp_path, capsys, monkeypatch
    ):
        # at about 1e5 per sample the first excited state is zero on every
        # grid point; the suite must say so before any of its O(n^2) draws
        draws = []
        draw = experiments.random_wavefunction

        def counted(*args, **kwargs):
            draws.append(args)
            return draw(*args, **kwargs)

        monkeypatch.setattr(experiments, "random_wavefunction", counted)
        path = tmp_path / "coarse.cfg"
        path.write_text(
            "kind = invariant-suite\ngrid_n = 1024\ngrid_length = 1e8\n"
            f"output_dir = {tmp_path / 'out'}\n"
        )
        assert main(["run", str(path)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and "cannot normalize the zero state" in lines[0]
        assert not (tmp_path / "out").exists()
        assert len(draws) == 0

    def test_size_caps_are_inclusive(self):
        cap = experiments.MAX_AXIS_POINTS
        for kind, key, extra in [
            ("invariant-suite", "grid_n", {}),
            ("wigner-study", "points", {"mode": "eigenstates"}),
        ]:
            assert ExperimentConfig(kind, {key: cap, **extra}).values()[key] == cap
            with pytest.raises(ConfigError, match=f"at most {cap}"):
                ExperimentConfig(kind, {key: cap + 1, **extra}).values()

    def test_overflow_exits_2_with_one_line_and_no_warning(self, tmp_path, capsys):
        # x**2 overflows on a +-1e300 window; numpy would warn before the
        # normalization check failed
        path = tmp_path / "wide.cfg"
        path.write_text(
            "kind = wigner-study\nmode = eigenstates\nhalf_width = 1e300\n"
            f"output_dir = {tmp_path / 'out'}\n"
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", str(path)])
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("qrf: ")
        assert [str(w.message) for w in caught] == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["figure", "run"])
    def test_output_path_through_a_file_exits_2(self, tmp_path, capsys, command):
        blocker = tmp_path / "file"
        blocker.write_text("kept\n")
        if command == "figure":
            argv = ["figure", "fig5", "--out", str(blocker)]
        else:
            path = tmp_path / "study.cfg"
            path.write_text(
                "kind = wigner-study\nmode = eigenstates\npoints = 41\n"
                f"output_dir = {blocker / 'out'}\n"
            )
            argv = ["run", str(path)]
        assert main(argv) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("qrf: ") and str(blocker) in lines[0]
        assert blocker.read_text() == "kept\n"

    @pytest.mark.parametrize("error", [1e-9, math.nan], ids=["offset", "nan"])
    def test_unconverged_marginal_exits_3(self, tmp_path, capsys, monkeypatch, error):
        real = experiments.marginal_wigner

        def perturbed(joint, keep, x, xi, quad_points=3):
            grid = real(joint, keep, x, xi, quad_points=quad_points)
            if quad_points != 5:
                return grid
            return WignerGrid(grid.x, grid.xi, grid.values + error)

        monkeypatch.setattr(experiments, "marginal_wigner", perturbed)
        out = tmp_path / "out"
        path = tmp_path / "study.cfg"
        path.write_text(
            "kind = wigner-study\nmode = marginals\nlevel_a = 1\nlevel_b = 1\n"
            f"alpha_a = 1\nalpha_b = 1\npoints = 21\noutput_dir = {out}\n"
        )
        assert main(["run", str(path)]) == 3
        assert "not converged" in capsys.readouterr().err
        assert not out.exists()

    def test_unconverged_keep_c_writes_no_file(self, tmp_path, capsys, monkeypatch):
        # keep B passes both gates; every grid is gated before any is written,
        # so keep C's failure leaves no marginal_B.csv without a manifest
        real = experiments.marginal_wigner

        def perturbed(joint, keep, x, xi, quad_points=3):
            grid = real(joint, keep, x, xi, quad_points=quad_points)
            if quad_points != 5 or keep != "C":
                return grid
            return WignerGrid(grid.x, grid.xi, grid.values + 1e-9)

        monkeypatch.setattr(experiments, "marginal_wigner", perturbed)
        out = tmp_path / "out"
        path = tmp_path / "study.cfg"
        path.write_text(
            "kind = wigner-study\nmode = marginals\nlevel_a = 1\nlevel_b = 1\n"
            f"alpha_a = 1\nalpha_b = 1\npoints = 21\noutput_dir = {out}\n"
        )
        assert main(["run", str(path)]) == 3
        assert "marginal C quadrature not converged" in capsys.readouterr().err
        assert not out.exists()

    def test_unnormalized_excited_grid_writes_no_file(self, tmp_path, capsys, monkeypatch):
        # the ground grid passes; the excited one fails after it, before any write
        real = experiments.closed_form_eigenstate_wigner

        def perturbed(level, alpha, x=None, xi=None):
            grid = real(level, alpha, x, xi)
            return grid if level == 0 else WignerGrid(grid.x, grid.xi, 2.0 * grid.values)

        monkeypatch.setattr(experiments, "closed_form_eigenstate_wigner", perturbed)
        out = tmp_path / "out"
        path = tmp_path / "study.cfg"
        path.write_text(f"kind = wigner-study\nmode = eigenstates\npoints = 41\noutput_dir = {out}\n")
        assert main(["run", str(path)]) == 3
        assert "wigner_excited.csv: Wigner normalization off" in capsys.readouterr().err
        assert not out.exists()

    def test_huge_normalization_error_prints_in_exponent_form(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = tmp_path / "study.cfg"
        path.write_text(
            "kind = wigner-study\nmode = marginals\nlevel_a = 0\nlevel_b = 0\n"
            f"alpha_a = 1e300\nalpha_b = 1\noutput_dir = {out}\n"
        )
        assert main(["run", str(path)]) == 3
        err = capsys.readouterr().err
        assert re.search(r"Wigner normalization off: \d\.\d{6}e\+\d+$", err.strip())
        assert not out.exists()

    def test_negative_suite_seed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["suite", "--seed", "-1", "--out", str(out)]) == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    def test_suite_command(self, tmp_path):
        assert main(["suite", "--seed", "2", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "suite_report.json").exists()

    def test_run_command(self, tmp_path):
        config_path = tmp_path / "experiment.cfg"
        config_path.write_text(
            "kind = wigner-study\nmode = eigenstates\nalpha = 1.0\n"
            "points = 41\nhalf_width = 5.0\n"
            f"output_dir = {tmp_path}\n"
        )
        assert main(["run", str(config_path)]) == 0
        assert (tmp_path / "wigner_ground.csv").exists()


# Small valid configs the fuzzer edits: every run they lead to writes few rows
# and points, so that the fuzzer's 200 runs take a few seconds.
FUZZ_BASES = (
    {
        "kind": "classical-trajectory",
        "a0": 1, "b0": 1, "omega_a": 1, "omega_b": 1, "t_final": 1, "dt": 0.1,
    },
    {"kind": "wigner-study", "mode": "eigenstates", "points": 5},
    {
        "kind": "wigner-study", "mode": "marginals",
        "level_a": 0, "level_b": 1, "alpha_a": 1, "alpha_b": 1, "points": 5,
    },
    {"kind": "invariant-suite", "grid_n": 16},
)
# keys no kind takes: misspelt, or foreign to a kind or a mode
FUZZ_STRAY_KEYS = ("dtt", "halfwidth", "grid", "Name", "alpha", "level_a", "t_final", "grid_n")
# by key type: valid, out-of-range, non-finite, boolean and string values, and
# None for a key left out; 1e300 and 1e-300 also overflow t_final / dt
FUZZ_VALUES = {
    float: (None, 0.5, 2.5, 0, -1, 1e300, 1e-300, "nan", "inf", "-inf", "true", "x"),
    int: (None, 0, 1, 3, 16, -1, 2.5, "nan", "true", "x"),
    str: (None, "x", "sub/x", "..", "a\\b", 7, "false"),
    dict: (None, "eigenstates", "marginals", "spectra", 1, "true"),
}


def fuzz_keys(config: dict) -> dict:
    """Each key the config's kind and mode take, with the pool of its values."""
    keys = _schema(config["kind"], {k: v for k, v in config.items() if k != "kind"})
    pools = {
        key: FUZZ_VALUES[dict if isinstance(rule.type, dict) else rule.type]
        for key, rule in keys.items()
    }
    return pools | {"seed": FUZZ_VALUES[int]}


@st.composite
def fuzz_configs(draw):
    config = dict(draw(st.sampled_from(FUZZ_BASES)))
    pools = fuzz_keys(config)
    edited = draw(st.lists(st.sampled_from(sorted(pools)), min_size=1, max_size=2, unique=True))
    for key in edited:
        config[key] = draw(st.sampled_from(pools[key]))
    if draw(st.integers(0, 3)) == 0:
        config[draw(st.sampled_from(FUZZ_STRAY_KEYS))] = draw(st.sampled_from(FUZZ_VALUES[float]))
    return "".join(f"{k} = {v}\n" for k, v in config.items() if v is not None)


@settings(
    max_examples=200, derandomize=True, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(body=fuzz_configs())
def test_fuzzed_config_exits_0_2_or_3(tmp_path, capsys, body):
    run = Path(tempfile.mkdtemp(dir=tmp_path))
    (run / "fuzz.cfg").write_text(body + f"output_dir = {run / 'out'}\n")
    capsys.readouterr()
    code = main(["run", str(run / "fuzz.cfg")])
    assert code in (0, 2, 3), body
    if code:
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("qrf: "), (body, lines)
    if code == 2:
        assert not (run / "out").exists(), body


def test_suite_report_does_not_depend_on_the_blas_thread_count(tmp_path):
    # at 128^2, np.vdot's sum split across OpenBLAS threads and moved three values
    reports = []
    for threads in ("1", "2"):
        config = tmp_path / f"threads{threads}.cfg"
        out = tmp_path / f"out{threads}"
        config.write_text(f"kind = invariant-suite\ngrid_n = 128\ngrid_length = 24\noutput_dir = {out}\n")
        env = dict(
            os.environ,
            PYTHONPATH=str(Path(qrf.__file__).parents[1]),
            OPENBLAS_NUM_THREADS=threads,
            OMP_NUM_THREADS=threads,
        )
        subprocess.run([sys.executable, "-m", "qrf.cli", "run", str(config)], env=env, check=True, capture_output=True)
        reports.append((out / "suite_report.json").read_bytes())
    assert reports[0] == reports[1]
