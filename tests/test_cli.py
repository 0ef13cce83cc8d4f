import json
import math

import numpy as np
import pytest

from qrf import experiments
from qrf.cli import main
from qrf.errors import ConfigError, UnknownFigure
from qrf.experiments import (
    ExperimentConfig,
    FIGURE_PRESETS,
    _wigner_csv_columns,
    _write_csv,
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
        # pool values everywhere but the second chunk, whose values are all
        # distinct: a file of 1025 rows or more writes chunks of both kinds
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

    def test_wigner_columns_are_x_major(self):
        grid = WignerGrid(np.arange(3.0), np.arange(4.0) / 8, np.arange(12.0).reshape(3, 4) ** 2)
        rows = [(x, xi, grid.values[i, j]) for i, x in enumerate(grid.x) for j, xi in enumerate(grid.xi)]
        assert list(zip(*(c.tolist() for c in _wigner_csv_columns(grid)))) == rows


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
        ],
        ids=[
            "t_final-nan", "grid_n-100", "level_a-2", "points-1", "m_c-negative",
            "alpha_a-nan", "alpha-nan", "omega_a-nan", "a0-nan", "b0-inf", "phi_a-nan",
            "m_a-nan", "grid_length-nan", "grid_length-inf", "half_width-nan",
            "rows-overflow", "rows-over-cap", "level_a-fraction", "level_b-bool",
            "points-fraction", "points-bool", "grid_n-fraction", "grid_n-bool",
            "seed-negative", "seed-bool", "dtt-unknown", "halfwidth-unknown",
            "grid-unknown",
        ],
    )
    def test_invalid_config_value_exits_2(self, tmp_path, capsys, body):
        path = tmp_path / "bad.cfg"
        path.write_text(body + f"output_dir = {tmp_path / 'new' / 'out'}\n")
        assert main(["run", str(path)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("qrf: ")
        assert not (tmp_path / "new").exists()

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
