"""End-to-end tests of the batch front end through main()."""

import contextlib
import dataclasses
import io
import json
import math
import multiprocessing
import os
import subprocess
import sys
import unittest.mock
import warnings
import xml.dom.minidom
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ratecost
from ratecost import bounds, cli, quantizer, riccati, simloop
from ratecost.riccati import solve_control, solve_plant
from ratecost.sysmodel import FAMILIES, NoiseModel
from ratecost.cli import (CSV_COLUMNS, ConfigError, config_from_dict,
                          load_config, main)

BMIN_FULL = 4.23606797749979
FULL_AT_BMIN_PLUS_1 = 1.4370140156042802


def base_config(**over):
    cfg = {
        "plant": {
            "a": [[2.0]], "b": [[1.0]], "q": [[1.0]], "r": [[1.0]],
            "noise_v": {"family": "gaussian", "covariance": [[1.0]]},
        },
        "horizon": 6_000,
        "seed": 3,
    }
    cfg.update(over)
    return cfg


def write_config(tmp_path, name="cfg.json", **over):
    path = tmp_path / name
    path.write_text(json.dumps(base_config(**over)))
    return str(path)


def read_rows(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestConfigParsing:
    def test_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert cfg.plant.fully_observed
        assert cfg.bounds == ("full", "upper")
        assert cfg.horizon == 6_000
        assert cfg.distortion is None

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            config_from_dict(base_config(horizonn=10))
        # the infimum's term count is a constant, no longer a setting
        with pytest.raises(ConfigError, match=r"keys: \['i_max'\]"):
            config_from_dict(base_config(i_max=64))

    def test_unknown_plant_key_rejected(self):
        raw = base_config()
        raw["plant"]["noise"] = {}
        with pytest.raises(ConfigError, match="unknown plant keys"):
            config_from_dict(raw)

    def test_missing_plant_matrix(self):
        raw = base_config()
        del raw["plant"]["q"]
        with pytest.raises(ConfigError, match="plant.q is required"):
            config_from_dict(raw)

    def test_bad_noise_family(self):
        raw = base_config()
        raw["plant"]["noise_v"]["family"] = "cauchy"
        with pytest.raises(ConfigError, match="family"):
            config_from_dict(raw)

    def test_grid_must_increase(self):
        with pytest.raises(ConfigError, match="strictly increasing"):
            config_from_dict(base_config(b_grid=[5.0, 5.0, 6.0]))

    def test_unknown_bound_kind(self):
        with pytest.raises(ConfigError, match="unknown bound kind"):
            config_from_dict(base_config(bounds=["tight"]))

    def test_full_mode_needs_full_observation(self):
        raw = base_config(mode="fully_observed")
        raw["plant"]["noise_w"] = {"family": "gaussian", "covariance": [[1.0]]}
        with pytest.raises(ConfigError, match="fully_observed"):
            config_from_dict(raw)

    def test_distortion_positive(self):
        with pytest.raises(ConfigError, match="positive"):
            config_from_dict(base_config(distortion=0.0))

    def test_something_must_be_requested(self):
        with pytest.raises(ConfigError, match="neither bounds nor"):
            config_from_dict(base_config(bounds=[]))

    def test_partial_defaults(self, tmp_path):
        raw = base_config()
        raw["plant"]["noise_w"] = {"family": "gaussian", "covariance": [[1.0]]}
        cfg = config_from_dict(raw)
        assert not cfg.plant.fully_observed
        assert cfg.bounds == ("partial", "upper")
        # "mode" is optional, and may restate what the plant says
        restated = config_from_dict(dict(raw, mode="partially_observed"))
        assert restated.bounds == cfg.bounds

    def test_partial_kind_needs_partial_plant(self):
        with pytest.raises(ConfigError, match="partially observed plant"):
            config_from_dict(base_config(bounds=["partial_lowrank"]))

    def test_integral_float_reads_as_int(self):
        cfg = config_from_dict(base_config(horizon=1e5, burn_in=2e3, seed=7.0))
        assert (cfg.horizon, cfg.burn_in, cfg.seed) == (100_000, 2000, 7)
        assert all(type(v) is int for v in (cfg.horizon, cfg.burn_in, cfg.seed))


# Config numbers the reader refuses: (key named in the message, command,
# config overrides, plant overrides).  "1e400" stands for the JSON literal,
# which Python reads as inf; json.dumps writes NaN and Infinity literals.
# Each once raised a raw OverflowError, exited 2 naming no key or naming it
# twice, ran 100,000 Riccati iterations, dropped a fraction, or printed NaN
# rows with exit 0.
NAN, INF = math.nan, math.inf
BAD_NUMBERS = {
    **{f"{key}_{name}": (key, "simulate", {key: value}, {})
       for key, fraction in (("horizon", 6000.5), ("burn_in", 100.5),
                             ("seed", 2.7))
       for name, value in (("1e400", "1e400"), ("inf", INF), ("nan", NAN),
                           ("fraction", fraction))},
    **{f"distortion_{name}": ("distortion", "simulate",
                              {"distortion": value}, {})
       for name, value in (("nan", NAN), ("inf", INF))},
    **{f"b_grid_{name}": ("b_grid", "bound", {"b_grid": [6.0, value]}, {})
       for name, value in (("nan", NAN), ("inf", INF))},
    "d_grid_nan": ("d_grid", "sweep",
                   {"d_grid": [1.0, 2.0, NAN, 4.0, 5.0, 6.0, 7.0, 8.0]}, {}),
    **{f"plant_{key}_{name}": (f"plant.{key}", "validate", {},
                               {key: [[value]]})
       for key in ("a", "q") for name, value in (("nan", NAN), ("inf", INF))},
    "covariance_nan": ("plant.noise_v.covariance", "validate", {},
                       {"noise_v": {"family": "gaussian",
                                    "covariance": [[NAN]]}}),
    "covariance_not_nested": ("plant.noise_v.covariance", "validate", {},
                              {"noise_v": {"family": "gaussian",
                                           "covariance": 1.0}}),
}


@pytest.mark.parametrize("probe", sorted(BAD_NUMBERS))
def test_bad_config_numbers_are_refused(tmp_path, capsys, probe):
    key, command, over, plant = BAD_NUMBERS[probe]
    raw = base_config(**{"distortion": 1.0, "b_grid": [6.0, 20.0],
                         "d_grid": TestSweepCommand.GRID, **over})
    raw["plant"].update(plant)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw).replace('"1e400"', "1e400"))
    assert main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key} ")
    assert len(err.splitlines()) == 1
    assert err.count(key) == 1


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_negative_seed_is_refused_naming_the_key(tmp_path, capsys, command):
    # numpy's SeedSequence once refused it inside the run, naming no key
    over = dict(distortion=2.0, d_grid=TestSweepCommand.GRID, horizon=3000)
    negative = write_config(tmp_path, "negative.json", seed=-1, **over)
    assert main([command, "--config", negative]) == 2
    assert capsys.readouterr().err == (
        "config error: seed must be nonnegative, got -1\n")

    zero = write_config(tmp_path, "zero.json", seed=0, **over)
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", zero, "--seed", "-1"])
    assert exc.value.code == 2
    # argparse prints its usage, then the one error line
    errors = [line for line in capsys.readouterr().err.splitlines()
              if "error:" in line]
    assert errors == [f"ratecost {command}: error: argument --seed: seed "
                      "must be a nonnegative integer, got -1"]

    assert main([command, "--config", zero]) == 0
    assert main([command, "--config", zero, "--seed", "0"]) == 0


@pytest.mark.parametrize("command", ["simulate", "sweep", "decompose"])
def test_oversized_horizon_is_refused_before_sampling(tmp_path, capsys,
                                                      monkeypatch, command):
    # 1e13 steps once asked the sampler for 72.8 TiB: a raw MemoryError
    def no_sampling(*args, **kwargs):
        raise MemoryError("the sampler was reached")

    monkeypatch.setattr(NoiseModel, "sample", no_sampling)
    over = dict(distortion=2.0, d_grid=TestSweepCommand.GRID, horizon=1e13)
    assert main([command, "--config", write_config(tmp_path, **over)]) == 2
    assert capsys.readouterr().err == (
        "config error: horizon must be at most 100000000 for an n = 1 "
        "plant, got 10000000000000\n")

    # horizon x n is capped: the shipped configs and 10^8 scalar steps
    # pass, and an n = 2 plant may take half of that
    assert config_from_dict(base_config(horizon=10**8)).horizon == 10**8
    two = {"a": np.eye(2).tolist(), "b": np.eye(2).tolist(),
           "q": np.eye(2).tolist(), "r": np.eye(2).tolist(),
           "noise_v": {"family": "gaussian", "covariance": np.eye(2).tolist()}}
    assert config_from_dict(base_config(plant=two, horizon=5 * 10**7))
    with pytest.raises(ConfigError, match="at most 50000000 for an n = 2"):
        config_from_dict(base_config(plant=two, horizon=5 * 10**7 + 1))
    configs = Path(__file__).parent.parent / "configs"
    assert load_config(str(configs / "laplace_scalar.json")).horizon == 10**6
    assert load_config(str(configs / "partial_scalar.json"))


class TestBoundCommand:
    def test_oracle_asymptote_and_infeasible_rows(self, tmp_path, capsys):
        path = write_config(tmp_path, b_grid=[4.0, BMIN_FULL + 1.0, 1e6])
        code = main(["bound", "--config", path, "--out", str(tmp_path)])
        assert code == 0
        rows = read_rows(tmp_path / "bound.csv")
        by_b = {(r["b"], r["bound"]): r for r in rows}
        oracle = by_b[(f"{BMIN_FULL + 1.0:.12g}", "full")]
        assert math.isclose(float(oracle["nats"]), FULL_AT_BMIN_PLUS_1,
                            abs_tol=1e-6)
        asym = by_b[("1000000", "full")]
        assert math.isclose(float(asym["nats"]), math.log(2.0), abs_tol=1e-3)
        infeasible = by_b[("4", "full")]
        assert infeasible["nats"] == "nan"
        assert infeasible["note"].startswith("infeasible (b <= b_min=")

    def test_error_carries_instance_context(self, tmp_path, capsys):
        raw = base_config(bounds=["upper"], b_grid=[6.0])
        raw["plant"]["noise_v"]["family"] = "uniform"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        code = main(["bound", "--config", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "bound 'upper' at b=6" in err

    def test_json_output(self, tmp_path):
        path = write_config(tmp_path, b_grid=[6.0])
        code = main(["bound", "--config", path, "--out", str(tmp_path),
                     "--format", "json"])
        assert code == 0
        payload = json.loads((tmp_path / "bound.json").read_text())
        assert math.isclose(payload["b_min"], BMIN_FULL, rel_tol=1e-9)
        assert payload["rows"][0]["kind"] == "full"
        assert all(r["converged"] is True for r in payload["rows"])

    def test_truncated_infimum_reported(self, tmp_path):
        raw = base_config(bounds=["lowrank"], b_grid=[100.0])
        raw["plant"].update({
            "a": [[2.0, 1.0], [0.0, 1.2]], "b": [[0.0], [1.0]],
            "q": [[1.0, 0.0], [0.0, 1.0]],
            "noise_v": {"family": "gaussian",
                        "covariance": [[1.0, 0.0], [0.0, 1.0]]}})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        for fmt in ("csv", "json"):
            assert main(["bound", "--config", str(path), "--out",
                         str(tmp_path), "--format", fmt]) == 0
        (row,) = read_rows(tmp_path / "bound.csv")
        assert row["converged"] == "false"
        assert row["note"] == ""
        (row,) = json.loads((tmp_path / "bound.json").read_text())["rows"]
        assert row["converged"] is False
        assert row["note"] == ""

    def test_needs_b_grid(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["bound", "--config", path]) == 2
        assert "b_grid" in capsys.readouterr().err

    def test_large_cost_plant(self, tmp_path, capsys, large_cost_plant):
        plant = large_cost_plant
        raw = {"plant": {"a": plant.A.tolist(), "b": plant.B.tolist(),
                         "q": plant.Q.tolist(), "r": plant.R.tolist(),
                         "noise_v": {"family": "gaussian",
                                     "covariance": np.eye(6).tolist()}},
               "bounds": ["full", "lowrank"], "b_grid": [1e5]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert main(["bound", "--config", str(path)]) == 0
        assert capsys.readouterr().out.startswith("b_min = 28667.64")


class TestSimulateCommand:
    def test_csv_header_exact(self, tmp_path):
        path = write_config(tmp_path, distortion=2.0)
        assert main(["simulate", "--config", path,
                     "--out", str(tmp_path)]) == 0
        text = (tmp_path / "simulate.csv").read_text()
        assert text.splitlines()[0] == ",".join(CSV_COLUMNS)

    def test_seed_override(self, tmp_path):
        path = write_config(tmp_path, distortion=2.0)
        for seed, name in ((9, "a"), (9, "b"), (10, "c")):
            (tmp_path / name).mkdir()
            assert main(["simulate", "--config", path, "--seed", str(seed),
                         "--out", str(tmp_path / name)]) == 0
        a = (tmp_path / "a" / "simulate.csv").read_bytes()
        b = (tmp_path / "b" / "simulate.csv").read_bytes()
        c = (tmp_path / "c" / "simulate.csv").read_bytes()
        assert a == b
        assert a != c

    def test_one_parser_serves_every_command(self, tmp_path):
        # the parser is built once per process; a --seed given to one
        # command must not carry over to the next
        assert cli.build_parser() is cli.build_parser()
        path = write_config(tmp_path, distortion=2.0)
        for name, seed in (("flag", ["--seed", "3"]), ("config", []),
                           ("other", ["--seed", "4"])):
            assert main(["simulate", "--config", path, "--out",
                         str(tmp_path / name), "--format", "json"] + seed) == 0
        digests = {name: json.loads(
            (tmp_path / name / "simulate.json").read_text())["digest"]
            for name in ("flag", "config", "other")}
        assert digests["config"] == digests["flag"] != digests["other"]

    def test_unquantized_run(self, tmp_path):
        path = write_config(tmp_path)
        assert main(["simulate", "--config", path,
                     "--out", str(tmp_path)]) == 0
        row = read_rows(tmp_path / "simulate.csv")[0]
        assert row["d"] == "nan"
        assert row["h_hat_nats"] == "nan"
        assert abs(float(row["b_hat"]) - BMIN_FULL) < 0.2


# The TradeoffPoint field each row column carries.
ROW_FIELDS = {"d": "d", "b_hat": "b_hat", "h_hat_nats": "h_nats",
              "h_hat_bits": "h_bits", "lower_bound_nats": "lower_nats",
              "upper_bound_nats": "upper_nats", "c_hat": "c_hat",
              "e_hat": "e_hat", "d_hat": "d_hat", "residual": "residual",
              "diverged": "diverged"}


class TestSweepCommand:
    GRID = [1.5, 2.0, 2.7, 3.6, 4.9, 6.6, 8.9, 12.0]

    def test_deterministic_outputs(self, tmp_path):
        path = write_config(tmp_path, d_grid=self.GRID)
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            main(["sweep", "--config", path, "--out", str(tmp_path / name)])
        assert ((tmp_path / "a" / "sweep.csv").read_bytes()
                == (tmp_path / "b" / "sweep.csv").read_bytes())

    def test_csv_rows_are_the_printed_table(self, tmp_path, capsys):
        path = write_config(tmp_path, d_grid=self.GRID)
        main(["sweep", "--config", path, "--out", str(tmp_path)])
        table = capsys.readouterr().out.splitlines()[1:2 + len(self.GRID)]
        csv = (tmp_path / "sweep.csv").read_text().splitlines()
        assert [line.split() for line in table] == [
            line.split(",") for line in csv]

    def test_svg_rendered(self, tmp_path):
        path = write_config(tmp_path, d_grid=self.GRID)
        main(["sweep", "--config", path, "--out", str(tmp_path), "--svg"])
        svg = (tmp_path / "sweep.svg").read_text()
        xml.dom.minidom.parseString(svg)
        assert "b_min" in svg
        assert svg.count("<circle") == len(self.GRID)
        assert svg.count("<polyline") >= 2

    def test_csv_columns_name_each_point_field(self):
        assert list(ROW_FIELDS) == list(CSV_COLUMNS)
        assert list(ROW_FIELDS.values()) == [
            f.name for f in dataclasses.fields(simloop.TradeoffPoint)]

    def test_rows_carry_each_field_under_its_column(self, tmp_path,
                                                    monkeypatch):
        # one point whose fields all differ
        point = simloop.TradeoffPoint(*[0.125 * (i + 1) for i in range(10)],
                                      diverged=False)
        monkeypatch.setattr(cli, "sweep", lambda *a, **k: [point])
        path = write_config(tmp_path, d_grid=self.GRID)
        for fmt in ("csv", "json"):
            main(["sweep", "--config", path, "--out", str(tmp_path),
                  "--format", fmt])
        [row] = read_rows(tmp_path / "sweep.csv")
        [entry] = json.loads((tmp_path / "sweep.json").read_text())["points"]
        for col, field in ROW_FIELDS.items():
            value = getattr(point, field)
            assert row[col] == cli._fmt(value)
            assert entry[col] == value

    def test_json_points(self, tmp_path):
        path = write_config(tmp_path, d_grid=self.GRID)
        main(["sweep", "--config", path, "--out", str(tmp_path),
              "--format", "json"])
        payload = json.loads((tmp_path / "sweep.json").read_text())
        assert payload["columns"] == list(CSV_COLUMNS)
        assert len(payload["points"]) == len(self.GRID)
        b_vals = [p["b_hat"] for p in payload["points"]]
        assert b_vals == sorted(b_vals)

    def test_failing_point_in_a_worker(self, tmp_path, capsys, monkeypatch):
        # the decoder misreads the indices of two points: the audit fails
        # in their workers, and the first in grid order is the one reported
        bad = {quantizer.integer_lattice().scale_to_distortion(d).scale
               for d in (self.GRID[2], self.GRID[5])}
        point_of = quantizer.Lattice.point_of

        def misread(lattice, indices):
            out = point_of(lattice, indices)
            return out + lattice.scale if lattice.scale in bad else out

        monkeypatch.setattr(quantizer.Lattice, "point_of", misread)
        path = write_config(tmp_path, d_grid=self.GRID)
        assert main(["sweep", "--config", path]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("hard assert failed: distortion guarantee "
                               "violated: ")
        assert line.endswith(f" > {self.GRID[2]}")
        assert multiprocessing.active_children() == []
        monkeypatch.undo()
        assert main(["sweep", "--config", path]) == 0
        assert multiprocessing.active_children() == []

    def test_missing_grid_is_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["sweep", "--config", path]) == 2
        assert "d_grid" in capsys.readouterr().err

    def test_short_grid_is_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, d_grid=self.GRID[:5])
        assert main(["sweep", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "d_grid of at least 8 points" in err
        assert "Traceback" not in err


class TestDecomposeCommand:
    def test_prints_analytic_references(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(riccati, "solve_control",
                            lambda plant: calls.append(plant) or solve_control(plant))
        path = write_config(tmp_path, distortion=2.0, horizon=12_000)
        assert main(["decompose", "--config", path]) == 0
        # one solve serves the run, the tradeoff point and the references
        assert len(calls) == 1
        out = capsys.readouterr().out
        assert "tr(Cov_V S) = 4.2360680" in out
        assert "residual" in out

    def test_window_precondition(self, tmp_path, capsys):
        path = write_config(tmp_path, distortion=2.0, horizon=6_000)
        assert main(["decompose", "--config", path]) == 2
        assert "post-burn-in window" in capsys.readouterr().err

    def test_short_window_refused_before_the_run(self, tmp_path, capsys,
                                                 monkeypatch):
        shipped = Path(__file__).parent.parent / "configs/laplace_scalar.json"
        raw = json.loads(shipped.read_text())
        raw["burn_in"] = 995_000
        path = tmp_path / "short_window.json"
        path.write_text(json.dumps(raw))

        def no_run(sim, ctrl, filt):
            raise AssertionError("decompose simulated a refused config")

        monkeypatch.setattr(cli, "run", no_run)
        assert main(["decompose", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == ("config error: need a post-burn-in window of "
                       "10000 steps\n")


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_short_entropy_window_refused_before_the_run(tmp_path, capsys,
                                                     monkeypatch, command):
    shipped = Path(__file__).parent.parent / "configs/laplace_scalar.json"
    raw = json.loads(shipped.read_text())
    raw["burn_in"] = 999_500
    path = tmp_path / "short_window.json"
    path.write_text(json.dumps(raw))

    def no_run(sim, ctrl, filt):
        raise AssertionError(f"{command} simulated a refused config")

    monkeypatch.setattr(cli, "run", no_run)
    monkeypatch.setattr(simloop, "run", no_run)  # sweep's own runs
    assert main([command, "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        "config error: need at least 1000 samples past burn-in\n")


class TestValidateCommand:
    def test_scalar_plant_passes(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["validate", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "b_min" in out
        assert "4.2360679775" in out

    def test_uncontrollable_plant_fails(self, tmp_path, capsys):
        raw = base_config()
        raw["plant"].update({
            "a": [[2.0, 0.0], [0.0, 0.5]],
            "b": [[1.0], [0.0]],
            "q": [[1.0, 0.0], [0.0, 1.0]],
            "noise_v": {"family": "gaussian",
                        "covariance": [[1.0, 0.0], [0.0, 1.0]]},
        })
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert main(["validate", "--config", str(path)]) == 1
        assert "not controllable" in capsys.readouterr().err

    def test_overflowing_riccati_iterate_fails(self, tmp_path, capsys):
        # The 1.5 mode is unstable and uncontrollable: the control Riccati
        # iterate overflows near iteration 437, where its inf norm used to
        # pass the stop test.  validate reports the structural cause and
        # leaves the solve out; bound and simulate stop on the iterate.
        raw = base_config(b_grid=[10.0, 100.0], distortion=1.0)
        raw["plant"].update({
            "a": [[2.0, 0.0], [0.0, 1.5]],
            "b": [[1.0], [0.0]],
            "q": [[1.0, 0.0], [0.0, 1.0]],
            "noise_v": {"family": "gaussian",
                        "covariance": [[1.0, 0.0], [0.0, 1.0]]},
        })
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["validate", "--config", str(path)]) == 1
            out, err = capsys.readouterr()
            assert err == "problem: (A, B) not controllable: rank 1 < 2\n"
            assert "b_min" not in out
            for command in ("bound", "simulate"):
                assert main([command, "--config", str(path)]) == 1
                err = capsys.readouterr().err
                assert err.startswith("hard assert failed: Riccati value "
                                      "iteration diverged")
                assert len(err.splitlines()) == 1

    def test_bad_json_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["validate", "--config", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("d_grid", 5), ("horizon", None), ("bounds", 5), ("seed", [1]),
        # JSON strings and booleans that float(), int() and tuple() read
        ("d_grid", "123456789"), ("b_grid", "579"), ("d_grid", [1.0, True]),
        ("seed", True), ("horizon", "20000"), ("distortion", True),
        ("bounds", "full"), ("bounds", {"full": 1}), ("plant.a", [[True]]),
        ("plant.noise_v.covariance", [["1"]]),
    ])
    def test_wrong_value_type_is_config_error(self, tmp_path, capsys,
                                              key, value):
        raw = base_config()
        *parents, name = key.split(".")
        node = raw
        for part in parents:
            node = node[part]
        node[name] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert main(["validate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key} has the wrong type")
        assert len(err.strip().splitlines()) == 1


# The plants pass validate, but their coder weight W = A^T M A is singular.
# For rank_one_a, W's least eigenvalue comes out tiny and positive, and the
# upper bound used to fail in numpy's inverse ("Singular matrix").
SINGULAR_W_PLANTS = {
    "fewer_inputs": {"a": [[1.2, 0.3], [0.0, 0.8]], "b": [[1.0], [0.5]],
                     "r": [[1.0]]},
    "rank_one_a": {"a": [[0.4646, 0.0966], [-0.2222, -0.0462]],
                   "b": [[1.0, 0.0], [0.0, 1.0]],
                   "r": [[1.0, 0.0], [0.0, 1.0]]},
    "singular_a": {"a": [[2.0, 0.0], [0.0, 0.0]],
                   "b": [[1.0, 0.0], [0.0, 1.0]],
                   "r": [[1.0, 0.0], [0.0, 1.0]]},
}


class TestErrorContract:
    @pytest.mark.parametrize("name", sorted(SINGULAR_W_PLANTS))
    def test_singular_weight_plant(self, tmp_path, capsys, name):
        raw = base_config(distortion=1.0, d_grid=TestSweepCommand.GRID,
                          b_grid=[1e3], bounds=["upper"])
        raw["plant"].update(SINGULAR_W_PLANTS[name])
        raw["plant"]["q"] = [[1.0, 0.0], [0.0, 1.0]]
        raw["plant"]["noise_v"]["covariance"] = [[1.0, 0.0], [0.0, 1.0]]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert main(["validate", "--config", str(path)]) == 0
        capsys.readouterr()
        for command in ("bound", "simulate", "sweep", "decompose"):
            assert main([command, "--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert "W = A^T M A is singular" in err
            assert len(err.strip().splitlines()) == 1
        # the unquantized loop needs no coder and still runs
        del raw["distortion"]
        path.write_text(json.dumps(raw))
        assert main(["simulate", "--config", str(path)]) == 0

    @pytest.mark.parametrize("mode, noise_w", [
        ("partially_observed", None),
        ("fully_observed", {"family": "gaussian", "covariance": [[1.0]]}),
        ("open_loop", None),
    ], ids=["partial_on_full", "full_on_partial", "unknown"])
    def test_mode_must_match_plant(self, tmp_path, capsys, mode, noise_w):
        raw = base_config(mode=mode, b_grid=[6.0, 20.0], distortion=1.0)
        if noise_w is not None:
            raw["plant"]["noise_w"] = noise_w
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        for command in ("validate", "bound", "simulate"):
            assert main([command, "--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"config error: mode '{mode}' does not "
                                  "match the plant")
            assert len(err.strip().splitlines()) == 1

    def test_negative_burn_in(self, tmp_path, capsys):
        path = write_config(tmp_path, burn_in=-5, horizon=20_000,
                            distortion=1.0)
        for command in ("validate", "simulate", "decompose"):
            assert main([command, "--config", path]) == 2
            err = capsys.readouterr().err
            assert err == "config error: burn_in must be nonnegative\n"

    @pytest.mark.parametrize("exc, code, prefix", [
        (ValueError("bad parameter"), 2, "config error: bad parameter"),
        (np.linalg.LinAlgError("Singular matrix"), 1,
         "linear algebra failure: Singular matrix"),
    ], ids=["value_error", "linalg_error"])
    def test_escaping_errors_get_exit_codes(self, tmp_path, capsys,
                                            monkeypatch, exc, code, prefix):
        def failing_run(_cfg, _ctrl, _filt):
            raise exc
        monkeypatch.setattr(cli, "run", failing_run)
        path = write_config(tmp_path, distortion=1.0)
        assert main(["simulate", "--config", path]) == code
        assert capsys.readouterr().err == prefix + "\n"


@pytest.mark.parametrize("argv", [
    ["validate", "--out", "x"], ["validate", "--seed", "1"],
    ["validate", "--format", "json"], ["bound", "--seed", "1"],
])
def test_subcommands_take_only_the_flags_they_read(tmp_path, capsys, argv):
    path = write_config(tmp_path, b_grid=[6.0])
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--config", path])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# Extreme inputs, each once a raw traceback, a stray warning line or a
# decoder error in place of a diverged run: (command, config overrides,
# plant overrides, expected exit status).
_FAR_TWO_DIM = {"a": [[1.4, 0.2], [0.0, 0.5]], "b": [[1.0, 0.0], [0.0, 1.0]],
                "q": [[1.0, 0.0], [0.0, 1.0]], "r": [[1.0, 0.0], [0.0, 1.0]],
                "noise_v": {"family": "gaussian",
                            "covariance": [[1.0, 0.0], [0.0, 1.0]]},
                "noise_x1": {"family": "gaussian",
                             "covariance": [[1e36, 0.0], [0.0, 1e36]]}}
_LAPLACE = {"noise_v": {"family": "laplace", "covariance": [[1.0]]}}
EXTREME_PROBES = {
    "far_first_state_n2": ("simulate", {"distortion": 1.0, "horizon": 2000,
                                        "seed": 0}, _FAR_TWO_DIM, 0),
    "far_first_state_n2_sweep": ("sweep", {"d_grid": TestSweepCommand.GRID,
                                           "horizon": 2000}, _FAR_TWO_DIM, 0),
    "overflowing_rounding": ("simulate", {"distortion": 1e-318,
                                          "horizon": 20_000},
                             dict(_LAPLACE, noise_x1={
                                 "family": "gaussian",
                                 "covariance": [[1e300]]}), 0),
    "index_past_int64": ("simulate", {"distortion": 1e-318,
                                      "horizon": 20_000}, _LAPLACE, 2),
}


@pytest.mark.parametrize("probe", sorted(EXTREME_PROBES))
def test_extreme_inputs_keep_the_exit_contract(tmp_path, probe):
    command, over, plant, code = EXTREME_PROBES[probe]
    raw = base_config(**over)
    raw["plant"].update(plant)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    env = dict(os.environ,
               PYTHONPATH=str(Path(ratecost.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "ratecost.cli", command, "--config", str(path)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) <= 1
    if code == 0:
        assert "diverged" in proc.stdout
    else:
        assert "cell scale" in proc.stderr


def test_overflowing_one_vector_decode_prints_no_warning(tmp_path, capsys):
    # x / t overflows in the A_n* decode of the first coder input, which
    # numpy's products once reported on stderr before the run diverged
    raw = base_config(distortion=1e-318, horizon=20_000,
                      d_grid=TestSweepCommand.GRID)
    raw["plant"].update(_FAR_TWO_DIM, noise_x1={
        "family": "gaussian", "covariance": [[1e300, 0.0], [0.0, 1e300]]})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    for command in ("simulate", "sweep"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, "--config", str(path)]) == 0
        assert not caught, [str(w.message) for w in caught]
        out, err = capsys.readouterr()
        assert "diverged" in out
        assert err == ""


def test_partial_plant_with_non_gaussian_noise_is_a_config_error(tmp_path,
                                                                   capsys):
    raw = base_config(b_grid=[10.0], distortion=1.0,
                      d_grid=TestSweepCommand.GRID)
    raw["plant"].update(_LAPLACE, c=[[1.0]], noise_w={
        "family": "gaussian", "covariance": [[1.0]]})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    for command in ("validate", "bound", "simulate", "sweep"):
        assert main([command, "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            "config error: filter Riccati requires gaussian noise_v and "
            "noise_w\n")


# The message that refuses an indefinite weight or covariance, by key.
PSD_TARGETS = {
    "q": "plant: Q must be positive semidefinite",
    "r": "plant: R must be positive semidefinite",
    **{key: f"plant.{key}: covariance must be positive semidefinite"
       for key in ("noise_v", "noise_w", "noise_x1")},
}


@st.composite
def psd_configs(draw):
    """Two configs over n <= 3, fully or partially observed, that differ in
    one weight or covariance (the target), drawn at a scale in 10^[-20, 20]
    with eigenvalues of 0.5 to 2 times the scale but one: in the first
    config that one is -1e-6 times the scale (indefinite), in the second
    it is 0 (rank n - 1), or the whole target is 0."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, n))
    eye = np.eye(n).tolist()
    plant = {"a": (2.0 * np.eye(n)).tolist(),
             "b": rng.standard_normal((n, m)).tolist(),
             "q": eye, "r": np.eye(m).tolist(),
             "noise_v": {"family": "gaussian", "covariance": eye},
             "noise_x1": {"family": "gaussian", "covariance": eye}}
    if draw(st.booleans()):
        plant["c"] = eye
        plant["noise_w"] = {"family": "gaussian", "covariance": eye}
    target = draw(st.sampled_from(sorted(k for k in PSD_TARGETS
                                         if k in plant)))
    scale = 10.0 ** draw(st.floats(-20, 20))
    eigs = scale * rng.uniform(0.5, 2.0, m if target == "r" else n)
    singular = eigs.copy()
    eigs[0] = -1e-6 * scale
    singular[0 if draw(st.booleans()) else slice(None)] = 0.0
    v = np.linalg.qr(rng.standard_normal((len(eigs), len(eigs))))[0]
    configs = []
    for values in (eigs, singular):
        mat = (v * values) @ v.T
        mat = ((mat + mat.T) / 2.0).tolist()  # symmetric to the bit
        raw = {"plant": json.loads(json.dumps(plant)), "b_grid": [1.0],
               "d_grid": TestSweepCommand.GRID, "distortion": 1.0,
               "horizon": 1500, "burn_in": 200}
        if target in ("q", "r"):
            raw["plant"][target] = mat
        else:
            raw["plant"][target]["covariance"] = mat
        configs.append(raw)
    return target, *configs


def _refuse_solve(*_args, **_kwargs):
    raise AssertionError("a Riccati solve ran on a refused plant")


@given(psd_configs())
def test_indefinite_weights_are_refused_at_config_load(tmp_path_factory,
                                                       drawn):
    target, indefinite, singular = drawn
    path = tmp_path_factory.mktemp("cfg") / "cfg.json"
    path.write_text(json.dumps(indefinite))
    want = f"config error: {PSD_TARGETS[target]}\n"
    with unittest.mock.patch.object(riccati, "solve_control", _refuse_solve):
        for command in ("validate", "bound", "simulate", "sweep"):
            err = io.StringIO()
            with (contextlib.redirect_stdout(io.StringIO()),
                  contextlib.redirect_stderr(err)):
                code = main([command, "--config", str(path)])
            assert (code, err.getvalue()) == (2, want)
    # a PSD target of rank n - 1, or zero, is a plant like any other
    config_from_dict(singular)


TWO_DIM_PARTIAL = {
    "a": [[1.4, 0.2], [0.0, 0.5]], "b": np.eye(2).tolist(),
    "q": np.eye(2).tolist(), "r": np.eye(2).tolist(), "c": [[1.0, 0.5]],
    "noise_v": {"family": "gaussian", "covariance": np.eye(2).tolist()},
    "noise_w": {"family": "gaussian", "covariance": [[1.0]]}}


@pytest.mark.parametrize("observed", ["full", "partial", "partial_n2"])
def test_riccati_pair_is_solved_once(tmp_path, monkeypatch, observed):
    # The pair does not depend on the coder: every command solves the
    # control equation once, and the filter once on a partial plant; an
    # n = 2 sweep steps its points in the lockstep, an n = 1 sweep in
    # workers.
    over = {"b_grid": [5.0, 20.0], "d_grid": TestSweepCommand.GRID,
            "distortion": 1.0, "horizon": 12_000}
    if observed == "partial":
        over["plant"] = dict(base_config()["plant"], c=[[1.0]], noise_w={
            "family": "gaussian", "covariance": [[1.0]]})
    elif observed == "partial_n2":
        # one observation of two states: no upper bound (singular jump)
        over.update(plant=TWO_DIM_PARTIAL, bounds=["partial"],
                    b_grid=[20.0, 40.0])
    path = write_config(tmp_path, **over)
    calls = []
    for name in ("solve_control", "solve_filter"):
        def counted(plant, _solve=getattr(riccati, name), _name=name):
            calls.append(_name)
            return _solve(plant)
        monkeypatch.setattr(riccati, name, counted)
    want = ["solve_control"] + (["solve_filter"] if observed != "full"
                                else [])
    for command in ("bound", "validate", "simulate", "decompose", "sweep"):
        calls.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([command, "--config", path]) == 0, command
        assert calls == want, command


# Run in a fresh interpreter by test_commands_leave_out_scipy: the pool
# modules loaded by the import, then every command but a projected bound, on
# a fully and a partially observed plant, then the scipy modules loaded so
# far, then a projected bound.
STARTUP_SESSION = """
import contextlib, io, json, sys
import ratecost, ratecost.cli as cli
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] in ("multiprocessing",
                                               "concurrent"))))
out = sys.argv[1]
for cfg in sys.argv[2:4]:
    for argv in (["validate"], ["simulate"], ["decompose"], ["bound"],
                 ["sweep", "--svg", "--out", out]):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([argv[0], "--config", cfg] + argv[1:])
        assert code == 0, (argv, cfg, code)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["bound", "--config", sys.argv[4], "--out", out,
                     "--format", "json"])
print(json.dumps([code, "scipy.linalg" in sys.modules]))
"""


def test_commands_leave_out_scipy(tmp_path):
    # Only the projected bounds need scipy (the ordered real Schur basis);
    # importing scipy.linalg costs about 0.3 s and 25 MB of every command's
    # start-up.
    common = dict(distortion=2.0, d_grid=TestSweepCommand.GRID,
                  horizon=11_000, b_grid=[3.0, 20.0, 100.0])
    full = write_config(tmp_path, "full.json",
                        bounds=["full", "lowrank", "upper", "floor"],
                        **common)
    raw = base_config(bounds=["partial", "partial_lowrank", "full", "lowrank",
                              "upper", "floor"], **common)
    raw["plant"].update(c=[[1.0]], noise_w={"family": "gaussian",
                                            "covariance": [[0.5]]})
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps(raw))
    raw["bounds"] = ["projected", "partial_projected"]
    projected = tmp_path / "projected.json"
    projected.write_text(json.dumps(raw))
    env = dict(os.environ,
               PYTHONPATH=str(Path(ratecost.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_SESSION, str(tmp_path / "out"), full,
         str(partial), str(projected)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    pool, loaded, projected_run = map(json.loads, proc.stdout.splitlines())
    assert pool == []  # a sweep imports its worker pool when it needs one
    assert loaded == []
    assert projected_run == [0, True]
    rows = json.loads((tmp_path / "out" / "bound.json").read_text())["rows"]
    assert [r["kind"] for r in rows if r["nats"] is not None] == [
        "projected", "partial_projected"] * 2
    assert all(math.isfinite(r["nats"]) for r in rows
               if r["nats"] is not None)


def _spd(rng, n, scale):
    f = rng.standard_normal((n, n))
    return (scale * (f @ f.T / n + 0.1 * np.eye(n))).tolist()


def _diag(rng, n, scale):
    return np.diag(scale * rng.uniform(0.5, 2.0, n)).tolist()


@st.composite
def cli_configs(draw):
    """A config drawn over n <= 3, the three noise families (Gaussian only
    when partially observed, as the filter requires), fully and partially
    observed, with noise, cost and noise_x1 scales in 10^[-20, 20] and the
    distortion in 10^[-12, 12]."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, n))

    def scale(bound):
        return 10.0 ** draw(st.floats(-bound, bound))

    partial = draw(st.booleans())
    family = "gaussian" if partial else draw(st.sampled_from(FAMILIES))
    noise, cost = scale(20), scale(20)
    a = rng.standard_normal((n, n))
    a *= draw(st.floats(0.3, 2.0)) / max(np.abs(np.linalg.eigvals(a)).max(),
                                         1e-3)
    plant = {"a": a.tolist(), "b": rng.standard_normal((n, m)).tolist(),
             "q": _spd(rng, n, cost), "r": _spd(rng, m, cost),
             "noise_v": {"family": family,
                         "covariance": _diag(rng, n, noise)},
             "noise_x1": {"family": "gaussian",
                          "covariance": _diag(rng, n, scale(20))}}
    kinds = ["full", "projected", "lowrank", "upper", "floor"]
    if partial:
        p = draw(st.integers(1, n))
        plant["c"] = rng.standard_normal((p, n)).tolist()
        plant["noise_w"] = {"family": "gaussian",
                            "covariance": _spd(rng, p, scale(20))}
        kinds += ["partial", "partial_projected", "partial_lowrank"]
    return {"plant": plant,
            "bounds": draw(st.lists(st.sampled_from(kinds), min_size=1,
                                    max_size=3, unique=True)),
            "b_grid": [noise * cost * k for k in (1.0, 10.0, 1e3)],
            "distortion": scale(12), "horizon": 1500, "burn_in": 200,
            "seed": draw(st.integers(0, 2**32 - 1))}


# What an exit 2 may report on a config that parses: a refusal ratecost
# raises itself (a singular coder weight, an index past int64, a bound
# undefined at b), never a message from numpy or scipy.
OWN_REFUSALS = (
    "weight W = A^T M A is singular", "lattice index does not fit in int64",
    "noise has no known regularity constants",
    "projected entropy power of", "projected covariance is singular",
    "innovation jump covariance must be nonsingular",
    "need rows(L)=", "dynamics matrix powers overflowed", "retained modes",
)


@given(cli_configs())
def test_random_configs_keep_the_exit_contract(tmp_path_factory, raw):
    path = tmp_path_factory.mktemp("cfg") / "cfg.json"
    path.write_text(json.dumps(raw))
    for command in ("validate", "bound", "simulate"):
        err = io.StringIO()
        with (warnings.catch_warnings(record=True) as caught,
              contextlib.redirect_stdout(io.StringIO()),
              contextlib.redirect_stderr(err)):
            warnings.simplefilter("always")
            code = main([command, "--config", str(path)])
        assert not caught, [str(w.message) for w in caught]
        lines = err.getvalue().splitlines()
        assert code in (0, 1, 2)
        assert len(lines) == (0 if code == 0 else 1), lines
        if code == 2:
            assert lines[0].startswith("config error: "), lines
            assert any(r in lines[0] for r in OWN_REFUSALS), lines


# bound evaluates each kind's b-free part once per command; these check its
# rows, and the SVG's curves, against a fresh one-b evaluation at every b.

def _hex(x):
    """A float's exact bits (NaN = NaN); other values as they are."""
    return float(x).hex() if isinstance(x, float) else x


def _one_b_row(kind, plant, ctrl, filt, b):
    """(nats, converged) of one bound row from the public one-b functions."""
    if kind == "floor":
        return bounds.unstable_floor(plant.A), True
    if kind == "upper":
        return bounds.entropy_cost_upper(plant, ctrl, b, filt=filt), True
    lower = getattr(bounds, f"lower_bound_{kind}")
    res = (lower(plant, ctrl, filt, b) if kind.startswith("partial")
           else lower(plant, ctrl, b))
    return (res.nats, res.converged) if kind.endswith("lowrank") else (res, True)


def _one_b_rows(cfg):
    """bound's JSON rows from _one_b_row, and its error line or None."""
    ctrl, filt, bmin = solve_plant(cfg.plant)
    rows = []
    for b in cfg.b_grid:
        for kind in cfg.bounds:
            row = {"b": b, "kind": kind, "nats": math.nan, "bits": math.nan,
                   "converged": True, "note": ""}
            if kind != "floor" and b <= bmin:
                row["note"] = f"infeasible (b <= b_min={bmin:.7f})"
            else:
                try:
                    row["nats"], row["converged"] = _one_b_row(
                        kind, cfg.plant, ctrl, filt, b)
                except ValueError as err:
                    return rows, f"config error: bound {kind!r} at b={b:g}: {err}"
                row["bits"] = bounds.nats_to_bits(row["nats"])
            rows.append({k: _hex(cli._js(v)) for k, v in row.items()})
    return rows, None


def _check_bound_against_one_b(tmp_path, raw):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    cfg = config_from_dict(raw)
    want, error = _one_b_rows(cfg)
    err = io.StringIO()
    with (contextlib.redirect_stdout(io.StringIO()),
          contextlib.redirect_stderr(err)):
        code = main(["bound", "--config", str(path), "--out", str(tmp_path),
                     "--format", "json"])
    if error is not None:
        assert (code, err.getvalue()) == (2, error + "\n")
    else:
        assert code == 0, err.getvalue()
        rows = json.loads((tmp_path / "bound.json").read_text())["rows"]
        assert [{k: _hex(v) for k, v in r.items()} for r in rows] == want

    ctrl, filt, bmin = solve_plant(cfg.plant)
    bs, lower, upper = cli._bound_curves(cfg, ctrl, filt, bmin, [])
    for b, low, up in zip(bs, lower, upper):
        pair = bounds.sandwich_curve(cfg.plant, ctrl, filt)(b)
        assert (_hex(low), _hex(up)) == tuple(map(_hex, pair))
    return error


@st.composite
def bound_configs(draw):
    """A plant with n <= 4, m <= n, fully observed under any noise family or
    partially observed, and six costs from below b_min to 100 b_min.  The
    config asks for every bound kind that applies and, in some draws, then
    for those the plant refuses (upper for a singular W or innovation jump
    or uniform noise, projected for a non-Gaussian v)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, n))
    partial = draw(st.booleans())
    family = "gaussian" if partial else draw(st.sampled_from(FAMILIES))
    a = rng.standard_normal((n, n))
    a *= draw(st.floats(0.3, 2.0)) / max(np.abs(np.linalg.eigvals(a)).max(),
                                         1e-3)
    plant = {"a": a.tolist(), "b": rng.standard_normal((n, m)).tolist(),
             "q": _spd(rng, n, 1.0), "r": _spd(rng, m, 1.0),
             "noise_v": {"family": family, "covariance": _diag(rng, n, 1.0)}}
    kinds, refused = ["full", "lowrank", "floor"], []
    (kinds if family == "gaussian" else refused).append("projected")
    p = n
    if partial:
        p = draw(st.integers(1, n))
        plant["c"] = rng.standard_normal((p, n)).tolist()
        plant["noise_w"] = {"family": "gaussian",
                            "covariance": _spd(rng, p, 1.0)}
        kinds += ["partial", "partial_projected", "partial_lowrank"]
    (kinds if m == p == n and family != "uniform" else refused).append("upper")
    if draw(st.booleans()):
        kinds += refused
    raw = {"plant": plant, "bounds": kinds, "b_grid": [1.0]}
    ctrl, filt, bmin = solve_plant(config_from_dict(raw).plant)
    raw["b_grid"] = [bmin * r for r in (0.5, 1.0, 1.001, 1.5, 10.0, 100.0)]
    return raw


@given(bound_configs())
def test_bound_rows_match_the_one_b_functions(tmp_path_factory, raw):
    _check_bound_against_one_b(tmp_path_factory.mktemp("bound"), raw)


# Plants whose projection fails at the first feasible b: modes 1e-13 apart,
# and a Jordan block at 1 whose eigenvalues split 1e-8 apart in roundoff
# (real Schur then selects 2 of them where 1 was asked for).
_JORDAN = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.5]])
_ROTATION = np.linalg.qr(np.random.default_rng(19).standard_normal((3, 3)))[0]
UNPROJECTABLE = {
    "unseparable": np.diag([1.0, 1.0 - 1e-13, 0.5]),
    "split_pair": _ROTATION @ _JORDAN @ _ROTATION.T,
}


@pytest.mark.parametrize("partial", [False, True])
@pytest.mark.parametrize("name", sorted(UNPROJECTABLE))
def test_failing_projection_names_the_first_feasible_b(tmp_path, name,
                                                       partial):
    eye = np.eye(3).tolist()
    plant = {"a": UNPROJECTABLE[name].tolist(), "b": eye, "q": eye, "r": eye,
             "noise_v": {"family": "gaussian", "covariance": eye}}
    kind = "projected"
    if partial:
        plant.update(c=eye, noise_w={"family": "gaussian", "covariance": eye})
        kind = "partial_projected"
    raw = {"plant": plant, "bounds": ["floor", kind], "b_grid": [1.0]}
    ctrl, filt, bmin = solve_plant(config_from_dict(raw).plant)
    raw["b_grid"] = [0.5 * bmin, 2.0 * bmin, 3.0 * bmin]
    error = _check_bound_against_one_b(tmp_path, raw)
    assert error.startswith(
        f"config error: bound {kind!r} at b={2.0 * bmin:g}: ")

