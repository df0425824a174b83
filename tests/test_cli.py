import ast
import errno
import hashlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import nlaffine as nl
from nlaffine import cli, conditions, pide
from nlaffine import config as config_module
from nlaffine.cli import main
from nlaffine.config import (
    ExperimentConfig,
    compound_poisson_set,
    generalized_compound_poisson_set,
    measure_from_json,
    theta_from_json,
)
from test_pide import hat_box_config, no_child_left


def base_config(out_dir, paths=500):
    return {
        "dimension": 1,
        "parameter_set": {
            "kind": "example",
            "name": "singleton",
            "parameter": {
                "beta": [[0.2], [0.0]],
                "alpha": [[[0.5]], [[0.0]]],
                "nu": [[], []],
            },
        },
        "state_space": {"kind": "full"},
        "mode": "standard",
        "payoff": {"name": "min_cap", "c": 1.0},
        "grid": {"lower": [-4.0], "upper": [4.0], "nodes": [161]},
        "horizon": 0.5,
        "scheme": {"cfl": 0.4, "min_time_steps": 64},
        "sim": {"dt": 0.01, "paths": paths, "seed": 3, "x0": [0.0]},
        "output_dir": str(out_dir),
    }


def write_config(tmp_path, cfg, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


class TestConfigParsing:
    def test_round_trip_identity(self, tmp_path):
        cfg = ExperimentConfig.from_dict(base_config(tmp_path))
        again = ExperimentConfig.from_dict(json.loads(cfg.to_json()))
        assert again.data == cfg.data
        assert again.config_hash() == cfg.config_hash()

    def test_decimal_strings_coerced_exactly(self, tmp_path):
        raw = base_config(tmp_path)
        raw["horizon"] = "0.5"
        raw["payoff"]["c"] = "1.0"
        raw["parameter_set"]["parameter"]["beta"] = [["0.2"], ["0.0"]]
        cfg = ExperimentConfig.from_dict(raw)
        assert cfg.horizon == 0.5
        theta = cfg.theta_set().vertices()[0]
        assert theta.beta[0, 0] == 0.2

    def test_string_fields_survive(self, tmp_path):
        raw = base_config(tmp_path)
        raw["output_dir"] = "7"  # a directory literally named 7
        cfg = ExperimentConfig.from_dict(raw)
        assert cfg.output_dir == "7"

    @pytest.mark.parametrize("beta, alpha", [
        ([0.2, 0.0], [0.5, 0.0]),
        ([[0.2], [0.0]], [[0.5], [0.0]]),
    ])
    def test_one_dimensional_coefficient_shorthands(self, tmp_path, beta, alpha):
        raw = base_config(tmp_path)
        full = ExperimentConfig.from_dict(raw).theta_set().vertices()[0]
        raw["parameter_set"]["parameter"].update(beta=beta, alpha=alpha)
        theta = ExperimentConfig.from_dict(raw).theta_set().vertices()[0]
        assert np.array_equal(theta.beta, full.beta)
        assert np.array_equal(theta.alpha, full.alpha)
        raw["parameter_set"] = {"kind": "box", "beta_lo": beta, "beta_hi": beta,
                                "alpha_lo": alpha, "alpha_hi": alpha}
        box = ExperimentConfig.from_dict(raw).theta_set().vertices()
        assert len(box) == 1 and np.array_equal(box[0].alpha, full.alpha)

    def test_scheme_defaults_come_from_scheme_config(self, tmp_path):
        raw = base_config(tmp_path)
        del raw["scheme"]
        assert ExperimentConfig.from_dict(raw).scheme() == nl.SchemeConfig()
        raw["scheme"] = {"dt": None, "min_time_steps": 64}
        assert ExperimentConfig.from_dict(raw).scheme() == nl.SchemeConfig(min_time_steps=64)

    def test_unknown_example_rejected(self, tmp_path):
        raw = base_config(tmp_path)
        raw["parameter_set"] = {"kind": "example", "name": "nope"}
        with pytest.raises(nl.ConfigError, match="registered"):
            ExperimentConfig.from_dict(raw)

    def test_missing_grid_rejected(self, tmp_path):
        raw = base_config(tmp_path)
        del raw["grid"]
        with pytest.raises(nl.ConfigError, match="grid"):
            ExperimentConfig.from_dict(raw)

    def test_measure_and_theta_json_round_trip(self):
        def measure_json(m):
            return conditions.jsonable(list(zip(m.atoms, m.weights)))

        m = nl.AtomicLevyMeasure([[0.125], [2.5]], [0.1, -0.75])
        assert measure_from_json(json.loads(json.dumps(measure_json(m))), 1) == m
        theta = nl.AffineParameter.scalar(beta0=0.1, beta1=-0.2, alpha0=0.3,
                                          nu0=m)
        tj = conditions.jsonable({"beta": theta.beta, "alpha": theta.alpha,
                                  "nu": [measure_json(n) for n in theta.nu]})
        back = theta_from_json(json.loads(json.dumps(tj)), 1)
        assert np.array_equal(back.beta, theta.beta)
        assert np.array_equal(back.alpha, theta.alpha)
        assert back.nu == theta.nu


class TestRegistry:
    def test_compound_poisson_admissible(self):
        h = nl.TruncationFunction(1.0)
        m = nl.AtomicLevyMeasure([[1.0], [0.5]], [0.6, 0.4])
        ps = compound_poisson_set([0.5, 2.0], [m], h)
        for theta in ps.vertices():
            for space in (nl.StateSpace.full(1), nl.StateSpace.half(1)):
                assert nl.check_admissible(theta, nl.GeneratorMode.standard(space, h)).admissible

    def test_generalized_compound_poisson_admissible(self):
        h = nl.TruncationFunction(1.0)
        m = nl.AtomicLevyMeasure([[1.0]], [1.0])
        ps = generalized_compound_poisson_set([0.2, 1.0], [0.0, 0.5], [m], h)
        assert len(ps.vertices()) == 4
        for theta in ps.vertices():
            assert nl.check_admissible(
                theta, nl.GeneratorMode.standard(nl.StateSpace.half(1), h)).admissible

    def test_gaussian_box_vertices(self, tmp_path):
        raw = base_config(tmp_path)
        raw["parameter_set"] = {
            "kind": "example", "name": "gaussian_box",
            "drift": [-0.5, 0.5], "variance": [0.25, 1.0],
        }
        ps = ExperimentConfig.from_dict(raw).theta_set()
        assert len(ps.vertices()) == 4

    def test_generalized_compound_poisson_example(self, tmp_path):
        raw = base_config(tmp_path)
        raw["state_space"] = {"kind": "half"}
        raw["truncation_radius"] = 0.55
        raw["parameter_set"] = {
            "kind": "example", "name": "generalized_compound_poisson",
            "lambda0": [0.2, 1.0], "lambda1": [0.0, 0.5], "measures": [[[0.5, 0.6], [1.5, 0.4]]],
        }
        cfg = ExperimentConfig.from_dict(raw)
        m = nl.AtomicLevyMeasure([[0.5], [1.5]], [0.6, 0.4])
        want = generalized_compound_poisson_set([0.2, 1.0], [0.0, 0.5], [m],
                                                cfg.truncation()).vertices()
        got = cfg.theta_set().vertices()
        assert len(got) == len(want) == 4
        for a, b in zip(got, want):
            assert np.array_equal(a.beta, b.beta) and np.array_equal(a.alpha, b.alpha)
            for ma, mb in zip(a.nu, b.nu):
                assert np.array_equal(ma.atoms, mb.atoms)
                assert np.array_equal(ma.weights, mb.weights)


class TestSolveCommand:
    def test_solve_writes_artifacts(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(out))
        assert main(["solve", "--config", path]) == 0
        surface = (out / "surface.csv").read_text()
        assert surface.splitlines()[0] == "t,x1,v"
        meta = json.loads((out / "meta.json").read_text())
        assert meta["config_hash"]
        assert meta["cfl"]["dt"] <= meta["cfl"]["stable_dt"]
        # initial layer equals the payoff
        first = surface.splitlines()[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[2]) == min(-4.0, 1.0)

    def test_meta_phase_timings(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(out))
        assert main(["solve", "--config", path]) == 0
        meta = json.loads((out / "meta.json").read_text())
        timings = meta["timings"]
        assert set(timings) == {"gate_s", "march_s", "write_s"}
        assert all(v >= 0.0 for v in timings.values())
        assert sum(timings.values()) <= meta["wall_time_s"]
        assert meta["peak_rss_mb"] > 0.0

    def test_meta_surface_writers(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(out))
        assert main(["solve", "--config", path]) == 0
        meta = json.loads((out / "meta.json").read_text())
        layers = meta["cfl"]["n_steps"] + 1
        want = min(pide.usable_cpus(), layers) if hasattr(os, "fork") else 1
        assert meta["surface_writers"] == want

    @pytest.mark.parametrize("make, operator", [
        (hat_box_config, {"stencils": 8, "vertices": 8, "state_free": True}),
        (lambda out: dict(base_config(out), state_space={"kind": "half"}),
         {"stencils": 2, "vertices": 1, "state_free": False}),
    ], ids=["hat_box", "half_space"])
    def test_meta_operator_block(self, tmp_path, make, operator):
        out = tmp_path / "out"
        assert main(["solve", "--config", write_config(tmp_path, make(out))]) == 0
        assert json.loads((out / "meta.json").read_text())["operator"] == operator

    def test_cfl_violation_exit_3(self, tmp_path, capsys):
        raw = base_config(tmp_path / "out")
        raw["scheme"]["dt"] = 0.25  # diffusion needs ~1e-3
        path = write_config(tmp_path, raw)
        assert main(["solve", "--config", path]) == 3
        assert "stability bound" in capsys.readouterr().err

    def test_config_error_exit_2(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{ not json")
        assert main(["solve", "--config", str(path)]) == 2

    def test_hat_mode_gate_recorded(self, tmp_path):
        out = tmp_path / "out"
        raw = base_config(out)
        raw["mode"] = "hat"
        raw["parameter_set"] = {
            "kind": "example", "name": "gaussian_box",
            "drift": [0.0, 0.0], "variance": [0.25, 1.0],
        }
        path = write_config(tmp_path, raw)
        assert main(["solve", "--config", path]) == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["uniqueness_certified"] is True
        assert meta["uniqueness_gate_status"] == "pass"

    def test_hat_mode_uncertified_still_solves(self, tmp_path, capsys):
        out = tmp_path / "out"
        raw = base_config(out)
        raw["mode"] = "hat"
        # a(x) = x+ has a square-root kink at 0: gate must fail, solve runs
        raw["parameter_set"] = {
            "kind": "finite",
            "parameters": [{
                "beta": [[0.0], [0.0]],
                "alpha": [[[0.0]], [[1.0]]],
                "nu": [[], []],
            }],
        }
        path = write_config(tmp_path, raw)
        assert main(["solve", "--config", path]) == 0
        assert "not certified unique" in capsys.readouterr().err
        meta = json.loads((out / "meta.json").read_text())
        assert meta["uniqueness_certified"] is False
        assert (out / "surface.csv").exists()

    def test_solve_with_dpp_split(self, tmp_path):
        out = tmp_path / "out"
        raw = base_config(out)
        raw["parameter_set"] = {
            "kind": "example", "name": "compound_poisson",
            "lambda": [0.5, 1.0], "measures": [[[1.0, 1.0]]],
        }
        raw["scheme"]["min_time_steps"] = 128
        path = write_config(tmp_path, raw)
        assert main(["solve", "--config", path, "--dpp-split", "0.25"]) == 0
        dpp = json.loads((out / "dpp.json").read_text())
        assert dpp["gap"] <= 5e-3
        meta = json.loads((out / "meta.json").read_text())
        # the restart counts its own steps by solve's rule: at least
        # min_time_steps, so 128 over [0, 0.25] as over [0, 0.5]
        assert meta["cfl"]["n_steps"] == 128 and dpp["n_steps"] == 128
        assert dpp["march_s"] > 0

    def test_atoms_chained_across_measures(self, tmp_path):
        # nu_1's atom lies within the merge tolerance of both of nu_0's atoms,
        # which lie farther apart than it
        out = tmp_path / "out"
        raw = base_config(out)
        raw["state_space"] = {"kind": "half"}
        raw["grid"]["lower"] = [0.0]
        raw["parameter_set"]["parameter"] = {
            "beta": [[0.0], [0.0]],
            "alpha": [[[0.0]], [[0.0]]],
            "nu": [[[1.0, 0.2], [1.0 + 1.5e-12, 0.3]], [[1.0 + 7.5e-13, 0.1]]],
        }
        path = write_config(tmp_path, raw)
        assert main(["solve", "--config", path]) == 0
        assert main(["simulate", "--config", path]) == 0
        meta = json.loads((out / "meta.json").read_text())
        # delta -> the largest nu_0 second moment of jumps of size <= delta
        assert meta["small_jump_table"][repr(1.0 + 1.5e-12)] == pytest.approx(0.5)


README_CONFIG = {
    "dimension": 1,
    "parameter_set": {"kind": "example", "name": "compound_poisson",
                      "lambda": [0.5, 1.0], "measures": [[[1.0, 1.0]]]},
    "state_space": {"kind": "full"},
    "mode": "standard",
    "payoff": {"name": "min_cap", "c": 2.0},
    "grid": {"lower": [-5.0], "upper": [10.0], "nodes": [601]},
    "horizon": 1.0,
    "scheme": {"cfl": 0.4, "min_time_steps": 512},
}


class TestStreamedSolve:
    """solve hands each layer to the surface writers as the march makes it
    and keeps only the layers dpp.json needs."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("problem, split", [("readme", 0.5), ("hat_box", 0.25)])
    def test_bytes_and_gap_are_the_library_surface(self, tmp_path, monkeypatch, problem,
                                                   split, workers):
        out = tmp_path / "out"
        raw = (dict(README_CONFIG, output_dir=str(out)) if problem == "readme"
               else hat_box_config(out))
        path = write_config(tmp_path, raw)
        cfg = ExperimentConfig.from_file(path)
        surf = nl.solve(cfg.theta_set(), cfg.grid(), cfg.payoff(), cfg.horizon, cfg.mode(),
                        scheme=cfg.scheme())
        monkeypatch.setattr(pide, "usable_cpus", lambda: 1)
        surf.to_csv(tmp_path / "library.csv")
        monkeypatch.setattr(pide, "usable_cpus", lambda: workers)
        assert main(["solve", "--config", path, "--dpp-split", str(split)]) == 0
        assert no_child_left()
        written = (out / "surface.csv").read_bytes()
        assert written == (tmp_path / "library.csv").read_bytes()
        if problem == "readme":  # the criterion-1 golden surface of test_pide
            assert hashlib.sha256(written).hexdigest().startswith("7b0dbe2eea5c50dd")
        assert json.loads((out / "dpp.json").read_text())["gap"] == nl.dpp_gap(surf, split)
        assert json.loads((out / "meta.json").read_text())["surface_writers"] == workers

    @staticmethod
    def solve_with_fault_at_step_5(tmp_path, monkeypatch, fault) -> int:
        """`nlaffine solve` with three writers, apply's fifth result passed
        through fault; checks that no writer and no surface.csv is left."""
        apply = pide._Operator.apply
        calls = []

        def faulty(self, v):
            calls.append(None)
            inc = apply(self, v)
            return fault(inc) if len(calls) == 5 else inc

        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(out))
        monkeypatch.setattr(pide._Operator, "apply", faulty)
        monkeypatch.setattr(pide, "usable_cpus", lambda: 3)
        code = main(["solve", "--config", path])
        assert no_child_left()
        assert not (out / "surface.csv").exists()
        return code

    def test_overflow_mid_stream_exits_3(self, tmp_path, monkeypatch, capsys):
        assert self.solve_with_fault_at_step_5(
            tmp_path, monkeypatch, lambda inc: np.full_like(inc, np.inf)) == 3
        assert capsys.readouterr().err == (
            "numerical abort: non-finite value produced at step 5\n")

    def test_allocation_failure_mid_stream_exits_3(self, tmp_path, monkeypatch, capsys):
        def failing(inc):
            raise MemoryError("Unable to allocate the step's increments")

        assert self.solve_with_fault_at_step_5(tmp_path, monkeypatch, failing) == 3
        assert capsys.readouterr().err == (
            "numerical abort: Unable to allocate the step's increments\n")

    def test_memory_flat_in_the_step_count(self, tmp_path, monkeypatch):
        """Four times the steps add no stored layer: the traced peak grows by
        less than a quarter of the extra layers' bytes."""
        monkeypatch.setattr(pide, "usable_cpus", lambda: 2)
        peaks = []
        for steps in (400, 1600):
            out = tmp_path / f"out{steps}"
            raw = base_config(out)
            raw["scheme"]["min_time_steps"] = steps
            path = write_config(tmp_path, raw, f"config{steps}.json")
            tracemalloc.start()
            try:
                assert main(["solve", "--config", path]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert json.loads((out / "meta.json").read_text())["cfl"]["n_steps"] == steps
        assert peaks[1] - peaks[0] < (1600 - 400) * 161 * 8 / 4


def _atom_at_origin(raw):
    raw["parameter_set"]["parameter"]["nu"] = [[[0.0, 1.0]], []]


def _negative_variance(raw):
    raw["parameter_set"]["parameter"]["alpha"] = [[[-1.0]], [[0.0]]]


def _negative_jump_weight(raw):
    raw["parameter_set"]["parameter"]["nu"] = [[[1.0, 1.0], [2.0, -0.5]], []]


def _overflowing_jump_weights(raw):
    # each weight is finite, but their sums overflow to inf
    raw["state_space"] = {"kind": "half"}
    raw["grid"] = {"lower": [0.0], "upper": [4.0], "nodes": [41]}
    raw["parameter_set"]["parameter"]["nu"] = [
        [[0.5, 1.7e308], [0.51, 1.7e308], [0.52, 1.7e308]], []]


def _huge_jump_weight(raw):
    # a finite intensity whose candidate mean lam_bar * dt = 1e19 per step
    # lies above what numpy's Poisson sampler takes
    raw["parameter_set"]["parameter"]["nu"] = [[[1.0, 1e21]], []]


def _uncountable_dt(raw):
    raw["horizon"] = 1e308
    raw["scheme"] = {"dt": 1e-10}


def _uncountable_cfl(raw):
    raw["horizon"] = 1e308
    raw["scheme"] = {"cfl": 1e-320}


def _uncountable_sim_dt(raw):
    raw["sim"]["dt"] = 1e-320


def _stable_step_underflows(raw):
    raw["scheme"] = {"cfl": 5e-324}  # the stable step rounds to 0


def _tiny_sim_dt(raw):
    raw["sim"]["dt"] = 1e-300  # 5e299 steps: a finite count no array index holds


def _huge_min_time_steps(raw):
    raw["scheme"] = {"cfl": 0.4, "min_time_steps": 1e30}


def _huge_gaussian_box(raw):
    raw["parameter_set"] = {"kind": "example", "name": "gaussian_box",
                            "drift": [-1e300, 1e300], "variance": [0.0, 1e300]}


def _huge_net_drift(raw):
    raw["parameter_set"]["parameter"]["beta"] = [[1e300], [1e300]]
    raw["grid"] = {"lower": [-5.0], "upper": [10.0], "nodes": [61]}
    raw["horizon"] = 1.0


def _billion_jump_weight(raw):
    raw["parameter_set"]["parameter"]["nu"] = [[[1.0, 1e9]], []]
    raw["horizon"] = 1.0
    raw["sim"].update(dt=0.01, paths=2048)


def _huge_hat_grid(raw):
    # 200,001^2 nodes: the grid's point table alone needs 298 GiB
    raw["dimension"] = 2
    raw["mode"] = "hat"
    raw["parameter_set"]["parameter"] = {
        "beta": [[0.0, 0.0]] * 3,
        "alpha": [[[0.5, 0.0], [0.0, 0.5]], [[0.0, 0.0]] * 2, [[0.0, 0.0]] * 2]}
    raw["grid"] = {"lower": [-1.0, -1.0], "upper": [1.0, 1.0], "nodes": [200001, 200001]}
    raw["sim"]["x0"] = [0.0, 0.0]


def _negative_horizon(raw):
    raw["horizon"] = -1.0


def _text_horizon(raw):
    raw["horizon"] = "soon"


def _huge_atom(raw):
    raw["parameter_set"]["parameter"]["nu"] = [[["1e400", 1.0]], []]


def _nan_weight(raw):
    raw["parameter_set"]["parameter"]["nu"] = [[[1.0, "nan"]], []]


def _huge_drift(raw):
    raw["parameter_set"]["parameter"]["beta"] = [["1e400"], [0.0]]


def _infinite_drift(raw):
    raw["parameter_set"]["parameter"]["beta"] = [[float("inf")], [0.0]]


def _huge_horizon(raw):
    raw["horizon"] = "1e400"


def _text_payoff_parameter(raw):
    raw["payoff"] = {"name": "min_cap", "c": "abc"}


def _missing_payoff_parameter(raw):
    raw["payoff"] = {"name": "min_cap"}


def _x0_wrong_dimension(raw):
    raw["sim"]["x0"] = [0.0, 0.0]


def _x0_outside_clamp_box(raw):
    raw["sim"]["clamp_box"] = [[1.0], [2.0]]


def _clamp_box_wrong_dimension(raw):
    raw["sim"]["clamp_box"] = [[-1.0, -1.0], [2.0, 2.0]]


def _clamp_box_text(raw):
    raw["sim"]["clamp_box"] = "abc"


def _text_sim_horizon(raw):
    raw["sim"]["t"] = "later"


def _fractional_dimension(raw):
    raw["dimension"] = 1.5


def _fractional_nonneg_coords(raw):
    raw["state_space"] = {"kind": "half", "nonneg_coords": 0.5}


def _nonneg_coords_above_dimension(raw):
    raw["state_space"] = {"kind": "half", "nonneg_coords": 2}


def _text_state_space(raw):
    raw["state_space"] = "half"


def _text_scheme(raw):
    raw["scheme"] = "explicit"


def _parameter_without_beta(raw):
    del raw["parameter_set"]["parameter"]["beta"]


def _box_without_beta_lo(raw):
    raw["parameter_set"] = {"kind": "box", "beta_hi": [[0.0], [0.0]],
                            "alpha_lo": [[[0.1]], [[0.0]]],
                            "alpha_hi": [[[0.2]], [[0.0]]]}


def _box_with_nu_tuple(raw):
    # read as nu_tuples, this box would jump; ignored, it would not
    raw["parameter_set"] = {"kind": "box", "beta_lo": [[0.0], [0.0]],
                            "beta_hi": [[0.0], [0.0]],
                            "alpha_lo": [[[0.1]], [[0.0]]],
                            "alpha_hi": [[[0.2]], [[0.0]]],
                            "nu_tuple": [[[[0.5, 0.1]], []]]}


def _misspelled_min_time_steps(raw):
    raw["scheme"]["min_time_stpes"] = 16


def _misspelled_paths(raw):
    raw["sim"]["pths"] = 10


def _misspelled_horizon(raw):
    raw["horizn"] = raw.pop("horizon")


def _misspelled_grid_nodes(raw):
    raw["grid"]["node"] = raw["grid"].pop("nodes")


def _misspelled_nonneg_coords(raw):
    raw["state_space"] = {"kind": "half", "nonneg_coord": 1}


def _misspelled_lambda(raw):
    raw["parameter_set"] = {"kind": "example", "name": "compound_poisson",
                            "lamda": [0.5, 1.0], "lambda": [0.5, 1.0],
                            "measures": [[[1.0, 1.0]]]}


def _misspelled_parameter_alpha(raw):
    raw["parameter_set"]["parameter"]["alhpa"] = [[[0.5]], [[0.0]]]


def _misspelled_finite_parameter_nu(raw):
    theta = raw["parameter_set"]["parameter"]
    misspelled = {"beta": theta["beta"], "alpha": theta["alpha"], "mu": theta["nu"]}
    raw["parameter_set"] = {"kind": "finite", "parameters": [theta, misspelled]}


def _misspelled_finite_parameters(raw):
    theta = raw["parameter_set"]["parameter"]
    raw["parameter_set"] = {"kind": "finite", "parameter": theta, "parameters": [theta]}


def _text_parameter(raw):
    raw["parameter_set"]["parameter"] = "beta"


def _unused_payoff_parameter(raw):
    raw["payoff"] = {"name": "abs", "c": 1.0}


def _fractional_grid_nodes(raw):
    raw["grid"]["nodes"] = [160.5]


def _fractional_paths(raw):
    raw["sim"]["paths"] = 10.5


def _huge_integer_min_time_steps(raw):
    raw["scheme"] = {"min_time_steps": 10**400}  # no float holds it


def _boolean_cfl(raw):
    raw["scheme"]["cfl"] = True


def _negative_dt(raw):
    raw["scheme"]["dt"] = -0.1


def _zero_dt(raw):
    raw["scheme"]["dt"] = 0


def _scheme_r_jump(raw):
    raw["scheme"]["r_jump"] = 1.0


def _negative_min_time_steps(raw):
    raw["scheme"]["min_time_steps"] = -3


def _lambda_lo_above_hi(raw):
    raw["parameter_set"] = {"kind": "example", "name": "compound_poisson",
                            "lambda": [1.0, 0.5], "measures": [[[1.0, 1.0]]]}


def _negative_gaussian_box_variance(raw):
    raw["parameter_set"] = {"kind": "example", "name": "gaussian_box",
                            "drift": [0.0, 0.0], "variance": [-0.1, 1.0]}


def _boolean_payoff_parameter(raw):
    raw["payoff"] = {"name": "min_cap", "c": True}


def _boolean_grid_lower(raw):
    raw["grid"]["lower"] = [True]


def _overflowing_grid_spacing(raw):
    raw["grid"] = {"lower": [-1e308], "upper": [1e308], "nodes": [601]}


def _boolean_box_alpha(raw):
    raw["parameter_set"] = {"kind": "box", "beta_lo": [[0.0], [0.0]],
                            "beta_hi": [[0.0], [0.0]],
                            "alpha_lo": [[[True]], [[0.0]]],
                            "alpha_hi": [[[1.0]], [[0.0]]]}


def _ragged_alpha(raw):
    raw["parameter_set"]["parameter"]["alpha"] = [[0.5, 0.7], [0.0]]


def _box(raw, **fields):
    """A 1-D box with alpha_0 in [0.25, 1]; keyword arguments replace fields."""
    raw["parameter_set"] = {"kind": "box", "beta_lo": [[0.0], [0.0]],
                            "beta_hi": [[0.0], [0.0]],
                            "alpha_lo": [[[0.25]], [[0.0]]],
                            "alpha_hi": [[[1.0]], [[0.0]]], **fields}


def _plane(raw, dim=2):
    raw["dimension"] = dim
    raw["grid"] = {"lower": [-1.0] * dim, "upper": [1.0] * dim, "nodes": [11] * dim}
    raw["sim"]["x0"] = [0.0] * dim


def _box_corners_of_two_dimensions(raw):
    _box(raw, beta_hi=[[0.0, 0.0]] * 3)


def _dimension_three(raw):
    _plane(raw, dim=3)
    zero = np.zeros((3, 3)).tolist()
    _box(raw, beta_lo=[[0.0] * 3] * 4, beta_hi=[[0.0] * 3] * 4,
         alpha_lo=[zero] * 4, alpha_hi=[np.eye(3).tolist()] + [zero] * 3)


def _asymmetric_box_alpha_2d(raw):
    _plane(raw)
    zero = [[0.0, 0.0], [0.0, 0.0]]
    _box(raw, beta_lo=[[0.0, 0.0]] * 3, beta_hi=[[0.0, 0.0]] * 3,
         alpha_lo=[[[0.25, 0.1], [0.0, 0.25]], zero, zero],
         alpha_hi=[[[1.0, 0.1], [0.1, 1.0]], zero, zero])


def _jump_tuple_of_three(raw):
    _box(raw, nu_tuples=[[[], [], []]])


def _jump_tuple_of_dimension_two(raw):
    _box(raw, nu_tuples=[[[[[0.5, 0.5], 1.0]], []]])


def _box_lo_above_hi(raw):
    _box(raw, beta_lo=[[1.0], [0.0]])


def _three_jump_measures(raw):
    raw["parameter_set"]["parameter"]["nu"] = [[], [], []]


def _unknown_payoff(raw):
    raw["payoff"] = {"name": "nope"}


def _numeric_output_dir(raw):
    raw["output_dir"] = 5


def _list_payoff_name(raw):
    raw["payoff"] = {"name": ["min_cap"]}


def _list_payoff_parameter(raw):
    raw["payoff"] = {"name": "min_cap", "c": [1.0]}


def _object_payoff_parameter(raw):
    raw["payoff"] = {"name": "min_cap", "c": {"a": 1}}


def _hat_with_truncation_radius(raw):
    raw["mode"] = "hat"
    raw["truncation_radius"] = 2.0


def _hat_on_half_line(raw):
    raw["mode"] = "hat"
    raw["state_space"] = {"kind": "half"}


def _cross_term_beyond_diagonal(raw):
    # PSD, but on the grid's 0.6 by 0.15 cells the x2 stencil's coefficient
    # 0.5 a22 / dx2^2 - 0.5 |a12| / (dx1 dx2) is negative
    hat = hat_box_config(raw["output_dir"])
    alpha = [[[1.0, 0.9], [0.9, 1.0]], [[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    hat["parameter_set"].update(alpha_lo=alpha, alpha_hi=alpha)
    hat["grid"]["nodes"] = [21, 81]
    raw.clear()
    raw.update(hat)


def _zero_grid_spacing(raw):
    raw["grid"] = {"lower": [0.0], "upper": [5e-323], "nodes": [161]}


def _underflowing_grid_spacing_square(raw):
    raw["grid"] = {"lower": [-1e-300], "upper": [1e-300], "nodes": [161]}


class TestErrorContract:
    @pytest.mark.parametrize("edit, message", [
        (_atom_at_origin, "atom at the origin"),
        (_negative_variance, "no admissible vertex"),
        (_negative_horizon, "horizon must be nonnegative"),
        (_text_horizon, "expected a number"),
        (_huge_atom, "expected a finite number, got '1e400'"),
        (_nan_weight, "expected a finite number, got 'nan'"),
        (_huge_drift, "expected a finite number, got '1e400'"),
        (_infinite_drift, "expected a finite number, got inf"),
        (_huge_horizon, "expected a finite number, got '1e400'"),
        (_text_payoff_parameter, "bad payoff: could not convert string to float: 'abc'"),
        (_missing_payoff_parameter, "payoff 'min_cap' needs the parameter 'c'"),
        (_x0_wrong_dimension, "sim.x0 must have 1 coordinates"),
        (_x0_outside_clamp_box, "sim.x0 [0.0] lies outside sim.clamp_box"),
        (_clamp_box_wrong_dimension, "sim.clamp_box must be [lower, upper] with 1 coordinates"),
        (_clamp_box_text, "expected a list of numbers, got 'abc'"),
        (_text_sim_horizon, "expected a number, got 'later'"),
        (_fractional_dimension, "dimension must be an integer, got 1.5"),
        (_fractional_nonneg_coords, "state_space.nonneg_coords must be an integer, got 0.5"),
        (_nonneg_coords_above_dimension, "state_space.nonneg_coords must lie in [0, 1], got 2"),
        (_text_state_space, "state_space must be an object, got 'half'"),
        (_text_scheme, "scheme must be an object, got 'explicit'"),
        (_parameter_without_beta, "parameter_set lacks the field 'beta'"),
        (_box_without_beta_lo, "parameter_set lacks the field 'beta_lo'"),
        (_unused_payoff_parameter, "payoff 'abs' takes no parameter 'c'"),
        (_box_with_nu_tuple, "unknown field 'nu_tuple' in parameter_set; known: kind, "
                             "beta_lo, beta_hi, alpha_lo, alpha_hi, nu_tuples"),
        (_misspelled_min_time_steps, "unknown field 'min_time_stpes' in scheme; known: "
                                     "cfl, dt, min_time_steps"),
        (_misspelled_paths, "unknown field 'pths' in sim; known: "),
        (_misspelled_horizon, "unknown field 'horizn' in the config; known: "),
        (_misspelled_grid_nodes, "unknown field 'node' in grid; known: lower, upper, "
                                 "nodes"),
        (_misspelled_nonneg_coords, "unknown field 'nonneg_coord' in state_space"),
        (_misspelled_lambda, "unknown field 'lamda' in parameter_set (example "
                             "compound_poisson); known: kind, name, lambda, measures"),
        (_misspelled_parameter_alpha, "unknown field 'alhpa' in parameter_set.parameter; "
                                      "known: beta, alpha, nu"),
        (_misspelled_finite_parameter_nu, "unknown field 'mu' in "
                                          "parameter_set.parameters[1]"),
        (_misspelled_finite_parameters, "unknown field 'parameter' in parameter_set; "
                                        "known: kind, parameters"),
        (_text_parameter, "parameter_set.parameter must be an object, got 'beta'"),
        (_fractional_grid_nodes, "grid.nodes must be an integer, got 160.5"),
        (_fractional_paths, "sim.paths must be an integer, got 10.5"),
        (_huge_integer_min_time_steps, "scheme.min_time_steps must be an integer, got 1000"),
        (_boolean_cfl, "bad scheme spec: expected a number, got True"),
        (_negative_dt, "bad scheme spec: dt must be positive, got -0.1"),
        (_zero_dt, "bad scheme spec: dt must be positive, got 0.0"),
        (_scheme_r_jump, "unknown field 'r_jump' in scheme; known: cfl, dt, "
                         "min_time_steps"),
        (_negative_min_time_steps, "bad scheme spec: min_time_steps must be an integer >= 0, "
                                   "got -3"),
        (_lambda_lo_above_hi, "expected an interval [lo, hi], got [1.0, 0.5]"),
        (_negative_gaussian_box_variance, "variance interval must be nonnegative"),
        (_boolean_payoff_parameter, "payoff 'min_cap' needs a number for 'c', got True"),
        (_boolean_grid_lower, "bad grid spec: expected a number, got True"),
        (_overflowing_grid_spacing, "bad grid spec: grid spacing overflows: [-1e+308] .. "
                                    "[1e+308] spans more than the largest float"),
        (_boolean_box_alpha, "expected a number, got True"),
        (_ragged_alpha, "expected coefficients of shape (2, 1, 1), got [[0.5, 0.7], [0.0]]"),
        (_box_corners_of_two_dimensions, "expected coefficients of shape (2, 1), got "
                                         "[[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]"),
        (_dimension_three, "bad grid spec: grids are supported in one and two dimensions"),
        (_asymmetric_box_alpha_2d, "bad parameter_set: alpha components must be "
                                   "symmetric (gap 1.000e-01)"),
        (_jump_tuple_of_three, "bad parameter_set: need 2 jump measures, got 3"),
        (_jump_tuple_of_dimension_two, "atom [0.5, 0.5] does not have dimension 1"),
        (_box_lo_above_hi, "bad parameter_set: interval lower bounds exceed upper bounds"),
        (_three_jump_measures, "bad parameter_set: need 2 jump measures, got 3"),
        (_unknown_payoff, "config error: unknown payoff 'nope'; available: "),
        (_numeric_output_dir, "output_dir must be a string, got 5"),
        (_list_payoff_name, "config error: unknown payoff ['min_cap']; available: "),
        (_list_payoff_parameter, "bad payoff: float() argument must be a string or a "
                                 "real number, not 'list'"),
        (_object_payoff_parameter, "bad payoff: float() argument must be a string or a "
                                   "real number, not 'dict'"),
        (_hat_with_truncation_radius, "hat mode fixes truncation_radius at 1, got 2.0"),
        (_hat_on_half_line, "hat mode has no state space; state_space must be full"),
        (_cross_term_beyond_diagonal, "cross-diffusion exceeds the diagonal terms"),
        (_zero_grid_spacing, "bad grid spec: grid spacing underflows: [0.0] squares to 0"),
        (_underflowing_grid_spacing_square, "bad grid spec: grid spacing underflows: "
                                            "[1.25e-302] squares to 0"),
    ])
    def test_invalid_config_exits_2_with_one_line(self, tmp_path, capsys, edit, message):
        raw = base_config(tmp_path / "out")
        edit(raw)
        path = write_config(tmp_path, raw)
        assert main(["solve", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error: ")
        assert message in err


    @pytest.mark.parametrize("command, mode, edit, message", [
        ("solve", "hat", _negative_variance, "PSD"),
        ("check", "standard", _negative_variance, "PSD"),
        ("simulate", "standard", _negative_variance, "PSD"),
        ("simulate", "standard", _negative_jump_weight, "negative jump weight"),
    ])
    def test_inadmissible_coefficients_exit_2(self, tmp_path, capsys, command,
                                              mode, edit, message):
        raw = base_config(tmp_path / "out")
        raw["mode"] = mode
        edit(raw)
        path = write_config(tmp_path, raw)
        assert main([command, "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error: ")
        assert message in err

    @pytest.mark.parametrize("command, edit, message", [
        ("solve", _overflowing_jump_weights, "the operator's total outflow rate is inf"),
        ("simulate", _overflowing_jump_weights, "jump intensity bound inf"),
        ("simulate", _huge_jump_weight, "candidate mean of 1e+19 per step, not below "
                                        "the Poisson sampler's limit 9.22337e+18"),
        ("solve", _uncountable_dt, "horizon 1e+308 in steps of 1e-10: too many to count"),
        ("solve", _uncountable_cfl, "horizon 1e+308 in steps of 5e-323: too many to count"),
        ("simulate", _uncountable_sim_dt, "horizon 0.5 in steps of 1e-320: too many to count"),
        ("solve", _stable_step_underflows, "horizon 0.5 in steps of 0.0: too many to count"),
        ("simulate", _tiny_sim_dt, "horizon 0.5 in steps of 1e-300: 5e+299 steps, more "
                                   "than an array index can hold"),
        ("solve", _huge_min_time_steps, "a floor of 1e+30 steps, more than an array index "
                                        "can hold"),
        ("solve", _huge_gaussian_box, "horizon 0.5 in steps of 9.523809523809526e-304: "
                                      "5.25e+302 steps, more than an array index can hold"),
        ("solve", _huge_net_drift, "1.1e+302 steps, more than an array index can hold"),
    ])
    def test_numerical_abort_exits_3_with_one_line(self, tmp_path, capsys, command,
                                                   edit, message):
        raw = base_config(tmp_path / "out")
        edit(raw)
        path = write_config(tmp_path, raw)
        assert main([command, "--config", path]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("numerical abort: ")
        assert message in err

    @pytest.mark.parametrize("command, edit, message", [
        # 2 * 2048 paths * 100 steps * 1e7 candidates: a 29.8 TiB uniform pool
        ("simulate", _billion_jump_weight, "Unable to allocate 29.8 TiB"),
        ("solve", _huge_hat_grid, "Unable to allocate 298. GiB"),
    ])
    def test_allocation_failure_exits_3_with_one_line(self, tmp_path, command, edit,
                                                      message):
        """Run in a child process whose address space is capped at 3 GB, so
        the allocation fails at once on any overcommit setting."""
        out = tmp_path / "out"
        raw = base_config(out)
        edit(raw)
        path = write_config(tmp_path, raw)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(
                       p for p in (src, os.environ.get("PYTHONPATH")) if p))
        code = ("import resource, sys; "
                "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30)); "
                "from nlaffine.cli import main; sys.exit(main(sys.argv[1:]))")
        done = subprocess.run([sys.executable, "-c", code, command, "--config", path],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 3
        assert done.stderr.count("\n") == 1 and done.stderr.startswith("numerical abort: ")
        assert message in done.stderr
        assert not (out / "surface.csv").exists()

    @pytest.mark.parametrize("command", ["solve", "simulate"])
    def test_overflow_warns_nothing_before_the_one_line(self, tmp_path, capsys, command):
        raw = base_config(tmp_path / "out")
        _overflowing_jump_weights(raw)
        path = write_config(tmp_path, raw)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([command, "--config", path]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("numerical abort: ")

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_out_of_range_seed_exits_2(self, tmp_path, capsys, seed):
        path = write_config(tmp_path, base_config(tmp_path / "out"))
        assert main(["simulate", "--config", path, "--seed", seed]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error: ")
        assert "seed must lie in [0, 2**64)" in err

    @pytest.mark.parametrize("split, nu0, message", [
        ("abc", [], "argument --dpp-split: invalid float value: 'abc'"),
        ("5", [], "--dpp-split must lie in [0, horizon = 0.5], got 5.0"),
        ("0.3333", [], "split 0.3333 is not aligned to the time grid"),
        # an atom of norm 5 makes the interior core's margin 5
        ("0.5", [[5.0, 0.1]], "the interior core margin 5 leaves no node of the "
                              "grid [-4.0] .. [4.0]"),
    ], ids=["text", "past_horizon", "off_grid", "empty_core"])
    def test_bad_dpp_split_exits_2(self, tmp_path, capsys, split, nu0, message):
        raw = base_config(tmp_path / "out")
        raw["parameter_set"]["parameter"]["nu"][0] = nu0
        path = write_config(tmp_path, raw)
        assert main(["solve", "--config", path, "--dpp-split", split]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error: ")
        assert message in err
        assert not (tmp_path / "out" / "surface.csv").exists()  # refused before the march

    @pytest.mark.parametrize("command, mode", [
        ("solve", "standard"), ("solve", "hat"), ("check", "standard"),
    ])
    def test_grid_of_another_dimension_exits_2(self, tmp_path, capsys, command, mode):
        raw = base_config(tmp_path / "out")
        raw["mode"] = mode
        raw["grid"] = {"lower": [-4.0, -4.0], "upper": [4.0, 4.0], "nodes": [11, 11]}
        path = write_config(tmp_path, raw)
        assert main([command, "--config", path]) == 2
        assert capsys.readouterr().err == "config error: grid of dimension 2 for dimension 1\n"

    @pytest.mark.parametrize("command, blocked, message", [
        ("solve", None, "File exists"),
        ("simulate", None, "File exists"),
        ("check", None, "File exists"),
        ("solve", "surface.csv", "Is a directory"),
        ("simulate", "bundle.csv", "Is a directory"),
        ("solve", "long_name", "File name too long"),
        ("simulate", "long_name", "File name too long"),
        ("check", "long_name", "File name too long"),
    ], ids=["solve_out_is_a_file", "simulate_out_is_a_file", "check_out_is_a_file",
            "surface_csv_is_a_directory", "bundle_csv_is_a_directory",
            "solve_out_name_too_long", "simulate_out_name_too_long",
            "check_out_name_too_long"])
    def test_unusable_output_path_exits_2(self, tmp_path, capsys, command, blocked,
                                          message):
        out = tmp_path / ("x" * 300 if blocked == "long_name" else "out")
        path = write_config(tmp_path, base_config(out))
        if blocked is None:
            out.write_text("")
        elif blocked != "long_name":
            (out / blocked).mkdir(parents=True)
        assert main([command, "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error: ")
        assert message in err

    @pytest.mark.parametrize("command, name, where", [
        ("solve", "surface.csv", "writer"), ("solve", "surface.csv", "here"),
        ("simulate", "bundle.csv", "writer"), ("simulate", "bundle.csv", "here"),
        ("solve", "meta.json", "open"), ("solve", "dpp.json", "open"),
        ("simulate", "estimate.json", "open"), ("check", "report.json", "open"),
        ("compare", "comparison.json", "open"),
    ])
    def test_failed_artifact_write_exits_2(self, tmp_path, monkeypatch, capsys, command,
                                           name, where):
        """A full disk while formatting a CSV, in a forked writer or in this
        process, or while writing any file once it is open: one line naming
        the file, exit 2, no partial file left."""
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(out, paths=5000))  # two bundle blocks
        argv = [command, "--config", path]
        if command == "compare":
            assert main(["solve", *argv[1:]]) == main(["simulate", *argv[1:]]) == 0
            argv = ["compare", "--surface", str(out / "surface.csv"),
                    "--estimate", str(out / "estimate.json")]
        elif name == "dpp.json":
            argv += ["--dpp-split", "0.5"]
        module = pide if name == "surface.csv" else nl.montecarlo
        here, real, target = os.getpid(), module.format_17g, str(out / name)

        def full_disk(values):
            if (os.getpid() == here) == (where == "here"):
                raise OSError(errno.ENOSPC, "No space left on device")
            return real(values)

        def open_on_a_full_disk(file, *args, **kwargs):
            return FullDisk(file, "wb") if file == target else open(file, *args, **kwargs)

        if where == "open":
            monkeypatch.setattr(pide, "open", open_on_a_full_disk, raising=False)
        else:
            monkeypatch.setattr(module, "format_17g", full_disk)
        monkeypatch.setattr(pide, "usable_cpus", lambda: 2)
        assert main(argv) == 2
        assert no_child_left()
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"config error: cannot write {target}: ")
        assert "No space left on device" in err  # a writer's own error reaches the line
        assert not (out / name).exists()


class FullDisk(io.FileIO):
    """A file that opens, then fails every write as a full disk does."""

    def write(self, data):
        raise OSError(errno.ENOSPC, "No space left on device")


def test_library_has_no_assert_statements():
    """An input check written as `assert` vanishes under python -O."""
    src = Path(__file__).resolve().parents[1] / "src" / "nlaffine"
    found = [f"{path.name}:{node.lineno}" for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_cli_import_loads_no_scipy_and_loads_numpy_random():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, nlaffine.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
            "print('numpy.random' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    assert out == ["[]", "True"]


def test_cli_import_loads_no_process_pools():
    # the surface and bundle writers fork with os alone
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, nlaffine.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'multiprocessing' or m.startswith('concurrent.futures')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    assert out == ["[]"]


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_peak_rss_is_the_commands_own(tmp_path):
    # ru_maxrss carries a launcher's peak across exec; started from this
    # process, holding a touched 150 MB buffer, a 61-node solve and its
    # simulate (about 40 MB each) report their own peaks
    buffer = np.ones(150 << 20, dtype=np.uint8)
    out = tmp_path / "out"
    raw = base_config(out, paths=300)
    raw["grid"]["nodes"] = [61]
    path = write_config(tmp_path, raw)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    for command in ("solve", "simulate"):
        subprocess.run([sys.executable, "-m", "nlaffine.cli", command, "--config", path],
                       env=env, check=True, capture_output=True, timeout=120)
    assert buffer[-1] == 1
    for name in ("meta.json", "estimate.json"):
        assert 0.0 < json.loads((out / name).read_text())["peak_rss_mb"] < 100.0


class TestReadmeLibraryUse:
    def test_snippet_runs_as_written(self, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Library use", 1)[1]
        code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
        exec(compile(code, "README.md", "exec"), {})
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert float(lines[0]) == pytest.approx(1.0, abs=1e-2)


class TestSimulateCommand:
    def test_zero_parameter_estimate(self, tmp_path):
        out = tmp_path / "out"
        raw = base_config(out)
        raw["parameter_set"]["parameter"]["beta"] = [[0.0], [0.0]]
        raw["parameter_set"]["parameter"]["alpha"] = [[[0.0]], [[0.0]]]
        path = write_config(tmp_path, raw)
        assert main(["simulate", "--config", path]) == 0
        est = json.loads((out / "estimate.json").read_text())
        assert est["mean"] == 0.0 and est["se"] == 0.0
        rows = (out / "bundle.csv").read_text().splitlines()
        assert rows[0] == "path_index,seed,terminal,running_sup,exit_time"
        assert all(r.split(",")[2] == "0" for r in rows[1:])

    def test_seeded_rerun_identical_bytes(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        path = write_config(tmp_path, base_config(out1))
        assert main(["simulate", "--config", path]) == 0
        assert main(["simulate", "--config", path, "--out", str(out2)]) == 0
        assert (out1 / "bundle.csv").read_bytes() == (out2 / "bundle.csv").read_bytes()

    def test_thinning_counts_reported(self, tmp_path):
        out = tmp_path / "out"
        raw = base_config(out, paths=300)
        raw["parameter_set"]["parameter"]["nu"] = [[[1.0, 0.5]], []]
        path = write_config(tmp_path, raw)
        assert main(["simulate", "--config", path]) == 0
        est = json.loads((out / "estimate.json").read_text())
        # constant intensity: lam_bar is exact and every candidate is a jump
        assert est["thinning_accepted"] == est["thinning_proposed"] > 0
        assert est["thinning_bound"] == 0.5
        assert set(est["timings"]) == {"sweep_s", "write_s"}
        assert all(v >= 0.0 for v in est["timings"].values())
        assert est["peak_rss_mb"] > 0.0

    @pytest.mark.parametrize("box, pilot_paths", [(False, 0), (True, 37)])
    def test_pilot_paths_reported(self, tmp_path, box, pilot_paths):
        out = tmp_path / "out"
        raw = base_config(out, paths=300)
        if box:
            _box(raw)
        path = write_config(tmp_path, raw)
        assert main(["simulate", "--config", path]) == 0
        est = json.loads((out / "estimate.json").read_text())
        assert est["pilot_paths"] == pilot_paths
        assert len(est["all_means"]) == (2 if box else 1)


class TestCheckCommand:
    def test_report_written(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(out))
        assert main(["check", "--config", path]) == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["name"] == "uniqueness_gate"
        assert rep["config_hash"]

    def test_standard_mode_names_the_checked_map(self, tmp_path, capsys):
        # a(x) = 0.5 + x is negative for x < -0.5: solve and simulate refuse
        # this standard-mode config, while the hat-mode map a(x) = 0.5 + x+
        # that the gate checks passes
        out = tmp_path / "out"
        raw = base_config(out)
        raw["parameter_set"]["parameter"]["alpha"] = [[[0.5]], [[1.0]]]
        raw["grid"] = {"lower": [-1.0], "upper": [1.0], "nodes": [41]}
        path = write_config(tmp_path, raw)
        assert main(["check", "--config", path]) == 0
        captured = capsys.readouterr()
        assert captured.out == "uniqueness gate: pass\n"
        assert captured.err == ("warning: the uniqueness gate checked the hat-mode "
                                "coefficient map, not this config's standard-mode one\n")
        assert json.loads((out / "report.json").read_text())["mode"] == "standard"
        assert main(["solve", "--config", path]) == 2
        assert main(["simulate", "--config", path]) == 2

    def test_overflowing_weights_not_certified(self, tmp_path, capsys):
        # 3 K overflows to inf, so every linear-part margin is inf
        out = tmp_path / "out"
        raw = base_config(out)
        _overflowing_jump_weights(raw)
        path = write_config(tmp_path, raw)
        assert main(["check", "--config", path]) == 0
        assert capsys.readouterr().out == "uniqueness gate: fail\n"
        rep = json.loads((out / "report.json").read_text())
        assert rep["status"] == "fail"
        assert rep["clauses"]["linear_part_bound"] == {"status": "fail", "bound": "inf"}

    def test_hat_mode_check_has_no_warning(self, tmp_path, capsys):
        out = tmp_path / "out"
        raw = base_config(out)
        raw["mode"] = "hat"
        path = write_config(tmp_path, raw)
        assert main(["check", "--config", path]) == 0
        assert capsys.readouterr().err == ""
        assert json.loads((out / "report.json").read_text())["mode"] == "hat"


class TestBuildOnce:
    def test_parameter_set_built_once(self, tmp_path, monkeypatch):
        built = []
        build = config_module.parameter_set_from_json

        def counting(*args):
            built.append(args)
            return build(*args)

        monkeypatch.setattr(config_module, "parameter_set_from_json", counting)
        cfg = ExperimentConfig.from_file(write_config(tmp_path, base_config(tmp_path)))
        assert cfg.theta_set() is cfg.theta_set()
        assert len(built) == 1

    def test_hat_solve_checks_coefficient_bounds_once(self, tmp_path, monkeypatch):
        calls = []
        check = cli.check_coefficient_bounds

        def counting(theta_set):
            calls.append(theta_set)
            return check(theta_set)

        monkeypatch.setattr(cli, "check_coefficient_bounds", counting)
        monkeypatch.setattr(conditions, "check_coefficient_bounds", counting)
        out = tmp_path / "out"
        raw = base_config(out)
        raw["mode"] = "hat"
        assert main(["solve", "--config", write_config(tmp_path, raw)]) == 0
        assert len(calls) == 1
        meta = json.loads((out / "meta.json").read_text())
        assert meta["growth_bound"] == check(calls[0]).growth
        assert meta["uniqueness_gate_status"] == "pass"


    def test_solve_and_check_run_one_gate(self, tmp_path, monkeypatch):
        """solve's certificate and check's report sample the same states:
        both leave n_samples at the gate's default."""
        samples = []
        gate = cli.uniqueness_gate
        signature = inspect.signature(gate)

        def recording(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            samples.append(bound.arguments["n_samples"])
            return gate(*args, **kwargs)

        monkeypatch.setattr(cli, "uniqueness_gate", recording)
        raw = base_config(tmp_path / "out")
        raw["mode"] = "hat"
        path = write_config(tmp_path, raw)
        assert main(["solve", "--config", path]) == 0
        assert main(["check", "--config", path]) == 0
        default = signature.parameters["n_samples"].default
        assert samples == [default, default] == [128, 128]


class TestTruncationRadius:
    """A standard compound-Poisson config with truncation_radius 0.75: the
    atom at 0.5 lies in the ball and the one at 1.5 outside it.  The atom at
    0.9 lies in the unit ball but not in this one, so a solve or a simulation
    that fell back to the unit-ball h would not compensate the drift the
    registry authored."""

    h = nl.TruncationFunction(0.75)

    def raw(self, tmp_path):
        raw = base_config(tmp_path / "out", paths=400)
        raw["truncation_radius"] = 0.75
        raw["parameter_set"] = {
            "kind": "example", "name": "compound_poisson", "lambda": [0.5, 1.0],
            "measures": [[[0.5, 0.5], [0.9, 0.3], [1.5, 0.2]]],
        }
        return raw

    def library(self):
        m = nl.AtomicLevyMeasure([[0.5], [0.9], [1.5]], [0.5, 0.3, 0.2])
        return (compound_poisson_set([0.5, 1.0], [m], self.h),
                nl.GeneratorMode.standard(nl.StateSpace.full(1), self.h))

    def test_net_drift_is_exactly_zero(self, tmp_path):
        cfg = ExperimentConfig.from_dict(self.raw(tmp_path))
        mode = cfg.mode()
        assert mode.h == self.h
        for theta in cfg.theta_set().vertices():
            assert theta.beta[0, 0] != 0.0
            assert np.all(mode.coefficients(theta).net_drift == 0.0)

    def test_cli_matches_library(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, self.raw(tmp_path))
        assert main(["solve", "--config", path]) == 0
        assert main(["simulate", "--config", path]) == 0
        theta_set, mode = self.library()
        surface = nl.solve(theta_set, nl.Grid.line(-4.0, 4.0, 161),
                           nl.make_payoff("min_cap", c=1.0), 0.5, mode,
                           scheme=nl.SchemeConfig(cfl=0.4, min_time_steps=64))
        surface.to_csv(str(tmp_path / "library.csv"))
        assert (out / "surface.csv").read_bytes() == (tmp_path / "library.csv").read_bytes()
        sim = nl.SimConfig(dt=0.01, horizon=0.5, n_paths=400, seed=3)
        lb = nl.lower_bound_sublinear(theta_set, [0.0], nl.make_payoff("min_cap", c=1.0),
                                      0.5, sim, mode)
        assert json.loads((out / "estimate.json").read_text())["mean"] == lb.mean


def small_surface(dim):
    """A small solved surface: 41 nodes and 65 layers in 1-D, 11 x 11 nodes
    and 17 layers in 2-D."""
    if dim == 1:
        theta = nl.AffineParameter.scalar(beta0=0.2, alpha0=0.5)
        grid = nl.Grid.line(-2.0, 2.0, 41)
        payoff, steps = nl.make_payoff("min_cap", c=1.0), 64
    else:
        empty = nl.AtomicLevyMeasure.empty(2)
        theta = nl.AffineParameter(
            np.array([[0.1, -0.1], [0.0, 0.0], [0.0, 0.0]]),
            np.array([0.5 * np.eye(2), np.zeros((2, 2)), np.zeros((2, 2))]),
            (empty, empty, empty))
        grid = nl.Grid([-1.0, -1.0], [1.0, 1.0], [11, 11])
        payoff, steps = nl.make_payoff("square"), 16
    mode = nl.GeneratorMode.standard(nl.StateSpace.full(dim))
    return nl.solve(nl.FiniteParameterSet([theta]), grid, payoff, 0.25, mode,
                    scheme=nl.SchemeConfig(min_time_steps=steps))


class TestLayerReader:
    @pytest.mark.parametrize("window", [1, cli._BISECT_WINDOW])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_every_layer_equals_full_read(self, tmp_path, monkeypatch, dim, window):
        monkeypatch.setattr(cli, "_BISECT_WINDOW", window)
        surface = small_surface(dim)
        path = tmp_path / "surface.csv"
        surface.to_csv(path)
        full = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        for j in range(surface.n_steps + 1):
            t = j * surface.dt
            header, rows = cli._read_layer(path, t)
            assert len(header) == dim + 2
            want = full[np.abs(full[:, 0] - t) <= 1e-9 * max(1.0, t)]
            assert want.shape[0] == surface.grid.n_nodes
            assert np.array_equal(rows, want)
        for t in (0.5 * surface.dt, 0.123456, 0.3, -1.0, float("nan")):
            assert cli._read_layer(path, t)[1].shape == (0, dim + 2)


class TestCompareCommand:
    def run_pair(self, tmp_path, paths=4000, raw=None):
        out = tmp_path / "out"
        cfgd = raw or base_config(out, paths=paths)
        path = write_config(tmp_path, cfgd)
        assert main(["solve", "--config", path]) == 0
        assert main(["simulate", "--config", path]) == 0
        return out

    def compare(self, out):
        return main(["compare", "--surface", str(out / "surface.csv"),
                     "--estimate", str(out / "estimate.json")])

    def test_mid_horizon_layer(self, tmp_path):
        raw = base_config(tmp_path / "out", paths=300)
        cfg = ExperimentConfig.from_dict(raw)
        surface = nl.solve(cfg.theta_set(), cfg.grid(), cfg.payoff(), cfg.horizon,
                           cfg.mode(), scheme=cfg.scheme())
        j = surface.n_steps // 2
        raw["sim"]["t"] = j * surface.dt
        out = self.run_pair(tmp_path, raw=raw)
        assert self.compare(out) == 0
        cmp_ = json.loads((out / "comparison.json").read_text())
        assert cmp_["t"] == j * surface.dt
        assert cmp_["pide_value"] == surface.values[j][surface.grid.node_index([0.0])]

    @pytest.mark.parametrize("field", ["horizon", "sim_t"])
    def test_first_layer(self, tmp_path, field):
        raw = base_config(tmp_path / "out", paths=300)
        if field == "horizon":
            raw["horizon"] = 0.0  # a single-layer surface
        else:
            raw["sim"]["t"] = 0.0
        out = self.run_pair(tmp_path, raw=raw)
        if field == "horizon":
            assert len((out / "surface.csv").read_text().splitlines()) == 1 + 161
        assert self.compare(out) == 0
        cmp_ = json.loads((out / "comparison.json").read_text())
        assert cmp_["t"] == 0.0 and cmp_["pide_value"] == 0.0  # min(0, 1)

    def test_time_off_the_surface_exits_2(self, tmp_path, capsys):
        out = self.run_pair(tmp_path, paths=300)
        est = json.loads((out / "estimate.json").read_text())
        est["t"] = 0.123456
        (out / "estimate.json").write_text(json.dumps(est))
        capsys.readouterr()
        assert self.compare(out) == 2
        assert "surface carries no layer at t = 0.123456" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        ("bad_row", "surface.csv: a row does not parse"),
        ("short_layer", "has 160 rows, but meta.json gives a grid of [161] nodes"),
        ("header_2d", "surface.csv: rows of 3 fields under a header of 4"),
        ("no_t", "estimate.json lacks the field 't'"),
        ("no_x0", "estimate.json lacks the field 'x0'"),
        ("no_mean", "estimate.json lacks the field 'mean'"),
        ("no_se", "estimate.json lacks the field 'se'"),
        ("x0_2d", "estimate.json: x0 has 2 coordinates, the surface 1"),
        ("estimate_not_json", "estimate.json is not valid JSON"),
        ("nan_t", "estimate.json: t must be finite, got nan"),
        ("nan_x0", "estimate.json: x0 must be finite, got [nan]"),
        ("nan_mean", "estimate.json: mean must be finite, got nan"),
        ("inf_se", "estimate.json: se must be finite, got inf"),
        ("meta_missing", "meta.json with the surface config hash not found; "
                         "rerun solve or pass --force"),
        ("hash_mismatch", "surface and estimate come from different configs "
                          "(hash mismatch); pass --force to compare anyway"),
        ("t_off_surface", "surface carries no layer at t = 0.123456"),
        ("x0_off_grid", "x0 is not a node of the surface grid; "
                        "pass --interpolate to allow interpolation"),
    ])
    def test_bad_inputs_exit_2_with_one_line(self, tmp_path, capsys, edit, message):
        out = self.run_pair(tmp_path, paths=300)
        surface, estimate = out / "surface.csv", out / "estimate.json"
        lines = surface.read_text().splitlines(keepends=True)
        est = json.loads(estimate.read_text())
        if edit == "bad_row":  # a row of the last layer, which compare reads
            lines[-3] = lines[-3].replace(",", ",abc", 1)
        elif edit == "short_layer":
            del lines[-3]
        elif edit == "header_2d":
            lines[0] = "t,x1,x2,v\n"
        elif edit == "x0_2d":
            est["x0"] = [0.0, 0.0]
        elif edit.startswith("no_"):
            del est[edit[3:]]
        elif edit.startswith(("nan_", "inf_")):
            bad = float(edit[:3])
            est[edit[4:]] = [bad] if edit == "nan_x0" else bad
        elif edit == "meta_missing":
            (out / "meta.json").unlink()
        elif edit == "hash_mismatch":
            est["config_hash"] = "deadbeef"
        elif edit == "t_off_surface":
            est["t"] = 0.123456
        elif edit == "x0_off_grid":
            est["x0"] = [0.012]  # not a node of the 0.05-spaced grid
        surface.write_text("".join(lines))
        estimate.write_text("{" if edit == "estimate_not_json" else json.dumps(est))
        capsys.readouterr()
        assert self.compare(out) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error: ")
        assert message in err

    @pytest.mark.parametrize("meta, message", [
        ([1, 2], "meta.json is not a JSON object"),
        ({"grid": [1]}, "meta.json: grid must be an object, got [1]"),
        ({"grid": {"nodes": "abc"}}, "meta.json: grid.nodes must be a list of integers, "
                                     "got 'abc'"),
        ({"grid": {"nodes": [81, "x"]}}, "meta.json: grid.nodes must be a list of "
                                         "integers, got [81, 'x']"),
    ], ids=["list", "grid_list", "nodes_string", "nodes_mixed"])
    def test_malformed_meta_exits_2_with_one_line(self, tmp_path, capsys, meta, message):
        out = self.run_pair(tmp_path, paths=300)
        (out / "meta.json").write_text(json.dumps(meta))
        capsys.readouterr()
        assert main(["compare", "--surface", str(out / "surface.csv"),
                     "--estimate", str(out / "estimate.json"), "--force"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error: ")
        assert message in err

    @pytest.mark.parametrize("directory", ["estimate", "surface"])
    def test_directory_for_an_input_exits_2_with_one_line(self, tmp_path, capsys,
                                                          directory):
        out = self.run_pair(tmp_path, paths=300)
        files = {"surface": str(out / "surface.csv"), "estimate": str(out / "estimate.json")}
        files[directory] = str(tmp_path)
        capsys.readouterr()
        assert main(["compare", "--surface", files["surface"],
                     "--estimate", files["estimate"], "--force"]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: [Errno 21] Is a directory: '{tmp_path}'\n"

    def test_interpolation_on_2d_surface_exits_2_with_one_line(self, tmp_path, capsys):
        surface = small_surface(2)
        surface.to_csv(tmp_path / "surface.csv")
        (tmp_path / "estimate.json").write_text(json.dumps(
            {"t": surface.n_steps * surface.dt, "x0": [0.05, 0.0], "mean": 0.0, "se": 0.0}))
        assert main(["compare", "--surface", str(tmp_path / "surface.csv"),
                     "--estimate", str(tmp_path / "estimate.json"),
                     "--force", "--interpolate"]) == 2
        err = capsys.readouterr().err
        assert err == "config error: interpolation is only supported on 1-D surfaces\n"

    def test_matched_run_brackets(self, tmp_path):
        out = self.run_pair(tmp_path)
        rc = main([
            "compare", "--surface", str(out / "surface.csv"),
            "--estimate", str(out / "estimate.json"), "--out", str(out),
        ])
        assert rc == 0
        cmp_ = json.loads((out / "comparison.json").read_text())
        assert cmp_["ordering_ok"]
        # singleton: both estimate the same linear expectation
        assert abs(cmp_["bracket_width"]) <= 3 * cmp_["se"] + 5e-3

    def test_out_keeps_the_config_hash(self, tmp_path):
        path = write_config(tmp_path, base_config(tmp_path / "out", paths=300))
        a, b = tmp_path / "A", tmp_path / "B"
        assert main(["solve", "--config", path, "--out", str(a)]) == 0
        assert main(["simulate", "--config", path, "--out", str(b)]) == 0
        want = ExperimentConfig.from_file(path).config_hash()
        assert json.loads((a / "meta.json").read_text())["config_hash"] == want
        assert json.loads((b / "estimate.json").read_text())["config_hash"] == want
        assert not (tmp_path / "out").exists()
        assert main(["compare", "--surface", str(a / "surface.csv"),
                     "--estimate", str(b / "estimate.json")]) == 0

    def test_hash_mismatch_refused(self, tmp_path):
        out = self.run_pair(tmp_path, paths=300)
        est = json.loads((out / "estimate.json").read_text())
        est["config_hash"] = "deadbeef"
        (out / "estimate.json").write_text(json.dumps(est))
        rc = main([
            "compare", "--surface", str(out / "surface.csv"),
            "--estimate", str(out / "estimate.json"),
        ])
        assert rc == 2
        rc = main([
            "compare", "--surface", str(out / "surface.csv"),
            "--estimate", str(out / "estimate.json"), "--force",
        ])
        assert rc == 0

    def test_x0_outside_the_grid_not_extrapolated(self, tmp_path, capsys):
        out = self.run_pair(tmp_path, paths=300)
        est = json.loads((out / "estimate.json").read_text())
        est["x0"] = [30.0]  # the grid spans [-4, 4]
        (out / "estimate.json").write_text(json.dumps(est))
        capsys.readouterr()
        assert main(["compare", "--surface", str(out / "surface.csv"),
                     "--estimate", str(out / "estimate.json"), "--interpolate"]) == 2
        assert capsys.readouterr().err == ("config error: x0 = 30.0 lies outside the "
                                           "surface grid [-4.0, 4.0]\n")
        assert not (out / "comparison.json").exists()

    @pytest.mark.parametrize("blocked, message", [
        ("file", "File exists"), ("long_name", "File name too long"),
    ], ids=["out_is_a_file", "out_name_too_long"])
    def test_unusable_out_exits_2(self, tmp_path, capsys, blocked, message):
        out = self.run_pair(tmp_path, paths=300)
        dest = tmp_path / ("x" * 300 if blocked == "long_name" else "dest")
        if blocked == "file":
            dest.write_text("")
        capsys.readouterr()
        assert main(["compare", "--surface", str(out / "surface.csv"),
                     "--estimate", str(out / "estimate.json"), "--out", str(dest)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error: ")
        assert message in err

    @pytest.mark.parametrize("x0, rc", [([6.0, 0.0], 0), ([6.0, 3e-9], 2)])
    def test_x0_on_grid_coordinate_by_coordinate(self, tmp_path, capsys, x0, rc):
        # Grid.node_index's rule: x2 = 3e-9 lies within grid_tol(|x0|) = 6e-9
        # of the node (6, 0), but not within grid_tol(3e-9) = 1e-9
        out = tmp_path / "out"
        raw = hat_box_config(out)
        assert main(["solve", "--config", write_config(tmp_path, raw)]) == 0
        meta = json.loads((out / "meta.json").read_text())
        (out / "estimate.json").write_text(json.dumps(
            {"t": 0.5, "x0": x0, "mean": 0.0, "se": 0.0, "config_hash": meta["config_hash"]}))
        assert self.compare(out) == rc
        grid = ExperimentConfig.from_dict(raw).grid()
        if rc:
            assert capsys.readouterr().err == (
                "config error: x0 is not a node of the surface grid; "
                "pass --interpolate to allow interpolation\n")
            with pytest.raises(ValueError, match="is not a node"):
                grid.node_index(x0)
        else:
            _, layer = cli._read_layer(out / "surface.csv", 0.5)
            want = layer[np.ravel_multi_index(grid.node_index(x0), grid.shape), -1]
            assert json.loads((out / "comparison.json").read_text())["pide_value"] == want

    def test_off_grid_x0_needs_interpolate(self, tmp_path):
        out = self.run_pair(tmp_path, paths=300)
        est = json.loads((out / "estimate.json").read_text())
        est["x0"] = [0.012]  # not a node of the 0.05-spaced grid
        (out / "estimate.json").write_text(json.dumps(est))
        rc = main([
            "compare", "--surface", str(out / "surface.csv"),
            "--estimate", str(out / "estimate.json"),
        ])
        assert rc == 2
        rc = main([
            "compare", "--surface", str(out / "surface.csv"),
            "--estimate", str(out / "estimate.json"), "--interpolate",
        ])
        assert rc == 0
        _, layer = cli._read_layer(out / "surface.csv", 0.5)
        want = float(np.interp(0.012, layer[:, 1], layer[:, 2]))
        assert json.loads((out / "comparison.json").read_text())["pide_value"] == want
