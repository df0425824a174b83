import json
import warnings
from dataclasses import asdict

import numpy as np
import pytest

import nlaffine as nl
from nlaffine import cli
from nlaffine.config import compound_poisson_set


def report_json(report, tmp_path) -> str:
    """report as the CLI writes it to report.json."""
    path = tmp_path / "report.json"
    cli._write_json(path, asdict(report))
    return path.read_text()


def report_content(report, tmp_path):
    d = json.loads(report_json(report, tmp_path))
    d.pop("timestamp")
    return d


class TestComparisonConditions:
    def test_zero_parameter_all_clauses_trivial(self):
        ps = nl.FiniteParameterSet([nl.AffineParameter.zero(1)])
        rep = nl.check_comparison_conditions(ps, ([-1.0], [1.0]), n_samples=40)
        assert rep.status == "pass"
        assert rep.clauses["boundedness"]["local_sup"] == 0.0
        assert rep.clauses["boundedness"]["jump_integral_sup"] == 0.0
        assert rep.clauses["continuity"]["sqrt_diffusion_lipschitz"] == 0.0

    def test_tails_vanish_exactly_beyond_atoms(self):
        h = nl.TruncationFunction(1.0)
        m = nl.AtomicLevyMeasure([[0.5], [2.0]], [1.0, 0.3])
        ps = compound_poisson_set([0.5, 1.5], [m], h)
        rep = nl.check_comparison_conditions(ps, ([-2.0], [2.0]), n_samples=40)
        small = rep.clauses["tightness"]["small_jump_tail"]
        large = rep.clauses["tightness"]["large_jump_tail"]
        assert small[min(small)] == 0.0
        assert large[max(large)] == 0.0
        assert rep.clauses["tightness"]["status"] == "pass"

    def test_exact_drift_lipschitz_constant(self):
        theta = nl.AffineParameter.scalar(beta0=0.3, beta1=-1.7)
        ps = nl.FiniteParameterSet([theta])
        rep = nl.check_comparison_conditions(ps, ([-1.0], [1.0]), n_samples=40)
        assert rep.clauses["continuity"]["drift_lipschitz"] == 1.7

    def test_sqrt_kink_flags_continuity(self, tmp_path):
        theta = nl.AffineParameter.scalar(alpha1=1.0)  # a(x) = x+, kink at 0
        ps = nl.FiniteParameterSet([theta])
        rep = nl.check_comparison_conditions(ps, ([-1.0], [4.0]), n_samples=60)
        assert rep.status == "fail"
        assert rep.clauses["continuity"]["status"] == "fail"
        assert rep.clauses["continuity"]["sqrt_diffusion_lipschitz"] == np.inf
        assert rep.witnesses == [{"clause": "continuity", "state": [-1.0], "vertex": 0}]
        assert json.loads(report_json(rep, tmp_path))["clauses"]["continuity"][
            "sqrt_diffusion_lipschitz"] == "inf"

    def test_deterministic_given_inputs(self, tmp_path):
        h = nl.TruncationFunction(1.0)
        m = nl.AtomicLevyMeasure([[1.0]], [1.0])
        ps = compound_poisson_set([0.5, 1.0], [m], h)
        r1 = nl.check_comparison_conditions(ps, ([-2.0], [2.0]), n_samples=50)
        r2 = nl.check_comparison_conditions(ps, ([-2.0], [2.0]), n_samples=50)
        assert report_content(r1, tmp_path) == report_content(r2, tmp_path)

    def test_json_stable_key_order(self, tmp_path):
        ps = nl.FiniteParameterSet([nl.AffineParameter.zero(1)])
        rep = nl.check_comparison_conditions(ps, ([-1.0], [1.0]), n_samples=20)
        text = report_json(rep, tmp_path)
        assert report_json(rep, tmp_path) == text
        keys = list(json.loads(text))
        assert keys == sorted(keys)


def hat_box2d():
    """The 2-D hat-mode box of the benchmark's hat_box2d workload: 8 vertices
    from the alpha_0 entries, two opposite jump atoms."""
    zero = np.zeros((2, 2))
    atom = [0.37, -0.61]
    nu = nl.AtomicLevyMeasure([atom, [-z for z in atom]], [0.25, 0.25])
    empty = nl.AtomicLevyMeasure.empty(2)
    return nl.CoefficientBox(
        np.zeros((3, 2)), np.zeros((3, 2)),
        [[[0.25, -0.1], [-0.1, 0.25]], zero, zero],
        [[[1.0, 0.1], [0.1, 1.0]], zero, zero],
        nu_tuples=[(nu, empty, empty)])


class TestUniquenessGate:
    def test_hat_box2d_passes(self):
        ps = hat_box2d()
        assert len(ps.vertices()) == 8
        rep = nl.uniqueness_gate(ps, ([-6.0, -6.0], [6.0, 6.0]), n_samples=64)
        assert rep.status == "pass"
        continuity = rep.clauses["comparison"]["continuity"]
        assert continuity["status"] == "pass"
        assert continuity["sqrt_diffusion_lipschitz"] == 0.0
        assert rep.witnesses == []

    def test_constant_gaussian_passes(self):
        theta = nl.AffineParameter.scalar(beta0=0.1, alpha0=0.5)
        ps = nl.FiniteParameterSet([theta])
        rep = nl.uniqueness_gate(ps, ([-3.0], [3.0]), n_samples=60)
        assert rep.status == "pass"

    def test_compound_poisson_passes(self):
        h = nl.TruncationFunction(1.0)
        m = nl.AtomicLevyMeasure([[1.0]], [1.0])
        ps = compound_poisson_set([0.5, 1.5], [m], h)
        rep = nl.uniqueness_gate(ps, ([-3.0], [3.0]), n_samples=60)
        assert rep.status == "pass"  # no diffusion at all

    def test_positive_part_diffusion_fails(self):
        theta = nl.AffineParameter.scalar(alpha1=1.0)
        ps = nl.FiniteParameterSet([theta])
        rep = nl.uniqueness_gate(ps, ([-1.0], [4.0]), n_samples=60)
        assert rep.status == "fail"

    @pytest.mark.parametrize("beta0", [[1e200], [3e200, -4e200]])
    def test_huge_drift_does_not_overflow(self, beta0):
        d = len(beta0)
        beta = np.zeros((d + 1, d))
        beta[0] = beta0
        ps = nl.FiniteParameterSet([nl.AffineParameter(beta, np.zeros((d + 1, d, d)))])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = nl.uniqueness_gate(ps, ([-1.0] * d, [1.0] * d), n_samples=20)
        bounds = rep.clauses["coefficient_bounds"]
        boundedness = rep.clauses["comparison"]["boundedness"]
        assert bounds["status"] == boundedness["status"] == rep.status == "pass"
        assert bounds["growth"] == boundedness["local_sup"] == pytest.approx(
            [1e200, 5e200][d - 1], rel=1e-15)

    def test_gate_pass_implies_linear_bound(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            theta = nl.AffineParameter.scalar(
                beta0=float(rng.normal()), beta1=float(rng.normal()),
                alpha0=float(rng.uniform(0.1, 1.0)),
            )
            ps = nl.FiniteParameterSet([theta])
            rep = nl.uniqueness_gate(ps, ([-2.0], [2.0]), n_samples=30)
            if rep.status == "pass":
                assert nl.check_linear_bound(ps).passed
