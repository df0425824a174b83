"""Hypothesis checkers gating the solver modes: one-dimensional
admissibility, coefficient growth bounds, the comparison-principle clauses
(boundedness, tightness, continuity), and the uniqueness gate for hat-mode
solves."""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field

import numpy as np

from .generator import GeneratorMode, sqrt_diffusion_lipschitz
from .params import (
    WEIGHT_TOL,
    AffineParameter,
    CoefficientBoundReport,
    DimensionError,
    FiniteParameterSet,
    affine_at,
    atom_norms,
    check_coefficient_bounds,
    check_linear_bound,
    jump_tails,
    linear_part_norm,
)


def jsonable(obj):
    """obj with str dict keys, lists for tuples and arrays, Python scalars
    for NumPy ones and repr strings for non-finite floats: what json writes
    as strict JSON, with sort_keys well defined."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    return obj


@dataclass
class AdmissibilityResult:
    admissible: bool
    violations: list[str]


def check_admissible(theta: AffineParameter, mode: GeneratorMode) -> AdmissibilityResult:
    """One-dimensional admissibility under a standard mode, on the half-line
    or the full line.  The half-line drift condition is on beta0 - sum nu0 h
    with the mode's h (Duffie, Filipovic & Schachermayer 2003, Def. 2.6)."""
    if mode.is_hat:
        raise ValueError("admissibility is defined for a standard mode")
    if theta.dim != 1 or mode.space.dim != 1:
        raise DimensionError("admissibility check is defined for d = 1")
    tol = WEIGHT_TOL
    a0 = float(theta.alpha[0, 0, 0])
    a1 = float(theta.alpha[1, 0, 0])
    nu0, nu1 = theta.nu
    bad: list[str] = []
    if not mode.space.is_full:
        b0 = float(mode.coefficients(theta).net_drift[0, 0])
        if b0 < -tol:
            bad.append(f"beta0 - sum nu0 h >= 0 violated (net drift {b0})")
        if abs(a0) > tol:
            bad.append(f"alpha0 = 0 violated (alpha0 = {a0})")
        if a1 < -tol:
            bad.append(f"alpha1 >= 0 violated (alpha1 = {a1})")
        for name, m in (("nu0", nu0), ("nu1", nu1)):
            if m.min_weight() < -tol:
                bad.append(f"{name} >= 0 violated (min weight {m.min_weight()})")
            if np.any(m.atoms[:, 0] <= 0.0):
                bad.append(f"{name} support in the positive half-line violated")
            z = np.abs(m.atoms[:, 0])
            if not np.isfinite(np.sum(np.abs(m.weights) * np.minimum(z, 1.0))):
                bad.append(f"{name} small-jump first moment not finite")
    else:
        if a0 < -tol:
            bad.append(f"alpha0 >= 0 violated (alpha0 = {a0})")
        if abs(a1) > tol:
            bad.append(f"alpha1 = 0 violated (alpha1 = {a1})")
        if not nu1.is_empty():
            bad.append("nu1 = 0 violated")
        if nu0.min_weight() < -tol:
            bad.append(f"nu0 >= 0 violated (min weight {nu0.min_weight()})")
    return AdmissibilityResult(admissible=not bad, violations=bad)


@dataclass
class ConditionReport:
    name: str
    status: str  # pass | fail
    clauses: dict = field(default_factory=dict)
    witnesses: list = field(default_factory=list)
    timestamp: str = ""
    config_hash: str = ""

    def __post_init__(self):
        if not self.timestamp:
            self.timestamp = datetime.datetime.now(datetime.timezone.utc).isoformat()


def check_comparison_conditions(theta_set: FiniteParameterSet, sample_box,
                                n_samples: int = 128) -> ConditionReport:
    """Boundedness, tightness and continuity of the hat-mode coefficient
    family, which together back the comparison/uniqueness argument.

    (i) records sup over samples and vertices of |b| + |sqrt a|, plus the
    jump-measure integrability value; (ii) checks the small-size and
    large-size jump tails vanish exactly beyond the extreme atoms; (iii)
    computes the drift and sqrt-diffusion Lipschitz constants exactly (the
    operator norm of the drift's linear part; `sqrt_diffusion_lipschitz`,
    which also raises CoefficientError where the diffusion is not PSD on the
    box) and fails when the latter is infinite.
    """
    lo = np.atleast_1d(np.asarray(sample_box[0], dtype=float))
    hi = np.atleast_1d(np.asarray(sample_box[1], dtype=float))
    d = theta_set.dim
    rng = np.random.default_rng(0)  # fixed: a report depends on its inputs only
    xs = lo + rng.uniform(size=(n_samples, d)) * (hi - lo)
    vertices = theta_set.vertices()

    clauses: dict = {}
    witnesses: list = []

    # (i) boundedness
    local_sup = 0.0
    jump_sup = 0.0
    hat = GeneratorMode.hat()
    for theta in vertices:
        a = hat.coefficients(theta).diffusion(xs)
        top = np.clip(np.linalg.eigvalsh(a)[:, -1], 0.0, None)
        b = affine_at(theta.beta, xs)
        b_norm = np.hypot.reduce(np.abs(b), axis=1)  # |b| at d = 1: no squares to overflow
        local_sup = max(local_sup, float(np.max(b_norm + np.sqrt(top), initial=0.0)))
        jump_sup = max(jump_sup, sum(jump_tails(theta.nu[0], 1.0)))
    clauses["boundedness"] = {
        "status": "pass" if np.isfinite(local_sup) and np.isfinite(jump_sup) else "fail",
        "local_sup": local_sup,
        "jump_integral_sup": jump_sup,
    }

    # (ii) tightness: exact tails for atomic measures
    norms = atom_norms(theta.nu[0] for theta in vertices)
    small, large = (float(norms.min()), float(norms.max())) if norms.size else (1.0, 1.0)
    small_grid = [small * 2.0**-k for k in range(6)]
    large_grid = [large * 2.0**k for k in range(6)]

    def worst_tail(r: float, which: int) -> float:
        return max([0.0] + [jump_tails(theta.nu[0], r)[which] for theta in vertices])

    small_tail = {r: worst_tail(r, 0) for r in small_grid}
    large_tail = {r: worst_tail(r, 1) for r in large_grid}
    tight_ok = (
        small_tail[min(small_tail)] == 0.0 and large_tail[max(large_tail)] == 0.0
    )
    clauses["tightness"] = {
        "status": "pass" if tight_ok else "fail",
        "small_jump_tail": small_tail,
        "large_jump_tail": large_tail,
    }
    if not tight_ok:
        witnesses.append({"clause": "tightness", "tables": [small_tail, large_tail]})

    # (iii) continuity: exact drift and sqrt-diffusion constants
    drift_lip = max(linear_part_norm(t, "beta") for t in vertices)
    est = sqrt_diffusion_lipschitz(theta_set, (lo, hi))
    cont_ok = bool(np.isfinite(est.constant))
    clauses["continuity"] = {
        "status": "pass" if cont_ok else "fail",
        "drift_lipschitz": drift_lip,
        "sqrt_diffusion_lipschitz": est.constant,
    }
    if not cont_ok:
        witnesses.append({"clause": "continuity", "state": est.state.tolist(),
                          "vertex": est.vertex})

    status = "fail" if any(c["status"] == "fail" for c in clauses.values()) else "pass"
    return ConditionReport("comparison_conditions", status, clauses, witnesses)


def uniqueness_gate(theta_set: FiniteParameterSet, sample_box,
                    n_samples: int = 128,
                    bounds: CoefficientBoundReport | None = None) -> ConditionReport:
    """Run every hat-mode prerequisite: coefficient bounds, the linear-part
    bound and the comparison clauses; a clause whose growth or bound is not
    finite fails.  The status is pass or fail; a hat-mode solve is labelled
    as the certified-unique solution only when it passes, and still runs
    (with a warning) when it fails.  `bounds`, when given, is
    check_coefficient_bounds(theta_set) already at hand."""
    if bounds is None:
        bounds = check_coefficient_bounds(theta_set)
    linear = check_linear_bound(theta_set)
    comparison = check_comparison_conditions(theta_set, sample_box, n_samples)
    # an overflowing growth or bound compares as passed, but certifies nothing
    bounds_ok = bounds.passed and np.isfinite(bounds.growth)
    linear_ok = linear.passed and np.isfinite(linear.bound)
    failed = not (bounds_ok and linear_ok) or comparison.status == "fail"
    status = "fail" if failed else "pass"
    clauses = {
        "coefficient_bounds": {
            "status": "pass" if bounds_ok else "fail",
            "growth": bounds.growth,
            "min_atom_norm": bounds.min_atom_norm,
        },
        "linear_part_bound": {
            "status": "pass" if linear_ok else "fail",
            "bound": linear.bound,
        },
        "comparison": comparison.clauses,
    }
    witnesses = list(comparison.witnesses)
    return ConditionReport("uniqueness_gate", status, clauses, witnesses)
