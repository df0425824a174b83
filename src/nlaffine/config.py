"""Experiment configuration: a JSON-compatible text format with exact
numeric round-trip, the named example registry, and builders for every
runtime object the CLI dispatches to.

Coefficients may be written as JSON numbers or as decimal strings; parsing
normalises to floats and the canonical serialisation uses shortest exact
float representation, so parse -> serialise -> parse is the identity.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .generator import GeneratorMode, TestFunction
from .montecarlo import SimConfig
from .params import (
    AffineParameter,
    AtomicLevyMeasure,
    CoefficientBox,
    FiniteParameterSet,
    ParameterSet,
    StateSpace,
    TruncationFunction,
)
from .payoffs import make_payoff
from .pide import Grid, SchemeConfig


class ConfigError(ValueError):
    pass


def _num(v) -> float:
    if isinstance(v, bool) or v is None:
        raise ConfigError(f"expected a number, got {v!r}")
    try:
        return float(v)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"expected a number, got {v!r}") from exc


def _num_list(v) -> list[float]:
    if not isinstance(v, (list, tuple)):
        raise ConfigError(f"expected a list of numbers, got {v!r}")
    return [_num(x) for x in v]


def _interval(v) -> list[float]:
    pair = _num_list(v)
    if len(pair) != 2 or pair[0] > pair[1]:
        raise ConfigError(f"expected an interval [lo, hi], got {v!r}")
    return pair


# ---------------------------------------------------------------------------
# measures and parameters <-> JSON


def measure_from_json(mj, dim: int) -> AtomicLevyMeasure:
    if mj in (None, []):
        return AtomicLevyMeasure.empty(dim)
    atoms, weights = [], []
    for entry in mj:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise ConfigError(f"measure atoms must be [size, weight] pairs, got {entry!r}")
        z, w = entry
        z = [_num(z)] if not isinstance(z, (list, tuple)) else _num_list(z)
        if len(z) != dim:
            raise ConfigError(f"atom {z!r} does not have dimension {dim}")
        atoms.append(z)
        weights.append(_num(w))
    return AtomicLevyMeasure(atoms, weights, dim=dim)


def measure_to_json(m: AtomicLevyMeasure) -> list:
    out = []
    for z, w in zip(m.atoms, m.weights):
        zc = float(z[0]) if m.dim == 1 else [float(c) for c in z]
        out.append([zc, float(w)])
    return out


def theta_from_json(tj: dict, dim: int) -> AffineParameter:
    beta = [_num_list(row) if isinstance(row, (list, tuple)) else [_num(row)]
            for row in tj["beta"]]
    alpha_raw = tj["alpha"]
    alpha = []
    for comp in alpha_raw:
        if isinstance(comp, (list, tuple)) and comp and isinstance(comp[0], (list, tuple)):
            alpha.append([_num_list(r) for r in comp])
        else:
            alpha.append([[_num(comp if not isinstance(comp, (list, tuple)) else comp[0])]])
    nu = tuple(measure_from_json(mj, dim) for mj in tj.get("nu", [None] * (dim + 1)))
    if len(nu) != dim + 1:
        raise ConfigError(f"need {dim + 1} jump measures, got {len(nu)}")
    return AffineParameter(np.array(beta), np.array(alpha), nu)


def theta_to_json(theta: AffineParameter) -> dict:
    return {
        "beta": theta.beta.tolist(),
        "alpha": theta.alpha.tolist(),
        "nu": [measure_to_json(m) for m in theta.nu],
    }


# ---------------------------------------------------------------------------
# named example registry


def _truncation_moment(measure: AtomicLevyMeasure, h: TruncationFunction) -> np.ndarray:
    """integral of h against the measure: sum_i w_i h(z_i)."""
    if measure.is_empty():
        return np.zeros(measure.dim)
    return np.sum(
        measure.weights[:, None] * np.array([h(z) for z in measure.atoms]), axis=0
    )


def compound_poisson_set(lam_interval, measures, h: TruncationFunction) -> FiniteParameterSet:
    """Pure-jump family: intensity in an interval, jump law from the convex
    hull of a finite measure list; drift carries the h-moment of the scaled
    law so the tuple is authored consistently with h."""
    lo, hi = lam_interval
    lams = [lo] if lo == hi else [lo, hi]
    params = []
    for lam in lams:
        for m in measures:
            scaled = m.scaled(lam)
            b0 = float(_truncation_moment(scaled, h)[0])
            params.append(AffineParameter.scalar(beta0=b0, nu0=scaled))
    return FiniteParameterSet(params)


def generalized_compound_poisson_set(lam0_interval, lam1_interval, measures,
                                     h: TruncationFunction) -> FiniteParameterSet:
    """State-dependent intensity lam0 + lam1 x on the half-line."""
    l0lo, l0hi = lam0_interval
    l1lo, l1hi = lam1_interval
    l0s = [l0lo] if l0lo == l0hi else [l0lo, l0hi]
    l1s = [l1lo] if l1lo == l1hi else [l1lo, l1hi]
    params = []
    for l0 in l0s:
        for l1 in l1s:
            for m in measures:
                m0 = m.scaled(l0)
                m1 = m.scaled(l1)
                params.append(
                    AffineParameter.scalar(
                        beta0=float(_truncation_moment(m0, h)[0]),
                        beta1=float(_truncation_moment(m1, h)[0]),
                        nu0=m0,
                        nu1=m1,
                    )
                )
    return FiniteParameterSet(params)


def gaussian_box_set(drift_interval, variance_interval) -> CoefficientBox:
    """Driftless-jump diffusion box: constant drift and variance intervals."""
    blo, bhi = drift_interval
    vlo, vhi = variance_interval
    if vlo < 0:
        raise ConfigError("variance interval must be nonnegative")
    return CoefficientBox(
        beta_lo=[[blo], [0.0]],
        beta_hi=[[bhi], [0.0]],
        alpha_lo=[[[vlo]], [[0.0]]],
        alpha_hi=[[[vhi]], [[0.0]]],
    )


EXAMPLE_NAMES = (
    "compound_poisson",
    "generalized_compound_poisson",
    "gaussian_box",
    "singleton",
)


def parameter_set_from_json(spec: dict, dim: int,
                            h: TruncationFunction) -> ParameterSet:
    kind = spec.get("kind", "example" if "name" in spec else None)
    if kind == "finite":
        return FiniteParameterSet(
            [theta_from_json(tj, dim) for tj in spec["parameters"]]
        )
    if kind == "box":
        nu_tuples = None
        if spec.get("nu_tuples"):
            nu_tuples = [
                tuple(measure_from_json(mj, dim) for mj in tup)
                for tup in spec["nu_tuples"]
            ]
        return CoefficientBox(
            beta_lo=np.array([_num_list(r) if isinstance(r, list) else [_num(r)] for r in spec["beta_lo"]]),
            beta_hi=np.array([_num_list(r) if isinstance(r, list) else [_num(r)] for r in spec["beta_hi"]]),
            alpha_lo=np.array(spec["alpha_lo"], dtype=float).reshape(dim + 1, dim, dim),
            alpha_hi=np.array(spec["alpha_hi"], dtype=float).reshape(dim + 1, dim, dim),
            nu_tuples=nu_tuples,
        )
    if kind == "example":
        name = spec.get("name")
        if name not in EXAMPLE_NAMES:
            raise ConfigError(
                f"unknown example {name!r}; registered: {EXAMPLE_NAMES}"
            )
        if name == "singleton":
            return FiniteParameterSet([theta_from_json(spec["parameter"], dim)])
        if name == "gaussian_box":
            return gaussian_box_set(_interval(spec["drift"]), _interval(spec["variance"]))
        measures = [measure_from_json(mj, dim) for mj in spec["measures"]]
        if name == "compound_poisson":
            return compound_poisson_set(_interval(spec["lambda"]), measures, h)
        return generalized_compound_poisson_set(
            _interval(spec["lambda0"]), _interval(spec["lambda1"]), measures, h
        )
    raise ConfigError(f"parameter_set.kind must be finite/box/example, got {kind!r}")


# ---------------------------------------------------------------------------
# experiment config


_DEFAULTS = {
    "mode": "standard",
    "truncation_radius": 1.0,
    "output_dir": "out",
}


class ExperimentConfig:
    """Normalised experiment description; `data` is the canonical dict."""

    def __init__(self, data: dict):
        self.data = data

    # -- parsing ------------------------------------------------------------

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be an object")
        data = _normalize(raw)
        cfg = cls(data)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        # building every object surfaces field errors early
        self.grid()
        self.mode()
        self.payoff()
        self.theta_set()
        self.scheme()
        if "sim" in self.data:
            self.sim_config()

    # -- canonical form -----------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(self.data, sort_keys=True, indent=2)

    def config_hash(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()

    # -- builders -----------------------------------------------------------

    @property
    def dimension(self) -> int:
        return int(self.data.get("dimension", 1))

    @property
    def horizon(self) -> float:
        try:
            return float(self.data["horizon"])
        except KeyError as exc:
            raise ConfigError("missing field: horizon") from exc

    @property
    def output_dir(self) -> str:
        return self.data.get("output_dir", "out")

    def truncation(self) -> TruncationFunction:
        return TruncationFunction(float(self.data.get("truncation_radius", 1.0)))

    def state_space(self) -> StateSpace:
        spec = self.data.get("state_space")
        if spec is None:
            return StateSpace.full(self.dimension)
        kind = spec.get("kind", "full")
        if kind == "full":
            return StateSpace.full(self.dimension)
        if kind == "half":
            return StateSpace.half(
                self.dimension, int(spec.get("nonneg_coords", self.dimension))
            )
        raise ConfigError(f"state_space.kind must be full or half, got {kind!r}")

    def mode(self) -> GeneratorMode:
        kind = self.data.get("mode", "standard")
        if kind == "hat":
            return GeneratorMode.hat()
        if kind == "standard":
            return GeneratorMode.standard(self.state_space())
        raise ConfigError(f"mode must be standard or hat, got {kind!r}")

    def payoff(self) -> TestFunction:
        spec = self.data.get("payoff")
        if not isinstance(spec, dict) or "name" not in spec:
            raise ConfigError("payoff must be an object with a name")
        kwargs = {k: v for k, v in spec.items() if k != "name"}
        try:
            return make_payoff(spec["name"], **kwargs)
        except KeyError as exc:
            raise ConfigError(str(exc)) from exc

    def grid(self) -> Grid:
        spec = self.data.get("grid")
        if not isinstance(spec, dict):
            raise ConfigError("missing field: grid")
        try:
            return Grid(spec["lower"], spec["upper"], [int(n) for n in spec["nodes"]])
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"bad grid spec: {exc}") from exc

    def theta_set(self) -> ParameterSet:
        spec = self.data.get("parameter_set")
        if not isinstance(spec, dict):
            raise ConfigError("missing field: parameter_set")
        return parameter_set_from_json(spec, self.dimension, self.truncation())

    def scheme(self) -> SchemeConfig:
        spec = self.data.get("scheme", {})
        try:
            return SchemeConfig(
                cfl=float(spec.get("cfl", 0.4)),
                dt=(None if spec.get("dt") is None else float(spec["dt"])),
                min_time_steps=int(spec.get("min_time_steps", 256)),
                r_jump=(None if spec.get("r_jump") is None else float(spec["r_jump"])),
            )
        except ValueError as exc:
            raise ConfigError(f"bad scheme spec: {exc}") from exc

    def sim_config(self, seed_override: int | None = None) -> SimConfig:
        spec = self.data.get("sim")
        if not isinstance(spec, dict):
            raise ConfigError("missing field: sim")
        horizon = float(spec.get("t", self.horizon))
        clamp = None
        if spec.get("clamp_box") is not None:
            clamp = (
                np.asarray(spec["clamp_box"][0], dtype=float),
                np.asarray(spec["clamp_box"][1], dtype=float),
            )
        try:
            return SimConfig(
                dt=float(spec.get("dt", horizon / 64 if horizon > 0 else 0.01)),
                horizon=horizon,
                n_paths=int(spec.get("paths", 10000)),
                seed=int(seed_override if seed_override is not None else spec.get("seed", 0)),
                truncation=self.truncation(),
                clamp_box=clamp,
            )
        except ValueError as exc:
            raise ConfigError(f"bad sim spec: {exc}") from exc

    def sim_x0(self) -> np.ndarray:
        spec = self.data.get("sim", {})
        x0 = spec.get("x0", [0.0] * self.dimension)
        x0 = [x0] if not isinstance(x0, list) else x0
        return np.asarray([float(v) for v in x0])


# fields whose values are genuine strings; everything else that looks like a
# decimal string is coerced to float (exact round-trip via shortest repr)
_STRING_FIELDS = {"mode", "output_dir", "kind", "name"}


def _normalize(obj, key=None):
    """Floats for every numeric leaf (decimal strings included), dicts with
    plain str keys; leaves canonical JSON-serialisable values."""
    if isinstance(obj, dict):
        return {str(k): _normalize(v, str(k)) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_normalize(v, key) for v in obj]
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, (int, float)):
        return obj if isinstance(obj, int) else float(obj)
    if isinstance(obj, str):
        if key in _STRING_FIELDS:
            return obj
        s = obj.strip()
        try:
            f = float(s)
            if s.lower() not in ("nan", "inf", "-inf", "infinity", "-infinity"):
                return f
        except ValueError:
            pass
        return obj
    raise ConfigError(f"unsupported config value {obj!r}")
