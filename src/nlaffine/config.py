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
import sys

import numpy as np

from .generator import GeneratorMode, TestFunction
from .montecarlo import SimConfig
from .params import (
    AffineParameter,
    AtomicLevyMeasure,
    CoefficientBox,
    FiniteParameterSet,
    StateSpace,
    TruncationFunction,
    truncation_moment,
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
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"expected a number, got {v!r}") from exc


def _int(v, field: str) -> int:
    """An integer field that a float can hold; a float is accepted only if
    it is integral."""
    if (isinstance(v, bool) or not isinstance(v, (int, float))
            or not abs(v) <= sys.float_info.max or v != int(v)):
        raise ConfigError(f"{field} must be an integer, got {v!r}")
    return int(v)


def _num_list(v) -> list[float]:
    if not isinstance(v, (list, tuple)):
        raise ConfigError(f"expected a list of numbers, got {v!r}")
    return [_num(x) for x in v]


def _nums(v):
    """A number, or nested lists of numbers, with every leaf read by _num."""
    return [_nums(x) for x in v] if isinstance(v, (list, tuple)) else _num(v)


def _coefficients(v, shape: tuple) -> np.ndarray:
    """Nested lists of numbers read as an array of `shape`, every leaf read
    by _num.  Trailing unit axes may be left out, so with d = 1 both
    [0.5, 0.0] and [[0.5], [0.0]] read as beta or alpha."""
    leaves = _nums(v)
    try:
        a = np.array(leaves, dtype=float)
    except ValueError:
        a = None  # ragged nesting
    if a is None or a.ndim == 0 or a.shape != shape[:a.ndim] or any(
            n != 1 for n in shape[a.ndim:]):
        raise ConfigError(f"expected coefficients of shape {shape}, got {v!r}")
    return a.reshape(shape)


def _known(spec: dict, block: str, fields) -> None:
    """Refuse a field of the object `spec` that is not in `fields`: a
    misspelled field would otherwise be ignored and its default used."""
    for name in spec:
        if name not in fields:
            raise ConfigError(f"unknown field {name!r} in {block}; "
                              f"known: {', '.join(fields)}")


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


def theta_from_json(tj: dict, dim: int, block: str = "parameter") -> AffineParameter:
    if not isinstance(tj, dict):
        raise ConfigError(f"{block} must be an object, got {tj!r}")
    _known(tj, block, ("beta", "alpha", "nu"))
    beta = _coefficients(tj["beta"], (dim + 1, dim))
    alpha = _coefficients(tj["alpha"], (dim + 1, dim, dim))
    nu = [measure_from_json(mj, dim) for mj in tj["nu"]] if "nu" in tj else None
    return AffineParameter(beta, alpha, nu)


# ---------------------------------------------------------------------------
# named example registry


def compound_poisson_set(lam_interval, measures, h: TruncationFunction) -> FiniteParameterSet:
    """Pure-jump family: intensity in an interval, jump law from the convex
    hull of a finite measure list; drift carries the h-moment of the scaled
    law so the tuple is authored consistently with h."""
    return generalized_compound_poisson_set(lam_interval, (0.0, 0.0), measures, h)


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
                        beta0=float(truncation_moment(m0.atoms, m0.weights, h)[0]),
                        beta1=float(truncation_moment(m1.atoms, m1.weights, h)[0]),
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


# each named example and the fields it reads besides kind and name
EXAMPLE_FIELDS = {
    "compound_poisson": ("lambda", "measures"),
    "generalized_compound_poisson": ("lambda0", "lambda1", "measures"),
    "gaussian_box": ("drift", "variance"),
    "singleton": ("parameter",),
}
EXAMPLE_NAMES = tuple(EXAMPLE_FIELDS)


def parameter_set_from_json(spec: dict, dim: int,
                            h: TruncationFunction) -> FiniteParameterSet:
    kind = spec.get("kind", "example" if "name" in spec else None)
    if kind == "finite":
        _known(spec, "parameter_set", ("kind", "parameters"))
        return FiniteParameterSet(
            [theta_from_json(tj, dim, f"parameter_set.parameters[{i}]")
             for i, tj in enumerate(spec["parameters"])]
        )
    if kind == "box":
        _known(spec, "parameter_set", ("kind", "beta_lo", "beta_hi", "alpha_lo",
                                       "alpha_hi", "nu_tuples"))
        nu_tuples = None
        if spec.get("nu_tuples"):
            nu_tuples = [
                tuple(measure_from_json(mj, dim) for mj in tup)
                for tup in spec["nu_tuples"]
            ]
        return CoefficientBox(
            beta_lo=_coefficients(spec["beta_lo"], (dim + 1, dim)),
            beta_hi=_coefficients(spec["beta_hi"], (dim + 1, dim)),
            alpha_lo=_coefficients(spec["alpha_lo"], (dim + 1, dim, dim)),
            alpha_hi=_coefficients(spec["alpha_hi"], (dim + 1, dim, dim)),
            nu_tuples=nu_tuples,
        )
    if kind == "example":
        name = spec.get("name")
        if name not in EXAMPLE_NAMES:
            raise ConfigError(
                f"unknown example {name!r}; registered: {EXAMPLE_NAMES}"
            )
        _known(spec, f"parameter_set (example {name})",
               ("kind", "name") + EXAMPLE_FIELDS[name])
        if name == "singleton":
            return FiniteParameterSet([theta_from_json(spec["parameter"], dim,
                                                       "parameter_set.parameter")])
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


class ExperimentConfig:
    """Normalised experiment description; `data` is the canonical dict."""

    def __init__(self, data: dict):
        self.data = data
        self._theta_set = None  # built on the first theta_set() call

    # -- parsing ------------------------------------------------------------

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
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
        _known(self.data, "the config", (
            "dimension", "horizon", "output_dir", "truncation_radius", "state_space",
            "mode", "payoff", "grid", "parameter_set", "scheme", "sim"))
        if "horizon" in self.data:
            self.horizon
        self.grid()
        self.mode()
        self.output_dir
        self.payoff()
        self.theta_set()
        self.scheme()
        if "sim" in self.data:
            clamp = self.sim_config().clamp_box
            x0 = self.sim_x0()
            if clamp is not None and (np.any(x0 < clamp[0]) or np.any(x0 > clamp[1])):
                raise ConfigError(f"sim.x0 {x0.tolist()} lies outside sim.clamp_box")

    # -- canonical form -----------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(self.data, sort_keys=True, indent=2)

    def config_hash(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()

    # -- builders -----------------------------------------------------------

    @property
    def dimension(self) -> int:
        dim = _int(self.data.get("dimension", 1), "dimension")
        if dim < 1:
            raise ConfigError(f"dimension must be at least 1, got {dim}")
        return dim

    @property
    def horizon(self) -> float:
        try:
            horizon = _num(self.data["horizon"])
        except KeyError as exc:
            raise ConfigError("missing field: horizon") from exc
        if not horizon >= 0.0:
            raise ConfigError(f"horizon must be nonnegative, got {horizon!r}")
        return horizon

    @property
    def output_dir(self) -> str:
        out = self.data.get("output_dir", "out")
        if not isinstance(out, str):
            raise ConfigError(f"output_dir must be a string, got {out!r}")
        return out

    def truncation(self) -> TruncationFunction:
        try:
            return TruncationFunction(_num(self.data.get("truncation_radius", 1.0)))
        except ValueError as exc:
            raise ConfigError(f"bad truncation_radius: {exc}") from exc

    def state_space(self) -> StateSpace:
        spec = self.data.get("state_space")
        if spec is None:
            return StateSpace.full(self.dimension)
        if not isinstance(spec, dict):
            raise ConfigError(f"state_space must be an object, got {spec!r}")
        _known(spec, "state_space", ("kind", "nonneg_coords"))
        kind = spec.get("kind", "full")
        if kind == "full":
            return StateSpace.full(self.dimension)
        if kind == "half":
            dim = self.dimension
            m = _int(spec.get("nonneg_coords", dim), "state_space.nonneg_coords")
            if not 0 <= m <= dim:
                raise ConfigError(f"state_space.nonneg_coords must lie in [0, {dim}], "
                                  f"got {m}")
            return StateSpace.half(dim, m)
        raise ConfigError(f"state_space.kind must be full or half, got {kind!r}")

    def mode(self) -> GeneratorMode:
        kind = self.data.get("mode", "standard")
        if kind == "hat":
            radius = self.truncation().radius
            if radius != 1.0:
                raise ConfigError(f"hat mode fixes truncation_radius at 1, got {radius!r}")
            if not self.state_space().is_full:
                raise ConfigError("hat mode has no state space; state_space must be full")
            return GeneratorMode.hat()
        if kind == "standard":
            return GeneratorMode.standard(self.state_space(), self.truncation())
        raise ConfigError(f"mode must be standard or hat, got {kind!r}")

    def payoff(self) -> TestFunction:
        spec = self.data.get("payoff")
        if not isinstance(spec, dict) or "name" not in spec:
            raise ConfigError("payoff must be an object with a name")
        kwargs = {k: v for k, v in spec.items() if k != "name"}
        try:
            return make_payoff(spec["name"], **kwargs)
        except KeyError as exc:
            raise ConfigError(exc.args[0]) from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad payoff: {exc}") from exc

    def grid(self) -> Grid:
        spec = self.data.get("grid")
        if not isinstance(spec, dict):
            raise ConfigError("missing field: grid")
        _known(spec, "grid", ("lower", "upper", "nodes"))
        try:
            nodes = [_int(n, "grid.nodes") for n in spec["nodes"]]
            grid = Grid(_nums(spec["lower"]), _nums(spec["upper"]), nodes)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad grid spec: {exc}") from exc
        if grid.dim != self.dimension:
            raise ConfigError(f"grid of dimension {grid.dim} for dimension {self.dimension}")
        return grid

    def theta_set(self) -> FiniteParameterSet:
        """The parameter set, built once: `validate` and the command share it."""
        if self._theta_set is not None:
            return self._theta_set
        spec = self.data.get("parameter_set")
        if not isinstance(spec, dict):
            raise ConfigError("missing field: parameter_set")
        try:
            self._theta_set = parameter_set_from_json(spec, self.dimension, self.truncation())
        except ConfigError:
            raise
        except KeyError as exc:
            raise ConfigError(f"parameter_set lacks the field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad parameter_set: {exc}") from exc
        return self._theta_set

    def scheme(self) -> SchemeConfig:
        """The scheme block; a key left out takes SchemeConfig's default."""
        spec = self.data.get("scheme", {})
        if not isinstance(spec, dict):
            raise ConfigError(f"scheme must be an object, got {spec!r}")
        read = {"cfl": _num, "dt": lambda v: None if v is None else _num(v),
                "min_time_steps": lambda v: _int(v, "scheme.min_time_steps")}
        _known(spec, "scheme", read)
        try:
            return SchemeConfig(**{k: f(spec[k]) for k, f in read.items() if k in spec})
        except ValueError as exc:
            raise ConfigError(f"bad scheme spec: {exc}") from exc

    def sim_config(self, seed_override: int | None = None) -> SimConfig:
        spec = self.data.get("sim")
        if not isinstance(spec, dict):
            raise ConfigError("missing field: sim")
        _known(spec, "sim", ("t", "dt", "paths", "seed", "x0", "clamp_box"))
        horizon = _num(spec.get("t", self.horizon))
        clamp = spec.get("clamp_box")
        if clamp is not None:
            clamp = tuple(np.array(_num_list(b))
                          for b in (clamp if isinstance(clamp, list) else [clamp]))
            if len(clamp) != 2 or any(b.shape != (self.dimension,) for b in clamp):
                raise ConfigError(f"sim.clamp_box must be [lower, upper] with "
                                  f"{self.dimension} coordinates each")
        try:
            return SimConfig(
                dt=_num(spec.get("dt", horizon / 64 if horizon > 0 else 0.01)),
                horizon=horizon,
                n_paths=_int(spec.get("paths", 10000), "sim.paths"),
                seed=(seed_override if seed_override is not None
                      else _int(spec.get("seed", 0), "sim.seed")),
                clamp_box=clamp,
            )
        except ValueError as exc:
            raise ConfigError(f"bad sim spec: {exc}") from exc

    def sim_x0(self) -> np.ndarray:
        spec = self.data.get("sim", {})
        x0 = spec.get("x0", [0.0] * self.dimension)
        x0 = np.array(_num_list(x0 if isinstance(x0, list) else [x0]))
        if x0.shape != (self.dimension,):
            raise ConfigError(f"sim.x0 must have {self.dimension} coordinates, "
                              f"got {x0.tolist()}")
        return x0


# fields whose values are genuine strings; everything else that looks like a
# decimal string is coerced to float (exact round-trip via shortest repr)
_STRING_FIELDS = {"mode", "output_dir", "kind", "name"}


def _normalize(obj, key=None):
    """Floats for every numeric leaf (decimal strings included), dicts with
    plain str keys; leaves canonical JSON-serialisable values.  A number
    that is not finite (NaN, an infinity, a decimal string that overflows)
    is rejected here, once for every field."""
    if isinstance(obj, dict):
        return {str(k): _normalize(v, str(k)) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_normalize(v, key) for v in obj]
    if isinstance(obj, (bool, int)) or obj is None:
        return obj
    if isinstance(obj, str):
        if key in _STRING_FIELDS:
            return obj
        try:
            f = float(obj)
        except ValueError:
            return obj
    elif isinstance(obj, float):
        f = float(obj)
    else:
        raise ConfigError(f"unsupported config value {obj!r}")
    if not np.isfinite(f):
        raise ConfigError(f"expected a finite number, got {obj!r}")
    return f
