"""Explicit monotone finite-difference solver for the worst-case Kolmogorov
equation  d/dt v = sup over the parameter set of the affine generator,
with initial condition v(0, .) = payoff.

Scheme: forward Euler in time, v <- v + dt * max_k L_k v, with one discrete
generator per vertex written as coefficients times difference stencils,

    L_k v(x) = sum_g C[g, k, x] * sum_{(o, w) in D_g} w * (v(x + o) - v(x)),

the same construction in one and two dimensions.  The stencils are upwind
first differences per axis and sign (carrying the drift and the central
diffusion share), the two diagonal pairs of the 2-D cross term, sign-adapted,
and the (bi)linear interpolation corners of each atom, weighted by the atom's
intensity.  The per-atom compensator is folded into the drift, so every jump
weight stays nonnegative.

Monotonicity is checked on the assembled operator: C >= 0 on admissible
nodes (only a cross term stronger than the diagonal terms can break it), and
dt * rate <= cfl <= 1 with rate = sum_g C_g * mass(D_g).  Together they make
every weight of the update nonnegative, so payoff and set ordering and
sublinearity hold exactly.

Boundary policy is constant extension (offsets are clipped to the grid);
accuracy statements are made on an interior core a configurable margin away
from the boundary.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .generator import GeneratorMode, TestFunction
from .params import (
    PSD_TOL,
    WEIGHT_TOL,
    AffineParameter,
    ParameterSet,
    TruncationFunction,
    combined_atom_table,
    growth_bound,
    min_eigenvalue,
)


class CFLError(RuntimeError):
    pass


class NonFiniteError(RuntimeError):
    pass


class Grid:
    """Uniform rectilinear grid in one or two dimensions."""

    def __init__(self, lower: Sequence[float], upper: Sequence[float],
                 nodes: Sequence[int]):
        lower = np.atleast_1d(np.asarray(lower, dtype=float))
        upper = np.atleast_1d(np.asarray(upper, dtype=float))
        nodes = np.atleast_1d(np.asarray(nodes, dtype=int))
        if not (lower.shape == upper.shape == nodes.shape):
            raise ValueError("grid specs disagree on dimension")
        if lower.shape[0] not in (1, 2):
            raise ValueError("grids are supported in one and two dimensions")
        if np.any(nodes < 10):
            raise ValueError("need at least 8 interior nodes per axis")
        if np.any(upper <= lower):
            raise ValueError("grid spacing must be positive")
        self.lower, self.upper = lower, upper
        self.shape = tuple(int(n) for n in nodes)
        self.dx = (upper - lower) / (nodes - 1)
        self.axes = [
            lower[i] + self.dx[i] * np.arange(nodes[i]) for i in range(len(nodes))
        ]

    @classmethod
    def line(cls, lo: float, hi: float, n: int) -> "Grid":
        return cls([lo], [hi], [n])

    @classmethod
    def rect(cls, lo, hi, n) -> "Grid":
        return cls(lo, hi, n)

    @property
    def dim(self) -> int:
        return len(self.shape)

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.shape))

    def points(self) -> np.ndarray:
        """All nodes as an (n_nodes, d) array, first axis slowest."""
        if self.dim == 1:
            return self.axes[0][:, None]
        X, Y = np.meshgrid(self.axes[0], self.axes[1], indexing="ij")
        return np.column_stack([X.ravel(), Y.ravel()])

    def node_index(self, x, tol: float = 1e-9) -> tuple[int, ...]:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        idx = []
        for i in range(self.dim):
            j = int(round((x[i] - self.lower[i]) / self.dx[i]))
            if j < 0 or j >= self.shape[i] or abs(
                self.lower[i] + j * self.dx[i] - x[i]
            ) > tol * max(1.0, abs(x[i])):
                raise ValueError(f"{x} is not a grid node")
            idx.append(j)
        return tuple(idx)

    def interior_mask(self, margin: float) -> np.ndarray:
        """Boolean mask (grid shape) of nodes at least `margin` from every
        boundary."""
        masks = [
            (ax >= self.lower[i] + margin - 1e-12)
            & (ax <= self.upper[i] - margin + 1e-12)
            for i, ax in enumerate(self.axes)
        ]
        if self.dim == 1:
            return masks[0]
        return masks[0][:, None] & masks[1][None, :]


@dataclass(frozen=True)
class SchemeConfig:
    cfl: float = 0.4                    # safety factor in (0, 1]
    dt: float | None = None             # explicit step; must satisfy the bound
    min_time_steps: int = 256           # accuracy floor for forward Euler
    r_jump: float | None = None         # interior-core margin; default: max atom size

    def __post_init__(self):
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError("cfl safety factor must lie in (0, 1]")


@dataclass
class ProblemSpec:
    theta_set: ParameterSet
    grid: Grid
    mode: GeneratorMode
    scheme: SchemeConfig
    truncation: TruncationFunction


class ValueSurface:
    """v(t_j, x_i) on the grid, time-major, with solve metadata attached."""

    def __init__(self, problem: ProblemSpec, values: np.ndarray, dt: float,
                 horizon: float, payoff_name: str, argmax_last: np.ndarray,
                 meta: dict):
        self.problem = problem
        self.values = values
        self.dt = dt
        self.horizon = horizon
        self.payoff_name = payoff_name
        self.argmax_last = argmax_last
        self.meta = meta

    @property
    def grid(self) -> Grid:
        return self.problem.grid

    @property
    def n_steps(self) -> int:
        return self.values.shape[0] - 1

    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.values.shape[0])

    def layer(self, t: float) -> np.ndarray:
        j = int(round(t / self.dt))
        if j < 0 or j > self.n_steps or abs(j * self.dt - t) > 1e-9 * max(1.0, t):
            raise ValueError(f"time {t} is not aligned to the surface step {self.dt}")
        return self.values[j]

    def value_at(self, t: float, x, interpolate: bool = False) -> float:
        layer = self.layer(t)
        if not interpolate:
            return float(layer[self.grid.node_index(x)])
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self.grid.dim == 1:
            return float(np.interp(x[0], self.grid.axes[0], layer))
        from scipy.interpolate import RegularGridInterpolator

        f = RegularGridInterpolator(self.grid.axes, layer, bounds_error=True)
        return float(f(x)[0])

    def interior_mask(self, extra_margin: float = 0.0) -> np.ndarray:
        margin = max(self.meta["r_jump"], 10.0 * float(np.max(self.grid.dx)))
        return self.grid.interior_mask(margin + extra_margin)

    def to_csv(self, path) -> None:
        """Rows t,x1[,x2],v over all space-time nodes, 17 significant digits,
        LF line endings, stable node order (x1 outer, x2 inner)."""
        pts = self.grid.points()
        cols = ["t", "x1", "v"] if self.grid.dim == 1 else ["t", "x1", "x2", "v"]
        with open(path, "w", newline="\n") as fh:
            fh.write(",".join(cols) + "\n")
            for j in range(self.values.shape[0]):
                t = j * self.dt
                flat = self.values[j].ravel()
                for p, v in zip(pts, flat):
                    coords = ",".join("%.17g" % c for c in p)
                    fh.write("%.17g,%s,%.17g\n" % (t, coords, v))


# ---------------------------------------------------------------------------
# the discrete generator: nonnegative coefficients times difference stencils


def _atom_table(theta: AffineParameter, mode: GeneratorMode):
    """Atoms (m, d) and affine weights (m, d + 1), w_z(x) = W[z, 0] + W[z, 1:] . x;
    hat mode freezes the jump measure at nu_0."""
    if mode.is_hat:
        m = theta.nu[0]
        return m.atoms, np.column_stack([m.weights, np.zeros((m.n_atoms, theta.dim))])
    return combined_atom_table(theta.nu)


def _interpolation_stencil(offset: np.ndarray) -> tuple:
    """Multilinear interpolation at x + offset (in grid steps) as
    (corner offset, weight) pairs."""
    base = np.floor(offset)
    frac = offset - base
    out = []
    for corner in itertools.product((0, 1), repeat=offset.shape[0]):
        w = 1.0
        for f, c in zip(frac, corner):
            w *= f if c else 1.0 - f
        if w:
            out.append((tuple(int(b) + c for b, c in zip(base, corner)), float(w)))
    return tuple(out)


class _Operator:
    """L_k v(x) = sum_g C[g, k, x] (D_g v)(x) for every vertex k, where each
    stencil D_g v(x) = sum of weight * (v(clip(x + offset)) - v(x)) over its
    (offset, weight) pairs; clipping to the grid is constant extension.

    Stencils: one per axis and sign (upwind drift plus the central diffusion
    share), the two diagonal pairs of every cross term, and one multilinear
    corner stencil per distinct atom.  Identical stencils share one row.
    Inadmissible (vertex, node) pairs get zero coefficients and a -inf
    penalty, so they never attain the max."""

    def __init__(self, vertices, grid: Grid, mode: GeneratorMode,
                 h: TruncationFunction):
        d, n, dx = grid.dim, grid.n_nodes, grid.dx
        eye = np.eye(d, dtype=int)
        stencils: dict = {}

        def register(stencil) -> int:
            return stencils.setdefault(stencil, len(stencils))

        def unit_weights(*offsets) -> tuple:
            return tuple((tuple(int(c) for c in o), 1.0) for o in offsets)

        for e in eye:
            register(unit_weights(e))
            register(unit_weights(-e))
        pairs = list(itertools.combinations(range(d), 2))
        for i, j in pairs:
            register(unit_weights(eye[i] + eye[j], -eye[i] - eye[j]))
            register(unit_weights(eye[i] - eye[j], eye[j] - eye[i]))
        tables = [_atom_table(theta, mode) for theta in vertices]
        atom_rows = [[register(_interpolation_stencil(z / dx)) for z in atoms]
                     for atoms, _ in tables]

        pts = grid.points()
        self.in_s = (np.ones(n, dtype=bool) if mode.is_hat
                     else mode.space.contains_many(pts))
        ind = self.in_s.astype(float)
        xa = np.maximum(pts, 0.0) if mode.is_hat else pts
        self.C = np.zeros((len(stencils), len(vertices), n))
        adm = np.empty((len(vertices), n), dtype=bool)
        for k, (theta, (atoms, W), rows) in enumerate(zip(vertices, tables, atom_rows)):
            a = theta.alpha[0][None, :, :] + np.tensordot(xa, theta.alpha[1:], axes=(1, 0))
            a *= ind[:, None, None]
            w = (W[None, :, 0] + pts @ W[:, 1:].T) * ind[:, None]
            hz = np.array([h(z) for z in atoms]).reshape(-1, d)
            b = (theta.beta[0][None, :] + pts @ theta.beta[1:]) * ind[:, None] - w @ hz
            adm[k] = min_eigenvalue(a) >= -PSD_TOL
            if atoms.shape[0]:
                adm[k] &= np.min(w, axis=1) >= -WEIGHT_TOL
            c = self.C[:, k]
            diag = 0.5 * np.clip(np.diagonal(a, axis1=1, axis2=2), 0.0, None) / dx**2
            for p, (i, j) in enumerate(pairs):
                cross = 0.5 * a[:, i, j] / (dx[i] * dx[j])
                diag[:, [i, j]] -= np.abs(cross)[:, None]
                c[2 * d + 2 * p] = np.maximum(cross, 0.0)
                c[2 * d + 2 * p + 1] = np.maximum(-cross, 0.0)
            for i in range(d):
                c[2 * i] = diag[:, i] + np.maximum(b[:, i], 0.0) / dx[i]
                c[2 * i + 1] = diag[:, i] + np.maximum(-b[:, i], 0.0) / dx[i]
            for g, wz in zip(rows, np.clip(w, 0.0, None).T):
                c[g] += wz
            c[:, ~adm[k]] = 0.0
            if np.any(c[:, adm[k]] < -1e-9):
                raise ValueError(
                    "cross-diffusion exceeds the diagonal terms; the 2-D "
                    "stencil cannot stay monotone on this problem"
                )
        self.adm = adm
        self.pen = np.where(adm, 0.0, -np.inf)
        # dt * rate <= 1 keeps every weight of the explicit update nonnegative
        mass = np.array([sum(w for _, w in s) for s in stencils])
        self.max_rate = float(np.max(np.einsum("gkn,g->kn", self.C, mass)))

        offsets = sorted({o for s in stencils for o, _ in s})
        column = {o: t for t, o in enumerate(offsets)}
        self.S = np.zeros((len(stencils), len(offsets)))
        for g, s in enumerate(stencils):
            for o, w in s:
                self.S[g, column[o]] += w
        idx = np.indices(grid.shape).reshape(d, n)
        top = np.array(grid.shape)[:, None] - 1
        self.nbr = np.stack([
            np.ravel_multi_index(np.clip(idx + np.array(o)[:, None], 0, top), grid.shape)
            for o in offsets
        ]).astype(np.int32)
        self.diff = np.empty(self.nbr.shape)  # per-step buffer: v(x + offset) - v(x)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """(L_k v)(x) + pen for every vertex k and node x, shape (K, n)."""
        for row, idx in zip(self.diff, self.nbr):
            np.take(v, idx, out=row)
        self.diff -= v
        out = np.einsum("gkn,gn->kn", self.C, self.S @ self.diff)
        out += self.pen
        return out


def default_jump_radius(theta_set: ParameterSet) -> float:
    norms = [
        float(np.linalg.norm(z))
        for theta in theta_set.vertices()
        for m in theta.nu
        for z in m.atoms
    ]
    return max(norms) if norms else 0.0


def solve(theta_set: ParameterSet, grid: Grid, payoff: TestFunction | None,
          horizon: float, mode: GeneratorMode,
          scheme: SchemeConfig | None = None,
          truncation: TruncationFunction | None = None,
          payoff_values: np.ndarray | None = None,
          payoff_name: str | None = None) -> ValueSurface:
    """March the explicit scheme from the payoff to the horizon.

    The step satisfies  dt * rate <= cfl  at every admissible node/vertex
    pair, where rate = sum_g C_g * mass(D_g) is the total outflow of the
    operator; with C >= 0 this keeps the update monotone.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    scheme = scheme or SchemeConfig()
    h = mode.truncation(truncation)
    if not mode.is_hat and mode.space.dim != grid.dim:
        raise ValueError("state space and grid dimensions differ")

    op = _Operator(theta_set.vertices(), grid, mode, h)
    uncovered = op.in_s & ~np.any(op.adm, axis=0)
    if np.any(uncovered):
        raise ValueError(f"no admissible vertex at state {grid.points()[uncovered][0]}")

    max_rate = op.max_rate
    stable_dt = scheme.cfl / max_rate if max_rate > 0 else math.inf
    if scheme.dt is not None:
        if scheme.dt > stable_dt * (1 + 1e-12):
            raise CFLError(
                f"requested dt {scheme.dt} violates the stability bound "
                f"{stable_dt:.6g} (cfl {scheme.cfl}, max rate {max_rate:.6g})"
            )
        n_steps = max(1, math.ceil(horizon / scheme.dt - 1e-12))
    else:
        n_steps = max(
            scheme.min_time_steps,
            math.ceil(horizon / stable_dt - 1e-12) if np.isfinite(stable_dt) else 1,
        )
    if horizon == 0:
        n_steps = 0
    dt = horizon / n_steps if n_steps else 0.0

    if payoff_values is None:
        if payoff is None:
            raise ValueError("either a payoff or payoff_values is required")
        pts = grid.points()
        v0 = np.array([payoff.value(p) for p in pts], dtype=float)
        payoff_name = payoff_name or payoff.name
    else:
        v0 = np.asarray(payoff_values, dtype=float).ravel().copy()
        if v0.shape[0] != grid.n_nodes:
            raise ValueError("payoff_values does not match the grid")
        payoff_name = payoff_name or "restart"
    if not np.all(np.isfinite(v0)):
        raise NonFiniteError("payoff is not finite on the grid")

    values = np.empty((n_steps + 1, grid.n_nodes))
    values[0] = v0
    argmax = np.zeros(grid.n_nodes, dtype=int)
    v = v0.copy()
    frozen = ~op.in_s
    for step in range(n_steps):
        inc = op.apply(v)
        argmax = np.argmax(inc, axis=0)
        new = v + dt * np.max(inc, axis=0)
        new[frozen] = v[frozen]
        if not np.all(np.isfinite(new)):
            raise NonFiniteError(f"non-finite value produced at step {step + 1}")
        v = new
        values[step + 1] = v

    r_jump = scheme.r_jump if scheme.r_jump is not None else default_jump_radius(theta_set)
    meta = {
        "growth_bound": growth_bound(theta_set),
        "stable_dt": stable_dt,
        "dt": dt,
        "n_steps": n_steps,
        "max_rate": max_rate,
        "cfl": scheme.cfl,
        "r_jump": r_jump,
        "mode": mode.kind,
    }
    problem = ProblemSpec(theta_set, grid, mode, scheme, h)
    shape = (n_steps + 1,) + grid.shape
    return ValueSurface(
        problem,
        values.reshape(shape),
        dt,
        horizon,
        payoff_name,
        argmax.reshape(grid.shape),
        meta,
    )


def dpp_gap(surface: ValueSurface, split: float,
            extra_margin: float = 0.0) -> float:
    """Restart consistency: solve again over [0, split] from the stored layer
    at time (horizon - split) and compare with the stored terminal layer on
    the interior core.  The restart re-derives its own step count, so for
    0 < split < horizon this is a genuine two-stage versus one-stage check;
    split = horizon reproduces the identical run and split = 0 is empty.
    """
    if split < 0 or split > surface.horizon + 1e-12:
        raise ValueError("split must lie in [0, horizon]")
    j = int(round(split / surface.dt)) if surface.dt else 0
    if abs(j * surface.dt - split) > 1e-9 * max(1.0, split):
        raise ValueError(f"split {split} is not aligned to the time grid")
    if j == 0:
        return 0.0
    p = surface.problem
    start = surface.values[surface.n_steps - j]
    restart = solve(
        p.theta_set, p.grid, None, split, p.mode, p.scheme,
        truncation=p.truncation, payoff_values=start,
        payoff_name=f"restart[{surface.payoff_name}]",
    )
    mask = surface.interior_mask(extra_margin)
    gap = np.abs(restart.values[-1] - surface.values[-1])
    return float(np.max(gap[mask]))


@dataclass
class HolderReport:
    exponent: float | None
    residual: float | None
    flat: bool
    n_points: int
    deltas: list = field(default_factory=list)
    diffs: list = field(default_factory=list)


def holder_exponent(surface: ValueSurface, x, min_steps: int = 8) -> HolderReport:
    """Least-squares slope of log |v(delta, x) - v(0, x)| against log delta
    over dyadic deltas.  Deltas below `min_steps` time steps are excluded
    (they probe the discretisation, not the solution)."""
    if surface.n_steps < 10:
        raise ValueError("need at least 10 time nodes")
    idx = surface.grid.node_index(x) if not isinstance(x, tuple) else x
    series = surface.values[(slice(None),) + idx]
    js = []
    j = surface.n_steps
    while j >= max(min_steps, 1):
        js.append(j)
        j //= 2
    deltas = np.array([j * surface.dt for j in js])
    diffs = np.array([abs(series[j] - series[0]) for j in js])
    keep = diffs > 1e-12
    if not np.any(keep):
        return HolderReport(None, None, True, 0)
    ld = np.log(deltas[keep])
    lv = np.log(diffs[keep])
    if ld.shape[0] < 2:
        return HolderReport(None, None, True, int(ld.shape[0]))
    coef, res, *_ = np.polyfit(ld, lv, 1, full=True)
    residual = float(res[0]) if len(res) else 0.0
    return HolderReport(
        exponent=float(coef[0]),
        residual=residual,
        flat=False,
        n_points=int(ld.shape[0]),
        deltas=deltas[keep].tolist(),
        diffs=diffs[keep].tolist(),
    )
