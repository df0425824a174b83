"""Jump-diffusion path simulation for a fixed coefficient tuple, with
statistical lower bounds for the worst-case expectation.

Stepping is Euler for the continuous part plus exact atomic jump sampling by
thinning: candidate events arrive at the constant rate lam_bar (an upper
bound for the state-dependent intensity over the clamp box) and are accepted
with probability intensity(state)/lam_bar; accepted events draw the jump
size from the normalised atom weights at the current state.

Drift convention: the drift coefficient b is the rate of the finite-variation
part relative to the configured truncation h, so the simulated increments are

    dX = (b(X) - sum_j w_j(X) h(z_j)) dt + sqrt(a(X)) dW + raw jumps.

Raw jumps are added without separate compensation; the h-dependent term above
is what the canonical decomposition assigns to the continuous drift once the
jump martingale and the compensator are recombined into raw jumps.  Authors
of a coefficient tuple must therefore use the same h here as in the drift
specification; the solver/simulator agreement tests pin this convention.

Each path owns a counter-based random stream keyed by (base seed, path
index): results are bitwise reproducible and independent of the number of
paths simulated alongside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .generator import GeneratorMode, TestFunction
from .params import (
    PSD_TOL,
    WEIGHT_TOL,
    AffineParameter,
    ParameterSet,
    TruncationFunction,
    combined_atom_table,
    min_eigenvalue,
)


@dataclass(frozen=True)
class SimConfig:
    dt: float
    horizon: float
    n_paths: int
    seed: int = 0
    truncation: TruncationFunction = TruncationFunction(1.0)
    clamp_box: tuple | None = None  # (lower, upper); default x0 +- 10 (1 + |x0|)
    store_paths: bool = False
    batch_size: int = 25000

    def __post_init__(self):
        if self.dt <= 0 or self.horizon < 0 or self.n_paths < 1:
            raise ValueError("need dt > 0, horizon >= 0 and at least one path")


@dataclass
class PathBundle:
    x0: np.ndarray
    times: np.ndarray
    terminal: np.ndarray          # (N, d)
    running_sup: np.ndarray       # (N,) sup_s |X_s - X_0|
    exit_time: np.ndarray         # (N,) float; nan when the path never left
    seeds: np.ndarray             # (N,) per-path stream labels
    flagged: np.ndarray           # (N,) left the clamp box; frozen and counted
    no_jump_exit_count: int       # exits recorded on steps without a jump event
    skeletons: np.ndarray | None  # (N, steps+1, d) when store_paths
    sup_snapshots: dict | None    # step index -> (N,) running sup at that step

    @property
    def n_paths(self) -> int:
        return self.terminal.shape[0]

    @property
    def flagged_count(self) -> int:
        return int(np.sum(self.flagged))

    def verify_frozen_after_exit(self) -> None:
        """Stored skeletons must be exactly constant from the exit step on."""
        if self.skeletons is None:
            raise ValueError("paths were not stored")
        for i in range(self.n_paths):
            if np.isnan(self.exit_time[i]):
                continue
            j = int(round(self.exit_time[i] / (self.times[1] - self.times[0]))) \
                if len(self.times) > 1 else 0
            tail = self.skeletons[i, j:]
            if not np.all(tail == tail[0]):
                raise AssertionError(f"path {i} moved after its exit")


def _path_seed_labels(seed: int, start: int, count: int) -> np.ndarray:
    idx = np.arange(start, start + count, dtype=np.uint64)
    mix = np.uint64(0x9E3779B97F4A7C15)
    with np.errstate(over="ignore"):  # modular 64-bit mixing is intended
        return (np.uint64(seed % 2**64) * mix + idx) * mix


class _Dynamics:
    """Affine coefficient forms used by the stepping loop."""

    def __init__(self, theta: AffineParameter, mode: GeneratorMode,
                 h: TruncationFunction, clamp_lo, clamp_hi):
        d = theta.dim
        self.d = d
        self.mode = mode
        if mode.is_hat:
            h = TruncationFunction(1.0)
            atoms = theta.nu[0].atoms
            self.W0 = theta.nu[0].weights.copy()
            self.W1 = np.zeros((atoms.shape[0], d))
        else:
            atoms, W = combined_atom_table(theta.nu)
            self.W0 = W[:, 0].copy()
            self.W1 = W[:, 1:].copy()
        self.atoms = atoms
        hz = np.array([h(z) for z in atoms]).reshape(-1, d)
        self.net0 = theta.beta[0] - hz.T @ self.W0
        self.net1 = theta.beta[1:].T - hz.T @ self.W1
        self.a0 = theta.alpha[0]
        self.a_lin = theta.alpha[1:]
        self.has_diffusion = bool(np.any(theta.alpha))
        # intensity bound over the clamp box: per atom, max over corners of
        # the affine weight, positive part
        lam = 0.0
        if atoms.shape[0]:
            corners = _box_corners(clamp_lo, clamp_hi)
            vals = self.W0[None, :] + corners @ self.W1.T  # (2^d, m)
            lam = float(np.sum(np.clip(np.max(vals, axis=0), 0.0, None)))
        self.lam_bar = lam

    def drift(self, x: np.ndarray) -> np.ndarray:
        return self.net0[None, :] + x @ self.net1.T

    def diffusion_root(self, x: np.ndarray) -> np.ndarray:
        xa = np.maximum(x, 0.0) if self.mode.is_hat else x
        A = self.a0[None, :, :] + np.tensordot(xa, self.a_lin, axes=(1, 0))
        mineig = min_eigenvalue(A)
        if np.any(mineig < -PSD_TOL):
            bad = x[np.argmin(mineig)]
            raise ValueError(f"diffusion matrix not PSD at state {bad}")
        if self.d == 1:
            return np.sqrt(np.clip(A, 0.0, None))
        tr = A[:, 0, 0] + A[:, 1, 1]
        det = A[:, 0, 0] * A[:, 1, 1] - A[:, 0, 1] * A[:, 1, 0]
        s = np.sqrt(np.clip(det, 0.0, None))
        denom = np.sqrt(np.clip(tr + 2.0 * s, 0.0, None))
        denom = np.where(denom > 0, denom, 1.0)
        root = (A + s[:, None, None] * np.eye(2)[None, :, :]) / denom[:, None, None]
        return root

    def jump_weights(self, x: np.ndarray) -> np.ndarray:
        return self.W0[None, :] + x @ self.W1.T


def _box_corners(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    d = lo.shape[0]
    out = np.zeros((2**d, d))
    for v in range(2**d):
        for i in range(d):
            out[v, i] = hi[i] if (v >> i) & 1 else lo[i]
    return out


def default_clamp_box(x0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    r = 10.0 * (1.0 + np.linalg.norm(x0))
    return x0 - r, x0 + r


def simulate_paths(theta: AffineParameter, x0, cfg: SimConfig,
                   mode: GeneratorMode,
                   snapshot_steps: tuple[int, ...] = ()) -> PathBundle:
    d = theta.dim
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (d,):
        raise ValueError("initial state dimension mismatch")
    lo, hi = cfg.clamp_box if cfg.clamp_box is not None else default_clamp_box(x0)
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if np.any(x0 < lo) or np.any(x0 > hi):
        raise ValueError("clamp box must contain the initial point")
    dyn = _Dynamics(theta, mode, cfg.truncation, lo, hi)
    n_steps = max(1, math.ceil(cfg.horizon / cfg.dt - 1e-12)) if cfg.horizon > 0 else 0
    dt = cfg.horizon / n_steps if n_steps else 0.0
    times = dt * np.arange(n_steps + 1)
    start_outside = (not mode.is_hat) and (not mode.space.contains(x0))
    jumps_active = dyn.lam_bar > 0.0 and dyn.atoms.shape[0] > 0

    N = cfg.n_paths
    terminal = np.empty((N, d))
    running = np.zeros(N)
    exit_time = np.full(N, np.nan)
    flagged = np.zeros(N, dtype=bool)
    seeds = _path_seed_labels(cfg.seed, 0, N)
    skeletons = np.empty((N, n_steps + 1, d)) if cfg.store_paths else None
    snaps = {j: np.zeros(N) for j in snapshot_steps}
    no_jump_exits = 0

    for b0 in range(0, N, cfg.batch_size):
        b1 = min(b0 + cfg.batch_size, N)
        B = b1 - b0
        # per-path counter-based streams, fixed draw pattern
        Z = None
        counts = None
        pool = None
        pool_off = np.zeros(B, dtype=np.int64)
        if n_steps:
            if dyn.has_diffusion:
                Z = np.empty((n_steps, B, d))
            if jumps_active:
                counts = np.zeros((n_steps, B), dtype=np.int64)
                pools = []
            for i in range(B):
                rng = np.random.Generator(
                    np.random.Philox(key=np.array([cfg.seed, b0 + i], dtype=np.uint64))
                )
                if dyn.has_diffusion:
                    Z[:, i, :] = rng.standard_normal((n_steps, d))
                if jumps_active:
                    c = rng.poisson(dyn.lam_bar * dt, n_steps)
                    counts[:, i] = c
                    pools.append(rng.random(2 * int(c.sum())))
            if jumps_active:
                lens = np.array([p.shape[0] for p in pools], dtype=np.int64)
                pool_off = np.concatenate([[0], np.cumsum(lens)[:-1]])
                pool = np.concatenate(pools) if pools else np.zeros(0)

        X = np.tile(x0, (B, 1))
        frozen = np.zeros(B, dtype=bool)
        if start_outside:
            frozen[:] = True
            exit_time[b0:b1] = 0.0
        used = np.zeros(B, dtype=np.int64)
        if cfg.store_paths:
            skeletons[b0:b1, 0] = X
        sqdt = math.sqrt(dt) if dt else 0.0

        for j in range(n_steps):
            alive = ~frozen
            if np.any(alive):
                idx = np.nonzero(alive)[0]
                xa = X[idx]
                newx = xa + dt * dyn.drift(xa)
                if dyn.has_diffusion:
                    root = dyn.diffusion_root(xa)
                    newx = newx + sqdt * np.einsum("nij,nj->ni", root, Z[j, idx])
                Xn = X.copy()
                Xn[idx] = newx
                jumped = np.zeros(B, dtype=bool)
                if jumps_active:
                    cnt = counts[j].copy()
                    cnt[frozen] = 0
                    max_c = int(cnt.max()) if cnt.size else 0
                    for r in range(max_c):
                        m = np.nonzero(cnt > r)[0]
                        if m.size == 0:
                            break
                        xm = Xn[m]
                        w = dyn.jump_weights(xm)
                        if w.size and np.min(w) < -WEIGHT_TOL:
                            bad = xm[np.argmin(np.min(w, axis=1))]
                            raise ValueError(
                                f"negative jump weight at state {bad}"
                            )
                        wpos = np.clip(w, 0.0, None)
                        lam = wpos.sum(axis=1)
                        u1 = pool[pool_off[m] + 2 * used[m]]
                        u2 = pool[pool_off[m] + 2 * used[m] + 1]
                        used[m] += 1
                        acc = u1 * dyn.lam_bar < lam
                        am = m[acc]
                        if am.size:
                            cw = np.cumsum(wpos[acc], axis=1)
                            r2 = (u2[acc] * lam[acc])[:, None]
                            choice = np.argmax(cw > r2, axis=1)
                            Xn[am] += dyn.atoms[choice]
                            jumped[am] = True
                # exits (standard mode): post-step membership; never re-enter
                if not mode.is_hat and not mode.space.is_full:
                    inside = mode.space.contains_many(Xn)
                    newly = alive & ~inside
                    if np.any(newly):
                        exit_time[b0:b1][newly] = (j + 1) * dt
                        frozen[newly] = True
                        no_jump_exits += int(np.sum(newly & ~jumped))
                # clamp box
                inbox = np.all((Xn >= lo) & (Xn <= hi), axis=1)
                out = alive & ~inbox & ~frozen
                if np.any(out):
                    flagged[b0:b1][out] = True
                    frozen[out] = True
                moved = alive
                dist = np.linalg.norm(Xn[moved] - x0[None, :], axis=1)
                running[b0:b1][moved] = np.maximum(running[b0:b1][moved], dist)
                X = Xn
            if cfg.store_paths:
                skeletons[b0:b1, j + 1] = X
            if (j + 1) in snaps:
                snaps[j + 1][b0:b1] = running[b0:b1]
        terminal[b0:b1] = X

    bundle = PathBundle(
        x0=x0,
        times=times,
        terminal=terminal,
        running_sup=running,
        exit_time=exit_time,
        seeds=seeds,
        flagged=flagged,
        no_jump_exit_count=no_jump_exits,
        skeletons=skeletons,
        sup_snapshots=snaps if snapshot_steps else None,
    )
    if cfg.store_paths:
        bundle.verify_frozen_after_exit()
    return bundle


def _payoff_moments(payoff: TestFunction, bundle: PathBundle) -> tuple[float, float]:
    vals = np.array([payoff.value(x) for x in bundle.terminal])
    if np.all(vals == vals[0]):
        return float(vals[0]), 0.0
    mean = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(vals.shape[0]))
    return mean, se


def estimate_expectation(theta: AffineParameter, x0, payoff: TestFunction,
                         t: float, cfg: SimConfig,
                         mode: GeneratorMode) -> tuple[float, float]:
    """Sample mean and standard error of payoff(X_t) under one parameter."""
    bundle = simulate_paths(theta, x0, replace(cfg, horizon=t), mode)
    return _payoff_moments(payoff, bundle)


@dataclass
class LowerBoundResult:
    mean: float
    vertex: int
    se: float
    all_means: list[float]
    all_ses: list[float]
    bundle: PathBundle  # the paths simulated under the winning vertex


def lower_bound_sublinear(theta_set: ParameterSet, x0, payoff: TestFunction,
                          t: float, cfg: SimConfig,
                          mode: GeneratorMode) -> LowerBoundResult:
    """Best constant-parameter estimate over the vertex enumeration.  Every
    fixed-parameter law is feasible for the uncertainty set, so this is a
    statistical lower bound for the worst-case expectation.  One simulation
    per vertex; ties go to the first vertex."""
    cfg = replace(cfg, horizon=t)
    means, ses = [], []
    best, winner = 0, None
    for k, theta in enumerate(theta_set.vertices()):
        bundle = simulate_paths(theta, x0, cfg, mode)
        m, s = _payoff_moments(payoff, bundle)
        means.append(m)
        ses.append(s)
        if winner is None or m > means[best]:
            best, winner = k, bundle
    return LowerBoundResult(means[best], best, ses[best], means, ses, winner)


@dataclass
class MomentBoundReport:
    t_grid: list[float]
    moments: list[float]
    ratios: list[float]
    empirical_constant: float | None
    ratio_spread: float | None
    slope: float | None
    degenerate: bool


def moment_bound_report(theta: AffineParameter, x0, p: float, t_grid,
                        cfg: SimConfig, mode: GeneratorMode) -> MomentBoundReport:
    """Estimate m(t) = E[sup_{s<=t} |X_s - X_0|^p] on a small-time grid and
    fit it against (1 + |x0|)^p (t^p + t^(p/2))."""
    if not 1.0 <= p <= 2.0:
        raise ValueError("p must lie in [1, 2]")
    t_grid = sorted(float(t) for t in t_grid)
    if t_grid[-1] > 0.1 + 1e-12:
        raise ValueError("moment fit is a small-time check; keep max(t) <= 0.1")
    dt = min(cfg.dt, t_grid[0] / 4.0)
    steps = [int(round(t / dt)) for t in t_grid]
    cfg = replace(cfg, dt=dt, horizon=t_grid[-1])
    bundle = simulate_paths(theta, np.atleast_1d(x0), cfg, mode,
                            snapshot_steps=tuple(steps))
    x0v = np.atleast_1d(np.asarray(x0, dtype=float))
    scale = (1.0 + float(np.linalg.norm(x0v))) ** p
    moments = [float(np.mean(bundle.sup_snapshots[j] ** p)) for j in steps]
    denoms = [scale * (t**p + t ** (p / 2.0)) for t in t_grid]
    ratios = [m / q for m, q in zip(moments, denoms)]
    if max(moments) <= 1e-300:
        return MomentBoundReport(t_grid, moments, ratios, None, None, None, True)
    pos = [r for r in ratios if r > 0]
    slope = float(
        np.polyfit(np.log(t_grid), np.log(np.maximum(moments, 1e-300)), 1)[0]
    )
    return MomentBoundReport(
        t_grid=t_grid,
        moments=moments,
        ratios=ratios,
        empirical_constant=max(ratios),
        ratio_spread=(max(pos) / min(pos)) if pos else None,
        slope=slope,
        degenerate=False,
    )


def bundle_to_csv(bundle: PathBundle, path) -> None:
    """Rows path_index,seed,terminal,running_sup,exit_time (terminal columns
    expand per coordinate for d = 2); LF endings, 17 significant digits."""
    d = bundle.terminal.shape[1]
    term_cols = ["terminal"] if d == 1 else [f"terminal{i+1}" for i in range(d)]
    header = ["path_index", "seed"] + term_cols + ["running_sup", "exit_time"]
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(bundle.n_paths):
            term = ",".join("%.17g" % v for v in bundle.terminal[i])
            et = "" if np.isnan(bundle.exit_time[i]) else "%.17g" % bundle.exit_time[i]
            fh.write(
                "%d,%d,%s,%.17g,%s\n"
                % (i, int(bundle.seeds[i]), term, bundle.running_sup[i], et)
            )
