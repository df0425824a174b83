"""Jump-diffusion path simulation for a fixed coefficient tuple, with
statistical lower bounds for the worst-case expectation.

Stepping is Euler for the continuous part plus exact atomic jump sampling by
thinning: candidate events arrive at the constant rate lam_bar (an upper
bound for the state-dependent intensity over the clamp box) and are accepted
with probability intensity(state)/lam_bar; accepted events draw the jump
size from the normalised atom weights at the current state.

Drift convention: the drift coefficient b is the rate of the finite-variation
part relative to the mode's truncation function h, so the simulated
increments are

    dX = (b(X) - sum_j w_j(X) h(z_j)) dt + sqrt(a(X)) dW + raw jumps.

Raw jumps are added without separate compensation; the h-dependent term above
is what the canonical decomposition assigns to the continuous drift once the
jump martingale and the compensator are recombined into raw jumps.  h belongs
to the model: GeneratorMode holds it, so a solve and a simulation under one
mode compensate alike, and a tuple's drift must be authored with that h (the
solver/simulator agreement tests pin this convention).

The compensated drift, the diffusion and the jump weights come from
GeneratorMode.coefficients, the one array coefficient form that the PIDE
operator and the hypothesis gate read as well.  The compensation and the
registry's drift authoring share params.truncation_moment, so a registry
tuple has a net drift of exactly zero and a path started on the boundary of
the half-line leaves it only by a jump.

Block k of BLOCK = 1,024 paths owns the counter-based random stream
Philox(key=(base seed, k)), one sub-stream per kind of draw, each kind
drawn for the block's rows in one call: path i's draws depend only on
(base seed, i // BLOCK, i % BLOCK), so results are bitwise reproducible and
independent of the batch size and of the number of paths simulated
alongside.  So a batch's draws depend only on the draw class
(seed, batch start, batch size, steps, d, has_diffusion, lam_bar * dt), and
lower_bound_sublinear steps the vertices of one class on one shared,
read-only draw set per batch (common random numbers): each vertex's result
is the one its own simulate_paths gives.  Payoffs are scored on the (N, d)
terminal array at once (TestFunction.values).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np
import numpy.random  # lazy in numpy: load it at import, not in the first draw

from .generator import CoefficientForm, GeneratorMode, TestFunction
from .params import (
    PSD_TOL,
    WEIGHT_TOL,
    AffineParameter,
    CoefficientError,
    FiniteParameterSet,
    affine_at,
    min_eigenvalue,
)
from .pide import grid_index, step_count, write_chunks


BLOCK = 1024  # paths per Philox key (seed, block)


@dataclass(frozen=True)
class SimConfig:
    dt: float
    horizon: float
    n_paths: int
    seed: int = 0
    clamp_box: tuple | None = None  # (lower, upper); default x0 +- 10 (1 + |x0|)
    store_paths: bool = False
    batch_size: int = 24 * BLOCK  # batches start on block boundaries

    def __post_init__(self):
        if self.dt <= 0 or self.horizon < 0 or self.n_paths < 1:
            raise ValueError("need dt > 0, horizon >= 0 and at least one path")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")


@dataclass
class PathBundle:
    x0: np.ndarray
    times: np.ndarray
    terminal: np.ndarray          # (N, d)
    running_sup: np.ndarray       # (N,) sup_s |X_s - X_0|
    exit_time: np.ndarray         # (N,) float; nan when the path never left
    seeds: np.ndarray             # (N,) labels mixed from (seed, path), not stream keys
    flagged: np.ndarray           # (N,) left the clamp box; frozen and counted
    no_jump_exit_count: int       # exits recorded on steps without a jump event
    thinning_proposed: int        # candidate jump events at rate lam_bar on live paths
    thinning_accepted: int        # of those, accepted as jumps
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
            j = int(np.searchsorted(self.times, self.exit_time[i]))
            tail = self.skeletons[i, j:]
            if not np.all(tail == tail[0]):
                raise AssertionError(f"path {i} moved after its exit")


def _path_seed_labels(seed: int, count: int) -> np.ndarray:
    idx = np.arange(count, dtype=np.uint64)
    mix = np.uint64(0x9E3779B97F4A7C15)
    with np.errstate(over="ignore"):  # modular 64-bit mixing is intended
        return (np.uint64(seed) * mix + idx) * mix


_KINDS = ("normal", "count", "uniform")  # sub-stream i starts 2**128 * i counter steps in


def _substream(rng: np.random.Generator, fresh: dict, kind: str) -> np.random.Generator:
    """rng reset to its fresh state and moved to the start of `kind`'s sub-stream."""
    rng.bit_generator.state = fresh
    rng.bit_generator.advance(_KINDS.index(kind) << 128)
    return rng


def _lam_bar(form: CoefficientForm, lo: np.ndarray, hi: np.ndarray) -> float:
    """Intensity bound over the clamp box: per atom, the largest affine
    weight over the box corners, positive part, summed."""
    if not form.atoms.shape[0]:
        return 0.0
    corners = np.array(list(itertools.product(*zip(lo, hi))))
    vals = affine_at(form.W.T, corners)  # (2^d, m)
    return float(np.sum(np.clip(np.max(vals, axis=0), 0.0, None)))


def _diffusion_root(A: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Closed-form PSD square root of each (1x1 or 2x2) diffusion matrix."""
    mineig = min_eigenvalue(A)
    if np.any(mineig < -PSD_TOL):
        bad = xs[np.argmin(mineig)]
        raise CoefficientError(f"diffusion matrix not PSD at state {bad}")
    if A.shape[-1] == 1:
        return np.sqrt(np.clip(A, 0.0, None))
    tr = A[:, 0, 0] + A[:, 1, 1]
    det = A[:, 0, 0] * A[:, 1, 1] - A[:, 0, 1] * A[:, 1, 0]
    s = np.sqrt(np.clip(det, 0.0, None))
    denom = np.sqrt(np.clip(tr + 2.0 * s, 0.0, None))
    denom = np.where(denom > 0, denom, 1.0)
    return (A + s[:, None, None] * np.eye(2)[None, :, :]) / denom[:, None, None]


def default_clamp_box(x0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    r = 10.0 * (1.0 + np.linalg.norm(x0))
    return x0 - r, x0 + r


def _start(x0, d: int, cfg: SimConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x0 as a d-vector and the clamp box (lo, hi), which must contain it."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (d,):
        raise ValueError("initial state dimension mismatch")
    lo, hi = cfg.clamp_box if cfg.clamp_box is not None else default_clamp_box(x0)
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if np.any(x0 < lo) or np.any(x0 > hi):
        raise ValueError("clamp box must contain the initial point")
    return x0, lo, hi


def _law(theta: AffineParameter, lo: np.ndarray, hi: np.ndarray, cfg: SimConfig,
         mode: GeneratorMode) -> tuple[CoefficientForm, tuple[bool, float]]:
    """theta's coefficient form and its draw class (has_diffusion, lam_bar)."""
    form = mode.coefficients(theta)
    return form, (bool(np.any(theta.alpha)), _lam_bar(form, lo, hi))


def _draw_batch(seed: int, b0: int, B: int, n_steps: int, d: int,
                has_diffusion: bool, lam_dt: float) -> tuple:
    """The draws (Z, counts, pool, pool_off) of paths b0 .. b0 + B - 1 over
    n_steps steps: normals Z (B, n_steps, d) when the law diffuses; when
    lam_dt > 0, candidate jump counts (B, n_steps) of mean lam_dt and two
    uniforms per candidate in `pool`, path i's from pool_off[i] on.  Absent
    draws are None.  The set depends on these arguments alone, so every
    vertex of one draw class can step on it; its arrays are read-only.
    Block k's paths draw from Philox(key=(seed, k)), each kind from its own
    sub-stream in one path-major call into the batch's array: a batch that
    covers rows s .. e - 1 of a block draws the block's first e rows of each
    kind, the first s into a scratch array."""
    Z = counts = pool = pool_off = None
    if n_steps and (has_diffusion or lam_dt > 0.0):
        if has_diffusion:
            Z = np.empty((B, n_steps, d))
        if lam_dt > 0.0:
            counts = np.empty((B, n_steps), dtype=np.int64)
        blocks = []  # (generator, fresh state, skipped rows, batch rows) per block
        for k in range(b0 // BLOCK, (b0 + B - 1) // BLOCK + 1):
            start, stop = max(b0, k * BLOCK), min(b0 + B, (k + 1) * BLOCK)
            key = np.array([seed, k], dtype=np.uint64)
            rng = np.random.Generator(np.random.Philox(key=key))
            blocks.append((rng, rng.bit_generator.state, start - k * BLOCK,
                           slice(start - b0, stop - b0)))
        if Z is not None:
            for rng, fresh, skip, rows in blocks:
                _substream(rng, fresh, "normal").standard_normal((skip, n_steps, d))
                rng.standard_normal(out=Z[rows])
        if counts is not None:
            skipped = []  # candidates of each block's skipped rows
            for rng, fresh, skip, rows in blocks:
                skipped.append(int(_substream(rng, fresh, "count").poisson(
                    lam_dt, (skip, n_steps)).sum()))
                counts[rows] = rng.poisson(lam_dt, counts[rows].shape)
            lens = 2 * counts.sum(axis=1)
            ends = np.cumsum(lens)
            pool_off = ends - lens
            pool = np.empty(int(ends[-1]))
            for (rng, fresh, skip, rows), n_skip in zip(blocks, skipped):
                _substream(rng, fresh, "uniform").random(2 * n_skip)
                rng.random(out=pool[pool_off[rows.start]:ends[rows.stop - 1]])
    drawn = (Z, counts, pool, pool_off)
    for a in drawn:
        if a is not None:
            a.flags.writeable = False
    return drawn


def simulate_paths(theta: AffineParameter, x0, cfg: SimConfig,
                   mode: GeneratorMode,
                   snapshot_steps: tuple[int, ...] = (),
                   draws=_draw_batch) -> PathBundle:
    """Paths of the law with theta fixed, from x0.  A diffusion that is not
    PSD or a negative jump weight at a state a path visits raises
    CoefficientError: a constant-vertex law needs admissible coefficients
    at every such state, and it cannot mask the vertex per node the way the
    PIDE's sup does.  `draws` takes `_draw_batch`'s arguments and returns
    its draw set; a sweep passes one that shares sets between vertices."""
    d = theta.dim
    x0, lo, hi = _start(x0, d, cfg)
    form, (has_diffusion, lam_bar) = _law(theta, lo, hi, cfg, mode)
    n_steps, dt = step_count(cfg.horizon, cfg.dt)
    times = dt * np.arange(n_steps + 1)
    start_outside = not mode.inside(x0[None, :])[0]

    N = cfg.n_paths
    terminal = np.empty((N, d))
    running = np.zeros(N)
    exit_time = np.full(N, np.nan)
    flagged = np.zeros(N, dtype=bool)
    seeds = _path_seed_labels(cfg.seed, N)
    skeletons = np.empty((N, n_steps + 1, d)) if cfg.store_paths else None
    snaps = {j: np.zeros(N) for j in snapshot_steps}
    no_jump_exits = proposed = accepted = 0

    for b0 in range(0, N, cfg.batch_size):
        b1 = min(b0 + cfg.batch_size, N)
        B = b1 - b0
        Z = counts = pool = pool_off = None  # release the last set before the next draw
        Z, counts, pool, pool_off = draws(cfg.seed, b0, B, n_steps, d,
                                          has_diffusion, lam_bar * dt)

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
                newx = xa + dt * form.drift(xa)
                if Z is not None:
                    root = _diffusion_root(form.diffusion(xa), xa)
                    newx = newx + sqdt * np.einsum("nij,nj->ni", root, Z[idx, j])
                Xn = X.copy()
                Xn[idx] = newx
                jumped = np.zeros(B, dtype=bool)
                if counts is not None:
                    cnt = counts[:, j].copy()
                    cnt[frozen] = 0
                    max_c = int(cnt.max()) if cnt.size else 0
                    for r in range(max_c):
                        m = np.nonzero(cnt > r)[0]
                        xm = Xn[m]
                        w = form.jump_weights(xm)
                        if w.size and np.min(w) < -WEIGHT_TOL:
                            bad = xm[np.argmin(np.min(w, axis=1))]
                            raise CoefficientError(f"negative jump weight at state {bad}")
                        wpos = np.clip(w, 0.0, None)
                        lam = wpos.sum(axis=1)
                        u1 = pool[pool_off[m] + 2 * used[m]]
                        u2 = pool[pool_off[m] + 2 * used[m] + 1]
                        used[m] += 1
                        acc = u1 * lam_bar < lam
                        am = m[acc]
                        proposed += m.size
                        accepted += am.size
                        if am.size:
                            cw = np.cumsum(wpos[acc], axis=1)
                            r2 = (u2[acc] * lam[acc])[:, None]
                            choice = np.argmax(cw > r2, axis=1)
                            Xn[am] += form.atoms[choice]
                            jumped[am] = True
                # exits (standard mode): post-step membership; never re-enter
                newly = alive & ~mode.inside(Xn)
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
        thinning_proposed=proposed,
        thinning_accepted=accepted,
        skeletons=skeletons,
        sup_snapshots=snaps if snapshot_steps else None,
    )
    if cfg.store_paths:
        bundle.verify_frozen_after_exit()
    return bundle


def _payoff_moments(payoff: TestFunction, bundle: PathBundle) -> tuple[float, float]:
    vals = payoff.values(bundle.terminal)
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


def _shared_draws():
    """A draw source for one sweep: it hands the set it holds to every call
    with the same arguments and drops it before drawing another, so at most
    one set is alive."""
    slot = {}

    def draws(*key):
        if key not in slot:
            slot.clear()
            slot[key] = _draw_batch(*key)
        return slot[key]

    return draws


def _first_max_rank(k: int, mean: float) -> tuple:
    """Vertex k's rank under the first-max rule in vertex order: the largest
    mean wins and a tie goes to the lower index; a NaN mean never wins
    unless it is vertex 0's, which no later mean displaces.  Ranks compare
    the same in any sweep order."""
    if math.isnan(mean):
        return (1,) if k == 0 else (-1,)
    return (0, mean, -k)


def lower_bound_sublinear(theta_set: FiniteParameterSet, x0, payoff: TestFunction,
                          t: float, cfg: SimConfig,
                          mode: GeneratorMode) -> LowerBoundResult:
    """Best constant-parameter estimate over the vertex enumeration.  Every
    fixed-parameter law is feasible for the uncertainty set, so this is a
    statistical lower bound for the worst-case expectation.  One simulation
    per vertex; ties go to the first vertex.  A vertex whose coefficients are
    not admissible at a state its paths visit raises CoefficientError (see
    simulate_paths), even where `solve` masks that vertex per node.

    Vertices of one draw class (equal has_diffusion and lam_bar) run back to
    back, and a batch drawn for one is handed to the next: common random
    numbers, with every result equal to that vertex's own simulate_paths.
    One draw set at most is alive, so when n_paths spans several batches
    each vertex of a class draws them again."""
    cfg = replace(cfg, horizon=t)
    thetas = theta_set.vertices()
    x0, lo, hi = _start(x0, theta_set.dim, cfg)
    classes = [_law(theta, lo, hi, cfg, mode)[1] for theta in thetas]
    order = sorted(range(len(thetas)), key=lambda k: classes.index(classes[k]))
    draws = _shared_draws()
    means, ses = [0.0] * len(thetas), [0.0] * len(thetas)
    best, winner = None, None
    for k in order:
        bundle = simulate_paths(thetas[k], x0, cfg, mode, draws=draws)
        means[k], ses[k] = _payoff_moments(payoff, bundle)
        if best is None or _first_max_rank(k, means[k]) > _first_max_rank(best, means[best]):
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
    fit it against (1 + |x0|)^p (t^p + t^(p/2)); every t must lie on the
    paths' step grid, steps of at most min(cfg.dt, min(t_grid) / 4)."""
    if not 1.0 <= p <= 2.0:
        raise ValueError("p must lie in [1, 2]")
    t_grid = sorted(float(t) for t in t_grid)
    if t_grid[-1] > 0.1 + 1e-12:
        raise ValueError("moment fit is a small-time check; keep max(t) <= 0.1")
    cfg = replace(cfg, dt=min(cfg.dt, t_grid[0] / 4.0), horizon=t_grid[-1])
    n_steps, dt = step_count(cfg.horizon, cfg.dt)
    steps = [grid_index(t, 0.0, dt, n_steps + 1) for t in t_grid]
    if None in steps:
        raise ValueError(f"t_grid time {t_grid[steps.index(None)]} is off the step grid")
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


_CSV_BLOCK = 4096  # rows per chunk of write_chunks; bounds the writer's memory


def bundle_to_csv(bundle: PathBundle, path) -> None:
    """Rows path_index,seed,terminal,running_sup,exit_time (terminal columns
    expand per coordinate for d = 2); LF endings, 17 significant digits, an
    empty exit_time for a path that never left.  Columns are formatted a
    block of rows at a time, one chunk of write_chunks per block."""
    d = bundle.terminal.shape[1]
    term_cols = ["terminal"] if d == 1 else [f"terminal{i+1}" for i in range(d)]
    header = ["path_index", "seed"] + term_cols + ["running_sup", "exit_time"]
    row = "%d,%d," + "%.17g," * (d + 1) + "%s\n"

    def block(k: int) -> bytes:
        b0 = k * _CSV_BLOCK
        rows = slice(b0, b0 + _CSV_BLOCK)
        exits = ["" if math.isnan(e) else "%.17g" % e
                 for e in bundle.exit_time[rows].tolist()]
        cols = zip(range(b0, b0 + len(exits)), bundle.seeds[rows].tolist(),
                   *bundle.terminal[rows].T.tolist(),
                   bundle.running_sup[rows].tolist(), exits)
        return "".join(map(row.__mod__, cols)).encode()

    write_chunks(path, (",".join(header) + "\n").encode(), block,
                 -(-bundle.n_paths // _CSV_BLOCK))
