"""Config-driven command line: solve | simulate | check | compare.

Exit codes: 0 success, 2 configuration error or unusable path (any OSError),
3 numerical abort, an array that cannot be allocated included.  Every
artifact goes through `_write`, so a failed write leaves no partial file.
Every JSON artifact embeds the config hash; surface.csv and bundle.csv
carry theirs in the sibling meta.json / estimate.json (pinned CSV headers).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from dataclasses import asdict

import numpy as np

from .conditions import jsonable, uniqueness_gate
from .config import ConfigError, ExperimentConfig
from .generator import NoAdmissibleVertexError
from .montecarlo import bundle_to_csv, lower_bound_sublinear
from .params import CoefficientError, check_coefficient_bounds
from .pide import CFLError, NonFiniteError, _prepare, grid_tol, write_chunks
from . import __version__


def _write(path, write, *args):
    """write(path, *args), an OSError raised as a config error naming path."""
    try:
        return write(path, *args)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _write_json(path, payload: dict) -> None:
    """payload as sorted, indented JSON: the header of a file of no chunks."""
    text = json.dumps(jsonable(payload), indent=2, sort_keys=True) + "\n"
    write_chunks(path, text.encode(), None, (), 0)


def _peak_rss_mb() -> float:
    """This process's own peak resident set size so far, without forked
    writer processes: VmHWM where /proc has it, as ru_maxrss (KiB on Linux)
    carries the peak of a larger process that started this one."""
    try:
        with open("/proc/self/status") as fh:
            return next(int(s.split()[1]) for s in fh if s.startswith("VmHWM:")) / 1024.0
    except (OSError, StopIteration):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cmd_solve(args) -> int:
    cfg = ExperimentConfig.from_file(args.config)
    split = args.dpp_split
    if split is not None and not 0.0 <= split <= cfg.horizon:
        raise ConfigError(f"--dpp-split must lie in [0, horizon = {cfg.horizon!r}], "
                          f"got {split!r}")
    out = args.out or cfg.output_dir
    os.makedirs(out, exist_ok=True)
    theta_set = cfg.theta_set()
    mode = cfg.mode()
    grid = cfg.grid()
    started = time.perf_counter()
    bounds = check_coefficient_bounds(theta_set)
    gate = None
    if mode.is_hat:
        gate = uniqueness_gate(theta_set, (grid.lower.tolist(), grid.upper.tolist()),
                               bounds=bounds)
        if gate.status == "fail":
            print("warning: uniqueness gate failed; solution is not "
                  "certified unique", file=sys.stderr)
    gated = time.perf_counter()
    march, start = _prepare(theta_set, grid, cfg.payoff(), cfg.horizon, mode, cfg.scheme())
    n = march.n_steps
    kept = {}  # the layers dpp.json needs: n - j and n
    if split is not None:
        try:
            j, mask = march.restart(split)
        except ValueError as exc:  # an off-grid split or an empty interior core
            raise ConfigError(str(exc)) from exc
        kept = dict.fromkeys((n - j, n)) if j else {}
    march_s = time.perf_counter() - gated

    def layers():
        """The march's layers as the surface writer asks for them."""
        nonlocal march_s
        steps = march.steps(start)
        for k in range(n + 1):
            stepped = time.perf_counter()
            layer = next(steps)[0] if k else start
            march_s += time.perf_counter() - stepped
            if k in kept:
                kept[k] = layer
            yield layer

    writers = _write(os.path.join(out, "surface.csv"), march.write_csv, layers())
    written = time.perf_counter()
    meta = {
        "version": __version__,
        "config_hash": cfg.config_hash(),
        "growth_bound": bounds.growth,
        "small_jump_table": {repr(k): v for k, v in bounds.small_jump_table.items()},
        "cfl": {
            "safety": march.problem.scheme.cfl,
            "dt": march.dt,
            "stable_dt": march.stable_dt,
            "max_rate": march.problem.operator.max_rate,
            "n_steps": n,
        },
        "operator": dict(zip(("stencils", "vertices"), march.problem.operator.C.shape),
                         state_free=march.problem.operator.state_free),
        "r_jump": march.r_jump,
        "mode": mode.kind,
        "payoff": march.payoff_name,
        "horizon": march.horizon,
        "grid": {
            "lower": grid.lower.tolist(),
            "upper": grid.upper.tolist(),
            "nodes": list(grid.shape),
        },
        "uniqueness_certified": gate is not None and gate.status == "pass",
        "surface_writers": writers,
        "wall_time_s": time.perf_counter() - started,
        "timings": {
            "gate_s": gated - started,
            "march_s": march_s,
            "write_s": written - gated - march_s,
        },
        "peak_rss_mb": _peak_rss_mb(),
    }
    if gate is not None:
        meta["uniqueness_gate_status"] = gate.status
    _write(os.path.join(out, "meta.json"), _write_json, meta)
    if split is not None:
        restarted = time.perf_counter()
        gap, steps = march.restart_gap(split, kept[n - j], kept[n], mask) if j else (0.0, 0)
        _write(os.path.join(out, "dpp.json"), _write_json,
               {"split": split, "gap": gap, "config_hash": cfg.config_hash(),
                "n_steps": steps, "march_s": time.perf_counter() - restarted})
    return 0


def cmd_simulate(args) -> int:
    cfg = ExperimentConfig.from_file(args.config)
    out = args.out or cfg.output_dir
    os.makedirs(out, exist_ok=True)
    theta_set = cfg.theta_set()
    mode = cfg.mode()
    sim = cfg.sim_config(seed_override=args.seed)
    x0 = cfg.sim_x0()
    payoff = cfg.payoff()
    t = sim.horizon
    started = time.perf_counter()
    lb = lower_bound_sublinear(theta_set, x0, payoff, t, sim, mode)
    swept = time.perf_counter()
    _write(os.path.join(out, "bundle.csv"), lambda path: bundle_to_csv(lb.bundle, path))
    written = time.perf_counter()
    estimate = {
        "config_hash": cfg.config_hash(),
        "mean": lb.mean,
        "se": lb.se,
        "vertex": lb.vertex,
        "all_means": lb.all_means,
        "all_ses": lb.all_ses,
        "t": t,
        "x0": x0.tolist(),
        "n_paths": sim.n_paths,
        "pilot_paths": lb.pilot_paths,
        "seed": sim.seed,
        "flagged_paths": lb.bundle.flagged_count,
        "no_jump_exits": lb.bundle.no_jump_exit_count,
        "thinning_proposed": lb.bundle.thinning_proposed,
        "thinning_accepted": lb.bundle.thinning_accepted,
        "thinning_bound": lb.bundle.thinning_bound,
        "payoff": payoff.name,
        "mode": mode.kind,
        "timings": {"sweep_s": swept - started, "write_s": written - swept},
        "peak_rss_mb": _peak_rss_mb(),
    }
    _write(os.path.join(out, "estimate.json"), _write_json, estimate)
    return 0


def cmd_check(args) -> int:
    cfg = ExperimentConfig.from_file(args.config)
    out = args.out or cfg.output_dir
    os.makedirs(out, exist_ok=True)
    theta_set = cfg.theta_set()
    grid = cfg.grid()
    mode = cfg.mode()
    report = uniqueness_gate(theta_set, (grid.lower.tolist(), grid.upper.tolist()))
    report.config_hash = cfg.config_hash()
    _write(os.path.join(out, "report.json"), _write_json,
           dict(asdict(report), mode=mode.kind))
    if not mode.is_hat:
        print(f"warning: the uniqueness gate checked the hat-mode coefficient map, "
              f"not this config's {mode.kind}-mode one", file=sys.stderr)
    print(f"uniqueness gate: {report.status}")
    return 0


# the bisection for a layer's first row stops at a window this many bytes
# wide; the forward scan covers the rest
_BISECT_WINDOW = 4096


def _row_time(row: bytes) -> float:
    return float(row.split(b",", 1)[0])


def _read_layer(path, t_target: float):
    """Header and rows of the surface.csv layer whose time lies within
    grid_tol(t_target) of t_target, as an (n, d + 2) array; n is 0 if
    there is no such layer.

    The rows are time-major with nondecreasing t (see `March.write_csv`),
    so the layer's first row is found by bisection on byte offsets and only
    the layer's own rows are parsed."""
    tol = grid_tol(t_target)
    rows = []
    with open(path, "rb") as fh:
        try:
            header = fh.readline().decode().strip().split(",")
            # every row before the row start `lo` is earlier than the layer;
            # the layer starts at or before the first row start after `hi`
            lo, hi = fh.tell(), os.fstat(fh.fileno()).st_size
            while hi - lo > _BISECT_WINDOW:
                mid = (lo + hi) // 2
                fh.seek(mid)
                fh.readline()  # finish the partial row
                row = fh.readline()
                if row and _row_time(row) < t_target - tol:
                    lo = fh.tell()
                else:
                    hi = mid
            fh.seek(lo)
            for row in fh:
                t = _row_time(row)
                if not t <= t_target + tol:
                    break
                if t >= t_target - tol:
                    rows.append(row.decode())
            if not rows:
                return header, np.empty((0, len(header)))
            data = np.loadtxt(rows, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ConfigError(f"{path}: a row does not parse: {exc}") from exc
    if data.shape[1] != len(header):
        raise ConfigError(f"{path}: rows of {data.shape[1]} fields under a "
                          f"header of {len(header)}")
    return header, data


def _read_json(path) -> dict:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path} is not a JSON object")
    return data


def cmd_compare(args) -> int:
    est = _read_json(args.estimate)
    try:
        t_target = float(est["t"])
        x0 = np.atleast_1d(np.asarray(est["x0"], dtype=float))
        mc = float(est["mean"])
        se = float(est["se"])
    except KeyError as exc:
        raise ConfigError(f"{args.estimate} lacks the field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{args.estimate}: {exc}") from exc
    for name, v in (("t", t_target), ("x0", x0), ("mean", mc), ("se", se)):
        if not np.all(np.isfinite(v)):
            raise ConfigError(f"{args.estimate}: {name} must be finite, got {est[name]!r}")
    meta_path = args.meta or os.path.join(os.path.dirname(args.surface), "meta.json")
    if not os.path.exists(meta_path):
        if not args.force:
            raise ConfigError("meta.json with the surface config hash not found; "
                              "rerun solve or pass --force")
        meta = {}
    else:
        meta = _read_json(meta_path)
    grid = meta.get("grid", {})
    if not isinstance(grid, dict):
        raise ConfigError(f"{meta_path}: grid must be an object, got {grid!r}")
    nodes = grid.get("nodes")
    if nodes is not None and not (isinstance(nodes, list)
                                  and all(type(n) is int for n in nodes)):
        raise ConfigError(f"{meta_path}: grid.nodes must be a list of integers, "
                          f"got {nodes!r}")
    if meta and meta.get("config_hash") != est.get("config_hash") and not args.force:
        raise ConfigError("surface and estimate come from different configs "
                          "(hash mismatch); pass --force to compare anyway")
    header, rows = _read_layer(args.surface, t_target)
    d = len(header) - 2
    if rows.shape[0] == 0:
        raise ConfigError(f"surface carries no layer at t = {t_target}")
    if nodes is not None and rows.shape[0] != np.prod(nodes):
        raise ConfigError(f"{args.surface}: the layer at t = {t_target} has "
                          f"{rows.shape[0]} rows, but meta.json gives a grid of "
                          f"{nodes} nodes")
    if x0.shape != (d,):
        raise ConfigError(f"{args.estimate}: x0 has {x0.shape[0]} coordinates, "
                          f"the surface {d}")
    xs = rows[:, 1:1 + d]
    # Grid.node_index's rule, coordinate by coordinate: the first such node
    near = (np.abs(xs - x0) <= [grid_tol(v) for v in x0.tolist()]).all(axis=1)
    j = int(np.argmax(near))
    if not near[j]:
        if not args.interpolate:
            raise ConfigError("x0 is not a node of the surface grid; "
                              "pass --interpolate to allow interpolation")
        if d != 1:
            raise ConfigError("interpolation is only supported on 1-D surfaces")
        lo, hi, x = float(xs.min()), float(xs.max()), float(x0[0])
        if not lo <= x <= hi:
            raise ConfigError(f"x0 = {x!r} lies outside the surface grid [{lo!r}, {hi!r}]")
        order = np.argsort(xs[:, 0])
        pide_value = float(np.interp(x, xs[order, 0], rows[order, -1]))
    else:
        pide_value = float(rows[j, -1])
    slack = 3.0 * se + 5e-3
    comparison = {
        "config_hash": est.get("config_hash"),
        "pide_value": pide_value,
        "mc_lower_bound": mc,
        "se": se,
        "bracket_width": pide_value - mc,
        "tolerance": slack,
        "ordering_ok": bool(mc <= pide_value + slack),
        "t": t_target,
        "x0": x0.tolist(),
    }
    out = args.out or os.path.dirname(args.surface) or "."
    os.makedirs(out, exist_ok=True)
    _write(os.path.join(out, "comparison.json"), _write_json, comparison)
    print(
        f"pide {pide_value:.6g} vs mc lower bound {mc:.6g} "
        f"(bracket {pide_value - mc:+.3g}, ordering "
        f"{'ok' if comparison['ordering_ok'] else 'VIOLATED'})"
    )
    return 0 if comparison["ordering_ok"] else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlaffine",
        description="Worst-case expectations of affine jump-diffusions: "
                    "solve the nonlinear Kolmogorov equation, simulate "
                    "lower bounds, check hypotheses, compare results.",
        exit_on_error=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve the worst-case equation",
                             exit_on_error=False)
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--out", default=None)
    p_solve.add_argument("--dpp-split", type=float, default=None,
                         help="optionally verify the restart identity at this time")
    p_solve.set_defaults(func=cmd_solve)

    p_sim = sub.add_parser("simulate", help="Monte Carlo lower bound",
                           exit_on_error=False)
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", default=None)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_check = sub.add_parser("check", help="hypothesis reports")
    p_check.add_argument("--config", required=True)
    p_check.add_argument("--out", default=None)
    p_check.set_defaults(func=cmd_check)

    p_cmp = sub.add_parser("compare", help="bracket a surface against an estimate")
    p_cmp.add_argument("--surface", required=True)
    p_cmp.add_argument("--estimate", required=True)
    p_cmp.add_argument("--meta", default=None)
    p_cmp.add_argument("--out", default=None)
    p_cmp.add_argument("--force", action="store_true")
    p_cmp.add_argument("--interpolate", action="store_true")
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    try:
        # exit_on_error=False: a flag value that does not parse raises ArgumentError
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (argparse.ArgumentError, ConfigError, NoAdmissibleVertexError,
            CoefficientError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (CFLError, NonFiniteError, MemoryError) as exc:
        print(f"numerical abort: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
