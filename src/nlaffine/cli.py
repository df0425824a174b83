"""Config-driven command line: solve | simulate | check | compare.

Exit codes: 0 success, 2 configuration error, 3 numerical abort.  Every JSON
artifact embeds the config hash; surface.csv and bundle.csv carry their hash
in the sibling meta.json / estimate.json (the CSV headers are pinned).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from .conditions import uniqueness_gate
from .config import ConfigError, ExperimentConfig
from .montecarlo import bundle_to_csv, lower_bound_sublinear
from .pide import CFLError, NonFiniteError, dpp_gap, solve
from . import __version__


def _write_json(path, payload: dict) -> None:
    def clean(obj):
        if isinstance(obj, dict):
            return {k: clean(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [clean(v) for v in obj]
        if isinstance(obj, np.ndarray):
            return clean(obj.tolist())
        if isinstance(obj, (np.floating, np.integer)):
            return obj.item()
        if isinstance(obj, float) and not np.isfinite(obj):
            return repr(obj)
        return obj

    with open(path, "w", newline="\n") as fh:
        json.dump(clean(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig.from_file(args.config)
    if args.out:
        cfg.data["output_dir"] = args.out
    return cfg


def cmd_solve(args) -> int:
    cfg = _load_config(args)
    out = cfg.output_dir
    os.makedirs(out, exist_ok=True)
    theta_set = cfg.theta_set()
    mode = cfg.mode()
    grid = cfg.grid()
    started = time.perf_counter()
    gate = None
    if mode.is_hat:
        lo = grid.lower.tolist()
        hi = grid.upper.tolist()
        gate = uniqueness_gate(theta_set, (lo, hi), n_samples=64)
        if gate.status == "fail":
            print("warning: uniqueness gate failed; solution is not "
                  "certified unique", file=sys.stderr)
    surface = solve(
        theta_set, grid, cfg.payoff(), cfg.horizon, mode,
        scheme=cfg.scheme(), truncation=cfg.truncation(),
    )
    surface.to_csv(os.path.join(out, "surface.csv"))
    from .params import check_coefficient_bounds

    bounds = check_coefficient_bounds(theta_set)
    meta = {
        "version": __version__,
        "config_hash": cfg.config_hash(),
        "growth_bound": surface.meta["growth_bound"],
        "small_jump_table": {
            repr(k): {repr(x): v for x, v in row.items()}
            for k, row in bounds.small_jump_table.items()
        },
        "cfl": {
            "safety": surface.meta["cfl"],
            "dt": surface.meta["dt"],
            "stable_dt": surface.meta["stable_dt"],
            "max_rate": surface.meta["max_rate"],
            "n_steps": surface.meta["n_steps"],
        },
        "r_jump": surface.meta["r_jump"],
        "mode": surface.meta["mode"],
        "payoff": surface.payoff_name,
        "horizon": surface.horizon,
        "grid": {
            "lower": grid.lower.tolist(),
            "upper": grid.upper.tolist(),
            "nodes": list(grid.shape),
        },
        "uniqueness_certified": bool(gate is not None and gate.status != "fail"),
        "wall_time_s": time.perf_counter() - started,
    }
    if gate is not None:
        meta["uniqueness_gate_status"] = gate.status
    _write_json(os.path.join(out, "meta.json"), meta)
    if args.dpp_split is not None:
        gap = dpp_gap(surface, float(args.dpp_split))
        _write_json(os.path.join(out, "dpp.json"),
                    {"split": float(args.dpp_split), "gap": gap,
                     "config_hash": cfg.config_hash()})
    return 0


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    out = cfg.output_dir
    os.makedirs(out, exist_ok=True)
    theta_set = cfg.theta_set()
    mode = cfg.mode()
    sim = cfg.sim_config(seed_override=args.seed)
    x0 = cfg.sim_x0()
    payoff = cfg.payoff()
    t = sim.horizon
    lb = lower_bound_sublinear(theta_set, x0, payoff, t, sim, mode)
    bundle_to_csv(lb.bundle, os.path.join(out, "bundle.csv"))
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
        "seed": sim.seed,
        "flagged_paths": lb.bundle.flagged_count,
        "no_jump_exits": lb.bundle.no_jump_exit_count,
        "payoff": payoff.name,
        "mode": mode.kind,
    }
    _write_json(os.path.join(out, "estimate.json"), estimate)
    return 0


def cmd_check(args) -> int:
    cfg = _load_config(args)
    out = cfg.output_dir
    os.makedirs(out, exist_ok=True)
    theta_set = cfg.theta_set()
    grid = cfg.grid()
    report = uniqueness_gate(
        theta_set, (grid.lower.tolist(), grid.upper.tolist()), n_samples=128
    )
    report.config_hash = cfg.config_hash()
    with open(os.path.join(out, "report.json"), "w", newline="\n") as fh:
        fh.write(report.to_json())
        fh.write("\n")
    print(f"uniqueness gate: {report.status}")
    return 0


def _read_surface_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def cmd_compare(args) -> int:
    with open(args.estimate) as fh:
        est = json.load(fh)
    meta_path = args.meta or os.path.join(os.path.dirname(args.surface), "meta.json")
    if not os.path.exists(meta_path):
        if not args.force:
            print("error: meta.json with the surface config hash not found; "
                  "rerun solve or pass --force", file=sys.stderr)
            return 2
        meta = {}
    else:
        with open(meta_path) as fh:
            meta = json.load(fh)
    if meta and meta.get("config_hash") != est.get("config_hash") and not args.force:
        print("error: surface and estimate come from different configs "
              "(hash mismatch); pass --force to compare anyway", file=sys.stderr)
        return 2
    header, data = _read_surface_csv(args.surface)
    d = len(header) - 2
    t_target = float(est["t"])
    x0 = np.atleast_1d(np.asarray(est["x0"], dtype=float))
    times = data[:, 0]
    t_rows = np.abs(times - t_target) <= 1e-9 * max(1.0, t_target)
    if not np.any(t_rows):
        print(f"error: surface carries no layer at t = {t_target}", file=sys.stderr)
        return 2
    rows = data[t_rows]
    xs = rows[:, 1:1 + d]
    dist = np.linalg.norm(xs - x0[None, :], axis=1)
    j = int(np.argmin(dist))
    if dist[j] > 1e-9 * max(1.0, float(np.linalg.norm(x0))):
        if not args.interpolate:
            print("error: x0 is not a node of the surface grid; "
                  "pass --interpolate to allow interpolation", file=sys.stderr)
            return 2
        if d != 1:
            print("error: interpolation is only supported on 1-D surfaces",
                  file=sys.stderr)
            return 2
        order = np.argsort(xs[:, 0])
        pide_value = float(np.interp(x0[0], xs[order, 0], rows[order, -1]))
    else:
        pide_value = float(rows[j, -1])
    mc = float(est["mean"])
    se = float(est["se"])
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
    _write_json(os.path.join(out, "comparison.json"), comparison)
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
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve the worst-case equation")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--out", default=None)
    p_solve.add_argument("--dpp-split", default=None,
                         help="optionally verify the restart identity at this time")
    p_solve.set_defaults(func=cmd_solve)

    p_sim = sub.add_parser("simulate", help="Monte Carlo lower bound")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (CFLError, NonFiniteError) as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
