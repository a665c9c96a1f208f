"""Command-line front end.

Exit codes: 0 success, 2 validation error (bad file or parameters),
3 numerical failure (a module guard tripped).  Outputs are deterministic
for a fixed configuration; CSV values carry 17 significant digits.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import flow as flow_mod
from . import geometric as geo
from .errors import NumericalError, SzegoLabError, ValidationError
from .fileio import fmt, write_csv
from .hankel import pair_singular_values
from .hardy import HardyFunction
from .inverse import (SpectralData, c1_closed_form, c1_lower_bound, operator_bounds,
                      reconstruct_function, reconstruct_point)


def _print_kv(pairs) -> None:
    print(" ".join(f"{k}={fmt(v) if isinstance(v, float) else v}" for k, v in pairs))


def _parse_complex(text: str) -> complex:
    if "," in text:
        re_s, im_s = text.split(",", 1)
        try:
            return complex(float(re_s), float(im_s))
        except ValueError as exc:
            raise ValidationError(f"bad complex value {text!r}: {exc}") from exc
    try:
        return complex(text)
    except ValueError as exc:
        raise ValidationError(f"bad complex value {text!r}: {exc}") from exc


def _parse_grid(text: str) -> list[float]:
    """Comma list '0.1,0.2' or inclusive range 'start:stop:step'."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValidationError(f"range grid must be start:stop:step, got {text!r}")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError as exc:
            raise ValidationError(f"bad grid {text!r}: {exc}") from exc
        if step <= 0:
            raise ValidationError(f"grid step must be positive, got {step}")
        n = int(np.floor((stop - start) / step + 1e-9)) + 1
        return [start + i * step for i in range(max(n, 0))]
    if not text.strip():
        return []
    try:
        return [float(p) for p in text.split(",")]
    except ValueError as exc:
        raise ValidationError(f"bad grid {text!r}: {exc}") from exc


# --- subcommands ----------------------------------------------------------


def cmd_reconstruct(args) -> None:
    data = SpectralData.load_json(args.data)
    u = reconstruct_function(data, args.modes)
    u.save_csv(args.out)
    _print_kv([("modes", args.modes), ("out", args.out)])


def cmd_spectrum(args) -> None:
    u = HardyFunction.load_csv(args.coeffs)
    spec = pair_singular_values(u, args.m)
    _print_kv([("rho", ",".join(fmt(v) for v in spec.rho)),
               ("sigma", ",".join(fmt(v) for v in spec.sigma)),
               ("tail_mass", float(spec.tail_mass))])
    if args.out:
        spec.save_csv(args.out)


def cmd_certify(args) -> None:
    data = SpectralData.load_json(args.data)
    report = operator_bounds(data)
    for key, val in report.as_dict().items():
        print(f"{key}={fmt(val) if isinstance(val, float) else val}")


def cmd_c1(args) -> None:
    data = SpectralData.load_json(args.data)
    bounds = c1_lower_bound(data)
    closed = c1_closed_form(data)
    _print_kv([("closed_form", closed), ("lower_bound", bounds.corollary),
               ("eq4_bound", bounds.pairs_sum)])


def cmd_flow(args) -> None:
    data = SpectralData.load_json(args.data)
    u0 = reconstruct_function(data, args.modes)
    traj = flow_mod.integrate(u0, args.t_final, args.dt, args.modes)
    rows = flow_mod.conservation_report(traj)
    write_csv(args.out, ["t", "mass", "h_half_norm", "sv_drift_max"],
              [(r.t, r.mass, r.h_half_norm, r.sv_drift_max) for r in rows])
    _print_kv([("samples", len(rows)), ("out", args.out),
               ("final_sv_drift_max", rows[-1].sv_drift_max if rows else 0.0)])


def cmd_flow_compare(args) -> None:
    data = SpectralData.load_json(args.data)
    disc = flow_mod.compare_flows(data, args.t_final, args.dt, args.modes)
    _print_kv([("discrepancy", disc)])


def cmd_geometric(args) -> None:
    params = geo.GeometricParams(h=args.h, theta=args.theta)
    gam = params.gamma
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    # winding index at the geometric midpoints of the pole/zero annuli
    radii = [gam ** (k / 2.0) for k in range(5, -6, -2)]
    profile = geo.index_profile(gam, radii)
    write_csv(out_dir / "index_profile.csv", ["R", "index"],
              [(float(r), "" if idx is None else idx) for r, idx in profile])

    n_values = sorted({max(2, args.n_max // 4), max(3, args.n_max // 2), args.n_max})
    scan = geo.stability_scan(params, args.z, args.r, n_values)
    write_csv(out_dir / "stability.csv", ["N", "inv_norm_2"], [(n, v) for n, v in scan])

    gap = geo.zero_gap(gam)
    for key, val in gap.as_dict().items():
        print(f"{key}={fmt(val)}")

    u_t = geo.u_via_toeplitz(params, args.z, args.r, args.n_max)
    data = geo.geometric_spectral_data(params, args.n_max)
    u_c = reconstruct_point(data, args.z, method="neumann")
    _print_kv([("u_toeplitz", u_t), ("u_cauchy", u_c), ("route_delta", abs(u_t - u_c)),
               ("index_profile", str(out_dir / "index_profile.csv")),
               ("stability", str(out_dir / "stability.csv"))])


# --- sweep ----------------------------------------------------------------


def _sweep_zero_gap(gamma: float) -> dict:
    return geo.zero_gap(gamma).as_dict()


def _sweep_operator_bounds(delta: float, n: int) -> dict:
    s = delta ** np.arange(1, 2 * n + 1)
    data = SpectralData(s, np.zeros(2 * n))
    return operator_bounds(data).as_dict()


SWEEP_TASKS = {
    "zero-gap": (["gamma"], ["gamma", "min_unit", "max_inner_scaled", "gap", "poisson_bound"]),
    "operator-bounds": (["delta"], ["delta", "l1_norm_c0inv_sum", "l1_norm_product",
                                    "bound_value", "certified_radius", "c0inv_sum_bound"]),
}


def _sweep_workers() -> int:
    env = os.environ.get("SZEGO_LAB_THREADS", "")
    if env.strip():
        try:
            cap = int(env)
        except ValueError as exc:
            raise ValidationError(f"SZEGO_LAB_THREADS must be an integer, got {env!r}") from exc
        return max(cap, 0)
    return min(8, os.cpu_count() or 1)


def cmd_sweep(args) -> None:
    if args.task not in SWEEP_TASKS:
        raise ValidationError(f"unknown sweep task {args.task!r}; choose from {sorted(SWEEP_TASKS)}")
    grid = _parse_grid(args.grid)
    _, columns = SWEEP_TASKS[args.task]

    def run_one(value: float) -> dict:
        if args.task == "zero-gap":
            return _sweep_zero_gap(value)
        return _sweep_operator_bounds(value, args.n)

    results: list[tuple[dict | None, str]] = []  # one entry per grid position
    workers = _sweep_workers()
    if workers <= 1 or len(grid) <= 1:
        for v in grid:
            try:
                results.append((run_one(v), ""))
            except SzegoLabError as exc:
                results.append((None, f"{type(exc).__name__}: {exc}"))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(run_one, v) for v in grid]
            for fut in futures:
                try:
                    results.append((fut.result(), ""))
                except SzegoLabError as exc:
                    results.append((None, f"{type(exc).__name__}: {exc}"))

    rows = []
    for i in sorted(range(len(grid)), key=grid.__getitem__):  # by value, ties in grid order
        v = grid[i]
        row_dict, err = results[i]
        if row_dict is None:
            rows.append([fmt(v)] + [""] * (len(columns) - 1) + [err])
        else:
            rows.append([fmt(float(row_dict[c])) if isinstance(row_dict[c], (int, float)) else str(row_dict[c])
                         for c in columns] + [err])
    write_csv(args.out, columns + ["error"], rows)
    _print_kv([("rows", len(rows)), ("out", args.out)])


# --- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="szegolab",
                                     description="Hankel spectral transform laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reconstruct", help="spectral data -> Taylor coefficients CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--modes", type=int, default=256)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("spectrum", help="coefficients CSV -> singular values")
    p.add_argument("--coeffs", required=True)
    p.add_argument("--M", dest="m", type=int, default=64)
    p.add_argument("--out", default="")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("certify", help="operator-bound report for spectral data")
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("c1", help="first-moment closed form and lower bounds")
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_c1)

    p = sub.add_parser("flow", help="integrate the direct flow, write conservation CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--T", dest="t_final", type=float, required=True)
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--modes", type=int, default=128)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("flow-compare", help="L2 gap between spectral and integrated routes")
    p.add_argument("--data", required=True)
    p.add_argument("--T", dest="t_final", type=float, required=True)
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--modes", type=int, default=128)
    p.set_defaults(func=cmd_flow_compare)

    p = sub.add_parser("geometric", help="geometric-data certificates and route comparison")
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--z", type=_parse_complex, default=complex(0.0))
    p.add_argument("--r", type=float, default=geo.DEFAULT_R)
    p.add_argument("--N-max", dest="n_max", type=int, default=20)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_geometric)

    p = sub.add_parser("sweep", help="run a task over a parameter grid, aggregate CSV")
    p.add_argument("--task", required=True, choices=sorted(SWEEP_TASKS))
    p.add_argument("--grid", required=True, help="comma list or start:stop:step")
    p.add_argument("--N", dest="n", type=int, default=50)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except ValidationError as exc:
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error (io): {exc}", file=sys.stderr)
        return 2
    return 0


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
