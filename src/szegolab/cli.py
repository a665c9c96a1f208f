"""Command-line front end.

Exit codes: 0 success, 2 validation error (bad file or parameters, or a
size too large to allocate), 3 numerical failure (a module guard tripped).
Outputs are deterministic for a fixed configuration. Every printed or CSV
value goes through `fileio.fmt` (floats carry 17 significant digits), and a
report prints its dataclass fields in declaration order.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import astuple, fields
from functools import cache
from pathlib import Path

import numpy as np

from . import flow as flow_mod
from . import geometric as geo
from .errors import NumericalError, SzegoLabError, ValidationError
from .fileio import fmt, write_csv
from .hankel import pair_singular_values
from .hardy import HardyFunction
from .inverse import (OperatorBounds, SpectralData, c1_closed_form, c1_lower_bound,
                      operator_bounds, reconstruct_function, reconstruct_point)


def _print_kv(pairs) -> None:
    print(" ".join(f"{k}={fmt(v)}" for k, v in pairs))


def _print_report(report) -> None:  # one key=value line per field, in declaration order
    print("\n".join(f"{f.name}={fmt(getattr(report, f.name))}" for f in fields(report)))


def _parse_complex(text: str) -> complex:
    """'re,im' or a Python complex literal; must be finite."""
    try:
        if "," in text:
            re_s, im_s = text.split(",", 1)
            value = complex(float(re_s), float(im_s))
        else:
            value = complex(text)
    except ValueError as exc:
        raise ValidationError(f"bad complex value {text!r}: {exc}") from exc
    if not np.isfinite(value):
        raise ValidationError(f"complex value must be finite, got {text!r}")
    return value


def _parse_grid(text: str) -> list[float]:
    """Comma list '0.1,0.2' of finite values or inclusive range 'start:stop:step'."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValidationError(f"range grid must be start:stop:step, got {text!r}")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError as exc:
            raise ValidationError(f"bad grid {text!r}: {exc}") from exc
        if not (np.isfinite(start) and np.isfinite(stop)):
            raise ValidationError(f"grid start and stop must be finite, got {text!r}")
        if not step > 0:  # NaN fails too
            raise ValidationError(f"grid step must be positive, got {step}")
        n = np.floor((stop - start) / step + 1e-9) + 1
        if not n <= 1e6:  # inf trips too
            raise ValidationError(f"range grid {text!r} has {n:g} points, more than 1e6")
        return [start + i * step for i in range(max(int(n), 0))]
    if not text.strip():
        return []
    try:
        grid = [float(p) for p in text.split(",")]
    except ValueError as exc:
        raise ValidationError(f"bad grid {text!r}: {exc}") from exc
    if not np.all(np.isfinite(grid)):  # a NaN would also leave sorted() out of order
        raise ValidationError(f"grid values must be finite, got {text!r}")
    return grid


# --- subcommands ----------------------------------------------------------


def cmd_reconstruct(args) -> None:
    u = reconstruct_function(args.data, args.modes)
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
    _print_report(operator_bounds(args.data))


def cmd_c1(args) -> None:
    bounds = c1_lower_bound(args.data)
    closed = c1_closed_form(args.data)
    _print_kv([("closed_form", closed), ("lower_bound", bounds.corollary),
               ("eq4_bound", bounds.pairs_sum)])


def cmd_flow(args) -> None:
    u0 = reconstruct_function(args.data, 2 * args.modes)  # a tail past --modes for integrate's guard
    traj = flow_mod.integrate(u0, args.t_final, args.dt, args.modes)
    rows = flow_mod.conservation_report(traj)
    write_csv(args.out, ["t", "mass", "h_half_norm", "sv_drift_max"],
              [(r.t, r.mass, r.h_half_norm, r.sv_drift_max) for r in rows])
    _print_kv([("samples", len(rows)), ("out", args.out),
               ("final_sv_drift_max", rows[-1].sv_drift_max)])


def cmd_flow_compare(args) -> None:
    disc = flow_mod.compare_flows(args.data, args.t_final, args.dt, args.modes)
    _print_kv([("discrepancy", disc)])


def cmd_geometric(args) -> None:
    params = geo.GeometricParams(h=args.h, theta=args.theta)
    z = _parse_complex(args.z)  # parsed here, not by argparse, so a bad value exits 2
    gam = params.gamma
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    # winding index at the geometric midpoints of the pole/zero annuli
    try:
        radii = [gam ** (k / 2.0) for k in range(5, -6, -2)]
    except (OverflowError, ZeroDivisionError) as exc:  # e^(5h) overflows, or gamma underflows to 0
        raise ValidationError(f"h = {args.h} puts the index-profile radii outside the double range") from exc
    profile = geo.index_profile(gam, radii)
    write_csv(out_dir / "index_profile.csv", ["R", "index"],
              [(float(r), "" if idx is None else idx) for r, idx in profile])

    n_values = sorted({max(2, args.n_max // 4), max(3, args.n_max // 2), args.n_max})
    scan = geo.stability_scan(params, z, args.r, n_values)
    write_csv(out_dir / "stability.csv", ["N", "inv_norm_2"], [(n, v) for n, v in scan])

    _print_report(geo.zero_gap(gam))

    u_t = geo.u_via_toeplitz(params, z, args.r, args.n_max)
    data = geo.geometric_spectral_data(params, args.n_max)
    u_c = reconstruct_point(data, z)
    _print_kv([("u_toeplitz", u_t), ("u_cauchy", u_c), ("route_delta", abs(u_t - u_c)),
               ("index_profile", str(out_dir / "index_profile.csv")),
               ("stability", str(out_dir / "stability.csv"))])


# --- sweep ----------------------------------------------------------------


def _sweep_operator_bounds(delta: float, n: int) -> OperatorBounds:
    s = delta ** np.arange(1, 2 * n + 1)
    return operator_bounds(SpectralData(s, np.zeros(2 * n)))


SWEEP_TASKS = {  # task -> (report of (grid value, N), report type); its fields are the columns
    "zero-gap": (lambda gamma, n: geo.zero_gap(gamma), geo.ZeroGapReport),
    "operator-bounds": (_sweep_operator_bounds, OperatorBounds),
}


def cmd_sweep(args) -> None:
    grid = _parse_grid(args.grid)
    if args.n < 1:
        raise ValidationError(f"--N must be >= 1, got {args.n}")
    report_fn, report_type = SWEEP_TASKS[args.task]
    columns = [f.name for f in fields(report_type)]
    rows = []
    for v in sorted(grid):  # stable, so repeated values keep their grid order
        try:
            rows.append([*astuple(report_fn(v, args.n)), ""])
        except SzegoLabError as exc:
            rows.append([v] + [""] * (len(columns) - 1) + [f"{type(exc).__name__}: {exc}"])
    write_csv(args.out, columns + ["error"], rows)
    _print_kv([("rows", len(rows)), ("out", args.out)])


# --- parser ----------------------------------------------------------------


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="szegolab",
                                     description="Hankel spectral transform laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    data = argparse.ArgumentParser(add_help=False)  # a pairs JSON file, which main loads
    data.add_argument("--data", required=True)
    flow = argparse.ArgumentParser(add_help=False)  # flow and flow-compare
    flow.add_argument("--T", dest="t_final", type=float, required=True)
    flow.add_argument("--dt", type=float, required=True)
    flow.add_argument("--modes", type=int, default=128)

    p = sub.add_parser("reconstruct", parents=[data], help="spectral data -> Taylor coefficients CSV")
    p.add_argument("--modes", type=int, default=256)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("spectrum", help="coefficients CSV -> singular values")
    p.add_argument("--coeffs", required=True)
    p.add_argument("--M", dest="m", type=int, default=64)
    p.add_argument("--out", default="")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("certify", parents=[data], help="operator-bound report for spectral data")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("c1", parents=[data], help="first-moment closed form and lower bounds")
    p.set_defaults(func=cmd_c1)

    p = sub.add_parser("flow", parents=[data, flow],
                       help="integrate the direct flow, write conservation CSV")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("flow-compare", parents=[data, flow],
                       help="L2 gap between spectral and integrated routes")
    p.set_defaults(func=cmd_flow_compare)

    p = sub.add_parser("geometric", help="geometric-data certificates and route comparison")
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--z", default="0")
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
        for name, value in vars(args).items():  # every int argument is a size
            # numpy counts an array's bytes in np.intp and past that range raises ValueError,
            # not MemoryError; the first array a size n makes holds at most 4n complex values,
            # as flow and flow-compare reconstruct 2n coefficients
            if type(value) is int and value > np.iinfo(np.intp).max // (4 * np.dtype(complex).itemsize):
                raise ValidationError(f"{name} = {value} is past the array sizes numpy can index")
        if "data" in vars(args):
            args.data = SpectralData.load_json(args.data)
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
    except MemoryError as exc:
        print(f"error (memory): {exc}", file=sys.stderr)
        return 2
    return 0


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
