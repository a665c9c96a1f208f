"""Fitted scaling exponents of two kernels, as reference figures for bench/README.md.

    python3 bench/scaling.py

Times hankel.pair_singular_values over M = 128..1024 modes and
inverse.cauchy_neumann_factors over N = 10..200 pairs (median of repeats,
one thread) and fits time ~ size^p by least squares on the logs.  Writes
bench/out/scaling.json.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import run  # pins BLAS/OpenMP threads before numpy loads

import numpy as np  # noqa: E402

SIZES_M = (128, 256, 512, 1024)
SIZES_N = (10, 20, 50, 100, 200)


def median_time(fn, repeats: int) -> float:
    fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def fit(sizes, times) -> float:
    return float(np.polyfit(np.log(sizes), np.log(times), 1)[0])


def main() -> int:
    sz, _ = run.load_package()
    # three pairs at ratio 0.3 (resolvable at 128 modes), reconstructed at M modes
    d = sz.SpectralData(0.9 * 0.3 ** np.arange(6), np.linspace(0.3, 2.0, 6))
    t_m = []
    for m in SIZES_M:
        u = sz.reconstruct_function(d, m)
        t_m.append(median_time(lambda u=u, m=m: sz.pair_singular_values(u, m), 7 if m < 1024 else 3))
    t_n = []
    for n in SIZES_N:
        d = sz.SpectralData(0.5 ** np.arange(1, 2 * n + 1, dtype=float), np.zeros(2 * n))
        t_n.append(median_time(lambda d=d: sz.cauchy_neumann_factors(d), 7 if n < 200 else 3))
    result = {
        "environment": run.environment(),
        "pair_singular_values": {"M": list(SIZES_M), "ms": [t * 1e3 for t in t_m],
                                 "exponent": fit(SIZES_M, t_m)},
        "cauchy_neumann_factors": {"N": list(SIZES_N), "ms": [t * 1e3 for t in t_n],
                                   "exponent": fit(SIZES_N, t_n)},
    }
    run.OUT.mkdir(exist_ok=True)
    (run.OUT / "scaling.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    for name in ("pair_singular_values", "cauchy_neumann_factors"):
        r = result[name]
        size_key = "M" if "M" in r else "N"
        cells = ", ".join(f"{k}={v:.2f} ms" for k, v in zip(r[size_key], r["ms"]))
        print(f"{name}: {cells}; exponent {r['exponent']:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
