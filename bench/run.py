"""Benchmark for szegolab: three workloads, end-to-end metrics, a traced per-layer mode.

Usage, from the root of a checkout:

    python3 bench/run.py --workload roundtrip|flow|certify --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 they are the per-layer ones, from rounds
that run once untraced and once traced.  The full record, with the
environment, goes to bench/out/.  See bench/README.md.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:             # before numpy is imported anywhere in this process
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 5        # fresh interpreters whose median is setup_s
PROBE_TIMEOUT_S = 120


def load_package():
    """Import szegolab from this checkout's src/; return (package, import seconds)."""
    if not (SRC / "szegolab" / "__init__.py").is_file():
        raise SystemExit(f"error: no szegolab package under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import szegolab
    import szegolab.cli  # noqa: F401  (the package does not import its CLI)
    import_s = time.perf_counter() - t0
    if Path(szegolab.__file__).resolve().parent != (SRC / "szegolab").resolve():
        raise SystemExit(f"error: imported szegolab from {szegolab.__file__}, not from {SRC}")
    return szegolab, import_s


def warm_up(sz, w, pool) -> None:
    for label in dict.fromkeys(w.round):
        w.item(sz, pool[label][0], -1)


def probe(workload: str, seed: int) -> None:
    """One fresh interpreter's set-up: import, warm-up; input generation is timed apart."""
    sz, import_s = load_package()
    t0 = time.perf_counter()
    from workloads import WORKLOADS
    w = WORKLOADS[workload]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        pool = w.inputs(seed)
        if w.prepare:
            w.prepare(pool, Path(tmp))
        excluded_s = time.perf_counter() - t0
        warm_up(sz, w, pool)
        ready = time.perf_counter()
    print(json.dumps({"ready": ready, "excluded_s": excluded_s, "import_s": import_s}))


def probe_setup(workload: str, seed: int):
    """Spawn one fresh interpreter; return (set-up seconds, import seconds).

    Set-up runs from spawn to ready, less the probe's input generation;
    perf_counter is CLOCK_MONOTONIC on Linux, shared by parent and child.
    """
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--probe",
                           "--workload", workload, "--seed", str(seed), "--seconds", "0"],
                          capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    return rec["ready"] - t0 - rec["excluded_s"], rec["import_s"]


def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:                   # numpy before 1.25 only prints its configuration
        deps = {}
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: {f: deps.get(k, {}).get(f) for f in ("name", "version")} for k in ("blas", "lapack")},
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def tail_index(n: int, pct: float) -> int:
    """Index into sorted samples for pct, kept at least ten samples from the top."""
    return max(0, min(math.ceil(pct / 100.0 * n) - 1, n - 11))


def run_phase(sz, w, pool, seconds: float, tracer, probe):
    """Whole rounds until `seconds` of rounds have passed.

    With a tracer each round runs untraced and traced.  The set-up probes are
    spread evenly over the phase, between rounds, so their median samples the
    host over the whole run; their time is not counted in the phase.
    """
    records = []                    # (class, pool index, seconds, traced, outputs or exception)
    probes = []
    next_index = {label: 0 for label in pool}
    t_start = time.perf_counter()
    probe_s = 0.0
    rounds = 0
    while True:
        if len(probes) < SETUP_PROBES and (time.perf_counter() - t_start - probe_s) >= \
                seconds * (len(probes) + 0.5) / SETUP_PROBES:
            t0 = time.perf_counter()
            probes.append(probe())
            probe_s += time.perf_counter() - t0
        plan = []
        for label in w.round:
            plan.append((label, next_index[label] % len(pool[label])))
            next_index[label] += 1
        modes = [False] if tracer is None else ([False, True] if rounds % 2 == 0 else [True, False])
        for traced in modes:
            if traced:
                tracer.install()
            for label, i in plan:
                k = len(records)
                entry = pool[label][i]
                t0 = time.perf_counter()
                try:
                    if traced:
                        out = tracer.run_item(k, lambda: w.item(sz, entry, k))
                    else:
                        out = w.item(sz, entry, k)
                except Exception as exc:    # the item fails; the run goes on and reports it
                    out = exc
                records.append((label, i, time.perf_counter() - t0, traced, out))
            if traced:
                tracer.uninstall()
        rounds += 1
        wall = time.perf_counter() - t_start - probe_s
        if wall >= seconds:
            while len(probes) < SETUP_PROBES:
                probes.append(probe())
            return records, wall, probes


def end_to_end(w, records, wall, outcomes, setup_s):
    from workloads import TINY
    times = sorted(r[2] for r in records)
    n = len(times)
    digits = [-math.log10(max(o.worst_rel, TINY)) for o in outcomes if o.ok]
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "items_per_s": {"value": n / wall, "unit": "1/s"},
        "item_p50_ms": {"value": statistics.median(times) * 1e3, "unit": "ms"},
        "item_tail_ms": {"value": times[tail_index(n, w.tail_pct)] * 1e3, "unit": "ms"},
        "accuracy_digits": {"value": statistics.median(digits) if digits else 0.0, "unit": "digits"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
    }


def per_layer(tracer, records, import_s):
    tot = collections.defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "work": 0},
                                  tracer.totals())
    items = sum(1 for r in records if r[3])
    traced_s = sum(r[2] for r in records if r[3])
    plain_s = sum(r[2] for r in records if not r[3])

    def calls(name):
        return {"value": tot[name]["calls"] / items, "unit": "calls/item"}

    def ms_per_call(name):
        c = tot[name]["calls"]
        return {"value": tot[name]["incl_s"] * 1e3 / c if c else 0.0, "unit": "ms"}

    def self_ms(name):
        return {"value": tot[name]["self_s"] * 1e3 / items, "unit": "ms"}

    def layer_ms(prefix):
        return {"value": sum(v["self_s"] for k, v in tot.items() if k.startswith(prefix + "."))
                * 1e3 / items, "unit": "ms"}

    steps = tot["flow.integrate"]["work"]
    m = {
        "hankel.pair_singular_values.calls": calls("hankel.pair_singular_values"),
        "hankel.pair_singular_values.ms_per_call": ms_per_call("hankel.pair_singular_values"),
        "hankel.pair_singular_values.self_ms": self_ms("hankel.pair_singular_values"),
        "inverse.cauchy_neumann_factors.calls": calls("inverse.cauchy_neumann_factors"),
        "inverse.cauchy_neumann_factors.ms_per_call": ms_per_call("inverse.cauchy_neumann_factors"),
        "inverse.reconstruct_point.self_ms": self_ms("inverse.reconstruct_point"),
        "inverse.operator_bounds.self_ms": self_ms("inverse.operator_bounds"),
        "inverse.taylor_coefficients.self_ms": self_ms("inverse.taylor_coefficients"),
        "flow.integrate.steps": {"value": steps / items, "unit": "steps/item"},
        "flow.integrate.us_per_step": {
            "value": tot["flow.integrate"]["self_s"] * 1e6 / steps if steps else 0.0, "unit": "us"},
        "flow.conservation_report.self_ms": self_ms("flow.conservation_report"),
        "geometric.zero_gap.ms_per_call": ms_per_call("geometric.zero_gap"),
        "geometric.winding_index.ms_per_call": ms_per_call("geometric.winding_index"),
        "geometric.f_gamma.points": {"value": tot["geometric.f_gamma"]["work"] / items,
                                     "unit": "points/item"},
        "geometric.u_via_toeplitz.self_ms": self_ms("geometric.u_via_toeplitz"),
        "cli.main.self_ms": self_ms("cli.main"),
        "fileio.ms": layer_ms("fileio"),
        "hardy.ms": layer_ms("hardy"),
        "import.ms": {"value": import_s * 1e3, "unit": "ms"},
        "trace.overhead_pct": {"value": (traced_s / plain_s - 1.0) * 100.0, "unit": "%"},
    }
    return m, tot


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("roundtrip", "flow", "certify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.probe:
        probe(args.workload, args.seed)
        return 0

    sz, _ = load_package()                  # fails fast outside a checkout; compiles bytecode
    from tracing import Tracer
    from workloads import WORKLOADS, Outcome
    w = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        pool = w.inputs(args.seed)
        if w.prepare:
            w.prepare(pool, Path(tmp))
        refs = {label: [w.references(e) if w.references else None for e in entries]
                for label, entries in pool.items()}
        warm_up(sz, w, pool)
        tracer = Tracer(sz) if args.trace else None
        records, wall, probes = run_phase(sz, w, pool, args.seconds, tracer,
                                          lambda: probe_setup(args.workload, args.seed))
        setup_samples = [p[0] for p in probes]
        import_s = statistics.median(p[1] for p in probes)
        outcomes = []
        for label, i, _sec, _traced, out in records:
            if isinstance(out, Exception):
                outcomes.append(Outcome(False, math.inf, f"{type(out).__name__}: {out}"))
            else:
                outcomes.append(w.check(pool[label][i], refs[label][i], out))

    failed = [(r[0], o.reason) for r, o in zip(records, outcomes) if not o.ok]
    correct = all(label in w.known_fault for label, _ in failed)
    result = {"correct": correct, "attempted": len(records), "failed": len(failed)}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(),
              "failures": sorted({f"{label}: {reason}" for label, reason in failed})[:20],
              "setup_samples_s": setup_samples, "tail_pct": w.tail_pct}
    if tracer is None:
        result["metrics"] = end_to_end(w, records, wall, outcomes, statistics.median(setup_samples))
        times = sorted(r[2] for r in records)
        record["tail_index"] = tail_index(len(times), w.tail_pct)
    else:
        result["metrics"], record["layers"] = per_layer(tracer, records, import_s)
        spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.json"
        with spans_path.open("w", encoding="utf-8") as f:
            json.dump({"environment": record["environment"], "names": tracer.names,
                       "fields": ["name", "start_s", "end_s", "parent", "item", "work"],
                       "spans": tracer.spans}, f)
    record.update(result)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    for name, v in result["metrics"].items():
        print(f"{args.workload:10s} {name:45s} {v['value']:14.6g} {v['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
